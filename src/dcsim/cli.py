"""Command-line front end.

Subcommands: simulate, extract, fit-power, compare, report-error. Exit
codes are stable for scripting: 0 success, 2 input or validation error, 1
internal error. An input error is a ``ValueError`` (every input error
class of the package is one) or an ``OSError``, such as a path that cannot
be read or written. Every command checks its inputs with the simulator's
own checks, so a model, scenario or trace that one command accepts, the
simulator can run. A ``simulate`` flag sets the ``SimConfig`` or
``AlgorithmConfig`` field of its name, and ``--algo-config`` overrides
the flags. A flag left out, there or in another command, keeps the
default of the field or parameter it sets. All
randomness flows from --seed; no run reads the clock or the environment
for entropy. Set DCSIM_LOG to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import fields, replace
from typing import TYPE_CHECKING

from . import engine as engine_mod
from . import report as report_mod
from .algorithms import (
    AUTOSCALER_ALGORITHMS,
    OPTIMIZER_ALGORITHMS,
    PLACEMENT_ALGORITHMS,
    AlgorithmConfig,
)
from .model import (
    MALFORMED,
    POLYNOMIAL,
    POLYNOMIAL_PLUS_EXPONENTIAL,
    load_model,
    malformed,
    power_model_to_dict,
    reject_unknown,
    validate,
    workload_to_dict,
    write_json,
)
from .scenario import load_scenario, scenario_to_dict

if TYPE_CHECKING:  # numpy comes with extraction; only extract and fit-power import it
    from .extraction import MeasurementStore

log = logging.getLogger("dcsim.cli")


def relative_error(measured: float, predicted: float) -> float:
    """|measured - predicted| / measured, the energy prediction error."""
    if not (math.isfinite(measured) and math.isfinite(predicted)):
        raise ValueError("measured and predicted energy must be finite")
    if measured == 0:
        raise ValueError("measured energy must be nonzero")
    return abs((measured - predicted) / measured)


def _parse_family(text: str) -> tuple[str, int]:
    if text == "poly-exp":
        return POLYNOMIAL_PLUS_EXPONENTIAL, 3
    if text.startswith("poly") and text[4:].isdigit():
        degree = int(text[4:])
        if degree >= 1:
            return POLYNOMIAL, degree
    raise ValueError(f"unknown power model family {text!r} (use polyN or poly-exp)")


def _read_config(path: str, build):
    """``build`` applied to the JSON document in ``path``. Malformed JSON,
    an unknown or missing key, or a value of the wrong type raises an error
    that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except MALFORMED as exc:
            raise malformed(path, exc) from exc


def _given(args, config) -> dict:
    """The flags in ``args`` that were given and name a field of the
    dataclass ``config``; a flag that was not given takes the field's
    default."""
    given = vars(args)
    return {f.name: given[f.name] for f in fields(config) if f.name in given}


def _algorithm_config(args) -> AlgorithmConfig:
    flags = _given(args, AlgorithmConfig)
    if "algo_config" in args:
        return _read_config(
            args.algo_config,
            lambda overrides: AlgorithmConfig.from_dict({**flags, **overrides}),
        )
    return AlgorithmConfig.from_dict(flags)


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    scenario = load_scenario(args.scenario, known_vm_ids=[vm.id for vm in model.initial_vms])
    algorithms = _algorithm_config(args)
    config = engine_mod.SimConfig(**_given(args, engine_mod.SimConfig))
    report = engine_mod.run(model, scenario, algorithms, config)
    report_mod.write_report(report, args.out)
    print(
        f"simulated {config.end_time:.0f} s: total energy "
        f"{report.total_energy_wh:.2f} Wh, {len(report.vm_records)} VMs, "
        f"{report.rejected_placements()} rejected placements -> {args.out}"
    )
    return 0


def _check_window(args) -> None:
    if not args.frm < args.to:  # NaN fails too
        raise ValueError("--from must precede --to")


def _window_store(store: MeasurementStore, t0: float, t1: float) -> MeasurementStore:
    return replace(store, metrics=[m for m in store.metrics if t0 <= m.time <= t1])


def cmd_extract(args) -> int:
    from .extraction import extract_scenario, ingest_measurements

    _check_window(args)
    model = load_model(args.model)
    problems = validate(model)
    if problems:
        raise ValueError("model does not validate: " + "; ".join(problems))
    store = ingest_measurements(args.metrics, args.events)
    servers = args.servers.split(",") if args.servers else None
    result = extract_scenario(
        store,
        window=(args.frm, args.to),
        servers=servers,
        exclude_autoscaler=args.exclude_autoscaler,
        infrastructure=model,
        **({"resample_interval": args.resample} if "resample" in args else {}),
    )
    if not result.extracted_vm_ids:
        log.warning("no VM submissions found in the window")

    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    stem = os.path.splitext(os.path.basename(args.out))[0]
    workload_dir_name = f"{stem}_workloads"
    workload_dir = os.path.join(out_dir, workload_dir_name)
    os.makedirs(workload_dir, exist_ok=True)

    doc = scenario_to_dict(result.scenario)
    for template_id, template in result.scenario.templates.items():
        filename = f"{template_id}.json"
        with open(os.path.join(workload_dir, filename), "w", encoding="utf-8") as fh:
            write_json(workload_to_dict(template.workload), fh.write)
            fh.write("\n")
        doc["templates"][template_id]["workload"] = {
            "file": f"{workload_dir_name}/{filename}"
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        write_json(doc, fh.write)
        fh.write("\n")

    print(f"extracted {len(result.extracted_vm_ids)} VMs, skipped {len(result.skipped)}")
    for vm_id, reason in result.skipped:
        print(f"skipped {vm_id}: {reason}")
    return 0


def cmd_fit_power(args) -> int:
    from .extraction import clean_power_training_data, fit_power_model, ingest_measurements

    family, degree = _parse_family(args.family)
    _check_window(args)
    store = ingest_measurements(args.metrics, args.events)
    store = _window_store(store, args.frm, args.to)
    pairs = clean_power_training_data(store, args.server, args.bin_width)
    fit = fit_power_model(pairs, family, degree)
    doc = power_model_to_dict(fit.model)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_json(doc, fh.write)
        fh.write("\n")
    print(
        f"fitted {args.family} on {fit.samples} cleaned pairs: "
        f"residual_rms={fit.rms:.6g} W"
        + ("" if fit.converged else " (did not converge)")
    )
    return 0


_COMPARE_KEYS = {"label", "model", "scenario", "algorithms", "sim"}


def _compare_run(cfg: dict, path: str, given: dict) -> dict:
    """One ``compare`` configuration; relative model and scenario paths are
    resolved against the directory of the file at ``path``. ``--seed`` is the
    one seed of every configuration, so ``sim`` may not hold one; ``given``
    holds it if it was given."""
    reject_unknown(cfg, _COMPARE_KEYS, "compare config")
    sim = cfg.get("sim", {})
    if "seed" in sim:
        raise ValueError("sim: seed is set by --seed for every config")
    base = os.path.dirname(os.path.abspath(path))
    return {
        "label": cfg.get("label", os.path.basename(path)),
        "inputs": tuple(
            os.path.normpath(os.path.join(base, cfg[key])) for key in ("model", "scenario")
        ),
        "algorithms": AlgorithmConfig.from_dict(cfg.get("algorithms", {})),
        "config": engine_mod.SimConfig(**sim, **given),
    }


def cmd_compare(args) -> int:
    """Run every configuration on one model, scenario and seed, which are
    loaded once; print a table and optionally write it as JSON."""
    if len(args.config) < 2:
        raise ValueError("compare needs at least two --config files")
    given = _given(args, engine_mod.SimConfig)
    runs = [_read_config(path, lambda cfg: _compare_run(cfg, path, given)) for path in args.config]
    inputs = {run["inputs"] for run in runs}
    if len(inputs) > 1:
        raise ValueError("compare configurations disagree on model/scenario paths")
    ((model_path, scenario_path),) = inputs
    model = load_model(model_path)
    scenario = load_scenario(scenario_path, known_vm_ids=[vm.id for vm in model.initial_vms])

    rows = []
    for run in runs:
        report = engine_mod.run(model, scenario, run["algorithms"], run["config"])
        apps = sorted(report.app_instance_counts)
        rows.append({
            "label": run["label"],
            "total_energy_wh": report.total_energy_wh,
            "rejected_placements": report.rejected_placements(),
            "scaling_actions": report.scaling_action_count(),
            "mean_instances": (
                sum(report.mean_instances(a) for a in apps) / len(apps) if apps else None
            ),
        })
    lowest = min(range(len(rows)), key=lambda i: (rows[i]["total_energy_wh"], i))
    pairwise = []
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            delta = b["total_energy_wh"] - a["total_energy_wh"]
            pairwise.append({
                "a": a["label"],
                "b": b["label"],
                "delta_wh": delta,
                "delta_percent": (
                    100.0 * delta / a["total_energy_wh"] if a["total_energy_wh"] else None
                ),
            })

    header = f"{'label':<24} {'energy_wh':>12} {'rejected':>9} {'actions':>8} {'mean_inst':>10}"
    print(header)
    for i, row in enumerate(rows):
        mean = f"{row['mean_instances']:.2f}" if row["mean_instances"] is not None else "-"
        marker = " *" if i == lowest else ""
        print(
            f"{row['label']:<24} {row['total_energy_wh']:>12.2f} "
            f"{row['rejected_placements']:>9d} {row['scaling_actions']:>8d} "
            f"{mean:>10}{marker}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_json(
                {"runs": rows, "pairwise": pairwise, "lowest_energy": rows[lowest]["label"]},
                fh.write,
            )
            fh.write("\n")
    return 0


def cmd_report_error(args) -> int:
    error = relative_error(args.measured, args.predicted)
    print(f"{100.0 * error:.2f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcsim",
        description="Trace-driven IaaS data center simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag that is not given is left out of ``args``, and its config
    # field keeps its dataclass default.
    sim = sub.add_parser("simulate", help="run a scenario against a data center model",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("--model", required=True)
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--out", required=True, help="output directory for report files")
    sim.add_argument("--end", dest="end_time", type=float, required=True,
                     help="simulation horizon in seconds")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--placement", choices=PLACEMENT_ALGORITHMS)
    sim.add_argument("--optimizer", choices=OPTIMIZER_ALGORITHMS)
    sim.add_argument("--autoscaler", choices=AUTOSCALER_ALGORITHMS)
    sim.add_argument("--power-manager", dest="power_manager_enabled", action="store_true")
    sim.add_argument("--spare-servers", type=int)
    sim.add_argument("--imbalance-threshold", type=float)
    sim.add_argument("--measurement-interval", type=float)
    sim.add_argument("--optimizer-interval", type=float)
    sim.add_argument("--autoscaler-interval", type=float)
    sim.add_argument("--boot-latency", type=float)
    sim.add_argument("--placement-latency", dest="placement_decision_latency", type=float)
    sim.add_argument("--migration-bandwidth", type=float)
    sim.add_argument("--power-transition-latency", type=float)
    sim.add_argument("--algo-config", help="JSON file overriding the algorithm config")
    sim.set_defaults(func=cmd_simulate)

    ext = sub.add_parser("extract", help="reconstruct a scenario from monitoring traces")
    ext.add_argument("--metrics", required=True)
    ext.add_argument("--events", required=True, help="lifecycle CSV")
    ext.add_argument("--model", required=True, help="data center model for host speeds")
    ext.add_argument("--from", dest="frm", type=float, required=True)
    ext.add_argument("--to", dest="to", type=float, required=True)
    ext.add_argument("--servers", help="comma-separated server ids (default: all)")
    ext.add_argument("--exclude-autoscaler", action="store_true")
    ext.add_argument("--resample", type=float, default=argparse.SUPPRESS)
    ext.add_argument("--out", required=True, help="scenario JSON path")
    ext.set_defaults(func=cmd_extract)

    fit = sub.add_parser("fit-power", help="train a server power model")
    fit.add_argument("--metrics", required=True)
    fit.add_argument("--events", help="lifecycle CSV (optional)")
    fit.add_argument("--server", required=True)
    fit.add_argument("--from", dest="frm", type=float, required=True)
    fit.add_argument("--to", dest="to", type=float, required=True)
    fit.add_argument("--family", default="poly3", help="polyN or poly-exp")
    fit.add_argument("--bin-width", type=float, default=0.01)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=cmd_fit_power)

    cmp_parser = sub.add_parser("compare", help="run several configurations and compare")
    cmp_parser.add_argument("--config", action="append", required=True,
                            help="configuration JSON (repeat)")
    cmp_parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    cmp_parser.add_argument("--out", help="write the comparison as JSON")
    cmp_parser.set_defaults(func=cmd_compare)

    err = sub.add_parser("report-error", help="relative energy prediction error")
    err.add_argument("--measured", type=float, required=True)
    err.add_argument("--predicted", type=float, required=True)
    err.set_defaults(func=cmd_report_error)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("DCSIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
