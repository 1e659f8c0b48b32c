"""Timed rounds of the three workloads.

A round calls the library in the order ``cli.py`` does: ``load_model``,
``load_scenario``, ``engine.run``, ``write_report``; the round trip adds
``ingest_measurements``, ``extract_scenario``,
``clean_power_training_data`` and ``fit_power_model``. Each step is timed
on the host clock; with a tracer, each step is also a span, and the
wrappers of ``spans.instrument`` add spans inside the program.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import os
import time

import dcsim.engine as engine_mod
import dcsim.model as model_mod
from dcsim.algorithms import AlgorithmConfig
from dcsim.extraction import (
    clean_power_training_data,
    extract_scenario,
    fit_power_model,
    ingest_measurements,
)
from dcsim.model import POLYNOMIAL, POLYNOMIAL_PLUS_EXPONENTIAL, load_model, power_model_to_dict
from dcsim.report import write_report
from dcsim.scenario import load_scenario, serialize_scenario

FIT_FAMILIES = ((POLYNOMIAL, 3), (POLYNOMIAL_PLUS_EXPONENTIAL, 3))


class Round:
    """Step times, operation counts and outputs of one round."""

    def __init__(self, tracer, out_dir: str, calibrate=None) -> None:
        self.tracer = tracer
        self.out_dir = out_dir
        self.calibrate = calibrate  # () -> reference seconds per host second
        self.times: dict[str, float] = collections.defaultdict(float)
        self.host_times: dict[str, float] = collections.defaultdict(float)
        self.attempted: collections.Counter = collections.Counter()
        self.failed: collections.Counter = collections.Counter()
        self.facts: dict = {}  # what the checks and per-layer metrics need

    @contextlib.contextmanager
    def step(self, metric: str | None, span: str | None = None):
        """Time a step into ``metric`` (and total_s); trace it as ``span``.

        ``times`` holds reference seconds: each step's host time times the
        speed factor that ``calibrate`` measures around it. ``host_times``
        holds the host seconds themselves.
        """
        spanned = self.tracer.span(span) if self.tracer and span else contextlib.nullcontext()
        start = time.perf_counter()
        with spanned:
            yield
        elapsed = time.perf_counter() - start
        scale = self.calibrate() if self.calibrate else 1.0
        for metric_name in ("total_s", metric) if metric else ("total_s",):
            self.times[metric_name] += elapsed * scale
            self.host_times[metric_name] += elapsed

    def load(self, model_path: str, scenario_path: str | None = None, model=None):
        """Set-up: parse and validate the model, parse and check the scenario."""
        with self.step("setup_s"):
            if model is None:
                with self.span("model.load"):
                    model = load_model(model_path)
                problems = model_mod.validate(model)
                if problems:
                    raise ValueError("generated model does not validate: " + "; ".join(problems))
            scenario = None
            if scenario_path is not None:
                with self.span("scenario.load"):
                    scenario = load_scenario(
                        scenario_path, known_vm_ids=[vm.id for vm in model.initial_vms]
                    )
        return model, scenario

    def simulate(self, model, scenario, algorithms: dict, sim: dict):
        if self.tracer:
            self.tracer.start_run()
        self.attempted["simulation"] += 1
        with self.step("simulate_s", "engine.run"):
            report = engine_mod.run(
                model, scenario, AlgorithmConfig.from_dict(algorithms),
                engine_mod.SimConfig(**sim),
            )
        return report

    def write(self, report, name: str) -> str:
        out = os.path.join(self.out_dir, name)
        self.attempted["report_write"] += 1
        with self.step("report_write_s", "report.write"):
            paths = write_report(report, out)
        self.facts["report_bytes"] = self.facts.get("report_bytes", 0) + sum(
            os.path.getsize(p) for p in paths
        )
        return out

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def _config(inputs_dir: str) -> dict:
    with open(os.path.join(inputs_dir, "config.json"), encoding="utf-8") as fh:
        return json.load(fh)


def batch_fleet_round(rnd: Round, inputs_dir: str) -> None:
    cfg = _config(inputs_dir)
    model, scenario = rnd.load(os.path.join(inputs_dir, "model.json"),
                               os.path.join(inputs_dir, "scenario.json"))
    report = rnd.simulate(model, scenario, cfg["algorithms"][0], cfg["sim"])
    rnd.write(report, "report")


def autoscale_tiers_round(rnd: Round, inputs_dir: str) -> None:
    """Each tier under React, then under Reg, on identical inputs, each run
    loading the model and scenario itself as ``dcsim compare`` does."""
    cfg = _config(inputs_dir)
    for algorithms in cfg["algorithms"]:
        model, scenario = rnd.load(os.path.join(inputs_dir, "model.json"),
                                   os.path.join(inputs_dir, "scenario.json"))
        report = rnd.simulate(model, scenario, algorithms, cfg["sim"])
        rnd.write(report, algorithms["autoscaler"])
        del report


def trace_roundtrip_round(rnd: Round, inputs_dir: str) -> None:
    """Ingest the source run's monitoring CSVs, extract a scenario for every
    VM, fit both power-model families on every server with enough
    utilization bins, write and reload the extracted scenario, replay it
    and write the replay report."""
    cfg = _config(inputs_dir)
    sim = cfg["sim"]
    source = os.path.join(inputs_dir, "source")
    model, _ = rnd.load(os.path.join(inputs_dir, "model.json"))

    with rnd.step("ingest_s", "extraction.ingest"):
        store = ingest_measurements(os.path.join(source, "metrics.csv"),
                                    os.path.join(source, "lifecycle.csv"))
    rnd.facts["ingest_rows"] = len(store.metrics) + len(store.lifecycle)

    with rnd.step("extract_s", "extraction.extract_scenario"):
        result = extract_scenario(store, (0.0, sim["end_time"]), None, True, model,
                                  cfg["resample_interval"])
    rnd.attempted["vm_extraction"] += len(result.extracted_vm_ids) + len(result.skipped)
    rnd.failed["vm_extraction"] += len(result.skipped)
    rnd.facts["skipped"] = result.skipped

    fits, iterations = [], 0
    fit_dir = os.path.join(rnd.out_dir, "power_models")
    os.makedirs(fit_dir, exist_ok=True)
    with rnd.step("fit_power_s"):
        for server in model.servers:
            with rnd.span("extraction.clean_power_training_data"):
                pairs = clean_power_training_data(store, server.id, cfg["bin_width"])
            if len(pairs) < cfg["min_bins"]:
                continue
            for family, degree in FIT_FAMILIES:
                rnd.attempted["power_fit"] += 1
                with rnd.span("extraction.fit_power_model"):
                    fit = fit_power_model(pairs, family, degree)
                iterations += fit.iterations
                if not fit.converged:
                    rnd.failed["power_fit"] += 1
                fits.append({
                    "server": server.id, "family": family, "converged": fit.converged,
                    "coefficients": list(fit.model.coefficients),
                    "u_range": [pairs[0][0], pairs[-1][0]],
                })
                path = os.path.join(fit_dir, f"{server.id}-{family}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(power_model_to_dict(fit.model), fh, indent=2, sort_keys=True)
    rnd.facts["fits"] = fits
    rnd.facts["fit_iterations"] = iterations
    del store

    extracted = os.path.join(rnd.out_dir, "extracted_scenario.json")
    with rnd.step(None):
        with open(extracted, "w", encoding="utf-8") as fh:
            fh.write(serialize_scenario(result.scenario))
    del result
    _, scenario = rnd.load(None, extracted, model=model)
    report = rnd.simulate(model, scenario, cfg["algorithms"][0], sim)
    rnd.write(report, "replay")


ROUNDS = {
    "batch-fleet": batch_fleet_round,
    "autoscale-tiers": autoscale_tiers_round,
    "trace-roundtrip": trace_roundtrip_round,
}


def setup_again(workload: str, rnd: Round, inputs_dir: str) -> float:
    """Repeat the set-up of one of ``rnd``'s simulations, outside the round,
    and return its time: more samples of a step that takes milliseconds."""
    probe = Round(None, rnd.out_dir, rnd.calibrate)
    model_path = os.path.join(inputs_dir, "model.json")
    if workload == "trace-roundtrip":
        model, _ = probe.load(model_path)
        probe.load(None, os.path.join(rnd.out_dir, "extracted_scenario.json"), model=model)
    else:
        probe.load(model_path, os.path.join(inputs_dir, "scenario.json"))
    return probe.times["setup_s"]


def digest(directory: str) -> str:
    """SHA-256 over every file below ``directory``, by sorted relative path."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
