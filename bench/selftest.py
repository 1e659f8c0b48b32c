#!/usr/bin/env python3
"""Self-test of the benchmark, in a small quick mode (under a minute).

    python3 bench/selftest.py

1. Runs every workload at a small size through ``run.py``, with and
   without tracing, and requires every metric ``BENCHMARK.json`` names to
   be printed with its unit, a correct result and no failed operation.
2. Runs one round of each workload in-process, requires its checks to
   pass, then perturbs one output at a time (one power point edited, one
   completion time shifted, one logged rate changed, ...) and requires the
   check that guards it to fail.
3. Runs ``run.py`` in a directory that holds only ``BENCHMARK.json`` and
   the benchmark's files, and requires it to fail without a result.

Exits 0 when everything holds and prints each failure otherwise.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import ROUNDS, Round  # noqa: E402

QUICK_SIZE = {"batch-fleet": 4, "autoscale-tiers": 1, "trace-roundtrip": 30}
SEED = 7
SCRATCH = os.path.join(run.WORK, "selftest")

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def run_bench(workload: str, trace: int, cwd: str = ROOT,
              script: str = os.path.join("bench", "run.py")) -> tuple[int, list[str]]:
    command = [sys.executable, script, "--workload", workload, "--seed", str(SEED),
               "--seconds", "0.1", "--trace", str(trace),
               "--size", str(QUICK_SIZE[workload])]
    child = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=170)
    return child.returncode, child.stdout.splitlines()


def metrics_printed() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in QUICK_SIZE:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(workload, trace)
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            got = result.get("metrics", {})
            missing = [m["name"] for m in spec[key]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            expect(code == 0 and not missing,
                   f"{workload} --trace {trace}: every {key} metric printed with its unit"
                   + (f" (missing {missing})" if missing else ""))
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   f"{workload} --trace {trace}: correct, nothing failed")


# -- perturbations -----------------------------------------------------------


def _rewrite_csv(path: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _rewrite_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _middle_row(rows, column, value_filter=lambda row: True):
    body = [i for i in range(1, len(rows)) if value_filter(rows[i])]
    return body[len(body) // 2], column


def _bump(rows, index, column, delta):
    rows[index][column] = repr(float(rows[index][column]) + delta)


def perturbed(name: str, base: str, edit, check) -> None:
    """Copy ``base``, apply ``edit`` to the copy, require ``check`` to fail."""
    copy = os.path.join(SCRATCH, "perturbed")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(base, copy)
    edit(copy)
    problems = check(copy)
    expect(bool(problems), f"check fails when {name}"
           + (f": {problems[0][:100]}" if problems else ""))


def one_round(workload: str) -> tuple[Round, str, dict, dict]:
    inputs_dir = run.prepare(workload, SEED, QUICK_SIZE[workload])
    rnd = Round(None, os.path.join(SCRATCH, workload))
    shutil.rmtree(rnd.out_dir, ignore_errors=True)
    ROUNDS[workload](rnd, inputs_dir)
    found = worker.run_checks(workload, rnd, inputs_dir)
    expect(not any(found.values()), f"{workload}: every check passes on an unmodified round")

    def load(name):
        with open(os.path.join(inputs_dir, name), encoding="utf-8") as fh:
            return json.load(fh)
    return rnd, inputs_dir, load("model.json"), load("config.json")


def energy_perturbations(report_dir: str, model: dict, sim: dict) -> None:
    def power_point(copy):
        def edit(rows):
            i, col = _middle_row(rows, 2)
            _bump(rows, i, col, 5.0)
        _rewrite_csv(os.path.join(copy, "power.csv"), edit)

    def utilization_point(copy):
        def edit(rows):
            i, col = _middle_row(rows, 2, lambda row: 0.1 < float(row[2]) < 0.9)
            _bump(rows, i, col, 0.05)
        _rewrite_csv(os.path.join(copy, "utilization.csv"), edit)

    def out_of_range(copy):
        def edit(rows):
            i, col = _middle_row(rows, 2)
            rows[i][col] = "1.5"
        _rewrite_csv(os.path.join(copy, "utilization.csv"), edit)

    for name, edit in (("one power point is edited", power_point),
                       ("one utilization point is edited", utilization_point),
                       ("a utilization leaves [0, 1]", out_of_range)):
        perturbed(name, report_dir, edit, lambda d: checks.check_energy(d, model, sim))


def batch_fleet() -> None:
    rnd, inputs_dir, model, config = one_round("batch-fleet")
    report_dir = os.path.join(rnd.out_dir, "report")
    energy_perturbations(report_dir, model, config["sim"])
    with open(os.path.join(inputs_dir, "scenario.json"), encoding="utf-8") as fh:
        scenario = json.load(fh)

    def gps(d):
        return checks.check_gps(d, model, scenario, config["sim"])

    def shift_completion(copy):
        def edit(doc):
            vm = next(v for v in doc["vms"].values() if v["end_kind"] == "completed")
            vm["end_time"] += 1.0
        _rewrite_json(os.path.join(copy, "report.json"), edit)

    def shift_start(copy):
        def edit(doc):
            vm = next(v for v in doc["vms"].values() if v["end_kind"] == "completed")
            vm["start_time"] += 5.0
        _rewrite_json(os.path.join(copy, "report.json"), edit)

    slower = json.loads(json.dumps(model))
    slower["servers"][0]["cores"] -= 2

    def shift_stop(copy):
        def edit(doc):
            vm = next(v for v in doc["vms"].values() if v["end_kind"] == "terminated")
            vm["end_time"] += 0.5
        _rewrite_json(os.path.join(copy, "report.json"), edit)

    def reject_one(copy):
        def edit(doc):
            doc["actions"].append({"time": 0.0, "action": "start-request",
                                   "subject": "vm", "outcome": "rejected: no feasible server"})
        _rewrite_json(os.path.join(copy, "report.json"), edit)

    perturbed("one completion time is shifted by 1 s", report_dir, shift_completion, gps)
    perturbed("one start time is shifted by 5 s", report_dir, shift_start, gps)
    perturbed("one server is replayed with two cores fewer", report_dir, lambda copy: None,
              lambda d: checks.check_gps(d, slower, scenario, config["sim"]))
    perturbed("one stop lands 0.5 s late", report_dir, shift_stop, gps)
    perturbed("one placement is rejected", report_dir, reject_one, gps)


def autoscale_tiers() -> None:
    rnd, inputs_dir, model, config = one_round("autoscale-tiers")
    energy_perturbations(os.path.join(rnd.out_dir, "reg"), model, config["sim"])
    with open(os.path.join(inputs_dir, "scenario.json"), encoding="utf-8") as fh:
        scenario = json.load(fh)

    def autoscale(d):
        return checks.check_autoscale(os.path.join(d, "react"), os.path.join(d, "reg"),
                                      scenario)

    def rate(copy):
        def edit(rows):
            i, col = _middle_row(rows, 3)
            _bump(rows, i, col, 0.25)
        _rewrite_csv(os.path.join(copy, "reg", "autoscaler.csv"), edit)

    def no_instance(copy):
        def edit(rows):
            rows[len(rows) // 2][2] = "0"
        _rewrite_csv(os.path.join(copy, "react", "autoscaler.csv"), edit)

    def reg_idle(copy):
        def edit(rows):
            rows[1:] = [r for r in rows[1:] if r[1] not in ("scale-out", "scale-in")]
        _rewrite_csv(os.path.join(copy, "reg", "actions.csv"), edit)

    perturbed("one logged rate is changed", rnd.out_dir, rate, autoscale)
    perturbed("a tier is logged with zero instances", rnd.out_dir, no_instance, autoscale)
    perturbed("Reg's scaling actions are removed", rnd.out_dir, reg_idle, autoscale)


def trace_roundtrip() -> None:
    rnd, inputs_dir, model, config = one_round("trace-roundtrip")
    sim, source = config["sim"], os.path.join(inputs_dir, "source")
    replay_dir = os.path.join(rnd.out_dir, "replay")
    energy_perturbations(replay_dir, model, sim)
    generator = model["power_models"]["pm"]["coefficients"]

    def roundtrip(d, skipped=(), fits=None):
        return checks.check_roundtrip(source, d, sim, list(skipped),
                                      rnd.facts["fits"] if fits is None else fits,
                                      generator, config["bin_width"])

    def swap_placement(copy):
        def edit(rows):
            places = [i for i, r in enumerate(rows) if r[1] == "place" and r[3] == "enacted"]
            a, b = places[0], places[1]
            rows[a][2], rows[b][2] = rows[b][2], rows[a][2]
        _rewrite_csv(os.path.join(copy, "actions.csv"), edit)

    def longer_life(copy):
        def edit(doc):
            vm = next(v for v in doc["vms"].values() if v["end_time"] is not None)
            vm["end_time"] += 45.0
        _rewrite_json(os.path.join(copy, "report.json"), edit)

    def more_energy(copy):
        def edit(rows):
            rows[-1][1] = repr(float(rows[-1][1]) * 1.02)
        _rewrite_csv(os.path.join(copy, "summary.csv"), edit)

    perturbed("two replay placements are swapped", replay_dir, swap_placement, roundtrip)
    perturbed("one replay lifetime grows by 45 s", replay_dir, longer_life, roundtrip)
    perturbed("replay energy grows by 2 %", replay_dir, more_energy, roundtrip)
    perturbed("one VM is skipped", replay_dir, lambda copy: None,
              lambda d: roundtrip(d, skipped=[("vm0000", "no utilization measurements")]))

    fits = [dict(f) for f in rnd.facts["fits"]]
    poly3 = next(f for f in fits if f["family"] == "polynomial")
    poly3["coefficients"] = poly3["coefficients"][:-1] + [poly3["coefficients"][-1] + 1.0]
    perturbed("a poly3 fit's constant term moves by 1 W", replay_dir, lambda copy: None,
              lambda d: roundtrip(d, fits=fits))
    fits = [dict(f) for f in rnd.facts["fits"]]
    next(f for f in fits if f["family"] != "polynomial")["converged"] = False
    perturbed("a poly-exp fit does not converge", replay_dir, lambda copy: None,
              lambda d: roundtrip(d, fits=fits))
    expect(bool(checks.check_same_bytes(["a" * 64, "b" * 64])),
           "check fails when two rounds' report digests differ")


def bare_directory() -> None:
    """run.py must fail, without a result, where the program is absent."""
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, lines = run_bench("batch-fleet", 0, cwd=bare)
    expect(code != 0 and not (lines and lines[-1].startswith("{")),
           "run.py fails without a result where only BENCHMARK.json and bench/ exist")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    metrics_printed()
    batch_fleet()
    autoscale_tiers()
    trace_roundtrip()
    bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "selftest passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
