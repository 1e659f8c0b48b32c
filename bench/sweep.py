#!/usr/bin/env python3
"""Scaling sweep with the benchmark harness.

    python3 bench/sweep.py [--seed 1] [--seconds 10]

Runs ``batch-fleet`` at 10, 20, 40 and 80 servers (ten VMs each) and
``trace-roundtrip`` at 100, 200 and 400 VMs through ``run.py``, and prints
one Markdown table row per size: the median over rounds of each step, in
host seconds and in reference seconds (see worker.py), so scaling shows as
a curve. The batch-fleet sizes are those of the ROADMAP baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SIZES = {"batch-fleet": (10, 20, 40, 80), "trace-roundtrip": (100, 200, 400)}
STEPS = {"batch-fleet": ("simulate_s", "report_write_s", "total_s"),
         "trace-roundtrip": ("ingest_s", "extract_s", "fit_power_s", "simulate_s", "total_s")}


def measure(workload: str, size: int, seed: int, seconds: float) -> dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--size", str(size)]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    rounds = []
    for line in lines:
        if line.startswith("round "):
            fields = dict(kv.split("=") for kv in line.split() if "=" in kv)
            rounds.append({k: [float(x) for x in v.split("/")] for k, v in fields.items()})
    host = {step: statistics.median(r[step][0] for r in rounds) for step in STEPS[workload]}
    ref = {step: statistics.median(r[step][1] for r in rounds) for step in STEPS[workload]}
    return {"rounds": len(rounds), "host": host, "ref": ref, "correct": result["correct"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    for workload, sizes in SIZES.items():
        steps = STEPS[workload]
        print(f"\n{workload} (seed {args.seed}; host s / reference s, median over rounds)\n")
        print("| size | rounds | " + " | ".join(steps) + " | correct |")
        print("|---:|---:|" + "---:|" * len(steps) + ":---:|")
        for size in sizes:
            m = measure(workload, size, args.seed, args.seconds)
            cells = " | ".join(f"{m['host'][s]:.3f} / {m['ref'][s]:.3f}" for s in steps)
            print(f"| {size} | {m['rounds']} | {cells} | {m['correct']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
