#!/usr/bin/env python3
"""dcsim benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload batch-fleet --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (cached under
``bench/.work/inputs``; generation and the trace-roundtrip source run are
never timed), then runs the workload in a child process for ``--seconds``
of round time. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. See
bench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
#: A run that has not finished by then is stopped and reported as failed.
CHILD_TIMEOUT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, BENCH_DIR, env.get("PYTHONPATH")) if p
    )
    return env


def prepare(workload: str, seed: int, size: int) -> str:
    """Generate the workload's inputs once per (seed, size); return the dir."""
    import inputs

    target = os.path.join(WORK, "inputs", f"{workload}-seed{seed}-size{size}")
    if os.path.exists(os.path.join(target, "config.json")):
        return target
    partial = target + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    inputs.generate(workload, seed, size, partial)
    if workload == "trace-roundtrip":
        _source_run(partial)
    shutil.rmtree(target, ignore_errors=True)
    os.rename(partial, target)
    return target


def _source_run(inputs_dir: str) -> None:
    """Simulate the round trip's source scenario and export its monitoring
    CSVs (and full report, for the checks) into ``inputs_dir/source``."""
    import json

    from dcsim.algorithms import AlgorithmConfig
    from dcsim.engine import SimConfig, run
    from dcsim.model import load_model
    from dcsim.report import write_report
    from dcsim.scenario import load_scenario

    with open(os.path.join(inputs_dir, "config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    model = load_model(os.path.join(inputs_dir, "model.json"))
    scenario = load_scenario(os.path.join(inputs_dir, "scenario.json"))
    report = run(model, scenario, AlgorithmConfig.from_dict(config["algorithms"][0]),
                 SimConfig(**config["sim"]))
    write_report(report, os.path.join(inputs_dir, "source"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("batch-fleet", "autoscale-tiers", "trace-roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="round time to measure; at least two rounds always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int,
                        help="servers (batch-fleet), tiers (autoscale-tiers) or VMs "
                             "(trace-roundtrip); default as in inputs.DEFAULT_SIZE")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "dcsim")):
        print(f"error: the dcsim sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import inputs

    size = args.size or inputs.DEFAULT_SIZE[args.workload]
    inputs_dir = prepare(args.workload, args.seed, size)
    command = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inputs", inputs_dir, "--work", os.path.join(WORK, "runs", args.workload),
    ]
    try:
        child = subprocess.run(command, env=_env(), stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return 1
    if child.returncode != 0:
        sys.stderr.write(child.stdout)
        print(f"error: the workload process exited with {child.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
