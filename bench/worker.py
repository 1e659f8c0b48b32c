"""One benchmark run of one workload, in a process of its own.

``run.py`` generates the inputs and starts this process, so the peak
resident memory it reports belongs to the workload alone. The run repeats
whole rounds until ``--seconds`` of round time have passed (at least two
rounds, so report bytes can be compared), then checks the first round's
outputs and prints one JSON result as its last line.

The host this runs on is shared, and its speed drifts by tens of percent
over minutes. So a fixed pure-Python loop (``calibrate``) runs before
every round and after every timed step, and each step's host time is
rescaled by ``REFERENCE_S`` over the mean of the loop times on either side
of it: every time reported is in seconds at the reference speed, the
median over rounds. The host times are printed too, one line per round.

With ``--trace 1`` rounds alternate untraced and traced; the per-layer
metrics come from the traced rounds, the tracing overhead is traced minus
untraced ``simulate_s``, and rates (events/s, rows/s) divide the traced
counts by untraced times.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import time

import checks
import inputs
from spans import EVENT_KINDS, Tracer, instrument
from workloads import ROUNDS, Round, digest, setup_again

END_TO_END = ("setup_s", "simulate_s", "report_write_s", "total_s")
#: Extra set-up repetitions after each round; set-up takes milliseconds, so
#: its median needs more samples than there are rounds.
SETUP_REPEATS = 2


#: The calibration loop's time at the reference speed: its typical time on
#: the 2-core VM (Python 3.11) where the benchmark was written.
REFERENCE_S = 0.032


class _Probe:
    __slots__ = ("t", "v", "k")

    def __init__(self, t, v, k):
        self.t, self.v, self.k = t, v, k


def calibrate(n: int = 20_000) -> float:
    """Seconds for a fixed mix of what the simulator does most: small
    objects, attribute and dict access, heap operations, float arithmetic
    and string formatting."""
    start = time.perf_counter()
    heap, table, rows = [], {}, []
    for i in range(n):
        p = _Probe(i * 0.37, (i * 7919) % 1000 / 1000.0, f"vm{i % 211:04d}")
        table[p.k] = table.get(p.k, 0.0) + p.v * p.t
        heapq.heappush(heap, (p.t % 97.0, i, p))
        if len(heap) > 256:
            heapq.heappop(heap)
        if i % 8 == 0:
            rows.append(f"{p.t},{p.k},{p.v}")
    return time.perf_counter() - start


class SpeedGauge:
    """Speed factor of the host around each timed step: ``REFERENCE_S`` over
    the mean of the calibration loop's time before and after the step."""

    def __init__(self) -> None:
        self.last = calibrate()

    def __call__(self) -> float:
        now = calibrate()
        scale = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return scale


def typical(rounds, key: str) -> float:
    """Median over rounds of the rescaled time for ``key``; for set-up, the
    median over every set-up of one simulation, repetitions included."""
    if key == "setup_s":
        samples = [s for rnd in rounds for s in rnd.setup_samples]
    else:
        samples = [rnd.times.get(key, 0.0) for rnd in rounds]
    return statistics.median(samples) if samples else 0.0


def per_layer(traced: list[dict], untraced: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: median rescaled self times of the traced rounds,
    counts of one traced round (they repeat exactly), rates over the
    untraced rounds' times."""
    def self_s(name):
        return statistics.median(t["self"].get(name, 0.0) * t["scale"] for t in traced)

    calls = traced[0]["calls"]
    facts = traced[0]["facts"]
    popped = sum(calls[f"state.events_popped.{kind}"] for kind in EVENT_KINDS)
    sim_s = typical(untraced, "simulate_s")
    ingest_s = typical(untraced, "ingest_s")
    out: dict[str, tuple[float, str]] = {
        "model.load_s": (self_s("model.load"), "s"),
        "model.validate_s": (self_s("model.validate"), "s"),
        "model.rate_at.calls": (calls["model.rate_at"], "count"),
        "model.rate_at_s": (self_s("model.rate_at"), "s"),
        "scenario.load_s": (self_s("scenario.load"), "s"),
        "scenario.check_s": (self_s("scenario.check"), "s"),
    }
    for kind in EVENT_KINDS:
        out[f"state.events_popped.{kind}"] = (calls[f"state.events_popped.{kind}"], "count")
    out.update({
        "state.events_scheduled": (calls["state.events_scheduled"], "count"),
        "state.queue_peak": (calls["state.queue_peak"], "count"),
        "state.refresh_host.calls": (calls["state.refresh_host"], "count"),
        "state.refresh_host_s": (self_s("state.refresh_host"), "s"),
        "state.advance_host_s": (self_s("state.advance_host"), "s"),
        "state.recompute_app_demand.calls": (calls["state.recompute_app_demand"], "count"),
        "state.recompute_app_demand_s": (self_s("state.recompute_app_demand"), "s"),
        "state.server_utilization.calls": (calls["state.server_utilization"], "count"),
        "engine.run_self_s": (self_s("engine.run"), "s"),
        "engine.sample_measurements_s": (self_s("engine.sample_measurements"), "s"),
        "engine.events_per_s": (popped / sim_s if sim_s else 0.0, "1/s"),
        "correspondence.sync_measurements.calls":
            (calls["correspondence.sync_measurements"], "count"),
        "correspondence.sync_measurements_s": (self_s("correspondence.sync_measurements"), "s"),
        "correspondence.enact.calls": (calls["correspondence.enact"], "count"),
        "correspondence.enact_s": (self_s("correspondence.enact"), "s"),
        "correspondence.enact.rejected": (calls["correspondence.enact.rejected"], "count"),
        "algorithms.placement.calls": (calls["algorithms.placement"], "count"),
        "algorithms.placement_s": (self_s("algorithms.placement"), "s"),
        "algorithms.optimizer_s": (self_s("algorithms.optimizer"), "s"),
        "algorithms.manage_power_s": (self_s("algorithms.manage_power"), "s"),
        "algorithms.autoscaler.calls": (calls["algorithms.autoscaler"], "count"),
        "algorithms.autoscaler_s": (self_s("algorithms.autoscaler"), "s"),
        "report.write_s": (self_s("report.write"), "s"),
        "report.bytes": (facts.get("report_bytes", 0), "B"),
        "extraction.ingest_s": (ingest_s, "s"),
        "extraction.extract_s": (typical(untraced, "extract_s"), "s"),
        "extraction.fit_power_s": (typical(untraced, "fit_power_s"), "s"),
        "extraction.ingest_rows": (facts.get("ingest_rows", 0), "count"),
        "extraction.ingest_rows_per_s":
            (facts.get("ingest_rows", 0) / ingest_s if ingest_s else 0.0, "1/s"),
        "extraction.entity_samples.calls": (calls["extraction.entity_samples"], "count"),
        "extraction.entity_samples_s": (self_s("extraction.entity_samples"), "s"),
        "extraction.host_at.calls": (calls["extraction.host_at"], "count"),
        "extraction.host_at_s": (self_s("extraction.host_at"), "s"),
        "extraction.extract_blackbox_workload_s":
            (self_s("extraction.extract_blackbox_workload"), "s"),
        "extraction.clean_power_training_data_s":
            (self_s("extraction.clean_power_training_data"), "s"),
        "extraction.fit_power_model_s": (self_s("extraction.fit_power_model"), "s"),
        "extraction.fit_iterations": (facts.get("fit_iterations", 0), "count"),
        "bench.trace_overhead_s": (
            statistics.median(t["simulate_s"] for t in traced) - sim_s, "s"),
    })
    return out


def run_checks(workload: str, first: Round, inputs_dir: str) -> dict[str, list[str]]:
    """Independent checks of the first round's outputs, by name."""
    def load(name):
        with open(os.path.join(inputs_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    model, config = load("model.json"), load("config.json")
    sim, out = config["sim"], first.out_dir
    found: dict[str, list[str]] = {}
    if workload == "batch-fleet":
        found["energy"] = checks.check_energy(os.path.join(out, "report"), model, sim)
        found["gps_replay"] = checks.check_gps(os.path.join(out, "report"), model,
                                               load("scenario.json"), sim)
    elif workload == "autoscale-tiers":
        for name in ("react", "reg"):
            found[f"energy_{name}"] = checks.check_energy(os.path.join(out, name), model, sim)
        found["autoscale"] = checks.check_autoscale(
            os.path.join(out, "react"), os.path.join(out, "reg"), load("scenario.json"))
    else:
        found["energy"] = checks.check_energy(os.path.join(out, "replay"), model, sim)
        found["roundtrip"] = checks.check_roundtrip(
            os.path.join(inputs_dir, "source"), os.path.join(out, "replay"), sim,
            first.facts["skipped"], first.facts["fits"],
            model["power_models"]["pm"]["coefficients"], config["bin_width"])
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True, help="generated input directory")
    parser.add_argument("--work", required=True, help="scratch directory for outputs")
    args = parser.parse_args(argv)

    play = ROUNDS[args.workload]
    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    rounds: list[Round] = []
    traced: list[dict] = []
    digests: list[str] = []
    last_tracer = None
    attempted = failed = 0
    busy = 0.0
    k = 0
    gauge = SpeedGauge()
    while k < 2 or busy < args.seconds:
        tracer = Tracer() if args.trace and k % 2 == 1 else None
        rnd = Round(tracer, os.path.join(args.work, f"round-{k}"), gauge)
        gc.collect()
        gauge.last = calibrate()
        with instrument(tracer):
            play(rnd, args.inputs)
        busy += rnd.host_times["total_s"]
        rnd.setup_samples = [rnd.times["setup_s"] / rnd.attempted["simulation"]] + [
            setup_again(args.workload, rnd, args.inputs) for _ in range(SETUP_REPEATS)
        ]
        attempted += sum(rnd.attempted.values())
        failed += sum(rnd.failed.values())
        digests.append(digest(rnd.out_dir))
        if k > 0:
            shutil.rmtree(rnd.out_dir)
        if tracer is None:
            rounds.append(rnd)
        else:
            traced.append({"self": tracer.self_times(), "calls": tracer.calls(),
                           "facts": rnd.facts, "simulate_s": rnd.times["simulate_s"],
                           "scale": rnd.times["total_s"] / rnd.host_times["total_s"]})
            rnd.tracer = None
            last_tracer = tracer
        k += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    found = run_checks(args.workload, rounds[0], args.inputs)
    found["same_report_bytes"] = checks.check_same_bytes(digests)
    if len(traced) > 1:
        counts = [t["calls"] for t in traced]
        found["traced_counts_repeat"] = (
            [] if all(c == counts[0] for c in counts) else ["traced counts differ between rounds"]
        )
    for name, problems in found.items():
        for problem in problems[:20]:
            print(f"check {name} FAILED: {problem}", file=sys.stderr)

    attempted += len(found)
    failed += sum(1 for problems in found.values() if problems)
    for rnd in rounds:
        print("round (host s/reference s) " + " ".join(
            f"{name}={value:.6f}/{rnd.times[name]:.6f}"
            for name, value in sorted(rnd.host_times.items())))
    print(f"digest {args.workload} seed={args.seed} sha256={digests[0]}")
    print(f"rounds {k} ({len(traced)} traced), {busy:.2f} s of round time")

    if args.trace:
        metrics = per_layer(traced, rounds)
        if last_tracer is not None:
            last_tracer.write(os.path.join(args.work, "spans.csv"))
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:>16.6g} {unit}")
    else:
        metrics = {name: (typical(rounds, name), "s") for name in END_TO_END}
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    result = {
        "correct": not any(found.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
