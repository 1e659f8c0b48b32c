"""Seeded input generators for the three benchmark workloads.

Each generator writes a workload directory: ``model.json`` and
``scenario.json`` through the program's own serializers (so set-up times
real parsing), plus ``config.json`` with the simulation and algorithm
settings. Identical (seed, size) arguments write identical bytes.

The seed draws the values; the structure (counts, grids, ranges) is fixed
by the size, so every seed asks the simulator for about the same amount of
work. That keeps run-to-run spread small when the benchmark is run with a
different seed each time.
"""

from __future__ import annotations

import json
import os
import random

from dcsim.algorithms import gen_seasonal_workload
from dcsim.model import (
    POLYNOMIAL,
    BlackBoxTrace,
    DataCenterModel,
    OpenRequestLoad,
    PowerModel,
    ServerSpec,
    VmFlavor,
    dump_model,
)
from dcsim.scenario import (
    AbsoluteTime,
    ApplicationTemplate,
    ExperimentScenario,
    RelativeTo,
    StartApplication,
    StopApplication,
    TimelineEvent,
    serialize_scenario,
)

WORKLOADS = ("batch-fleet", "autoscale-tiers", "trace-roundtrip")

#: Default size per workload: servers (batch-fleet), tiers (autoscale-tiers),
#: VMs (trace-roundtrip).
DEFAULT_SIZE = {"batch-fleet": 30, "autoscale-tiers": 3, "trace-roundtrip": 200}

#: Cubic generator of every server's power: 60u + 25u^2 + 15u^3 + 100 W.
FLEET_POWER = (60.0, 25.0, 15.0, 100.0)
#: The trace-roundtrip power model, the one acceptance criterion 2 recovers.
ROUNDTRIP_POWER = (50.0, 10.0, 5.0, 80.0)
#: Fixed seeds of the round trip's four meter servers. Their poly-exp fits
#: take 155, 2503, 661 and 3243 iterations: the fast and the slow
#: convergence that seeded fleets with binning noise show, in one fixed mix.
METER_SEEDS = (1000, 1009, 1019, 1030)


def _write(out_dir: str, model: DataCenterModel, scenario: ExperimentScenario,
           config: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "model.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_model(model))
    with open(os.path.join(out_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(scenario))
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def batch_fleet(seed: int, servers: int) -> tuple[DataCenterModel, ExperimentScenario, dict]:
    """Ten trace VMs per server, 20 segments each, arriving over the first
    half of a 7200 s horizon; 30 % are stopped by a relative stop event.

    Servers have 16 work-units/s and 64 GiB; at peak about half the fleet's
    RAM is reserved. The spare pool (four servers, one in eight above 32
    servers) holds more than the RAM that arrives in one 300 s
    power-manager interval, so every placement finds room, while CPU demand
    exceeds capacity on most hosts and processor sharing stretches the
    traces.
    """
    rng = random.Random(seed)
    horizon = 7200.0
    model = DataCenterModel(
        tuple(
            ServerSpec(f"s{i:03d}", 8, 2.0, 65536.0, "pm", idle_off_power=10.0)
            for i in range(servers)
        ),
        {"pm": PowerModel(POLYNOMIAL, FLEET_POWER)},
    )
    events, templates = [], {}
    for k in range(10 * servers):
        segments = tuple(
            (rng.uniform(30.0, 210.0),
             0.0 if rng.random() < 0.1 else rng.uniform(0.2, 3.0))
            for _ in range(20)
        )
        templates[f"t{k:04d}"] = ApplicationTemplate(
            VmFlavor(rng.randint(1, 4), rng.choice((2048.0, 4096.0, 8192.0))),
            BlackBoxTrace(segments),
        )
        start_id = f"start-{k:04d}"
        events.append(TimelineEvent(
            start_id, AbsoluteTime(rng.uniform(0.0, horizon / 2)),
            StartApplication(f"t{k:04d}", f"vm{k:04d}"),
        ))
        if k % 10 < 3:
            nominal = sum(d for d, _ in segments)
            events.append(TimelineEvent(
                f"stop-{k:04d}",
                RelativeTo(start_id, rng.uniform(0.3, 1.0) * nominal),
                StopApplication(start_id),
            ))
    config = {
        "sim": {
            "end_time": horizon, "measurement_interval": 30.0,
            "optimizer_interval": 300.0, "boot_latency": 20.0,
            "power_transition_latency": 30.0, "seed": seed,
        },
        "algorithms": [{
            "placement": "best-fit-ram", "optimizer": "consolidation",
            "power_manager_enabled": True, "spare_servers": max(4, servers // 8),
        }],
    }
    return model, ExperimentScenario(events=events, templates=templates), config


def autoscale_tiers(seed: int, tiers: int) -> tuple[DataCenterModel, ExperimentScenario, dict]:
    """Open request-load tiers with seasonal 5 s rate series, run under
    React and under Reg, as ``scripts/autoscaler_comparison.py`` does.

    The period (2587.5 s) and noise (-3..2 req/s) are those of acceptance
    criterion 8. Peaks are fixed per tier (90, 100, 110 req/s, repeating),
    so every seed provisions about as many instances. Tier k starts k s past
    a multiple of 5 s, so the tiers' 5 s rate updates never coincide and
    every seed records as many series points; which multiple, and the noise
    stream, come from the seed. Rate lookups are relative to each tier's own
    creation time.
    """
    rng = random.Random(seed)
    horizon = 10350.0
    model = DataCenterModel(
        tuple(ServerSpec(f"s{i}", 8, 2.0, 65536.0, "pm") for i in range(1, 5)),
        {"pm": PowerModel(POLYNOMIAL, FLEET_POWER)},
    )
    events, templates = [], {}
    for k in range(tiers):
        series = gen_seasonal_workload(
            peak=90.0 + 10.0 * (k % 3), periods=4, duration=horizon,
            noise_low=-3.0, noise_high=2.0, seed=rng.randrange(2**31), step=5.0,
        )
        templates[f"tier{k}"] = ApplicationTemplate(
            VmFlavor(1, 1024.0), OpenRequestLoad(tuple(series), 12.0)
        )
        events.append(TimelineEvent(
            f"deploy{k}", AbsoluteTime(5.0 * rng.randint(0, 2) + k % 5),
            StartApplication(f"tier{k}", f"web{k}"),
        ))
    config = {
        "sim": {"end_time": horizon, "autoscaler_interval": 60.0, "seed": seed},
        "algorithms": [{"autoscaler": "react"}, {"autoscaler": "reg"}],
    }
    return model, ExperimentScenario(events=events, templates=templates), config


def trace_roundtrip_source(seed: int, vms: int) -> tuple[DataCenterModel, ExperimentScenario, dict]:
    """The batch run whose monitoring trace the round trip reconstructs.

    Built so the reconstruction is exact and the round-trip checks are
    sharp rather than lucky: no host is ever overloaded (at most eight VMs
    fit a host by RAM, and eight times the largest demand is the host's
    10 work-units/s), segment boundaries fall on the 30 s resample grid,
    VMs start 15 s past a minute (mid-way between measurement samples) and
    end 45 s past one, so no arrival ever coincides with a departure.

    Power fitting has two kinds of server. Seeded VMs demand multiples of
    0.1 work-units/s, so their hosts' utilizations sit on the 0.01 bin
    grid and every bin is exact. Four "meter" servers are each filled, for
    the whole arrival window, by eight VMs with fixed, seed-independent
    traces whose summed utilizations fall anywhere in a bin; their fits see
    binning noise, which is where the poly-exp fit spends most of its
    iterations. Fit time therefore does not depend on the seed, while both
    the exact and the noisy path run.
    """
    rng = random.Random(seed)
    servers = len(METER_SEEDS) + max(2, vms // 5)
    arrival_minutes = 60
    model = DataCenterModel(
        tuple(ServerSpec(f"s{i:03d}", 4, 2.5, 16384.0, "pm") for i in range(servers)),
        {"pm": PowerModel(POLYNOMIAL, ROUNDTRIP_POWER)},
    )
    events, templates = [], {}
    longest = 0.0

    def add(name, flavor, segments, start, stop_offset=None):
        templates[f"t-{name}"] = ApplicationTemplate(flavor, BlackBoxTrace(segments))
        start_id = f"start-{name}"
        events.append(TimelineEvent(start_id, AbsoluteTime(start),
                                    StartApplication(f"t-{name}", name)))
        if stop_offset is not None:
            events.append(TimelineEvent(f"stop-{name}", RelativeTo(start_id, stop_offset),
                                        StopApplication(start_id)))

    def odd_steps(steps):
        if sum(steps) % 2 == 0:  # odd multiple of 30 s: ends 45 s past a minute
            steps[-1] += 1
        return steps

    for m, meter_seed in enumerate(METER_SEEDS):
        meter = random.Random(meter_seed)  # the same on every seed
        for j in range(8):
            steps = []
            while 30.0 * sum(steps) < 60.0 * arrival_minutes:  # outlasts every arrival
                steps.append(meter.randint(1, 10))
            segments = tuple((30.0 * s, round(meter.uniform(0.05, 1.25), 3))
                             for s in odd_steps(steps))
            longest = max(longest, 30.0 * sum(steps))
            add(f"meter{m}-{j}", VmFlavor(1, 2048.0), segments, 15.0)
    for k in range(vms):
        # The lifetime (an odd number of 30 s steps) and the stop offset
        # depend on k alone, so every seed replays as many segments; the seed
        # splits the lifetime into segments and draws demands and arrivals.
        total = 2 * (k % 20) + 11
        cuts = sorted(rng.sample(range(1, total), rng.randint(2, 7)))
        steps = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        segments = tuple((30.0 * s, 0.1 * rng.randint(1, 12)) for s in steps)
        longest = max(longest, 30.0 * total)
        offset = 30.0 * (2 * ((total - 1) // 4) + 1) if k % 4 == 0 else None
        add(f"vm{k:04d}", VmFlavor(1, rng.choice((2048.0, 4096.0))), segments,
            60.0 * rng.randrange(arrival_minutes) + 15.0, offset)
    horizon = 60.0 * arrival_minutes + longest + 300.0
    config = {
        "sim": {"end_time": horizon, "measurement_interval": 30.0, "seed": seed},
        "algorithms": [{"placement": "best-fit-ram"}],
        "resample_interval": 30.0,
        "bin_width": 0.01,
        "min_bins": 6,
    }
    return model, ExperimentScenario(events=events, templates=templates), config


GENERATORS = {
    "batch-fleet": batch_fleet,
    "autoscale-tiers": autoscale_tiers,
    "trace-roundtrip": trace_roundtrip_source,
}


def generate(workload: str, seed: int, size: int, out_dir: str) -> None:
    """Write the workload's model, scenario and config into ``out_dir``."""
    model, scenario, config = GENERATORS[workload](seed, size)
    config["workload"] = workload
    config["size"] = size
    _write(out_dir, model, scenario, config)
