"""Cross-validation of migration timing against a brute-force integrator.

The event-driven kernel settles work lazily at change points; this suite
replays scripted migration schedules through a dumb fixed-step integrator
that knows nothing about events and compares completion times.
"""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsim.correspondence import Migrate, Place, Rejected, enact
from dcsim.model import BlackBoxTrace, Initiator, VmFlavor
from dcsim.state import proportional_share_rates
from tests.conftest import make_harness, make_model, pump

RAM = 1024.0  # 1 s of copy time at the default bandwidth
COPY_TIME = 1.0
CAPACITY = 10.0


def _run_engine(traces, moves, horizon=2000.0):
    """Place every trace on s1, then enact scripted moves at their times."""
    harness = make_harness(make_model(2, ram=65536.0))
    for i, segments in enumerate(traces):
        harness.sim.create_vm(
            f"vm{i}", VmFlavor(1, RAM), BlackBoxTrace(tuple(segments)),
            Initiator.TENANT,
        )
        enact(Place(f"vm{i}", "s1"), harness.sim)
    schedule = sorted(moves, key=lambda m: m[1])
    for index, at in schedule:
        pump(harness, at)
        vm = harness.sim.vms[f"vm{index}"]
        if vm.host is not None:
            target = "s2" if vm.host == "s1" else "s1"
            enact(Migrate(f"vm{index}", vm.host, target), harness.sim)
    pump(harness, horizon)
    return {
        f"vm{i}": harness.sim.vms[f"vm{i}"].end_time
        for i in range(len(traces))
    }


def _brute_force(traces, moves, horizon=2000.0, dt=0.002):
    state = []
    for segments in traces:
        duration, demand = segments[0]
        state.append({
            "segments": list(segments), "idx": 0,
            "remaining": duration * demand if demand > 0 else duration,
            "host": "s1", "done": None,
        })
    # Moves and cutovers due by a step run in order of their exact times, a
    # cutover before a move at the same instant (as the engine pumps its
    # events up to a move's time before enacting it). A move of a VM whose
    # copy is still in flight is dropped.
    MOVE, CUTOVER = 1, 0
    agenda = [(at, MOVE, index) for index, at in moves]
    heapq.heapify(agenda)
    copying = set()
    t = 0.0
    while t < horizon and any(vm["done"] is None for vm in state):
        while agenda and agenda[0][0] <= t:
            at, kind, index = heapq.heappop(agenda)
            vm = state[index]
            if kind == MOVE:
                if vm["done"] is None and index not in copying:
                    copying.add(index)
                    heapq.heappush(agenda, (at + COPY_TIME, CUTOVER, index))
            else:
                copying.discard(index)
                if vm["done"] is None:
                    vm["host"] = "s2" if vm["host"] == "s1" else "s1"
        for host in ("s1", "s2"):
            active = [vm for vm in state if vm["done"] is None and vm["host"] == host]
            demands = [vm["segments"][vm["idx"]][1] for vm in active]
            rates = proportional_share_rates(demands, CAPACITY)
            for vm, demand, rate in zip(active, demands, rates):
                vm["remaining"] -= rate * dt if demand > 0 else dt
                if vm["remaining"] <= 0:
                    vm["idx"] += 1
                    if vm["idx"] >= len(vm["segments"]):
                        vm["done"] = t + dt
                    else:
                        duration, demand = vm["segments"][vm["idx"]]
                        vm["remaining"] = (
                            duration * demand if demand > 0 else duration
                        )
        t += dt
    return {f"vm{i}": vm["done"] for i, vm in enumerate(state)}


@st.composite
def migration_cases(draw):
    n_vms = draw(st.integers(2, 4))
    traces = []
    for _ in range(n_vms):
        n_segments = draw(st.integers(1, 2))
        traces.append([
            (draw(st.floats(10.0, 40.0)), draw(st.floats(0.5, 6.0)))
            for _ in range(n_segments)
        ])
    n_moves = draw(st.integers(1, 3))
    moves = [
        (draw(st.integers(0, n_vms - 1)), draw(st.floats(2.0, 60.0)))
        for _ in range(n_moves)
    ]
    # keep distinct, ordered move times so engine and oracle agree on the
    # interleaving (equal-time moves of one VM would race the copy window)
    times = sorted({round(at, 3) for _, at in moves})
    moves = [(index, times[k]) for k, (index, _) in enumerate(moves[: len(times)])]
    return traces, moves


@settings(max_examples=12, deadline=None)
@given(migration_cases())
# The second move lands exactly when the first copy ends: the cutover comes
# first, then the VM moves back.
@example(([[(10.0, 5.0)], [(10.0, 6.0)]], [(0, 2.0), (0, 3.0)]))
def test_migrated_completions_match_brute_force(case):
    traces, moves = case
    engine_done = _run_engine(traces, moves)
    oracle_done = _brute_force(traces, moves)
    for vm_id, expected in oracle_done.items():
        assert expected is not None
        assert engine_done[vm_id] == pytest.approx(expected, abs=0.25), vm_id


def test_migration_during_copy_completion():
    """A VM finishing mid-copy stays accounted on the source; the stale
    cutover event must not resurrect it."""
    traces = [[(10.0, 5.0)], [(50.0, 5.0)]]
    engine_done = _run_engine(traces, moves=[(0, 9.5)])
    oracle_done = _brute_force(traces, moves=[(0, 9.5)])
    assert engine_done["vm0"] == pytest.approx(oracle_done["vm0"], abs=0.1)
    assert engine_done["vm1"] == pytest.approx(oracle_done["vm1"], abs=0.1)
