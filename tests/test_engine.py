import json
import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsim.algorithms import PLACEMENT_FUNCTIONS, AlgorithmConfig
from dcsim.engine import (
    SimConfig,
    _Engine,
    integrate_energy,
    proportional_share_rates,
    run,
)
from dcsim.model import (
    POLYNOMIAL,
    BlackBoxTrace,
    DataCenterModel,
    PowerModel,
    VmFlavor,
    VmInstance,
    VmState,
    eval_power,
)
from dcsim.scenario import (
    AbsoluteTime,
    ExperimentScenario,
    ReconfigureOptimisationAlgorithm,
    StartApplication,
    StopApplication,
    TimelineEvent,
)
from tests.conftest import (
    LINEAR_PM,
    make_model,
    make_server,
    start_stop_scenario,
    trace_template,
)

NO_ALGO = AlgorithmConfig()


def scenario_of_traces(traces, start_times=None, ram=1024.0):
    """One start event per trace, all placed via the configured placement."""
    events = []
    templates = {}
    for i, segments in enumerate(traces):
        tpl_id = f"t{i}"
        templates[tpl_id] = trace_template(segments, vcpus=1, ram=ram)
        at = 0.0 if start_times is None else start_times[i]
        events.append(
            TimelineEvent(f"e{i}", AbsoluteTime(at), StartApplication(tpl_id, f"vm{i}"))
        )
    return ExperimentScenario(events=events, templates=templates)


class TestProportionalShare:
    def test_overload_scales(self):
        rates = proportional_share_rates([8.0, 6.0], 10.0)
        assert rates == pytest.approx([40.0 / 7.0, 30.0 / 7.0])
        assert sum(rates) == pytest.approx(10.0)

    def test_below_capacity_unchanged(self):
        assert proportional_share_rates([3.0, 2.0], 10.0) == [3.0, 2.0]

    def test_empty(self):
        assert proportional_share_rates([], 10.0) == []

    @given(
        st.lists(st.floats(0, 1e3), max_size=12),
        st.floats(0.1, 1e3),
    )
    def test_conservation_property(self, demands, capacity):
        rates = proportional_share_rates(demands, capacity)
        assert all(r >= 0 for r in rates)
        assert all(r <= d + 1e-9 for r, d in zip(rates, demands))
        assert sum(rates) == pytest.approx(min(sum(demands), capacity), rel=1e-9)


class TestIntegrateEnergy:
    def test_constant(self):
        assert integrate_energy([(0.0, 100.0)], 7200.0) == 200.0

    def test_two_steps(self):
        assert integrate_energy([(0.0, 100.0), (1800.0, 50.0)], 3600.0) == 75.0

    def test_empty(self):
        assert integrate_energy([], 1000.0) == 0.0

    def test_end_before_last_sample(self):
        with pytest.raises(ValueError):
            integrate_energy([(0.0, 1.0), (10.0, 2.0)], 5.0)

    def test_non_increasing_times(self):
        with pytest.raises(ValueError):
            integrate_energy([(0.0, 1.0), (0.0, 2.0)], 5.0)


class TestRunBasics:
    def test_idle_energy(self, two_server_model):
        report = run(two_server_model, ExperimentScenario(events=[]), NO_ALGO,
                     SimConfig(end_time=3600.0))
        assert report.total_energy_wh == pytest.approx(160.0)
        assert report.energy_wh["s1"] == pytest.approx(80.0)

    def test_timeline_stop_semantics(self, two_server_model):
        report = run(two_server_model, start_stop_scenario(), NO_ALGO,
                     SimConfig(end_time=5400.0))
        record = report.vm_records["instance-1e22"]
        assert record.end_time == 3527.0
        assert record.end_kind == "terminated"
        stop = [a for a in report.actions if a.action == "stop-request"]
        assert stop[0].time == 3527.0

    def test_boot_latency_shifts_completion_chain(self, two_server_model):
        report = run(two_server_model, start_stop_scenario(), NO_ALGO,
                     SimConfig(end_time=5400.0, boot_latency=3.0))
        assert report.vm_records["instance-1e22"].end_time == 3530.0

    def test_piecewise_demand_series(self):
        model = make_model(1)
        scenario = scenario_of_traces([[(100.0, 4.0), (100.0, 8.0)]])
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=400.0))
        assert report.utilization["s1"] == [(0.0, 0.4), (100.0, 0.8), (200.0, 0.0)]
        assert report.vm_records["vm0"].end_time == 200.0
        assert report.vm_records["vm0"].end_kind == "completed"

    def test_idle_segment_is_wall_clock(self):
        model = make_model(1)
        scenario = scenario_of_traces([[(50.0, 4.0), (30.0, 0.0), (20.0, 2.0)]])
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=400.0))
        assert report.vm_records["vm0"].end_time == pytest.approx(100.0)
        assert (50.0, 0.0) in report.utilization["s1"]

    def test_contention_stretches_equally(self):
        # Demands 8 and 6 on capacity 10: grants 40/7 and 30/7, so both
        # 100-second segments stretch to exactly 140 s.
        model = make_model(1)
        scenario = scenario_of_traces([[(100.0, 8.0)], [(100.0, 6.0)]])
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=400.0))
        assert report.vm_records["vm0"].end_time == pytest.approx(140.0)
        assert report.vm_records["vm1"].end_time == pytest.approx(140.0)
        assert report.utilization["s1"][0] == (0.0, 1.0)

    def test_uncontended_duration_is_nominal(self):
        model = make_model(1)
        scenario = scenario_of_traces([[(123.0, 3.0), (77.0, 1.5)], [(60.0, 2.0)]])
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=500.0))
        assert report.vm_records["vm0"].end_time == pytest.approx(200.0)
        assert report.vm_records["vm1"].end_time == pytest.approx(60.0)

    def test_running_at_horizon(self):
        model = make_model(1)
        scenario = scenario_of_traces([[(1000.0, 1.0)]])
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=100.0))
        assert report.vm_records["vm0"].end_kind == "running"
        assert report.vm_records["vm0"].end_time is None

    def test_rejected_when_nothing_fits(self):
        model = make_model(1, ram=1024.0)
        scenario = scenario_of_traces([[(100.0, 1.0)]], ram=2048.0)
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=200.0))
        assert report.vm_records["vm0"].end_kind == "rejected"
        assert report.rejected_placements() == 1

    def test_rejection_counted_once_when_placement_names_a_full_server(self, monkeypatch):
        # the Place rules refuse the plug-in's choice, then admission rejects
        # the VM: two refusals in the action log, one rejected VM
        monkeypatch.setitem(PLACEMENT_FUNCTIONS, NO_ALGO.placement,
                            lambda snapshot, flavor: "s1")
        model = make_model(1, ram=1024.0)
        scenario = scenario_of_traces([[(100.0, 1.0)]], ram=2048.0)
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=200.0))
        refusals = [(a.action, a.outcome) for a in report.actions]
        assert refusals == [("place", "rejected: insufficient RAM on s1"),
                            ("start-request", "rejected: no feasible server")]
        assert report.rejected_placements() == 1
        kinds = [e.event for e in report.lifecycle if e.vm_id == "vm0"]
        assert kinds == ["submitted", "rejected"]

    def test_determinism_identical_reports(self, two_server_model):
        config = SimConfig(end_time=5400.0, seed=7)
        a = run(two_server_model, start_stop_scenario(), NO_ALGO, config)
        b = run(two_server_model, start_stop_scenario(), NO_ALGO, config)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_invalid_model_refused(self):
        bad = DataCenterModel((make_server("s1", pm_id="absent"),), {"pm": LINEAR_PM})
        with pytest.raises(ValueError, match="does not validate"):
            run(bad, ExperimentScenario(events=[]), NO_ALGO, SimConfig(end_time=10.0))

    def test_unknown_reconfigure_algorithm_refused(self, two_server_model):
        scenario = ExperimentScenario(
            events=[TimelineEvent("e", AbsoluteTime(0.0),
                                  ReconfigureOptimisationAlgorithm("fancy"))],
        )
        with pytest.raises(ValueError, match="fancy"):
            run(two_server_model, scenario, NO_ALGO, SimConfig(end_time=10.0))

    def test_stop_of_completed_vm_is_noop(self, two_server_model):
        scenario = start_stop_scenario(start_at=0.0, stop_offset=500.0, trace_len=100.0)
        report = run(two_server_model, scenario, NO_ALGO, SimConfig(end_time=1000.0))
        record = report.vm_records["instance-1e22"]
        assert record.end_kind == "completed"
        assert record.end_time == 100.0
        stop = [a for a in report.actions if a.action == "stop-request"]
        assert stop[0].outcome.startswith("no-op")


class TestVmAccounting:
    def test_partition(self):
        model = make_model(2, ram=4096.0)
        traces = [[(50.0, 1.0)], [(1000.0, 1.0)], [(1000.0, 1.0)], [(1000.0, 1.0)]]
        scenario = scenario_of_traces(traces, ram=3000.0)
        # Two servers hold one 3000 MiB VM each; the rest are rejected.
        events = scenario.events + [
            TimelineEvent("stop1", AbsoluteTime(100.0), StopApplication("e1")),
        ]
        scenario = ExperimentScenario(events=events, templates=scenario.templates)
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=500.0))
        kinds = [r.end_kind for r in report.vm_records.values()]
        assert sorted(kinds) == ["completed", "rejected", "rejected", "terminated"]
        assert report.rejected_placements() == 2


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", [
    "end_time", "measurement_interval", "optimizer_interval", "autoscaler_interval",
    "migration_bandwidth", "boot_latency", "placement_decision_latency",
    "power_transition_latency",
])
def test_sim_config_rejects_non_finite(name, value):
    # a NaN end_time never stops the run: no event time exceeds it
    with pytest.raises(ValueError, match=name):
        SimConfig(**{"end_time": 100.0, name: value})


@pytest.mark.parametrize("seed", ["x", 1.5, None])
def test_sim_config_rejects_non_integer_seed(seed):
    # a seed is echoed into report.json; only an int seeds a run
    with pytest.raises(ValueError, match="seed must be an integer"):
        SimConfig(end_time=100.0, seed=seed)


def initial_trace_vm(vm_id, segments, host="s1"):
    return VmInstance(vm_id, VmFlavor(1, 1024.0), BlackBoxTrace(tuple(segments)),
                      host=host)


class TestHostTimer:
    def test_one_timer_per_host(self):
        rng = random.Random(11)
        vms = [
            initial_trace_vm(f"vm{i}", [(rng.uniform(10.0, 60.0), rng.uniform(0.0, 2.0))
                                        for _ in range(20)])
            for i in range(10)
        ]
        config = SimConfig(end_time=1e5, measurement_interval=2e5, optimizer_interval=2e5)
        engine = _Engine(make_model(1, initial_vms=vms), ExperimentScenario(events=[]),
                         NO_ALGO, config)
        report = engine.run()
        assert all(r.end_kind == "completed" for r in report.vm_records.values())
        # each boundary arms one host timer; re-arming every VM would not fit
        assert engine.sim.sequence <= 10 * 20 + 3 * 10

    def test_simultaneous_boundaries_keep_vm_order(self):
        # identical VMs share the host equally and reach every boundary together
        segments = [(50.0, 2.0), (50.0, 1.0)]
        vms = [initial_trace_vm("vm-b", segments), initial_trace_vm("vm-a", segments)]
        report = run(make_model(1, initial_vms=vms), ExperimentScenario(events=[]),
                     NO_ALGO, SimConfig(end_time=200.0))
        done = [(a.time, a.subject) for a in report.actions if a.action == "complete"]
        assert done == [(100.0, "vm-b"), (100.0, "vm-a")]
        assert [e.vm_id for e in report.lifecycle if e.event == "completed"] == [
            "vm-b", "vm-a"
        ]

    def test_vm_order_holds_when_boot_order_differs(self):
        # "late" is placed on s2 first but boots after "mover" migrates in,
        # so starting order is mover, late while reservation order is late, mover
        from dcsim.correspondence import Migrate, enact
        from tests.conftest import make_harness, pump

        mover = initial_trace_vm("mover", [(100.0, 1.0), (50.0, 1.0)])
        scenario = ExperimentScenario(
            events=[TimelineEvent("e", AbsoluteTime(0.0), StartApplication("t", "late"))],
            templates={"t": trace_template([(60.0, 1.0), (50.0, 1.0)], vcpus=1,
                                           ram=1024.0)},
        )
        harness = make_harness(
            make_model(2, initial_vms=[mover]), scenario=scenario,
            placement="worst-fit-ram",
            config=SimConfig(end_time=1e9, placement_decision_latency=40.0),
        )
        harness._schedule_initial_events()
        sim = harness.sim
        pump(harness, 10.0)
        assert sim.vms["late"].state is VmState.BOOTING
        enact(Migrate("mover", "s1", "s2"), sim)
        pump(harness, 20.0)
        assert [vm.id for vm in sim.servers["s2"].running] == ["mover"]
        pump(harness, 40.0)
        assert [vm.id for vm in sim.servers["s2"].reserved] == ["late", "mover"]
        assert [vm.id for vm in sim.servers["s2"].running] == ["late", "mover"]
        pump(harness, 200.0)
        # both reach t=100 and t=150 together; each tie goes to reservation order
        done = [(a.time, a.subject) for a in sim.action_log if a.action == "complete"]
        assert done == [(150.0, "late"), (150.0, "mover")]


def _all_feature_engine() -> _Engine:
    """Trace VMs overloading s1, a request tier under React, consolidation,
    the power manager with a 40 s transition latency, stops of a started
    and an initial VM, and a start that no server can take."""
    from dcsim.algorithms import gen_seasonal_workload
    from dcsim.model import OpenRequestLoad
    from dcsim.scenario import ApplicationTemplate, RelativeTo

    # three trace VMs ask 15 work-units/s of s1's 10
    overload = [
        initial_trace_vm(f"hot{i}", [(300.0, demand), (200.0, 1.0), (400.0, demand / 2)])
        for i, demand in enumerate((6.0, 5.0, 4.0))
    ]
    model = make_model(4, idle_off=2.0, initial_vms=overload)
    series = gen_seasonal_workload(40.0, 2, 3600.0, -2.0, 2.0, seed=3, step=10.0)
    templates = {
        "tier": ApplicationTemplate(
            VmFlavor(1, 1024.0), OpenRequestLoad(tuple(series), per_instance_capacity=10.0)
        ),
        "batch": trace_template([(400.0, 3.0), (200.0, 0.0), (300.0, 1.5)], vcpus=1,
                                ram=2048.0),
        "huge": trace_template([(100.0, 1.0)], ram=65536.0),
    }
    events = [TimelineEvent("web", AbsoluteTime(0.0), StartApplication("tier", "app"))]
    events += [
        TimelineEvent(f"b{k}", AbsoluteTime(150.0 * k), StartApplication("batch", f"job{k}"))
        for k in range(6)
    ]
    events += [
        TimelineEvent("stop-b4", RelativeTo("b4", 120.0), StopApplication("b4")),
        TimelineEvent("stop-hot2", AbsoluteTime(700.0), StopApplication("hot2")),
        TimelineEvent("too-big", AbsoluteTime(450.0), StartApplication("huge", "whale")),
    ]
    algorithms = AlgorithmConfig(
        placement="worst-fit-ram", optimizer="consolidation", autoscaler="react",
        power_manager_enabled=True, spare_servers=1,
    )
    config = SimConfig(end_time=3600.0, optimizer_interval=200.0, autoscaler_interval=60.0,
                       boot_latency=5.0, power_transition_latency=40.0)
    return _Engine(model, ExperimentScenario(events=events, templates=templates),
                   algorithms, config)


def _after_every_event(engine: _Engine, check) -> dict[str, int]:
    """Run the engine, calling ``check(kind)`` after each popped event;
    return the pops per kind."""
    popped: dict[str, int] = {}

    def checked(kind, handler):
        def run_then_check(*payload):
            handler(*payload)
            popped[kind] = popped.get(kind, 0) + 1
            check(kind)
        return run_then_check

    engine.handlers = {kind: checked(kind, h) for kind, h in engine.handlers.items()}
    engine.run()
    return popped


def _executing(sim, server_id):
    """The VMs executing on a host, filtered from its ``reserved`` list."""
    return [
        vm for vm in sim.servers[server_id].reserved
        if vm.host == server_id and vm.state in (VmState.RUNNING, VmState.MIGRATING)
    ]


def _demand(vm):
    """What a VM asks of its host now: its current trace segment's demand,
    its tier's per-instance demand, or 0 unless it is executing."""
    if vm.state not in (VmState.RUNNING, VmState.MIGRATING):
        return 0.0
    if isinstance(vm.workload, BlackBoxTrace):
        return vm.workload.segments[vm.seg_idx][1]
    return vm.app.instance_demand


def test_host_load_matches_recomputation_after_every_event():
    """A host's utilization and power are derived once, in ``refresh_host``;
    after every event they must equal a fresh sum over the host's VMs."""
    from dcsim.model import POWER_ON, host_capacity

    engine = _all_feature_engine()
    sim = engine.sim
    saturated = set()

    def check(kind):
        for server_id, server in sim.servers.items():
            if server.power_state == POWER_ON:
                cap = host_capacity(server.spec)
                demand = sum(_demand(vm) for vm in _executing(sim, server_id))
                util = min(demand, cap) / cap
                pm = sim.model.power_models[server.spec.power_model_id]
                watts = eval_power(pm, util)
            else:
                util, watts = 0.0, server.spec.idle_off_power
            assert sim.server_utilization(server_id) == util, (kind, server_id)
            assert server.power_points[-1][1] == watts, (kind, server_id)
            if util == 1.0:
                saturated.add(server_id)

    popped = _after_every_event(engine, check)
    assert "s1" in saturated
    for kind in ("migration_finished", "power_transition_finished", "rate_update",
                 "segment_boundary", "vm_completed", "boot_finished"):
        assert popped.get(kind, 0) > 0, kind
    assert any(a.action == "scale-out" and a.outcome == "enacted" for a in sim.action_log)


def test_kept_view_free_ram_and_live_index_match_a_rebuild_after_every_event():
    """Each host's membership, cached runtime view, kept free RAM and
    executing VMs, each executing VM's kept demand, and the live-VM index
    must equal a from-scratch build from ``servers``, ``reserved`` and
    ``vms`` after every event. A host is settled no later than ``now`` and
    no earlier than the moment its last executing VM joined it."""
    from dcsim.correspondence import ServerView, VmView, sync_measurements
    from dcsim.model import POWER_OFF, POWER_ON, TERMINAL_STATES

    engine = _all_feature_engine()
    sim = engine.sim

    def check(kind):
        servers, vms = [], []
        for server_id, server in sim.servers.items():
            members = {
                vm.id for vm in sim.live_vms.values()
                if server_id in (vm.host, vm.migration_target)
            }
            assert {vm.id for vm in server.reserved} == members, (kind, server_id)
            assert len(server.reserved) == len(members), (kind, server_id)
            assert all(
                vm.state not in TERMINAL_STATES and vm.state is not VmState.PENDING
                for vm in server.reserved
            ), (kind, server_id)
            assert server.settled_at <= sim.now, (kind, server_id)
            for vm in server.running:  # settled since the VM joined the host
                assert server.settled_at >= max(vm.start_time, vm.hosts[-1][0]), (kind, vm.id)
            used = sum(vm.flavor.ram for vm in server.reserved)
            assert server.free_ram == server.spec.ram_capacity - used, (kind, server_id)
            executing = _executing(sim, server_id)
            assert [vm.id for vm in server.running] == [vm.id for vm in executing], (
                kind, server_id)
            for vm in executing:
                assert vm.demand == _demand(vm), (kind, vm.id)
            servers.append(ServerView(
                server_id, server.spec.cores, server.spec.core_speed,
                server.spec.ram_capacity, POWER_ON if server.usable() else POWER_OFF,
                sim.server_utilization(server_id), server.spec.ram_capacity - used,
            ))
            vms += [
                VmView(vm.id, vm.flavor, server_id, vm.state, _demand(vm))
                for vm in server.reserved
                if vm.host == server_id
            ]
        snapshot = sync_measurements(sim)
        assert snapshot.servers == tuple(servers), kind
        assert snapshot.vms == tuple(vms), kind
        live = [(i, vm) for i, vm in sim.vms.items() if vm.state not in TERMINAL_STATES]
        assert list(sim.live_vms.items()) == live, kind

    popped = _after_every_event(engine, check)
    for kind in ("migration_finished", "power_transition_finished", "rate_update",
                 "segment_boundary", "vm_completed", "boot_finished"):
        assert popped.get(kind, 0) > 0, kind
    outcomes = {(a.action, a.subject): a.outcome for a in sim.action_log}
    assert outcomes[("start-request", "whale")] == "rejected: no feasible server"
    assert outcomes[("stop-request", "job4")] == "terminated job4"
    assert outcomes[("stop-request", "hot2")] == "terminated hot2"
    assert any(a.action == "scale-in" and a.outcome == "enacted" for a in sim.action_log)
    assert any(a.action == "migrate" and a.outcome == "enacted" for a in sim.action_log)


def _euler_oracle(traces, capacity, dt=0.002, horizon=1000.0):
    """Brute-force GPS integrator, independent of the event-driven kernel."""
    state = []
    for segments in traces:
        state.append({"idx": 0, "segments": segments, "remaining": None, "done": None})

    def init(vm):
        duration, demand = vm["segments"][vm["idx"]]
        vm["remaining"] = duration * demand if demand > 0 else duration

    for vm in state:
        init(vm)
    t = 0.0
    while t < horizon and any(vm["done"] is None for vm in state):
        active = [vm for vm in state if vm["done"] is None]
        demands = [vm["segments"][vm["idx"]][1] for vm in active]
        rates = proportional_share_rates(demands, capacity)
        for vm, demand, rate in zip(active, demands, rates):
            vm["remaining"] -= rate * dt if demand > 0 else dt
            if vm["remaining"] <= 0:
                vm["idx"] += 1
                if vm["idx"] >= len(vm["segments"]):
                    vm["done"] = t + dt
                else:
                    init(vm)
        t += dt
    return [vm["done"] for vm in state]


_demands = st.one_of(st.just(0.0), st.floats(0.05, 6.0))


@st.composite
def co_located_traces(draw):
    n_vms = draw(st.integers(1, 4))
    traces = []
    for _ in range(n_vms):
        n_segments = draw(st.integers(1, 3))
        traces.append(
            [(draw(st.floats(2.0, 30.0)), draw(_demands)) for _ in range(n_segments)]
        )
    return traces


@settings(max_examples=15, deadline=None)
@given(co_located_traces())
def test_completion_times_match_brute_force_gps(traces):
    model = make_model(1)  # capacity 10
    scenario = scenario_of_traces(traces)
    report = run(model, scenario, NO_ALGO, SimConfig(end_time=1000.0))
    expected = _euler_oracle(traces, capacity=10.0)
    for i, oracle_done in enumerate(expected):
        record = report.vm_records[f"vm{i}"]
        assert oracle_done is not None
        assert record.end_time == pytest.approx(oracle_done, abs=0.2)


@settings(max_examples=20, deadline=None)
@given(co_located_traces())
def test_contention_slowdown_monotone(traces):
    """Doubling a co-located VM's demand never speeds up the others."""
    model = make_model(1)
    base = run(model, scenario_of_traces(traces), NO_ALGO, SimConfig(end_time=5000.0))
    doubled = [[(d, w * 2.0) for d, w in traces[0]]] + traces[1:]
    bumped = run(model, scenario_of_traces(doubled), NO_ALGO, SimConfig(end_time=5000.0))
    for i in range(1, len(traces)):
        before = base.vm_records[f"vm{i}"].end_time
        after = bumped.vm_records[f"vm{i}"].end_time
        if before is None:
            assert after is None or after >= 4999.0
        else:
            assert after is None or after >= before - 1e-6


def _energy_oracle(model, schedules, end_time):
    """Flat summation over exact utilization change points, per server."""
    total = 0.0
    for server in model.servers:
        pm = model.power_models[server.power_model_id]
        capacity = server.cores * server.core_speed
        segments = schedules.get(server.id, [])
        points = [(0.0, 0.0)]
        t = 0.0
        for duration, demand in segments:
            points[-1] = (points[-1][0], min(demand, capacity) / capacity)
            points.append((t + duration, 0.0))
            t += duration
        watt_seconds = 0.0
        for (t0, u), (t1, _) in zip(points, points[1:]):
            lo, hi = min(t0, end_time), min(t1, end_time)
            watt_seconds += eval_power(pm, u) * (hi - lo)
        if points[-1][0] < end_time:
            watt_seconds += eval_power(pm, points[-1][1]) * (end_time - points[-1][0])
        total += watt_seconds / 3600.0
    return total


def test_energy_matches_flat_summation_oracle():
    rng = random.Random(4)
    for _ in range(25):
        n_servers = rng.randint(1, 4)
        pm = PowerModel(POLYNOMIAL, (rng.uniform(10, 80), rng.uniform(0, 30),
                                     rng.uniform(0, 10), rng.uniform(40, 120)))
        model = make_model(n_servers, pm=pm)
        schedules = {}
        traces = []
        hours = rng.uniform(1.0, 24.0)
        for i in range(n_servers):
            segments = [
                (rng.uniform(200.0, hours * 1200.0), rng.uniform(0.0, 10.0))
                for _ in range(rng.randint(1, 5))
            ]
            schedules[f"s{i + 1}"] = segments
            traces.append(segments)
        end_time = hours * 3600.0
        # one VM per server so host utilization follows each trace exactly
        scenario = scenario_of_traces(traces)
        for event, server in zip(scenario.events, model.servers):
            total_dur = sum(d for d, _ in traces[int(event.id[1:])])
            assert total_dur < end_time or True
        # worst-fit spreads the equal-RAM VMs one per server in id order
        report = run(
            model, scenario, AlgorithmConfig(placement="worst-fit-ram"),
            SimConfig(end_time=end_time, measurement_interval=3600.0),
        )
        hosts = [report.vm_records[f"vm{i}"].hosts for i in range(n_servers)]
        assert [h[0][1] for h in hosts] == [f"s{i + 1}" for i in range(n_servers)]
        oracle = _energy_oracle(model, schedules, end_time)
        assert report.total_energy_wh == pytest.approx(oracle, rel=1e-9)


def test_capacity_conservation_in_samples():
    model = make_model(1)
    traces = [[(300.0, 7.0)], [(300.0, 6.0)], [(200.0, 2.0)]]
    report = run(model, scenario_of_traces(traces), NO_ALGO,
                 SimConfig(end_time=600.0, measurement_interval=10.0))
    by_time = {}
    for m in report.metrics:
        if m.metric == "vm_cpu_utilization":
            by_time.setdefault(m.time, 0.0)
            by_time[m.time] += m.value
    assert by_time
    for t, total in by_time.items():
        assert total <= 1.0 + 1e-9
        if t < 200.0:  # all three demand 15 > 10: saturated
            assert total == pytest.approx(1.0)


def test_work_conservation_under_contention():
    model = make_model(1)
    traces = [[(100.0, 8.0)], [(50.0, 6.0), (30.0, 4.0)]]
    report = run(model, scenario_of_traces(traces), NO_ALGO, SimConfig(end_time=1000.0))
    # Independent check: at saturation both VMs progress at capacity-shared
    # rates, so completion times satisfy the work integral exactly.
    done0 = report.vm_records["vm0"].end_time
    done1 = report.vm_records["vm1"].end_time
    # Phase 1, demands [8, 6]: rates [40/7, 30/7]; vm1's 300 work-units take
    # 70 s. Phase 2, demands [8, 4]: rates [20/3, 10/3]; vm1's 120 units take
    # 36 s -> vm1 done at 106 s.
    assert done1 == pytest.approx(106.0)
    # vm0's 800 units: 400 in phase 1, 240 in phase 2, final 160 alone at
    # rate 8 -> 126 s total.
    assert done0 == pytest.approx(126.0)


def test_tier_started_at_a_fractional_time_takes_every_rate_step():
    """A tier started at 0.1 s steps from 10 to 40 req/s at offset 4.0. The
    update fires at 0.1 + 4.0, which is 4.1, while 4.1 - 0.1 is below 4.0,
    so a lookup relative to the start time used to miss the step."""
    from dcsim.model import OpenRequestLoad
    from dcsim.scenario import ApplicationTemplate

    load = OpenRequestLoad(((0.0, 10.0), (4.0, 40.0)), per_instance_capacity=40.0)
    scenario = ExperimentScenario(
        events=[TimelineEvent("web", AbsoluteTime(0.1), StartApplication("tier", "app"))],
        templates={"tier": ApplicationTemplate(VmFlavor(1, 1024.0), load)},
    )
    report = run(make_model(1, cores=1, core_speed=1.0), scenario, NO_ALGO,
                 SimConfig(end_time=20.0))
    assert report.utilization["s1"] == [(0.0, 0.0), (0.1, 0.25), (0.1 + 4.0, 1.0)]


class TestOptimizerReconfiguration:
    def test_reconfigure_and_interval_change(self):
        model = make_model(3, ram=16384.0)
        templates = {
            "t": trace_template([(10000.0, 1.0)], vcpus=1, ram=2048.0),
        }
        events = [
            TimelineEvent("a", AbsoluteTime(0.0), StartApplication("t", "vm1")),
            TimelineEvent("b", AbsoluteTime(0.0), StartApplication("t", "vm2")),
        ]
        scenario = ExperimentScenario(events=events, templates=templates)
        algo = AlgorithmConfig(placement="worst-fit-ram", optimizer="none")
        config = SimConfig(end_time=400.0, optimizer_interval=100.0)
        report = run(model, scenario, algo, config)
        assert not [a for a in report.actions if a.action == "migrate"]

        # Switch the optimizer on mid-run; consolidation then moves vm1.
        events2 = events + [
            TimelineEvent("c", AbsoluteTime(150.0),
                          ReconfigureOptimisationAlgorithm("consolidation")),
        ]
        scenario2 = ExperimentScenario(events=events2, templates=templates)
        report2 = run(model, scenario2, algo, config)
        migrations = [a for a in report2.actions if a.action == "migrate"]
        assert migrations and migrations[0].time == 200.0


class TestRemainingInvariants:
    def test_relative_chain_additivity(self):
        """e1 <- e2 <- e3 with zero execution times: t3 = t1 + o2 + o3."""
        from dcsim.scenario import RelativeTo

        model = make_model(2)
        template = trace_template([(10000.0, 1.0)], vcpus=1, ram=1024.0)
        events = [
            TimelineEvent("e1", AbsoluteTime(100.0), StartApplication("t", "a")),
            TimelineEvent("e2", RelativeTo("e1", 250.0), StartApplication("t", "b")),
            TimelineEvent("e3", RelativeTo("e2", 400.0), StartApplication("t", "c")),
        ]
        scenario = ExperimentScenario(events=events, templates={"t": template})
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=2000.0))
        assert report.vm_records["c"].start_time == 100.0 + 250.0 + 400.0

    def test_relative_event_never_runs_without_its_reference(self, caplog):
        """A start stopped while booting never completes, so what chains off
        it never triggers, and the run logs it; a chain off the stop still
        does."""
        from dcsim.scenario import RelativeTo

        template = trace_template([(10000.0, 1.0)], vcpus=1, ram=1024.0)
        events = [
            TimelineEvent("e1", AbsoluteTime(0.0), StartApplication("t", "a")),
            TimelineEvent("e2", AbsoluteTime(10.0), StopApplication("e1")),
            TimelineEvent("e3", RelativeTo("e1", 0.0),
                          ReconfigureOptimisationAlgorithm("consolidation")),
            TimelineEvent("e4", RelativeTo("e2", 5.0), StartApplication("t", "b")),
        ]
        scenario = ExperimentScenario(events=events, templates={"t": template})
        with caplog.at_level(logging.DEBUG, logger="dcsim.engine"):
            report = run(make_model(1), scenario, NO_ALGO,
                         SimConfig(end_time=2000.0, boot_latency=100.0))
        assert [r.getMessage() for r in caplog.records] == [
            "event e3 never ran: its reference e1 never completed"
        ]
        assert report.vm_records["a"].start_time is None
        assert report.vm_records["a"].end_kind == "terminated"
        assert report.vm_records["b"].submit_time == 15.0
        assert not [a for a in report.actions if a.action == "reconfigure-optimizer"]

    def test_action_log_nondecreasing_and_energy_additive(self):
        model = make_model(3, idle_off=2.0)
        scenario = scenario_of_traces([[(500.0, 3.0)], [(700.0, 2.0)]])
        report = run(model, scenario, AlgorithmConfig(optimizer="consolidation",
                                                      power_manager_enabled=True),
                     SimConfig(end_time=3600.0, optimizer_interval=300.0))
        times = [entry.time for entry in report.actions]
        assert times == sorted(times)
        assert report.total_energy_wh == pytest.approx(sum(report.energy_wh.values()))
        for server_id, energy in report.energy_wh.items():
            assert energy >= 2.0 * 3600.0 / 3600.0 - 1e-9  # idle_off floor

    def test_stop_by_initial_vm_id(self):
        from dcsim.model import Initiator, VmInstance
        from dcsim.model import BlackBoxTrace as Trace
        from dcsim.model import VmFlavor as Flavor

        vm = VmInstance(
            id="legacy", flavor=Flavor(1, 2048.0),
            workload=Trace(((10000.0, 2.0),)),
            host="s1", initiator=Initiator.TENANT,
        )
        model = make_model(1, initial_vms=[vm])
        scenario = ExperimentScenario(
            events=[TimelineEvent("halt", AbsoluteTime(300.0),
                                  StopApplication("legacy"))],
        )
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=600.0))
        record = report.vm_records["legacy"]
        assert record.end_kind == "terminated"
        assert record.end_time == 300.0

    def test_duplicate_scenario_vm_id_rejected(self):
        from dcsim.scenario import ScenarioError, check_scenario

        template = trace_template([(10.0, 1.0)])
        events = [
            TimelineEvent("e1", AbsoluteTime(0.0), StartApplication("t", "dup")),
            TimelineEvent("e2", AbsoluteTime(5.0), StartApplication("t", "dup")),
        ]
        scenario = ExperimentScenario(events=events, templates={"t": template})
        with pytest.raises(ScenarioError, match="dup"):
            check_scenario(scenario)

    def test_snapshot_is_immutable_for_plugins(self):
        from dcsim.algorithms import (
            manage_power,
            optimize_consolidation,
            place_best_fit_ram,
        )
        from dcsim.correspondence import sync_measurements
        from tests.conftest import make_harness

        harness = make_harness(make_model(3))
        snapshot = sync_measurements(harness.sim)
        reference = sync_measurements(harness.sim)
        place_best_fit_ram(snapshot, trace_template([(5.0, 1.0)]).flavor)
        optimize_consolidation(snapshot)
        manage_power(snapshot, 1)
        assert snapshot == reference

    def test_measurements_for_powered_off_server(self):
        from dcsim.model import POWER_OFF

        model = DataCenterModel(
            (make_server("s1", idle_off=7.5), make_server("s2")),
            {"pm": LINEAR_PM},
            initial_power_states={"s1": POWER_OFF},
        )
        report = run(model, ExperimentScenario(events=[]), NO_ALGO,
                     SimConfig(end_time=120.0, measurement_interval=60.0))
        rows = {
            (m.entity_id, m.metric): m.value
            for m in report.metrics if m.time == 60.0
        }
        assert rows[("s1", "cpu_utilization")] == 0.0
        assert rows[("s1", "power_w")] == 7.5
        assert rows[("s2", "power_w")] == 80.0  # idle on: P(0)
        assert report.energy_wh["s1"] == pytest.approx(7.5 * 120.0 / 3600.0)

    def test_empty_trace_completes_immediately(self):
        from dcsim.model import BlackBoxTrace as Trace
        from dcsim.scenario import ApplicationTemplate as Template
        from dcsim.model import VmFlavor as Flavor

        model = make_model(1)
        scenario = ExperimentScenario(
            events=[TimelineEvent("e", AbsoluteTime(50.0),
                                  StartApplication("t", "noop"))],
            templates={"t": Template(Flavor(1, 1024.0), Trace(()))},
        )
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=100.0))
        record = report.vm_records["noop"]
        assert record.end_kind == "completed"
        assert record.end_time == 50.0

    def test_stop_of_rejected_vm_is_noop(self):
        # 2048 MiB never fits the 1024 MiB server: the start is rejected and
        # a later stop must not rewrite the rejection as a termination
        model = make_model(1, ram=1024.0)
        template = trace_template([(100.0, 1.0)], vcpus=1, ram=2048.0)
        events = [
            TimelineEvent("e1", AbsoluteTime(5.0), StartApplication("t", "doomed")),
            TimelineEvent("halt", AbsoluteTime(10.0), StopApplication("e1")),
        ]
        scenario = ExperimentScenario(events=events, templates={"t": template})
        report = run(model, scenario, NO_ALGO, SimConfig(end_time=100.0))
        assert report.vm_records["doomed"].end_kind == "rejected"
        stop = [a for a in report.actions if a.action == "stop-request"][0]
        assert stop.outcome == "no-op: already rejected"
        kinds = [e.event for e in report.lifecycle if e.vm_id == "doomed"]
        assert kinds == ["submitted", "rejected"]


def test_migration_under_contention_hand_computed():
    """Cutover moves demand at MigrationFinished; work integrals stay exact.

    Two VMs demand 6 each on a 10-capacity host (granted 5 each). One is
    migrated away at t=50 (1 s copy). Until the cutover at t=51 both still
    share the source, afterwards each runs at its full demand:
    work 600 = 5*51 + 6*(t_done - 51)  ->  t_done = 108.5 s.
    """
    from dcsim.correspondence import Migrate, Place, enact
    from dcsim.model import BlackBoxTrace, Initiator, VmFlavor
    from tests.conftest import make_harness, pump

    harness = make_harness(make_model(2, ram=16384.0))
    for vm_id in ("vmA", "vmB"):
        harness.sim.create_vm(
            vm_id, VmFlavor(1, 1024.0), BlackBoxTrace(((100.0, 6.0),)),
            Initiator.TENANT,
        )
        enact(Place(vm_id, "s1"), harness.sim)
    pump(harness, 50.0)
    enact(Migrate("vmB", "s1", "s2"), harness.sim)
    pump(harness, 200.0)
    assert harness.sim.vms["vmB"].hosts[-1] == (pytest.approx(51.0), "s2")
    assert harness.sim.vms["vmA"].end_time == pytest.approx(108.5)
    assert harness.sim.vms["vmB"].end_time == pytest.approx(108.5)
    assert harness.sim.vms["vmB"].hosts[-1][1] == "s2"


def test_everything_on_integration():
    """All features together: placements, consolidation, power management,
    autoscaling, stops, reconfiguration. Asserts the global invariants."""
    from dcsim.algorithms import gen_seasonal_workload
    from dcsim.model import OpenRequestLoad, VmFlavor
    from dcsim.scenario import (
        ApplicationTemplate,
        ChangeOptimisationInterval,
        RelativeTo,
    )

    series = gen_seasonal_workload(60.0, 4, 7200.0, -2.0, 2.0, seed=9, step=10.0)
    app_load = OpenRequestLoad(tuple(series), per_instance_capacity=12.0)
    model = make_model(6, ram=16384.0, idle_off=3.0)
    templates = {
        "batch": trace_template([(900.0, 4.0), (300.0, 0.0), (600.0, 2.0)],
                                vcpus=2, ram=4096.0),
        "small": trace_template([(1200.0, 1.0)], vcpus=1, ram=2048.0),
        "tier": ApplicationTemplate(VmFlavor(1, 1024.0), app_load),
    }
    events = [
        TimelineEvent("web", AbsoluteTime(0.0), StartApplication("tier", "app")),
        TimelineEvent("b1", AbsoluteTime(100.0), StartApplication("batch", "job1")),
        TimelineEvent("b2", AbsoluteTime(400.0), StartApplication("batch", "job2")),
        TimelineEvent("s1e", AbsoluteTime(700.0), StartApplication("small", "job3")),
        TimelineEvent("s2e", RelativeTo("b1", 200.0), StartApplication("small", "job4")),
        TimelineEvent("halt1", RelativeTo("b2", 1300.0), StopApplication("b2")),
        TimelineEvent("switch", AbsoluteTime(1800.0),
                      ReconfigureOptimisationAlgorithm("load-balance")),
        TimelineEvent("faster", AbsoluteTime(3600.0),
                      ChangeOptimisationInterval(120.0)),
    ]
    scenario = ExperimentScenario(events=events, templates=templates)
    algorithms = AlgorithmConfig(
        placement="best-fit-ram", optimizer="consolidation", autoscaler="react",
        power_manager_enabled=True, spare_servers=1,
    )
    config = SimConfig(end_time=7200.0, optimizer_interval=240.0,
                       autoscaler_interval=60.0, boot_latency=5.0,
                       placement_decision_latency=1.0,
                       power_transition_latency=10.0, seed=13)
    report = run(model, scenario, algorithms, config)

    times = [a.time for a in report.actions]
    assert times == sorted(times)
    assert report.total_energy_wh == pytest.approx(sum(report.energy_wh.values()))
    for series_points in report.utilization.values():
        assert all(0.0 <= u <= 1.0 + 1e-9 for _, u in series_points)
        ts = [t for t, _ in series_points]
        assert ts == sorted(ts)
    kinds = {r.end_kind for r in report.vm_records.values()}
    assert kinds <= {"completed", "terminated", "running", "rejected"}
    assert report.vm_records["job2"].end_kind == "terminated"
    assert report.scaling_action_count() > 0
    assert any(a.action == "power-off" for a in report.actions)
    # determinism of the full feature set
    again = run(model, scenario, algorithms, config)
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        again.to_dict(), sort_keys=True
    )


def test_soak_all_features_bounded_time():
    """Moderate fleet with every feature enabled stays fast and consistent."""
    import random
    import time as time_mod

    from dcsim.algorithms import gen_seasonal_workload
    from dcsim.model import BlackBoxTrace, OpenRequestLoad, VmFlavor
    from dcsim.scenario import ApplicationTemplate

    rng = random.Random(41)
    model = make_model(16, cores=8, core_speed=2.0, ram=65536.0, idle_off=4.0)
    series = gen_seasonal_workload(80.0, 4, 43200.0, -2.0, 2.0, seed=5, step=30.0)
    templates = {
        "tier": ApplicationTemplate(
            VmFlavor(1, 1024.0),
            OpenRequestLoad(tuple(series), per_instance_capacity=15.0),
        )
    }
    events = [TimelineEvent("web", AbsoluteTime(0.0),
                            StartApplication("tier", "app"))]
    for k in range(100):
        segments = tuple(
            (rng.uniform(600.0, 5400.0), rng.uniform(0.2, 6.0))
            for _ in range(rng.randint(1, 5))
        )
        templates[f"t{k}"] = ApplicationTemplate(
            VmFlavor(rng.randint(1, 4), rng.choice([2048.0, 4096.0, 8192.0])),
            BlackBoxTrace(segments),
        )
        events.append(TimelineEvent(f"e{k}", AbsoluteTime(rng.uniform(0, 36000.0)),
                                    StartApplication(f"t{k}", f"vm{k:03d}")))
    scenario = ExperimentScenario(events=events, templates=templates)
    algorithms = AlgorithmConfig(
        placement="best-fit-ram", optimizer="consolidation", autoscaler="react",
        power_manager_enabled=True, spare_servers=2,
    )
    config = SimConfig(end_time=43200.0, optimizer_interval=300.0,
                       autoscaler_interval=60.0, boot_latency=10.0,
                       power_transition_latency=30.0, seed=9)
    started = time_mod.perf_counter()
    report = run(model, scenario, algorithms, config)
    assert time_mod.perf_counter() - started < 30.0

    assert report.rejected_placements() == 0
    times = [a.time for a in report.actions]
    assert times == sorted(times)
    assert report.total_energy_wh == pytest.approx(sum(report.energy_wh.values()))
    for points in report.utilization.values():
        assert all(0.0 <= u <= 1.0 + 1e-9 for _, u in points)
    kinds = {r.end_kind for r in report.vm_records.values()}
    assert kinds <= {"completed", "terminated", "running", "rejected"}
    # every series of every server integrates within the physical envelope
    horizon_h = config.end_time / 3600.0
    for server_id, energy in report.energy_wh.items():
        assert 4.0 * horizon_h - 1e-6 <= energy <= 145.0 * horizon_h + 1e-6


def tier_scenario(*events, start_at=0.0, rate=25.0, ram=1024.0):
    """A tier ``web`` started at ``start_at`` whose constant offered rate
    needs three instances of capacity 10, plus ``events`` and a ``batch``
    trace template for them."""
    from dcsim.model import OpenRequestLoad
    from dcsim.scenario import ApplicationTemplate

    load = OpenRequestLoad(((0.0, rate),), per_instance_capacity=10.0)
    return ExperimentScenario(
        events=[TimelineEvent("tier", AbsoluteTime(start_at), StartApplication("t", "web")),
                *events],
        templates={"t": ApplicationTemplate(VmFlavor(1, ram), load),
                   "batch": trace_template([(1000.0, 1.0)], vcpus=1, ram=1024.0)},
    )


REACT = AlgorithmConfig(autoscaler="react")


class TestScaleOut:
    def test_scale_out_waits_the_placement_decision_latency(self):
        """A scale-out instance is admitted as a tenant's start is: it
        starts placement_decision_latency + boot_latency after its request."""
        config = SimConfig(end_time=100.0, autoscaler_interval=60.0, boot_latency=5.0,
                           placement_decision_latency=1.0)
        report = run(make_model(2), tier_scenario(), REACT, config)
        started = {e.vm_id: e.time for e in report.lifecycle if e.event == "started"}
        assert started == {"web": 6.0, "web-i0001": 66.0}
        assert report.vm_records["web-i0001"].submit_time == 60.0

    def test_autoscaler_skips_a_tier_without_instances(self):
        """A tier whose start no server takes has no instance: the
        autoscaler records its rate and decides nothing for it."""
        report = run(make_model(1, ram=1024.0), tier_scenario(ram=2048.0), REACT,
                     SimConfig(end_time=200.0, autoscaler_interval=60.0))
        assert report.vm_records["web"].end_kind == "rejected"
        assert report.autoscaler_series == []
        assert report.scaling_action_count() == 0
        assert report.app_instance_counts == {"web": []}
        assert report.mean_instances("web") == 0.0

    def test_mean_instances_of_a_tier_started_at_the_horizon(self):
        report = run(make_model(1), tier_scenario(start_at=100.0), NO_ALGO,
                     SimConfig(end_time=100.0))
        assert report.app_instance_counts == {"web": [(100.0, 1)]}
        assert report.mean_instances("web") == 1.0


def test_stop_before_its_start_ran_is_a_noop():
    template = trace_template([(100.0, 1.0)], vcpus=1, ram=1024.0)
    events = [
        TimelineEvent("e1", AbsoluteTime(50.0), StartApplication("t", "late")),
        TimelineEvent("halt", AbsoluteTime(10.0), StopApplication("e1")),
    ]
    scenario = ExperimentScenario(events=events, templates={"t": template})
    report = run(make_model(1), scenario, NO_ALGO, SimConfig(end_time=500.0))
    stop = [a for a in report.actions if a.action == "stop-request"]
    assert [(a.time, a.subject, a.outcome) for a in stop] == [
        (10.0, "late", "no-op: vm never started")
    ]
    assert report.vm_records["late"].end_kind == "completed"


def test_vm_ended_while_migrating_never_cuts_over():
    """A VM stopped mid-migration releases both hosts, and its migration
    timer does nothing when it fires."""
    from dcsim.correspondence import Migrate, enact
    from tests.conftest import make_harness, pump

    mover = initial_trace_vm("mover", [(1000.0, 1.0)])
    scenario = ExperimentScenario(
        events=[TimelineEvent("halt", AbsoluteTime(20.0), StopApplication("mover"))]
    )
    harness = make_harness(make_model(2, initial_vms=[mover]), scenario=scenario,
                           config=SimConfig(end_time=1e9, migration_bandwidth=10.24))
    harness._schedule_initial_events()
    sim = harness.sim
    pump(harness, 10.0)
    assert enact(Migrate("mover", "s1", "s2"), sim) is None  # copies until t=110
    pump(harness, 20.0)
    vm = sim.vms["mover"]
    assert vm.state is VmState.TERMINATED
    assert sim.servers["s1"].reserved == sim.servers["s2"].reserved == []
    pump(harness, 200.0)
    assert vm.host is None and vm.migration_target is None
    assert vm.hosts == [(0.0, "s1")]
    assert [e.event for e in sim.lifecycle if e.vm_id == "mover"] == [
        "submitted", "started", "terminated"
    ]
    assert sim.servers["s2"].free_ram == sim.servers["s2"].spec.ram_capacity


def test_tier_points_before_its_start_hold_at_the_start():
    """An initial tier whose series starts before t=0 runs at the rate in
    force at 0 (30 req/s, from the point at -20): 0.3 of one vcpu on a
    host of capacity 10. A point before the start is never scheduled, so
    the clock does not run backwards."""
    from dcsim.model import OpenRequestLoad

    load = OpenRequestLoad(((-50.0, 50.0), (-20.0, 30.0), (100.0, 5.0)),
                           per_instance_capacity=100.0)
    vm = VmInstance("web", VmFlavor(1, 1024.0), load, host="s1")
    report = run(make_model(1, initial_vms=[vm]), ExperimentScenario(events=[]), NO_ALGO,
                 SimConfig(end_time=200.0))
    (t0, u0), (t1, u1) = report.utilization["s1"]
    assert (t0, t1) == (0.0, 100.0)
    assert u0 == pytest.approx(0.03) and u1 == pytest.approx(0.005)


def test_schedule_refuses_a_time_before_now(two_server_model):
    from tests.conftest import make_harness

    sim = make_harness(two_server_model).sim
    sim.now = 10.0
    with pytest.raises(RuntimeError, match="before now"):
        sim.schedule(9.0, "measurement_sample", ())
    sim.schedule(10.0, "measurement_sample", ())


def test_tier_demand_scales_with_its_vcpus():
    """A fully loaded instance demands ``vcpus`` work-units per second:
    half load on a 2-vcpu instance is 1.0 of the host's 10."""
    from dcsim.model import OpenRequestLoad

    load = OpenRequestLoad(((0.0, 50.0),), per_instance_capacity=100.0)
    vm = VmInstance("web", VmFlavor(2, 1024.0), load, host="s1")
    report = run(make_model(1, initial_vms=[vm]), ExperimentScenario(events=[]), NO_ALGO,
                 SimConfig(end_time=100.0))
    assert report.utilization["s1"] == [(0.0, pytest.approx(0.1))]


def test_relative_event_due_at_the_horizon_runs(two_server_model):
    from dcsim.scenario import RelativeTo

    scenario = ExperimentScenario(events=[
        TimelineEvent("e1", AbsoluteTime(0.0), ReconfigureOptimisationAlgorithm("none")),
        TimelineEvent("e2", RelativeTo("e1", 100.0), ReconfigureOptimisationAlgorithm("none")),
    ])
    report = run(two_server_model, scenario, NO_ALGO, SimConfig(end_time=100.0))
    times = [a.time for a in report.actions if a.action == "reconfigure-optimizer"]
    assert times == [0.0, 100.0]


@pytest.mark.parametrize("name", [
    "end_time", "measurement_interval", "optimizer_interval", "autoscaler_interval",
    "migration_bandwidth",
])
def test_sim_config_refuses_zero_where_it_must_be_positive(name):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got 0.0"):
        SimConfig(**{"end_time": 100.0, name: 0.0})


def test_sim_config_accepts_zero_latencies():
    config = SimConfig(end_time=100.0, boot_latency=0.0, placement_decision_latency=0.0,
                       power_transition_latency=0.0)
    assert config.boot_latency == config.placement_decision_latency == 0.0


def _report(actions=(), app_instance_counts=None, end_time=40.0):
    from dcsim.engine import SimulationReport

    return SimulationReport(
        end_time=end_time, seed=0, utilization={}, power={}, energy_wh={},
        total_energy_wh=0.0, actions=list(actions), vm_records={}, autoscaler_series=[],
        app_instance_counts=app_instance_counts or {},
    )


def test_placements_hold_only_enacted_places():
    from dcsim.state import ActionEntry

    report = _report([
        ActionEntry(0.0, "place", "a->s1", "enacted"),
        ActionEntry(1.0, "place", "b->s2", "rejected: no feasible server"),
        ActionEntry(2.0, "migrate", "a->s2", "enacted"),
    ])
    assert report.placements() == [("a", "s1")]


def test_mean_instances_is_area_over_span():
    # 2 instances for 10 s, then 4 for 20 s: 100 instance-seconds over 30 s
    report = _report(app_instance_counts={"web": [(10.0, 2), (20.0, 4)]}, end_time=40.0)
    assert report.mean_instances("web") == pytest.approx(100.0 / 30.0)
