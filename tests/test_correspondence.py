import random

import pytest

from dcsim.correspondence import (
    Migrate,
    Place,
    PowerOff,
    PowerOn,
    Rejected,
    ScaleIn,
    ScaleOut,
    enact,
    sync_measurements,
)
from dcsim.model import (
    POWER_OFF,
    POWER_ON,
    BlackBoxTrace,
    DataCenterModel,
    Initiator,
    OpenRequestLoad,
    VmFlavor,
    VmInstance,
    VmState,
)
from dcsim.scenario import (
    AbsoluteTime,
    ExperimentScenario,
    StartApplication,
    TimelineEvent,
)
from tests.conftest import (
    LINEAR_PM,
    make_harness,
    make_model,
    make_server,
    pump,
    trace_template,
)


def running_vm(vm_id, ram, host):
    return VmInstance(
        id=vm_id,
        flavor=VmFlavor(2, ram),
        workload=BlackBoxTrace(((10000.0, 1.0),)),
        host=host,
    )


def servers(snapshot):
    return {s.id: s for s in snapshot.servers}


def add_pending_vm(harness, vm_id, ram, demand=1.0, duration=10000.0):
    return harness.sim.create_vm(
        vm_id, VmFlavor(1, ram), BlackBoxTrace(((duration, demand),)), Initiator.TENANT
    )


class TestSync:
    def test_initial_free_ram(self):
        vm = running_vm("v1", 4096, "s1")
        snapshot = sync_measurements(make_harness(make_model(1, initial_vms=[vm])).sim)
        assert servers(snapshot)["s1"].free_ram == 12288
        # the VM runs from t=0: demand 1.0 on 4 cores x 2.5
        assert servers(snapshot)["s1"].utilization == pytest.approx(0.1)

    def test_free_ram_tracks_placement(self):
        harness = make_harness(make_model(2))
        vm = add_pending_vm(harness, "v1", 4096)
        enact(Place("v1", "s1"), harness.sim)
        snapshot = sync_measurements(harness.sim)
        assert servers(snapshot)["s1"].free_ram == 16384 - 4096

    def test_saturated_utilization(self):
        harness = make_harness(make_model(1))  # capacity 10
        for vm_id, demand in (("a", 8.0), ("b", 6.0)):
            add_pending_vm(harness, vm_id, 1024, demand=demand)
            enact(Place(vm_id, "s1"), harness.sim)
        pump(harness, 0.0)  # boot events
        snapshot = sync_measurements(harness.sim)
        assert servers(snapshot)["s1"].utilization == pytest.approx(1.0)

    def test_powered_off_server(self):
        model = DataCenterModel(
            (make_server("s1"),), {"pm": LINEAR_PM},
            initial_power_states={"s1": POWER_OFF},
        )
        harness = make_harness(model)
        snapshot = sync_measurements(harness.sim)
        assert servers(snapshot)["s1"].power_state == POWER_OFF
        assert servers(snapshot)["s1"].utilization == 0.0

    def test_snapshot_faithful_to_placements(self):
        harness = make_harness(make_model(3))
        layout = {"a": "s1", "b": "s1", "c": "s3"}
        for vm_id, host in layout.items():
            add_pending_vm(harness, vm_id, 2048)
            enact(Place(vm_id, host), harness.sim)
        pump(harness, 0.0)
        snapshot = sync_measurements(harness.sim)
        for server in snapshot.servers:
            placed = sum(2048 for v, h in layout.items() if h == server.id)
            assert server.free_ram == 16384 - placed

    def test_view_lists_each_hosted_vm_once(self):
        from dcsim.engine import SimConfig

        vms = [running_vm("mover", 2048, "s1"), running_vm("gone", 2048, "s1")]
        harness = make_harness(make_model(2, initial_vms=vms),
                               config=SimConfig(end_time=1e9, boot_latency=30.0))
        sim = harness.sim
        assert enact(Migrate("mover", "s1", "s2"), sim) is None
        sim.end_vm(sim.vms["gone"], VmState.TERMINATED)
        add_pending_vm(harness, "booting", 1024)
        assert enact(Place("booting", "s2"), sim) is None
        add_pending_vm(harness, "admitting", 1024)
        listed = [(v.id, v.host, v.state) for v in sync_measurements(sim).vms]
        assert listed == [
            ("mover", "s1", VmState.MIGRATING),
            ("booting", "s2", VmState.BOOTING),
        ]


class TestRejectedState:
    def test_rejected_start_leaves_the_snapshot(self):
        # 2048 MiB never fits the 1024 MiB server
        template = trace_template([(100.0, 1.0)], vcpus=1, ram=2048.0)
        scenario = ExperimentScenario(
            events=[TimelineEvent("e1", AbsoluteTime(5.0), StartApplication("t", "doomed"))],
            templates={"t": template},
        )
        harness = make_harness(make_model(1, ram=1024.0), scenario=scenario)
        harness._schedule_initial_events()
        pump(harness, 10.0)
        assert harness.sim.vms["doomed"].state is VmState.REJECTED
        assert "doomed" not in {v.id for v in sync_measurements(harness.sim).vms}

    def test_infeasible_scale_out_is_rejected(self):
        tier = VmInstance(
            id="web", flavor=VmFlavor(1, 4096.0),
            workload=OpenRequestLoad(((0.0, 10.0),), 12.0), host="s1",
        )
        harness = make_harness(make_model(1, ram=4096.0, initial_vms=[tier]))
        outcome = enact(ScaleOut("web"), harness.sim)
        assert outcome == Rejected("no feasible server")
        instance = harness.sim.vms["web-i0001"]
        assert instance.state is VmState.REJECTED
        assert instance.end_kind == "rejected"
        assert harness.sim.apps["web"].instance_ids == ["web"]
        pump(harness, 100.0)
        snapshot = sync_measurements(harness.sim)
        assert [v.id for v in snapshot.vms] == ["web"]

    def test_scale_out_applies_the_place_rules(self):
        # the placement answers the server the tier already fills
        tier = VmInstance(
            id="web", flavor=VmFlavor(1, 4096.0),
            workload=OpenRequestLoad(((0.0, 10.0),), 12.0), host="s1",
        )
        harness = make_harness(make_model(2, ram=4096.0, initial_vms=[tier]))
        harness.sim.placement_fn = lambda snapshot, flavor: "s1"
        assert enact(ScaleOut("web"), harness.sim) == Rejected("no feasible server")
        assert harness.sim.vms["web-i0001"].state is VmState.REJECTED
        assert [vm.id for vm in harness.sim.servers["s1"].reserved] == ["web"]
        assert harness.sim.servers["s1"].free_ram == 0.0
        assert harness.sim.apps["web"].instance_ids == ["web"]


class TestEnact:
    def test_place_exact_fit(self):
        harness = make_harness(make_model(1, ram=4096.0))
        add_pending_vm(harness, "v1", 4096)
        outcome = enact(Place("v1", "s1"), harness.sim)
        assert outcome is None
        assert harness.sim.servers["s1"].free_ram == 0

    def test_place_insufficient_ram(self):
        harness = make_harness(make_model(1, ram=2048.0))
        add_pending_vm(harness, "v1", 4096)
        outcome = enact(Place("v1", "s1"), harness.sim)
        assert isinstance(outcome, Rejected)
        assert "RAM" in outcome.reason

    def test_place_on_off_server(self):
        model = DataCenterModel(
            (make_server("s1"),), {"pm": LINEAR_PM},
            initial_power_states={"s1": POWER_OFF},
        )
        harness = make_harness(model)
        add_pending_vm(harness, "v1", 1024)
        outcome = enact(Place("v1", "s1"), harness.sim)
        assert isinstance(outcome, Rejected)

    def test_power_off_non_empty(self):
        vm = running_vm("v1", 2048, "s1")
        harness = make_harness(make_model(1, initial_vms=[vm]))
        outcome = enact(PowerOff("s1"), harness.sim)
        assert outcome == Rejected("server not empty")

    def test_power_off_then_on(self):
        harness = make_harness(make_model(1))
        assert enact(PowerOff("s1"), harness.sim) is None
        pump(harness, 0.0)
        assert harness.sim.servers["s1"].power_state == POWER_OFF
        assert isinstance(enact(PowerOff("s1"), harness.sim), Rejected)
        assert enact(PowerOn("s1"), harness.sim) is None
        pump(harness, 0.0)
        assert harness.sim.servers["s1"].power_state == POWER_ON

    def test_migration_duration_and_dual_reservation(self):
        vm = running_vm("v1", 2048, "s1")
        harness = make_harness(make_model(2, initial_vms=[vm]))
        assert enact(Migrate("v1", "s1", "s2"), harness.sim) is None
        # Both hosts carry the reservation while the copy is in flight.
        assert harness.sim.servers["s1"].free_ram == 16384 - 2048
        assert harness.sim.servers["s2"].free_ram == 16384 - 2048
        pump(harness, 2.0)
        # cutover after 2048 MiB / 1024 MiB/s
        assert harness.sim.vms["v1"].hosts[-1] == (pytest.approx(2.0), "s2")
        assert harness.sim.vms["v1"].host == "s2"
        assert harness.sim.servers["s1"].free_ram == 16384
        assert harness.sim.servers["s2"].free_ram == 16384 - 2048

    def test_migrate_source_mismatch(self):
        vm = running_vm("v1", 2048, "s1")
        harness = make_harness(make_model(2, initial_vms=[vm]))
        assert isinstance(
            enact(Migrate("v1", "s2", "s1"), harness.sim), Rejected
        )

    def test_unknown_entities(self):
        harness = make_harness(make_model(1))
        assert isinstance(enact(Place("ghost", "s1"), harness.sim), Rejected)
        assert isinstance(enact(PowerOff("s9"), harness.sim), Rejected)


#: Not an adaptation action
UNSUPPORTED = object()


@pytest.mark.parametrize("action, reason", [
    (Place("booting", "s1"), "vm booting is booting, not pending"),
    (Place("pending", "s9"), "unknown server s9"),
    (Migrate("ghost", "s1", "s2"), "unknown vm ghost"),
    (Migrate("v1", "s1", "s9"), "unknown server s9"),
    (ScaleOut("nope"), "unknown application nope"),
    (ScaleIn("nope", "v1"), "unknown application nope"),
    (ScaleIn("web", "v1"), "v1 is not an instance of web"),
    (ScaleIn("web", "web"), "cannot remove the last instance"),
    (UNSUPPORTED, f"unsupported action {UNSUPPORTED!r}"),
], ids=["place-not-pending", "place-unknown-server", "migrate-unknown-vm",
        "migrate-unknown-server", "scale-out-unknown-app", "scale-in-unknown-app",
        "scale-in-not-instance", "scale-in-last-instance", "unsupported"])
def test_enact_refusal_is_returned_and_logged(action, reason):
    tier = VmInstance(
        id="web", flavor=VmFlavor(1, 1024.0),
        workload=OpenRequestLoad(((0.0, 10.0),), 12.0), host="s2",
    )
    harness = make_harness(make_model(2, initial_vms=[running_vm("v1", 2048, "s1"), tier]))
    add_pending_vm(harness, "pending", 1024)
    add_pending_vm(harness, "booting", 1024)
    assert enact(Place("booting", "s1"), harness.sim) is None
    assert enact(action, harness.sim) == Rejected(reason)
    assert harness.sim.action_log[-1].outcome == f"rejected: {reason}"


def test_enactment_safety_random_action_storm():
    """No randomly generated action sequence may corrupt capacity or links."""
    rng = random.Random(20)
    for trial in range(30):
        n_servers = rng.randint(1, 5)
        model = make_model(n_servers, ram=8192.0)
        harness = make_harness(model)
        created = 0
        now = 0.0
        for _ in range(40):
            roll = rng.random()
            server = f"s{rng.randint(1, n_servers)}"
            if roll < 0.4:
                vm_id = f"v{created}"
                created += 1
                add_pending_vm(harness, vm_id, rng.choice([1024, 4096, 8192]))
                enact(Place(vm_id, server), harness.sim)
            elif roll < 0.6 and created:
                vm_id = f"v{rng.randrange(created)}"
                target = f"s{rng.randint(1, n_servers)}"
                vm = harness.sim.vms[vm_id]
                enact(Migrate(vm_id, vm.host or "s1", target), harness.sim)
            elif roll < 0.8:
                enact(PowerOff(server), harness.sim)
            else:
                enact(PowerOn(server), harness.sim)
            now += rng.random() * 5
            pump(harness, now)
            for server_id, runtime in harness.sim.servers.items():
                assert runtime.free_ram >= 0, f"trial {trial}"
            for vm in harness.sim.vms.values():
                if vm.host is not None:
                    assert harness.sim.servers[vm.host].power_state == POWER_ON


class TestPowerTransitionLatency:
    def _harness(self):
        from dcsim.engine import SimConfig

        model = make_model(1, idle_off=5.0)
        return make_harness(
            model, config=SimConfig(end_time=1e9, power_transition_latency=50.0)
        )

    def test_draw_during_transitions_hand_computed(self):
        from dcsim.engine import integrate_energy

        harness = self._harness()
        pump(harness, 100.0)
        enact(PowerOff("s1"), harness.sim)
        pump(harness, 300.0)  # off takes effect at 150
        enact(PowerOn("s1"), harness.sim)
        pump(harness, 400.0)  # on takes effect at 350
        points = harness.sim.servers["s1"].power_points
        assert points == [(0.0, 80.0), (150.0, 5.0), (350.0, 80.0)]
        # 80 W for 150 s, 5 W for 200 s, 80 W for the last 50 s
        expected = (80.0 * 150 + 5.0 * 200 + 80.0 * 50) / 3600.0
        assert integrate_energy(points, 400.0) == pytest.approx(expected)

    def test_pending_off_server_not_placeable(self):
        harness = self._harness()
        enact(PowerOff("s1"), harness.sim)
        # transition runs until t=50; the server must already be unusable
        add_pending_vm(harness, "v1", 1024)
        outcome = enact(Place("v1", "s1"), harness.sim)
        assert isinstance(outcome, Rejected)
        snapshot = sync_measurements(harness.sim)
        assert servers(snapshot)["s1"].power_state == POWER_OFF

    def test_actions_rejected_mid_transition(self):
        harness = self._harness()
        enact(PowerOff("s1"), harness.sim)
        outcome = enact(PowerOn("s1"), harness.sim)
        assert outcome == Rejected("server s1 has a transition in progress")
        pump(harness, 50.0)
        assert harness.sim.servers["s1"].power_state == POWER_OFF
        assert enact(PowerOn("s1"), harness.sim) is None
