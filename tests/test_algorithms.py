import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcsim.algorithms import (
    AlgorithmConfig,
    Migrate,
    PowerOff,
    PowerOn,
    ReactConfig,
    RegConfig,
    gen_seasonal_workload,
    manage_power,
    optimize_consolidation,
    optimize_load_balance,
    place_best_fit_ram,
    place_worst_fit_ram,
    react_decide,
    reg_decide,
)
from dcsim.correspondence import RuntimeModelSnapshot, ScaleIn, ScaleOut, ServerView, VmView
from dcsim.model import POWER_OFF, POWER_ON, VmFlavor, VmState


def snap(servers, vms=()):
    """servers: (id, free_ram[, power_state]); vms: (id, ram, host)."""
    server_views = []
    for entry in servers:
        server_id, free = entry[0], entry[1]
        power = entry[2] if len(entry) > 2 else POWER_ON
        server_views.append(
            ServerView(
                id=server_id, cores=4, core_speed=2.5, ram_capacity=16384.0,
                power_state=power, utilization=0.0, free_ram=float(free),
            )
        )
    vm_views = tuple(
        VmView(vm_id, VmFlavor(1, float(ram)), host, VmState.RUNNING, 0.0)
        for vm_id, ram, host in vms
    )
    return RuntimeModelSnapshot(servers=tuple(server_views), vms=vm_views)


FLAVOR_4G = VmFlavor(2, 4096.0)


class TestPlacement:
    def test_best_fit_picks_tightest(self):
        snapshot = snap([("A", 8192), ("B", 4096), ("C", 16384)])
        assert place_best_fit_ram(snapshot, FLAVOR_4G) == "B"

    def test_best_fit_infeasible(self):
        snapshot = snap([("A", 2048), ("B", 1024)])
        assert place_best_fit_ram(snapshot, FLAVOR_4G) is None

    def test_best_fit_tie_breaks_by_id(self):
        snapshot = snap([("B", 4096), ("A", 4096)])
        assert place_best_fit_ram(snapshot, FLAVOR_4G) == "A"

    def test_worst_fit_picks_emptiest(self):
        snapshot = snap([("A", 8192), ("B", 4096), ("C", 16384)])
        assert place_worst_fit_ram(snapshot, FLAVOR_4G) == "C"

    def test_worst_fit_single_candidate(self):
        snapshot = snap([("A", 2048), ("B", 8192)])
        assert place_worst_fit_ram(snapshot, FLAVOR_4G) == "B"

    def test_worst_fit_infeasible(self):
        snapshot = snap([("A", 100)])
        assert place_worst_fit_ram(snapshot, FLAVOR_4G) is None

    def test_off_servers_excluded(self):
        snapshot = snap([("A", 16384, POWER_OFF), ("B", 8192)])
        assert place_best_fit_ram(snapshot, FLAVOR_4G) == "B"
        assert place_worst_fit_ram(snapshot, FLAVOR_4G) == "B"


@st.composite
def random_snapshots(draw):
    n = draw(st.integers(1, 16))
    servers = []
    for i in range(n):
        free = draw(st.floats(0, 20000))
        power = draw(st.sampled_from([POWER_ON, POWER_ON, POWER_OFF]))
        servers.append((f"h{i:02d}", free, power))
    ram = draw(st.floats(1, 20000))
    return snap(servers), VmFlavor(1, ram)


@settings(max_examples=150, deadline=None)
@given(random_snapshots())
def test_placement_matches_exhaustive_scan(case):
    snapshot, flavor = case
    feasible = [
        s for s in snapshot.servers
        if s.power_state == POWER_ON and s.free_ram >= flavor.ram
    ]
    best = place_best_fit_ram(snapshot, flavor)
    worst = place_worst_fit_ram(snapshot, flavor)
    if not feasible:
        assert best is None and worst is None
        return
    min_free = min(s.free_ram for s in feasible)
    max_free = max(s.free_ram for s in feasible)
    assert best == min(s.id for s in feasible if s.free_ram == min_free)
    assert worst == min(s.id for s in feasible if s.free_ram == max_free)


class TestConsolidation:
    def test_single_vm_moves_to_occupied_server(self):
        snapshot = snap(
            [("A", 14336), ("B", 4096)],
            vms=[("vm", 2048, "A"), ("other", 12288, "B")],
        )
        assert optimize_consolidation(snapshot) == [Migrate("vm", "A", "B")]

    def test_nothing_fits(self):
        snapshot = snap(
            [("A", 8192), ("B", 4096)],
            vms=[("vm", 8192, "A"), ("other", 12288, "B")],
        )
        assert optimize_consolidation(snapshot) == []

    def test_all_empty(self):
        assert optimize_consolidation(snap([("A", 16384), ("B", 16384)])) == []

    def test_single_occupied_server_stays_put(self):
        snapshot = snap([("A", 12288), ("B", 16384)], vms=[("vm", 4096, "A")])
        assert optimize_consolidation(snapshot) == []

    def test_multi_vm_source_all_or_nothing(self):
        snapshot = snap(
            [("A", 8192), ("B", 6000), ("C", 3000)],
            vms=[("v1", 4096, "A"), ("v2", 4096, "A"),
                 ("w1", 10384, "B"), ("w2", 13384, "C")],
        )
        plan = optimize_consolidation(snapshot)
        # source is A? A has 2 VMs, B and C have 1 each -> fewest is B or C
        # tie on count; most free ram -> B. B's VM (10384) fits nowhere.
        assert plan == []

    def test_plan_respects_residual_capacity(self):
        # A has the fewest VMs; each target only has room for one of them.
        snapshot = snap(
            [("A", 8192), ("B", 5000), ("C", 5000)],
            vms=[("v1", 4096, "A"), ("v2", 4096, "A"),
                 ("w1", 4000, "B"), ("w2", 4000, "B"), ("w3", 3384, "B"),
                 ("x1", 4000, "C"), ("x2", 4000, "C"), ("x3", 3384, "C")],
        )
        plan = optimize_consolidation(snapshot)
        assert len(plan) == 2
        targets = {m.target for m in plan}
        assert targets == {"B", "C"}  # one 4096 VM each; neither fits both


class TestLoadBalance:
    def test_moves_across_gap(self):
        snapshot = snap(
            [("A", 0), ("B", 8192)],
            vms=[("vm", 2048, "A"), ("fill", 14336, "A")],
        )
        plan = optimize_load_balance(snapshot, imbalance_threshold=4096.0)
        assert plan == [Migrate("vm", "A", "B")]

    def test_balanced_no_move(self):
        snapshot = snap([("A", 4096), ("B", 4096)], vms=[("vm", 2048, "A")])
        assert optimize_load_balance(snapshot, 1024.0) == []

    def test_below_threshold_no_move(self):
        snapshot = snap([("A", 4096), ("B", 8192)], vms=[("vm", 2048, "A")])
        assert optimize_load_balance(snapshot, 8192.0) == []

    def test_never_inverts_imbalance(self):
        # Moving the 6000 MiB VM would invert; only the small one may move.
        snapshot = snap(
            [("A", 1000), ("B", 9000)],
            vms=[("big", 6000, "A"), ("small", 4000, "A")],
        )
        plan = optimize_load_balance(snapshot, 4096.0)
        assert plan == [Migrate("small", "A", "B")]


class TestManagePower:
    def test_powers_off_beyond_spares(self):
        snapshot = snap([("A", 16384), ("B", 16384), ("C", 16384)])
        actions = manage_power(snapshot, spare_servers=1)
        assert actions == [PowerOff("B"), PowerOff("C")]

    def test_no_empty_servers(self):
        snapshot = snap(
            [("A", 12288), ("B", 12288)],
            vms=[("v1", 4096, "A"), ("v2", 4096, "B")],
        )
        assert manage_power(snapshot, 1) == []

    def test_replenishes_spares(self):
        snapshot = snap([("A", 16384, POWER_OFF), ("B", 16384, POWER_OFF)])
        assert manage_power(snapshot, 1) == [PowerOn("A")]

    def test_idempotent_after_apply(self):
        snapshot = snap([("A", 16384), ("B", 16384), ("C", 16384)])
        actions = manage_power(snapshot, 1)
        powered_off = {a.server_id for a in actions}
        applied = snap(
            [(s.id, s.free_ram, POWER_OFF if s.id in powered_off else s.power_state)
             for s in snapshot.servers]
        )
        assert manage_power(applied, 1) == []

    def test_never_targets_occupied(self):
        snapshot = snap(
            [("A", 12288), ("B", 16384), ("C", 16384)],
            vms=[("v1", 4096, "A")],
        )
        actions = manage_power(snapshot, 0)
        assert {a.server_id for a in actions} == {"B", "C"}


INSTANCES_4 = ("app-i0001", "app-i0002", "app-i0003", "app-i0004")


class TestReact:
    def test_scale_out_on_overload(self):
        decision = react_decide("app", 50.0, INSTANCES_4, 12.0, ReactConfig())
        assert decision == [ScaleOut("app")]

    def test_scale_in_when_underutilized(self):
        decision = react_decide("app", 10.0, INSTANCES_4, 12.0, ReactConfig())
        assert decision == [ScaleIn("app", "app-i0004")]

    def test_dead_band(self):
        decision = react_decide("app", 40.0, INSTANCES_4, 12.0, ReactConfig())
        assert decision == []

    def test_never_empties_pool(self):
        decision = react_decide("app", 0.0, ("only",), 12.0, ReactConfig())
        assert decision == []

    @given(
        st.floats(0, 500),
        st.integers(1, 20),
        st.floats(1, 100),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, rate, n, capacity, factor):
        config = ReactConfig()
        # stay away from exact threshold boundaries, where floating-point
        # rounding of rate*factor legitimately flips the comparison
        assume(abs(rate - n * capacity * config.upper_utilization)
               > 1e-6 * max(rate, 1.0))
        assume(abs(rate / n / capacity - config.lower_utilization) > 1e-6)
        ids = tuple(f"i{k:03d}" for k in range(n))
        base = react_decide("app", rate, ids, capacity, config)
        scaled = react_decide("app", rate * factor, ids, capacity * factor, config)
        assert base == scaled

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ReactConfig(upper_utilization=1.5)
        with pytest.raises(ValueError):
            ReactConfig(lower_utilization=0.9, upper_utilization=0.5)


class TestReg:
    def test_flat_history_scales_in_to_requirement(self):
        ids = tuple(f"i{k:02d}" for k in range(10))
        history = [(float(t), 50.0) for t in range(10)]
        decision = reg_decide("app", 50.0, ids, 12.0, history, RegConfig(), horizon=1.0)
        # ceil(50 / 12) = 5 instances should remain
        assert decision == [ScaleIn("app", i) for i in ("i09", "i08", "i07", "i06", "i05")]

    def test_rising_history_scales_out_with_prediction(self):
        history = [(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (3.0, 40.0), (4.0, 50.0)]
        decision = reg_decide("app", 50.0, INSTANCES_4, 12.0, history, RegConfig(), horizon=1.0)
        # current 50 > 4 * 12 * 0.9 = 43.2; OLS predicts 60 -> ceil(60/12) = 5
        assert decision == [ScaleOut("app")]

    def test_dead_band(self):
        history = [(0.0, 30.0), (1.0, 30.0)]
        decision = reg_decide("app", 30.0, INSTANCES_4, 12.0, history, RegConfig(), horizon=1.0)
        assert decision == []

    def test_short_history_padded(self):
        decision = reg_decide("app", 100.0, INSTANCES_4, 12.0, [], RegConfig(), horizon=1.0)
        # padded flat at 100: predicted 100 -> required 9 -> out by 5
        assert decision == [ScaleOut("app")] * 5

    def test_never_empties_pool(self):
        history = [(float(t), 0.0) for t in range(10)]
        decision = reg_decide("app", 0.0, ("a", "b"), 12.0, history, RegConfig(), horizon=1.0)
        assert decision == [ScaleIn("app", "b")]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            RegConfig(window=1)


@settings(max_examples=100, deadline=None)
@given(random_snapshots())
def test_optimizer_plans_replay_capacity_safe(case):
    snapshot, _ = case
    # seed a few VMs deterministically derived from free ram values
    vms = []
    for i, server in enumerate(snapshot.servers):
        if server.power_state == POWER_ON and i % 2 == 0:
            ram = min(2048.0, server.free_ram)
            if ram > 0:
                vms.append((f"vm{i}", 16384.0 - server.free_ram + ram, server.id))
    populated = snap(
        [(s.id, s.free_ram, s.power_state) for s in snapshot.servers],
        vms=[(v, min(r, 16384.0), h) for v, r, h in vms],
    )
    for plan in (
        optimize_consolidation(populated),
        optimize_load_balance(populated, 1024.0),
    ):
        free = {s.id: s.free_ram for s in populated.servers}
        rams = {v.id: v.flavor.ram for v in populated.vms}
        for action in plan:
            assert isinstance(action, Migrate)
            free[action.source] += rams[action.vm_id]
            free[action.target] -= rams[action.vm_id]
            assert free[action.target] >= 0


class TestSeasonalWorkload:
    def test_full_experiment_scale_series(self):
        series = gen_seasonal_workload(100.0, 16, 41400.0, -3.0, 2.0, seed=42)
        rates = [r for _, r in series]
        assert max(rates) == pytest.approx(100.0, abs=3.0)
        assert min(rates) == 0.0  # clamped near the troughs

    def test_noiseless_peak_at_half_period(self):
        series = gen_seasonal_workload(100.0, 1, 1000.0, 0.0, 0.0, seed=0, step=5.0)
        lookup = dict(series)
        assert lookup[500.0] == pytest.approx(100.0)

    def test_noiseless_zero_at_origin(self):
        series = gen_seasonal_workload(100.0, 1, 1000.0, 0.0, 0.0, seed=0, step=5.0)
        assert series[0] == (0.0, 0.0)

    def test_seed_determinism(self):
        a = gen_seasonal_workload(100.0, 16, 41400.0, -3.0, 2.0, seed=42)
        b = gen_seasonal_workload(100.0, 16, 41400.0, -3.0, 2.0, seed=42)
        c = gen_seasonal_workload(100.0, 16, 41400.0, -3.0, 2.0, seed=43)
        assert a == b
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_seasonal_workload(0.0, 1, 100.0, 0.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_seasonal_workload(1.0, 1, 100.0, 2.0, -2.0, seed=0)

    @pytest.mark.parametrize(
        "name", ["peak", "periods", "duration", "step", "noise_low", "noise_high"]
    )
    def test_nan_refused(self, name):
        args = dict(peak=100.0, periods=1, duration=1000.0, noise_low=0.0,
                    noise_high=0.0, seed=0, step=5.0)
        args[name] = math.nan
        with pytest.raises(ValueError, match="finite"):
            gen_seasonal_workload(**args)


def test_algorithm_config_from_dict():
    config = AlgorithmConfig.from_dict(
        {
            "placement": "worst-fit-ram",
            "optimizer": "load-balance",
            "autoscaler": "reg",
            "react": {"lower_utilization": 0.2},
            "reg": {"window": 5},
            "imbalance_threshold": 2048.0,
        }
    )
    assert config.placement == "worst-fit-ram"
    assert config.react.lower_utilization == 0.2
    assert config.reg.window == 5
    with pytest.raises(ValueError):
        AlgorithmConfig.from_dict({"placement": "first-fit"})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_algorithm_config_rejects_non_finite_threshold(value):
    with pytest.raises(ValueError, match="imbalance_threshold"):
        AlgorithmConfig(imbalance_threshold=value)
