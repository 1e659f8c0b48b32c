import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcsim.model import (
    POLYNOMIAL,
    POLYNOMIAL_PLUS_EXPONENTIAL,
    BlackBoxTrace,
    DataCenterModel,
    Initiator,
    ModelFormatError,
    OpenRequestLoad,
    PowerModel,
    VmFlavor,
    VmInstance,
    VmState,
    dump_model,
    eval_power,
    free_ram,
    host_capacity,
    parse_model,
    validate,
)
from tests.conftest import LINEAR_PM, make_model, make_server


class TestHostCapacity:
    def test_four_cores(self):
        assert host_capacity(make_server("a", cores=4, core_speed=2.5)) == 10.0

    def test_single_core(self):
        assert host_capacity(make_server("a", cores=1, core_speed=1.0)) == 1.0

    def test_sixteen_cores(self):
        assert host_capacity(make_server("a", cores=16, core_speed=2.0)) == 32.0


def _vm(vm_id, ram, host=None, state=VmState.PENDING):
    return VmInstance(
        id=vm_id,
        flavor=VmFlavor(2, ram),
        workload=BlackBoxTrace(((100.0, 1.0),)),
        host=host,
        state=state,
    )


class TestFreeRam:
    def test_two_placed(self):
        server = make_server("a", ram=16384)
        placed = [_vm("v1", 4096), _vm("v2", 2048)]
        assert free_ram(server, placed) == 10240

    def test_empty(self):
        assert free_ram(make_server("a", ram=8192), []) == 8192

    def test_exact_fit(self):
        server = make_server("a", ram=8192)
        assert free_ram(server, [_vm("v1", 4096), _vm("v2", 4096)]) == 0


class TestValidate:
    def test_vacuously_valid(self):
        assert validate(make_model(2)) == []

    def test_capacity_breach_names_server(self):
        vm = _vm("big", 8192, host="s1", state=VmState.RUNNING)
        model = make_model(1, ram=4096, initial_vms=[vm])
        problems = validate(model)
        assert len(problems) == 1
        assert "s1" in problems[0]

    def test_dangling_power_model(self):
        server = make_server("s1", pm_id="pm-x")
        model = DataCenterModel((server,), {"pm": LINEAR_PM})
        problems = validate(model)
        assert len(problems) == 1
        assert "pm-x" in problems[0]

    def test_idempotent_and_pure(self):
        model = make_model(2)
        first = validate(model)
        second = validate(model)
        assert first == second == []

    def test_initial_vm_on_off_server(self):
        vm = _vm("v1", 1024, host="s1", state=VmState.RUNNING)
        model = DataCenterModel(
            (make_server("s1"),), {"pm": LINEAR_PM},
            initial_vms=(vm,), initial_power_states={"s1": "off"},
        )
        assert any("powered-off" in p for p in validate(model))

    def test_initial_vm_must_be_running(self):
        vms = [
            _vm("up", 1024, host="s1", state=VmState.RUNNING),
            _vm("boot", 1024, host="s1", state=VmState.BOOTING),
            _vm("move", 1024, host="s1", state=VmState.MIGRATING),
        ]
        problems = validate(make_model(1, initial_vms=vms))
        assert problems == [
            "initial vm boot must be running, got state booting",
            "initial vm move must be running, got state migrating",
        ]

    def test_host_state_consistency(self):
        vm = _vm("v", 1024, state=VmState.RUNNING)
        assert validate(make_model(1, initial_vms=[vm])) == [
            "initial vm v has no host assignment"
        ]


class TestPowerModel:
    def test_eval_at_zero_is_constant(self):
        assert eval_power(PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0)), 0.0) == 80.0

    def test_eval_at_one(self):
        assert eval_power(PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0)), 1.0) == 145.0

    def test_eval_midpoint(self):
        value = eval_power(PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0)), 0.5)
        assert value == pytest.approx(108.125)

    def test_linear_family(self):
        assert eval_power(PowerModel(POLYNOMIAL, (50.0, 80.0)), 0.5) == 105.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            eval_power(LINEAR_PM, 1.5)
        with pytest.raises(ValueError):
            eval_power(LINEAR_PM, -0.1)

    def test_exponential_at_zero_is_constant(self):
        pm = PowerModel(POLYNOMIAL_PLUS_EXPONENTIAL, (50.0, 10.0, 5.0, 80.0, 7.0, 2.0))
        assert eval_power(pm, 0.0) == 80.0

    @pytest.mark.parametrize("family, coefficients", [
        (POLYNOMIAL_PLUS_EXPONENTIAL, (50.0, 10.0, 5.0, 80.0, 1e-300, 1269.0)),  # exp overflows
        (POLYNOMIAL_PLUS_EXPONENTIAL, (50.0, 10.0, 5.0, 80.0, 1e300, 700.0)),  # product overflows
        (POLYNOMIAL, (1e308, 1e308, 80.0)),  # sum overflows
    ])
    def test_power_not_finite_at_full_utilization_refused(self, family, coefficients):
        problems = PowerModel(family, coefficients).check()
        assert problems == ["power at utilization 1 must be finite, got inf"]

    @pytest.mark.parametrize("coefficients", [
        (50.0, 10.0, 5.0, 80.0, 1e-300, 700.0),
        (50.0, 10.0, 5.0, 80.0, 1e300, -1e300),
    ])
    def test_steep_but_finite_exponential_accepted(self, coefficients):
        assert PowerModel(POLYNOMIAL_PLUS_EXPONENTIAL, coefficients).check() == []

    @given(st.lists(st.floats(-200, 200), min_size=1, max_size=6))
    def test_constant_term_property(self, coefficients):
        pm = PowerModel(POLYNOMIAL, tuple(coefficients))
        assert eval_power(pm, 0.0) == coefficients[-1]


class TestWorkloadModels:
    def test_trace_totals(self):
        trace = BlackBoxTrace(((100.0, 4.0), (50.0, 0.0)))
        assert trace.total_duration() == 150.0
        assert trace.total_work() == 400.0

    def test_trace_invariants(self):
        assert BlackBoxTrace(((0.0, 1.0),)).check()
        assert BlackBoxTrace(((10.0, -1.0),)).check()

    def test_open_load_rate_lookup(self):
        load = OpenRequestLoad(((0.0, 10.0), (60.0, 20.0)), per_instance_capacity=12.0)
        assert load.rate_at(-5.0) == 0.0
        assert load.rate_at(0.0) == 10.0
        assert load.rate_at(59.9) == 10.0
        assert load.rate_at(60.0) == 20.0
        assert load.rate_at(1e9) == 20.0

    def test_open_load_invariants(self):
        assert OpenRequestLoad(((0.0, 1.0), (0.0, 2.0)), 10.0).check()
        assert OpenRequestLoad(((0.0, -1.0),), 10.0).check()
        assert OpenRequestLoad((), 0.0).check()


class TestModelJson:
    def test_round_trip(self):
        vm = VmInstance(
            id="v1",
            flavor=VmFlavor(2, 4096),
            workload=OpenRequestLoad(((0.0, 5.0),), 12.0),
            host="s1",
            state=VmState.RUNNING,
            initiator=Initiator.TENANT,
        )
        model = make_model(2, initial_vms=[vm])
        assert parse_model(dump_model(model)) == model

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ModelFormatError, match="unknown keys"):
            parse_model('{"servers": [], "power_models": {}, "extra": 1}')

    def test_unknown_server_key_rejected(self):
        doc = (
            '{"servers": [{"id": "a", "cores": 1, "core_speed": 1, '
            '"ram_capacity": 1, "power_model_id": "pm", "color": "red"}], '
            '"power_models": {}}'
        )
        with pytest.raises(ModelFormatError, match="unknown keys"):
            parse_model(doc)

    def test_malformed_json(self):
        with pytest.raises(ModelFormatError, match="malformed"):
            parse_model("{nope")
