import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcsim.report as report_mod
from dcsim.algorithms import AlgorithmConfig
from dcsim.cli import main
from dcsim.engine import SimConfig, run
from dcsim.extraction import (
    SLOPE_LIMIT,
    FitResult,
    IngestError,
    MeasurementStore,
    NoBehaviorModel,
    UnderdeterminedError,
    clean_power_training_data,
    extract_blackbox_workload,
    extract_scenario,
    fit_power_model,
    ingest_measurements,
)
from dcsim.model import (
    POLYNOMIAL,
    POLYNOMIAL_PLUS_EXPONENTIAL,
    BlackBoxTrace,
    PowerModel,
    eval_power,
    host_capacity,
)
from dcsim.state import ActionEntry, LifecycleEntry, MetricSample
from tests.conftest import make_model, make_server
from tests.test_cli import _all_feature_inputs
from tests.test_engine import scenario_of_traces

METRIC_HEADER = "timestamp_s,entity_kind,entity_id,metric,value\n"
LIFECYCLE_HEADER = (
    "timestamp_s,vm_id,event,host_id,flavor_vcpus,flavor_ram_mib,initiator\n"
)


def lifecycle(time, vm, event, host="", vcpus=1, ram=1024.0, initiator="tenant"):
    return LifecycleEntry(time, vm, event, host or None, vcpus, ram, initiator)


def vm_sample(time, vm, value):
    return MetricSample(time, "vm", vm, "vm_cpu_utilization", value)


class TestIngest:
    def test_counts_rows(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text(
            METRIC_HEADER
            + "0,server,s1,cpu_utilization,0.5\n30,server,s1,power_w,105\n"
        )
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER)
        store = ingest_measurements(str(metrics), str(events))
        assert len(store.metrics) == 2
        assert store.lifecycle == []

    def test_started_before_submitted(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER)
        events = tmp_path / "e.csv"
        events.write_text(
            LIFECYCLE_HEADER
            + "10,vmX,started,s1,1,1024,tenant\n20,vmX,submitted,,1,1024,tenant\n"
        )
        with pytest.raises(IngestError, match="vmX"):
            ingest_measurements(str(metrics), str(events))

    def test_empty_files(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER)
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER)
        store = ingest_measurements(str(metrics), str(events))
        assert store.metrics == [] and store.lifecycle == []

    def test_malformed_row_reports_line(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER + "0,server,s1,cpu_utilization,not-a-number\n")
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER)
        with pytest.raises(IngestError, match="line 2"):
            ingest_measurements(str(metrics), str(events))

    def test_event_after_terminal(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER)
        events = tmp_path / "e.csv"
        events.write_text(
            LIFECYCLE_HEADER
            + "0,v,submitted,,1,1024,tenant\n"
            + "1,v,started,s1,1,1024,tenant\n"
            + "2,v,terminated,,1,1024,tenant\n"
            + "3,v,migrated,s2,1,1024,tenant\n"
        )
        with pytest.raises(IngestError, match="after terminal"):
            ingest_measurements(str(metrics), str(events))

    @pytest.mark.parametrize("rows, message", [
        ("0,v,submitted,,1,1024,tenant\n1,v,submitted,,1,1024,tenant\n",
         "vm v: duplicate submitted event"),
        ("0,v,submitted,,1,1024,tenant\n1,v,started,s1,1,1024,tenant\n"
         "2,v,started,s1,1,1024,tenant\n", "vm v: duplicate started event"),
        ("0,v,submitted,,1,1024,tenant\n1,v,migrated,s2,1,1024,tenant\n",
         "vm v: migrated before started"),
        ("0,v,completed,,1,1024,tenant\n", "vm v: completed before submitted"),
    ], ids=["duplicate-submitted", "duplicate-started", "migrated-before-started",
            "terminal-before-submitted"])
    def test_lifecycle_order_error_names_vm(self, tmp_path, rows, message):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER)
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER + rows)
        with pytest.raises(IngestError, match=message):
            ingest_measurements(str(metrics), str(events))

    def test_wrong_header(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text("time,kind,id,metric,value\n")
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER)
        with pytest.raises(IngestError, match="header"):
            ingest_measurements(str(metrics), str(events))

    @pytest.mark.parametrize("metric_row, lifecycle_row, where", [
        ("nan,server,s1,cpu_utilization,0.5\n", "", "m.csv line 2: timestamp_s"),
        ("0,server,s1,cpu_utilization,inf\n", "", "m.csv line 2: value"),
        ("", "-inf,v,submitted,,1,1024,tenant\n", "e.csv line 2: timestamp_s"),
        ("", "0,v,submitted,,1,nan,tenant\n", "e.csv line 2: flavor_ram_mib"),
    ], ids=["metric-time-nan", "metric-value-inf", "lifecycle-time-inf", "lifecycle-ram-nan"])
    def test_non_finite_value_names_file_and_line(
        self, tmp_path, metric_row, lifecycle_row, where
    ):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER + metric_row)
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER + lifecycle_row)
        with pytest.raises(IngestError, match=where):
            ingest_measurements(str(metrics), str(events))

    @pytest.mark.parametrize("metric_rows, lifecycle_rows, where", [
        ("0,vm,v1,vm_cpu_utilization\n", "", "m.csv line 2: expected 5 fields, got 4"),
        ("0,vm,v1,vm_cpu_utilization,0.5,EXTRA\n", "",
         "m.csv line 2: expected 5 fields, got 6"),
        ("", "0,v,submitted,,1,1024\n", "e.csv line 2: expected 7 fields, got 6"),
        ("", "0,v,submitted,,1,1024,tenant,EXTRA\n", "e.csv line 2: expected 7 fields, got 8"),
        ("0,vm,v1,vm_cpu_utilization,0.5\n\n\n0,vm,v1,vm_cpu_utilization,x\n", "",
         "m.csv line 5: could not convert"),
        ("", "0,v,submitted,,1,1024,tenant\n\n\n1,v,started,s1,one,1024,tenant\n",
         "e.csv line 5: invalid literal"),
        ("", "0,v,submitted,,-2,-1024,tenant\n", "e.csv line 2: flavor vcpus must be >= 1, "
         "got -2; flavor ram must be finite and > 0 MiB, got -1024.0$"),
        ("", "0,v,submitted,,1,0,tenant\n", "e.csv line 2: flavor ram must be finite and > 0"),
        ("", "0,v,born,,1,1024,tenant\n", "e.csv line 2: unknown lifecycle event 'born'"),
        ("", "0,v,submitted,,1,1024,robot\n", "e.csv line 2: unknown initiator 'robot'"),
    ], ids=["metric-short", "metric-long", "lifecycle-short", "lifecycle-long",
            "metric-after-blank-lines", "lifecycle-after-blank-lines",
            "lifecycle-negative-flavor", "lifecycle-zero-ram", "lifecycle-unknown-event",
            "lifecycle-unknown-initiator"])
    def test_bad_row_names_file_and_physical_line(
        self, tmp_path, metric_rows, lifecycle_rows, where
    ):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER + metric_rows)
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER + lifecycle_rows)
        with pytest.raises(IngestError, match=where):
            ingest_measurements(str(metrics), str(events))

    def test_empty_lines_are_skipped(self, tmp_path):
        metrics = tmp_path / "m.csv"
        metrics.write_text(METRIC_HEADER + "\n0,server,s1,power_w,105\n\n")
        events = tmp_path / "e.csv"
        events.write_text(LIFECYCLE_HEADER + "\n\n0,v,submitted,,1,1024,tenant\n")
        store = ingest_measurements(str(metrics), str(events))
        assert store.metrics == [MetricSample(0.0, "server", "s1", "power_w", 105.0)]
        assert store.lifecycle == [lifecycle(0.0, "v", "submitted")]


ONE_SERVER = {"s1": make_server("s1")}  # capacity 10
TWO_SPEED = {
    "s1": make_server("s1"),  # capacity 10
    "s2": make_server("s2", cores=8, core_speed=2.5),  # capacity 20
}


class TestBlackboxWorkload:
    def test_constant_utilization(self):
        store = MeasurementStore(
            metrics=[vm_sample(t, "v", 0.5) for t in (0.0, 30.0, 60.0, 90.0)],
            lifecycle=[
                lifecycle(0.0, "v", "submitted"),
                lifecycle(0.0, "v", "started", host="s1"),
                lifecycle(100.0, "v", "terminated"),
            ],
        )
        trace = extract_blackbox_workload(store, "v", 100.0, ONE_SERVER)
        assert trace == BlackBoxTrace(((100.0, 5.0),))

    def test_normalization_across_migration(self):
        # 0.5 of capacity 10, then 0.25 of capacity 20: same absolute demand.
        store = MeasurementStore(
            metrics=[vm_sample(0.0, "v", 0.5), vm_sample(30.0, "v", 0.25)],
            lifecycle=[
                lifecycle(0.0, "v", "submitted"),
                lifecycle(0.0, "v", "started", host="s1"),
                lifecycle(25.0, "v", "migrated", host="s2"),
                lifecycle(60.0, "v", "terminated"),
            ],
        )
        trace = extract_blackbox_workload(store, "v", 30.0, TWO_SPEED)
        assert trace == BlackBoxTrace(((30.0, 5.0), (30.0, 5.0)))

    def test_no_measurements(self):
        store = MeasurementStore(
            metrics=[],
            lifecycle=[
                lifecycle(0.0, "v", "submitted"),
                lifecycle(0.0, "v", "started", host="s1"),
            ],
        )
        with pytest.raises(NoBehaviorModel):
            extract_blackbox_workload(store, "v", 30.0, ONE_SERVER)

    def test_nan_resample_interval_refused(self):
        with pytest.raises(ValueError, match="resample_interval"):
            extract_blackbox_workload(MeasurementStore(), "v", math.nan, ONE_SERVER)

    def test_gaps_hold_previous_value(self):
        store = MeasurementStore(
            metrics=[vm_sample(0.0, "v", 0.4), vm_sample(90.0, "v", 0.2)],
            lifecycle=[
                lifecycle(0.0, "v", "submitted"),
                lifecycle(0.0, "v", "started", host="s1"),
                lifecycle(120.0, "v", "terminated"),
            ],
        )
        trace = extract_blackbox_workload(store, "v", 30.0, ONE_SERVER)
        assert trace == BlackBoxTrace(
            ((30.0, 4.0), (30.0, 4.0), (30.0, 4.0), (30.0, 2.0))
        )

    def test_trailing_segment_truncated(self):
        store = MeasurementStore(
            metrics=[vm_sample(0.0, "v", 0.5), vm_sample(30.0, "v", 0.5)],
            lifecycle=[
                lifecycle(0.0, "v", "submitted"),
                lifecycle(0.0, "v", "started", host="s1"),
                lifecycle(45.0, "v", "terminated"),
            ],
        )
        trace = extract_blackbox_workload(store, "v", 30.0, ONE_SERVER)
        assert trace == BlackBoxTrace(((30.0, 5.0), (15.0, 5.0)))


class TestExtractScenario:
    def _store(self, submit=10747.0, lifetime=1780.0, initiator="tenant"):
        return MeasurementStore(
            metrics=[
                vm_sample(submit + 30 * k, "instance-1e22", 0.3) for k in range(5)
            ],
            lifecycle=[
                lifecycle(submit, "instance-1e22", "submitted", initiator=initiator),
                lifecycle(submit, "instance-1e22", "started", host="s1",
                          initiator=initiator),
                lifecycle(submit + lifetime, "instance-1e22", "terminated",
                          initiator=initiator),
            ],
        )

    def test_window_shift_and_relative_stop(self):
        result = extract_scenario(
            self._store(), (9000.0, 14400.0), None, True, ONE_SERVER
        )
        scenario = result.scenario
        assert len(scenario.events) == 2
        start, stop = scenario.events
        assert start.trigger.time == pytest.approx(1747.0)
        assert stop.trigger.reference == start.id
        assert stop.trigger.offset == pytest.approx(1780.0)
        assert result.skipped == []

    def test_autoscaler_filtered(self):
        result = extract_scenario(
            self._store(initiator="autoscaler"), (9000.0, 14400.0), None, True,
            ONE_SERVER,
        )
        assert result.scenario.events == []

    def test_autoscaler_kept_when_not_excluded(self):
        result = extract_scenario(
            self._store(initiator="autoscaler"), (9000.0, 14400.0), None, False,
            ONE_SERVER,
        )
        assert len(result.scenario.events) == 2

    def test_server_filter(self):
        result = extract_scenario(
            self._store(), (9000.0, 14400.0), ["s9"], True, ONE_SERVER
        )
        assert result.scenario.events == []

    def test_unmeasured_vm_skipped_with_reason(self):
        store = self._store()
        store.lifecycle.extend(
            [
                lifecycle(10000.0, "ghost", "submitted"),
                lifecycle(10000.0, "ghost", "started", host="s1"),
            ]
        )
        store.lifecycle.sort(key=lambda e: e.time)
        result = extract_scenario(store, (9000.0, 14400.0), None, True, ONE_SERVER)
        assert [vm for vm, _ in result.skipped] == ["ghost"]
        assert len(result.scenario.events) == 2

    def test_bad_window(self):
        with pytest.raises(ValueError):
            extract_scenario(self._store(), (100.0, 100.0), None, True, ONE_SERVER)

    @pytest.mark.parametrize("window, interval", [((math.nan, 10.0), 30.0),
                                                  ((0.0, 10.0), math.nan)],
                             ids=["nan-window", "nan-interval"])
    def test_nan_window_or_interval_refused(self, window, interval):
        with pytest.raises(ValueError):
            extract_scenario(MeasurementStore(), window, None, True, ONE_SERVER,
                             resample_interval=interval)


class TestRoundTrip:
    def test_simulate_export_extract_matches(self):
        """Grid-aligned trace comes back with identical values."""
        model = make_model(1)
        segments = [(60.0, 3.0), (90.0, 6.0), (30.0, 1.5)]
        scenario = scenario_of_traces([segments])
        report = run(model, scenario, AlgorithmConfig(),
                     SimConfig(end_time=600.0, measurement_interval=30.0))
        store = MeasurementStore(metrics=report.metrics, lifecycle=report.lifecycle)
        trace = extract_blackbox_workload(store, "vm0", 30.0, model)
        assert trace.total_duration() == pytest.approx(180.0)
        # The t=0 sample misses the instant the VM starts (it is still
        # booting when the sampler fires), so the first interval holds 0.
        # Samples on a boundary instant see the new segment (segments are
        # left-closed), so [60, 90) reconstructs as 6.0.
        expected = [0.0, 3.0, 6.0, 6.0, 6.0, 1.5]
        assert [d for _, d in trace.segments] == pytest.approx(expected)
        for duration, _ in trace.segments:
            assert duration == pytest.approx(30.0)

    def test_replayed_trace_reproduces_utilization(self):
        """Extract from one run, replay on an identical host, compare series."""
        model = make_model(1)
        segments = [(60.0, 4.0), (60.0, 8.0)]
        first = run(model, scenario_of_traces([segments]), AlgorithmConfig(),
                    SimConfig(end_time=400.0))
        store = MeasurementStore(metrics=first.metrics, lifecycle=first.lifecycle)
        trace = extract_blackbox_workload(store, "vm0", 30.0, model)

        replay_scenario = scenario_of_traces([list(trace.segments)])
        second = run(model, replay_scenario, AlgorithmConfig(),
                     SimConfig(end_time=400.0))
        first_utils = dict(first.utilization["s1"])
        second_utils = dict(second.utilization["s1"])
        for t, u in first_utils.items():
            # within one resample interval of alignment, equal values
            aligned = [
                v for s, v in second_utils.items() if abs(s - t) <= 30.0
            ]
            assert any(abs(v - u) <= 1e-6 for v in aligned) or u == 0.0


class TestCleaning:
    def _store_with(self, pairs, server="s1"):
        metrics = []
        for t, (u, p) in enumerate(pairs):
            metrics.append(MetricSample(30.0 * t, "server", server,
                                        "cpu_utilization", u))
            metrics.append(MetricSample(30.0 * t, "server", server, "power_w", p))
        return MeasurementStore(metrics=metrics, lifecycle=[])

    def test_bins_aggregate(self):
        store = self._store_with([(0.101, 95.0), (0.099, 105.0)])
        cleaned = clean_power_training_data(store, "s1", 0.01)
        assert len(cleaned) == 1
        u, p = cleaned[0]
        assert u == pytest.approx(0.10)
        assert p == pytest.approx(100.0)

    def test_single_pair(self):
        store = self._store_with([(0.5, 120.0)])
        assert clean_power_training_data(store, "s1", 0.01) == [(0.5, 120.0)]

    def test_empty_store(self):
        assert clean_power_training_data(MeasurementStore(), "s1", 0.01) == []

    def test_sorted_output(self):
        store = self._store_with([(0.9, 140.0), (0.1, 90.0), (0.5, 110.0)])
        cleaned = clean_power_training_data(store, "s1", 0.01)
        assert [u for u, _ in cleaned] == sorted(u for u, _ in cleaned)

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            clean_power_training_data(MeasurementStore(), "s1", 0.0)

    def test_cleaning_reduces_weighted_residual(self):
        rng = random.Random(3)
        true = PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0))
        raw = []
        for _ in range(400):
            u = rng.random()
            raw.append((u, eval_power(true, u) + rng.uniform(-5.0, 5.0)))
        store = self._store_with(raw)
        cleaned = clean_power_training_data(store, "s1", 0.01)
        fit = fit_power_model(cleaned, POLYNOMIAL)
        bins: dict[float, list[float]] = {}
        for u, p in raw:
            bins.setdefault(round(u / 0.01) * 0.01, []).append(p)
        cleaned_resid = sum(
            (p - eval_power(fit.model, u)) ** 2 for u, p in cleaned
        )
        weighted_raw = sum(
            sum((p - eval_power(fit.model, u)) ** 2 for p in ps) / len(ps)
            for u, ps in bins.items()
        )
        assert cleaned_resid <= weighted_raw + 1e-9


UGRID = [i / 100 for i in range(101)]


class TestFitting:
    def test_noiseless_cubic_recovery(self):
        true = PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0))
        pairs = [(u, eval_power(true, u)) for u in UGRID]
        fit = fit_power_model(pairs, POLYNOMIAL)
        for got, want in zip(fit.model.coefficients, true.coefficients):
            assert abs(got - want) <= 1e-9

    def test_constant_data(self):
        pairs = [(u, 80.0) for u in UGRID]
        fit = fit_power_model(pairs, POLYNOMIAL)
        c0, c1, c2, c3 = fit.model.coefficients
        assert abs(c0) < 1e-9 and abs(c1) < 1e-9 and abs(c2) < 1e-9
        assert c3 == pytest.approx(80.0)

    def test_underdetermined(self):
        pairs = [(0.1, 90.0), (0.5, 100.0), (0.9, 130.0)]
        with pytest.raises(UnderdeterminedError):
            fit_power_model(pairs, POLYNOMIAL)

    def test_identical_utilizations_rejected(self):
        pairs = [(0.5, 100.0)] * 10
        with pytest.raises(UnderdeterminedError):
            fit_power_model(pairs, POLYNOMIAL)

    def test_noisy_recovery_within_one_watt(self):
        rng = random.Random(11)
        true = PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0))
        pairs = [(u, eval_power(true, u) + rng.uniform(-2.0, 2.0)) for u in UGRID]
        fit = fit_power_model(pairs, POLYNOMIAL)
        deviations = [eval_power(fit.model, u) - eval_power(true, u) for u in UGRID]
        rms = math.sqrt(sum(d * d for d in deviations) / len(deviations))
        assert rms <= 1.0

    def test_linear_family(self):
        true = PowerModel(POLYNOMIAL, (42.0, 75.0))
        pairs = [(u, eval_power(true, u)) for u in UGRID]
        fit = fit_power_model(pairs, POLYNOMIAL, degree=1)
        assert fit.model.coefficients == pytest.approx((42.0, 75.0), abs=1e-9)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (50.0, 10.0, 5.0, 80.0, 7.0, 2.0),
            (30.0, 0.0, 12.0, 60.0, -15.0, -3.0),
            (40.0, -10.0, 3.0, 70.0, 20.0, 0.7),
        ],
    )
    def test_noiseless_exponential_recovery(self, coeffs):
        true = PowerModel(POLYNOMIAL_PLUS_EXPONENTIAL, coeffs)
        pairs = [(u, eval_power(true, u)) for u in UGRID]
        fit = fit_power_model(pairs, POLYNOMIAL_PLUS_EXPONENTIAL)
        assert fit.converged
        for got, want in zip(fit.model.coefficients, coeffs):
            assert abs(got - want) <= 1e-6

    def test_exponential_needs_six_points(self):
        pairs = [(u, 100.0 + u) for u in (0.0, 0.2, 0.4, 0.6, 0.8)]
        with pytest.raises(UnderdeterminedError):
            fit_power_model(pairs, POLYNOMIAL_PLUS_EXPONENTIAL)

    @pytest.mark.parametrize("family,coeffs", [
        (POLYNOMIAL, (50.0, 10.0, 5.0, 80.0)),
        (POLYNOMIAL_PLUS_EXPONENTIAL, (30.0, 0.0, 12.0, 60.0, -15.0, -3.0)),
    ])
    def test_first_order_optimality(self, family, coeffs):
        """Finite-difference gradient of the RSS vanishes at the solution."""
        rng = random.Random(5)
        true = PowerModel(family, coeffs)
        pairs = [(u, eval_power(true, u) + rng.uniform(-1.0, 1.0)) for u in UGRID]
        fit = fit_power_model(pairs, family)

        def rss(c):
            model = PowerModel(family, tuple(c))
            return sum((eval_power(model, u) - p) ** 2 for u, p in pairs)

        base = list(fit.model.coefficients)
        scale = max(rss(base), 1.0)
        h = 1e-6
        for k in range(len(base)):
            bumped_up = list(base)
            bumped_down = list(base)
            bumped_up[k] += h
            bumped_down[k] -= h
            gradient = (rss(bumped_up) - rss(bumped_down)) / (2 * h)
            assert abs(gradient) / scale <= 1e-4

    def test_fit_result_diagnostics(self):
        true = PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0))
        pairs = [(u, eval_power(true, u)) for u in UGRID]
        fit = fit_power_model(pairs, POLYNOMIAL)
        assert isinstance(fit, FitResult)
        assert fit.samples == 101
        assert fit.rms <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spike_at", [0, -1], ids=["low-end", "high-end"])
    def test_steep_spike_is_not_converged_and_stays_finite(self, spike_at):
        """A line with +0.5 W on one end pair asks for an ever steeper
        exponential. On u = 0..0.1 the search stops at the slope limit, on
        u = 0.3..0.9 (no idle bin) where the cubic columns span the
        exponential; either way within 200 evaluations, not converged, and
        with a model that stays finite on [0, 1]."""
        us = [i / 200 for i in range(21)] if spike_at else [0.3 + i / 100 for i in range(61)]
        pairs = [(u, 80.0 + 50.0 * u) for u in us]
        pairs[spike_at] = (pairs[spike_at][0], pairs[spike_at][1] + 0.5)
        fit = fit_power_model(pairs, POLYNOMIAL_PLUS_EXPONENTIAL)
        assert fit.iterations <= 200
        assert abs(fit.model.coefficients[5]) <= SLOPE_LIMIT
        assert fit.converged is False
        assert fit.model.check() == []
        assert math.isfinite(eval_power(fit.model, 0.0))
        assert math.isfinite(eval_power(fit.model, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", [POLYNOMIAL, POLYNOMIAL_PLUS_EXPONENTIAL])
    def test_utilization_outside_unit_interval_refused(self, family):
        pairs = [(i / 10, 80.0 + 5.0 * i) for i in range(16)]
        pairs[-1] = (1.5, 155.5)
        with pytest.raises(ValueError, match=r"utilization must be in \[0, 1\], got 1.1"):
            fit_power_model(pairs, family)

    def test_no_worse_than_the_gauss_newton_polish(self):
        """On seeded noisy binned cubics, wherever the grid, golden-section
        and damped Gauss-Newton fit (kept below as the reference) converged
        with |b| <= SLOPE_LIMIT, the variable-projection fit reaches the same
        or a lower RSS and agrees on convergence. The one exception is a
        reference stop while b still climbed: the new fit then reaches the
        slope limit at a lower RSS and says it did not converge."""
        compared = 0
        for seed in range(12):
            pairs = _binned_noisy_cubic(seed)
            u = np.array([x for x, _ in pairs])
            p = np.array([y for _, y in pairs])
            with np.errstate(all="ignore"):
                theta, converged, _ = _reference_fit_exponential(u, p)
            if not converged or abs(theta[5]) > SLOPE_LIMIT:
                continue
            compared += 1
            reference = PowerModel(POLYNOMIAL_PLUS_EXPONENTIAL, tuple(theta.tolist()))
            reference_rss = sum((eval_power(reference, x) - y) ** 2 for x, y in pairs)
            fit = fit_power_model(pairs, POLYNOMIAL_PLUS_EXPONENTIAL)
            assert fit.rss <= reference_rss * (1 + 1e-9), seed
            if fit.converged is not converged:
                assert abs(fit.model.coefficients[5]) >= SLOPE_LIMIT * (1 - 1e-4), seed
                assert fit.rss < reference_rss, seed
        assert compared == 12


def _binned_noisy_cubic(seed: int) -> list[tuple[float, float]]:
    """Pairs as ``clean_power_training_data`` makes them: raw samples of a
    cubic plus Gaussian noise over part of [0, 1], averaged in 0.01 bins."""
    rng = random.Random(seed)
    lo, hi = rng.uniform(0.0, 0.3), rng.uniform(0.6, 1.0)
    bins: dict[int, list[float]] = {}
    for _ in range(rng.choice([200, 600, 2000])):
        u = rng.uniform(lo, hi)
        power = 80.0 + 50.0 * u + 10.0 * u**2 + 5.0 * u**3 + rng.gauss(0.0, 2.0)
        bins.setdefault(round(u / 0.01), []).append(power)
    return sorted((k * 0.01, sum(v) / len(v)) for k, v in bins.items())


def _reference_fit_exponential(u, p, max_iterations=10_000):
    """The earlier cubic-plus-exponential fit: a grid over b in [-24, 24],
    golden-section search on the unscaled projected residual, then a damped
    Gauss-Newton polish of all six coefficients until the relative RSS
    improvement falls below 1e-9 or the iteration cap."""
    cubic = np.column_stack([u, u**2, u**3, np.ones_like(u)])

    def linear_fit(b):
        design = np.column_stack([cubic, np.exp(np.clip(b * u, -700.0, 700.0)) - 1.0])
        coeffs = np.linalg.lstsq(design, p, rcond=None)[0]
        residual = design @ coeffs - p
        return coeffs, float(residual @ residual)

    def residual_jacobian(theta):
        c0, c1, c2, c3, a, b = theta.tolist()
        eb = np.exp(np.clip(b * u, -700.0, 700.0))
        jac = np.column_stack([cubic, eb - 1.0, a * u * eb])
        prediction = c0 * u + c1 * u**2 + c2 * u**3 + c3 + a * (eb - 1.0)
        return prediction - p, jac

    iterations = 0
    grid = [b for b in np.linspace(-24.0, 24.0, 97) if abs(b) > 1e-9]
    best_b, best_rss = grid[0], np.inf
    for b in grid:
        iterations += 1
        rss = linear_fit(b)[1]
        if rss < best_rss:
            best_rss, best_b = rss, b
    step = grid[1] - grid[0]
    lo, hi = best_b - step, best_b + step
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = linear_fit(x1)[1], linear_fit(x2)[1]
    while hi - lo > 1e-12 and iterations < max_iterations // 2:
        iterations += 1
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = linear_fit(x1)[1]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = linear_fit(x2)[1]
    b_star = (lo + hi) / 2.0
    linear, rss = linear_fit(b_star)
    theta = np.array([*linear, b_star])

    lam = 1e-6
    converged = False
    residual, jac = residual_jacobian(theta)
    while iterations < max_iterations:
        iterations += 1
        gradient = jac.T @ residual
        hessian = jac.T @ jac
        scale = np.maximum(hessian.diagonal(), 1e-12)
        improvement = 0.0
        stepped = False
        for _ in range(50):
            try:
                delta = np.linalg.solve(hessian + np.diag(lam * scale), -gradient)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = theta + delta
            cand_residual, cand_jac = residual_jacobian(candidate)
            cand_rss = float(cand_residual @ cand_residual)
            if math.isfinite(cand_rss) and cand_rss <= rss:
                improvement = rss - cand_rss
                theta, rss = candidate, cand_rss
                residual, jac = cand_residual, cand_jac
                lam = max(lam * 0.3, 1e-14)
                stepped = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not stepped or rss <= 1e-22 or improvement <= 1e-9 * max(rss, 1e-300):
            converged = True
            break
    return theta, converged, iterations


def test_extracted_scenario_structurally_matches_original():
    """Same start instants, flavors, and stop offsets as the source run."""
    from dcsim.scenario import AbsoluteTime, RelativeTo, StartApplication

    model = make_model(2)
    traces = [[(240.0, 2.0)], [(300.0, 1.5)], [(180.0, 3.0)]]
    scenario = scenario_of_traces(traces, start_times=[60.0, 120.0, 240.0],
                                  ram=2048.0)
    report = run(model, scenario, AlgorithmConfig(),
                 SimConfig(end_time=1200.0, measurement_interval=30.0))
    store = MeasurementStore(metrics=report.metrics, lifecycle=report.lifecycle)
    result = extract_scenario(store, (0.0, 1200.0), None, True, model)

    rebuilt = result.scenario
    starts = [ev for ev in rebuilt.events
              if isinstance(ev.request, StartApplication)]
    assert [ev.trigger for ev in starts] == [
        AbsoluteTime(60.0), AbsoluteTime(120.0), AbsoluteTime(240.0)
    ]
    assert [ev.request.vm_id for ev in starts] == ["vm0", "vm1", "vm2"]
    for ev in starts:
        template = rebuilt.templates[ev.request.template]
        assert template.flavor.ram == 2048.0
    stops = [ev for ev in rebuilt.events
             if not isinstance(ev.request, StartApplication)]
    # every VM completed inside the window, so each start has a stop whose
    # offset equals the VM's observed lifetime
    assert len(stops) == 3
    lifetimes = {f"vm{i}": traces[i][0][0] for i in range(3)}
    for stop in stops:
        assert isinstance(stop.trigger, RelativeTo)
        vm_id = stop.trigger.reference.removeprefix("start-")
        assert stop.trigger.offset == pytest.approx(lifetimes[vm_id])


def test_ingest_metrics_without_lifecycle(tmp_path):
    metrics = tmp_path / "m.csv"
    metrics.write_text(
        METRIC_HEADER + "0,server,s1,cpu_utilization,0.5\n"
    )
    store = ingest_measurements(str(metrics), None)
    assert len(store.metrics) == 1
    assert store.lifecycle == []


def test_exported_records_read_back_equal_to_the_run(tmp_path, monkeypatch):
    """On the all-feature run, the records ``write_report`` exports and
    ``ingest_measurements`` reads back equal the report's own, in order."""
    model, scenario = _all_feature_inputs(tmp_path)
    reports = []
    write_report = report_mod.write_report

    def keep(report, out_dir):
        reports.append(report)
        return write_report(report, out_dir)

    monkeypatch.setattr(report_mod, "write_report", keep)
    out = tmp_path / "out"
    assert main([
        "simulate", "--model", model, "--scenario", scenario, "--out", str(out),
        "--end", "3600", "--seed", "11", "--placement", "worst-fit-ram",
        "--optimizer", "consolidation", "--autoscaler", "react", "--power-manager",
        "--spare-servers", "1", "--optimizer-interval", "200", "--boot-latency", "5",
        "--placement-latency", "1", "--power-transition-latency", "40",
    ]) == 0
    (report,) = reports
    store = ingest_measurements(str(out / "metrics.csv"), str(out / "lifecycle.csv"))
    assert store.metrics == report.metrics
    assert store.lifecycle == report.lifecycle
    assert {e.host_id for e in report.lifecycle} >= {None, "s1"}
    assert {e.initiator for e in report.lifecycle} == {"tenant", "autoscaler"}


@pytest.mark.parametrize("record", [
    MetricSample(0.0, "vm", "v1", "vm_cpu_utilization", 0.5),
    LifecycleEntry(0.0, "v1", "started", "s1", 1, 1024.0, "tenant"),
    ActionEntry(0.0, "place", "v1->s1", "enacted"),
], ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


# --- the store's index against the linear scans it replaced ---------------------

IDS = ("v0", "v1", "v2")
KINDS = ("vm", "server")
METRICS = ("vm_cpu_utilization", "cpu_utilization", "power_w")
# Integers give ties; tenths and sevenths of 30 fall on or beside the float
# window edges of the 0.1 and 30/7 resampling intervals.
TIMES = st.one_of(
    st.integers(0, 40).map(float),
    st.integers(0, 400).map(lambda k: k / 10),
    st.integers(0, 10).map(lambda k: k * 30 / 7),
)


@st.composite
def time_ordered_stores(draw):
    """Stores whose lists are both stably sorted by time, the order the
    linear scans assume, with each VM's lifecycle in a valid order. VMs may never
    start, never end, or migrate several times (also to an unknown host).
    Most of a VM's utilization samples fall after it starts."""
    rows = draw(st.lists(st.tuples(
        TIMES, st.sampled_from(KINDS), st.sampled_from(IDS), st.sampled_from(METRICS),
        st.floats(-0.5, 1.5),
    ), max_size=30))
    entries = []
    for vm in draw(st.lists(st.sampled_from(IDS), unique=True, min_size=1)):
        events = ["submitted"]
        if draw(st.sampled_from((False, True, True))):
            events += ["started"] + ["migrated"] * draw(st.integers(0, 3))
        if draw(st.booleans()):
            events.append(draw(st.sampled_from(("terminated", "completed"))))
        times = sorted(draw(st.lists(TIMES, min_size=len(events), max_size=len(events))))
        for time, event in zip(times, events):
            host = draw(st.sampled_from(("s1", "s2", "s9"))) if event in (
                "started", "migrated") else ""
            entries.append(lifecycle(time, vm, event, host=host))
        anchor = times[1] if len(events) > 1 and events[1] == "started" else times[0]
        rows += [
            (anchor + offset, "vm", vm, "vm_cpu_utilization", value)
            for offset, value in draw(st.lists(st.tuples(TIMES, st.floats(-0.5, 1.5)),
                                               max_size=25))
        ]
    metrics = sorted((MetricSample(*row) for row in rows), key=lambda m: m.time)
    entries.sort(key=lambda e: e.time)
    return MeasurementStore(metrics=metrics, lifecycle=entries)


def scan_entity_samples(store, kind, entity_id, metric):
    return [
        (m.time, m.value)
        for m in store.metrics
        if m.entity_kind == kind and m.entity_id == entity_id and m.metric == metric
    ]


def scan_first(store, vm_id, events):
    for e in store.lifecycle:
        if e.vm_id == vm_id and e.event in events:
            return e
    return None


def scan_host_at(store, vm_id, t):
    host = None
    for e in store.lifecycle:
        if e.vm_id != vm_id or e.time > t:
            continue
        if e.event in ("started", "migrated"):
            host = e.host_id
    return host


def scan_extract(store, vm_id, resample_interval, servers):
    """``extract_blackbox_workload`` as it was before the index: linear scans
    and a filter over every demand for each window."""
    samples = scan_entity_samples(store, "vm", vm_id, "vm_cpu_utilization")
    if not samples:
        raise NoBehaviorModel(f"vm {vm_id}: no utilization measurements")
    started = scan_first(store, vm_id, ("started",))
    if started is None:
        raise NoBehaviorModel(f"vm {vm_id}: no started record to anchor the trace")
    start_time = started.time
    demands = []
    for t, u in samples:
        host = scan_host_at(store, vm_id, t)
        if host is None or host not in servers:
            raise NoBehaviorModel(f"vm {vm_id}: host unknown at t={t}")
        demands.append((t, max(0.0, u) * host_capacity(servers[host])))
    terminal = scan_first(store, vm_id, ("terminated", "completed"))
    end_time = terminal.time if terminal is not None else demands[-1][0] + resample_interval
    if end_time <= start_time:
        raise NoBehaviorModel(f"vm {vm_id}: empty observation window")
    segments = []
    last_demand = 0.0
    k = 0
    while True:
        lo = start_time + k * resample_interval
        if lo >= end_time:
            break
        hi = min(lo + resample_interval, end_time)
        in_window = [d for t, d in demands if lo <= t < hi]
        if in_window:
            last_demand = sum(in_window) / len(in_window)
        segments.append((hi - lo, last_demand))
        k += 1
    return BlackBoxTrace(tuple(segments))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoBehaviorModel as exc:
        return ("NoBehaviorModel", str(exc))


@settings(max_examples=200, deadline=None)
@given(time_ordered_stores())
def test_index_answers_like_the_linear_scans(store):
    for kind in KINDS:
        for entity_id in IDS:
            for metric in METRICS:
                assert store.entity_samples(kind, entity_id, metric) == scan_entity_samples(
                    store, kind, entity_id, metric)
    times = sorted({e.time for e in store.lifecycle})
    probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])]
    probes += [times[0] - 1.0, times[-1] + 1.0] if times else [0.0]
    for vm_id in IDS + ("absent",):
        assert store.started(vm_id) is scan_first(store, vm_id, ("started",))
        assert store.terminal(vm_id) is scan_first(store, vm_id, ("terminated", "completed"))
        for t in probes:
            assert store.host_at(vm_id, t) == scan_host_at(store, vm_id, t)
        for interval in (0.1, 30 / 7, 30.0):
            assert _outcome(extract_blackbox_workload, store, vm_id, interval, TWO_SPEED) == \
                _outcome(scan_extract, store, vm_id, interval, TWO_SPEED)
