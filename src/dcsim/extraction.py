"""Reconstruction of simulation inputs from monitoring traces.

Ingests metric and VM-lifecycle CSVs, rebuilds timeline scenarios (with
optional filtering of autoscaler-initiated VMs), derives black-box VM
workloads normalized by the processing speed of their original host, and
trains server power models on bin-aggregated utilization/power pairs.
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    POLYNOMIAL,
    POLYNOMIAL_PLUS_EXPONENTIAL,
    BlackBoxTrace,
    DataCenterModel,
    Initiator,
    PowerModel,
    ServerSpec,
    VmFlavor,
    eval_power,
    host_capacity,
)
from .scenario import (
    AbsoluteTime,
    ApplicationTemplate,
    ExperimentScenario,
    RelativeTo,
    StartApplication,
    StopApplication,
    TimelineEvent,
)
from .state import LIFECYCLE_COLUMNS, METRIC_COLUMNS, LifecycleEntry, MetricSample

log = logging.getLogger("dcsim.extraction")

LIFECYCLE_EVENTS = ("submitted", "started", "migrated", "terminated", "completed")
TERMINAL_EVENTS = ("terminated", "completed")

_by_time = attrgetter("time")


class IngestError(ValueError):
    """Malformed or ill-ordered monitoring data; message carries location."""


class NoBehaviorModel(Exception):
    """The VM left no usable measurements to reconstruct a workload from."""


@dataclass
class MeasurementStore:
    """Historical monitoring data: metric samples plus VM lifecycle records,
    held in the order they were given.

    The queries answer from an index that the first query builds: the
    samples of each ``(entity kind, entity id, metric)`` series and the
    lifecycle entries of each VM, each list stably sorted by time, plus the
    times and hosts of each VM's placements. The index refers to the stored
    records and copies none. A store is read-only once it has been queried:
    records added or changed after that are not seen by the queries.
    """

    metrics: list[MetricSample] = field(default_factory=list)
    lifecycle: list[LifecycleEntry] = field(default_factory=list)

    @cached_property
    def _series(self) -> dict[tuple[str, str, str], list[MetricSample]]:
        series: dict[tuple[str, str, str], list[MetricSample]] = {}
        for m in self.metrics:
            series.setdefault((m.entity_kind, m.entity_id, m.metric), []).append(m)
        for samples in series.values():
            samples.sort(key=_by_time)
        return series

    @cached_property
    def _vm_entries(self) -> dict[str, list[LifecycleEntry]]:
        by_vm: dict[str, list[LifecycleEntry]] = {}
        for entry in self.lifecycle:
            by_vm.setdefault(entry.vm_id, []).append(entry)
        for entries in by_vm.values():
            entries.sort(key=_by_time)
        return by_vm

    @cached_property
    def _placements(self) -> dict[str, tuple[list[float], list[str | None]]]:
        """Per VM, the times and hosts of its started and migrated entries."""
        placements = {}
        for vm_id, entries in self._vm_entries.items():
            moves = [e for e in entries if e.event in ("started", "migrated")]
            placements[vm_id] = ([e.time for e in moves], [e.host_id for e in moves])
        return placements

    def entity_samples(self, kind: str, entity_id: str, metric: str) -> list[tuple[float, float]]:
        return [(m.time, m.value) for m in self._series.get((kind, entity_id, metric), ())]

    def started(self, vm_id: str) -> LifecycleEntry | None:
        for e in self._vm_entries.get(vm_id, ()):
            if e.event == "started":
                return e
        return None

    def terminal(self, vm_id: str) -> LifecycleEntry | None:
        for e in self._vm_entries.get(vm_id, ()):
            if e.event in TERMINAL_EVENTS:
                return e
        return None

    def host_at(self, vm_id: str, t: float) -> str | None:
        """Host of a VM at time t, following migrations."""
        times, hosts = self._placements.get(vm_id, ((), ()))
        index = bisect.bisect_right(times, t)
        return hosts[index - 1] if index else None


def _check_lifecycle_order(store: MeasurementStore) -> None:
    for vm_id, entries in store._vm_entries.items():
        submitted = started = ended = False
        for entry in entries:
            if ended:
                raise IngestError(f"vm {vm_id}: event {entry.event!r} after terminal event")
            if entry.event == "submitted":
                if submitted:
                    raise IngestError(f"vm {vm_id}: duplicate submitted event")
                submitted = True
            elif entry.event == "started":
                if not submitted:
                    raise IngestError(f"vm {vm_id}: started before submitted")
                if started:
                    raise IngestError(f"vm {vm_id}: duplicate started event")
                started = True
            elif entry.event == "migrated":
                if not started:
                    raise IngestError(f"vm {vm_id}: migrated before started")
            elif entry.event in TERMINAL_EVENTS:
                if not submitted:
                    raise IngestError(f"vm {vm_id}: {entry.event} before submitted")
                ended = True


INITIATORS = tuple(initiator.value for initiator in Initiator)


def _csv_rows(fh, path: str, columns: list[str]):
    """A ``csv.reader`` over ``fh`` positioned past its header row, which
    must be exactly ``columns``."""
    reader = csv.reader(fh)
    if next(reader, None) != columns:
        raise IngestError(f"{path}: header must be {','.join(columns)}")
    return reader


def _finite(column: str, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{column} must be finite, got {text!r}")
    return value


def _row_error(path: str, reader, row: list[str], width: int, exc: ValueError) -> IngestError:
    """The error for a bad row, at the physical line the reader reached."""
    why = exc if len(row) == width else f"expected {width} fields, got {len(row)}"
    return IngestError(f"{path} line {reader.line_num}: {why}")


def ingest_measurements(
    metric_file: str, lifecycle_file: str | None
) -> MeasurementStore:
    """Read monitoring CSVs into a store, validating row syntax and per-VM
    lifecycle ordering; errors carry the offending file line or VM. Power
    model training needs no lifecycle, so that file may be omitted. Every
    row must have exactly the header's fields; empty lines are skipped. The
    store keeps the rows in file order, and its index orders them by time."""
    metrics = []
    append = metrics.append
    with open(metric_file, "r", newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, metric_file, METRIC_COLUMNS)
        for row in reader:
            try:
                t, kind, entity_id, metric, v = row
                time, value = float(t), float(v)
                if not (math.isfinite(time) and math.isfinite(value)):
                    _finite("timestamp_s", t)  # raises, naming the column
                    _finite("value", v)
            except ValueError as exc:
                if not row:
                    continue
                raise _row_error(metric_file, reader, row, len(METRIC_COLUMNS), exc) from exc
            append(MetricSample(time, kind, entity_id, metric, value))

    lifecycle = []
    if lifecycle_file is not None:
        append = lifecycle.append
        with open(lifecycle_file, "r", newline="", encoding="utf-8") as fh:
            reader = _csv_rows(fh, lifecycle_file, LIFECYCLE_COLUMNS)
            for row in reader:
                try:
                    t, vm_id, event, host_id, vcpus, ram, initiator = row
                    if event not in LIFECYCLE_EVENTS:
                        raise ValueError(f"unknown lifecycle event {event!r}")
                    if initiator not in INITIATORS:
                        raise ValueError(f"unknown initiator {initiator!r}")
                    time = _finite("timestamp_s", t)
                    flavor = VmFlavor(int(vcpus), _finite("flavor_ram_mib", ram))
                    if problems := flavor.check():
                        raise ValueError("; ".join(problems))
                    append(LifecycleEntry(
                        time, vm_id, event, host_id or None, flavor.vcpus, flavor.ram, initiator,
                    ))
                except ValueError as exc:
                    if not row:
                        continue
                    width = len(LIFECYCLE_COLUMNS)
                    raise _row_error(lifecycle_file, reader, row, width, exc) from exc

    store = MeasurementStore(metrics=metrics, lifecycle=lifecycle)
    _check_lifecycle_order(store)
    return store


# --- black-box workload reconstruction ----------------------------------------


def _server_catalog(infrastructure) -> Mapping[str, ServerSpec]:
    if isinstance(infrastructure, DataCenterModel):
        return {s.id: s for s in infrastructure.servers}
    return infrastructure


def extract_blackbox_workload(
    store: MeasurementStore,
    vm_id: str,
    resample_interval: float,
    infrastructure,
) -> BlackBoxTrace:
    """Rebuild a VM's CPU demand trace from its utilization measurements.

    Each measured utilization fraction is converted to normalized demand
    using the processing speed of the host the VM occupied at that instant,
    so traces survive migrations between heterogeneous servers. Demands are
    then resampled to piecewise-constant segments of ``resample_interval``
    (mean per interval, previous value held over gaps) and the trailing
    segment is truncated at the VM's terminal event.
    """
    if not 0 < resample_interval < math.inf:
        raise ValueError("resample_interval must be finite and > 0")
    servers = _server_catalog(infrastructure)
    samples = store.entity_samples("vm", vm_id, "vm_cpu_utilization")
    if not samples:
        raise NoBehaviorModel(f"vm {vm_id}: no utilization measurements")
    started = store.started(vm_id)
    if started is None:
        raise NoBehaviorModel(f"vm {vm_id}: no started record to anchor the trace")
    start_time = started.time

    # The samples are in time order, so each window's demands are one slice.
    times: list[float] = []
    demands: list[float] = []
    for t, u in samples:
        host = store.host_at(vm_id, t)
        if host is None or host not in servers:
            raise NoBehaviorModel(f"vm {vm_id}: host unknown at t={t}")
        times.append(t)
        demands.append(max(0.0, u) * host_capacity(servers[host]))

    terminal = store.terminal(vm_id)
    end_time = terminal.time if terminal is not None else times[-1] + resample_interval
    if end_time <= start_time:
        raise NoBehaviorModel(f"vm {vm_id}: empty observation window")

    segments: list[tuple[float, float]] = []
    last_demand = 0.0
    k = 0
    while True:
        lo = start_time + k * resample_interval
        if lo >= end_time:
            break
        hi = min(lo + resample_interval, end_time)
        in_window = demands[bisect.bisect_left(times, lo):bisect.bisect_left(times, hi)]
        if in_window:
            last_demand = sum(in_window) / len(in_window)
        segments.append((hi - lo, last_demand))
        k += 1
    return BlackBoxTrace(tuple(segments))


# --- scenario reconstruction ----------------------------------------------------


@dataclass
class ExtractionResult:
    scenario: ExperimentScenario
    extracted_vm_ids: list[str]
    skipped: list[tuple[str, str]]  # (vm id, reason)


def extract_scenario(
    store: MeasurementStore,
    window: tuple[float, float],
    servers: Iterable[str] | None,
    exclude_autoscaler: bool,
    infrastructure,
    resample_interval: float = 30.0,
) -> ExtractionResult:
    """Rebuild a timeline scenario from the store.

    Emits, for every qualifying VM submitted inside the window, an absolute
    start event at ``submit - window start`` whose template carries the
    extracted flavor and black-box workload, plus a relative stop event at
    the observed lifetime when the VM ended inside the window. VMs without
    a reconstructable behavior model are skipped with a warning, mirroring
    how gaps in monitoring surface in practice.
    """
    t0, t1 = window
    if not t0 < t1:
        raise ValueError("window start must precede window end")
    if not 0 < resample_interval < math.inf:
        raise ValueError("resample_interval must be finite and > 0")
    server_filter = set(servers) if servers is not None else None

    submissions = [
        e for e in store.lifecycle
        if e.event == "submitted" and t0 <= e.time <= t1
    ]
    submissions.sort(key=lambda e: (e.time, e.vm_id))

    events: list[TimelineEvent] = []
    templates: dict[str, ApplicationTemplate] = {}
    extracted: list[str] = []
    skipped: list[tuple[str, str]] = []

    for sub in submissions:
        vm_id = sub.vm_id
        if exclude_autoscaler and sub.initiator == "autoscaler":
            continue
        started = store.started(vm_id)
        if started is None:
            skipped.append((vm_id, "never started"))
            log.warning("skipping vm %s: never started", vm_id)
            continue
        if server_filter is not None and started.host_id not in server_filter:
            continue
        try:
            workload = extract_blackbox_workload(
                store, vm_id, resample_interval, infrastructure
            )
        except NoBehaviorModel as exc:
            skipped.append((vm_id, str(exc)))
            log.warning("unable to reconstruct a behavior model: %s", exc)
            continue

        template_id = f"tpl-{vm_id}"
        templates[template_id] = ApplicationTemplate(
            flavor=VmFlavor(sub.vcpus, sub.ram), workload=workload
        )
        start_id = f"start-{vm_id}"
        events.append(
            TimelineEvent(
                id=start_id,
                trigger=AbsoluteTime(sub.time - t0),
                request=StartApplication(template=template_id, vm_id=vm_id),
            )
        )
        terminal = store.terminal(vm_id)
        if terminal is not None and terminal.time <= t1:
            events.append(
                TimelineEvent(
                    id=f"stop-{vm_id}",
                    trigger=RelativeTo(start_id, terminal.time - started.time),
                    request=StopApplication(target=start_id),
                )
            )
        extracted.append(vm_id)

    scenario = ExperimentScenario(events=events, templates=templates)
    return ExtractionResult(scenario=scenario, extracted_vm_ids=extracted, skipped=skipped)


# --- power model training ----------------------------------------------------------


class UnderdeterminedError(ValueError):
    """Too few or degenerate training points for the requested family."""


def clean_power_training_data(
    store: MeasurementStore, server_id: str, bin_width: float = 0.01
) -> list[tuple[float, float]]:
    """Bin-aggregate a server's (utilization, power) measurement pairs.

    Utilization and power samples are paired by nearest timestamp within
    half a sampling interval, utilization is rounded to multiples of
    ``bin_width``, and each non-empty bin contributes one pair with the
    arithmetic mean of its power values. Aggregation suppresses measurement
    noise before regression.
    """
    if not 0 < bin_width <= 1:
        raise ValueError("bin_width must be in (0, 1]")
    utils = store.entity_samples("server", server_id, "cpu_utilization")
    powers = store.entity_samples("server", server_id, "power_w")
    if not utils or not powers:
        return []
    power_times = [t for t, _ in powers]
    if len(utils) >= 2:
        gaps = [b - a for (a, _), (b, _) in zip(utils, utils[1:]) if b > a]
        tolerance = statistics.median(gaps) / 2 if gaps else float("inf")
    else:
        tolerance = float("inf")

    bins: dict[int, list[float]] = {}
    for t, u in utils:
        idx = bisect.bisect_left(power_times, t)
        best = None
        for j in (idx - 1, idx):
            if 0 <= j < len(power_times):
                if best is None or abs(power_times[j] - t) < abs(power_times[best] - t):
                    best = j
        if best is None or abs(power_times[best] - t) > tolerance:
            continue
        bins.setdefault(round(u / bin_width), []).append(powers[best][1])

    out = [
        (index * bin_width, sum(values) / len(values))
        for index, values in bins.items()
    ]
    out.sort()
    return out


@dataclass(frozen=True)
class FitResult:
    model: PowerModel
    rss: float
    rms: float
    samples: int
    converged: bool
    iterations: int


def _fit_polynomial(u: np.ndarray, p: np.ndarray, degree: int) -> np.ndarray:
    n_coeffs = degree + 1
    if len(u) < n_coeffs:
        raise UnderdeterminedError(
            f"need at least {n_coeffs} pairs for degree {degree}, got {len(u)}"
        )
    if np.all(u == u[0]):
        raise UnderdeterminedError("utilization values are all identical")
    design = np.column_stack([u**k for k in range(1, n_coeffs)] + [np.ones_like(u)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, p, rcond=None)
    if rank < n_coeffs:
        raise UnderdeterminedError("design matrix is rank deficient")
    return coeffs


#: Largest |b| searched: ``math.exp(b * u)`` stays finite for u in [0, 1].
SLOPE_LIMIT = 700.0
#: A doubling of |b| past the grid continues only while it lowers the
#: projected RSS by more than this relative amount.
DOUBLING_TOLERANCE = 1e-4
#: A slope is not taken where projecting the cubic columns out leaves less
#: than this fraction of the exponential column's norm. That is far above
#: the projection's rounding (about 1e-13), so the search and the final
#: least-squares solve agree at every slope the search takes.
SPANNED = 1e-8


def _fit_exponential(
    u: np.ndarray, p: np.ndarray, max_iterations: int = 10_000
) -> tuple[np.ndarray, bool, int]:
    """Least squares for the cubic-plus-exponential family by variable
    projection (Golub & Pereyra 1973).

    At a fixed slope b the model is linear in its other five coefficients,
    so the search runs over b alone. Its objective is the RSS left once the
    cubic columns and the exponential column, scaled to a largest absolute
    value of 1, are projected out. The search:

    - evaluates the 96 nonzero slopes of a grid over [-24, 24];
    - when the best is an edge and its RSS is above 1e-22, doubles |b|, up
      to ``SLOPE_LIMIT``, while each doubling lowers the RSS by more than
      ``DOUBLING_TOLERANCE`` relative;
    - narrows the final bracket to 1e-12 by golden-section search;
    - takes the six coefficients from one least-squares solve at the best
      slope found.

    ``iterations`` counts RSS evaluations. The fit has not converged when
    it reaches ``max_iterations``, or when the slope found is within the
    tolerance of one the search may not take: of ``SLOPE_LIMIT`` while the
    last doubling still lowered the RSS by more than the tolerance, or of a
    slope where the cubic spans the exponential (``SPANNED``). The data then
    asks for a steeper exponential than the family can represent.
    """
    cubic = np.column_stack([u, u**2, u**3, np.ones_like(u)])
    projector = np.eye(len(u)) - cubic @ np.linalg.lstsq(cubic, np.eye(len(u)), rcond=None)[0]
    p_rest = projector @ p

    def rss(slopes: np.ndarray) -> np.ndarray:
        columns = np.expm1(np.outer(u, slopes))
        columns /= np.abs(columns).max(axis=0)
        e_rest = projector @ columns
        norms = np.einsum("ij,ij->j", e_rest, e_rest)
        spanned = norms <= SPANNED**2 * np.einsum("ij,ij->j", columns, columns)
        amplitude = np.divide(p_rest @ e_rest, norms, out=np.zeros_like(norms), where=~spanned)
        residual = p_rest[:, None] - e_rest * amplitude
        return np.where(spanned, np.inf, np.einsum("ij,ij->j", residual, residual))

    grid = np.linspace(-24.0, 24.0, 97)
    grid = grid[np.abs(grid) > 1e-9]
    grid_rss = rss(grid)
    iterations = len(grid)
    best = int(np.argmin(grid_rss))
    # The rest of the search stays on the best slope's side of zero and runs
    # over t = |b|, so the far end of a bracket is always the steeper one.
    sign = math.copysign(1.0, grid[best])
    best_t, best_rss = abs(float(grid[best])), float(grid_rss[best])
    step = float(grid[1] - grid[0])
    lo, hi = best_t - step, best_t + step

    def rss_at(t: float) -> float:
        return float(rss(np.array([sign * t]))[0])

    falling = False
    if best_t == 24.0 and best_rss > 1e-22:
        while best_t < SLOPE_LIMIT:
            hi = min(2.0 * best_t, SLOPE_LIMIT)
            hi_rss = rss_at(hi)
            iterations += 1
            falling = hi_rss < best_rss * (1.0 - DOUBLING_TOLERANCE)
            if not falling:
                break
            lo, best_t, best_rss = best_t, hi, hi_rss

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = rss_at(x1), rss_at(x2)
    iterations += 2
    while hi - lo > 1e-12 and iterations < max_iterations:
        iterations += 1
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = rss_at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = rss_at(x2)
    t_star = x1 if f1 <= f2 else x2
    b_star = sign * t_star
    # A slope steeper by the tolerance is one the search may not take: past
    # the limit, while the RSS still fell, or spanned by the cubic.
    steeper = t_star * (1.0 + DOUBLING_TOLERANCE)
    at_edge = (falling and steeper > SLOPE_LIMIT) or math.isinf(rss_at(min(steeper, SLOPE_LIMIT)))
    iterations += 1

    column = np.expm1(b_star * u)
    scale = float(np.abs(column).max())
    coeffs = np.linalg.lstsq(np.column_stack([cubic, column / scale]), p, rcond=None)[0]
    theta = np.array([*coeffs[:4], coeffs[4] / scale, b_star])
    converged = hi - lo <= 1e-12 and not at_edge
    return theta, converged, iterations


def fit_power_model(
    pairs: Sequence[tuple[float, float]], family: str, degree: int = 3
) -> FitResult:
    """Train a power model of the given family on (utilization, watts) pairs.

    The polynomial family has a unique linear least-squares solution; the
    exponential family is fitted iteratively and flags non-convergence in
    the result rather than raising.
    """
    u = np.asarray([x for x, _ in pairs], dtype=float)
    p = np.asarray([y for _, y in pairs], dtype=float)
    outside = u[~((u >= 0.0) & (u <= 1.0))]
    if outside.size:  # eval_power's rule, checked before the slope search can overflow
        raise ValueError(f"utilization must be in [0, 1], got {outside[0]}")
    if family == POLYNOMIAL:
        coeffs = _fit_polynomial(u, p, degree)
        model = PowerModel(POLYNOMIAL, tuple(float(c) for c in coeffs))
        converged = True
        iterations = 0
    elif family == POLYNOMIAL_PLUS_EXPONENTIAL:
        if len(u) < 6:
            raise UnderdeterminedError(f"need at least 6 pairs, got {len(u)}")
        if np.all(u == u[0]):
            raise UnderdeterminedError("utilization values are all identical")
        theta, converged, iterations = _fit_exponential(u, p)
        model = PowerModel(
            POLYNOMIAL_PLUS_EXPONENTIAL, tuple(float(c) for c in theta)
        )
        if not converged:
            log.warning("power model fit did not converge; returning the best slope found")
    else:
        raise ValueError(f"unknown power model family {family!r}")
    residuals = np.array([eval_power(model, x) - y for (x, y) in pairs])
    rss = float(residuals @ residuals)
    rms = float(np.sqrt(rss / len(pairs))) if len(pairs) else 0.0
    return FitResult(
        model=model, rss=rss, rms=rms, samples=len(pairs),
        converged=converged, iterations=iterations,
    )
