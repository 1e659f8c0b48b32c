"""Span tracing of the program's layers, installed from outside the program.

``instrument(tracer)`` replaces each public function the benchmark watches
with a wrapper, at every place its caller looks it up: the engine binds
``sync_measurements``, ``enact``, ``manage_power``, ``react_decide``,
``reg_decide``, ``validate``, ``check_scenario`` and
``sample_measurements`` by name; ``correspondence`` looks up its own
``sync_measurements`` for scale-outs; the placement function is read from
``PLACEMENT_FUNCTIONS`` when the engine is built and the optimizer from
``OPTIMIZER_FUNCTIONS`` on every tick; kernel bookkeeping is reached through
``SimulationState`` methods. Everything is restored on exit, so an
untraced round runs the unmodified program.

A span wrapper records ``(name, start, end, parent)``; a count wrapper
only counts, for functions called so often that a span each would distort
the run (``server_utilization``, ``schedule``, ``pop_event``).
"""

from __future__ import annotations

import collections
import contextlib
import time

import dcsim.algorithms as algorithms_mod
import dcsim.correspondence as corr_mod
import dcsim.engine as engine_mod
import dcsim.extraction as extraction_mod
import dcsim.model as model_mod
import dcsim.scenario as scenario_mod
import dcsim.state as state_mod

#: Event kinds in ``dcsim.state``; the traced run counts pops of each.
EVENT_KINDS = (
    state_mod.SCENARIO_REQUEST,
    state_mod.SEGMENT_BOUNDARY,
    state_mod.VM_COMPLETED,
    state_mod.OPTIMIZER_TICK,
    state_mod.AUTOSCALER_TICK,
    state_mod.MEASUREMENT_SAMPLE,
    state_mod.MIGRATION_FINISHED,
    state_mod.BOOT_FINISHED,
    state_mod.POWER_TRANSITION_FINISHED,
    state_mod.RATE_UPDATE,
)


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._depth = 0  # events scheduled minus popped

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = collections.defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[index]
        return dict(out)

    def calls(self) -> collections.Counter:
        out = collections.Counter(s[0] for s in self.spans)
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        """Write the spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")

    # -- kernel queue hooks ----------------------------------------------------

    def _schedule(self, fn):
        counts = self.counts

        def schedule(sim, *args, **kwargs):
            counts["state.events_scheduled"] += 1
            self._depth += 1
            if self._depth > counts["state.queue_peak"]:
                counts["state.queue_peak"] = self._depth
            return fn(sim, *args, **kwargs)
        return schedule

    def _pop_event(self, fn):
        counts = self.counts

        def pop_event(sim):
            event = fn(sim)
            if event is not None:
                self._depth -= 1
                counts[f"state.events_popped.{event.kind}"] += 1
            return event
        return pop_event

    def _enact(self, fn):
        counts = self.counts

        def enact(*args, **kwargs):
            with self.span("correspondence.enact"):
                outcome = fn(*args, **kwargs)
            if isinstance(outcome, corr_mod.Rejected):
                counts["correspondence.enact.rejected"] += 1
            return outcome
        return enact

    def start_run(self) -> None:
        """Reset the queue depth: each engine.run starts with an empty queue."""
        self._depth = 0


@contextlib.contextmanager
def instrument(tracer: Tracer | None):
    """Install the tracer's wrappers for the duration of the block."""
    if tracer is None:
        yield
        return
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, wrapper_factory):
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapped = wrapper_factory(original)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        patches.append((owner, attr, original))

    def span(name):
        return lambda fn: tracer.spanned(name, fn)

    def count(name):
        return lambda fn: tracer.counted(name, fn)

    state = state_mod.SimulationState
    try:
        patch(model_mod, "validate", span("model.validate"))
        patch(engine_mod, "validate", span("model.validate"))
        patch(model_mod.OpenRequestLoad, "rate_at", span("model.rate_at"))
        patch(scenario_mod, "check_scenario", span("scenario.check"))
        patch(engine_mod, "check_scenario", span("scenario.check"))
        patch(state, "schedule", tracer._schedule)
        patch(state, "pop_event", tracer._pop_event)
        patch(state, "refresh_host", span("state.refresh_host"))
        patch(state, "advance_host", span("state.advance_host"))
        patch(state, "recompute_app_demand", span("state.recompute_app_demand"))
        patch(state, "server_utilization", count("state.server_utilization"))
        patch(engine_mod, "sample_measurements", span("engine.sample_measurements"))
        patch(engine_mod, "sync_measurements", span("correspondence.sync_measurements"))
        patch(corr_mod, "sync_measurements", span("correspondence.sync_measurements"))
        patch(engine_mod, "enact", tracer._enact)
        for key in list(algorithms_mod.PLACEMENT_FUNCTIONS):
            patch(algorithms_mod.PLACEMENT_FUNCTIONS, key, span("algorithms.placement"))
        for key in list(algorithms_mod.OPTIMIZER_FUNCTIONS):
            patch(algorithms_mod.OPTIMIZER_FUNCTIONS, key, span("algorithms.optimizer"))
        patch(engine_mod, "manage_power", span("algorithms.manage_power"))
        patch(engine_mod, "react_decide", span("algorithms.autoscaler"))
        patch(engine_mod, "reg_decide", span("algorithms.autoscaler"))
        patch(extraction_mod.MeasurementStore, "entity_samples",
              span("extraction.entity_samples"))
        patch(extraction_mod.MeasurementStore, "host_at", span("extraction.host_at"))
        patch(extraction_mod, "extract_blackbox_workload",
              span("extraction.extract_blackbox_workload"))
        yield
    finally:
        for owner, attr, original in reversed(patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
