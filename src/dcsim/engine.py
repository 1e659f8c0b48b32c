"""Deterministic discrete-event simulation kernel.

Processes the scenario timeline, feeds the runtime view to the configured
algorithms at their intervals, enacts their decisions, and assembles the
report. The kernel is single-threaded; identical inputs (including the
seed) yield identical reports.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from .algorithms import (
    OPTIMIZER_FUNCTIONS,
    PLACEMENT_FUNCTIONS,
    AlgorithmConfig,
    manage_power,
    react_decide,
    reg_decide,
)
from .correspondence import admit, enact, sync_measurements
from .model import (
    EXECUTING,
    TERMINAL_STATES,
    DataCenterModel,
    Initiator,
    OpenRequestLoad,
    VmState,
    bound_errors,
    bounded,
    check_scalars,
    host_capacity,
    validate,
)
from .scenario import (
    ChangeOptimisationInterval,
    ExperimentScenario,
    ReconfigureOptimisationAlgorithm,
    RelativeTo,
    StartApplication,
    StopApplication,
    TimelineEvent,
    check_scenario,
)
from .state import (
    AUTOSCALER_TICK,
    BOOT_FINISHED,
    MEASUREMENT_SAMPLE,
    MIGRATION_FINISHED,
    OPTIMIZER_TICK,
    POWER_TRANSITION_FINISHED,
    RATE_UPDATE,
    SCENARIO_REQUEST,
    SEGMENT_BOUNDARY,
    VM_COMPLETED,
    ActionEntry,
    AppRuntime,
    LifecycleEntry,
    MetricSample,
    SimEvent,
    SimulationState,
    VmRuntime,
    check_instance_names,
    proportional_share_rates,
)

__all__ = [
    "SimConfig",
    "SimulationReport",
    "run",
    "proportional_share_rates",
    "integrate_energy",
    "sample_measurements",
    "SimEvent",
]

log = logging.getLogger("dcsim.engine")


@dataclass(frozen=True)
class SimConfig:
    end_time: float = bounded("finite and > 0")
    measurement_interval: float = bounded("finite and > 0", default=30.0)
    optimizer_interval: float = bounded("finite and > 0", default=300.0)
    autoscaler_interval: float = bounded("finite and > 0", default=60.0)
    boot_latency: float = bounded("finite and >= 0", default=0.0)
    placement_decision_latency: float = bounded("finite and >= 0", default=0.0)
    migration_bandwidth: float = bounded("finite and > 0", default=1024.0)  # MiB/s
    power_transition_latency: float = bounded("finite and >= 0", default=0.0)
    seed: int = 0

    def __post_init__(self):
        check_scalars(self)
        if problems := bound_errors(self):
            raise ValueError("; ".join(problems))


def _area(points: list[tuple[float, float]], end_time: float) -> float:
    """The area under a non-empty piecewise-constant series, summed from
    the left: each value holds until the next point, the last one until
    ``end_time``."""
    if end_time < points[-1][0]:
        raise ValueError("end_time precedes the last sample")
    area = 0.0
    for (t0, value), (t1, _) in zip(points, points[1:]):
        if t1 <= t0:
            raise ValueError("series times must be strictly increasing")
        area += value * (t1 - t0)
    return area + points[-1][1] * (end_time - points[-1][0])


def integrate_energy(power_series: list[tuple[float, float]], end_time: float) -> float:
    """Watt-hours under a piecewise-constant power series; an empty series
    integrates to zero."""
    return _area(power_series, end_time) / 3600.0 if power_series else 0.0


def sample_measurements(sim: SimulationState) -> None:
    """Record the instantaneous measurements the runtime toolkit would see.

    Per server: aggregate CPU utilization, power draw, free RAM. Per active
    VM (found among ``live_vms``, in creation order): its share of the host
    expressed as a utilization fraction. The records feed the runtime view
    and the exported monitoring trace.
    """
    t = sim.now
    capacity = {}
    for server_id, server in sim.servers.items():
        capacity[server_id] = host_capacity(server.spec)
        sim.metrics.append(
            MetricSample(t, "server", server_id, "cpu_utilization",
                         sim.server_utilization(server_id))
        )
        sim.metrics.append(
            MetricSample(t, "server", server_id, "power_w", server.power_points[-1][1])
        )
        sim.metrics.append(
            MetricSample(t, "server", server_id, "free_ram_mib", server.free_ram)
        )
    for vm_id, vm in sim.live_vms.items():
        if vm.state in EXECUTING:
            sim.metrics.append(
                MetricSample(t, "vm", vm_id, "vm_cpu_utilization",
                             vm.demand * sim.servers[vm.host].share / capacity[vm.host])
            )


@dataclass
class SimulationReport:
    """Everything a run produced, sufficient to re-derive its metrics: the
    kernel's own series, logs and ``VmRuntime``s (``vm_records``), not copies.
    ``report.write_report`` writes each series to its own CSV, and
    ``to_dict`` (``report.json``) holds only what no CSV does, plus the
    action log, which ``actions.csv`` also holds."""

    end_time: float
    seed: int
    utilization: dict[str, list[tuple[float, float]]]
    power: dict[str, list[tuple[float, float]]]
    energy_wh: dict[str, float]
    total_energy_wh: float
    actions: list[ActionEntry]
    vm_records: dict[str, VmRuntime]
    autoscaler_series: list[tuple[float, str, int, float]]
    app_instance_counts: dict[str, list[tuple[float, int]]]
    metrics: list[MetricSample] = field(default_factory=list)
    lifecycle: list[LifecycleEntry] = field(default_factory=list)

    def placements(self) -> list[tuple[str, str]]:
        """(vm, server) pairs in the order placements were enacted."""
        out = []
        for entry in self.actions:
            if entry.action == "place" and entry.outcome == "enacted":
                vm_id, server_id = entry.subject.split("->", 1)
                out.append((vm_id, server_id))
        return out

    def rejected_placements(self) -> int:
        """The number of VMs that no server took."""
        return sum(vm.state is VmState.REJECTED for vm in self.vm_records.values())

    def scaling_action_count(self) -> int:
        return sum(
            entry.action in ("scale-out", "scale-in") and entry.outcome == "enacted"
            for entry in self.actions
        )

    def mean_instances(self, app_id: str) -> float:
        points = self.app_instance_counts[app_id]
        if not points:
            return 0.0
        start = points[0][0]
        if self.end_time <= start:
            return float(points[0][1])
        return _area(points, self.end_time) / (self.end_time - start)

    def to_dict(self) -> dict:
        return {
            "end_time": self.end_time,
            "seed": self.seed,
            "actions": [
                {"time": a.time, "action": a.action, "subject": a.subject,
                 "outcome": a.outcome}
                for a in self.actions
            ],
            "vms": {
                vm_id: {
                    "initiator": vm.initiator.value,
                    "submit_time": vm.submit_time,
                    "start_time": vm.start_time,
                    "end_time": vm.end_time,
                    "end_kind": vm.end_kind,
                    "hosts": vm.hosts,
                }
                for vm_id, vm in self.vm_records.items()
            },
            "app_instance_counts": self.app_instance_counts,
        }


class _Engine:
    def __init__(
        self,
        model: DataCenterModel,
        scenario: ExperimentScenario,
        algorithms: AlgorithmConfig,
        config: SimConfig,
    ) -> None:
        problems = validate(model)
        if problems:
            raise ValueError("model does not validate: " + "; ".join(problems))
        check_scenario(scenario, known_vm_ids=[vm.id for vm in model.initial_vms])
        if algorithms.autoscaler != "none":
            check_instance_names([(vm.id, vm.workload) for vm in model.initial_vms] + [
                (ev.request.vm_id, scenario.templates[ev.request.template].workload)
                for ev in scenario.start_events()])
        self.model = model
        self.scenario = scenario
        self.algorithms = algorithms
        self.config = config
        self.sim = SimulationState(model, config, PLACEMENT_FUNCTIONS[algorithms.placement])
        self.events: dict[str, TimelineEvent] = {ev.id: ev for ev in scenario.events}
        # relative events by the event whose completion triggers them, in scenario order
        self.waiting: dict[str, list[TimelineEvent]] = {}
        self.event_of_vm: dict[str, str] = {}
        self.optimizer_id = algorithms.optimizer
        self.optimizer_interval = config.optimizer_interval
        self.optimizer_epoch = 0  # invalidates the pending optimizer tick
        self.autoscaler_series: list[tuple[float, str, int, float]] = []
        # each kind's transition, called with the event's payload as its arguments
        sim = self.sim
        self.handlers = {
            SCENARIO_REQUEST: self._handle_scenario_request,
            # one transition; the two kinds stay apart so pops can be counted per kind
            SEGMENT_BOUNDARY: sim.finish_segment,
            VM_COMPLETED: sim.finish_segment,
            BOOT_FINISHED: self._handle_boot_finished,
            MIGRATION_FINISHED: sim.finish_migration,
            POWER_TRANSITION_FINISHED: sim.finish_power_transition,
            OPTIMIZER_TICK: self._handle_optimizer_tick,
            AUTOSCALER_TICK: self._handle_autoscaler_tick,
            MEASUREMENT_SAMPLE: self._handle_measurement,
            RATE_UPDATE: sim.recompute_app_demand,
        }

    # -- setup -------------------------------------------------------------

    def _install_initial_vms(self) -> None:
        for vm_model in self.model.initial_vms:
            app = self._create_application(vm_model.id, vm_model.workload, vm_model.flavor)
            vm = self.sim.create_vm(
                vm_model.id, vm_model.flavor, vm_model.workload, vm_model.initiator, app=app
            )
            self.sim.reserve(vm, vm_model.host)
            self.sim.finish_boot(vm)

    def _create_application(self, app_id: str, workload, flavor) -> AppRuntime | None:
        """The request tier that a new VM running ``workload`` serves; None
        for a black-box trace."""
        if not isinstance(workload, OpenRequestLoad):
            return None
        # absolute point times, computed once: the updates and lookups share the floats
        now = self.sim.now
        load = replace(workload, series=tuple((now + t, rate) for t, rate in workload.series))
        app = AppRuntime(id=app_id, load=load, flavor=flavor)
        self.sim.apps[app_id] = app
        # a point before now is already in force: the first demand reads rate_at(now)
        for when, _rate in load.series:
            if now <= when <= self.config.end_time:
                self.sim.schedule(when, RATE_UPDATE, (app,))
        return app

    def _schedule_initial_events(self) -> None:
        for ev in self.scenario.events:
            if isinstance(ev.trigger, RelativeTo):
                self.waiting.setdefault(ev.trigger.reference, []).append(ev)
            elif ev.trigger.time <= self.config.end_time:
                self.sim.schedule(ev.trigger.time, SCENARIO_REQUEST, (ev,))
        self.sim.schedule(0.0, MEASUREMENT_SAMPLE, ())
        # The tick chain always runs: a scenario may switch the optimizer on
        # mid-run, and the tick is a no-op while it is "none".
        self.sim.schedule(self.optimizer_interval, OPTIMIZER_TICK, (self.optimizer_epoch,))
        if self.algorithms.autoscaler != "none":
            self.sim.schedule(self.config.autoscaler_interval, AUTOSCALER_TICK, ())

    # -- event handlers ------------------------------------------------------

    def _complete_event(self, event_id: str) -> None:
        for ev in self.waiting.pop(event_id, ()):
            trigger = self.sim.now + ev.trigger.offset
            if trigger <= self.config.end_time:
                self.sim.schedule(trigger, SCENARIO_REQUEST, (ev,))

    def _handle_scenario_request(self, ev: TimelineEvent) -> None:
        """Carry out a scenario request and complete its event, except for a
        start whose VM found a host: that VM's boot completes it."""
        request = ev.request
        if isinstance(request, StartApplication):
            if self._handle_start(ev.id, request):
                return
        elif isinstance(request, StopApplication):
            self._handle_stop(request)
        elif isinstance(request, ReconfigureOptimisationAlgorithm):
            self.optimizer_id = request.algorithm
            self.sim.log("reconfigure-optimizer", request.algorithm, "applied")
        elif isinstance(request, ChangeOptimisationInterval):
            self.optimizer_interval = request.interval
            self.optimizer_epoch += 1
            self.sim.schedule(
                self.sim.now + request.interval, OPTIMIZER_TICK, (self.optimizer_epoch,)
            )
            self.sim.log("change-interval", f"{request.interval}", "applied")
        self._complete_event(ev.id)

    def _handle_start(self, event_id: str, request: StartApplication) -> bool:
        """Create the request's VM and admit it; return whether a host took it."""
        template = self.scenario.templates[request.template]
        flavor = request.flavor_override or template.flavor
        app = self._create_application(request.vm_id, template.workload, flavor)
        vm = self.sim.create_vm(
            request.vm_id, flavor, template.workload, Initiator.TENANT, app=app
        )
        self.event_of_vm[vm.id] = event_id
        if admit(vm, self.sim) is not None:
            self.sim.log("start-request", vm.id, "rejected: no feasible server")
            return False
        self.sim.log("start-request", vm.id, f"placing on {vm.host}")
        return True

    def _handle_stop(self, request: StopApplication) -> None:
        start = self.events.get(request.target)  # check_scenario: a start event or None
        vm_id = request.target if start is None else start.request.vm_id
        vm = self.sim.vms.get(vm_id)
        if vm is None:
            self.sim.log("stop-request", vm_id, "no-op: vm never started")
        elif vm.state in TERMINAL_STATES:
            self.sim.log("stop-request", vm_id, f"no-op: already {vm.state.value}")
        else:
            self.sim.end_vm(vm, VmState.TERMINATED)
            self.sim.log("stop-request", vm_id, f"terminated {vm_id}")

    def _handle_boot_finished(self, vm: VmRuntime) -> None:
        """Boot timer: a VM still booting starts running and its start event completes."""
        if vm.state is not VmState.BOOTING:
            return
        self.sim.finish_boot(vm)
        event_id = self.event_of_vm.get(vm.id)
        if event_id is not None:
            self._complete_event(event_id)

    def _handle_optimizer_tick(self, epoch: int) -> None:
        if epoch != self.optimizer_epoch:
            return
        if self.optimizer_id != "none":
            snapshot = sync_measurements(self.sim)
            plan = OPTIMIZER_FUNCTIONS[self.optimizer_id](snapshot, self.algorithms)
            for action in plan:
                enact(action, self.sim)
        if self.algorithms.power_manager_enabled:
            snapshot = sync_measurements(self.sim)
            for action in manage_power(snapshot, self.algorithms.spare_servers):
                enact(action, self.sim)
        self.sim.schedule(
            self.sim.now + self.optimizer_interval, OPTIMIZER_TICK, (epoch,)
        )

    def _handle_autoscaler_tick(self) -> None:
        for app_id in sorted(self.sim.apps):
            app = self.sim.apps[app_id]
            rate = app.load.rate_at(self.sim.now)
            app.rate_history.append((self.sim.now, rate))
            instances = tuple(app.instance_ids)
            if not instances:
                continue
            capacity = app.load.per_instance_capacity
            if self.algorithms.autoscaler == "react":
                actions = react_decide(app_id, rate, instances, capacity, self.algorithms.react)
            else:
                actions = reg_decide(
                    app_id, rate, instances, capacity, app.rate_history,
                    self.algorithms.reg, self.config.autoscaler_interval,
                )
            for action in actions:
                enact(action, self.sim)
            self.autoscaler_series.append(
                (self.sim.now, app_id, len(app.instance_ids), rate)
            )
        self.sim.schedule(
            self.sim.now + self.config.autoscaler_interval, AUTOSCALER_TICK, ()
        )

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationReport:
        self._install_initial_vms()
        for server_id in self.sim.servers:
            self.sim.refresh_host(server_id)
        self._schedule_initial_events()
        while True:
            event = self.sim.pop_event()
            if event is None or event.time > self.config.end_time:
                break
            self.sim.now = event.time
            self.handlers[event.kind](*event.payload)
        for reference, events in self.waiting.items():
            for ev in events:
                log.debug("event %s never ran: its reference %s never completed",
                          ev.id, reference)
        self.sim.now = self.config.end_time
        return self._build_report()

    def _handle_measurement(self) -> None:
        sample_measurements(self.sim)
        self.sim.schedule(
            self.sim.now + self.config.measurement_interval, MEASUREMENT_SAMPLE, ()
        )

    def _build_report(self) -> SimulationReport:
        energy = {
            server_id: integrate_energy(server.power_points, self.config.end_time)
            for server_id, server in self.sim.servers.items()
        }
        return SimulationReport(
            end_time=self.config.end_time,
            seed=self.config.seed,
            utilization={sid: s.util_points for sid, s in self.sim.servers.items()},
            power={sid: s.power_points for sid, s in self.sim.servers.items()},
            energy_wh=energy,
            total_energy_wh=sum(energy.values()),
            actions=self.sim.action_log,
            vm_records=self.sim.vms,
            autoscaler_series=self.autoscaler_series,
            app_instance_counts={
                app_id: app.count_points for app_id, app in self.sim.apps.items()
            },
            metrics=self.sim.metrics,
            lifecycle=self.sim.lifecycle,
        )


def run(
    model: DataCenterModel,
    scenario: ExperimentScenario,
    algorithms: AlgorithmConfig,
    config: SimConfig,
) -> SimulationReport:
    """Simulate the scenario against the model and return the full report."""
    engine = _Engine(model, scenario, algorithms, config)
    report = engine.run()
    # The handlers are bound methods of the engine, and a tier's serving
    # instances refer back to the tier. Dropping both frees the kernel state
    # here, not at whichever later full collection finds the cycles.
    engine.handlers.clear()
    for app in engine.sim.apps.values():
        app.serving.clear()
    return report
