"""Mutable simulation state and the CPU/power bookkeeping that keeps it exact.

The discrete-event engine owns a single ``SimulationState``. Adaptation
enactment (``dcsim.correspondence``) changes it only through the
transitions here, and the engine hands each event to one of them, so
every state change settles in-progress work first and re-records the
utilization/power series at the instant of change. Power series therefore
stay piecewise-constant with a point at every change, which makes energy
integration exact rather than sampled.

The clock is ``SimulationState.now``: the engine sets it to each event's
time before the event's handler runs, and every transition here reads it.

A VM's request tier is ``VmRuntime.app``; a VM without one runs a black-box
trace. A trace VM that executes always has a current segment:
``finish_boot`` completes an empty trace before the VM is listed as
executing, and ``seg_idx`` passes the last segment only in
``finish_segment``, just before the VM completes.

A VM's demand, ``VmRuntime.demand``, is kept where it changes:
``init_segment`` sets a trace VM's to its current segment's, ``finish_boot``
sets a tier VM's to its tier's per-instance demand, and
``recompute_app_demand`` writes a new per-instance demand to the tier's
executing instances (``AppRuntime.serving``). It is still 0.0 on a VM that
has never executed. A host's load is derived only in ``refresh_host``: it
sums the demands of the VMs executing on the host and derives utilization,
power and the host's one processor share, ``ServerRuntime.share`` (see
``gps_share``). A VM executing on the host is granted ``demand * share``
work-units per second, computed where it is read and never stored.
Every change to a demand or to a host's executing VMs is followed by a
refresh of the host before any reader runs. Readers take utilization and
power from the last points of the series. The engine refreshes every host
at t=0, before anything reads them.

Each host lists the VMs it reserves RAM for, as objects in reservation
order (``ServerRuntime.reserved``; two hosts list a migrating VM), and
keeps four values derived from it: ``free_ram``, ``running`` (the VMs
executing on the host, in ``reserved`` order, which breaks ties between
simultaneous boundaries), ``traces`` (the trace VMs of ``running``, in its
order: the only VMs with segment work to settle or a boundary to time) and
``view`` (the host's part of the runtime view, which ``sync_measurements``
fills). ``_host_changed`` is their one writer: it re-derives the first
three and drops the fourth, and every change to the host, its ``reserved``
list or the host or state of a VM on it calls it. ``refresh_host`` drops
``view`` too, since utilization is part of it. Each tier keeps
``serving``, its executing instances in ``instance_ids`` order, which
``_serving_changed`` re-derives where an instance starts or ends.
``SimulationState.live_vms`` indexes the VMs not yet in a terminal state,
in creation order.

A VM's boot and migration timers carry the VM and act only while the state
they end holds (``BOOTING``, ``MIGRATING``); a VM leaves it only through that
timer or ``end_vm``. A server has at most one power transition pending. Under
processor sharing a host's next change is its earliest segment boundary, so
each host keeps one boundary timer. ``refresh_host`` re-arms it for the
earliest trace VM and bumps ``ServerRuntime.timer_epoch``, which makes the
timer it replaces stale. For the same reason each host keeps one settle
instant, ``settled_at`` (see ``advance_host``).

Each ``VmRuntime`` is also the VM's report entry: it keeps its lifecycle
times and host history, and ``end_kind`` is derived from its ``state``.

The log records (``MetricSample``, ``LifecycleEntry``, ``ActionEntry``) are
immutable named tuples: a run builds one per measurement, and ingest one
per CSV row, so each is as cheap to build as a tuple.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .model import (
    EXECUTING,
    POWER_OFF,
    POWER_ON,
    TERMINAL_STATES,
    DataCenterModel,
    Initiator,
    OpenRequestLoad,
    VmFlavor,
    VmState,
    WorkloadModel,
    eval_power,
    free_ram,
    host_capacity,
)


def proportional_share_rates(demands: Sequence[float], capacity: float) -> list[float]:
    """Generalized processor sharing: grant demands, scaled down on overload.

    If total demand fits the capacity every VM receives exactly its demand;
    otherwise each receives ``demand * capacity / total``, so the granted
    total equals ``min(total, capacity)``.

    The kernel grants ``demand * gps_share(total, capacity)`` instead, which
    is bitwise the same; this list form is the reference that the tests and
    their brute-force oracles import.
    """
    total = sum(demands)
    if total <= capacity:
        return list(demands)
    scale = capacity / total
    return [d * scale for d in demands]


def gps_share(total: float, capacity: float) -> float:
    """The one factor by which generalized processor sharing scales every
    demand on a host whose demands sum to ``total``: 1.0 when they fit
    ``capacity``, else ``capacity / total``. ``d * 1.0 == d``, so
    ``d * gps_share(sum(demands), capacity)`` is bitwise the rate
    ``proportional_share_rates`` grants ``d``."""
    return 1.0 if total <= capacity else capacity / total


def check_instance_names(vms: list[tuple[str, WorkloadModel]]) -> None:
    """Refuse an input VM, given as (id, workload), that is named as a request
    tier's scale-out instance (``create_instance``): the tier's id, ``-i`` and digits."""
    tiers = {vm_id for vm_id, workload in vms if isinstance(workload, OpenRequestLoad)}
    for vm_id, _ in vms:
        tier, _, seq = vm_id.rpartition("-i")
        if tier in tiers and seq.isdigit():
            raise ValueError(f"vm id {vm_id!r} is the name of a scale-out instance "
                             f"of tier {tier!r}")


class SimEvent(NamedTuple):
    """A scheduled kernel event. The queue holds the events themselves and
    pops them in (time, sequence) order; sequences are unique, so ``kind``
    and ``payload`` are never compared."""

    time: float
    sequence: int
    kind: str
    payload: tuple = ()


# Event kinds understood by the engine loop.
SCENARIO_REQUEST = "scenario_request"
SEGMENT_BOUNDARY = "segment_boundary"
VM_COMPLETED = "vm_completed"
OPTIMIZER_TICK = "optimizer_tick"
AUTOSCALER_TICK = "autoscaler_tick"
MEASUREMENT_SAMPLE = "measurement_sample"
MIGRATION_FINISHED = "migration_finished"
BOOT_FINISHED = "boot_finished"
POWER_TRANSITION_FINISHED = "power_transition_finished"
RATE_UPDATE = "rate_update"


#: Header fields of the monitoring-trace CSVs, one per field of the records
#: below; the report writes them and ingest requires them.
METRIC_COLUMNS = ["timestamp_s", "entity_kind", "entity_id", "metric", "value"]
LIFECYCLE_COLUMNS = [
    "timestamp_s", "vm_id", "event", "host_id",
    "flavor_vcpus", "flavor_ram_mib", "initiator",
]
#: The ``event`` of a lifecycle row; a terminal event is named after the
#: terminal state ``end_vm`` gave the VM.
TERMINAL_EVENTS = tuple(sorted(state.value for state in TERMINAL_STATES))
LIFECYCLE_EVENTS = ("submitted", "started", "migrated") + TERMINAL_EVENTS


class MetricSample(NamedTuple):
    time: float
    entity_kind: str  # "server" | "vm"
    entity_id: str
    metric: str
    value: float


class LifecycleEntry(NamedTuple):
    time: float
    vm_id: str
    event: str  # one of LIFECYCLE_EVENTS
    host_id: str | None
    vcpus: int
    ram: float
    initiator: str


class ActionEntry(NamedTuple):
    time: float
    action: str
    subject: str
    outcome: str


@dataclass(eq=False)
class VmRuntime:
    id: str
    flavor: VmFlavor
    workload: WorkloadModel
    initiator: Initiator
    submit_time: float = 0.0
    start_time: float | None = None  # first started
    end_time: float | None = None  # completed, terminated or rejected
    hosts: list[tuple[float, str]] = field(default_factory=list)  # (time, server) per move
    state: VmState = VmState.PENDING
    host: str | None = None
    migration_target: str | None = None
    app: AppRuntime | None = None  # its request tier; None for a black-box trace
    # Black-box trace progress: seg_remaining counts work-units while the
    # segment demands CPU, wall-clock seconds while it is idle (demand 0).
    seg_idx: int = 0
    seg_remaining: float = 0.0
    # work-units/s asked while executing; granted demand * its host's share
    demand: float = 0.0

    @property
    def end_kind(self) -> str:
        """The terminal state's name, or ``"running"`` for a VM not yet ended."""
        return self.state.value if self.state in TERMINAL_STATES else "running"


@dataclass
class ServerRuntime:
    spec: object  # ServerSpec
    power_state: str = POWER_ON
    pending_power: str | None = None
    reserved: list[VmRuntime] = field(default_factory=list)  # reserving RAM here, in order
    running: list[VmRuntime] = field(default_factory=list)  # executing here, in reserved order
    traces: list[VmRuntime] = field(default_factory=list)  # running's trace VMs, in its order
    share: float = 1.0  # gps_share of running's demands, set by refresh_host
    timer_epoch: int = 0  # invalidates the pending segment-boundary timer
    settled_at: float = 0.0  # when advance_host last settled the running VMs' work
    util_points: list[tuple[float, float]] = field(default_factory=list)
    power_points: list[tuple[float, float]] = field(default_factory=list)
    free_ram: float = field(init=False)  # RAM not reserved by a VM in reserved
    view: tuple | None = None  # (ServerView, VmViews) cached by sync_measurements

    def __post_init__(self) -> None:
        self.free_ram = free_ram(self.spec, [])

    def usable(self) -> bool:
        """Can accept placements: powered on and not about to power off."""
        return self.power_state == POWER_ON and self.pending_power != POWER_OFF


@dataclass
class AppRuntime:
    """A horizontally scalable tier driven by an open request load at absolute times."""

    id: str
    load: OpenRequestLoad
    flavor: VmFlavor
    instance_ids: list[str] = field(default_factory=list)  # commissioned, in order
    serving: list[VmRuntime] = field(default_factory=list)  # executing, in instance_ids order
    next_seq: int = 1
    instance_demand: float = 0.0
    count_points: list[tuple[float, int]] = field(default_factory=list)
    rate_history: list[tuple[float, float]] = field(default_factory=list)


class SimulationState:
    """Everything the kernel mutates, plus the scheduling primitives."""

    def __init__(self, model: DataCenterModel, config, placement_fn: Callable) -> None:
        self.model = model
        self.config = config
        self.now = 0.0
        self.sequence = 0
        self._queue: list[SimEvent] = []
        self.servers: dict[str, ServerRuntime] = {
            s.id: ServerRuntime(spec=s, power_state=model.power_state(s.id))
            for s in model.servers
        }
        self.vms: dict[str, VmRuntime] = {}
        self.live_vms: dict[str, VmRuntime] = {}  # not yet terminal, in creation order
        self.apps: dict[str, AppRuntime] = {}
        self.action_log: list[ActionEntry] = []
        self.metrics: list[MetricSample] = []
        self.lifecycle: list[LifecycleEntry] = []
        # (snapshot, flavor) -> server id or None
        self.placement_fn = placement_fn

    # -- scheduling ----------------------------------------------------------

    def schedule(self, time: float, kind: str, payload: tuple = ()) -> SimEvent:
        if time < self.now:
            raise RuntimeError(f"{kind} scheduled at {time}, before now ({self.now})")
        event = SimEvent(time, self.sequence, kind, payload)
        self.sequence += 1
        heapq.heappush(self._queue, event)
        return event

    def pop_event(self) -> SimEvent | None:
        if not self._queue:
            return None
        return heapq.heappop(self._queue)

    # -- logging ---------------------------------------------------------------

    def log(self, action: str, subject: str, outcome: str) -> None:
        self.action_log.append(ActionEntry(self.now, action, subject, outcome))

    def record_lifecycle(self, vm: VmRuntime, event: str, host_id: str | None = None) -> None:
        self.lifecycle.append(
            LifecycleEntry(
                time=self.now,
                vm_id=vm.id,
                event=event,
                host_id=host_id,
                vcpus=vm.flavor.vcpus,
                ram=vm.flavor.ram,
                initiator=vm.initiator.value,
            )
        )

    # -- instantaneous readings -------------------------------------------------

    def server_utilization(self, server_id: str) -> float:
        """The utilization ``refresh_host`` last recorded for the server."""
        return self.servers[server_id].util_points[-1][1]

    # -- work settlement ----------------------------------------------------------

    def advance_host(self, server_id: str) -> None:
        """Settle in-progress segment work on a host up to ``now``.

        Processor sharing serves every VM on the host at once, so the host
        keeps one settle instant. That is exact because a VM joins
        ``running`` only in ``finish_boot`` and ``finish_migration``, and
        each of them first advances that host to ``now``.
        """
        server = self.servers[server_id]
        dt = self.now - server.settled_at
        if dt > 0:
            share = server.share
            for vm in server.traces:
                if vm.demand > 0:
                    vm.seg_remaining -= vm.demand * share * dt
                else:
                    vm.seg_remaining -= dt
        server.settled_at = self.now

    def refresh_host(self, server_id: str) -> None:
        """Re-derive the host's share, re-arm the boundary timer, re-record
        the series."""
        now = self.now
        server = self.servers[server_id]
        total = sum([vm.demand for vm in server.running])
        cap = host_capacity(server.spec)
        share = server.share = gps_share(total, cap)
        server.timer_epoch += 1
        server.view = None
        first: VmRuntime | None = None
        first_at = math.inf
        for vm in server.traces:
            # when the VM's current segment ends at demand * share
            remaining = max(vm.seg_remaining, 0.0)
            if vm.demand <= 0:
                at = now + remaining
            else:
                rate = vm.demand * share
                if rate <= 0.0:
                    # a grant of zero only arises from degenerate
                    # (denormal) demands; such a VM is starved while the
                    # host stays overloaded
                    continue
                at = now + remaining / rate
            if at < first_at:  # strict: a tie goes to the VM reserved first
                first, first_at = vm, at
        if first is not None:
            last = first.seg_idx == len(first.workload.segments) - 1
            kind = VM_COMPLETED if last else SEGMENT_BOUNDARY
            self.schedule(first_at, kind, (server_id, server.timer_epoch, first))
        if server.power_state == POWER_ON:
            util = min(total, cap) / cap
            watts = eval_power(self.model.power_models[server.spec.power_model_id], util)
        else:
            util, watts = 0.0, server.spec.idle_off_power
        for points, value in ((server.util_points, util), (server.power_points, watts)):
            if points and points[-1][0] == now:
                points[-1] = (now, value)
            elif not points or points[-1][1] != value:
                points.append((now, value))

    def init_segment(self, vm: VmRuntime) -> None:
        duration, demand = vm.workload.segments[vm.seg_idx]
        vm.demand = demand
        vm.seg_remaining = duration * demand if demand > 0 else duration

    # -- application demand -----------------------------------------------------

    def recompute_app_demand(self, app: AppRuntime) -> None:
        """Re-split the offered request rate over serving instances and
        write the new per-instance demand to each.

        A fully loaded instance demands ``vcpus`` work-units per second;
        partial load scales linearly and excess load saturates at full
        utilization.
        """
        serving = app.serving
        rate = app.load.rate_at(self.now)
        if serving:
            share = rate / len(serving)
            demand = min(share / app.load.per_instance_capacity, 1.0) * app.flavor.vcpus
        else:
            demand = 0.0
        if demand == app.instance_demand:
            return
        hosts = sorted({vm.host for vm in serving})
        for host in hosts:
            self.advance_host(host)
        app.instance_demand = demand
        for vm in serving:
            vm.demand = demand
        for host in hosts:
            self.refresh_host(host)

    def record_app_count(self, app: AppRuntime) -> None:
        points = app.count_points
        if points and points[-1][0] == self.now:
            points.pop()
        points.append((self.now, len(app.instance_ids)))

    # -- VM lifecycle transitions -----------------------------------------------

    def create_vm(
        self,
        vm_id: str,
        flavor: VmFlavor,
        workload: WorkloadModel,
        initiator: Initiator,
        app: AppRuntime | None = None,
    ) -> VmRuntime:
        if vm_id in self.vms:
            raise ValueError(f"vm id {vm_id!r} already exists")
        vm = VmRuntime(
            id=vm_id,
            flavor=flavor,
            workload=workload,
            initiator=initiator,
            submit_time=self.now,
            app=app,
        )
        self.vms[vm_id] = vm
        self.live_vms[vm_id] = vm
        self.record_lifecycle(vm, "submitted")
        return vm

    def create_instance(self, app: AppRuntime) -> VmRuntime:
        """Create the tier's next instance for a scale-out, named
        ``<tier>-iNNNN`` in commissioning order."""
        vm_id = f"{app.id}-i{app.next_seq:04d}"
        app.next_seq += 1
        return self.create_vm(vm_id, app.flavor, app.load, Initiator.AUTOSCALER, app=app)

    def reserve(self, vm: VmRuntime, server_id: str) -> None:
        """Hold the VM's RAM on its host and register it with its tier."""
        self.servers[server_id].reserved.append(vm)
        vm.host = server_id
        self._host_changed(server_id)
        vm.hosts.append((self.now, server_id))
        if vm.app is not None:
            vm.app.instance_ids.append(vm.id)
            self.record_app_count(vm.app)

    def place_vm(self, vm: VmRuntime, server_id: str) -> None:
        """Reserve RAM now; the VM boots after the placement and boot latencies."""
        vm.state = VmState.BOOTING
        self.reserve(vm, server_id)
        delay = self.config.placement_decision_latency + self.config.boot_latency
        self.schedule(self.now + delay, BOOT_FINISHED, (vm,))

    def finish_boot(self, vm: VmRuntime) -> None:
        """Start a placed VM running: the one path for run-time and initial VMs."""
        assert vm.host is not None
        self.advance_host(vm.host)
        vm.state = VmState.RUNNING
        vm.start_time = self.now
        self.record_lifecycle(vm, "started", host_id=vm.host)
        app = vm.app
        if app is None:
            if not vm.workload.segments:  # empty trace: nothing to execute
                self.end_vm(vm, VmState.COMPLETED)
                return
            self.init_segment(vm)
        else:
            vm.demand = app.instance_demand
        self._host_changed(vm.host)
        if app is not None:
            self._serving_changed(app)
            self.recompute_app_demand(app)
        self.refresh_host(vm.host)

    def finish_segment(self, server_id: str, epoch: int, vm: VmRuntime) -> None:
        """Host timer: the VM's segment ends; start its next one or complete it."""
        if epoch != self.servers[server_id].timer_epoch:
            return
        self.advance_host(server_id)
        vm.seg_remaining = 0.0
        vm.seg_idx += 1
        if vm.seg_idx < len(vm.workload.segments):
            self.init_segment(vm)
            self.refresh_host(server_id)
        else:
            self.end_vm(vm, VmState.COMPLETED)
            self.log("complete", vm.id, "ran to completion")

    def start_migration(self, vm: VmRuntime, target_id: str) -> None:
        """Reserve RAM on the target and schedule the cutover."""
        self.servers[target_id].reserved.append(vm)
        vm.migration_target = target_id
        vm.state = VmState.MIGRATING
        self._host_changed(target_id)
        self._host_changed(vm.host)
        duration = vm.flavor.ram / self.config.migration_bandwidth
        self.schedule(self.now + duration, MIGRATION_FINISHED, (vm,))

    def finish_migration(self, vm: VmRuntime) -> None:
        """Migration timer: a VM still migrating cuts over to its target host."""
        if vm.state is not VmState.MIGRATING:
            return
        source, target = vm.host, vm.migration_target
        assert source is not None and target is not None
        self.advance_host(source)
        self.advance_host(target)
        self.servers[source].reserved.remove(vm)
        vm.host = target
        vm.migration_target = None
        vm.state = VmState.RUNNING
        self._host_changed(source)
        self._host_changed(target)
        vm.hosts.append((self.now, target))
        self.record_lifecycle(vm, "migrated", host_id=target)
        self.refresh_host(source)
        self.refresh_host(target)

    def start_power_transition(self, server_id: str, target: str) -> None:
        """Begin powering the server on or off; it reaches ``target`` after
        the configured latency."""
        self.servers[server_id].pending_power = target
        self._host_changed(server_id)  # usable() may change
        self.schedule(self.now + self.config.power_transition_latency,
                      POWER_TRANSITION_FINISHED, (server_id,))

    def finish_power_transition(self, server_id: str) -> None:
        """Power timer: the server reaches its pending power state."""
        server = self.servers[server_id]
        self.advance_host(server_id)
        server.power_state = server.pending_power
        server.pending_power = None
        self.refresh_host(server_id)

    def end_vm(self, vm: VmRuntime, final_state: VmState) -> None:
        """End a VM in ``final_state``: the one writer of a VM's terminal
        state, its removal from ``live_vms``, its ``end_time`` and its
        terminal lifecycle row. A completed or terminated VM releases its
        hosts and its place in its tier; a rejected one never held either."""
        touched = [h for h in (vm.host, vm.migration_target) if h is not None]
        for host in touched:
            self.advance_host(host)
            self.servers[host].reserved.remove(vm)
            self._host_changed(host)
        vm.host = None
        vm.migration_target = None
        vm.state = final_state
        del self.live_vms[vm.id]
        vm.end_time = self.now
        self.record_lifecycle(vm, final_state.value)
        app = vm.app
        if app is not None and vm.id in app.instance_ids:
            app.instance_ids.remove(vm.id)
            self._serving_changed(app)
            self.record_app_count(app)
            self.recompute_app_demand(app)
        for host in touched:
            self.refresh_host(host)

    def _host_changed(self, server_id: str) -> None:
        """Re-derive a host's free RAM, executing VMs and executing trace
        VMs and drop its cached view: the one writer of all four, called
        after every change to the host, its ``reserved`` list or the host or
        state of a VM on it.

        Summing afresh keeps ``free_ram`` bit-for-bit what a sum over
        ``reserved`` gives; filtering, not appending, keeps ``running`` in
        ``reserved`` order even when VMs start in another order, and that
        order breaks boundary ties.
        """
        server = self.servers[server_id]
        server.free_ram = free_ram(server.spec, server.reserved)
        server.running = [
            vm for vm in server.reserved if vm.host == server_id and vm.state in EXECUTING
        ]
        server.traces = [vm for vm in server.running if vm.app is None]
        server.view = None

    def _serving_changed(self, app: AppRuntime) -> None:
        """Re-derive the tier's executing instances, in ``instance_ids``
        order: called where an instance starts or ends."""
        vms = self.vms
        app.serving = [vms[vm_id] for vm_id in app.instance_ids
                       if vms[vm_id].state in EXECUTING]
