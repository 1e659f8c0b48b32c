"""Runtime-model view, adaptation actions, their enactment, and admission.

Management algorithms never touch simulation state directly. They read a
``RuntimeModelSnapshot`` (a consistent copy of the servers and VMs,
synchronized from the simulation) and return ``AdaptationAction`` values,
which ``enact`` translates into simulation state changes and scheduled
events. The autoscalers take their inputs (offered rate, instances) from
the engine's application tiers, so the snapshot holds servers and VMs
only. ``admit`` gives every new VM, tenant-started or scaled out, a host
through the same steps: placement on a fresh view, then the ``Place``
rules. Runtime and simulation entities share their ids, so the view needs
no link table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import POWER_OFF, POWER_ON, VmFlavor, VmState
from .state import SimulationState, VmRuntime


@dataclass(frozen=True)
class ServerView:
    id: str
    cores: int
    core_speed: float
    ram_capacity: float
    power_state: str
    utilization: float
    free_ram: float


@dataclass(frozen=True)
class VmView:
    id: str
    flavor: VmFlavor
    host: str | None
    state: VmState
    recent_demand: float


@dataclass(frozen=True)
class RuntimeModelSnapshot:
    """Read-only data-center view handed to algorithms: servers and VMs."""

    servers: tuple[ServerView, ...]
    vms: tuple[VmView, ...]


# --- adaptation actions ------------------------------------------------------


@dataclass(frozen=True)
class Place:
    vm_id: str
    server_id: str


@dataclass(frozen=True)
class Migrate:
    vm_id: str
    source: str
    target: str


@dataclass(frozen=True)
class PowerOn:
    server_id: str


@dataclass(frozen=True)
class PowerOff:
    server_id: str


@dataclass(frozen=True)
class ScaleOut:
    application_id: str


@dataclass(frozen=True)
class ScaleIn:
    application_id: str
    instance_id: str


AdaptationAction = Place | Migrate | PowerOn | PowerOff | ScaleOut | ScaleIn


@dataclass(frozen=True)
class Rejected:
    reason: str


def describe(action: AdaptationAction) -> tuple[str, str]:
    """(action name, subject) pair for the action log."""
    if isinstance(action, Place):
        return "place", f"{action.vm_id}->{action.server_id}"
    if isinstance(action, Migrate):
        return "migrate", f"{action.vm_id}:{action.source}->{action.target}"
    if isinstance(action, PowerOn):
        return "power-on", action.server_id
    if isinstance(action, PowerOff):
        return "power-off", action.server_id
    if isinstance(action, ScaleOut):
        return "scale-out", action.application_id
    if isinstance(action, ScaleIn):
        return "scale-in", f"{action.application_id}/{action.instance_id}"
    return "unsupported", repr(action)


# --- synchronizing the runtime view -----------------------------------------


def sync_measurements(sim: SimulationState) -> RuntimeModelSnapshot:
    """Runtime view reflecting the simulation's current values.

    The returned snapshot is a consistent copy; algorithms observing it
    mid-tick can never see partially applied plans. Each host lists the
    VMs it reserves RAM for and hosts, so a migrating VM appears once, at
    its source, and a VM without a host not at all. A host's views are
    frozen, so it keeps them in ``ServerRuntime.view`` until the kernel
    drops them (see ``dcsim.state``), and only those hosts are rebuilt.
    """
    servers = []
    vms: list[VmView] = []
    for server_id, server in sim.servers.items():
        if server.view is None:
            server.view = _host_view(sim, server_id)
        servers.append(server.view[0])
        vms.extend(server.view[1])
    return RuntimeModelSnapshot(servers=tuple(servers), vms=tuple(vms))


def _host_view(
    sim: SimulationState, server_id: str
) -> tuple[ServerView, tuple[VmView, ...]]:
    server = sim.servers[server_id]
    view = ServerView(
        id=server_id,
        cores=server.spec.cores,
        core_speed=server.spec.core_speed,
        ram_capacity=server.spec.ram_capacity,
        power_state=POWER_ON if server.usable() else POWER_OFF,
        utilization=sim.server_utilization(server_id),
        free_ram=server.free_ram,
    )
    vms = tuple(
        VmView(vm.id, vm.flavor, server_id, vm.state, vm.demand)
        for vm in server.reserved
        if vm.host == server_id
    )
    return view, vms


# --- enactment ----------------------------------------------------------------


def enact(action: AdaptationAction, sim: SimulationState) -> Rejected | None:
    """Apply one adaptation action to the simulation.

    Immediate effects (RAM reservations, bookkeeping) happen synchronously;
    delayed effects arrive through scheduled events. Infeasible actions are
    rejected with a reason, never raised. Every action lands in the action
    log either way.
    """
    name, subject = describe(action)
    outcome = _enact(action, sim)
    if outcome is None:
        sim.log(name, subject, "enacted")
    else:
        sim.log(name, subject, f"rejected: {outcome.reason}")
    return outcome


def _enact(action: AdaptationAction, sim: SimulationState) -> Rejected | None:
    if isinstance(action, Place):
        vm = sim.vms.get(action.vm_id)
        if vm is None:
            return Rejected(f"unknown vm {action.vm_id}")
        if vm.state is not VmState.PENDING:
            return Rejected(f"vm {vm.id} is {vm.state.value}, not pending")
        if refusal := _host_refusal(sim, action.server_id, vm.flavor.ram):
            return refusal
        sim.place_vm(vm, action.server_id)
        return None

    if isinstance(action, Migrate):
        vm = sim.vms.get(action.vm_id)
        if vm is None:
            return Rejected(f"unknown vm {action.vm_id}")
        if vm.state is not VmState.RUNNING:
            return Rejected(f"vm {vm.id} is {vm.state.value}, not running")
        if vm.host != action.source:
            return Rejected(f"vm {vm.id} is on {vm.host}, not {action.source}")
        if action.source == action.target:
            return Rejected("migration source equals target")
        if refusal := _host_refusal(sim, action.target, vm.flavor.ram):
            return refusal
        sim.start_migration(vm, action.target)
        return None

    if isinstance(action, (PowerOn, PowerOff)):
        server = sim.servers.get(action.server_id)
        if server is None:
            return Rejected(f"unknown server {action.server_id}")
        target_state = POWER_ON if isinstance(action, PowerOn) else POWER_OFF
        if server.pending_power is not None:
            return Rejected(f"server {action.server_id} has a transition in progress")
        if server.power_state == target_state:
            return Rejected(f"server {action.server_id} is already {target_state}")
        if target_state == POWER_OFF and server.reserved:
            return Rejected("server not empty")
        sim.start_power_transition(action.server_id, target_state)
        return None

    if isinstance(action, ScaleOut):
        app = sim.apps.get(action.application_id)
        if app is None:
            return Rejected(f"unknown application {action.application_id}")
        return admit(sim.create_instance(app), sim)

    if isinstance(action, ScaleIn):
        app = sim.apps.get(action.application_id)
        if app is None:
            return Rejected(f"unknown application {action.application_id}")
        if action.instance_id not in app.instance_ids:
            return Rejected(
                f"{action.instance_id} is not an instance of {action.application_id}"
            )
        if len(app.instance_ids) <= 1:
            return Rejected("cannot remove the last instance")
        sim.end_vm(sim.vms[action.instance_id], VmState.TERMINATED)
        return None

    return Rejected(f"unsupported action {action!r}")


def _host_refusal(sim: SimulationState, server_id: str, ram: float) -> Rejected | None:
    """Why ``server_id`` cannot take a VM of ``ram`` MiB, or None if it can."""
    server = sim.servers.get(server_id)
    if server is None:
        return Rejected(f"unknown server {server_id}")
    if not server.usable():
        return Rejected(f"server {server_id} is powered off")
    if server.free_ram < ram:
        return Rejected(f"insufficient RAM on {server_id}")
    return None


def admit(vm: VmRuntime, sim: SimulationState) -> Rejected | None:
    """Give a new VM a host: the placement algorithm's choice on a fresh
    view, enacted through the ``Place`` rules. A VM that no server takes
    ends rejected through ``end_vm``, like every other VM's end."""
    server_id = sim.placement_fn(sync_measurements(sim), vm.flavor)
    if server_id is not None and enact(Place(vm.id, server_id), sim) is None:
        return None
    sim.end_vm(vm, VmState.REJECTED)
    return Rejected("no feasible server")
