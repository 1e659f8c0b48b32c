"""Domain types for the simulated data center.

Servers, VM flavors and instances, workload models, and parametric power
models, plus validation of a complete data center description. Everything
here is immutable after construction; mutable runtime state lives in
``dcsim.state``.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
from typing import Mapping, Sequence


class VmState(str, Enum):
    PENDING = "pending"
    BOOTING = "booting"
    RUNNING = "running"
    MIGRATING = "migrating"
    COMPLETED = "completed"
    TERMINATED = "terminated"
    REJECTED = "rejected"  # no server could take it; never placed


#: Terminal states; no transition leaves them.
TERMINAL_STATES = frozenset({VmState.COMPLETED, VmState.TERMINATED, VmState.REJECTED})

#: States in which a VM executes on its host. A tuple, not a set: ``in``
#: finds a member by identity, without calling ``VmState.__hash__``.
EXECUTING = (VmState.RUNNING, VmState.MIGRATING)


class Initiator(str, Enum):
    TENANT = "tenant"
    AUTOSCALER = "autoscaler"


INITIATORS = tuple(initiator.value for initiator in Initiator)


POWER_ON = "on"
POWER_OFF = "off"


@dataclass(frozen=True)
class VmFlavor:
    """Resource shape of a VM: virtual CPU count and RAM reservation in MiB."""

    vcpus: int
    ram: float

    def check(self) -> list[str]:
        errs = []
        if self.vcpus < 1:
            errs.append(f"flavor vcpus must be >= 1, got {self.vcpus}")
        if not 0 < self.ram < math.inf:
            errs.append(f"flavor ram must be finite and > 0 MiB, got {self.ram}")
        return errs


@dataclass(frozen=True)
class BlackBoxTrace:
    """Piecewise-constant CPU demand of a run-to-completion VM.

    Each segment is ``(duration_s, demand)`` where demand is in normalized
    work-units per second, independent of any particular host speed. A
    segment with demand 0 is idle time; its duration is wall-clock and is
    not stretched by contention.
    """

    segments: tuple[tuple[float, float], ...]

    def check(self) -> list[str]:
        inf = math.inf
        return [
            f"trace segment {i} needs a finite duration > 0 and a finite demand "
            f">= 0, got ({duration}, {demand})"
            for i, (duration, demand) in enumerate(self.segments)
            if not (0 < duration < inf and 0 <= demand < inf)
        ]

    def total_duration(self) -> float:
        return sum(d for d, _ in self.segments)

    def total_work(self) -> float:
        return sum(d * w for d, w in self.segments)


@dataclass(frozen=True)
class OpenRequestLoad:
    """Open request-rate workload for a horizontally scalable tier.

    ``series`` holds ``(time_s, requests_per_s)`` points; a rate holds until
    the next point. ``per_instance_capacity`` is the request rate one
    instance can absorb at full utilization.
    """

    series: tuple[tuple[float, float], ...]
    per_instance_capacity: float

    def check(self) -> list[str]:
        errs = []
        if not 0 < self.per_instance_capacity < math.inf:
            errs.append(
                "per_instance_capacity must be finite and > 0, "
                f"got {self.per_instance_capacity}"
            )
        inf = math.inf
        prev = -inf
        for t, rate in self.series:
            if not (prev < t < inf and 0 <= rate < inf):
                errs.append(
                    "series needs finite, strictly increasing times and finite "
                    f"rates >= 0; point ({t}, {rate}) breaks this"
                )
                break
            prev = t
        return errs

    def rate_at(self, t: float) -> float:
        """Offered rate at time t (0 before the first point, last value after)."""
        i = bisect.bisect_right(self.series, (t, math.inf))
        return self.series[i - 1][1] if i else 0.0


WorkloadModel = BlackBoxTrace | OpenRequestLoad


POLYNOMIAL = "polynomial"
POLYNOMIAL_PLUS_EXPONENTIAL = "polynomial_plus_exponential"


@dataclass(frozen=True)
class PowerModel:
    """Parametric utilization-to-watts function.

    ``polynomial`` with coefficients ``(c0 .. cd)`` evaluates to
    ``c0*u + c1*u^2 + ... + c_{d-1}*u^d + c_d``, powers first and the
    constant term last. ``polynomial_plus_exponential`` appends ``(a, b)`` to a cubic
    layout and adds ``a * (exp(b*u) - 1)``, which keeps the value at u=0
    equal to the constant coefficient.
    """

    family: str
    coefficients: tuple[float, ...]

    def check(self) -> list[str]:
        errs = []
        if self.family == POLYNOMIAL:
            if len(self.coefficients) < 1:
                errs.append("polynomial power model needs at least one coefficient")
        elif self.family == POLYNOMIAL_PLUS_EXPONENTIAL:
            if len(self.coefficients) != 6:
                errs.append(
                    "polynomial_plus_exponential power model needs exactly 6 "
                    f"coefficients, got {len(self.coefficients)}"
                )
        else:
            errs.append(f"unknown power model family {self.family!r}")
        if not all(math.isfinite(c) for c in self.coefficients):
            errs.append(f"coefficients must be finite, got {list(self.coefficients)}")
        if not errs:
            try:
                peak = eval_power(self, 1.0)
            except OverflowError:
                peak = math.inf
            if not math.isfinite(peak):
                errs.append(f"power at utilization 1 must be finite, got {peak}")
        return errs


def eval_power(model: PowerModel, u: float) -> float:
    """Evaluate a power model at aggregate CPU utilization u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"utilization must be in [0, 1], got {u}")
    if model.family == POLYNOMIAL:
        poly = model.coefficients
        watts = poly[-1]
        for k, c in enumerate(poly[:-1], start=1):
            watts += c * u**k
        return watts
    if model.family == POLYNOMIAL_PLUS_EXPONENTIAL:
        c0, c1, c2, c3, a, b = model.coefficients
        return c0 * u + c1 * u**2 + c2 * u**3 + c3 + a * (math.exp(b * u) - 1.0)
    raise ValueError(f"unknown power model family {model.family!r}")


@dataclass(frozen=True)
class ServerSpec:
    """Static description of a physical server."""

    id: str
    cores: int
    core_speed: float  # work-units per second per core
    ram_capacity: float  # MiB
    power_model_id: str
    idle_off_power: float = 0.0  # watts drawn while powered off

    def check(self) -> list[str]:
        errs = []
        if self.cores < 1:
            errs.append(f"server {self.id}: cores must be >= 1, got {self.cores}")
        if not 0 < self.core_speed < math.inf:
            errs.append(
                f"server {self.id}: core_speed must be finite and > 0, got {self.core_speed}"
            )
        if not 0 < self.ram_capacity < math.inf:
            errs.append(
                f"server {self.id}: ram_capacity must be finite and > 0, "
                f"got {self.ram_capacity}"
            )
        if not 0 <= self.idle_off_power < math.inf:
            errs.append(
                f"server {self.id}: idle_off_power must be finite and >= 0, "
                f"got {self.idle_off_power}"
            )
        return errs


def host_capacity(server: ServerSpec) -> float:
    """Total processing speed of a server in work-units per second."""
    return server.cores * server.core_speed


def free_ram(server: ServerSpec, placed: Sequence["VmInstance"]) -> float:
    """RAM left on a server after subtracting the placed VMs' reservations."""
    return server.ram_capacity - sum(vm.flavor.ram for vm in placed)


@dataclass(frozen=True)
class VmInstance:
    """A VM as the simulation knows it; a model's initial VM runs on its host."""

    id: str
    flavor: VmFlavor
    workload: WorkloadModel
    host: str | None = None
    initiator: Initiator = Initiator.TENANT

    def check(self) -> list[str]:
        return [f"vm {self.id}: {e}" for e in self.flavor.check() + self.workload.check()]


@dataclass(frozen=True)
class DataCenterModel:
    """Ground-truth description of the data center at simulation start."""

    servers: tuple[ServerSpec, ...]
    power_models: Mapping[str, PowerModel]
    initial_vms: tuple[VmInstance, ...] = ()
    initial_power_states: Mapping[str, str] = field(default_factory=dict)

    def power_state(self, server_id: str) -> str:
        return self.initial_power_states.get(server_id, POWER_ON)


def validate(model: DataCenterModel) -> list[str]:
    """Check every invariant of a data center model.

    Returns one human-readable entry per violation, naming the offending
    entity; an empty list means the model is valid. Never raises.
    """
    errs: list[str] = []
    seen_servers: set[str] = set()
    for server in model.servers:
        if server.id in seen_servers:
            errs.append(f"duplicate server id {server.id}")
        seen_servers.add(server.id)
        errs.extend(server.check())
        if server.power_model_id not in model.power_models:
            errs.append(
                f"server {server.id}: power_model_id {server.power_model_id!r} "
                "does not resolve"
            )
    for pm_id, pm in model.power_models.items():
        errs.extend(f"power model {pm_id}: {e}" for e in pm.check())

    seen_vms: set[str] = set()
    placements: dict[str, list[VmInstance]] = {s.id: [] for s in model.servers}
    for vm in model.initial_vms:
        if vm.id in seen_vms:
            errs.append(f"duplicate vm id {vm.id}")
        seen_vms.add(vm.id)
        errs.extend(vm.check())
        if vm.host is None:
            errs.append(f"initial vm {vm.id} has no host assignment")
            continue
        if vm.host not in placements:
            errs.append(f"initial vm {vm.id} placed on unknown server {vm.host}")
            continue
        placements[vm.host].append(vm)
        if model.power_state(vm.host) != POWER_ON:
            errs.append(f"initial vm {vm.id} placed on powered-off server {vm.host}")

    for server in model.servers:
        if free_ram(server, placements[server.id]) < 0:
            errs.append(
                f"server {server.id}: initial placements exceed RAM capacity "
                f"({server.ram_capacity} MiB)"
            )

    for server_id, state in model.initial_power_states.items():
        if server_id not in seen_servers:
            errs.append(f"initial_power_states names unknown server {server_id}")
        if state not in (POWER_ON, POWER_OFF):
            errs.append(f"initial power state for {server_id} must be on/off, got {state!r}")
    return errs


# --- JSON serialization ----------------------------------------------------

_MODEL_KEYS = {"servers", "power_models", "initial_vms", "initial_power_states"}
_SERVER_KEYS = {"id", "cores", "core_speed", "ram_capacity", "power_model_id", "idle_off_power"}
_VM_KEYS = {"id", "flavor", "workload", "host", "initiator"}
#: The Python types of a JSON number.
_NUMBERS = {int, float}
#: What a field of each kind must hold, as ``scalar`` says it.
_KIND_TEXT = {int: "an integer", float: "a number", bool: "true or false"}
#: The kind ``scalar`` checks for each field annotation of a config dataclass.
_FIELD_KINDS = {"int": int, "float": float, "bool": bool}


class ModelFormatError(ValueError):
    """Raised when a model, scenario, workload or config document is
    malformed; the message names the malformed entity."""


#: What a malformed JSON document raises while it is turned into objects.
MALFORMED = (ValueError, KeyError, TypeError, AttributeError)


def malformed(where: str, exc: Exception, path: str | None = None) -> ModelFormatError:
    """The error for a malformed entity, naming it and the file it came from."""
    if path is not None:
        where = f"{where} ({path})"
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ModelFormatError(f"{where}: {detail}")


def reject_unknown(obj: Mapping, allowed: set[str], where: str | None = None) -> None:
    """Refuse ``obj`` if it is not a JSON object or has a key outside
    ``allowed``; ``where`` names ``obj`` when no ``malformed`` error around
    the call names it."""
    if not isinstance(obj, dict):
        message = "must be a JSON object"
    elif unknown := set(obj) - allowed:
        message = f"unknown keys {sorted(unknown)}"
    else:
        return
    raise ModelFormatError(message if where is None else f"{where}: {message}")


def kind_of(obj, where: str, tag: str = "kind"):
    """``obj[tag]`` or None, refusing an ``obj`` that is not a JSON object."""
    if not isinstance(obj, dict):
        reject_unknown(obj, set(), where)
    return obj.get(tag)


def scalar(value, name: str, kind: type = float):
    """``value`` as a ``kind``; the one rule for a number or boolean field
    named ``name``. A number is a JSON ``int`` or ``float``, an integer only
    an ``int``, a boolean only ``true`` or ``false``: strings, ``null``, a
    boolean for a number and ``2.5`` for an integer are refused."""
    if type(value) is kind or kind is float and type(value) is int:
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:
            raise _too_large(name) from None
    raise ModelFormatError(f"{name} must be {_KIND_TEXT[kind]}, got {value!r}")


def _too_large(name: str) -> ModelFormatError:
    """The error for a JSON integer in the field ``name`` that no float holds."""
    return ModelFormatError(f"{name}: integer too large for a float")


def text(value, name: str) -> str:
    """``value`` as a string; the one rule for a text field named ``name``:
    only a JSON string, so ``null`` or a number is refused, not turned into
    ``'None'`` or ``'7'``."""
    if type(value) is str:
        return value
    raise ModelFormatError(f"{name} must be a string, got {value!r}")


def check_scalars(config) -> None:
    """``scalar`` on every ``int``, ``float`` and ``bool`` field of the
    dataclass ``config``."""
    for f in fields(config):
        kind = _FIELD_KINDS.get(f.type)
        if kind is not None:
            scalar(getattr(config, f.name), f"{type(config).__name__}: {f.name}", kind)


def json_array(obj: Mapping, key: str) -> list:
    """The JSON array of objects at ``key`` of ``obj``, empty if absent; the
    error names the array, or the first item that is not an object."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise ModelFormatError(f"{key} must be a JSON array")
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ModelFormatError(f"{key}[{index}] must be a JSON object")
    return items


def json_object(obj: Mapping, key: str) -> dict:
    """The JSON object at ``key`` of ``obj``, empty if absent."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ModelFormatError(f"{key} must be a JSON object")
    return value


def _number_pairs(rows, name: str) -> tuple[tuple[float, float], ...]:
    try:
        if type(rows) is list and set(map(type, chain.from_iterable(rows))) <= _NUMBERS:
            return tuple((float(a), float(b)) for a, b in rows)
    except OverflowError:
        raise _too_large(name) from None
    except (TypeError, ValueError):  # a row that is not a list, or not a pair
        pass
    raise ModelFormatError(f"{name} must hold numbers as a JSON array of [x, y] pairs")


def workload_to_dict(workload: WorkloadModel) -> dict:
    if isinstance(workload, BlackBoxTrace):
        return {
            "kind": "blackbox_trace",
            "segments": [[d, w] for d, w in workload.segments],
        }
    return {
        "kind": "open_request_load",
        "series": [[t, r] for t, r in workload.series],
        "per_instance_capacity": workload.per_instance_capacity,
    }


def workload_from_dict(obj: Mapping) -> WorkloadModel:
    kind = kind_of(obj, "workload")
    if kind == "blackbox_trace":
        reject_unknown(obj, {"kind", "segments"}, "workload")
        return BlackBoxTrace(_number_pairs(obj["segments"], "workload: segments"))
    if kind == "open_request_load":
        reject_unknown(obj, {"kind", "series", "per_instance_capacity"}, "workload")
        return OpenRequestLoad(
            _number_pairs(obj["series"], "workload: series"),
            scalar(obj["per_instance_capacity"], "workload: per_instance_capacity"),
        )
    raise ModelFormatError(f"workload: unknown kind {kind!r}")


def flavor_to_dict(flavor: VmFlavor) -> dict:
    return {"vcpus": flavor.vcpus, "ram": flavor.ram}


def flavor_from_dict(obj: Mapping) -> VmFlavor:
    reject_unknown(obj, {"vcpus", "ram"}, "flavor")
    return VmFlavor(scalar(obj["vcpus"], "flavor: vcpus", int), scalar(obj["ram"], "flavor: ram"))


def power_model_to_dict(pm: PowerModel) -> dict:
    return {"family": pm.family, "coefficients": list(pm.coefficients)}


def power_model_from_dict(obj: Mapping) -> PowerModel:
    reject_unknown(obj, {"family", "coefficients"})
    coefficients = obj["coefficients"]
    if type(coefficients) is not list or not set(map(type, coefficients)) <= _NUMBERS:
        raise ModelFormatError(f"coefficients must be numbers in an array, got {coefficients!r}")
    try:
        coefficients = tuple(map(float, coefficients))
    except OverflowError:
        raise _too_large("coefficients") from None
    return PowerModel(text(obj["family"], "family"), coefficients)


def vm_to_dict(vm: VmInstance) -> dict:
    return {
        "id": vm.id,
        "flavor": flavor_to_dict(vm.flavor),
        "workload": workload_to_dict(vm.workload),
        "host": vm.host,
        "initiator": vm.initiator.value,
    }


def vm_from_dict(obj: Mapping) -> VmInstance:
    reject_unknown(obj, _VM_KEYS)
    host = obj.get("host")
    initiator = obj.get("initiator", Initiator.TENANT)
    if initiator not in INITIATORS:
        raise ModelFormatError(f"initiator must be one of {list(INITIATORS)}, got {initiator!r}")
    return VmInstance(
        id=text(obj["id"], "id"),
        flavor=flavor_from_dict(obj["flavor"]),
        workload=workload_from_dict(obj["workload"]),
        host=None if host is None else text(host, "host"),
        initiator=Initiator(initiator),
    )


def server_from_dict(obj: Mapping) -> ServerSpec:
    reject_unknown(obj, _SERVER_KEYS)
    return ServerSpec(
        id=text(obj["id"], "id"),
        cores=scalar(obj["cores"], "cores", int),
        core_speed=scalar(obj["core_speed"], "core_speed"),
        ram_capacity=scalar(obj["ram_capacity"], "ram_capacity"),
        power_model_id=text(obj["power_model_id"], "power_model_id"),
        idle_off_power=scalar(obj.get("idle_off_power", 0.0), "idle_off_power"),
    )


def model_to_dict(model: DataCenterModel) -> dict:
    return {
        "servers": [
            {
                "id": s.id,
                "cores": s.cores,
                "core_speed": s.core_speed,
                "ram_capacity": s.ram_capacity,
                "power_model_id": s.power_model_id,
                "idle_off_power": s.idle_off_power,
            }
            for s in model.servers
        ],
        "power_models": {
            pm_id: power_model_to_dict(pm) for pm_id, pm in model.power_models.items()
        },
        "initial_vms": [vm_to_dict(vm) for vm in model.initial_vms],
        "initial_power_states": dict(model.initial_power_states),
    }


def model_from_dict(obj: Mapping) -> DataCenterModel:
    """Build a model. A malformed server, power model or initial VM is
    named as ``scenario_from_dict`` names a template or event."""
    reject_unknown(obj, _MODEL_KEYS, "data center model")
    servers = []
    for index, raw in enumerate(json_array(obj, "servers")):
        try:
            servers.append(server_from_dict(raw))
        except MALFORMED as exc:
            where = f"server {raw['id']}" if "id" in raw else f"servers[{index}]"
            raise malformed(where, exc) from exc
    power_models = {}
    for pm_id, raw in json_object(obj, "power_models").items():
        try:
            power_models[str(pm_id)] = power_model_from_dict(raw)
        except MALFORMED as exc:
            raise malformed(f"power model {pm_id}", exc) from exc
    initial_vms = []
    for index, raw in enumerate(json_array(obj, "initial_vms")):
        try:
            initial_vms.append(vm_from_dict(raw))
        except MALFORMED as exc:
            where = f"vm {raw['id']}" if "id" in raw else f"initial_vms[{index}]"
            raise malformed(where, exc) from exc
    power_states = {
        str(k): text(v, f"initial power state for {k}")
        for k, v in json_object(obj, "initial_power_states").items()
    }
    return DataCenterModel(tuple(servers), power_models, tuple(initial_vms), power_states)


def json_text(obj) -> str:
    """``obj`` as every JSON file dcsim writes holds it: sorted keys at a
    two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True)


def dump_model(model: DataCenterModel) -> str:
    return json_text(model_to_dict(model))


def json_document(source: str, what: str, path=None) -> dict:
    """The JSON object that the text ``source`` holds, ``what`` naming the
    document; an error starts with ``path``, the file it was read from."""
    prefix = "" if path is None else f"{path}: "
    try:
        obj = json.loads(source)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ModelFormatError(f"{prefix}malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{prefix}{what} must be a JSON object")
    return obj


def read_json_document(path, what: str) -> dict:
    """The JSON object in the file at ``path``; an error names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        return json_document(fh.read(), what, path)


def parse_model(source: str) -> DataCenterModel:
    return model_from_dict(json_document(source, "data center model"))


def load_model(path) -> DataCenterModel:
    return model_from_dict(read_json_document(path, "data center model"))
