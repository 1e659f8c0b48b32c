"""Domain types for the simulated data center.

Servers, VM flavors and instances, workload models, and parametric power
models, plus validation of a complete data center description. Everything
here is immutable after construction; mutable runtime state lives in
``dcsim.state``.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import types
from collections.abc import Callable, Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import chain
from typing import Annotated, Union, get_args, get_origin, get_type_hints

#: Each number bound a field can declare, by the text its error gives.
_BOUNDS: dict[str, Callable[[float], bool]] = {
    ">= 1": lambda value: value >= 1,
    "finite and > 0": lambda value: 0 < value < math.inf,
    "finite and >= 0": lambda value: 0 <= value < math.inf,
}


def bounded(rule: str, unit: str = "", **kwargs):
    """A dataclass field whose number must satisfy ``rule``, a key of
    ``_BOUNDS``; ``bound_errors`` checks it, and its error writes ``unit``
    after the rule."""
    return field(metadata={"bound": (_BOUNDS[rule], rule + unit)}, **kwargs)


@dataclass(frozen=True, eq=False)  # hashed by identity, so an annotation holding it is a key
class Tagged:
    """How a union of dataclasses is held in JSON: the object's ``key``
    names its member. ``what`` names that key in the error for a name that
    is not a member's."""

    key: str
    what: str
    members: Mapping[str, type]


def tagged(key: str, what: str, **members: type):
    """The union of ``members``, each held as a JSON object whose ``key``
    is the member's keyword here."""
    return Annotated[Union[tuple(members.values())], Tagged(key, what, members)]


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

    vcpus: int = bounded(">= 1")
    ram: float = bounded("finite and > 0", " MiB")


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
    per_instance_capacity: float = bounded("finite and > 0")

    def check(self) -> list[str]:
        errs = bound_errors(self)
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


WorkloadModel = tagged(
    "kind", "kind", blackbox_trace=BlackBoxTrace, open_request_load=OpenRequestLoad
)


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
    cores: int = bounded(">= 1")
    core_speed: float = bounded("finite and > 0")  # work-units per second per core
    ram_capacity: float = bounded("finite and > 0")  # MiB
    power_model_id: str
    idle_off_power: float = bounded("finite and >= 0", default=0.0)  # watts drawn while off


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
        errs.extend(bound_errors(server, f"server {server.id}: "))
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
        errs.extend(
            f"vm {vm.id}: {e}" for e in bound_errors(vm.flavor, "flavor ") + vm.workload.check()
        )
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


# --- JSON documents ----------------------------------------------------------
#
# A document entity is a dataclass whose fields are its one declaration: a
# field's key is its name, it is optional exactly when it has a default, it
# is read by its annotation, a None in it is not written, and its bound is
# in its metadata. Naming items and rules between entities stay by hand.

#: The Python types of a JSON number.
_NUMBERS = {int, float}
#: What a field of each kind must hold, as ``scalar`` says it.
_KIND_TEXT = {int: "an integer", float: "a number", bool: "true or false"}


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


def _named(where: str, message: str) -> str:
    return f"{where}: {message}" if where else message


def reject_unknown(obj: Mapping, allowed: set[str], where: str = "") -> None:
    """Refuse ``obj`` if it is not a JSON object or has a key outside
    ``allowed``; ``where`` names ``obj`` when no ``malformed`` error around
    the call names it."""
    if not isinstance(obj, dict):
        message = "must be a JSON object"
    elif not allowed.issuperset(obj):
        message = f"unknown keys {sorted(set(obj) - allowed)}"
    else:
        return
    raise ModelFormatError(_named(where, message))


def scalar(value, name: str, kind: type = float):
    """``value`` as a ``kind``; the one rule for a number or boolean field
    named ``name``. A number is a JSON ``int`` or ``float``, an integer only
    an ``int`` that a float can hold, a boolean only ``true`` or ``false``:
    strings, ``null``, a boolean for a number and ``2.5`` for an integer are
    refused."""
    if type(value) is kind or kind is float and type(value) is int:
        try:
            number = float(value)
        except OverflowError:
            raise _too_large(name) from None
        return number if kind is float else value
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


def _number_pairs(rows, name: str) -> tuple[tuple[float, float], ...]:
    try:
        if type(rows) is list and set(map(type, chain.from_iterable(rows))) <= _NUMBERS:
            return tuple((float(a), float(b)) for a, b in rows)
    except OverflowError:
        raise _too_large(name) from None
    except (TypeError, ValueError):  # a row that is not a list, or not a pair
        pass
    raise ModelFormatError(f"{name} must hold numbers as a JSON array of [x, y] pairs")


def _numbers(values, name: str) -> tuple[float, ...]:
    if type(values) is not list or not set(map(type, values)) <= _NUMBERS:
        raise ModelFormatError(f"{name} must be numbers in an array, got {values!r}")
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise _too_large(name) from None


#: The reader of each field annotation that is not a dataclass, an enum or
#: a union: (JSON value, field name) -> value. Only a ``str | None`` field
#: reads ``null`` as None; any other optional field, given, holds a value.
_READERS: dict[object, Callable] = {
    int: lambda value, name: scalar(value, name, int),
    float: scalar,
    str: text,
    str | None: lambda value, name: None if value is None else text(value, name),
    tuple[tuple[float, float], ...]: _number_pairs,
    tuple[float, ...]: _numbers,
}


def _union_reader(union: Tagged, name: str) -> Callable:
    plans = {tag: _plan(member, name, union.key) for tag, member in union.members.items()}

    def read(value, name):
        if type(value) is not dict:
            reject_unknown(value, set(), name)
        tag = value.get(union.key)
        plan = plans.get(tag) if type(tag) is str else None
        if plan is None:
            raise ModelFormatError(f"{name}: unknown {union.what} {tag!r}")
        return _read(plan, value)
    return read


def _reader(hint, name: str) -> Callable:
    """The reader of a field annotated ``hint`` and named ``name``."""
    if hint in _READERS:
        return _READERS[hint]
    if get_origin(hint) is Annotated:
        return _union_reader(hint.__metadata__[0], name)
    if isinstance(hint, type) and issubclass(hint, Enum):
        values = [member.value for member in hint]

        def read(value, name):
            if value in values:
                return hint(value)
            raise ModelFormatError(f"{name} must be one of {values}, got {value!r}")
        return read
    if is_dataclass(hint):
        plan = _plan(hint, name)
        return lambda value, name: _read(plan, value)
    (member,) = (arg for arg in get_args(hint) if arg is not type(None))  # X | None
    return _reader(member, name)


def _writer(hint) -> Callable | None:
    """The writer of a field annotated ``hint``; None writes the value as it is."""
    origin = get_origin(hint)
    if origin is Annotated:
        union = hint.__metadata__[0]
        tags = {member: tag for tag, member in union.members.items()}

        def write(value):
            out = to_json(value)
            out[union.key] = tags[type(value)]
            return out
        return write
    if isinstance(hint, type) and issubclass(hint, Enum):
        return lambda value: value.value
    if is_dataclass(hint):
        return to_json
    if origin in (tuple, list):
        item = _writer(get_args(hint)[0])
        return list if item is None else lambda value: [item(v) for v in value]
    if origin in (dict, Mapping):
        item = _writer(get_args(hint)[1])
        return dict if item is None else lambda value: {k: item(v) for k, v in value.items()}
    if origin in (Union, types.UnionType):  # X | None: a None is never written
        return _writer(next(arg for arg in get_args(hint) if arg is not type(None)))
    return None


class _Plan:
    """What reading, writing and checking one dataclass takes, worked out
    once: its keys (with ``tag``, the key that names it in a union), each
    field's reader, writer and bound, and the name of each field in an
    error inside the entity named ``where``."""

    def __init__(self, cls: type, where: str = "", tag: str | None = None) -> None:
        hints = get_type_hints(cls, include_extras=True)
        self.cls = cls
        self.where = where
        self.fields = [(f, hints[f.name]) for f in fields(cls)]
        self.keys = frozenset([f.name for f in fields(cls)] + ([tag] if tag else []))
        self.bounds = [
            (f.name, *f.metadata["bound"]) for f in fields(cls) if "bound" in f.metadata
        ]

    @functools.cached_property
    def readers(self) -> list[tuple[str, Callable, str, object]]:
        return [
            (f.name, _reader(hint, name), name, f.default)
            for f, hint in self.fields
            for name in [_named(self.where, f.name)]
        ]

    @functools.cached_property
    def writers(self) -> list[tuple[str, Callable | None]]:
        return [(f.name, _writer(hint)) for f, hint in self.fields]


_plan = functools.cache(_Plan)


def _read(plan: _Plan, obj):
    keys = plan.keys
    if type(obj) is not dict or not keys.issuperset(obj):
        reject_unknown(obj, keys, plan.where)
    values = []
    for key, read, name, default in plan.readers:
        if key in obj:
            values.append(read(obj[key], name))
        elif default is MISSING:
            raise ModelFormatError(_named(plan.where, f"missing key {key!r}"))
        else:
            values.append(default)
    return plan.cls(*values)


def from_json(cls: type, obj, where: str = ""):
    """The ``cls`` that the JSON object ``obj`` holds; an error names the
    field inside the entity named ``where``."""
    return _read(_plan(cls, where), obj)


def to_json(value) -> dict:
    """The JSON object that holds the dataclass ``value``."""
    out = {}
    for key, write in _plan(type(value)).writers:
        item = getattr(value, key)
        if item is not None:
            out[key] = item if write is None else write(item)
    return out


#: The name the fit-power output is written by.
power_model_to_dict = to_json


def bound_errors(obj, prefix: str = "") -> list[str]:
    """One entry, starting with ``prefix``, per field of the dataclass
    ``obj`` whose value breaks its declared bound."""
    errs = []
    for name, holds, rule in _plan(type(obj)).bounds:
        value = getattr(obj, name)
        if not holds(value):
            errs.append(f"{prefix}{name} must be {rule}, got {value!r}")
    return errs


def check_scalars(config) -> None:
    """``scalar`` on every ``int``, ``float`` and ``bool`` field of the
    dataclass ``config``."""
    for f, hint in _plan(type(config)).fields:
        if hint in _KIND_TEXT:
            scalar(getattr(config, f.name), f"{type(config).__name__}: {f.name}", hint)


def json_object(obj: Mapping, key: str) -> dict:
    """The JSON object at ``key`` of ``obj``, empty if absent."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ModelFormatError(f"{key} must be a JSON object")
    return value


def read_array(cls: type, obj: Mapping, key: str, entity: str) -> list:
    """``from_json(cls, item)`` of each item of the JSON array at ``key`` of
    ``obj``, empty if absent. An error names the array, or the first item
    that is not an object, or the item as ``entity`` formats its id, or by
    its index."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise ModelFormatError(f"{key} must be a JSON array")
    for index, raw in enumerate(items):
        if not isinstance(raw, dict):
            raise ModelFormatError(f"{key}[{index}] must be a JSON object")
    out = []
    for index, raw in enumerate(items):
        try:
            out.append(from_json(cls, raw))
        except MALFORMED as exc:
            where = entity.format(raw["id"]) if "id" in raw else f"{key}[{index}]"
            raise malformed(where, exc) from exc
    return out


def model_from_dict(obj: Mapping) -> DataCenterModel:
    """Build a model. A malformed server, power model or initial VM is
    named as ``scenario_from_dict`` names a template or event."""
    reject_unknown(obj, {f.name for f in fields(DataCenterModel)}, "data center model")
    servers = tuple(read_array(ServerSpec, obj, "servers", "server {}"))
    power_models = {}
    for pm_id, raw in json_object(obj, "power_models").items():
        try:
            power_models[str(pm_id)] = from_json(PowerModel, raw)
        except MALFORMED as exc:
            raise malformed(f"power model {pm_id}", exc) from exc
    initial_vms = tuple(read_array(VmInstance, obj, "initial_vms", "vm {}"))
    power_states = {
        str(k): text(v, f"initial power state for {k}")
        for k, v in json_object(obj, "initial_power_states").items()
    }
    return DataCenterModel(servers, power_models, initial_vms, power_states)


def json_text(obj) -> str:
    """``obj`` as every JSON file dcsim writes holds it: sorted keys at a
    two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True)


def dump_model(model: DataCenterModel) -> str:
    return json_text(to_json(model))


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
