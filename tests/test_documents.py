"""Model and scenario documents round-trip through the one JSON reader and
writer. Values are generated from the dataclass declarations themselves:
every entity class, every member of a tagged union, and each optional
field both given and left at its default."""

import json
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass, replace
from enum import Enum
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcsim.algorithms import OPTIMIZER_ALGORITHMS
from dcsim.model import (
    DataCenterModel,
    ServerSpec,
    VmFlavor,
    VmInstance,
    dump_model,
    from_json,
    parse_model,
    to_json,
)
from dcsim.scenario import (
    AbsoluteTime,
    ApplicationTemplate,
    ChangeOptimisationInterval,
    ExperimentScenario,
    ReconfigureOptimisationAlgorithm,
    RelativeTo,
    ScenarioError,
    StartApplication,
    StopApplication,
    TimelineEvent,
    parse_scenario,
    serialize_scenario,
)

_TEXT = st.text(max_size=6)


@st.composite
def _pairs(draw):
    """Points with strictly increasing positive first values and
    non-negative second values: a valid trace and a valid series alike."""
    xs = sorted(draw(st.lists(st.floats(1e-3, 1e6), unique=True, max_size=4)))
    return tuple((x, draw(st.floats(0.0, 1e3))) for x in xs)


def values(hint):
    """Values of a field annotated ``hint``; numbers keep every declared
    bound, and floats stay floats so that the written bytes are stable."""
    if hint is int:
        return st.integers(1, 64)
    if hint is float:
        return st.floats(1e-3, 1e9)
    if hint is str:
        return _TEXT
    if hint == tuple[tuple[float, float], ...]:
        return _pairs()
    if hint == tuple[float, ...]:
        return st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6).map(tuple)
    if get_origin(hint) is Annotated:
        return st.one_of(*map(entities, hint.__metadata__[0].members.values()))
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(hint)
    if is_dataclass(hint):
        return entities(hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        return st.lists(values(args[0]), max_size=3).map(tuple)
    if origin in (dict, Mapping):
        return st.dictionaries(_TEXT, values(args[1]), max_size=3)
    (member,) = (arg for arg in args if arg is not type(None))  # X | None
    return values(member)


def entities(cls):
    """Instances of the dataclass ``cls``; an optional field holds its
    default or a drawn value."""
    hints = get_type_hints(cls, include_extras=True)
    parts = {}
    for f in fields(cls):
        strategy = values(hints[f.name])
        if f.default is not MISSING:
            strategy = st.one_of(st.just(f.default), strategy)
        parts[f.name] = strategy
    return st.builds(cls, **parts)


@st.composite
def scenarios(draw):
    """Scenarios that ``check_scenario`` accepts: references resolve to
    earlier events, a stop targets a start, and vm ids are unique."""
    templates = draw(st.dictionaries(_TEXT, entities(ApplicationTemplate),
                                     min_size=1, max_size=3))
    events, starts = [], []
    for i in range(draw(st.integers(0, 8))):
        if events and draw(st.booleans()):
            trigger = RelativeTo(draw(st.sampled_from(events)).id, draw(st.floats(0.0, 1e4)))
        else:
            trigger = draw(entities(AbsoluteTime))
        kind = draw(st.sampled_from([StartApplication, ReconfigureOptimisationAlgorithm,
                                     ChangeOptimisationInterval]
                                    + ([StopApplication] if starts else [])))
        if kind is StartApplication:
            request = StartApplication(draw(st.sampled_from(sorted(templates))), f"vm{i}",
                                       draw(st.none() | entities(VmFlavor)))
            starts.append(f"ev{i}")
        elif kind is StopApplication:
            request = StopApplication(draw(st.sampled_from(starts)))
        elif kind is ReconfigureOptimisationAlgorithm:
            request = kind(draw(st.sampled_from(OPTIMIZER_ALGORITHMS)))
        else:
            request = draw(entities(kind))
        events.append(TimelineEvent(f"ev{i}", trigger, request))
    return ExperimentScenario(events=events, templates=templates)


@given(entities(DataCenterModel))
def test_model_round_trip(model):
    text = dump_model(model)
    assert parse_model(text) == model
    assert dump_model(parse_model(text)) == text


@given(scenarios())
def test_scenario_round_trip(scenario):
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert serialize_scenario(parse_scenario(text)) == text


@given(st.sampled_from([ServerSpec, VmInstance, StartApplication]).flatmap(entities))
def test_absent_optional_key_reads_as_its_default(entity):
    defaults = {f.name: f.default for f in fields(entity) if f.default is not MISSING}
    doc = {key: value for key, value in to_json(entity).items() if key not in defaults}
    assert from_json(type(entity), doc) == replace(entity, **defaults)


def test_null_host_reads_as_no_host():
    vm = {"id": "v1", "flavor": {"vcpus": 1, "ram": 1024.0},
          "workload": {"kind": "blackbox_trace", "segments": []}, "host": None}
    model = parse_model(json.dumps({"servers": [], "power_models": {}, "initial_vms": [vm]}))
    assert model.initial_vms[0].host is None


def test_null_flavor_override_is_refused():
    doc = {
        "templates": {"t": {"flavor": {"vcpus": 1, "ram": 1.0},
                            "workload": {"kind": "blackbox_trace", "segments": []}}},
        "events": [{"id": "e1", "trigger": {"type": "absolute", "time": 0.0},
                    "request": {"type": "start_application", "template": "t", "vm_id": "v",
                                "flavor_override": None}}],
    }
    with pytest.raises(ScenarioError,
                       match="^event 'e1': request: flavor_override: must be a JSON object$"):
        parse_scenario(json.dumps(doc))


def test_integer_in_a_number_field_reads_as_a_float():
    server = from_json(ServerSpec, {"id": "s", "cores": 2, "core_speed": 1,
                                    "ram_capacity": 1024, "power_model_id": "pm"})
    assert server == ServerSpec("s", 2, 1.0, 1024.0, "pm")
    assert [type(server.cores), type(server.core_speed), type(server.ram_capacity)] == [
        int, float, float]
