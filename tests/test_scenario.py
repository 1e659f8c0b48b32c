import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcsim.model import VmFlavor
from dcsim.scenario import (
    AbsoluteTime,
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
from tests.conftest import trace_template

START_STOP_DOC = json.dumps(
    {
        "templates": {
            "tpl": {
                "flavor": {"vcpus": 2, "ram": 4096},
                "workload": {"kind": "blackbox_trace", "segments": [[4000, 5.0]]},
            }
        },
        "events": [
            {
                "id": "e1",
                "trigger": {"type": "absolute", "time": 1747},
                "request": {
                    "type": "start_application",
                    "template": "tpl",
                    "vm_id": "instance-1e22",
                },
            },
            {
                "id": "e2",
                "trigger": {"type": "relative", "reference": "e1", "offset": 1780},
                "request": {"type": "stop_application", "target": "e1"},
            },
        ],
    }
)


class TestParse:
    def test_start_stop_pair(self):
        scenario = parse_scenario(START_STOP_DOC)
        assert len(scenario.events) == 2
        assert scenario.events[0].trigger == AbsoluteTime(1747.0)
        assert scenario.events[1].trigger == RelativeTo("e1", 1780.0)

    def test_empty_events(self):
        scenario = parse_scenario('{"templates": {}, "events": []}')
        assert scenario.events == []

    def test_dangling_stop_reference(self):
        doc = json.dumps(
            {
                "templates": {},
                "events": [
                    {
                        "id": "stop",
                        "trigger": {"type": "absolute", "time": 0},
                        "request": {"type": "stop_application", "target": "e99"},
                    }
                ],
            }
        )
        with pytest.raises(ScenarioError, match="e99"):
            parse_scenario(doc)

    def test_stop_may_target_known_vm(self):
        doc = json.dumps(
            {
                "templates": {},
                "events": [
                    {
                        "id": "stop",
                        "trigger": {"type": "absolute", "time": 0},
                        "request": {"type": "stop_application", "target": "vm-7"},
                    }
                ],
            }
        )
        scenario = parse_scenario(doc, known_vm_ids=["vm-7"])
        assert scenario.events[0].request == StopApplication("vm-7")

    def test_duplicate_event_id(self):
        doc = json.dumps(
            {
                "templates": {},
                "events": [
                    {"id": "e", "trigger": {"type": "absolute", "time": 0},
                     "request": {"type": "change_optimisation_interval", "interval": 5}},
                    {"id": "e", "trigger": {"type": "absolute", "time": 1},
                     "request": {"type": "change_optimisation_interval", "interval": 5}},
                ],
            }
        )
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(doc)

    def test_reference_cycle(self):
        doc = json.dumps(
            {
                "templates": {},
                "events": [
                    {"id": "a", "trigger": {"type": "relative", "reference": "b", "offset": 1},
                     "request": {"type": "change_optimisation_interval", "interval": 5}},
                    {"id": "b", "trigger": {"type": "relative", "reference": "a", "offset": 1},
                     "request": {"type": "change_optimisation_interval", "interval": 5}},
                ],
            }
        )
        with pytest.raises(ScenarioError, match="cycle"):
            parse_scenario(doc)

    def test_dangling_trigger_reference(self):
        doc = json.dumps(
            {
                "templates": {},
                "events": [
                    {"id": "a", "trigger": {"type": "relative", "reference": "zz", "offset": 1},
                     "request": {"type": "change_optimisation_interval", "interval": 5}},
                ],
            }
        )
        with pytest.raises(ScenarioError, match="zz"):
            parse_scenario(doc)

    def test_missing_template(self):
        doc = json.dumps(
            {
                "templates": {},
                "events": [
                    {"id": "a", "trigger": {"type": "absolute", "time": 0},
                     "request": {"type": "start_application", "template": "t", "vm_id": "v"}},
                ],
            }
        )
        with pytest.raises(ScenarioError, match="template"):
            parse_scenario(doc)


class TestSerialize:
    def test_start_stop_round_trip(self):
        scenario = parse_scenario(START_STOP_DOC)
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_empty_round_trip(self):
        scenario = ExperimentScenario(events=[])
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_all_request_variants_round_trip(self):
        scenario = ExperimentScenario(
            events=[
                TimelineEvent("e1", AbsoluteTime(0.0),
                              StartApplication("tpl", "vm-a")),
                TimelineEvent("e2", RelativeTo("e1", 10.0), StopApplication("e1")),
                TimelineEvent("e3", AbsoluteTime(5.0),
                              ReconfigureOptimisationAlgorithm("load-balance")),
                TimelineEvent("e4", AbsoluteTime(6.0),
                              ChangeOptimisationInterval(120.0)),
                TimelineEvent("e5", AbsoluteTime(7.0),
                              StartApplication("tpl", "vm-b", VmFlavor(4, 8192.0))),
            ],
            templates={"tpl": trace_template([(100.0, 1.0)])},
        )
        assert parse_scenario(serialize_scenario(scenario)) == scenario


# Random valid scenarios for the round-trip property.
@st.composite
def scenarios(draw):
    n = draw(st.integers(0, 8))
    events = []
    templates = {}
    start_ids = []
    for i in range(n):
        event_id = f"ev{i}"
        if i and draw(st.booleans()):
            ref = draw(st.sampled_from([e.id for e in events]))
            trigger = RelativeTo(ref, draw(st.floats(0, 1e4)))
        else:
            trigger = AbsoluteTime(draw(st.floats(0, 1e5)))
        choice = draw(st.integers(0, 3 if start_ids else 2))
        if choice == 0:
            tpl_id = f"tpl{i}"
            templates[tpl_id] = trace_template(
                [(draw(st.floats(1, 1e4)), draw(st.floats(0, 50)))]
            )
            request = StartApplication(tpl_id, f"vm{i}")
            start_ids.append(event_id)
        elif choice == 1:
            request = ReconfigureOptimisationAlgorithm(
                draw(st.sampled_from(["consolidation", "load-balance", "none"]))
            )
        elif choice == 2:
            request = ChangeOptimisationInterval(draw(st.floats(1, 1e4)))
        else:
            request = StopApplication(draw(st.sampled_from(start_ids)))
        events.append(TimelineEvent(event_id, trigger, request))
    return ExperimentScenario(events=events, templates=templates)


@given(scenarios())
def test_round_trip_property(scenario):
    assert parse_scenario(serialize_scenario(scenario)) == scenario
