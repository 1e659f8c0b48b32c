"""Timeline-based experiment scenarios.

A scenario is an ordered timeline of user/operator requests: VM starts and
stops, optimizer reconfiguration. Events trigger either at an absolute
simulation time or relative to the *completion* of another event, which is
what makes orchestrated deployments expressible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .algorithms import OPTIMIZER_ALGORITHMS
from .model import (
    MALFORMED,
    ModelFormatError,
    VmFlavor,
    WorkloadModel,
    flavor_from_dict,
    flavor_to_dict,
    json_array,
    json_document,
    json_object,
    json_text,
    kind_of,
    malformed,
    read_json_document,
    reject_unknown,
    scalar,
    text,
    workload_from_dict,
    workload_to_dict,
)

#: A malformed scenario is refused with the error class of a malformed model.
ScenarioError = ModelFormatError


@dataclass(frozen=True)
class AbsoluteTime:
    time: float  # seconds from scenario start


@dataclass(frozen=True)
class RelativeTo:
    reference: str  # event id whose completion this trigger chains off
    offset: float  # seconds after the reference completes


Trigger = AbsoluteTime | RelativeTo


@dataclass(frozen=True)
class StartApplication:
    template: str
    vm_id: str
    flavor_override: VmFlavor | None = None


@dataclass(frozen=True)
class StopApplication:
    #: A VM id, or the id of a StartApplication event in the same scenario
    #: (the VM may not exist yet when the scenario is written).
    target: str


@dataclass(frozen=True)
class ReconfigureOptimisationAlgorithm:
    algorithm: str


@dataclass(frozen=True)
class ChangeOptimisationInterval:
    interval: float  # seconds, > 0


Request = (
    StartApplication
    | StopApplication
    | ReconfigureOptimisationAlgorithm
    | ChangeOptimisationInterval
)


@dataclass(frozen=True)
class TimelineEvent:
    id: str
    trigger: Trigger
    request: Request


@dataclass(frozen=True)
class ApplicationTemplate:
    """What a StartApplication request assembles: flavor and workload."""

    flavor: VmFlavor
    workload: WorkloadModel


@dataclass
class ExperimentScenario:
    events: list[TimelineEvent]
    templates: dict[str, ApplicationTemplate] = field(default_factory=dict)

    def start_events(self) -> list[TimelineEvent]:
        return [ev for ev in self.events if isinstance(ev.request, StartApplication)]


def _raise_problems(where: str, problems: list[str]) -> None:
    if problems:
        raise ScenarioError(f"{where}: " + "; ".join(problems))


def check_scenario(scenario: ExperimentScenario, known_vm_ids: Iterable[str] = ()) -> None:
    """Raise ScenarioError on any violated scenario invariant."""
    for tid, template in scenario.templates.items():
        _raise_problems(
            f"template {tid!r}", template.flavor.check() + template.workload.check()
        )

    events: dict[str, TimelineEvent] = {}
    for ev in scenario.events:
        if ev.id in events:
            raise ScenarioError(f"duplicate event id {ev.id!r}")
        events[ev.id] = ev

    scenario_vm_ids = set(known_vm_ids)
    for ev in scenario.start_events():
        req = ev.request
        if req.template not in scenario.templates:
            raise ScenarioError(
                f"event {ev.id!r} references missing template {req.template!r}"
            )
        if req.flavor_override is not None:
            _raise_problems(
                f"event {ev.id!r} flavor_override", req.flavor_override.check()
            )
        if req.vm_id in scenario_vm_ids:
            raise ScenarioError(
                f"event {ev.id!r} starts duplicate vm id {req.vm_id!r}"
            )
        scenario_vm_ids.add(req.vm_id)

    for ev in scenario.events:
        if isinstance(ev.trigger, AbsoluteTime):
            if not 0 <= ev.trigger.time < math.inf:
                raise ScenarioError(
                    f"event {ev.id!r} absolute time must be finite and >= 0"
                )
        else:
            if ev.trigger.reference not in events:
                raise ScenarioError(
                    f"event {ev.id!r} references missing event {ev.trigger.reference!r}"
                )
            if not 0 <= ev.trigger.offset < math.inf:
                raise ScenarioError(
                    f"event {ev.id!r} relative offset must be finite and >= 0"
                )
        if isinstance(ev.request, StopApplication):
            target = ev.request.target
            if target not in events and target not in scenario_vm_ids:
                raise ScenarioError(
                    f"stop event {ev.id!r} references missing id {target!r}"
                )
            if target in events and not isinstance(
                events[target].request, StartApplication
            ):
                raise ScenarioError(
                    f"stop event {ev.id!r} target {target!r} is not a start event"
                )
        if isinstance(ev.request, ChangeOptimisationInterval):
            if not 0 < ev.request.interval < math.inf:
                raise ScenarioError(f"event {ev.id!r} interval must be finite and > 0")
        if isinstance(ev.request, ReconfigureOptimisationAlgorithm):
            if ev.request.algorithm not in OPTIMIZER_ALGORITHMS:
                raise ScenarioError(
                    f"event {ev.id!r} references unknown optimisation "
                    f"algorithm {ev.request.algorithm!r}"
                )

    # Relative references must not form a cycle.
    edges = {
        ev.id: ev.trigger.reference
        for ev in scenario.events
        if isinstance(ev.trigger, RelativeTo)
    }
    for start in edges:
        seen = {start}
        node = start
        while node in edges:
            node = edges[node]
            if node in seen:
                raise ScenarioError(f"reference cycle involving event {start!r}")
            seen.add(node)


# --- JSON serialization ----------------------------------------------------


def _trigger_to_dict(trigger: Trigger) -> dict:
    if isinstance(trigger, AbsoluteTime):
        return {"type": "absolute", "time": trigger.time}
    return {"type": "relative", "reference": trigger.reference, "offset": trigger.offset}


def _trigger_from_dict(obj: Mapping) -> Trigger:
    kind = kind_of(obj, "trigger", "type")
    if kind == "absolute":
        reject_unknown(obj, {"type", "time"}, "trigger")
        return AbsoluteTime(scalar(obj["time"], "trigger: time"))
    if kind == "relative":
        reject_unknown(obj, {"type", "reference", "offset"}, "trigger")
        return RelativeTo(text(obj["reference"], "trigger: reference"),
                          scalar(obj["offset"], "trigger: offset"))
    raise ScenarioError(f"unknown trigger type {kind!r}")


def _request_to_dict(request: Request) -> dict:
    if isinstance(request, StartApplication):
        out: dict = {
            "type": "start_application",
            "template": request.template,
            "vm_id": request.vm_id,
        }
        if request.flavor_override is not None:
            out["flavor_override"] = flavor_to_dict(request.flavor_override)
        return out
    if isinstance(request, StopApplication):
        return {"type": "stop_application", "target": request.target}
    if isinstance(request, ReconfigureOptimisationAlgorithm):
        return {"type": "reconfigure_optimisation_algorithm", "algorithm": request.algorithm}
    return {"type": "change_optimisation_interval", "interval": request.interval}


def _request_from_dict(obj: Mapping) -> Request:
    kind = kind_of(obj, "request", "type")
    if kind == "start_application":
        reject_unknown(obj, {"type", "template", "vm_id", "flavor_override"}, "request")
        return StartApplication(
            template=text(obj["template"], "request: template"),
            vm_id=text(obj["vm_id"], "request: vm_id"),
            flavor_override=(
                flavor_from_dict(obj["flavor_override"]) if "flavor_override" in obj else None
            ),
        )
    if kind == "stop_application":
        reject_unknown(obj, {"type", "target"}, "request")
        return StopApplication(target=text(obj["target"], "request: target"))
    if kind == "reconfigure_optimisation_algorithm":
        reject_unknown(obj, {"type", "algorithm"}, "request")
        return ReconfigureOptimisationAlgorithm(
            algorithm=text(obj["algorithm"], "request: algorithm")
        )
    if kind == "change_optimisation_interval":
        reject_unknown(obj, {"type", "interval"}, "request")
        return ChangeOptimisationInterval(interval=scalar(obj["interval"], "request: interval"))
    raise ScenarioError(f"unknown request type {kind!r}")


def scenario_to_dict(scenario: ExperimentScenario) -> dict:
    return {
        "templates": {
            tid: {
                "flavor": flavor_to_dict(tpl.flavor),
                "workload": workload_to_dict(tpl.workload),
            }
            for tid, tpl in scenario.templates.items()
        },
        "events": [
            {
                "id": ev.id,
                "trigger": _trigger_to_dict(ev.trigger),
                "request": _request_to_dict(ev.request),
            }
            for ev in scenario.events
        ],
    }


def scenario_from_dict(
    obj: Mapping,
    known_vm_ids: Iterable[str] = (),
    workload_files: Mapping[str, str] | None = None,
) -> ExperimentScenario:
    """Build and check a scenario. A malformed template or event is named,
    a malformed workload also by the path it was read from if
    ``workload_files`` has one, and an event that is not an object or has
    no id by its index. Unknown keys are refused at every level."""
    reject_unknown(obj, {"templates", "events"}, "scenario")
    templates: dict[str, ApplicationTemplate] = {}
    for tid, raw in json_object(obj, "templates").items():
        path = None  # the workload file's, while the workload is read
        try:
            reject_unknown(raw, {"flavor", "workload"})
            flavor = flavor_from_dict(raw["flavor"])
            path = (workload_files or {}).get(tid)
            workload = workload_from_dict(raw["workload"])
        except MALFORMED as exc:
            raise malformed(f"template {tid!r}", exc, path) from exc
        templates[str(tid)] = ApplicationTemplate(flavor, workload)
    events = []
    for index, raw in enumerate(json_array(obj, "events")):
        try:
            reject_unknown(raw, {"id", "trigger", "request"})
            events.append(TimelineEvent(
                id=text(raw["id"], "id"),
                trigger=_trigger_from_dict(raw["trigger"]),
                request=_request_from_dict(raw["request"]),
            ))
        except MALFORMED as exc:
            where = f"event {raw['id']!r}" if "id" in raw else f"events[{index}]"
            raise malformed(where, exc) from exc
    scenario = ExperimentScenario(events=events, templates=templates)
    check_scenario(scenario, known_vm_ids)
    return scenario


def serialize_scenario(scenario: ExperimentScenario) -> str:
    """Scenario to a JSON document; inverse of parse_scenario."""
    return json_text(scenario_to_dict(scenario))


def parse_scenario(source: str, known_vm_ids: Iterable[str] = ()) -> ExperimentScenario:
    """Parse and validate a scenario document.

    ``known_vm_ids`` lets stop requests target VMs that exist outside the
    scenario (the model's initial VMs); anything else must resolve inside
    the document.
    """
    return scenario_from_dict(json_document(source, "scenario"), known_vm_ids)


def load_scenario(path, known_vm_ids: Iterable[str] = ()) -> ExperimentScenario:
    """Load a scenario file, resolving ``{"file": ...}`` workload references.

    Template workloads may be inlined or written as ``{"file": "relative or
    absolute path"}`` pointing at a standalone workload JSON document. Errors
    name the scenario's path, or the template and its workload file's path.
    """
    import os

    obj = read_json_document(path, "scenario")
    base = os.path.dirname(os.path.abspath(path))
    workload_files: dict[str, str] = {}
    for tid, raw in json_object(obj, "templates").items():
        workload = raw.get("workload") if isinstance(raw, dict) else None
        if isinstance(workload, dict) and "file" in workload:
            ref = workload["file"]
            if not isinstance(ref, str):
                raise ScenarioError(f"template {tid!r}: workload file must be a path")
            wl_path = ref if os.path.isabs(ref) else os.path.join(base, ref)
            workload_files[tid] = wl_path
            with open(wl_path, "r", encoding="utf-8") as fh:
                try:
                    raw["workload"] = json.load(fh)
                except ValueError as exc:  # as in json_document
                    raise malformed(f"template {tid!r}", exc, wl_path) from exc
    return scenario_from_dict(obj, known_vm_ids, workload_files)
