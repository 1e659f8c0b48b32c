"""Timeline-based experiment scenarios.

A scenario is an ordered timeline of user/operator requests: VM starts and
stops, optimizer reconfiguration. Events trigger either at an absolute
simulation time or relative to the *completion* of another event, which is
what makes orchestrated deployments expressible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

from .algorithms import OPTIMIZER_ALGORITHMS
from .model import (
    MALFORMED,
    ModelFormatError,
    VmFlavor,
    WorkloadModel,
    bound_errors,
    bounded,
    from_json,
    json_document,
    json_object,
    json_text,
    malformed,
    read_array,
    read_json_document,
    reject_unknown,
    tagged,
    to_json,
)

#: A malformed scenario is refused with the error class of a malformed model.
ScenarioError = ModelFormatError


@dataclass(frozen=True)
class AbsoluteTime:
    time: float = bounded("finite and >= 0")  # seconds from scenario start


@dataclass(frozen=True)
class RelativeTo:
    reference: str  # event id whose completion this trigger chains off
    offset: float = bounded("finite and >= 0")  # seconds after the reference completes


Trigger = tagged("type", "trigger type", absolute=AbsoluteTime, relative=RelativeTo)


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
    interval: float = bounded("finite and > 0")  # seconds


Request = tagged(
    "type",
    "request type",
    start_application=StartApplication,
    stop_application=StopApplication,
    reconfigure_optimisation_algorithm=ReconfigureOptimisationAlgorithm,
    change_optimisation_interval=ChangeOptimisationInterval,
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
            f"template {tid!r}",
            bound_errors(template.flavor, "flavor ") + template.workload.check(),
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
                f"event {ev.id!r} flavor_override", bound_errors(req.flavor_override, "flavor ")
            )
        if req.vm_id in scenario_vm_ids:
            raise ScenarioError(
                f"event {ev.id!r} starts duplicate vm id {req.vm_id!r}"
            )
        scenario_vm_ids.add(req.vm_id)

    for ev in scenario.events:
        if problems := bound_errors(ev.trigger) + bound_errors(ev.request):
            raise ScenarioError(f"event {ev.id!r} " + "; ".join(problems))
        if isinstance(ev.trigger, RelativeTo) and ev.trigger.reference not in events:
            raise ScenarioError(
                f"event {ev.id!r} references missing event {ev.trigger.reference!r}"
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


# --- JSON documents -----------------------------------------------------------


def scenario_from_dict(
    obj: Mapping,
    known_vm_ids: Iterable[str] = (),
    workload_files: Mapping[str, str] | None = None,
) -> ExperimentScenario:
    """Build and check a scenario. A malformed template or event is named,
    a malformed workload also by the path it was read from if
    ``workload_files`` has one, and an event that is not an object or has
    no id by its index. Unknown keys are refused at every level."""
    reject_unknown(obj, {f.name for f in fields(ExperimentScenario)}, "scenario")
    templates: dict[str, ApplicationTemplate] = {}
    for tid, raw in json_object(obj, "templates").items():
        try:
            templates[str(tid)] = from_json(ApplicationTemplate, raw)
        except MALFORMED as exc:
            # a fault inside the workload is in its file, if it has one
            inside = str(exc).startswith("workload:")
            path = (workload_files or {}).get(tid) if inside else None
            raise malformed(f"template {tid!r}", exc, path) from exc
    events = read_array(TimelineEvent, obj, "events", "event {!r}")
    scenario = ExperimentScenario(events=events, templates=templates)
    check_scenario(scenario, known_vm_ids)
    return scenario


def serialize_scenario(scenario: ExperimentScenario) -> str:
    """Scenario to a JSON document; inverse of parse_scenario."""
    return json_text(to_json(scenario))


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
