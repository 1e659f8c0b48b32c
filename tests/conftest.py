"""Shared builders for test models and scenarios."""

from __future__ import annotations

import heapq

import pytest

from dcsim.model import (
    POLYNOMIAL,
    BlackBoxTrace,
    DataCenterModel,
    PowerModel,
    ServerSpec,
    VmFlavor,
)
from dcsim.scenario import (
    AbsoluteTime,
    ApplicationTemplate,
    ExperimentScenario,
    RelativeTo,
    StartApplication,
    StopApplication,
    TimelineEvent,
)

CUBIC_PM = PowerModel(POLYNOMIAL, (50.0, 10.0, 5.0, 80.0))
LINEAR_PM = PowerModel(POLYNOMIAL, (50.0, 80.0))


def make_server(server_id: str, cores=4, core_speed=2.5, ram=16384.0,
                pm_id="pm", idle_off=0.0) -> ServerSpec:
    return ServerSpec(
        id=server_id, cores=cores, core_speed=core_speed, ram_capacity=ram,
        power_model_id=pm_id, idle_off_power=idle_off,
    )


def make_model(n_servers=2, ram=16384.0, cores=4, core_speed=2.5,
               pm=LINEAR_PM, idle_off=0.0, initial_vms=()) -> DataCenterModel:
    servers = tuple(
        make_server(f"s{i}", cores=cores, core_speed=core_speed, ram=ram,
                    idle_off=idle_off)
        for i in range(1, n_servers + 1)
    )
    return DataCenterModel(servers, {"pm": pm}, initial_vms=tuple(initial_vms))


def trace_template(segments, vcpus=2, ram=4096.0) -> ApplicationTemplate:
    return ApplicationTemplate(VmFlavor(vcpus, ram), BlackBoxTrace(tuple(segments)))


def start_stop_scenario(start_at=1747.0, stop_offset=1780.0, trace_len=4000.0,
                        demand=5.0) -> ExperimentScenario:
    """The two-event timeline from the example scenario model: a VM started
    at an absolute time and terminated a fixed offset after the start
    completes."""
    template = trace_template([(trace_len, demand)])
    return ExperimentScenario(
        events=[
            TimelineEvent("e1", AbsoluteTime(start_at),
                          StartApplication("tpl", "instance-1e22")),
            TimelineEvent("e2", RelativeTo("e1", stop_offset),
                          StopApplication("e1")),
        ],
        templates={"tpl": template},
    )


@pytest.fixture
def two_server_model() -> DataCenterModel:
    return make_model(2)


def make_harness(model, config=None, placement="best-fit-ram",
                 scenario=None, algorithms=None):
    """A primed engine whose state tests can poke at directly."""
    from dcsim.algorithms import AlgorithmConfig
    from dcsim.engine import SimConfig, _Engine

    engine = _Engine(
        model,
        scenario or ExperimentScenario(events=[]),
        algorithms or AlgorithmConfig(placement=placement),
        config or SimConfig(end_time=1e9),
    )
    engine._install_initial_vms()
    for server_id in engine.sim.servers:
        engine.sim.refresh_host(server_id)
    return engine


def pump(engine, until: float) -> None:
    """Process queued events through the real handlers up to ``until``."""
    while True:
        event = engine.sim.pop_event()
        if event is None:
            break
        if event.time > until:
            # put it back: peeked too far
            heapq.heappush(engine.sim._queue, event)
            break
        engine.sim.now = event.time
        engine.handlers[event.kind](*event.payload)
    engine.sim.now = until
