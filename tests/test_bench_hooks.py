"""The benchmark's span hooks still reach the program, its inputs load, and
its rounds write the bytes they wrote before.

``bench/spans.instrument`` wraps program functions where their callers look
them up by name. A rename or a changed call path in ``src`` would leave a
wrapper that is never called; this test fails on that, instead of only a
traced benchmark run (``bench/run.py --trace 1``) showing a zero count.
Likewise an input rule that refused a document ``bench/inputs.py`` writes
fails here, not in a benchmark run, and a change that moves a byte of a
round's outputs fails here, not only in a benchmark run's digest.
"""

from __future__ import annotations

import json
import os

import pytest

import dcsim.algorithms as algorithms_mod
import dcsim.correspondence as corr_mod
import dcsim.engine as engine_mod
import dcsim.extraction as extraction_mod
import dcsim.model as model_mod
import dcsim.scenario as scenario_mod
import dcsim.state as state_mod
from dcsim.algorithms import AlgorithmConfig
from dcsim.report import write_report
from tests.test_engine import _all_feature_engine

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

#: Every span and count that ``instrument`` records through a wrapper.
#: ``algorithms.autoscaler`` appears only while the engine calls
#: ``react_decide`` and ``reg_decide`` by their module-global names.
WRAPPED = (
    "model.validate", "model.rate_at", "scenario.check", "state.events_scheduled",
    "state.refresh_host", "state.advance_host", "state.recompute_app_demand",
    "state.server_utilization", "engine.sample_measurements",
    "correspondence.sync_measurements", "correspondence.enact", "algorithms.placement",
    "algorithms.optimizer", "algorithms.manage_power", "algorithms.autoscaler",
    "extraction.entity_samples", "extraction.host_at",
    "extraction.extract_blackbox_workload",
)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    return spans


@pytest.fixture
def bench_inputs(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import inputs

    return inputs


def _bindings() -> dict:
    """Every name the hooks may rebind, with what it is bound to."""
    owners = (algorithms_mod, corr_mod, engine_mod, extraction_mod, model_mod, scenario_mod,
              state_mod, state_mod.SimulationState, model_mod.OpenRequestLoad,
              extraction_mod.MeasurementStore, algorithms_mod.PLACEMENT_FUNCTIONS,
              algorithms_mod.OPTIMIZER_FUNCTIONS)
    return {
        (id(owner), name): value
        for owner in owners
        for name, value in (owner if isinstance(owner, dict) else vars(owner)).items()
    }


def test_every_hook_is_called_and_restored(spans, tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        engine = _all_feature_engine()
        report = engine.run()
        out = str(tmp_path / "report")
        write_report(report, out)
        store = extraction_mod.ingest_measurements(
            os.path.join(out, "metrics.csv"), os.path.join(out, "lifecycle.csv")
        )
        result = extraction_mod.extract_scenario(
            store, window=(0.0, engine.config.end_time), servers=None,
            exclude_autoscaler=False, infrastructure=engine.model,
        )
    assert result.extracted_vm_ids
    calls = tracer.calls()
    assert [name for name in WRAPPED if not calls[name]] == []
    assert [kind for kind in spans.EVENT_KINDS if not calls[f"state.events_popped.{kind}"]] == []
    after = _bindings()
    assert {key: value for key, value in after.items() if key in before} == before


@pytest.mark.parametrize("workload, size", [
    ("batch-fleet", 4), ("autoscale-tiers", 1), ("trace-roundtrip", 10),
])
def test_bench_inputs_load(bench_inputs, tmp_path, workload, size):
    """Each workload's generated model, scenario and configs pass the
    program's own loaders and checks."""
    bench_inputs.generate(workload, 1, size, str(tmp_path))
    model = model_mod.load_model(str(tmp_path / "model.json"))
    assert model_mod.validate(model) == []
    scenario = scenario_mod.load_scenario(
        str(tmp_path / "scenario.json"), known_vm_ids=[vm.id for vm in model.initial_vms]
    )
    assert scenario.events
    with open(tmp_path / "config.json") as fh:
        config = json.load(fh)
    engine_mod.SimConfig(**config["sim"])
    for algorithms in config["algorithms"]:
        AlgorithmConfig.from_dict(algorithms)


#: SHA-256 (``workloads.digest``) of one untraced round's outputs per workload,
#: on the seed-1 inputs of the given size.
ROUND_DIGESTS = [
    ("batch-fleet", 4, "48a9f67b4e327f4aae23f8a677fb3a731665b7d531c819a0bf84c1e41c88210e"),
    ("autoscale-tiers", 1, "f69612a3fd762fb1824dca6350b5718cf61584efe32c609d2995fb0763b2a95d"),
    ("trace-roundtrip", 10, "abc21fb6d4a8a2579c0c8ffa9c5439692ae0d777e982d881efe7fe50fcdd439c"),
]


@pytest.mark.parametrize("workload, size, sha256", ROUND_DIGESTS,
                         ids=[workload for workload, _, _ in ROUND_DIGESTS])
def test_bench_round_bytes(bench_inputs, tmp_path, workload, size, sha256):
    """A round of each workload, run as the benchmark runs it, writes
    exactly the pinned bytes: reports, extracted scenario and power fits."""
    import run
    import workloads

    inputs_dir = str(tmp_path / "inputs")
    bench_inputs.generate(workload, 1, size, inputs_dir)
    if workload == "trace-roundtrip":
        run._source_run(inputs_dir)
    out = str(tmp_path / "out")
    workloads.ROUNDS[workload](workloads.Round(None, out), inputs_dir)
    assert workloads.digest(out) == sha256
