"""The report writers' byte contract: the CSV fields against ``csv.writer``,
whole report directories against the ``csv.writer`` / ``json.dump`` writer
they replace, and what ``report.json`` holds."""

from __future__ import annotations

import csv
import io
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcsim.report as report_mod
from dcsim.algorithms import AlgorithmConfig, gen_seasonal_workload
from dcsim.cli import main
from dcsim.engine import SimConfig, run
from dcsim.model import (
    BlackBoxTrace,
    DataCenterModel,
    OpenRequestLoad,
    VmFlavor,
    VmInstance,
)
from dcsim.report import _CsvField, write_report
from dcsim.scenario import (
    AbsoluteTime,
    ApplicationTemplate,
    ExperimentScenario,
    RelativeTo,
    StartApplication,
    StopApplication,
    TimelineEvent,
)
from tests.conftest import LINEAR_PM, make_server, trace_template
from tests.test_cli import _all_feature_inputs


# -- CSV fields ---------------------------------------------------------------

_FIELD_TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "é",
                                                "中", "0", ";", "'"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_FIELD_TEXT, st.text(), st.just("")), min_size=2, max_size=5))
@example(["a,b", 'say "hi"'])
@example(["line\nbreak", "carriage\rreturn"])
def test_csv_fields_match_csv_writer(row):
    buffer = io.StringIO()
    csv.writer(buffer).writerow(row)
    fields = _CsvField()
    assert ",".join(fields[text] for text in row) + "\r\n" == buffer.getvalue()


def test_csv_none_is_the_empty_field():
    buffer = io.StringIO()
    csv.writer(buffer).writerow([None, "x"])
    assert _CsvField({None: ""})[None] + ",x\r\n" == buffer.getvalue()


# -- whole report directories -------------------------------------------------


def _reference_write_report(report, out_dir: str) -> None:
    """The report writer the streamed one replaced: ``csv.writer`` rows and
    ``json.dump``. Kept here as the byte oracle."""
    os.makedirs(out_dir, exist_ok=True)

    def rows(name, header, body):
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in body:
                writer.writerow(row)

    rows("utilization.csv", ["time_s", "server_id", "utilization"],
         ([t, sid, v] for sid, points in report.utilization.items() for t, v in points))
    rows("power.csv", ["time_s", "server_id", "power_w"],
         ([t, sid, v] for sid, points in report.power.items() for t, v in points))
    rows("summary.csv", ["server_id", "energy_wh"],
         [*([sid, e] for sid, e in report.energy_wh.items()), ["TOTAL", report.total_energy_wh]])
    rows("actions.csv", ["time_s", "action", "subject", "outcome"],
         ([a.time, a.action, a.subject, a.outcome] for a in report.actions))
    rows("metrics.csv", ["timestamp_s", "entity_kind", "entity_id", "metric", "value"],
         ([m.time, m.entity_kind, m.entity_id, m.metric, m.value] for m in report.metrics))
    rows("lifecycle.csv",
         ["timestamp_s", "vm_id", "event", "host_id", "flavor_vcpus", "flavor_ram_mib",
          "initiator"],
         ([e.time, e.vm_id, e.event, e.host_id or "", e.vcpus, e.ram, e.initiator]
          for e in report.lifecycle))
    if report.autoscaler_series:
        rows("autoscaler.csv", ["time_s", "application_id", "instances", "rate"],
             report.autoscaler_series)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _assert_same_files(expected_dir: str, actual_dir: str) -> list[str]:
    names = sorted(os.listdir(expected_dir))
    assert sorted(os.listdir(actual_dir)) == names
    for name in names:
        with open(os.path.join(expected_dir, name), "rb") as a, \
                open(os.path.join(actual_dir, name), "rb") as b:
            assert b.read() == a.read(), name
    return names


def test_all_feature_report_matches_reference_writer(tmp_path, monkeypatch):
    """The seeded all-feature run behind the pinned report digest, written by
    ``dcsim simulate``, equals the reference writer's files."""
    model, scenario = _all_feature_inputs(tmp_path)
    streamed = report_mod.write_report

    def both(report, out_dir):
        _reference_write_report(report, str(tmp_path / "reference"))
        return streamed(report, out_dir)

    monkeypatch.setattr(report_mod, "write_report", both)
    assert main([
        "simulate", "--model", model, "--scenario", scenario, "--out", str(tmp_path / "new"),
        "--end", "3600", "--seed", "11", "--placement", "worst-fit-ram",
        "--optimizer", "consolidation", "--autoscaler", "react", "--power-manager",
        "--spare-servers", "1", "--optimizer-interval", "200", "--boot-latency", "5",
        "--placement-latency", "1", "--power-transition-latency", "40",
    ]) == 0
    names = _assert_same_files(str(tmp_path / "reference"), str(tmp_path / "new"))
    assert "autoscaler.csv" in names


def _odd_id_inputs():
    """Servers and VMs whose ids hold a comma, a double quote and a non-ASCII
    letter, with a request tier, a stop, a migration-prone overload and a
    start no server can take."""
    model = DataCenterModel(
        tuple(make_server(sid, ram=8192.0) for sid in ('s,1', 's"2', "sé3")),
        {"pm": LINEAR_PM},
        initial_vms=(
            VmInstance('hot,"é"', VmFlavor(1, 1024.0),
                       BlackBoxTrace(((400.0, 9.0), (300.0, 2.0))),
                       host="s,1"),
        ),
    )
    series = tuple(gen_seasonal_workload(30.0, 2, 1800.0, -1.0, 1.0, seed=4, step=10.0))
    templates = {
        "t,race": trace_template([(300.0, 4.0), (200.0, 1.0)], vcpus=1, ram=2048.0),
        'we"b': ApplicationTemplate(VmFlavor(1, 1024.0),
                                    OpenRequestLoad(series, per_instance_capacity=10.0)),
        "huge": trace_template([(100.0, 1.0)], ram=65536.0),
    }
    events = [
        TimelineEvent("tier", AbsoluteTime(0.0), StartApplication('we"b', 'app,"é"')),
        TimelineEvent("a", AbsoluteTime(30.0), StartApplication("t,race", 'job,1')),
        TimelineEvent("b", AbsoluteTime(60.0), StartApplication("t,race", 'job"2"')),
        TimelineEvent("c", RelativeTo("a", 50.0), StartApplication("t,race", "jobé3")),
        TimelineEvent("stop", RelativeTo("b", 90.0), StopApplication("b")),
        TimelineEvent("big", AbsoluteTime(120.0), StartApplication("huge", "whale,é")),
    ]
    return model, ExperimentScenario(events=events, templates=templates)


def test_report_json_holds_only_what_no_csv_holds(tmp_path):
    """``report.json`` keeps the run's end and seed, the VM records, the
    instance counts and the action log; the server series, the energies and
    the autoscaler series are only in their CSVs."""
    model, scenario = _odd_id_inputs()
    report = run(model, scenario, AlgorithmConfig(autoscaler="react"),
                 SimConfig(end_time=600.0, seed=3))
    write_report(report, str(tmp_path))
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"actions", "app_instance_counts", "end_time", "seed", "vms"}


@pytest.mark.parametrize("autoscaler", ["react", "none"])
def test_odd_ids_match_reference_writer(tmp_path, autoscaler):
    """Ids that need CSV quoting or JSON escapes give the reference bytes; a
    run with no autoscaler writes no autoscaler.csv."""
    model, scenario = _odd_id_inputs()
    report = run(
        model, scenario,
        AlgorithmConfig(optimizer="consolidation", autoscaler=autoscaler),
        SimConfig(end_time=1800.0, optimizer_interval=200.0, boot_latency=5.0, seed=3),
    )
    assert any('"' in a.subject and "," in a.subject for a in report.actions)
    assert any("," in a.outcome for a in report.actions)
    write_report(report, str(tmp_path / "new"))
    _reference_write_report(report, str(tmp_path / "reference"))
    names = _assert_same_files(str(tmp_path / "reference"), str(tmp_path / "new"))
    assert ("autoscaler.csv" in names) == (autoscaler != "none")
