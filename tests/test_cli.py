import collections
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys

import pytest

from dcsim.cli import main, relative_error
from dcsim.model import (
    BlackBoxTrace,
    ModelFormatError,
    VmFlavor,
    VmInstance,
    dump_model,
    load_model,
    parse_model,
    validate,
)
from dcsim.scenario import ScenarioError, load_scenario, parse_scenario, serialize_scenario
from tests.conftest import make_model, start_stop_scenario


class TestRelativeError:
    def test_low_error_row(self):
        assert relative_error(5443.0, 5464.0) == pytest.approx(0.003858, abs=1e-6)

    def test_high_error_row(self):
        assert relative_error(5238.0, 5609.0) == pytest.approx(0.070829, abs=1e-6)

    def test_long_run_row(self):
        assert relative_error(13558.0, 12826.0) == pytest.approx(0.053990, abs=1e-6)

    def test_identity(self):
        assert relative_error(123.4, 123.4) == 0.0

    def test_zero_measured(self):
        with pytest.raises(ValueError):
            relative_error(0.0, 10.0)


@pytest.fixture
def inputs(tmp_path):
    model_path = tmp_path / "dc.json"
    model_path.write_text(dump_model(make_model(2)))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(serialize_scenario(start_stop_scenario()))
    return tmp_path, str(model_path), str(scenario_path)


#: An initial VM as the model file holds it.
VM_V1 = {"id": "v1", "flavor": {"vcpus": 1, "ram": 1024.0},
         "workload": {"kind": "blackbox_trace", "segments": [[100.0, 1.0]]}, "host": "s1"}


def simulate_args(model, scenario, out, **extra):
    args = [
        "simulate", "--model", model, "--scenario", scenario,
        "--end", "5400", "--seed", "7", "--out", out,
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


class TestSimulate:
    def test_writes_reports(self, inputs, capsys):
        tmp_path, model, scenario = inputs
        out = str(tmp_path / "run1")
        assert main(simulate_args(model, scenario, out)) == 0
        with open(os.path.join(out, "summary.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["server_id", "energy_wh"]
        assert rows[-1][0] == "TOTAL"
        assert float(rows[-1][1]) > 0
        for name in ("utilization.csv", "power.csv", "actions.csv",
                     "metrics.csv", "lifecycle.csv", "report.json"):
            assert os.path.exists(os.path.join(out, name))
        assert "total energy" in capsys.readouterr().out

    def test_missing_scenario_exits_2(self, inputs, capsys):
        tmp_path, model, _ = inputs
        code = main(simulate_args(model, str(tmp_path / "nope.json"),
                                  str(tmp_path / "out")))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_model_exits_2(self, inputs, tmp_path, capsys):
        _, _, scenario = inputs
        bad = tmp_path / "bad.json"
        bad.write_text('{"servers": [], "power_models": {}, "bogus": 1}')
        assert main(simulate_args(str(bad), scenario, str(tmp_path / "out"))) == 2

    @pytest.mark.parametrize("state", ["booting", "migrating", "running"])
    def test_initial_vm_not_running_exits_2(self, inputs, capsys, state):
        """An initial VM runs on its host from the start; a model that
        gives it a state, even ``running``, is refused."""
        tmp_path, model, scenario = inputs
        vm = VmInstance("v1", VmFlavor(1, 1024.0), BlackBoxTrace(((100.0, 1.0),)), host="s1")
        doc = json.loads(dump_model(make_model(2, initial_vms=[vm])))
        doc["initial_vms"][0]["state"] = state
        with open(model, "w") as fh:
            json.dump(doc, fh)
        assert main(simulate_args(model, scenario, str(tmp_path / "out"))) == 2
        assert "error: vm v1: unknown keys ['state']" in capsys.readouterr().err

    @pytest.mark.parametrize("document, path, value, entity", [
        ("model", ("servers", 0, "core_speed"), math.nan, "server s1"),
        ("model", ("servers", 0, "ram_capacity"), math.inf, "server s1"),
        ("model", ("power_models", "pm", "coefficients", 0), math.nan, "power model pm"),
        ("scenario", ("templates", "tpl", "flavor", "vcpus"), 0, "template 'tpl'"),
        ("scenario", ("templates", "tpl", "flavor", "ram"), -4096.0, "template 'tpl'"),
        ("scenario", ("templates", "tpl", "flavor", "ram"), math.nan, "template 'tpl'"),
        ("scenario", ("templates", "tpl", "workload", "segments", 0), [-50.0, -1.0],
         "template 'tpl'"),
        ("scenario", ("events", 0, "trigger", "time"), math.nan, "event 'e1'"),
        ("scenario", ("events", 1, "trigger", "offset"), math.inf, "event 'e2'"),
        ("scenario", ("events", 0, "request", "flavor_override"),
         {"vcpus": 1, "ram": math.nan}, "event 'e1'"),
        ("model", ("servers", 0, "cores"), True, "server s1: cores must be an integer, got True"),
        ("model", ("servers", 0, "idle_off_power"), False, "server s1: idle_off_power must be"),
        ("model", ("power_models", "pm", "coefficients", 0), True,
         "power model pm: coefficients must be numbers"),
        ("model", ("initial_vms",), [dict(VM_V1, flavor={"vcpus": True, "ram": 1024.0})],
         "vm v1: flavor: vcpus must be an integer"),
        ("model", ("initial_vms",),
         [dict(VM_V1, workload={"kind": "blackbox_trace", "segments": [[100.0, False]]})],
         "vm v1: workload: segments must hold numbers"),
        ("scenario", ("templates", "tpl", "flavor", "vcpus"), True, "template 'tpl'"),
        ("scenario", ("templates", "tpl", "flavor", "ram"), True, "template 'tpl'"),
        ("scenario", ("templates", "tpl", "workload", "segments", 0), [True, 1.0],
         "template 'tpl'"),
        ("scenario", ("templates", "tpl", "workload"),
         {"kind": "open_request_load", "series": [[0.0, True]], "per_instance_capacity": 10.0},
         "template 'tpl': workload: series must hold numbers"),
        ("scenario", ("templates", "tpl", "workload"),
         {"kind": "open_request_load", "series": [[0.0, 5.0]], "per_instance_capacity": True},
         "template 'tpl': workload: per_instance_capacity must be a number"),
        ("scenario", ("events", 0, "trigger", "time"), True, "event 'e1'"),
        ("scenario", ("events", 1, "trigger", "offset"), False, "event 'e2'"),
        ("scenario", ("events", 0, "request", "flavor_override"),
         {"vcpus": True, "ram": 1024.0}, "event 'e1'"),
        ("scenario", ("events", 0, "request"),
         {"type": "change_optimisation_interval", "interval": True},
         "event 'e1': request: interval must be a number"),
        ("model", ("servers", 1, "id"), "s1", "duplicate server id s1"),
        ("model", ("initial_vms",), [VM_V1, VM_V1], "duplicate vm id v1"),
        ("model", ("initial_vms",), [dict(VM_V1, host="s9")],
         "initial vm v1 placed on unknown server s9"),
        ("model", ("initial_power_states",), {"s1": "standby"},
         "initial power state for s1 must be on/off"),
        ("model", ("servers", 0, "cores"), 0, "server s1: cores must be >= 1"),
        ("model", ("servers", 0, "idle_off_power"), -1.0,
         "server s1: idle_off_power must be finite and >= 0"),
        ("scenario", ("events", 1, "request", "target"), "e2",
         "stop event 'e2' target 'e2' is not a start event"),
        ("scenario", ("events", 0, "request"),
         {"type": "change_optimisation_interval", "interval": 0.0},
         "event 'e1' interval must be finite and > 0"),
        ("model", ("servers", 0, "cores"), "4", "server s1: cores must be an integer, got '4'"),
        ("model", ("servers", 0, "cores"), 2.5, "server s1: cores must be an integer, got 2.5"),
        ("model", ("power_models", "pm", "coefficients", 0), "50",
         "power model pm: coefficients must be numbers"),
        ("scenario", ("templates", "tpl", "flavor", "vcpus"), 1.5,
         "template 'tpl': flavor: vcpus must be an integer, got 1.5"),
        ("model", ("servers", 0, "has_power_meter"), True,
         "server s1: unknown keys ['has_power_meter']"),
        ("scenario", ("events", 0, "trigger", "time"), "5",
         "event 'e1': trigger: time must be a number, got '5'"),
        ("scenario", ("events", 0, "request"),
         {"type": "change_optimisation_interval", "interval": "60"},
         "event 'e1': request: interval must be a number, got '60'"),
        ("model", ("servers", 0, "power_model_id"), None,
         "server s1: power_model_id must be a string, got None"),
        ("model", ("servers", 0, "id"), 7, "server 7: id must be a string, got 7"),
        ("model", ("initial_vms",), [dict(VM_V1, host=1)], "vm v1: host must be a string, got 1"),
        ("model", ("power_models", "pm", "family"), 1,
         "power model pm: family must be a string, got 1"),
        ("model", ("initial_power_states",), {"s1": False},
         "initial power state for s1 must be a string, got False"),
        ("scenario", ("templates", "tpl", "parameters"), {},
         "template 'tpl': unknown keys ['parameters']"),
        ("scenario", ("events", 0, "request", "vm_id"), 5,
         "event 'e1': request: vm_id must be a string, got 5"),
        ("scenario", ("events", 0, "request", "template"), None,
         "event 'e1': request: template must be a string, got None"),
        ("scenario", ("events", 1, "trigger", "reference"), 5,
         "event 'e2': trigger: reference must be a string, got 5"),
        ("scenario", ("events", 1, "request", "target"), None,
         "event 'e2': request: target must be a string, got None"),
        ("model", ("power_models", "pm"),
         {"family": "polynomial_plus_exponential",
          "coefficients": [50.0, 10.0, 5.0, 80.0, 1e-300, 1269.0]},
         "power model pm: power at utilization 1 must be finite, got inf"),
        pytest.param("model", ("servers", 0, "ram_capacity"), 10**400,
                     "server s1: ram_capacity: integer too large for a float",
                     id="model-ram_capacity-10**400"),
        pytest.param("model", ("power_models", "pm", "coefficients", 0), 10**400,
                     "power model pm: coefficients: integer too large for a float",
                     id="model-coefficient-10**400"),
        pytest.param("scenario", ("templates", "tpl", "workload", "segments", 0, 1), 10**400,
                     "template 'tpl': workload: segments: integer too large for a float",
                     id="scenario-segment-demand-10**400"),
        ("model", ("power_models", "pm"), "linear", "power model pm: must be a JSON object"),
        ("scenario", ("events", 0, "request"),
         {"type": "reconfigure_optimisation_algorithm", "algorithm": "fancy"},
         "event 'e1' references unknown optimisation algorithm 'fancy'"),
        ("scenario", ("templates", "tpl", "flavor"), "big",
         "template 'tpl': flavor: must be a JSON object"),
        # only an absent flavor_override means "no override"
        *(pytest.param("scenario", ("events", 0, "request", "flavor_override"), value,
                       "event 'e1': ", id=f"flavor_override-{value!r}")
          for value in ({}, [], 0, False, "", None)),
        # each shape error says what the field must be
        pytest.param("scenario", ("templates", "tpl", "workload"), [1],
                     "template 'tpl': workload: must be a JSON object", id="workload-list"),
        pytest.param("model", ("initial_vms",), [dict(VM_V1, workload=[1])],
                     "vm v1: workload: must be a JSON object", id="vm-workload-list"),
        pytest.param("scenario", ("events", 0, "trigger"), [],
                     "event 'e1': trigger: must be a JSON object", id="trigger-list"),
        pytest.param("scenario", ("events", 0, "request"), 5,
                     "event 'e1': request: must be a JSON object", id="request-int"),
        *(pytest.param("scenario", ("templates", "tpl", "workload", "segments"), value,
                       "template 'tpl': workload: segments must hold numbers as a JSON array "
                       "of [x, y] pairs", id=f"segments-{value!r}")
          for value in (5, [5], [[1, 1, 1]])),
        pytest.param("model", ("power_models", "pm", "coefficients"), 5,
                     "power model pm: coefficients must be numbers in an array, got 5",
                     id="coefficients-int"),
        pytest.param("model", ("initial_vms",), [dict(VM_V1, initiator=5)],
                     "vm v1: initiator must be one of ['tenant', 'autoscaler'], got 5",
                     id="initiator-int"),
        pytest.param("model", ("servers", 0, "cores"), 10**400,
                     "server s1: cores: integer too large for a float",
                     id="model-cores-10**400"),
        pytest.param("scenario", ("templates", "tpl", "flavor", "vcpus"), 10**400,
                     "template 'tpl': flavor: vcpus: integer too large for a float",
                     id="scenario-vcpus-10**400"),
    ])
    def test_malformed_value_names_entity(self, inputs, capsys, document, path, value,
                                          entity):
        tmp_path, model, scenario = inputs
        target = model if document == "model" else scenario
        with open(target) as fh:
            obj = json.load(fh)
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        text = json.dumps(obj)  # writes NaN/Infinity, which the loaders accept
        with open(target, "w") as fh:
            fh.write(text)
        if document == "model":
            try:
                problems = validate(parse_model(text))
            except ModelFormatError as exc:  # a value of the wrong type is refused as it loads
                problems = [str(exc)]
            assert any(entity in problem for problem in problems)
        else:
            with pytest.raises(ScenarioError, match=re.escape(entity)):
                parse_scenario(text)
        assert main(simulate_args(model, scenario, str(tmp_path / "out"))) == 2
        assert entity in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("not json", "Expecting value"),
        ('{"kind": "bogus"}', "unknown kind 'bogus'"),
        ('{"kind": "blackbox_trace", "segments": [[1, 1]], "x": 1}', "unknown keys"),
        ('{"kind": "blackbox_trace"}', "missing key 'segments'"),
        ("[1, 2]", "workload: must be a JSON object"),
    ])
    def test_workload_file_error_names_template_and_path(self, inputs, capsys, text,
                                                         message):
        tmp_path, model, scenario = inputs
        with open(scenario) as fh:
            obj = json.load(fh)
        obj["templates"]["tpl"]["workload"] = {"file": "wl.json"}
        with open(scenario, "w") as fh:
            json.dump(obj, fh)
        wl_path = str(tmp_path / "wl.json")
        with open(wl_path, "w") as fh:
            fh.write(text)
        with pytest.raises(ScenarioError) as info:
            load_scenario(scenario)
        assert str(info.value).startswith(f"template 'tpl' ({wl_path}): ")
        assert message in str(info.value)
        assert main(simulate_args(model, scenario, str(tmp_path / "out"))) == 2
        assert f"error: template 'tpl' ({wl_path}): " in capsys.readouterr().err

    def test_scenario_fault_beside_workload_file_names_no_path(self, inputs, capsys):
        # the workload file is sound; the typo is in the scenario document
        tmp_path, model, scenario = inputs
        with open(scenario) as fh:
            obj = json.load(fh)
        template = obj["templates"]["tpl"]
        (tmp_path / "wl.json").write_text(json.dumps(template["workload"]))
        template["workload"] = {"file": "wl.json"}
        template["paramters"] = {}
        with open(scenario, "w") as fh:
            json.dump(obj, fh)
        message = "template 'tpl': unknown keys ['paramters']"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(scenario)
        assert main(simulate_args(model, scenario, str(tmp_path / "out"))) == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    # past the 4,300-digit int/str limit, json raises a plain ValueError
    @pytest.mark.parametrize("text", [
        "{", "[1, 2]", pytest.param('{"events": ' + "9" * 5000 + "}", id="digit-limit"),
    ])
    def test_malformed_scenario_file_names_path(self, inputs, capsys, text):
        tmp_path, model, scenario = inputs
        with open(scenario, "w") as fh:
            fh.write(text)
        with pytest.raises(ScenarioError, match="^" + re.escape(scenario) + ": "):
            load_scenario(scenario)
        assert main(simulate_args(model, scenario, str(tmp_path / "out"))) == 2
        assert f"error: {scenario}: " in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("request", "vm_id"), None, "missing key 'vm_id'"),
        (("trigger", "time"), "soon", "must be a number"),
        (("request", "type"), "reboot", "unknown request type 'reboot'"),
        (("trigger", "type"), "later", "unknown trigger type 'later'"),
    ])
    def test_malformed_event_names_event(self, inputs, capsys, path, value, message):
        tmp_path, model, scenario = inputs
        with open(scenario) as fh:
            obj = json.load(fh)
        node = obj["events"][0][path[0]]
        if value is None:
            del node[path[1]]
        else:
            node[path[1]] = value
        with open(scenario, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(ScenarioError, match=f"^event 'e1': .*{re.escape(message)}"):
            load_scenario(scenario)
        assert main(simulate_args(model, scenario, str(tmp_path / "out"))) == 2
        assert "error: event 'e1': " in capsys.readouterr().err

    @pytest.mark.parametrize("document, mutate, message", [
        ("scenario", lambda doc: doc.update(templates=[1]), "templates must be a JSON object"),
        ("scenario", lambda doc: doc["templates"].update(tpl=1), "template 'tpl': "),
        ("scenario", lambda doc: doc["templates"]["tpl"].update(workload={"file": 5}),
         "template 'tpl': workload file must be a path"),
        ("scenario", lambda doc: doc.update(events=5), "events must be a JSON array"),
        ("scenario", lambda doc: doc["events"].append(1), "events[2] must be a JSON object"),
        ("model", lambda doc: doc["servers"][0].pop("cores"), "server s1: missing key 'cores'"),
        ("model", lambda doc: doc.update(servers=[1]), "servers[0] must be a JSON object"),
        ("model", lambda doc: doc.update(initial_vms=[dict(
            VM_V1, workload={"kind": "blackbox_trace", "segments": [[1.0]]})]), "vm v1: "),
        ("scenario", lambda doc: doc["events"][0].pop("id"), "events[0]: missing key 'id'"),
        ("scenario", lambda doc: doc["events"][1].update(id=["e2"]),
         "event ['e2']: id must be a string, got ['e2']"),
        ("model", lambda doc: doc["servers"][1].pop("id"), "servers[1]: missing key 'id'"),
        ("model", lambda doc: doc.update(initial_vms=[
            VM_V1, {key: value for key, value in VM_V1.items() if key != "id"}]),
         "initial_vms[1]: missing key 'id'"),
        ("scenario", lambda doc: doc.update(event=doc.pop("events")),
         "scenario: unknown keys ['event']"),
        ("scenario", lambda doc: doc["templates"]["tpl"].update(flavour={"vcpus": 1}),
         "template 'tpl': unknown keys ['flavour']"),
        ("scenario", lambda doc: doc["events"][0].update(delay=5.0),
         "event 'e1': unknown keys ['delay']"),
        ("scenario", lambda doc: doc["events"].append({"at": 5.0}),
         "events[2]: unknown keys ['at']"),
        ("scenario", lambda doc: doc["events"][0]["trigger"].update(offset=5.0),
         "event 'e1': trigger: unknown keys ['offset']"),
        ("scenario", lambda doc: doc["events"][1]["trigger"].update(time=5.0),
         "event 'e2': trigger: unknown keys ['time']"),
        ("scenario", lambda doc: doc["events"][0]["request"].update(
            flavour_override={"vcpus": 2, "ram": 2048.0}),
         "event 'e1': request: unknown keys ['flavour_override']"),
        ("scenario", lambda doc: doc["events"][1]["request"].update(vm_id="x"),
         "event 'e2': request: unknown keys ['vm_id']"),
        ("scenario", lambda doc: doc["events"].append({
            "id": "e3", "trigger": {"type": "absolute", "time": 1.0},
            "request": {"type": "reconfigure_optimisation_algorithm", "algorithm": "none",
                        "interval": 60.0}}),
         "event 'e3': request: unknown keys ['interval']"),
        ("scenario", lambda doc: doc["events"].append({
            "id": "e3", "trigger": {"type": "absolute", "time": 1.0},
            "request": {"type": "change_optimisation_interval", "interval": 60.0,
                        "algorithm": "none"}}),
         "event 'e3': request: unknown keys ['algorithm']"),
        ("scenario", lambda doc: doc["events"][0].pop("trigger"),
         "event 'e1': missing key 'trigger'"),
        ("scenario", lambda doc: doc["events"][1].pop("request"),
         "event 'e2': missing key 'request'"),
    ], ids=["templates-list", "template-int", "workload-file-int", "events-int", "event-int",
            "server-without-cores", "server-int", "segment-one-number", "event-without-id",
            "event-list-id", "server-without-id", "vm-without-id", "scenario-unknown-key",
            "template-unknown-key", "event-unknown-key", "indexed-event-unknown-key",
            "absolute-trigger-unknown-key", "relative-trigger-unknown-key",
            "start-unknown-key", "stop-unknown-key", "reconfigure-unknown-key",
            "interval-unknown-key", "event-without-trigger", "event-without-request"])
    def test_malformed_shape_names_entity(self, inputs, capsys, document, mutate, message):
        tmp_path, model, scenario = inputs
        target = model if document == "model" else scenario
        with open(target) as fh:
            obj = json.load(fh)
        mutate(obj)
        with open(target, "w") as fh:
            json.dump(obj, fh)
        load = load_model if document == "model" else load_scenario
        with pytest.raises(ModelFormatError, match="^" + re.escape(message)):
            load(target)
        assert main(simulate_args(model, scenario, str(tmp_path / "out"))) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_byte_identical_reruns(self, inputs):
        tmp_path, model, scenario = inputs
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(simulate_args(model, scenario, out_a)) == 0
        assert main(simulate_args(model, scenario, out_b)) == 0
        for name in sorted(os.listdir(out_a)):
            with open(os.path.join(out_a, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                second = fh.read()
            assert first == second, name


class TestExtract:
    def test_round_trip_through_files(self, inputs, capsys):
        tmp_path, model, scenario = inputs
        out = str(tmp_path / "run")
        assert main(simulate_args(model, scenario, out)) == 0
        extracted = str(tmp_path / "extracted.json")
        code = main([
            "extract", "--metrics", os.path.join(out, "metrics.csv"),
            "--events", os.path.join(out, "lifecycle.csv"),
            "--model", model, "--from", "0", "--to", "5400",
            "--exclude-autoscaler", "--out", extracted,
        ])
        assert code == 0
        assert "extracted 1 VMs, skipped 0" in capsys.readouterr().out
        with open(extracted) as fh:
            doc = json.load(fh)
        assert len(doc["events"]) == 2
        workload_ref = doc["templates"]["tpl-instance-1e22"]["workload"]
        assert "file" in workload_ref
        workload_path = os.path.join(tmp_path, workload_ref["file"])
        assert os.path.exists(workload_path)
        # the referenced file loads back through the scenario loader
        rerun = str(tmp_path / "rerun")
        assert main(simulate_args(model, extracted, rerun)) == 0

    def test_empty_window(self, inputs, capsys):
        tmp_path, model, scenario = inputs
        out = str(tmp_path / "run")
        assert main(simulate_args(model, scenario, out)) == 0
        code = main([
            "extract", "--metrics", os.path.join(out, "metrics.csv"),
            "--events", os.path.join(out, "lifecycle.csv"),
            "--model", model, "--from", "4000", "--to", "5000",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 0
        assert "extracted 0 VMs" in capsys.readouterr().out

    def test_invalid_model_exits_2(self, inputs, capsys):
        tmp_path, model, scenario = inputs
        out = str(tmp_path / "run")
        assert main(simulate_args(model, scenario, out)) == 0
        with open(model) as fh:
            doc = json.load(fh)
        doc["servers"][0]["core_speed"] = -2.5
        with open(model, "w") as fh:
            json.dump(doc, fh)
        code = main([
            "extract", "--metrics", os.path.join(out, "metrics.csv"),
            "--events", os.path.join(out, "lifecycle.csv"),
            "--model", model, "--from", "0", "--to", "5400",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "model does not validate: server s1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x.json")

    def test_left_out_resample_is_the_library_default(self, inputs):
        from dcsim.extraction import extract_scenario

        tmp_path, model, scenario = inputs
        out = str(tmp_path / "run")
        assert main(simulate_args(model, scenario, out)) == 0
        default = inspect.signature(extract_scenario).parameters["resample_interval"].default
        written = []
        for name, extra in (("left-out", []), ("given", ["--resample", str(default)])):
            os.makedirs(tmp_path / name)
            assert main([
                "extract", "--metrics", os.path.join(out, "metrics.csv"),
                "--events", os.path.join(out, "lifecycle.csv"), "--model", model,
                "--from", "0", "--to", "5400", "--out", str(tmp_path / name / "s.json"),
            ] + extra) == 0
            written.append({
                path.relative_to(tmp_path / name): path.read_bytes()
                for path in (tmp_path / name).rglob("*") if path.is_file()
            })
        assert written[0] == written[1]
        assert len(written[0]) == 2

    def test_reversed_window_exits_2(self, inputs):
        tmp_path, model, _ = inputs
        code = main([
            "extract", "--metrics", "m.csv", "--events", "e.csv",
            "--model", model, "--from", "100", "--to", "50",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2


@pytest.mark.parametrize("command, frm, to", [
    ("fit-power", "100", "50"),
    ("fit-power", "50", "50"),
    ("fit-power", "nan", "4000"),
    ("fit-power", "0", "nan"),
    ("extract", "nan", "5000"),
    ("extract", "0", "nan"),
])
def test_unordered_window_names_the_flags(inputs, capsys, command, frm, to):
    tmp_path, model, _ = inputs
    args = [command, "--metrics", "m.csv", "--from", frm, "--to", to,
            "--out", str(tmp_path / "x.json")]
    if command == "extract":
        args += ["--events", "e.csv", "--model", model]
    else:
        args += ["--server", "s1"]
    assert main(args) == 2
    assert "--from must precede --to" in capsys.readouterr().err


class TestFitPower:
    def _metrics_file(self, tmp_path, noise=0.0):
        import random

        rng = random.Random(1)
        path = tmp_path / "metrics.csv"
        rows = ["timestamp_s,entity_kind,entity_id,metric,value"]
        for i in range(101):
            u = i / 100
            p = 50 * u + 10 * u**2 + 5 * u**3 + 80 + rng.uniform(-noise, noise)
            t = 30.0 * i
            rows.append(f"{t},server,s1,cpu_utilization,{u}")
            rows.append(f"{t},server,s1,power_w,{p}")
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_noiseless_recovery(self, tmp_path, capsys):
        metrics = self._metrics_file(tmp_path)
        out = str(tmp_path / "pm.json")
        code = main([
            "fit-power", "--metrics", metrics, "--server", "s1",
            "--from", "0", "--to", "4000", "--family", "poly3", "--out", out,
        ])
        assert code == 0
        assert "residual_rms" in capsys.readouterr().out
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["family"] == "polynomial"
        assert doc["coefficients"] == pytest.approx([50.0, 10.0, 5.0, 80.0], abs=1e-6)

    def test_noisy_reports_rms(self, tmp_path, capsys):
        metrics = self._metrics_file(tmp_path, noise=2.0)
        out = str(tmp_path / "pm.json")
        code = main([
            "fit-power", "--metrics", metrics, "--server", "s1",
            "--from", "0", "--to", "4000", "--family", "poly3",
            "--bin-width", "0.01", "--out", out,
        ])
        assert code == 0
        assert "residual_rms" in capsys.readouterr().out

    def test_underdetermined_exits_2(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "timestamp_s,entity_kind,entity_id,metric,value\n"
            "0,server,s1,cpu_utilization,0.1\n0,server,s1,power_w,90\n"
            "30,server,s1,cpu_utilization,0.5\n30,server,s1,power_w,100\n"
        )
        code = main([
            "fit-power", "--metrics", str(path), "--server", "s1",
            "--from", "0", "--to", "100", "--family", "poly3",
            "--out", str(tmp_path / "pm.json"),
        ])
        assert code == 2


class TestCompare:
    def _config(self, tmp_path, name, model, scenario, algorithms):
        path = tmp_path / name
        path.write_text(json.dumps({
            "label": name.removesuffix(".json"),
            "model": model,
            "scenario": scenario,
            "algorithms": algorithms,
            "sim": {"end_time": 5400.0},
        }))
        return str(path)

    def test_identical_configs_identical_rows(self, inputs, capsys):
        tmp_path, model, scenario = inputs
        a = self._config(tmp_path, "a.json", model, scenario, {})
        b = self._config(tmp_path, "b.json", model, scenario, {})
        out = str(tmp_path / "cmp.json")
        assert main(["compare", "--config", a, "--config", b,
                     "--seed", "3", "--out", out]) == 0
        with open(out) as fh:
            doc = json.load(fh)
        rows = doc["runs"]
        assert rows[0]["total_energy_wh"] == rows[1]["total_energy_wh"]
        assert doc["pairwise"][0]["delta_wh"] == 0.0

    def test_disagreeing_paths_exit_2(self, inputs, tmp_path):
        _, model, scenario = inputs
        other_model = tmp_path / "dc2.json"
        other_model.write_text(dump_model(make_model(3)))
        a = self._config(tmp_path, "a.json", model, scenario, {})
        b = self._config(tmp_path, "b.json", str(other_model), scenario, {})
        assert main(["compare", "--config", a, "--config", b]) == 2

    def test_single_config_exit_2(self, inputs):
        tmp_path, model, scenario = inputs
        a = self._config(tmp_path, "a.json", model, scenario, {})
        assert main(["compare", "--config", a]) == 2

    def test_left_out_seed_is_the_sim_config_default(self, inputs):
        from dcsim.engine import SimConfig

        tmp_path, model, scenario = inputs
        a = self._config(tmp_path, "a.json", model, scenario, {})
        b = self._config(tmp_path, "b.json", model, scenario, {"optimizer": "consolidation"})
        written = []
        for name, extra in (("left-out", []), ("given", ["--seed", str(SimConfig.seed)])):
            out = tmp_path / f"{name}.json"
            assert main(["compare", "--config", a, "--config", b, "--out", str(out)] + extra) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_shared_inputs_load_once(self, inputs, monkeypatch):
        import dcsim.cli as cli

        tmp_path, model, scenario = inputs
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_model", counted("model", cli.load_model))
        monkeypatch.setattr(cli, "load_scenario", counted("scenario", cli.load_scenario))
        a = self._config(tmp_path, "a.json", model, scenario, {})
        b = self._config(tmp_path, "b.json", model, scenario, {"optimizer": "consolidation"})
        assert main(["compare", "--config", a, "--config", b]) == 0
        assert calls == {"model": 1, "scenario": 1}


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {"bogus": 1}, "'bogus'"),
    ("simulate", {"react": {"upper": 2}}, "'upper'"),
    ("simulate", {"spare_servers": 1.5}, "spare_servers must be an integer, got 1.5"),
    ("simulate", {"reg": {"window": 2.5}}, "window must be an integer, got 2.5"),
    ("simulate", {"power_manager_enabled": "no"}, "must be true or false, got 'no'"),
    ("simulate", {"spare_servers": True}, "spare_servers must be an integer, got True"),
    ("simulate", {"optimizer": None}, "unknown optimizer algorithm None"),
    ("compare", {"bogus": 1}, "compare config: unknown keys ['bogus']"),
    ("compare", {"algorithms": {"react": {"upper": 2}}}, "'upper'"),
    ("compare", {"algorithms": {"spare_servers": 1.5}}, "spare_servers must be an integer"),
    ("compare", {"sim": {"bogus": 1}}, "'bogus'"),
    ("compare", {"sim": {"end_time": "100"}}, "end_time must be a number, got '100'"),
    ("compare", {"sim": {"end_time": True}}, "end_time must be a number, got True"),
    ("compare", {"sim": {"end_time": 5400.0, "seed": 5}}, "sim: seed is set by --seed"),
    ("compare", {"model": None}, "missing key 'model'"),
    ("compare", {"scenario": None}, "missing key 'scenario'"),
    ("simulate", None, "Is a directory"),
    ("simulate", "{", "malformed JSON: Expecting property name"),
    ("simulate", "[1, 2]", "data center model must be a JSON object"),
], ids=["algo-unknown-key", "algo-unknown-react-key", "algo-fractional-spares",
        "algo-fractional-reg-window", "algo-string-power-manager", "algo-bool-spares",
        "algo-null-optimizer", "compare-unknown-key", "compare-unknown-react-key",
        "compare-fractional-spares", "compare-unknown-sim-key", "compare-string-end-time",
        "compare-bool-end-time", "compare-sim-seed", "compare-no-model", "compare-no-scenario",
        "model-directory", "model-malformed-json", "model-not-object"])
def test_malformed_config_names_file(inputs, capsys, command, config, message):
    """A config file that the simulator cannot run, or a model path it
    cannot read, exits 2 and names the file; a ``None`` value drops that key
    from a compare config, a ``None`` config makes the file a directory that
    is given as ``--model``, and a string config is the text of the file
    given as ``--model``."""
    tmp_path, model, scenario = inputs
    bad = tmp_path / "bad.json"
    if config is None or isinstance(config, str):
        if config is None:
            bad.mkdir()
        else:
            bad.write_text(config)
        args = simulate_args(str(bad), scenario, str(tmp_path / "out"))
    elif command == "simulate":
        bad.write_text(json.dumps(config))
        args = simulate_args(model, scenario, str(tmp_path / "out"))
        args += ["--algo-config", str(bad)]
    else:
        base = {"model": model, "scenario": scenario, "sim": {"end_time": 5400.0}}
        good = tmp_path / "good.json"
        good.write_text(json.dumps(base))
        base.update(config)
        bad.write_text(json.dumps({k: v for k, v in base.items() if v is not None}))
        args = ["compare", "--config", str(good), "--config", str(bad)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert config is None or err.startswith(f"error: {bad}: ")
    assert str(bad) in err and message in err


def test_cli_import_leaves_numpy_out():
    """``simulate``, ``compare`` and ``report-error`` run without numpy: only
    ``extract`` and ``fit-power`` import the extraction module."""
    src = os.path.dirname(os.path.dirname(inspect.getfile(main)))
    subprocess.run(
        [sys.executable, "-c", "import dcsim.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )


def test_report_error_prints_table_format(capsys):
    assert main(["report-error", "--measured", "5443", "--predicted", "5464"]) == 0
    assert capsys.readouterr().out.strip() == "0.39%"
    assert main(["report-error", "--measured", "0", "--predicted", "1"]) == 2


@pytest.mark.parametrize("measured, predicted", [
    ("nan", "100"), ("inf", "100"), ("-inf", "100"), ("100", "nan"), ("100", "inf"),
])
def test_report_error_rejects_non_finite(capsys, measured, predicted):
    code = main(["report-error", f"--measured={measured}", f"--predicted={predicted}"])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_compare_is_order_independent(inputs, tmp_path):
    _, model, scenario = inputs

    def config(name, label, algorithms):
        path = tmp_path / name
        path.write_text(json.dumps({
            "label": label, "model": model, "scenario": scenario,
            "algorithms": algorithms, "sim": {"end_time": 5400.0},
        }))
        return str(path)

    a = config("a.json", "plain", {})
    b = config("b.json", "consolidated", {"optimizer": "consolidation"})
    out_ab = str(tmp_path / "ab.json")
    out_ba = str(tmp_path / "ba.json")
    assert main(["compare", "--config", a, "--config", b, "--out", out_ab]) == 0
    assert main(["compare", "--config", b, "--config", a, "--out", out_ba]) == 0
    with open(out_ab) as fh:
        ab = json.load(fh)
    with open(out_ba) as fh:
        ba = json.load(fh)
    assert ab["runs"] == list(reversed(ba["runs"]))


def test_algo_config_file_overrides_flags(inputs, tmp_path):
    tmp_path_, model, scenario = inputs
    override = tmp_path / "algo.json"
    override.write_text(json.dumps({
        "placement": "worst-fit-ram",
        "react": {"lower_utilization": 0.25},
    }))
    out = str(tmp_path / "run_override")
    code = main(simulate_args(model, scenario, out) + ["--algo-config", str(override)])
    assert code == 0
    # worst-fit spreads instead of packing; with two equal servers the single
    # VM still lands on s1, so check the config plumbed through via report
    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["vms"]["instance-1e22"]["hosts"][0][1] == "s1"


def test_autoscaler_csv_written(tmp_path):
    from dcsim.algorithms import gen_seasonal_workload
    from dcsim.model import OpenRequestLoad, VmFlavor
    from dcsim.scenario import (
        AbsoluteTime,
        ApplicationTemplate,
        ExperimentScenario,
        StartApplication,
        TimelineEvent,
        serialize_scenario,
    )

    series = gen_seasonal_workload(40.0, 2, 1200.0, 0.0, 0.0, seed=1, step=10.0)
    load = OpenRequestLoad(tuple(series), per_instance_capacity=12.0)
    scenario = ExperimentScenario(
        events=[TimelineEvent("a", AbsoluteTime(0.0),
                              StartApplication("tier", "web"))],
        templates={"tier": ApplicationTemplate(VmFlavor(1, 1024.0), load)},
    )
    model_path = tmp_path / "dc.json"
    model_path.write_text(dump_model(make_model(2, ram=65536.0)))
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(serialize_scenario(scenario))
    out = str(tmp_path / "run")
    code = main([
        "simulate", "--model", str(model_path), "--scenario", str(scenario_path),
        "--end", "1200", "--autoscaler", "react", "--autoscaler-interval", "60",
        "--out", out,
    ])
    assert code == 0
    with open(os.path.join(out, "autoscaler.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["application_id"] == "web"
    assert {int(r["instances"]) for r in rows} - {0}


def test_vm_named_like_a_scale_out_instance_exits_2(tmp_path, capsys):
    """A tenant start named as tier ``web``'s first scale-out instance is
    refused before the run under an autoscaler, not when React creates it;
    without an autoscaler the name is free."""
    scenario = {
        "templates": {
            "tier": {"flavor": {"vcpus": 1, "ram": 1024.0},
                     "workload": {"kind": "open_request_load", "series": [[0.0, 25.0]],
                                  "per_instance_capacity": 10.0}},
            "batch": {"flavor": {"vcpus": 1, "ram": 1024.0},
                      "workload": {"kind": "blackbox_trace", "segments": [[100.0, 1.0]]}},
        },
        "events": [
            {"id": "a", "trigger": {"type": "absolute", "time": 0.0},
             "request": {"type": "start_application", "template": "tier", "vm_id": "web"}},
            {"id": "b", "trigger": {"type": "absolute", "time": 500.0},
             "request": {"type": "start_application", "template": "batch",
                         "vm_id": "web-i0001"}},
        ],
    }
    model_path, scenario_path = tmp_path / "dc.json", tmp_path / "s.json"
    model_path.write_text(dump_model(make_model(2)))
    scenario_path.write_text(json.dumps(scenario))
    args = simulate_args(str(model_path), str(scenario_path), str(tmp_path / "out"),
                         end=1000, autoscaler="react")
    assert main(args) == 2
    assert ("error: vm id 'web-i0001' is the name of a scale-out instance of tier 'web'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    assert main(args[:-2]) == 0


#: sha256 of the report directory that ``test_simulate_reports_are_pinned``
#: writes. Only a change that declares a behaviour change may update it.
PINNED_REPORT_SHA256 = "7122fad4065b7ce28897b1d679bd024382c75e2467eb7e006467e207444e55f5"


def _all_feature_inputs(tmp_path):
    """A small seeded model and scenario touching every kernel path: trace
    VMs overloading a host, initial and started request tiers, a relative
    chain, stops of a started and an initial VM, a start no server can take,
    an optimizer switch and an interval change."""
    from dcsim.algorithms import gen_seasonal_workload
    from dcsim.model import BlackBoxTrace, OpenRequestLoad, VmFlavor, VmInstance
    from dcsim.scenario import (
        AbsoluteTime,
        ApplicationTemplate,
        ChangeOptimisationInterval,
        ExperimentScenario,
        ReconfigureOptimisationAlgorithm,
        RelativeTo,
        StartApplication,
        StopApplication,
        TimelineEvent,
    )
    from tests.conftest import trace_template

    def series(seed):
        return tuple(gen_seasonal_workload(40.0, 2, 3600.0, -2.0, 2.0, seed=seed, step=10.0))

    initial = [
        VmInstance(f"hot{i}", VmFlavor(1, 1024.0),
                   BlackBoxTrace(((300.0, d), (200.0, 1.0), (400.0, d / 2))),
                   host="s1")
        for i, d in enumerate((6.0, 5.0, 4.0))
    ]
    initial.append(VmInstance("front", VmFlavor(1, 1024.0),
                              OpenRequestLoad(series(5), per_instance_capacity=10.0),
                              host="s2"))
    model_path = tmp_path / "dc.json"
    model_path.write_text(dump_model(make_model(4, idle_off=2.0, initial_vms=initial)))
    templates = {
        "tier": ApplicationTemplate(VmFlavor(1, 1024.0),
                                    OpenRequestLoad(series(3), per_instance_capacity=10.0)),
        "batch": trace_template([(400.0, 3.0), (200.0, 0.0), (300.0, 1.5)], vcpus=1,
                                ram=2048.0),
        "huge": trace_template([(100.0, 1.0)], ram=65536.0),
    }
    events = [TimelineEvent("web", AbsoluteTime(0.0), StartApplication("tier", "app"))]
    events += [
        TimelineEvent(f"b{k}", AbsoluteTime(150.0 * k), StartApplication("batch", f"job{k}"))
        for k in range(5)
    ]
    events += [
        TimelineEvent("chained", RelativeTo("b1", 60.0), StartApplication("batch", "job-c")),
        TimelineEvent("stop-b4", RelativeTo("b4", 120.0), StopApplication("b4")),
        TimelineEvent("stop-hot2", AbsoluteTime(700.0), StopApplication("hot2")),
        TimelineEvent("too-big", AbsoluteTime(450.0), StartApplication("huge", "whale")),
        TimelineEvent("balance", AbsoluteTime(1500.0),
                      ReconfigureOptimisationAlgorithm("load-balance")),
        TimelineEvent("faster", RelativeTo("balance", 100.0), ChangeOptimisationInterval(150.0)),
    ]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        serialize_scenario(ExperimentScenario(events=events, templates=templates))
    )
    return str(model_path), str(scenario_path)


def _tree_sha256(root):
    """sha256 of every file's path below ``root`` and its bytes, in sorted
    path order."""
    import hashlib

    digest = hashlib.sha256()
    names = sorted(
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, files in os.walk(root) for name in files
    )
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def test_simulate_reports_are_pinned(tmp_path):
    """Two runs of one seeded all-feature scenario write byte-identical
    report directories, equal to the pinned digest."""
    model, scenario = _all_feature_inputs(tmp_path)
    digests = []
    for name in ("a", "b"):
        args = [
            "simulate", "--model", model, "--scenario", scenario, "--out",
            str(tmp_path / name), "--end", "3600", "--seed", "11", "--placement", "worst-fit-ram",
            "--optimizer", "consolidation", "--autoscaler", "react", "--power-manager",
            "--spare-servers", "1", "--optimizer-interval", "200", "--boot-latency", "5",
            "--placement-latency", "1", "--power-transition-latency", "40",
        ]
        assert main(args) == 0
        digests.append(_tree_sha256(str(tmp_path / name)))
    assert digests[0] == digests[1]
    assert digests[0] == PINNED_REPORT_SHA256


#: sha256 of the scenarios, workload files and power models that
#: ``test_extract_outputs_are_pinned`` writes. Only a change that declares a
#: behaviour change may update it.
PINNED_EXTRACT_SHA256 = "729c6a0c9e8bf58bbe0687045a6a39006aa9fa9b4bee2b525efad338067291f6"


def test_extract_outputs_are_pinned(tmp_path, capsys):
    """``dcsim extract``, with and without ``--exclude-autoscaler``, and
    ``dcsim fit-power`` for both families on every server write the pinned
    bytes. The seeded source run has migrations, autoscaler-initiated VMs, a
    VM stopped before its first measurement and a VM that never started."""
    model, scenario = _all_feature_inputs(tmp_path)
    with open(scenario) as fh:
        doc = json.load(fh)
    doc["events"] += [
        {"id": "blip", "trigger": {"type": "absolute", "time": 451.0},
         "request": {"type": "start_application", "template": "batch", "vm_id": "blip"}},
        {"id": "stop-blip", "trigger": {"type": "relative", "reference": "blip", "offset": 10.0},
         "request": {"type": "stop_application", "target": "blip"}},
    ]
    with open(scenario, "w") as fh:
        json.dump(doc, fh)
    source = str(tmp_path / "source")
    assert main([
        "simulate", "--model", model, "--scenario", scenario, "--out", source,
        "--end", "3600", "--seed", "11", "--placement", "worst-fit-ram",
        "--optimizer", "consolidation", "--autoscaler", "react", "--power-manager",
        "--spare-servers", "1", "--optimizer-interval", "200", "--boot-latency", "5",
        "--placement-latency", "1", "--power-transition-latency", "40",
    ]) == 0
    capsys.readouterr()
    measured = ["--metrics", os.path.join(source, "metrics.csv"), "--from", "0", "--to", "3600"]
    events = ["--events", os.path.join(source, "lifecycle.csv")]
    out = tmp_path / "extracted"
    out.mkdir()
    for name, flags in (("all", []), ("tenant", ["--exclude-autoscaler"])):
        assert main(["extract", *measured, *events, "--model", model,
                     "--out", str(out / f"{name}.json"), *flags]) == 0
    printed = capsys.readouterr().out
    assert "skipped blip: vm blip: no utilization measurements" in printed
    assert "skipped whale: never started" in printed
    for server in ("s1", "s2", "s3", "s4"):
        for family in ("poly3", "poly-exp"):
            assert main(["fit-power", *measured, "--server", server, "--family", family,
                         "--out", str(out / f"{server}-{family}.json")]) == 0
    with open(out / "all.json") as fh:
        extracted = json.load(fh)
    with open(out / "tenant.json") as fh:
        tenant_only = json.load(fh)
    assert len(extracted["templates"]) > len(tenant_only["templates"])
    assert _tree_sha256(str(out)) == PINNED_EXTRACT_SHA256


def test_every_json_file_goes_through_the_one_writer(tmp_path, capsys):
    """The report, the extracted scenario and each of its workload files, a
    fitted power model and a comparison are each written exactly as
    ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline."""
    model, scenario = _all_feature_inputs(tmp_path)
    source = str(tmp_path / "source")
    assert main([
        "simulate", "--model", model, "--scenario", scenario, "--out", source,
        "--end", "1800", "--seed", "11", "--optimizer", "consolidation",
        "--autoscaler", "react", "--power-manager",
    ]) == 0
    measured = ["--metrics", os.path.join(source, "metrics.csv"), "--from", "0", "--to", "1800"]
    events = ["--events", os.path.join(source, "lifecycle.csv")]
    out = tmp_path / "out"
    out.mkdir()
    assert main(["extract", *measured, *events, "--model", model,
                 "--out", str(out / "scenario.json")]) == 0
    assert main(["fit-power", *measured, "--server", "s1", "--family", "poly-exp",
                 "--out", str(out / "power.json")]) == 0
    configs = []
    for label in ("a", "b"):
        config = tmp_path / f"{label}.json"
        config.write_text(json.dumps({"label": label, "model": model, "scenario": scenario,
                                      "sim": {"end_time": 600.0}}))
        configs += ["--config", str(config)]
    assert main(["compare", *configs, "--out", str(out / "compare.json")]) == 0
    workloads = os.listdir(out / "scenario_workloads")
    assert workloads
    written = [os.path.join(source, "report.json"),
               *(str(out / name) for name in ("scenario.json", "power.json", "compare.json")),
               *(str(out / "scenario_workloads" / name) for name in workloads)]
    for path in written:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path
