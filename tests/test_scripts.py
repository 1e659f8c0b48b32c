"""Each example script under ``scripts/`` runs to completion on small
arguments. The scripts build their models and scenarios by hand, so a
change to a constructor or a field shows up here."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Small arguments per script; ``--out`` is added where the script takes it.
SCRIPTS = {
    "autoscaler_comparison.py": (["--periods", "2", "--duration", "3600"], True),
    "extraction_roundtrip_demo.py": (["--vms", "4", "--end", "1200"], True),
    "power_management_study.py": (["--vms", "3", "--end", "1800"], False),
}


def test_every_script_is_listed():
    assert sorted(SCRIPTS) == sorted(
        name for name in os.listdir(os.path.join(ROOT, "scripts")) if name.endswith(".py")
    )


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(tmp_path, name):
    args, takes_out = SCRIPTS[name]
    if takes_out:
        args = [*args, "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
