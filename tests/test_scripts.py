"""The example scripts run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_duopoly.py", "--slots", "200"],
        ["scripts/run_pipeline_demo.py"],
    ],
    ids=["run_duopoly", "run_pipeline_demo"],
)
def test_script_exits_zero(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script, *args = argv
    result = subprocess.run(
        [sys.executable, str(ROOT / script), *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
