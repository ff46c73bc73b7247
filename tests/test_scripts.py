"""The example scripts run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ["scripts/run_duopoly.py", "--slots", "200"],
            [
                "bsc_direct   horizon   3000 ms  contested 0 ms",
                "eth_relay    horizon  12000 ms  contested 9580/3 ms",
                "missing horizon: 9000 ms",
            ],
        ),
        (["scripts/run_pipeline_demo.py"], []),
    ],
    ids=["run_duopoly", "run_pipeline_demo"],
)
def test_script_exits_zero(tmp_path, argv, lines):
    """Each script exits 0 and prints the given lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script, *args = argv
    result = subprocess.run(
        [sys.executable, str(ROOT / script), *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert [line for line in lines if line not in result.stdout.splitlines()] == []
