"""The example scripts run end to end against the public API, and the
mutation register names code and tests that exist."""

import importlib.util
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


def test_each_registered_mutant_edits_code_that_exists():
    """Each mutant's old snippet occurs exactly once in its file, and each
    test it names is defined, so moving the code means updating the
    register.  The mutant runs themselves are `scripts/mutants.py`."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    mutants = module.MUTANTS
    assert len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["name"]
        assert m["new"] != m["old"] and m["tests"], m["name"]
        for test_id in m["tests"]:
            path, name = test_id.split("::")
            assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), test_id
