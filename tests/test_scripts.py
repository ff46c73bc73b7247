"""The example scripts run end to end against the public API, the
mutation register names code and tests that exist, and the coverage
script reports in its format."""

import importlib.util
import os
import re
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


def test_coverage_reports_each_unrun_line_of_src_and_a_count():
    """Run over one test file, scripts/coverage.py prints each unrun
    function-body line as path:line: text, then the count of them; a line
    that test file runs is not among them."""
    result = subprocess.run(
        [sys.executable, "scripts/coverage.py", "-q", "-p", "no:cacheprovider", "tests/test_values.py"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    *_, summary = result.stdout.splitlines()
    unrun, total = map(int, re.fullmatch(r"(\d+) of (\d+) function-body lines in src/ never ran", summary).groups())
    report = [line for line in result.stdout.splitlines() if line.startswith("src/")]
    assert 0 < unrun == len(report) < total
    for line in report:
        path, number, text = re.fullmatch(r"(src/mevforge/[\w/]+\.py):(\d+): (.+)", line).groups()
        assert (ROOT / path).read_text(encoding="utf-8").splitlines()[int(number) - 1].strip() == text
    make = "return cls(**dict(zip(cls._fields, iterable, strict=True)))"
    assert [line for line in report if line.endswith(make)] == []
