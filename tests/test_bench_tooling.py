"""The benchmark's traced run patches mevforge at fixed module attributes,
and its embodied workload loads a generated scenario; both must keep
working, or the benchmark breaks silently."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_cli_wraps_resolve():
    traced_cli = load_perfbench("traced_cli")
    importlib.import_module("mevforge.cli")
    missing = [
        f"{module_name}.{attribute}"
        for module_name, attribute, _span, _kind in traced_cli.WRAPS
        if not callable(getattr(importlib.import_module(module_name), attribute, None))
    ]
    assert missing == []


def test_generated_embodied_scenario_loads(tmp_path):
    from mevforge.pbs import load_scenario

    assert load_perfbench("gen_embodied").main(["--seed", "1", "--out", str(tmp_path)]) == 0
    scenario = load_scenario(tmp_path / "scenario.json")
    assert len(scenario.builders) == 4 and len(scenario.pools) == 90
