"""The benchmark's traced run patches mevforge at fixed module attributes,
and its embodied workload loads a generated scenario; both must keep
working, or the benchmark breaks silently.  The pool search over that
scenario's graph is pinned by digest and bounded against the closed-form
optimum, and the strategy values that search only the cycles whose profit
bound could win equal those of searching every cycle.  The READMEs name
only API that exists, and the package imports nothing outside the
standard library."""

import ast
import hashlib
import importlib
import importlib.util
import json
import keyword
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def traced_argv(command, tmp_path):
    """The command's arguments, less --out, over small inputs it writes to tmp_path."""
    from mevforge.cli import main
    from mevforge import BUNDLED_SCENARIOS

    if command == "simulate":
        return ["simulate", "--scenario", str(BUNDLED_SCENARIOS / "eth_duopoly.json"), "--slots", "50"]
    kind, count = {"analyze": ("records", "300"), "extract": ("traces", "200")}[command]
    assert main(["gen-fixtures", "--kind", kind, "--seed", "5", "--count", count, "--out", str(tmp_path)]) == 0
    if command == "analyze":
        return ["analyze", "--records", str(tmp_path / "records.csv")]
    traces, labels, config = (str(tmp_path / name) for name in ("traces.ndjson", "labels.csv", "run.cfg"))
    return ["extract", "--traces", traces, "--labels", labels, "--config", config]


@pytest.mark.parametrize("command", ["analyze", "extract", "simulate"])
def test_traced_run_writes_the_untraced_bytes(tmp_path, capsys, command):
    """install() replaces module attributes, so the traced run goes through
    a fresh interpreter, as the benchmark runs it.  The three commands run
    every kind of wrap: call, iter and consumer."""
    from mevforge.cli import main

    argv = traced_argv(command, tmp_path)
    untraced_dir, traced_dir = tmp_path / "untraced", tmp_path / "traced"
    capsys.readouterr()
    code = main([*argv, "--out", str(untraced_dir)])
    untraced_stdout = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spans = tmp_path / "spans.json"
    command_line = [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), *argv, "--out", str(traced_dir)]
    result = subprocess.run(command_line, env=env, capture_output=True, text=True)
    assert result.returncode == code == 0, result.stderr
    assert result.stdout.replace(str(traced_dir), str(untraced_dir)) == untraced_stdout
    assert f"cli.{command}" in {name for name, *_times in json.loads(spans.read_text())["spans"]}
    traced, untraced = ({p.name: p.read_bytes() for p in side.iterdir()} for side in (traced_dir, untraced_dir))
    assert traced == untraced


def test_generated_embodied_scenario_loads(tmp_path):
    from mevforge.pbs import load_scenario

    assert load_perfbench("gen_embodied").main(["--seed", "1", "--out", str(tmp_path)]) == 0
    scenario = load_scenario(tmp_path / "scenario.json")
    assert len(scenario.builders) == 4 and len(scenario.pools) == 90


# SHA-256 of "amount,delta\n" for every cycle, in enumerate_cycles order;
# taken before the search probed on amount functions instead of pool states.
EMBODIED_SEARCH_DIGESTS = {
    1: "3bb2d0801f2cf261fc7eafff9e3c630dd75463aa633925e71f3c09e215bba99b",
    3: "c4cd7ae59eaf2a8d9399d6becbdfac47a9055468034b9ebe2db456adda596998",
    7: "535e2bc68856771d13b65f6c070fe4ca1b1db24505d198ee0081b6ffa543e229",
}


@pytest.mark.parametrize("seed", sorted(EMBODIED_SEARCH_DIGESTS))
def test_embodied_search_matches_pinned_digest(seed):
    """best_input_search over every cycle of the generated V2/V3 graph, with
    the input bounds the embodied simulation uses."""
    from mevforge.pools import best_input_search, enumerate_cycles, search_range

    pools = load_perfbench("gen_embodied").pool_graph(seed)
    cycles = enumerate_cycles(pools, "WBNB")
    assert len(cycles) == 330
    text = "".join("{},{}\n".format(*best_input_search(d, pools, *search_range(pools, d))) for d in cycles)
    assert hashlib.sha256(text.encode()).hexdigest() == EMBODIED_SEARCH_DIGESTS[seed]


def mobius_map(descriptor, pools):
    """(A, B, C) of the V2-only cycle's output A*x / (B + C*x), in integers:
    a hop is x -> g*R_out*x / (R_in*FEE_SCALE + g*x) with g = FEE_SCALE - fee,
    and such maps compose to one.  None when a hop is not V2."""
    from mevforge.pools import FEE_SCALE, PoolKind

    A, B, C = 1, 1, 0
    for token_in, address in zip(descriptor.tokens, descriptor.pools):
        pool = pools[address]
        if pool.kind is not PoolKind.V2:
            return None
        r_in, r_out = (pool.reserve0, pool.reserve1) if token_in == pool.token0 else (pool.reserve1, pool.reserve0)
        g = FEE_SCALE - pool.fee_ppm
        A, B, C = A * g * r_out, B * r_in * FEE_SCALE, C * r_in * FEE_SCALE + A * g
    return A, B, C


@pytest.mark.parametrize("seed", [0, 2])
def test_embodied_search_is_within_five_units_of_the_closed_form_optimum(seed):
    """On each profitable V2-only cycle, the ternary pick's delta is at most
    5 base units below the best integer input within 3,000 of the real
    optimum x* = (sqrt(AB) - B) / C (Wang et al., arXiv 2105.02784).  Seeds
    0 and 2 hold the two widest gaps of seeds 0-29, both exactly 5."""
    from mevforge.pools import _delta_fn, best_input_search, enumerate_cycles, search_range

    pools = load_perfbench("gen_embodied").pool_graph(seed)
    gaps = []
    for descriptor in enumerate_cycles(pools, "WBNB"):
        mobius = mobius_map(descriptor, pools)
        if mobius is None or mobius[0] <= mobius[1]:
            continue
        A, B, C = mobius
        x_star = (math.isqrt(A * B) - B) // C
        _, picked = best_input_search(descriptor, pools, *search_range(pools, descriptor))
        best = max(map(_delta_fn(descriptor, pools), range(max(x_star - 3000, 1), x_star + 3001)))
        gaps.append(best - picked)
    assert len(gaps) > 40
    assert max(gaps) <= 5


@pytest.mark.parametrize(
    "source, seed", [*(("embodied", seed) for seed in range(30)), *(("fixture", seed) for seed in (2, 7, 13, 21))]
)
def test_strategy_values_equal_an_exhaustive_search(source, seed):
    """_strategy_values, which searches only the cycles whose profit bound
    could beat the best found so far for their hop count, gives what
    searching every cycle gives: on the generated graph at seeds 0-29 and
    on the pool fixture."""
    from mevforge import fixtures
    from mevforge.pbs import OpportunityModel, Protocol, SimScenario, Strategy, _strategy_values
    from mevforge.pools import best_input_search, enumerate_cycles, search_range

    if source == "embodied":
        pools = load_perfbench("gen_embodied").pool_graph(seed)
    else:
        pools = fixtures.gen_pool_fixture(seed).pools
    best = {2: 0, 3: 0}
    for d in enumerate_cycles(pools, "WBNB"):
        best[d.n_hops] = max(best[d.n_hops], best_input_search(d, pools, *search_range(pools, d))[1])
    scenario = SimScenario(
        protocol=Protocol.BSC_DIRECT, opportunity=OpportunityModel(peak_value=10**9, gas_floor=1000),
        pools=pools, embodied_base_symbol="WBNB",
    )
    expected = {Strategy.SHORT_HOP: best[2], Strategy.LONG_HOP: best[3], Strategy.MIXED: max(best.values())}
    assert _strategy_values(scenario) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_v2_cycle_map_equals_the_mobius_reference(seed):
    """pools.cycle_map, which profit_bound rests on, composes a V2-only
    cycle's hops into the same (A, B, C) as mobius_map."""
    from mevforge.pools import cycle_map, enumerate_cycles

    pools = load_perfbench("gen_embodied").pool_graph(seed)
    v2_only = [(d, m) for d in enumerate_cycles(pools, "WBNB") if (m := mobius_map(d, pools)) is not None]
    assert len(v2_only) > 100
    assert [d for d, m in v2_only if cycle_map(d, pools) != m] == []


def resolves(dotted: str) -> bool:
    """dotted imports as a module, or as a module plus attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_documented_names_resolve():
    """Dotted mevforge names in both READMEs resolve, and so does each
    backticked bare name in README's Library layout: as an attribute of the
    package or of one of its submodules, or as a CLI command."""
    import mevforge
    from mevforge.cli import build_parser

    names = set()
    for doc in (ROOT / "README.md", PERFBENCH / "README.md"):
        names.update(re.findall(r"\bmevforge(?:\.[A-Za-z_]\w*)+", doc.read_text(encoding="utf-8")))
    assert names
    assert [name for name in sorted(names) if not resolves(name)] == []

    layout = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    bare = {name for name in re.findall(r"`([^`]+)`", layout) if name.isidentifier() and not keyword.iskeyword(name)}
    modules = [mevforge, *(importlib.import_module(f"mevforge.{m.name}") for m in pkgutil.iter_modules(mevforge.__path__))]
    commands = {name for action in build_parser()._actions if isinstance(action.choices, dict) for name in action.choices}
    assert bare
    assert [name for name in sorted(bare) if name not in commands and not any(hasattr(m, name) for m in modules)] == []


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "mevforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            top = {module.split(".")[0] for module in modules}
            outside += [f"{path.name}: {name}" for name in sorted(top - sys.stdlib_module_names - {"mevforge"})]
    assert outside == []
