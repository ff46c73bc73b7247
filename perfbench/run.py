"""Benchmark of the mevforge CLI: seeded set-up, timed commands, output checks.

Usage:
  python3 perfbench/run.py --workload trace-pipeline --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run it from any directory; it works on the checkout it sits in and writes
only under ``.perfbench-work/`` there.  The harness is one process that
runs each command as one child at a time (no threads, no concurrent
children), so every figure is single-threaded.

--trace 0 times each command as a child process with tracing off: wall
time from spawn to exit, and the peak RSS the child records of itself
(perfbench/child.py).  Set-up and the timed commands alternate until
--seconds have passed.  Set-up time and memory report the median over
the repeats; wall time and throughput report the quartile on their better
side (see `reported`).  The report lines show median, quartiles and count
of each.

--trace 1 measures the untraced commands the same way, then runs the
set-up and each timed command once more under perfbench/traced_cli.py,
which records layer spans in-process, and reports per-layer self times.

Every run checks the outputs (exit codes, ground truth, cross-report
totals, byte-identical repeats); a failed check or a nonzero exit counts in
``failed``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the names and units
of the metrics come from BENCHMARK.json.  A JSON file with provenance (git
SHA, source digest, Python version, CPU count, seed, SHA-256 of every input
and output file) and every sample goes to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import traced_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_DEADLINE_S = 170  # a run must end within 180 s; children past this are killed

TRACE_TX = 5_000  # corpus size for trace-pipeline
RELAY_SLOTS = 5_000
DIRECT_SLOTS = 5_000


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    label: str
    code: int
    wall_s: float
    rss_mib: float
    stdout: str


class _Deadline(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Deadline


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("MEVFORGE_LOG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(label: str, argv: list[str], log: Path, peak: Path, deadline: float) -> Child:
    """Run one child to completion.  Wall time covers spawn to exit; peak
    RSS is what the child wrote to `peak` (see child.py)."""
    peak.unlink(missing_ok=True)
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        waited = None
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            waited = os.waitpid(proc.pid, 0)
        except _Deadline:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        if waited is None:  # past the run's deadline: killed, exits nonzero
            proc.kill()
            waited = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(waited[1])
    rss_mib = int(peak.read_text(encoding="ascii")) / 1024 if peak.is_file() else 0.0
    return Child(label, proc.returncode, wall, rss_mib, log.read_text(encoding="utf-8", errors="replace"))


def command_argv(command: list[str], peak: Path, spans: Path | None = None) -> list[str]:
    """argv for a workload command: ``mevforge ARGS`` is a CLI command,
    traced in-process when a spans file is given; anything else is one of
    the benchmark's own scripts, which is never traced."""
    if spans is not None and command[0] == "mevforge":
        return [sys.executable, str(HERE / "traced_cli.py"), str(spans), *command[1:]]
    return [sys.executable, str(HERE / "child.py"), str(peak), *command]


def stdout_counts(text: str) -> dict[str, str]:
    """key=value pairs from a command's summary line."""
    return dict(part.split("=", 1) for line in text.splitlines() for part in line.split() if "=" in part)


# ---------------------------------------------------------------------------
# workloads


class Ledger:
    """Operations attempted and failed; a failure is a nonzero exit or a
    failed output check."""

    def __init__(self) -> None:
        self.entries: list[dict] = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append({"op": name, "ok": bool(ok), "detail": detail})

    def child(self, child: Child) -> None:
        detail = "" if child.code == 0 else child.stdout.strip()[-300:]
        self.op(f"{child.label} exit {child.code}", child.code == 0, detail)

    def checked(self, name: str, fn, *args) -> None:
        """Run an output check that returns (ok, detail); an exception fails it."""
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # the outputs under test may be missing or malformed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.op(name, ok, detail)

    @property
    def attempted(self) -> int:
        return len(self.entries)

    @property
    def failed(self) -> int:
        return sum(not e["ok"] for e in self.entries)


class Workload:
    name = ""
    why = ""
    # per-command metric name -> unit, for the report lines
    report_units: dict[str, str] = {}

    def setup_commands(self, seed: int, into: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def timed_commands(self, seed: int, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def samples(self, children: dict[str, Child]) -> dict[str, float]:
        """Metrics of one repeat of the timed commands."""
        raise NotImplementedError

    def check(self, ledger: Ledger, inputs: Path, out: Path) -> dict[str, float]:
        """Run the output checks; return the workload's property counters."""
        raise NotImplementedError


class TracePipeline(Workload):
    name = "trace-pipeline"
    why = "traces, arbitrage, records, analytics and reports do all the work; pbs and pools do none"
    report_units = {
        "setup_s": "s",
        "setup_peak_rss_mb": "MiB",
        "wall_s": "s",
        "extract_tx_per_s": "tx/s",
        "extract_peak_rss_mb": "MiB",
        "analyze_records_per_s": "records/s",
        "analyze_peak_rss_mb": "MiB",
    }

    def setup_commands(self, seed, into):
        args = ["mevforge", "gen-fixtures", "--kind", "traces", "--seed", str(seed), "--count", str(TRACE_TX),
                "--out", str(into)]
        return [("gen-fixtures", args)]

    def timed_commands(self, seed, inputs, out):
        cfg = str(inputs / "run.cfg")
        extract = ["mevforge", "extract", "--traces", str(inputs / "traces.ndjson"), "--labels", str(inputs / "labels.csv"),
                   "--config", cfg, "--out", str(out / "extract")]
        analyze = ["mevforge", "analyze", "--records", str(out / "extract" / "records.csv"), "--config", cfg,
                   "--out", str(out / "reports")]
        return [("extract", extract), ("analyze", analyze)]

    def samples(self, children):
        extract, analyze = children["extract"], children["analyze"]
        records = int(stdout_counts(extract.stdout).get("records", 0))
        return {
            "wall_s": extract.wall_s + analyze.wall_s,
            "extract_tx_per_s": TRACE_TX / extract.wall_s,
            "extract_peak_rss_mb": extract.rss_mib,
            "analyze_records_per_s": records / analyze.wall_s,
            "analyze_peak_rss_mb": analyze.rss_mib,
            "items_per_s": TRACE_TX / extract.wall_s,
            "peak_rss_mb": max(extract.rss_mib, analyze.rss_mib),
        }

    def check(self, ledger, inputs, out):
        manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        records_csv = out / "extract" / "records.csv"
        reports = out / "reports"
        records = checks.read_records(records_csv) if records_csv.is_file() else []
        ledger.checked("records.csv equals the planted ground truth", checks.records_match_manifest, records, manifest)
        ledger.checked("shares.csv sums to 100%", checks.shares_sum_to_100, reports / "shares.csv")
        ledger.checked("profit-matrix total equals the record usd_value sum", checks.matrix_total_matches,
                       reports / "profit_matrix.csv", records)
        props = checks.trace_properties(inputs / "traces.ndjson")
        props["analytics.split_usd_mismatch"] = checks.split_usd_mismatch(reports / "proposer_split.csv", records)
        props["records.bytes"] = records_csv.stat().st_size
        return props


class SimWorkload(Workload):
    slots = 0
    report_units = {
        "setup_s": "s",
        "setup_peak_rss_mb": "MiB",
        "wall_s": "s",
        "sim_slots_per_s": "slots/s",
        "sim_peak_rss_mb": "MiB",
    }

    def scenario(self, inputs: Path) -> Path:
        raise NotImplementedError

    def timed_commands(self, seed, inputs, out):
        args = ["mevforge", "simulate", "--scenario", str(self.scenario(inputs)), "--slots", str(self.slots),
                "--seed", str(seed), "--out", str(out / "sim")]
        return [("simulate", args)]

    def samples(self, children):
        sim = children["simulate"]
        return {
            "wall_s": sim.wall_s,
            "sim_slots_per_s": self.slots / sim.wall_s,
            "sim_peak_rss_mb": sim.rss_mib,
            "items_per_s": self.slots / sim.wall_s,
            "peak_rss_mb": sim.rss_mib,
        }

    def check(self, ledger, inputs, out):
        sim = out / "sim"
        ledger.checked("summary.csv equals the fold of slots.csv", checks.slot_fold_matches,
                       sim / "slots.csv", sim / "summary.csv", self.slots)
        return checks.slot_properties(sim / "slots.csv")


class SimRelay(SimWorkload):
    name = "sim-relay"
    why = "bundled eth_duopoly scenario: every slot alike, 11 rebids each, so pbs bid building dominates"
    slots = RELAY_SLOTS

    def setup_commands(self, seed, into):
        return [("gen-fixtures", ["mevforge", "gen-fixtures", "--kind", "scenario", "--seed", str(seed), "--out", str(into)])]

    def scenario(self, inputs):
        return inputs / "eth_duopoly.json"

    def check(self, ledger, inputs, out):
        bundled = ROOT / "scenarios" / "eth_duopoly.json"
        ledger.checked("generated scenario equals scenarios/eth_duopoly.json",
                       lambda: (checks.sha256_file(self.scenario(inputs)) == checks.sha256_file(bundled), str(bundled)))
        return super().check(ledger, inputs, out)


class SimDirectEmbodied(SimWorkload):
    name = "sim-direct-embodied"
    why = "generated bsc_direct scenario backed by a V2/V3 pool graph: pools search, non-delivery and blacklists"
    slots = DIRECT_SLOTS

    def setup_commands(self, seed, into):
        return [("gen_embodied", [str(HERE / "gen_embodied.py"), "--seed", str(seed), "--out", str(into)])]

    def scenario(self, inputs):
        return inputs / "scenario.json"

    def check(self, ledger, inputs, out):
        props = super().check(ledger, inputs, out)
        props["pools.cycles"] = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))["cycles"]
        return props


WORKLOADS = {w.name: w for w in (TracePipeline(), SimRelay(), SimDirectEmbodied())}
PROPERTY_COUNTERS = ("traces.tokens_per_distinct", "pbs.bids_per_slot", "pbs.blacklist_events", "pools.cycles")


# ---------------------------------------------------------------------------
# one run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reported(name: str, q1: float, median: float, q3: float) -> float:
    """The one value a run reports for a sampled metric.

    Contention from other tenants of a shared host only ever slows a
    repeat, and a slow phase can cover more than half of a run, which moves
    the median from one speed to the other.  So a repeated timing reports
    the quartile on its better side: the lower quartile of wall time, the
    upper quartile of throughput.  Set-up time and memory report the median.
    """
    if name == "wall_s":
        return q1
    if name.endswith("_per_s"):
        return q3
    return median


def percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class RunState:
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    deadline: float
    dir: Path
    ledger: Ledger = field(default_factory=Ledger)
    setup: list[dict] = field(default_factory=list)
    repeats: list[dict] = field(default_factory=list)
    timed_layers: dict[str, float] = field(default_factory=dict)  # self times of the traced timed commands

    def child(self, label: str, command: list[str], spans: Path | None = None) -> Child:
        peak = self.dir / "peak.kib"
        argv = command_argv(command, peak, spans)
        child = run_child(label, argv, self.dir / "child.log", peak, self.deadline)
        self.ledger.child(child)
        return child


def measure(state: RunState) -> tuple[Path, Path, dict[str, str]]:
    """Alternate set-up and the timed commands until the run's seconds have
    passed, so that set-up samples spread over the run like the timed ones.
    Every repeat must write the same bytes as the first, in set-up and in
    the timed commands.  Returns the input and output directories and the
    output digest."""
    inputs, out = state.dir / "inputs", state.dir / "out"
    first: tuple[dict, dict] | None = None
    start = time.perf_counter()
    while not state.repeats or (time.perf_counter() - start < state.seconds and time.perf_counter() < state.deadline):
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        setup = [state.child(label, command) for label, command in state.workload.setup_commands(state.seed, inputs)]
        if any(k.code != 0 for k in setup):
            break
        state.setup.append({"setup_s": sum(k.wall_s for k in setup), "setup_peak_rss_mb": max(k.rss_mib for k in setup)})
        timed = {label: state.child(label, command)
                 for label, command in state.workload.timed_commands(state.seed, inputs, out)}
        if any(k.code != 0 for k in timed.values()):
            break
        state.repeats.append(state.workload.samples(timed))
        digests = (checks.tree_digest(inputs), checks.tree_digest(out))
        if first is None:
            first = digests
        else:
            n = len(state.repeats)
            state.ledger.op(f"repeat {n} set-up bytes identical to repeat 1", digests[0] == first[0])
            state.ledger.op(f"repeat {n} output bytes identical to repeat 1", digests[1] == first[1])
    return inputs, out, first[1] if first else {}


def run_traced(state: RunState, commands: list[tuple[str, list[str]]]) -> list[tuple[Child, list, dict]]:
    """Run commands once each under tracing; returns (child, spans, counts)
    per command, with no spans for a command that wrote none."""
    results = []
    for i, (label, command) in enumerate(commands):
        spans_file = state.dir / f"spans-{i}-{label}.json"
        spans_file.unlink(missing_ok=True)
        child = state.child(f"traced {label}", command, spans_file)
        traced = json.loads(spans_file.read_text(encoding="utf-8")) if spans_file.is_file() else {}
        results.append((child, traced.get("spans", []), traced.get("counts", {})))
    return results


def add_self_times(layers: dict[str, float], spans: list) -> float:
    """Add each span's self time to its layer metric; returns their sum."""
    total = 0.0
    for (name, *_), self_s in zip(spans, traced_cli.self_times(spans)):
        metric = traced_cli.self_metric(name)
        layers[metric] = layers.get(metric, 0.0) + self_s
        total += self_s
    return total


def traced_layers(state: RunState, inputs: Path, out_digest: dict[str, str], props: dict) -> dict[str, float]:
    """Run the set-up and the timed commands once more under tracing and
    turn their spans into per-layer metrics.  Layers a workload does not
    exercise are absent and report 0."""
    workload = state.workload
    layers: dict[str, float] = {}
    traced_in = state.dir / "traced-inputs"
    traced_out = state.dir / "traced-out"
    shutil.rmtree(traced_in, ignore_errors=True)
    shutil.rmtree(traced_out, ignore_errors=True)

    setup_layers: dict[str, float] = {}
    for _child, spans, _counts in run_traced(state, workload.setup_commands(state.seed, traced_in)):
        add_self_times(setup_layers, spans)
    state.ledger.op("traced set-up output identical to untraced",
                    traced_in.is_dir() and checks.tree_digest(traced_in) == checks.tree_digest(inputs))

    traced = run_traced(state, workload.timed_commands(state.seed, inputs, traced_out))
    state.ledger.op("traced output identical to untraced",
                    traced_out.is_dir() and checks.tree_digest(traced_out) == out_digest)
    traced_wall = sum(child.wall_s for child, _, _ in traced)
    # interpreter start-up, imports and exit: child wall time outside the root span
    process_s = sum(child.wall_s - (spans[0][2] - spans[0][1]) for child, spans, _ in traced if spans)
    layer_sum = sum(add_self_times(layers, spans) for _, spans, _ in traced)
    gap = traced_wall - (layer_sum + process_s)
    state.ledger.op("layer self times add up to the traced wall time", abs(gap) < 1e-6, f"gap {gap:.3g} s")

    all_spans = [span for _, spans, _ in traced for span in spans]
    slot_us = [(end - start) * 1e6 for name, start, end, _ in all_spans if name == "pbs.slot"]
    search_ms = [(end - start) * 1e3 for name, start, end, _ in all_spans if name == "pools.search"]
    untraced = reported("wall_s", *quartiles([r["wall_s"] for r in state.repeats])) if state.repeats else 0.0
    extract = stdout_counts(next((c.stdout for c, _, _ in traced if c.label == "traced extract"), ""))
    cycles = int(extract.get("records", 0))
    transactions = props.get("traces.transactions", 0)
    state.timed_layers = dict(layers)
    layers.update(setup_layers)
    layers.update(props)
    layers.update(
        {
            "traces.unknown_events": int(extract.get("unknown_events", 0)),
            "arbitrage.cycles": cycles,
            "arbitrage.cycle_yield": cycles / transactions if transactions else 0.0,
            "arbitrage.price_errors": int(extract.get("errors", 0)),
            "analytics.pearson_points": sum(counts.get("analytics.pearson", 0) for _, _, counts in traced),
            "analytics.trend_series": sum(name == "analytics.mann_kendall" for name, *_ in all_spans),
            "pbs.slot_us_p50": percentile(slot_us, 50),
            "pbs.slot_us_p99": percentile(slot_us, 99),
            "pbs.slot_samples": len(slot_us),
            "pools.search_ms_p50": percentile(search_ms, 50),
            "pools.search_ms_p90": percentile(search_ms, 90),
            "pools.search_samples": len(search_ms),
            "bench.traced_wall_s": traced_wall,
            "bench.untraced_wall_s": untraced,
            "bench.process_s": process_s,
            "bench.trace_overhead_s": traced_wall - untraced,
            "bench.spans": len(all_spans),
        }
    )
    return layers


def provenance(state: RunState, inputs: Path, out: Path) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": state.workload.name,
        "seed": state.seed,
        "seconds": state.seconds,
        "trace": int(state.trace),
        "inputs": checks.tree_digest(inputs) if inputs.is_dir() else {},
        "outputs": checks.tree_digest(out) if out.is_dir() else {},
    }


def git_sha() -> str | None:
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the program's source files, which identifies the code
    even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    state = RunState(workload, seed, seconds, trace, time.perf_counter() + RUN_DEADLINE_S, run_dir)

    inputs, out, out_digest = measure(state)
    try:
        props = workload.check(state.ledger, inputs, out)
    except (OSError, ValueError, KeyError) as exc:  # inputs or outputs missing or malformed
        state.ledger.op("output checks", False, f"{type(exc).__name__}: {exc}")
        props = {}
    layers = traced_layers(state, inputs, out_digest, props) if trace else None

    # median, quartiles and count of every sampled metric
    summary: dict[str, tuple[float, float, float, int]] = {}
    for source in (state.setup, state.repeats):
        for name in (source[0] if source else {}):
            values = [sample[name] for sample in source]
            summary[name] = (*quartiles(values), len(values))
    error_rate = state.ledger.failed / state.ledger.attempted
    summary["error_rate"] = (error_rate, error_rate, error_rate, state.ledger.attempted)

    values = layers if trace else {name: reported(name, *q[:3]) for name, q in summary.items()}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": state.ledger.failed == 0,
        "attempted": state.ledger.attempted,
        "failed": state.ledger.failed,
        "metrics": metrics,
    }
    record = {
        "provenance": provenance(state, inputs, out),
        "result": result,
        "summary": {k: dict(zip(("q1", "median", "q3", "n"), v)) for k, v in summary.items()},
        "properties": props,
        "setup": state.setup,
        "repeats": state.repeats,
        "operations": state.ledger.entries,
        "layers": layers,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_report(workload, state, summary, props, layers, record["provenance"], record_path)
    return result


def print_report(workload: Workload, state: RunState, summary: dict, props: dict, layers: dict | None,
                 prov: dict, path: Path) -> None:
    print(f"== {workload.name}  seed={state.seed}  set-ups={len(state.setup)}  repeats={len(state.repeats)}")
    print(f"   why: {workload.why}")
    units = dict(workload.report_units, error_rate="fraction")
    for name, unit in units.items():
        if name in summary:
            q1, median, q3, n = summary[name]
            print(f"   {name:<24} {reported(name, q1, median, q3):>14.6g} {unit:<10} "
                  f"median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    print("   properties: " + "  ".join(f"{k}={props.get(k, 0):.6g}" for k in PROPERTY_COUNTERS))
    if "analytics.split_usd_mismatch" in props:
        print(f"   known defect: analytics.split_usd_mismatch={props['analytics.split_usd_mismatch']} brands (not gated)")
    for entry in state.ledger.entries:
        if not entry["ok"]:
            print(f"   FAILED {entry['op']}: {entry['detail']}")
    if layers is not None:
        timed = sorted(((v, k) for k, v in state.timed_layers.items()), reverse=True)
        print("   largest self times: " + ", ".join(f"{k}={v:.3f}" for v, k in timed[:5]))
        print(f"   traced wall {layers['bench.traced_wall_s']:.3f} s, untraced "
              f"{layers['bench.untraced_wall_s']:.3f} s, overhead {layers['bench.trace_overhead_s']:.3f} s")
    print(f"   provenance: git {prov['git_sha'] or 'none'}  src {prov['src_sha256'][:16]}  python {prov['python']}  "
          f"nproc {prov['nproc']}  seed {prov['seed']}  {len(prov['inputs'])} input and {len(prov['outputs'])} output "
          f"files hashed")
    print(f"   record: {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mevforge" / "cli.py").is_file():
        print(f"error: no mevforge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    signal.signal(signal.SIGALRM, _on_alarm)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
