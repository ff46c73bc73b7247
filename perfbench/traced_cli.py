"""Run one mevforge CLI command in-process with layer spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS.json COMMAND [ARGS...]

Spans are recorded from outside the program: each public function in
WRAPS is replaced, at the module attribute its callers resolve, by a
wrapper that records (name, start, end, parent).  Spans stay in memory and
are written to SPANS.json when the command returns.  The exit code is the
command's own.

The harness imports this module for the span-to-metric mapping and the
self-time arithmetic; importing it does not import mevforge.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Iterable, Iterator

# (module, attribute, span name, kind).  kind "call" times each call;
# "iter" times each next() on the returned iterator, since a generator does
# its work while it is consumed; "consumer" times the call and also each
# next() on its second argument, which is CLI code running inside it.
ANALYZE_WRITERS = (
    "write_share_table",
    "write_profit_matrix",
    "write_proposer_split",
    "write_complexity",
    "write_correlations",
    "write_trends",
    "write_risk_scores",
)
WRAPS = (
    ("mevforge.fixtures", "gen_trace_corpus", "fixtures.gen", "call"),
    ("mevforge.cli", "serialize_transactions", "traces.serialize", "call"),
    ("mevforge.cli", "iter_transactions", "traces.parse", "iter"),
    ("mevforge.cli", "extract_arbitrage_cycle", "arbitrage.extract", "call"),
    ("mevforge.cli", "attribute_profit", "arbitrage.attribute", "call"),
    ("mevforge.cli", "to_usd", "arbitrage.attribute", "call"),
    ("mevforge.records", "write_records", "records.write", "consumer"),
    ("mevforge.records", "read_records", "records.read", "call"),
    ("mevforge.analytics", "market_share", "analytics.market_share", "call"),
    ("mevforge.analytics", "path_complexity", "analytics.path_complexity", "call"),
    ("mevforge.analytics", "pathlen_profit_correlation", "analytics.pearson", "call"),
    ("mevforge.analytics", "mann_kendall", "analytics.mann_kendall", "call"),
    ("mevforge.analytics", "risk_score", "analytics.risk_score", "call"),
    *(("mevforge.reports", name, "reports.analyze_write", "call") for name in ANALYZE_WRITERS),
    ("mevforge.reports", "write_slot_log", "reports.slot_log", "call"),
    ("mevforge.reports", "write_campaign_summary", "reports.summary", "call"),
    ("mevforge.pbs", "load_scenario", "pbs.load_scenario", "call"),
    ("mevforge.pbs", "run_campaign", "pbs.campaign", "call"),
    ("mevforge.pbs", "run_slot_bsc", "pbs.slot", "call"),
    ("mevforge.pbs", "run_slot_eth", "pbs.slot", "call"),
    ("mevforge.pools", "load_pool_file", "pools.load", "call"),
    ("mevforge.pbs", "enumerate_cycles", "pools.enumerate", "call"),
    ("mevforge.pools", "best_input_search", "pools.search", "call"),
)
# Counts taken from a wrapped call's arguments: span name -> size of the input.
ARG_COUNTS = {"analytics.pearson": lambda args: len(args[0])}

# Self time of these spans is reported under another metric name; every
# other span name N is reported as N + "_s".  The root span of a command is
# named "cli.<command>", and CLI code running inside a consumer gets the
# root's name too.
SELF_METRIC = {
    "cli.gen-fixtures": "cli.gen_fixtures_self_s",
    "cli.extract": "cli.extract_self_s",
    "cli.analyze": "cli.analyze_self_s",
    "cli.simulate": "cli.simulate_self_s",
    "pbs.campaign": "pbs.campaign_self_s",
}


def self_metric(span_name: str) -> str:
    return SELF_METRIC.get(span_name, span_name + "_s")


class Tracer:
    """Spans kept as parallel lists; a span's parent is the innermost span
    open when it started."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.root_name = ""

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": self.counts}, fh)


class _TracedIterator:
    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self._tracer, self._name, self._inner = tracer, name, inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        span = self._tracer.open(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.close(span)


def _wrap(tracer: Tracer, fn: Callable, name: str, kind: str) -> Callable:
    count = ARG_COUNTS.get(name)

    def call(*args, **kwargs):
        if count is not None:
            tracer.counts[name] = tracer.counts.get(name, 0) + count(args)
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    def iterate(*args, **kwargs):
        return _TracedIterator(tracer, name, iter(fn(*args, **kwargs)))

    def consume(first, items: Iterable, *args, **kwargs):
        return call(first, _TracedIterator(tracer, tracer.root_name, iter(items)), *args, **kwargs)

    return {"call": call, "iter": iterate, "consumer": consume}[kind]


def install(tracer: Tracer) -> None:
    for module_name, attribute, name, kind in WRAPS:
        module = importlib.import_module(module_name)
        setattr(module, attribute, _wrap(tracer, getattr(module, attribute), name, kind))


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from mevforge import cli

    tracer.root_name = "cli." + cli_args[0]
    root = tracer.open(tracer.root_name)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
