"""Command-line surface: extract, analyze, simulate, gen-fixtures.

All randomness flows from --seed; outputs are deterministic byte streams,
so rerunning a command over the same inputs rewrites identical files.
Exit status is 1 when extract writes an error row, or when a command stops
with an "error:" line on standard error (a missing or malformed config,
label, trace, records or scenario file, or an output it cannot write); 2 on
a usage error; 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NoReturn, TypeVar

# each command imports the other modules it needs, so extract loads no
# analytics, fixtures, pbs, pools or reports
from . import records
from .arbitrage import (
    MissingPriceError,
    ShareTokenError,
    attribute_profit,
    extract_arbitrage_cycle,
    to_usd,
)
from .config import RunConfig, load_config
from .traces import (
    LABEL_HEADER,
    ConfigError,
    LineError,
    TraceParseError,
    format_address,
    iter_transactions,
    read_labels,
    serialize_transactions,
)

T = TypeVar("T")


class _InputError(Exception):
    """A fault in an input file, as "<path>: ..."."""


@contextmanager
def _input(path: str) -> Iterator[IO[bytes]]:
    """The file at path, opened as bytes for a reader; a LineError raised
    while it is open names the file in an _InputError."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except LineError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _read(path: str, reader: Callable[[IO[bytes]], T]) -> T:
    """What reader reads from the file at path."""
    with _input(path) as fh:
        return reader(fh)


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# extract
#
# A regular trace file is read as one byte span per usable CPU (_run_spans).
# A transaction needs nothing from other lines but its line number, so
# neither the reports nor a fault depend on how many spans there are.


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _spans(traces: IO[bytes], k: int) -> list[tuple[int, int | None]]:
    """(start, end) byte offsets of k spans that cover the regular file
    traces in order, each cut just after a newline, so any of them may be
    empty; or one span, (0, None), read to its end, for a pipe or any other
    file that is not regular.  traces is left at its start."""
    info = os.fstat(traces.fileno())
    if not stat.S_ISREG(info.st_mode):
        return [(0, None)]
    cuts = [0]
    for i in range(1, k):
        target = info.st_size * i // k
        if target > cuts[-1]:
            traces.seek(target - 1)
            traces.readline()  # to just after the first newline at or past target - 1
            target = traces.tell()
        cuts.append(max(target, cuts[-1]))
    traces.seek(0)
    return list(zip(cuts, [*cuts[1:], info.st_size]))


def _naming(exc: BaseException, name: str) -> BaseException:
    """exc, or if it is an OSError with an errno and no file name (a failed
    read or write of an open file), the same fault naming the file name."""
    if isinstance(exc, OSError) and exc.errno is not None and exc.filename is None:
        return OSError(exc.errno, exc.strerror, name)
    return exc


def _lines_to(fh: IO[bytes], end: int | None) -> Iterator[bytes]:
    """The lines of fh from where it stands up to byte offset end, which
    falls just after a newline or at the end of the file; to the end of the
    file for None.  A failed read names the file."""
    try:
        left = float("inf") if end is None else end - fh.tell()
        while left > 0:
            line = fh.readline()
            if not line:
                return
            left -= len(line)
            yield line
    except OSError as exc:
        raise _naming(exc, fh.name)


def _extract_span(lines: Iterable[bytes], rows: IO[str], errors: IO[str], *, config: RunConfig, labels: dict) -> Counter[str]:
    """Extract the transactions on lines; their counts, as iter_transactions
    counts them: a records.csv row to rows for each cycle (counted as
    "records"), and an errors.csv row to errors for each cycle that cannot be
    priced or dated (as "errors"), neither after a header."""
    counts: Counter[str] = Counter()
    error_rows = csv.writer(errors, lineterminator="\n")

    def cycles():
        for tx in iter_transactions(lines, counts):
            path = extract_arbitrage_cycle(tx)
            if path is None:
                continue
            base_token = path.tokens[0]
            label = labels.get(tx.initiator)
            try:
                gross, share, gas = attribute_profit(tx, config.share_addresses, config.price_table, config.infer_pool_sinks)
                net = gross - share - gas
                usd_value = to_usd(net, base_token, config.price_table)
                share_usd = to_usd(share, base_token, config.price_table)
                timestamp = records.timestamp_for_block(tx.block_number, config.genesis_unix)
            except (MissingPriceError, ShareTokenError, records.TimestampRangeError) as exc:
                error_rows.writerow([format_address(tx.hash), str(exc)])
                counts["errors"] += 1
                continue
            yield records.ArbitrageRecord(
                tx_hash=tx.hash,
                block_number=tx.block_number,
                builder_brand=label.brand if label else "Unknown",
                base_token=base_token.symbol,
                hop_count=path.n_hops,
                gross=gross,
                share=share,
                gas=gas,
                net=net,
                usd_value=usd_value,
                share_usd=share_usd,
                timestamp_utc=timestamp,
            )

    counts["records"] += records.write_records(rows, cycles(), header=False)
    return counts


def _work(fh: IO[bytes], end: int | None, outputs: list[IO[str]], report: IO[str], run: Callable) -> NoReturn:
    """The life of a forked worker: run(lines, *outputs) over the lines of fh
    from where it stands up to byte offset end, flush the outputs, then write
    to report, as JSON, what run returned, the first bad line, or the OSError
    that stopped it, and exit 0; any other fault exits 1 with no report.  It
    writes nothing to stderr and never returns into its caller's code."""
    try:
        try:
            result = {"report": run(_lines_to(fh, end), *outputs)}
            for output in outputs:
                output.flush()  # where a full disk most often fails
        except TraceParseError as exc:
            result = {"line": exc.line_no, "message": exc.message}
        except OSError as exc:
            result = {"fault": [exc.errno, exc.strerror, exc.filename]}
        json.dump(result, report)
        report.flush()
        os._exit(0)
    finally:
        os._exit(1)


def _run_spans(traces: IO[bytes], out: Path, outputs: list[IO[str]], run: Callable) -> Iterator[tuple[object, list]]:
    """run(lines, *outputs) over each span of traces: the first here, into
    outputs, each later nonempty one in a worker forked with its own handle
    on traces, into unnamed temporary files under out, reporting through a
    pipe, which needs no disk.  Yields what run returned and the files it
    wrote (none for the first), in span order.  A worker's bad line raises
    TraceParseError naming its line in the whole file and its OSError is
    raised again; a worker that cannot fork, is killed, exits nonzero or
    reports nothing raises ChildProcessError.  No worker outlives the run."""
    import signal
    import tempfile

    path, spans, opened = traces.name, _spans(traces, _usable_cpus()), os.fstat(traces.fileno())
    workers = []  # those not yet reaped, in span order; the finally kills and reaps any left
    with ExitStack() as files:
        try:
            for start, end in spans[1:]:
                if start == end:
                    continue
                fh = files.enter_context(open(path, "rb"))
                if not os.path.samestat(os.fstat(fh.fileno()), opened):
                    raise _InputError(f"{path}: replaced while extract was reading it")
                fh.seek(start)
                temps = [files.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=out)) for _ in outputs]
                read_end, write_end = os.pipe()
                report, report_end = files.enter_context(open(read_end, "rb")), files.enter_context(open(write_end, "w"))
                try:
                    pid = os.fork()
                except OSError as exc:
                    raise ChildProcessError(f"{path}: extract worker for bytes {start}-{end} could not start: {exc}") from exc
                if pid == 0:
                    _work(fh, end, temps, report_end, run)
                report_end.close()  # so the report ends when the worker does
                workers.append((start, end, pid, temps, report))

            yield run(_lines_to(traces, spans[0][1]), *outputs), []
            while workers:
                start, end, pid, temps, report = workers[0]
                text = report.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[0]
                if code or not text:
                    ended = f"exited with status {code}" if code else "reported nothing"
                    raise ChildProcessError(f"{path}: extract worker for bytes {start}-{end} {ended}")
                result = json.loads(text)
                if "line" in result:
                    traces.seek(0)
                    before = sum(1 for _ in _lines_to(traces, start))
                    raise TraceParseError(before + result["line"], result["message"])
                if "fault" in result:
                    raise OSError(*result["fault"])
                yield result["report"], temps
        finally:
            for _start, _end, pid, _temps, _report in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _extract_spans(traces: IO[bytes], out: Path, rows: IO[str], errors: IO[str], extract: Callable) -> Counter[str]:
    """Run extract over each span of traces into rows and errors, appending workers' files in span order; the summed counts."""
    import shutil

    counts: Counter[str] = Counter()
    with closing(_run_spans(traces, out, [rows, errors], extract)) as spans:
        for span_counts, files in spans:
            counts.update(span_counts)
            for worker_file, report_file in zip(files, (rows, errors)):
                worker_file.seek(0)
                shutil.copyfileobj(worker_file, report_file)
    return counts


def cmd_extract(args: argparse.Namespace) -> int:
    config = _read(args.config, load_config) if args.config else RunConfig()
    labels = _read(args.labels, read_labels)
    extract = partial(_extract_span, config=config, labels=labels)

    # the trace file opens first, so a missing one leaves --out as it was, or absent
    with _input(args.traces) as traces:
        made = [d for d in (Path(args.out), *Path(args.out).parents) if not d.exists()]  # deepest first
        out = _out_dir(args.out)
        try:
            with open(out / "records.csv", "w", encoding="utf-8", newline="") as rows, open(
                out / "errors.csv", "w", encoding="utf-8", newline=""
            ) as errors:
                records.write_records(rows, ())
                errors.write("tx_hash,error\n")
                counts = _extract_spans(traces, out, rows, errors, extract)
        except BaseException as exc:
            # however the run ends early, it leaves neither report (analyze writes
            # none on a bad row) nor a directory it made; a forked worker never gets
            # here.  A fault of an open file that names none is a failed write under --out.
            (out / "records.csv").unlink(missing_ok=True)
            (out / "errors.csv").unlink(missing_ok=True)
            for directory in made:
                directory.rmdir()
            raise _naming(exc, args.out)

    if not counts["errors"]:
        (out / "errors.csv").unlink()
    skipped = counts["transactions"] - counts["records"] - counts["errors"]
    print(f"records={counts['records']} skipped={skipped} unknown_events={counts['unknown_events']} errors={counts['errors']}")
    return 1 if counts["errors"] else 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analytics, reports

    config = _read(args.config, load_config) if args.config else RunConfig()
    totals = _read(args.records, lambda fh: analytics.RecordTotals(records.iter_records(fh)))
    out = _out_dir(args.out)

    table = totals.share_table()
    reports.write_text(out / "shares.csv", lambda fh: reports.write_share_table(fh, table))
    matrix, shares = totals.profit_matrix(), totals.profit_shares()
    reports.write_text(out / "profit_matrix.csv", lambda fh: reports.write_profit_matrix(fh, matrix, shares))
    splits = totals.proposer_split()
    reports.write_text(out / "proposer_split.csv", lambda fh: reports.write_proposer_split(fh, splits))
    complexity = totals.complexity()
    with open(out / "complexity_hist.csv", "w", encoding="utf-8", newline="") as hist_fh, open(
        out / "complexity_ecdf.csv", "w", encoding="utf-8", newline=""
    ) as ecdf_fh:
        reports.write_complexity(hist_fh, ecdf_fh, complexity)
    correlations = totals.correlations()
    reports.write_text(out / "correlations.csv", lambda fh: reports.write_correlations(fh, correlations.items()))
    trends = totals.trends(config.alpha)
    reports.write_text(out / "trends.csv", lambda fh: reports.write_trends(fh, trends))
    scores = totals.risk_scores(config.risk_bits)
    reports.write_text(out / "risk_scores.csv", lambda fh: reports.write_risk_scores(fh, scores))

    print(f"analyzed={totals.rows} brands={len(table)} reports={out}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import pbs, reports

    scenario = pbs.load_scenario(args.scenario)
    outcomes = pbs.run_campaign(scenario, args.slots, args.seed)
    out = _out_dir(args.out)
    summary = pbs.CampaignSummary(scenario.builders)

    def folded():
        for outcome in outcomes:
            summary.add(outcome)
            yield outcome

    reports.write_text(out / "slots.csv", lambda fh: reports.write_slot_log(fh, folded()))
    reports.write_text(out / "summary.csv", lambda fh: reports.write_campaign_summary(fh, summary))
    top = max(summary.wins, key=summary.wins.get, default=None)
    top_text = f"{top}:{summary.wins[top]}" if summary.wins.get(top) else "-"  # no top when no builder won
    print(f"slots={summary.n_slots} top={top_text} fallback_rate={reports.decimal_str(summary.fallback_rate, 6)}")
    return 0


# ---------------------------------------------------------------------------
# gen-fixtures


def _write_trace_manifest(fh: IO[str], drawn: Iterator[tuple[T, dict | None]], manifest: dict) -> Iterator[T]:
    """Each item drawn, in turn, with a trace manifest written to fh: its
    planted list first, one compact line per entry as it is drawn, then
    manifest's own keys and the counts of the entries written
    (planted_cycles) and of the items drawn without one (non_cycles)."""
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(sort_keys=True) builds one per call
    fh.write('{"planted": [')
    planted = items = 0
    for item, entry in drawn:
        if entry is not None:
            fh.write((",\n" if planted else "\n") + encode(entry))
            planted += 1
        items += 1
        yield item
    fh.write("\n], " + encode({**manifest, "planted_cycles": planted, "non_cycles": items - planted})[1:] + "\n")


def _write_manifest(out: Path, manifest: dict) -> None:
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen_fixtures(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    if args.kind in ("traces", "pools", "records"):
        from . import fixtures
    if args.kind == "traces":
        corpus = fixtures.gen_trace_corpus(args.seed, 1000 if args.count is None else args.count)
        with open(out / "labels.csv", "w", encoding="utf-8", newline="") as fh:
            rows = csv.writer(fh, lineterminator="\n")
            rows.writerow(LABEL_HEADER)
            rows.writerows((label.brand, label.instance_name, format_address(label.address)) for label in corpus.labels)
        with open(out / "run.cfg", "w", encoding="utf-8") as fh:
            fh.write("# prices for the generated token universe (majors use defaults)\n")
            prices = RunConfig().price_table
            for symbol in corpus.manifest["tokens"]:
                if symbol not in prices:
                    fh.write(f"price_table.{symbol} = 1\n")
        with open(out / "manifest.json", "w", encoding="utf-8") as manifest:
            with open(out / "traces.ndjson", "w", encoding="utf-8") as fh:
                fh.writelines(serialize_transactions(_write_trace_manifest(manifest, corpus.transactions, corpus.manifest)))
    elif args.kind == "pools":
        from . import pools

        fixture = fixtures.gen_pool_fixture(args.seed)
        with open(out / "pools.ndjson", "w", encoding="utf-8") as fh:
            fh.write(pools.dump_pool_file(fixture.pools))
        _write_manifest(out, fixture.manifest)
    elif args.kind == "records":
        with open(out / "records.csv", "w", encoding="utf-8", newline="") as fh:
            count = records.write_records(fh, fixtures.gen_records(args.seed, 500 if args.count is None else args.count))
        _write_manifest(out, {"kind": "records", "seed": args.seed, "rows": count})
    else:  # "scenario": argparse restricts --kind to the four kinds
        from . import BUNDLED_SCENARIOS

        bundled = sorted(BUNDLED_SCENARIOS.glob("*.json"))
        for path in bundled:
            (out / path.name).write_bytes(path.read_bytes())
        _write_manifest(out, {"kind": "scenario", "seed": args.seed, "files": [path.name for path in bundled]})
    print(f"kind={args.kind} seed={args.seed} out={out}")
    return 0


# ---------------------------------------------------------------------------


def _count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mevforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="parse traces and emit per-cycle records")
    p.add_argument("--traces", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", help="aggregate records into report tables")
    p.add_argument("--records", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a slot-auction campaign")
    p.add_argument("--scenario", required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-fixtures", help="write seeded synthetic fixtures with a ground-truth manifest")
    p.add_argument("--kind", choices=("traces", "pools", "records", "scenario"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-fixtures" and args.count is not None and args.kind not in ("traces", "records"):
        parser.error(f"argument --count: --kind {args.kind} writes fixed files, not a count of items")
    try:
        return args.func(args)
    except (_InputError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
