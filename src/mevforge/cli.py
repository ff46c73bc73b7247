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
import sys
from contextlib import ExitStack, contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, Iterator, TypeVar

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
    ConfigError,
    LineError,
    ParseStats,
    format_address,
    iter_transactions,
    read_labels,
    serialize_transactions,
)

T = TypeVar("T")


class _InputError(Exception):
    """A fault in an input file, as "<path>: line|row N: ..."."""


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


def cmd_extract(args: argparse.Namespace) -> int:
    config = _read(args.config, load_config) if args.config else RunConfig()
    labels = _read(args.labels, read_labels)

    stats = ParseStats()
    errors = 0  # rows written to errors.csv, which opens at the first

    def produce():
        nonlocal errors
        for tx in iter_transactions(traces, stats):
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
                if not errors:
                    error_fh = files.enter_context(open(out / "errors.csv", "w", encoding="utf-8", newline=""))
                    error_rows = csv.writer(error_fh, lineterminator="\n")
                    error_rows.writerow(["tx_hash", "error"])
                error_rows.writerow([format_address(tx.hash), str(exc)])
                errors += 1
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

    try:
        # the trace file opens first, so a missing one leaves --out as it was, or absent
        with _input(args.traces) as traces, ExitStack() as files:
            made = [d for d in (Path(args.out), *Path(args.out).parents) if not d.exists()]  # deepest first
            out = _out_dir(args.out)
            with open(out / "records.csv", "w", encoding="utf-8", newline="") as fh:
                emitted = records.write_records(fh, produce())
    except _InputError:
        # a bad trace line leaves neither report, as analyze writes none on a
        # bad row, nor a directory this run made
        (out / "records.csv").unlink()
        (out / "errors.csv").unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise

    if not errors:
        (out / "errors.csv").unlink(missing_ok=True)
    skipped = stats.transactions - emitted - errors
    print(f"records={emitted} skipped={skipped} unknown_events={stats.unknown_events} errors={errors}")
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analytics, reports

    config = _read(args.config, load_config) if args.config else RunConfig()
    totals = _read(args.records, lambda fh: analytics.RecordTotals(records.iter_records(fh)))
    out = _out_dir(args.out)

    # market share from distinct blocks per brand
    table = analytics.ShareTable(())
    if totals.blocks:
        table = analytics.market_share({b: len(s) for b, s in totals.blocks.items()})
    reports.write_text(out / "shares.csv", lambda fh: reports.write_share_table(fh, table))

    matrix = totals.profit_matrix()
    reports.write_text(out / "profit_matrix.csv", lambda fh: reports.write_profit_matrix(fh, matrix))
    splits = totals.proposer_split()
    reports.write_text(out / "proposer_split.csv", lambda fh: reports.write_proposer_split(fh, splits))

    complexity = analytics.path_complexity(totals.hops)
    with open(out / "complexity_hist.csv", "w", encoding="utf-8", newline="") as hist_fh, open(
        out / "complexity_ecdf.csv", "w", encoding="utf-8", newline=""
    ) as ecdf_fh:
        reports.write_complexity(hist_fh, ecdf_fh, complexity)

    correlations: list[tuple[str, float | None]] = []
    for brand, moments in totals.moments.items():
        try:
            correlations.append((brand, moments.correlation()))
        except analytics.UndefinedCorrelationError:
            correlations.append((brand, None))
    reports.write_text(out / "correlations.csv", lambda fh: reports.write_correlations(fh, correlations))

    trends: dict[str, analytics.TrendResult] = {}
    for name, series in totals.daily_series().items():
        try:
            trends[name] = analytics.mann_kendall(series, config.alpha)
        except analytics.InsufficientDataError:
            continue
    reports.write_text(out / "trends.csv", lambda fh: reports.write_trends(fh, trends))

    scores = [
        analytics.risk_score(symbol, *config.risk_bits[symbol])
        for symbol in sorted({token for _brand, token in matrix})
        if symbol in config.risk_bits
    ]
    reports.write_text(out / "risk_scores.csv", lambda fh: reports.write_risk_scores(fh, scores))

    print(f"analyzed={totals.rows} brands={len(totals.blocks)} reports={out}")
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
    top_text = "-" if top is None else f"{top}:{summary.wins[top]}"
    print(f"slots={args.slots} top={top_text} fallback_rate={reports.decimal_str(summary.fallback_rate, 6)}")
    return 0


# ---------------------------------------------------------------------------
# gen-fixtures


_PLANTED_KEYS = frozenset(("base_token", "gross", "hop_count", "net", "path", "pools", "share", "tx_hash"))
# a separator, then one planted cycle as json.dump(indent=2, sort_keys=True)
# writes it inside a trace manifest
_PLANTED_ENTRY = """%s
    {
      "base_token": %s,
      "gross": %d,
      "hop_count": %d,
      "net": %d,
      "path": [
        %s
      ],
      "pools": [
        %s
      ],
      "share": %d,
      "tx_hash": %s
    }"""


def _planted_text(sep: str, entry: dict) -> str:
    """sep, then entry as _PLANTED_ENTRY writes it; ValueError or TypeError
    for an entry whose text json would write otherwise."""
    if type(entry) is not dict or entry.keys() != _PLANTED_KEYS:
        raise ValueError(f"planted entry: expected the keys {sorted(_PLANTED_KEYS)}, got {entry!r:.80}")
    path, pools = entry["path"], entry["pools"]
    amounts = entry["gross"], entry["hop_count"], entry["net"], entry["share"]
    if not (type(path) is list and path and type(pools) is list and pools) or any(type(n) is not int for n in amounts):
        raise ValueError(f"planted entry: expected nonempty path and pools lists and int amounts, got {entry!r:.80}")
    text = encode_basestring_ascii
    gross, hop_count, net, share = amounts
    return _PLANTED_ENTRY % (
        sep, text(entry["base_token"]), gross, hop_count, net,
        ",\n        ".join(map(text, path)), ",\n        ".join(map(text, pools)), share, text(entry["tx_hash"]),
    )


def _spool_planted(spool: IO[str], drawn: Iterator[tuple[T, dict | None]]) -> Iterator[T]:
    """Each item drawn, in turn; each planted entry drawn with one is written
    to spool as it comes, as _planted_text writes it after "[" (the first) or
    "," (the rest), so spool holds json's text of the planted list but its
    "\\n  ]" end."""
    sep = "["
    for item, entry in drawn:
        if entry is not None:
            spool.write(_planted_text(sep, entry))
            sep = ","
        yield item


def _write_manifest(out: Path, manifest: dict, planted: IO[str] | None = None) -> None:
    """Write out/manifest.json as exactly json.dump(manifest, fh, indent=2,
    sort_keys=True) then "\\n" writes it.  With a planted spool (a trace
    corpus's ground truth, as _spool_planted wrote it, nearly all of the
    file's bytes), "planted" is the list the spool holds: json.dump's text
    before that key is written, then the spool copied as it is, then the
    text after it.  The head waits for the spool, since the keys before
    "planted" include counts known only once every entry is drawn."""
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        if planted is None:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        else:
            # nested lines are indented deeper and strings hold no newline, so
            # the marker matches the top-level key only
            text = json.dumps({**manifest, "planted": None}, indent=2, sort_keys=True)
            head, _, tail = text.partition('\n  "planted": null')
            fh.write(head + '\n  "planted": ')
            if planted.tell():
                import shutil

                planted.seek(0)
                shutil.copyfileobj(planted, fh)
                fh.write("\n  ]" + tail)
            else:
                fh.write("[]" + tail)
        fh.write("\n")


def cmd_gen_fixtures(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    if args.kind in ("traces", "pools", "records"):
        from . import fixtures
    if args.kind == "traces":
        import tempfile

        corpus = fixtures.gen_trace_corpus(args.seed, 1000 if args.count is None else args.count)
        with open(out / "labels.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("brand,instance,address\n")
            for label in corpus.labels:
                fh.write(f"{label.brand},{label.instance_name},0x{label.address.hex()}\n")
        with open(out / "run.cfg", "w", encoding="utf-8") as fh:
            fh.write("# prices for the generated token universe (majors use defaults)\n")
            prices = RunConfig().price_table
            for symbol in corpus.manifest["tokens"]:
                if symbol not in prices:
                    fh.write(f"price_table.{symbol} = 1\n")
        # the spool goes under --out, since on a tmpfs /tmp its pages would be memory
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=out) as planted:
            with open(out / "traces.ndjson", "w", encoding="utf-8") as fh:
                fh.writelines(serialize_transactions(_spool_planted(planted, corpus.transactions)))
            _write_manifest(out, corpus.manifest, planted)
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
