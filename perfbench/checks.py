"""Output checks and workload property counters, read from the files the
CLI writes.  Only the standard library is used, so a broken program cannot
break its own checks.

Each check returns (ok, detail).  Decimal report columns are rounded half
up, so sums of rounded cells are compared with half a unit of the last
place per summed cell.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

KNOWN_EVENT_KINDS = {"swap", "sync", "transfer", "internal"}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under a directory, keyed by relative path."""
    return {
        str(path.relative_to(directory)): sha256_file(path)
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def read_records(path: Path) -> list[dict]:
    """records.csv rows after the schema_version and header rows."""
    rows = _csv_rows(path)
    header = rows[1]
    return [dict(zip(header, row)) for row in rows[2:]]


def _half_units(places: int, cells: int) -> Fraction:
    return Fraction(cells, 2 * 10**places)


# ---------------------------------------------------------------------------
# trace-pipeline


def records_match_manifest(records: list[dict], manifest: dict) -> tuple[bool, str]:
    planted = {p["tx_hash"]: p for p in manifest["planted"]}
    if len(records) != manifest["planted_cycles"]:
        return False, f"{len(records)} records, {manifest['planted_cycles']} planted cycles"
    for row in records:
        truth = planted.get(row["tx_hash"])
        if truth is None:
            return False, f"{row['tx_hash']} is not a planted cycle"
        got = (row["base_token"], int(row["hop_count"]), int(row["gross"]), int(row["share"]), int(row["net"]))
        want = (truth["base_token"], truth["hop_count"], truth["gross"], truth["share"], truth["net"])
        if got != want:
            return False, f"{row['tx_hash']}: got {got}, planted {want}"
    return True, f"{len(records)} records equal the planted cycles"


def shares_sum_to_100(shares_csv: Path) -> tuple[bool, str]:
    rows = _csv_rows(shares_csv)[1:]
    total = sum((Fraction(row[3]) for row in rows), Fraction(0))
    ok = bool(rows) and abs(total - 100) <= _half_units(2, len(rows))
    return ok, f"share_pct sums to {float(total)} over {len(rows)} brands"


def matrix_total_matches(matrix_csv: Path, records: list[dict]) -> tuple[bool, str]:
    cells = _csv_rows(matrix_csv)[1:]
    reported = sum((Fraction(row[2]) for row in cells), Fraction(0))
    expected = sum((Fraction(row["usd_value"]) for row in records), Fraction(0))
    ok = abs(reported - expected) <= _half_units(2, len(cells))
    return ok, f"matrix total {float(reported):.2f} vs record usd_value sum {float(expected):.2f}"


def split_usd_mismatch(split_csv: Path, records: list[dict]) -> int:
    """Brands whose proposer_split.csv kept + paid USD differs from the
    records' net + share in USD.  Each token's USD per base unit is taken
    from the records themselves (usd_value / net), which extract computed
    with the token's real decimals."""
    scale: dict[str, Fraction] = {}
    for row in records:
        net = int(row["net"])
        if net and row["base_token"] not in scale:
            scale[row["base_token"]] = Fraction(row["usd_value"]) / net
    expected: dict[str, Fraction] = {}
    for row in records:
        usd = (int(row["net"]) + int(row["share"])) * scale.get(row["base_token"], Fraction(0))
        expected[row["builder_brand"]] = expected.get(row["builder_brand"], Fraction(0)) + usd
    reported = {row[0]: Fraction(row[1]) + Fraction(row[2]) for row in _csv_rows(split_csv)[1:]}
    tolerance = _half_units(2, 2)
    return sum(
        1
        for brand in set(expected) | set(reported)
        if abs(reported.get(brand, Fraction(0)) - expected.get(brand, Fraction(0))) > tolerance
    )


def trace_properties(traces_ndjson: Path) -> dict[str, float]:
    transactions = events = token_refs = 0
    distinct: set[tuple] = set()
    with open(traces_ndjson, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            transactions += 1
            for event in json.loads(line)["events"]:
                if event.get("kind") not in KNOWN_EVENT_KINDS:
                    continue
                events += 1
                for key in ("token_in", "token_out"):
                    token = event.get(key)
                    if token is not None:
                        token_refs += 1
                        distinct.add((token["symbol"], token["address"], token["decimals"]))
    return {
        "traces.transactions": transactions,
        "traces.events": events,
        "traces.tokens_per_distinct": token_refs / len(distinct) if distinct else 0.0,
    }


# ---------------------------------------------------------------------------
# simulations


def _round_half_up(value: Fraction, places: int) -> str:
    """Decimal text of a non-negative fraction, rounded half up."""
    scaled = value * 10**places
    units = scaled.numerator // scaled.denominator
    if scaled - units >= Fraction(1, 2):
        units += 1
    digits = str(units).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def slot_fold_matches(slots_csv: Path, summary_csv: Path, n_slots: int) -> tuple[bool, str]:
    """Wins plus fallbacks equal slots, and summary.csv equals the fold of
    slots.csv (wins, win share, profit and revenue per builder, fallback
    rate and total revenue)."""
    slots = _csv_rows(slots_csv)[1:]
    wins: dict[str, int] = {}
    profit: dict[str, int] = {}
    revenue: dict[str, int] = {}
    fallbacks = 0
    for height, winner, payment, fallback, _bids, _events, realized in slots:
        if fallback == "1":
            fallbacks += 1
            continue
        wins[winner] = wins.get(winner, 0) + 1
        profit[winner] = profit.get(winner, 0) + int(realized)
        revenue[winner] = revenue.get(winner, 0) + int(payment)
    if len(slots) != n_slots or sum(wins.values()) + fallbacks != n_slots:
        return False, f"{len(slots)} rows, {sum(wins.values())} wins + {fallbacks} fallbacks for {n_slots} slots"

    summary = _csv_rows(summary_csv)[1:]
    builders = [row[0] for row in summary[:-1]]
    if not set(wins) <= set(builders):
        return False, f"winners {sorted(set(wins) - set(builders))} missing from summary.csv"
    expected = [
        [b, str(wins.get(b, 0)), _round_half_up(Fraction(wins.get(b, 0), n_slots), 6), str(profit.get(b, 0)), str(revenue.get(b, 0))]
        for b in builders
    ]
    expected.append(["_fallback_rate", "", _round_half_up(Fraction(fallbacks, n_slots), 6), "", str(sum(revenue.values()))])
    if summary != expected:
        mismatched = next(i for i, (a, b) in enumerate(zip(summary, expected)) if a != b)
        return False, f"summary row {mismatched + 1}: {summary[mismatched]} != fold {expected[mismatched]}"
    return True, f"{sum(wins.values())} wins + {fallbacks} fallbacks = {n_slots} slots; summary equals the fold"


def slot_properties(slots_csv: Path) -> dict[str, float]:
    slots = _csv_rows(slots_csv)[1:]
    n = len(slots)
    return {
        "pbs.bids_per_slot": sum(int(row[4]) for row in slots) / n if n else 0.0,
        "pbs.blacklist_events": sum(len(row[5].split("|")) for row in slots if row[5]),
        "pbs.fallback_rate": sum(row[3] == "1" for row in slots) / n if n else 0.0,
    }
