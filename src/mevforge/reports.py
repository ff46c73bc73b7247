"""Deterministic report emitters.

Every table is written with a fixed column order, fixed row ordering and
fixed decimal rendering (round half away from zero), so identical inputs always
produce byte-identical files regardless of input row order.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Mapping, Optional

if TYPE_CHECKING:  # analyze needs no pbs, simulate no analytics
    from .analytics import PathComplexity, ProposerSplit, RiskScore, ShareTable, TrendResult
    from .pbs import CampaignSummary, SlotOutcome


def decimal_str(value: Fraction, places: int) -> str:
    """Render a rational as a decimal string at `places`, rounding half away
    from zero (-0.005 at 2 places is -0.01); a value that rounds to zero is
    written without a sign."""
    scaled = abs(value) * 10**places
    units, remainder = divmod(scaled.numerator, scaled.denominator)
    if 2 * remainder >= scaled.denominator:
        units += 1
    sign = "-" if value < 0 and units else ""
    digits = str(units).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def percent_str(share: Fraction, places: int = 2) -> str:
    return decimal_str(share * 100, places)


def _writer(stream: IO[str]):
    return csv.writer(stream, lineterminator="\n")


def write_share_table(stream: IO[str], table: ShareTable) -> None:
    writer = _writer(stream)
    writer.writerow(["brand", "blocks", "validators", "share_pct"])
    for row in table.rows:  # records name no validators, so that column is always 0
        writer.writerow([row.brand, row.block_count, 0, percent_str(row.share)])


def write_profit_matrix(
    stream: IO[str], matrix: Mapping[tuple[str, str], Fraction], shares: Mapping[tuple[str, str], Fraction]
) -> None:
    writer = _writer(stream)
    writer.writerow(["brand", "token", "usd", "token_share_pct"])
    for cell in sorted(matrix):
        writer.writerow([*cell, decimal_str(matrix[cell], 2), percent_str(shares[cell])])


def write_proposer_split(stream: IO[str], splits: Mapping[str, ProposerSplit]) -> None:
    writer = _writer(stream)
    writer.writerow(["brand", "kept_usd", "paid_to_proposer_usd", "payout_fraction_pct"])
    for brand in sorted(splits):
        split = splits[brand]
        writer.writerow(
            [brand, decimal_str(split.kept_usd, 2), decimal_str(split.paid_usd, 2), percent_str(split.payout_fraction)]
        )


def write_complexity(hist_stream: IO[str], ecdf_stream: IO[str], complexity: PathComplexity) -> None:
    writer = _writer(hist_stream)
    writer.writerow(["hop_count", "cycles"])
    for hops, count in complexity.histogram.items():
        writer.writerow([hops, count])
    writer = _writer(ecdf_stream)
    writer.writerow(["hop_count", "cumulative"])
    for hops, cumulative in complexity.ecdf:
        writer.writerow([hops, decimal_str(cumulative, 6)])


def write_correlations(stream: IO[str], rows: Iterable[tuple[str, Optional[float]]]) -> None:
    writer = _writer(stream)
    writer.writerow(["series", "pearson_r"])
    for name, r in sorted(rows):
        text = "" if r is None else f"{r:.12f}"  # ties to even, so not decimal_str, which rounds them away from zero
        writer.writerow([name, "0.000000000000" if text == "-0.000000000000" else text])  # but unsigned at zero, as it is


def write_trends(stream: IO[str], results: Mapping[str, TrendResult]) -> None:
    writer = _writer(stream)
    writer.writerow(["series", "s", "variance", "z", "tau", "direction", "alpha"])
    for name in sorted(results):
        res = results[name]
        writer.writerow(
            [
                name,
                res.s_statistic,
                decimal_str(res.variance, 4),
                f"{res.z_score:.6f}",
                decimal_str(res.tau, 6),
                res.direction.value,
                decimal_str(res.alpha, 4),
            ]
        )


def write_risk_scores(stream: IO[str], scores: Iterable[RiskScore]) -> None:
    writer = _writer(stream)
    writer.writerow(["token", "freezable", "custodial", "external_chain", "score"])
    for score in sorted(scores, key=lambda s: s.symbol):
        writer.writerow(
            [score.symbol, score.freezable, score.custodial, score.external_chain, decimal_str(score.score, 4)]
        )


def write_slot_log(stream: IO[str], outcomes: Iterable[SlotOutcome]) -> None:
    """One row per slot.  A row is its height, then the csv text of the
    rest of its outcome, which is made once per distinct outcome: a
    campaign's outcomes repeat, so the memo grows with the scenario, not
    with the slots."""
    writer = _writer(stream)
    writer.writerow(
        ["height", "winner", "proposer_payment", "fallback", "bids", "blacklist_events", "realized_builder_profit"]
    )
    buffer = io.StringIO()
    rest = _writer(buffer)
    texts: dict[tuple, str] = {}
    for o in outcomes:
        key = o.winner, o.proposer_payment, len(o.schedule.received), o.blacklist_events, o.realized_builder_profit
        text = texts.get(key)
        if text is None:
            buffer.seek(0)
            buffer.truncate()
            winner, payment, bids, events, profit = key
            rest.writerow([winner or "", payment, int(winner is None), bids, "|".join(events), profit])
            text = texts[key] = buffer.getvalue()
        stream.write(f"{o.height},{text}")


def write_campaign_summary(stream: IO[str], summary: CampaignSummary) -> None:
    writer = _writer(stream)
    writer.writerow(["builder_id", "wins", "win_share", "profit", "proposer_revenue"])
    for builder_id, wins in summary.wins.items():
        win_share = decimal_str(Fraction(wins, summary.n_slots), 6)
        writer.writerow([builder_id, wins, win_share, summary.profit[builder_id], summary.revenue[builder_id]])
    total_revenue = sum(summary.revenue.values())
    writer.writerow(["_fallback_rate", "", decimal_str(summary.fallback_rate, 6), "", total_revenue])


def write_text(path: Path, render) -> None:
    """Write a report through a stream-rendering callable, rewriting the
    file in place; the write is not atomic, so a render that fails midway
    leaves the file partly written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        render(fh)
