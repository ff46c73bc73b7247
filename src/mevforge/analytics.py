"""Aggregate statistics over extracted cycles.

Market shares, per-builder/per-token profit matrices, proposer payout
splits, swap-path complexity, path-length/profit correlation, a
tie-corrected Mann-Kendall trend test and a three-feature centralisation
risk score.  Aggregation is one pass over the records (RecordTotals)
that adds their Decimal dollars in records.EXACT, so every sum is exact;
a sum becomes a Fraction only where a ratio is taken of it (token shares,
the payout fraction, profit per hop and Pearson), and decimal rounding
happens only when reports are rendered.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import suppress
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

from .records import EXACT, ArbitrageRecord
from .traces import Frozen

ZERO = Decimal(0)


class EmptyMarketError(ValueError):
    """All block counts are zero."""


class InsufficientDataError(ValueError):
    """Trend testing needs at least three observations."""


class UndefinedCorrelationError(ValueError):
    """Correlation needs two or more points with variance in both coordinates."""


# ---------------------------------------------------------------------------
# market share


class ShareRow(Frozen):
    brand: str
    block_count: int
    share: Fraction


def market_share(block_counts: Mapping[str, int]) -> tuple[ShareRow, ...]:
    """Exact rational market shares, ordered non-increasing."""
    if any(c < 0 for c in block_counts.values()):  # a library contract: analyze counts blocks, never below 0
        raise ValueError("block counts must be non-negative")
    total = sum(block_counts.values())
    if total == 0:
        raise EmptyMarketError("no blocks produced by any brand")
    rows = [ShareRow(brand, count, Fraction(count, total)) for brand, count in block_counts.items()]
    rows.sort(key=lambda r: (-r.share, r.brand))
    return tuple(rows)


# ---------------------------------------------------------------------------
# profit matrix and proposer split


def token_shares(matrix: Mapping[tuple[str, str], Fraction]) -> dict[tuple[str, str], Fraction]:
    """Each (brand, token) cell's fraction of the profit extracted in its
    token; a token whose cells sum to 0 gives each of its cells 0."""
    totals: dict[str, Fraction] = {}
    for (_brand, token), usd in matrix.items():
        totals[token] = totals.get(token, Fraction(0)) + usd
    return {
        (brand, token): usd / totals[token] if totals[token] != 0 else Fraction(0)
        for (brand, token), usd in matrix.items()
    }


class ProposerSplit(Frozen):
    kept_usd: Fraction
    paid_usd: Fraction
    payout_fraction: Fraction


# ---------------------------------------------------------------------------
# Mann-Kendall trend test


class TrendDirection(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NO_TREND = "no_trend"


class TrendResult(Frozen):
    s_statistic: int
    variance: Fraction
    z_score: float
    tau: Fraction
    direction: TrendDirection
    alpha: Fraction


def mann_kendall(series: Sequence, alpha: Fraction = Fraction(1, 20)) -> TrendResult:
    """Tie-corrected Mann-Kendall test with the +/-1 continuity correction.

    S = sum over i<j of sign(x_j - x_i);
    Var(S) = [n(n-1)(2n+5) - sum_t t(t-1)(2t+5)] / 18 over tie groups t;
    tau = S / (n(n-1)/2); direction decided two-sided against the normal
    critical value at alpha.
    """
    n = len(series)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    s = 0
    for i in range(n - 1):
        xi = series[i]
        for j in range(i + 1, n):
            if series[j] > xi:
                s += 1
            elif series[j] < xi:
                s -= 1

    tie_sizes = Counter(series).values()
    tie_term = sum(t * (t - 1) * (2 * t + 5) for t in tie_sizes if t > 1)
    variance = Fraction(n * (n - 1) * (2 * n + 5) - tie_term, 18)

    if s == 0 or variance == 0:
        z = 0.0
    elif s > 0:
        z = (s - 1) / math.sqrt(float(variance))
    else:
        z = (s + 1) / math.sqrt(float(variance))

    critical = NormalDist().inv_cdf(1 - float(alpha) / 2)
    if abs(z) < critical:
        direction = TrendDirection.NO_TREND
    else:
        direction = TrendDirection.INCREASING if z > 0 else TrendDirection.DECREASING
    return TrendResult(
        s_statistic=s,
        variance=variance,
        z_score=z,
        tau=Fraction(s, n * (n - 1) // 2),
        direction=direction,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# path complexity and correlation


class PathComplexity(Frozen):
    histogram: dict[int, int]
    ecdf: tuple[tuple[int, Fraction], ...]


def path_complexity(counts: Mapping[int, int]) -> PathComplexity:
    """Histogram and empirical CDF from the number of cycles per hop count."""
    total = sum(counts.values())
    histogram = dict(sorted(counts.items()))
    ecdf: list[tuple[int, Fraction]] = []
    running = 0
    for hops, count in histogram.items():
        running += count
        ecdf.append((hops, Fraction(running, total)))
    return PathComplexity(histogram=histogram, ecdf=tuple(ecdf))


def pearson(groups: Mapping) -> float:
    """Pearson correlation of (x, y) points given grouped by x, as x ->
    (count, sum of y, sum of y^2); x and y are exact numbers, such as ints
    and Fractions.

    sxx = sum(x^2) - sum(x)^2 / n, and likewise syy and sxy, are the same
    rationals as the two-pass sums of squared deviations; only the final
    square root leaves rational arithmetic, so perfectly linear inputs
    give exactly +/-1.0.
    """
    n = sum(count for count, _sy, _syy in groups.values())
    if n < 2:
        raise UndefinedCorrelationError("need at least 2 points")
    sum_x = sum_xx = sum_y = sum_yy = sum_xy = Fraction(0)
    for x, (count, group_y, group_yy) in groups.items():
        sum_x += x * count
        sum_xx += x * x * count
        sum_y += group_y
        sum_yy += group_yy
        sum_xy += x * group_y
    sxx = sum_xx - sum_x * sum_x / n
    syy = sum_yy - sum_y * sum_y / n
    sxy = sum_xy - sum_x * sum_y / n
    if sxx == 0 or syy == 0:
        raise UndefinedCorrelationError("zero variance in one coordinate")
    magnitude = math.sqrt(float(Fraction(sxy * sxy, sxx * syy)))
    return magnitude if sxy > 0 else -magnitude


def pathlen_profit_correlation(points: Iterable[tuple]) -> float:
    """Pearson correlation of (hop count, profit per swap) pairs, computed
    exactly by pearson."""
    groups: dict = {}
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        count, sum_y, sum_yy = groups.get(x, (0, 0, 0))
        groups[x] = count + 1, sum_y + y, sum_yy + y * y
    return pearson(groups)


# ---------------------------------------------------------------------------
# centralisation risk


class RiskScore(Frozen):
    symbol: str
    freezable: int
    custodial: int
    external_chain: int
    score: Fraction


def risk_score(symbol: str, freezable: int, custodial: int, external_chain: int) -> RiskScore:
    """Average of three binary intervention-risk features, in [0, 1]."""
    bits = (freezable, custodial, external_chain)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("risk features must be 0 or 1")
    return RiskScore(
        symbol=symbol,
        freezable=freezable,
        custodial=custodial,
        external_chain=external_chain,
        score=Fraction(sum(bits), 3),
    )


# ---------------------------------------------------------------------------
# the one-pass fold of records


class RecordTotals:
    """What the analyze reports need from records, folded one record at a
    time into sums, with one method per report value: distinct blocks per
    brand, and dollars per (brand, token) cell, per (brand, day), paid
    onward per brand, and per (brand, hop count) with their count and
    squares, added as Decimals in records.EXACT (the default context rounds
    past 28 digits).  Memory grows with brands x tokens x days plus distinct
    blocks, not with rows."""

    def __init__(self, records: Iterable[ArbitrageRecord]) -> None:
        self.blocks: dict[str, set[int]] = {}
        self.hop_groups: dict[tuple[str, int], list] = {}  # (brand, hops) -> [count, sum of usd, sum of usd^2]
        self._cells: dict[tuple[str, str], Decimal] = {}
        self._paid: dict[str, Decimal] = {}
        self._day_usd: dict[tuple[str, str], Decimal] = {}
        self._day_txs: Counter[tuple[str, str]] = Counter()
        add, multiply = EXACT.add, EXACT.multiply
        for record in records:
            brand, usd = record.builder_brand, record.usd_value
            cell, day = (brand, record.base_token), (brand, record.timestamp_utc[:10])
            self.blocks.setdefault(brand, set()).add(record.block_number)
            group = self.hop_groups.setdefault((brand, record.hop_count), [0, ZERO, ZERO])
            group[0] += 1
            group[1] = add(group[1], usd)
            group[2] = add(group[2], multiply(usd, usd))
            self._cells[cell] = add(self._cells.get(cell, ZERO), usd)
            self._paid[brand] = add(self._paid.get(brand, ZERO), record.share_usd)
            self._day_usd[day] = add(self._day_usd.get(day, ZERO), usd)
            self._day_txs[day] += 1

    @property
    def rows(self) -> int:
        return sum(count for count, _usd, _usd2 in self.hop_groups.values())

    def share_table(self) -> tuple[ShareRow, ...]:
        """Market shares of distinct blocks; empty when there is no record."""
        return market_share({brand: len(blocks) for brand, blocks in self.blocks.items()}) if self.blocks else ()

    def profit_matrix(self) -> dict[tuple[str, str], Fraction]:
        return {cell: Fraction(usd) for cell, usd in self._cells.items()}

    def profit_shares(self) -> dict[tuple[str, str], Fraction]:
        """The profit matrix's token_shares."""
        return token_shares(self.profit_matrix())

    def proposer_split(self) -> dict[str, ProposerSplit]:
        """Per brand: dollars kept (net) vs dollars paid onward (share), and
        the payout fraction paid / (paid + kept)."""
        kept: dict[str, Decimal] = {}
        for (brand, _token), usd in self._cells.items():
            kept[brand] = EXACT.add(kept.get(brand, ZERO), usd)
        out: dict[str, ProposerSplit] = {}
        for brand in sorted(self._paid):
            p, n = Fraction(self._paid[brand]), Fraction(kept[brand])
            fraction = p / (p + n) if (p + n) != 0 else Fraction(0)
            out[brand] = ProposerSplit(kept_usd=n, paid_usd=p, payout_fraction=fraction)
        return out

    def complexity(self) -> PathComplexity:
        counts: Counter[int] = Counter()
        for (_brand, hops), (count, _usd, _usd2) in self.hop_groups.items():
            counts[hops] += count
        return path_complexity(counts)

    def correlations(self) -> dict[str, float | None]:
        """Per brand, the Pearson correlation of its (hop count, usd per hop)
        points, or None where it is undefined."""
        # the points are (h, usd / h), so per h y sums to sum(usd) / h and y^2 to sum(usd^2) / h^2
        groups: dict[str, dict] = {}
        for (brand, h), (count, sum_usd, sum_usd2) in self.hop_groups.items():
            groups.setdefault(brand, {})[h] = count, Fraction(sum_usd) / h, Fraction(sum_usd2) / (h * h)
        out: dict[str, float | None] = dict.fromkeys(groups)
        for brand, by_hops in groups.items():
            with suppress(UndefinedCorrelationError):
                out[brand] = pearson(by_hops)
        return out

    def daily_series(self) -> dict[str, list]:
        """Daily UTC profit (usd_<brand>, Decimals) and activity (txs_<brand>)
        series, one value per observed date: a date with no record at all is
        in no series, and a brand absent on an observed date reads 0 there."""
        ordered = sorted({day for _brand, day in self._day_txs})
        series: dict[str, list] = {}
        for brand in sorted(self.blocks):
            series[f"usd_{brand}"] = [self._day_usd.get((brand, day), ZERO) for day in ordered]
            series[f"txs_{brand}"] = [self._day_txs[brand, day] for day in ordered]
        return series

    def trends(self, alpha: Fraction) -> dict[str, TrendResult]:
        """Mann-Kendall over each daily series, at alpha; none while fewer
        than three dates are observed."""
        out: dict[str, TrendResult] = {}
        for name, series in self.daily_series().items():
            with suppress(InsufficientDataError):
                out[name] = mann_kendall(series, alpha)
        return out

    def risk_scores(self, risk_bits: Mapping[str, tuple[int, int, int]]) -> list[RiskScore]:
        """The risk score of each token in the profit matrix that risk_bits
        gives features for, by symbol."""
        tokens = {token for _brand, token in self._cells} & risk_bits.keys()
        return [risk_score(symbol, *risk_bits[symbol]) for symbol in sorted(tokens)]
