"""Aggregate statistics over extracted cycles.

Market shares, per-builder/per-token profit matrices, proposer payout
splits, swap-path complexity, path-length/profit correlation, a
tie-corrected Mann-Kendall trend test and a three-feature centralisation
risk score.  Aggregation runs in exact rational arithmetic, in one pass
over the records (RecordTotals); decimal rounding happens only when
reports are rendered.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

from .records import ArbitrageRecord


class EmptyMarketError(ValueError):
    """All block counts are zero."""


class InsufficientDataError(ValueError):
    """Trend testing needs at least three observations."""


class UndefinedCorrelationError(ValueError):
    """Correlation needs two or more points with variance in both coordinates."""


# ---------------------------------------------------------------------------
# market share


@dataclass(frozen=True)
class ShareRow:
    brand: str
    block_count: int
    share: Fraction


@dataclass(frozen=True)
class ShareTable:
    rows: tuple[ShareRow, ...]

    def top_share(self, k: int) -> Fraction:
        return sum((row.share for row in self.rows[:k]), Fraction(0))


def market_share(block_counts: Mapping[str, int]) -> ShareTable:
    """Exact rational market shares, ordered non-increasing."""
    if any(c < 0 for c in block_counts.values()):
        raise ValueError("block counts must be non-negative")
    total = sum(block_counts.values())
    if total == 0:
        raise EmptyMarketError("no blocks produced by any brand")
    rows = [ShareRow(brand, count, Fraction(count, total)) for brand, count in block_counts.items()]
    rows.sort(key=lambda r: (-r.share, r.brand))
    return ShareTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# exact sums, profit matrix and proposer split


class ExactSum:
    """An exact sum of rationals, kept as one integer numerator sum per
    denominator: adding n/d costs an integer add, and a Fraction is built
    once per denominator, by value().  d need not be reduced."""

    def __init__(self) -> None:
        self.numerators: dict[int, int] = {}

    def add(self, numerator: int, denominator: int) -> None:
        numerators = self.numerators
        numerators[denominator] = numerators.get(denominator, 0) + numerator

    def value(self) -> Fraction:
        return sum((Fraction(n, d) for d, n in self.numerators.items()), Fraction(0))


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


@dataclass(frozen=True)
class ProposerSplit:
    kept_usd: Fraction
    paid_usd: Fraction
    payout_fraction: Fraction


# ---------------------------------------------------------------------------
# Mann-Kendall trend test


class TrendDirection(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NO_TREND = "no_trend"


@dataclass(frozen=True)
class TrendResult:
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


@dataclass(frozen=True)
class PathComplexity:
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


class PearsonMoments:
    """Moments of (x, y) points, grouped by x: per x, the count and the
    exact sums of y and y^2.  A point's y is given as a numerator and a
    denominator, which need not be reduced."""

    def __init__(self) -> None:
        self.groups: dict = {}  # x -> [count, sum of y, sum of y^2]

    def add(self, x, numerator: int, denominator: int) -> None:
        group = self.groups.get(x)
        if group is None:
            group = self.groups[x] = [0, ExactSum(), ExactSum()]
        group[0] += 1
        group[1].add(numerator, denominator)
        group[2].add(numerator * numerator, denominator * denominator)

    def correlation(self) -> float:
        """Pearson correlation of the points added.

        sxx = sum(x^2) - sum(x)^2 / n, and likewise syy and sxy, are the same
        rationals as the two-pass sums of squared deviations; only the final
        square root leaves rational arithmetic, so perfectly linear inputs
        give exactly +/-1.0.
        """
        n = sum(count for count, _sy, _syy in self.groups.values())
        if n < 2:
            raise UndefinedCorrelationError("need at least 2 points")
        sum_x = sum_xx = sum_y = sum_yy = sum_xy = Fraction(0)
        for x, (count, sy, syy) in self.groups.items():
            group_y = sy.value()
            sum_x += x * count
            sum_xx += x * x * count
            sum_y += group_y
            sum_yy += syy.value()
            sum_xy += x * group_y
        sxx = sum_xx - sum_x * sum_x / n
        syy = sum_yy - sum_y * sum_y / n
        sxy = sum_xy - sum_x * sum_y / n
        if sxx == 0 or syy == 0:
            raise UndefinedCorrelationError("zero variance in one coordinate")
        if sxy == 0:
            return 0.0
        magnitude = math.sqrt(float(Fraction(sxy * sxy, sxx * syy)))
        return magnitude if sxy > 0 else -magnitude


def pathlen_profit_correlation(points: Iterable[tuple]) -> float:
    """Pearson correlation of (hop count, profit per swap) pairs, computed
    exactly from their PearsonMoments."""
    moments = PearsonMoments()
    for x, y in points:
        y = Fraction(y)
        moments.add(Fraction(x), y.numerator, y.denominator)
    return moments.correlation()


# ---------------------------------------------------------------------------
# centralisation risk


@dataclass(frozen=True)
class RiskScore:
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
    time: distinct blocks and Pearson moments per brand, dollars per
    (brand, token) cell and per (brand, day), hop counts and payouts.  No
    record is held, so memory grows with brands x tokens x days plus
    distinct blocks (and distinct dollar denominators), not with rows."""

    def __init__(self, records: Iterable[ArbitrageRecord]) -> None:
        self.rows = 0
        self.blocks: dict[str, set[int]] = {}
        self.hops: Counter[int] = Counter()
        self.moments: dict[str, PearsonMoments] = defaultdict(PearsonMoments)
        self._cells: dict[tuple[str, str], ExactSum] = defaultdict(ExactSum)
        self._paid: dict[str, ExactSum] = defaultdict(ExactSum)
        self._day_usd: dict[tuple[str, str], ExactSum] = defaultdict(ExactSum)
        self._day_txs: Counter[tuple[str, str]] = Counter()
        for record in records:
            self.rows += 1
            brand, hops = record.builder_brand, record.hop_count
            usd, usd_denominator = record.usd_value.as_integer_ratio()
            day = (brand, record.timestamp_utc[:10])
            self.blocks.setdefault(brand, set()).add(record.block_number)
            self.hops[hops] += 1
            self.moments[brand].add(hops, usd, usd_denominator * hops)  # (h, usd / h)
            self._cells[brand, record.base_token].add(usd, usd_denominator)
            self._paid[brand].add(*record.share_usd.as_integer_ratio())
            self._day_usd[day].add(usd, usd_denominator)
            self._day_txs[day] += 1

    def profit_matrix(self) -> dict[tuple[str, str], Fraction]:
        return {cell: usd.value() for cell, usd in self._cells.items()}

    def proposer_split(self) -> dict[str, ProposerSplit]:
        """Per brand: dollars kept (net) vs dollars paid onward (share), and
        the payout fraction paid / (paid + kept)."""
        kept: dict[str, Fraction] = {}
        for (brand, _token), usd in self.profit_matrix().items():
            kept[brand] = kept.get(brand, Fraction(0)) + usd
        out: dict[str, ProposerSplit] = {}
        for brand in sorted(self._paid):
            p, n = self._paid[brand].value(), kept[brand]
            fraction = p / (p + n) if (p + n) != 0 else Fraction(0)
            out[brand] = ProposerSplit(kept_usd=n, paid_usd=p, payout_fraction=fraction)
        return out

    def daily_series(self) -> dict[str, list]:
        """Daily UTC profit (usd_<brand>) and activity (txs_<brand>) series,
        one value per observed date: a date with no record at all is in no
        series, and a brand absent on an observed date reads 0 there."""
        ordered = sorted({day for _brand, day in self._day_txs})
        usd = {key: total.value() for key, total in self._day_usd.items()}
        series: dict[str, list] = {}
        for brand in sorted(self.blocks):
            series[f"usd_{brand}"] = [usd.get((brand, day), Fraction(0)) for day in ordered]
            series[f"txs_{brand}"] = [self._day_txs[brand, day] for day in ordered]
        return series
