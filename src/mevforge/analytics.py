"""Aggregate statistics over extracted cycles.

Market shares, per-builder/per-token profit matrices, proposer payout
splits, swap-path complexity, path-length/profit correlation, a
tie-corrected Mann-Kendall trend test and a three-feature centralisation
risk score.  Aggregation runs in exact rational arithmetic; decimal
rounding happens only when reports are rendered.
"""

from __future__ import annotations

import math
from collections import Counter
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
# profit matrix and proposer split


def profit_matrix(records: Iterable[ArbitrageRecord]) -> dict[tuple[str, str], Fraction]:
    """Sum net USD profit per (brand, token) cell."""
    matrix: dict[tuple[str, str], Fraction] = {}
    for record in records:
        key = (record.builder_brand, record.base_token)
        matrix[key] = matrix.get(key, Fraction(0)) + record.usd_value
    return matrix


def matrix_token_totals(matrix: Mapping[tuple[str, str], Fraction]) -> dict[str, Fraction]:
    totals: dict[str, Fraction] = {}
    for (_brand, token), usd in matrix.items():
        totals[token] = totals.get(token, Fraction(0)) + usd
    return totals


def token_builder_share(matrix: Mapping[tuple[str, str], Fraction], brand: str, token: str) -> Fraction:
    """Brand's fraction of the total profit extracted in one token."""
    total = matrix_token_totals(matrix).get(token, Fraction(0))
    if total == 0:
        raise ZeroDivisionError(f"no profit recorded for token {token}")
    return matrix.get((brand, token), Fraction(0)) / total


@dataclass(frozen=True)
class ProposerSplit:
    kept_usd: Fraction
    paid_usd: Fraction
    payout_fraction: Fraction


def proposer_split(records: Iterable[ArbitrageRecord]) -> dict[str, ProposerSplit]:
    """Per brand: dollars kept (net) vs dollars paid onward (share), and the
    payout fraction paid / (paid + kept)."""
    paid: dict[str, Fraction] = {}
    kept: dict[str, Fraction] = {}
    for record in records:
        brand = record.builder_brand
        paid[brand] = paid.get(brand, Fraction(0)) + record.share_usd
        kept[brand] = kept.get(brand, Fraction(0)) + record.usd_value
    out: dict[str, ProposerSplit] = {}
    for brand in sorted(paid):
        p, n = paid[brand], kept[brand]
        fraction = p / (p + n) if (p + n) != 0 else Fraction(0)
        out[brand] = ProposerSplit(kept_usd=n, paid_usd=p, payout_fraction=fraction)
    return out


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


def path_complexity(hop_counts: Iterable[int]) -> PathComplexity:
    """Histogram and empirical CDF of hop counts."""
    counts = Counter(hop_counts)
    total = sum(counts.values())
    histogram = dict(sorted(counts.items()))
    ecdf: list[tuple[int, Fraction]] = []
    running = 0
    for hops, count in histogram.items():
        running += count
        ecdf.append((hops, Fraction(running, total)))
    return PathComplexity(histogram=histogram, ecdf=tuple(ecdf))


def pathlen_profit_correlation(points: Iterable[tuple]) -> float:
    """Pearson correlation of (hop count, profit per swap) pairs.

    Sums are accumulated exactly and only the final square root leaves
    rational arithmetic, so perfectly linear inputs give exactly +/-1.0.
    """
    xs, ys = [], []
    for x, y in points:
        xs.append(Fraction(x))
        ys.append(Fraction(y))
    n = len(xs)
    if n < 2:
        raise UndefinedCorrelationError("need at least 2 points")
    mean_x = sum(xs, Fraction(0)) / n
    mean_y = sum(ys, Fraction(0)) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0 or syy == 0:
        raise UndefinedCorrelationError("zero variance in one coordinate")
    if sxy == 0:
        return 0.0
    magnitude = math.sqrt(float(Fraction(sxy * sxy, sxx * syy)))
    return magnitude if sxy > 0 else -magnitude


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
