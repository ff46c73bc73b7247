"""Shares, profit matrices, trend test, correlation, risk scores."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevforge.analytics import (
    EmptyMarketError,
    InsufficientDataError,
    TrendDirection,
    UndefinedCorrelationError,
    mann_kendall,
    market_share,
    matrix_token_totals,
    path_complexity,
    pathlen_profit_correlation,
    profit_matrix,
    proposer_split,
    risk_score,
    token_builder_share,
)
from mevforge.records import ArbitrageRecord
from mevforge.reports import percent_str

PUBLISHED_BLOCK_COUNTS = {
    "48Club": 6_119_452,
    "Blockrazor": 4_292_085,
    "Jetbldr": 172_018,
    "Bloxroute": 104_217,
    "Nodereal": 73_628,
    "Blocksmith": 29_343,
}


def record(brand, symbol, usd, share_usd=0, net=1, share=0):
    return ArbitrageRecord(
        tx_hash=bytes(32),
        block_number=1,
        builder_brand=brand,
        base_token=symbol,
        hop_count=2,
        gross=net + share,
        share=share,
        gas=0,
        net=net,
        usd_value=Fraction(usd),
        share_usd=Fraction(share_usd),
        timestamp_utc="2025-06-01T00:00:00Z",
    )


# -- market share -------------------------------------------------------------


def test_published_counts_reproduce_shares_at_two_decimals():
    table = market_share(PUBLISHED_BLOCK_COUNTS)
    rendered = [(row.brand, percent_str(row.share)) for row in table.rows]
    assert rendered == [
        ("48Club", "56.71"),
        ("Blockrazor", "39.78"),
        ("Jetbldr", "1.59"),
        ("Bloxroute", "0.97"),
        ("Nodereal", "0.68"),
        ("Blocksmith", "0.27"),
    ]
    assert table.top_share(2) > Fraction(96, 100)
    assert sum((row.share for row in table.rows), Fraction(0)) == 1


def test_single_brand_gets_everything():
    table = market_share({"Solo": 123})
    assert table.rows[0].share == 1


def test_two_equal_brands_split_evenly():
    table = market_share({"A": 5, "B": 5})
    assert [row.share for row in table.rows] == [Fraction(1, 2), Fraction(1, 2)]


def test_empty_market_is_an_error():
    with pytest.raises(EmptyMarketError):
        market_share({"A": 0, "B": 0})


@given(st.dictionaries(st.text(min_size=1, max_size=6), st.integers(min_value=0, max_value=10**9), min_size=1))
def test_shares_always_sum_to_one_exactly(counts):
    if sum(counts.values()) == 0:
        return
    table = market_share(counts)
    assert sum((row.share for row in table.rows), Fraction(0)) == 1
    shares = [row.share for row in table.rows]
    assert shares == sorted(shares, reverse=True)


# -- profit matrix ------------------------------------------------------------


def reported_profit_fixture():
    cells = [
        ("48Club", "WBNB", 1_180_000),
        ("48Club", "USDT", 580_000),
        ("48Club", "USD1", 100_000),
        ("48Club", "USDC", 50_000),
        ("Blockrazor", "WBNB", 480_000),
    ]
    cycles = []
    for brand, symbol, usd in cells:
        # split each cell into two cycles to exercise summation
        cycles.append(record(brand, symbol, usd=Fraction(usd, 3)))
        cycles.append(record(brand, symbol, usd=Fraction(2 * usd, 3)))
    return cycles, cells


def test_reported_totals_and_dominant_token_share():
    cycles, cells = reported_profit_fixture()
    matrix = profit_matrix(cycles)
    for brand, symbol, usd in cells:
        assert matrix[(brand, symbol)] == usd
    share = token_builder_share(matrix, "48Club", "WBNB")
    assert abs(share - Fraction("0.711")) < Fraction(1, 200)  # 71.1% within half a point
    assert share == Fraction(1_180_000, 1_660_000)


def test_matrix_grand_total_is_exact():
    cycles, _ = reported_profit_fixture()
    matrix = profit_matrix(cycles)
    grand = sum(matrix.values(), Fraction(0))
    assert grand == sum((c.usd_value for c in cycles), Fraction(0))
    assert sum(matrix_token_totals(matrix).values(), Fraction(0)) == grand


def test_empty_and_single_cell_matrices():
    assert profit_matrix([]) == {}
    matrix = profit_matrix([record("X", "USDT", usd=5, net=5)])
    assert matrix == {("X", "USDT"): 5}


# -- proposer split -----------------------------------------------------------


def test_split_fraction_from_worked_example_numbers():
    cycle = record("48Club", "USDT", usd=2220, share_usd=820, net=2220, share=820)
    splits = proposer_split([cycle])
    split = splits["48Club"]
    assert split.paid_usd == 820
    assert split.kept_usd == 2220
    assert split.payout_fraction == Fraction(820, 3040)


def test_split_zero_share_means_zero_fraction():
    splits = proposer_split([record("A", "USDT", usd=10, net=10)])
    assert splits["A"].payout_fraction == 0


def test_split_ordering_between_builder_styles():
    generous = record("Giver", "USDT", usd=73, share_usd=27, net=73, share=27)
    stingy = record("Keeper", "USDT", usd=95, share_usd=5, net=95, share=5)
    splits = proposer_split([generous, stingy])
    assert splits["Giver"].payout_fraction == Fraction(27, 100)
    assert splits["Keeper"].payout_fraction == Fraction(5, 100)
    assert splits["Giver"].payout_fraction > splits["Keeper"].payout_fraction


# -- Mann-Kendall -------------------------------------------------------------


def test_strictly_increasing_series():
    result = mann_kendall([1, 2, 3, 4, 5])
    assert result.s_statistic == 10
    assert result.tau == 1
    assert result.direction is TrendDirection.INCREASING


def test_constant_series_has_no_trend():
    result = mann_kendall([7, 7, 7, 7])
    assert result.s_statistic == 0
    assert result.variance == 0
    assert result.direction is TrendDirection.NO_TREND


def test_short_series_rejected():
    with pytest.raises(InsufficientDataError):
        mann_kendall([1, 2])


def brute_force_s(series):
    s = 0
    for i, j in itertools.combinations(range(len(series)), 2):
        if series[j] > series[i]:
            s += 1
        elif series[j] < series[i]:
            s -= 1
    return s


def test_s_matches_pairwise_brute_force_on_random_series():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(3, 50)
        series = [rng.randint(-5, 5) for _ in range(n)]  # many ties on purpose
        result = mann_kendall(series)
        assert result.s_statistic == brute_force_s(series)


def test_tie_corrected_variance_formula():
    series = [1, 2, 2, 3]
    result = mann_kendall(series)
    n = 4
    expected = Fraction(n * (n - 1) * (2 * n + 5) - 2 * 1 * 9, 18)
    assert result.variance == expected


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=40))
def test_negating_series_negates_s_and_z(series):
    forward = mann_kendall(series)
    negated = mann_kendall([-x for x in series])
    reversed_ = mann_kendall(series[::-1])
    assert negated.s_statistic == -forward.s_statistic
    assert negated.z_score == -forward.z_score
    assert reversed_.s_statistic == -forward.s_statistic


# -- path complexity ----------------------------------------------------------


def test_histogram_and_ecdf_example():
    result = path_complexity([2, 2, 3])
    assert result.histogram == {2: 2, 3: 1}
    assert result.ecdf[0] == (2, Fraction(2, 3))
    assert result.ecdf[-1] == (3, Fraction(1))


def test_empty_complexity():
    result = path_complexity([])
    assert result.histogram == {}
    assert result.ecdf == ()


def test_counts_total_matches_input():
    rng = random.Random(1)
    hops = [rng.randint(2, 20) for _ in range(10_000)]
    result = path_complexity(hops)
    assert sum(result.histogram.values()) == len(hops)
    values = [c for _, c in result.ecdf]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1


# -- correlation --------------------------------------------------------------


def test_perfectly_linear_is_exactly_one():
    assert pathlen_profit_correlation([(i, 2 * i + 1) for i in range(10)]) == 1.0
    assert pathlen_profit_correlation([(i, -i) for i in range(10)]) == -1.0


def test_zero_variance_rejected():
    with pytest.raises(UndefinedCorrelationError):
        pathlen_profit_correlation([(1, 5), (1, 7)])
    with pytest.raises(UndefinedCorrelationError):
        pathlen_profit_correlation([(1, 5)])


def two_pass_float_pearson(points):
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / (sxx**0.5 * syy**0.5)


def test_matches_two_pass_float_oracle():
    rng = random.Random(9)
    points = [(rng.randint(2, 20), Fraction(rng.randint(-10**6, 10**6), 1000)) for _ in range(200)]
    ours = pathlen_profit_correlation(points)
    assert abs(ours - two_pass_float_pearson(points)) < 1e-12


@given(
    a=st.integers(min_value=1, max_value=50),
    b=st.integers(min_value=-50, max_value=50),
)
def test_affine_invariance_positive_scale(a, b):
    points = [(1, 4), (2, 1), (3, 7), (5, 2), (8, 9)]
    base = pathlen_profit_correlation(points)
    scaled = pathlen_profit_correlation([(x * a + b, y) for x, y in points])
    flipped = pathlen_profit_correlation([(-a * x + b, y) for x, y in points])
    assert scaled == base
    assert flipped == -base


# -- risk scores --------------------------------------------------------------


def test_risk_score_examples():
    wbnb = risk_score("WBNB", 0, 0, 0)
    assert (wbnb.symbol, wbnb.score) == ("WBNB", 0)
    maximal = risk_score("XXX", 1, 1, 1)
    assert maximal.score == 1
    usdt = risk_score("USDT", 1, 1, 0)
    assert usdt.score == Fraction(2, 3)


def test_risk_score_is_permutation_invariant():
    for bits in itertools.permutations((1, 1, 0)):
        assert risk_score("T", *bits).score == Fraction(2, 3)


def test_risk_bits_validated():
    with pytest.raises(ValueError):
        risk_score("T", 2, 0, 0)
