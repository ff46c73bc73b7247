"""Shares, profit matrices, trend test, correlation, risk scores, decimal
rendering, and analyze's one-pass sums against the two-pass reference."""

import csv
import io
import itertools
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevforge import reports
from mevforge.analytics import (
    EmptyMarketError,
    InsufficientDataError,
    ProposerSplit,
    RecordTotals,
    TrendDirection,
    UndefinedCorrelationError,
    mann_kendall,
    market_share,
    path_complexity,
    pathlen_profit_correlation,
    risk_score,
    token_shares,
)
from mevforge.cli import main
from mevforge.config import RunConfig
from mevforge.records import SCHEMA_VERSION, ArbitrageRecord, RecordSchemaError, read_records
from mevforge.reports import decimal_str, percent_str

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
        usd_value=Decimal(usd),
        share_usd=Decimal(share_usd),
        timestamp_utc="2025-06-01T00:00:00Z",
    )


# -- market share -------------------------------------------------------------


def test_published_counts_reproduce_shares_at_two_decimals():
    table = market_share(PUBLISHED_BLOCK_COUNTS)
    rendered = [(row.brand, percent_str(row.share)) for row in table]
    assert rendered == [
        ("48Club", "56.71"),
        ("Blockrazor", "39.78"),
        ("Jetbldr", "1.59"),
        ("Bloxroute", "0.97"),
        ("Nodereal", "0.68"),
        ("Blocksmith", "0.27"),
    ]
    assert sum((row.share for row in table[:2]), Fraction(0)) > Fraction(96, 100)
    assert sum((row.share for row in table), Fraction(0)) == 1


def test_single_brand_gets_everything():
    table = market_share({"Solo": 123})
    assert table[0].share == 1


def test_two_equal_brands_split_evenly():
    table = market_share({"A": 5, "B": 5})
    assert [row.share for row in table] == [Fraction(1, 2), Fraction(1, 2)]


def test_empty_market_is_an_error():
    with pytest.raises(EmptyMarketError):
        market_share({"A": 0, "B": 0})


def test_a_negative_block_count_is_a_value_error():
    """analyze counts blocks, so never passes a negative count; a library
    caller that does gets a ValueError, not shares outside [0, 1]."""
    with pytest.raises(ValueError, match="^block counts must be non-negative$"):
        market_share({"A": 3, "B": -1})


@given(st.dictionaries(st.text(min_size=1, max_size=6), st.integers(min_value=0, max_value=10**9), min_size=1))
def test_shares_always_sum_to_one_exactly(counts):
    if sum(counts.values()) == 0:
        return
    table = market_share(counts)
    assert sum((row.share for row in table), Fraction(0)) == 1
    shares = [row.share for row in table]
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
        # split each cell into two cycles with fractional dollars to exercise summation
        cycles.append(record(brand, symbol, usd=usd - Decimal("0.375")))
        cycles.append(record(brand, symbol, usd=Decimal("0.375")))
    return cycles, cells


def test_reported_totals_and_dominant_token_share():
    cycles, cells = reported_profit_fixture()
    matrix = RecordTotals(cycles).profit_matrix()
    for brand, symbol, usd in cells:
        assert matrix[(brand, symbol)] == usd
    share = token_shares(matrix)["48Club", "WBNB"]
    assert abs(share - Fraction("0.711")) < Fraction(1, 200)  # 71.1% within half a point
    assert share == Fraction(1_180_000, 1_660_000)


def test_matrix_grand_total_is_exact():
    cycles, _ = reported_profit_fixture()
    matrix = RecordTotals(cycles).profit_matrix()
    grand = sum(matrix.values(), Fraction(0))
    assert grand == sum((Fraction(c.usd_value) for c in cycles), Fraction(0))


def test_a_token_whose_cells_sum_to_zero_gives_each_cell_zero():
    matrix = RecordTotals([record("A", "USDT", usd=5, net=5), record("B", "USDT", usd=-5, net=-5)]).profit_matrix()
    assert token_shares(matrix) == {("A", "USDT"): 0, ("B", "USDT"): 0}
    buffer = io.StringIO()
    reports.write_profit_matrix(buffer, matrix, token_shares(matrix))
    assert buffer.getvalue().splitlines()[1:] == ["A,USDT,5.00,0.00", "B,USDT,-5.00,0.00"]


def test_profit_matrix_report_renders_token_shares(tmp_path):
    assert main(["gen-fixtures", "--kind", "records", "--seed", "5", "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--records", str(tmp_path / "records.csv"), "--out", str(tmp_path / "reports")]) == 0
    with open(tmp_path / "records.csv", "rb") as fh:
        shares = token_shares(RecordTotals(read_records(fh)).profit_matrix())
    with open(tmp_path / "reports" / "profit_matrix.csv", encoding="utf-8") as fh:
        rendered = {(row["brand"], row["token"]): row["token_share_pct"] for row in csv.DictReader(fh)}
    assert rendered == {cell: percent_str(share) for cell, share in shares.items()}


def test_empty_and_single_cell_matrices():
    assert RecordTotals([]).profit_matrix() == {}
    matrix = RecordTotals([record("X", "USDT", usd=5, net=5)]).profit_matrix()
    assert matrix == {("X", "USDT"): 5}


@pytest.mark.parametrize(
    "value, places, text",
    [
        (Fraction(-1, 1000), 2, "0.00"),
        (Fraction(-4999, 10**6), 2, "0.00"),
        (Fraction(-5, 1000), 2, "-0.01"),
        (Fraction(5, 1000), 2, "0.01"),
        (Fraction(-1, 2), 0, "-1"),
        (Fraction(-1, 3), 0, "0"),
        (Fraction(0), 2, "0.00"),
        (Fraction(-1234565, 1000), 2, "-1234.57"),
    ],
)
def test_decimal_str_rounds_half_away_from_zero_and_signs_no_zero(value, places, text):
    assert decimal_str(value, places) == text


def test_a_loss_under_half_a_cent_renders_as_unsigned_zero():
    assert percent_str(Fraction(-1, 10**7)) == "0.00"
    buffer = io.StringIO()
    loss = record("X", "USDT", usd="-0.001", net=-1)
    totals = RecordTotals([loss])
    reports.write_profit_matrix(buffer, totals.profit_matrix(), totals.profit_shares())
    assert buffer.getvalue().splitlines()[1] == "X,USDT,0.00,100.00"


# -- proposer split -----------------------------------------------------------


def test_split_fraction_from_worked_example_numbers():
    cycle = record("48Club", "USDT", usd=2220, share_usd=820, net=2220, share=820)
    splits = RecordTotals([cycle]).proposer_split()
    split = splits["48Club"]
    assert split.paid_usd == 820
    assert split.kept_usd == 2220
    assert split.payout_fraction == Fraction(820, 3040)


def test_split_zero_share_means_zero_fraction():
    splits = RecordTotals([record("A", "USDT", usd=10, net=10)]).proposer_split()
    assert splits["A"].payout_fraction == 0


def test_split_ordering_between_builder_styles():
    generous = record("Giver", "USDT", usd=73, share_usd=27, net=73, share=27)
    stingy = record("Keeper", "USDT", usd=95, share_usd=5, net=95, share=5)
    splits = RecordTotals([generous, stingy]).proposer_split()
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
    result = path_complexity(Counter([2, 2, 3]))
    assert result.histogram == {2: 2, 3: 1}
    assert result.ecdf[0] == (2, Fraction(2, 3))
    assert result.ecdf[-1] == (3, Fraction(1))


def test_empty_complexity():
    result = path_complexity(Counter())
    assert result.histogram == {}
    assert result.ecdf == ()


def test_counts_total_matches_input():
    rng = random.Random(1)
    hops = [rng.randint(2, 20) for _ in range(10_000)]
    result = path_complexity(Counter(hops))
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


def two_pass_exact_pearson(points):
    """Pearson by exact sums of squared deviations from the means, as
    computed before the moments form."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    n = len(xs)
    if n < 2:
        raise UndefinedCorrelationError("need at least 2 points")
    mean_x, mean_y = sum(xs, Fraction(0)) / n, sum(ys, Fraction(0)) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0 or syy == 0:
        raise UndefinedCorrelationError("zero variance in one coordinate")
    if sxy == 0:
        return 0.0
    magnitude = math.sqrt(float(Fraction(sxy * sxy, sxx * syy)))
    return magnitude if sxy > 0 else -magnitude


def pearson_or_none(pearson, points):
    try:
        return pearson(points)
    except UndefinedCorrelationError:
        return None


rationals = st.builds(
    Fraction, st.integers(min_value=-(10**6), max_value=10**6), st.integers(min_value=1, max_value=10**4)
)


@given(
    hops=st.lists(st.integers(min_value=2, max_value=6), max_size=30),
    ys=st.lists(rationals, min_size=30, max_size=30),
    a=rationals,
    b=rationals,
)
def test_moments_equal_the_two_pass_form_exactly(hops, ys, a, b):
    """On points with few distinct x, as (hop count, profit per swap) has,
    and on their affine images, including a = 0."""
    for points in ([(h, y) for h, y in zip(hops, ys)], [(a * h + b, y) for h, y in zip(hops, ys)]):
        assert pearson_or_none(pathlen_profit_correlation, points) == pearson_or_none(two_pass_exact_pearson, points)


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


# -- the analyze pass against the two-pass reference ---------------------------


def two_pass_reports(rows, config=RunConfig()):
    """The eight analyze reports as analyze computed them before it folded
    records in one pass: every row held, and each report, and each brand's
    correlation, summing its own Fractions over the rows."""

    def render(write, *args):
        buffer = io.StringIO()
        write(buffer, *args)
        return buffer.getvalue().encode()

    brands = sorted({row.builder_brand for row in rows})
    blocks = {brand: len({row.block_number for row in rows if row.builder_brand == brand}) for brand in brands}
    matrix, paid, kept, per_day, dates = {}, {}, {}, {}, set()
    for row in rows:
        usd, cell = Fraction(row.usd_value), (row.builder_brand, row.base_token)
        matrix[cell] = matrix.get(cell, Fraction(0)) + usd
        paid[row.builder_brand] = paid.get(row.builder_brand, Fraction(0)) + Fraction(row.share_usd)
        kept[row.builder_brand] = kept.get(row.builder_brand, Fraction(0)) + usd
        day = row.timestamp_utc[:10]
        dates.add(day)
        for metric, value in (("usd", usd), ("txs", 1)):
            series = per_day.setdefault(f"{metric}_{row.builder_brand}", {})
            series[day] = series.get(day, Fraction(0)) + value
    splits = {}
    for brand in brands:
        p, n = paid[brand], kept[brand]
        splits[brand] = ProposerSplit(n, p, p / (p + n) if p + n != 0 else Fraction(0))
    correlations = [
        (
            brand,
            pearson_or_none(
                two_pass_exact_pearson,
                [(row.hop_count, Fraction(row.usd_value) / row.hop_count) for row in rows if row.builder_brand == brand],
            ),
        )
        for brand in brands
    ]
    trends = {}
    for name, by_day in per_day.items():
        series = [by_day.get(day, Fraction(0)) for day in sorted(dates)]
        if len(series) >= 3:
            trends[name] = mann_kendall(series, config.alpha)
    hist, ecdf = io.StringIO(), io.StringIO()
    reports.write_complexity(hist, ecdf, path_complexity(Counter(row.hop_count for row in rows)))
    scores = [
        risk_score(symbol, *config.risk_bits[symbol])
        for symbol in sorted({row.base_token for row in rows})
        if symbol in config.risk_bits
    ]
    return {
        "shares.csv": render(reports.write_share_table, market_share(blocks) if blocks else ()),
        "profit_matrix.csv": render(reports.write_profit_matrix, matrix, token_shares(matrix)),
        "proposer_split.csv": render(reports.write_proposer_split, splits),
        "complexity_hist.csv": hist.getvalue().encode(),
        "complexity_ecdf.csv": ecdf.getvalue().encode(),
        "correlations.csv": render(reports.write_correlations, correlations),
        "trends.csv": render(reports.write_trends, trends),
        "risk_scores.csv": render(reports.write_risk_scores, scores),
    }


def dollar_text(signs=("", "-")):
    """Dollar text in each form the records reader takes: -D and -D.D, the
    minus drawn from signs."""
    return st.one_of(
        st.builds("{}{}".format, st.sampled_from(signs), st.integers(min_value=0, max_value=10**12)),
        st.builds(
            "{}{}.{}".format,
            st.sampled_from(signs),
            st.integers(min_value=0, max_value=10**9),
            st.text("0123456789", min_size=1, max_size=20),
        ),
    )


# -D/D text whose value has an exact decimal (a 2^a * 5^b denominator), a
# form extract has never written to a records file
fraction_dollar_text = st.builds(
    "{}{}/{}".format,
    st.sampled_from(["", "-"]),
    st.integers(min_value=0, max_value=10**9),
    st.builds(lambda twos, fives: 2**twos * 5**fives, st.integers(0, 20), st.integers(0, 9)),
)


@st.composite
def records_rows(draw):
    """CSV rows of a records file: 2-4 brands and tokens over up to five
    days, with nets and their dollars of either sign (gas may exceed
    gross - share)."""
    brands = draw(st.lists(st.sampled_from(["48Club", "Blockrazor", "Jetbldr", "Unknown"]), min_size=2, unique=True))
    tokens = draw(st.lists(st.sampled_from(["WBNB", "USDT", "USDC", "CAKE"]), min_size=2, unique=True))
    rows = []
    for index in range(draw(st.integers(min_value=0, max_value=40))):
        gross, share, gas = (draw(st.integers(min_value=0, max_value=10**6)) for _ in range(3))
        day, hour = draw(st.integers(min_value=1, max_value=5)), draw(st.integers(min_value=0, max_value=23))
        rows.append(
            [
                f"0x{index:064x}",
                str(draw(st.integers(min_value=1, max_value=30))),
                draw(st.sampled_from(brands)),
                draw(st.sampled_from(tokens)),
                str(draw(st.integers(min_value=2, max_value=6))),
                str(gross),
                str(share),
                str(gas),
                str(gross - share - gas),
                draw(dollar_text()),
                draw(dollar_text(signs=("",))),
                f"2025-06-0{day}T{hour:02}:00:00Z",
            ]
        )
    return rows


def records_text(rows):
    header = ",".join(ArbitrageRecord._fields)
    return "".join(f"{line}\n" for line in [f"schema_version,{SCHEMA_VERSION}", header, *map(",".join, rows)])


@settings(max_examples=40, deadline=None)
@given(rows=records_rows(), order=st.randoms(use_true_random=False))
def test_analyze_equals_the_two_pass_reference(tmp_path_factory, rows, order):
    """analyze's one-pass sums give the bytes of the two-pass Fraction code,
    whatever the row order."""
    directory = tmp_path_factory.mktemp("analyze")
    expected = two_pass_reports(read_records(io.StringIO(records_text(rows))))
    order.shuffle(rows)
    (directory / "records.csv").write_text(records_text(rows), encoding="utf-8")
    assert main(["analyze", "--records", str(directory / "records.csv"), "--out", str(directory / "out")]) == 0
    written = {path.name: path.read_bytes() for path in (directory / "out").iterdir()}
    assert sorted(written) == sorted(expected)
    assert [name for name in sorted(expected) if written[name] != expected[name]] == []


def long_dollars(signs=("", "-")):
    """Dollars of 30 to 45 significant digits, past the 28 that the default
    decimal context keeps."""
    return st.builds(
        "{}{}E-{}".format,
        st.sampled_from(signs),
        st.integers(min_value=10**29, max_value=10**44),
        st.integers(min_value=0, max_value=30),
    ).map(Decimal)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["A", "B"]),
            st.sampled_from(["WBNB", "USDT"]),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=2, max_value=4),
            long_dollars(),
            long_dollars(signs=("",)),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_the_fold_sums_long_dollars_exactly(rows):
    """RecordTotals' cell, paid, kept, day and per-hop sums of usd and usd^2
    equal the Fraction sums of the same dollars, compared as sums: a
    rounded sum of squares can leave a 12-place pearson_r unchanged.  Its
    row and per-hop counts, which it derives from the per-hop sums, equal
    the records'."""
    records = [
        record(brand, token, usd, share_usd)._replace(hop_count=hops, timestamp_utc=f"2025-06-0{day}T00:00:00Z")
        for brand, token, day, hops, usd, share_usd in rows
    ]
    cells, paid, kept, by_day, groups = {}, {}, {}, {}, {}
    for brand, token, day, hops, usd, share_usd in rows:
        usd = Fraction(usd)
        cells[brand, token] = cells.get((brand, token), 0) + usd
        paid[brand] = paid.get(brand, 0) + Fraction(share_usd)
        kept[brand] = kept.get(brand, 0) + usd
        by_day[brand, day] = by_day.get((brand, day), 0) + usd
        group = groups.setdefault((brand, hops), [0, 0, 0])
        group[0], group[1], group[2] = group[0] + 1, group[1] + usd, group[2] + usd * usd
    totals = RecordTotals(records)
    assert totals.profit_matrix() == cells
    assert {brand: (split.kept_usd, split.paid_usd) for brand, split in totals.proposer_split().items()} == {
        brand: (kept[brand], paid[brand]) for brand in paid
    }
    days = sorted({day for _brand, day in by_day})
    assert {name: values for name, values in totals.daily_series().items() if name.startswith("usd_")} == {
        f"usd_{brand}": [by_day.get((brand, day), 0) for day in days] for brand in paid
    }
    assert totals.hop_groups == groups
    assert totals.rows == len(records)
    assert totals.complexity().histogram == Counter(hops for _brand, _token, _day, hops, _usd, _share_usd in rows)


@settings(max_examples=40, deadline=None)
@given(rows=records_rows().filter(bool), data=st.data())
def test_a_fraction_dollar_cell_is_a_row_error(rows, data):
    """Dollar columns take -D and -D.D only, the form the writer gives them:
    -D/D is rejected even when its value has an exact decimal."""
    index = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    column = data.draw(st.sampled_from([9, 10]))
    rows[index][column] = data.draw(fraction_dollar_text)
    with pytest.raises(RecordSchemaError) as excinfo:
        read_records(io.StringIO(records_text(rows)))
    assert excinfo.value.line_no == index + 3
    name = ArbitrageRecord._fields[column]
    assert str(excinfo.value).startswith(f"row {index + 3}: {name}: expected a decimal number, got {rows[index][column]!r}")


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
