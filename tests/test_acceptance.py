"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import csv
import io
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from mevforge import BUNDLED_SCENARIOS as SCENARIOS, analytics, fixtures, pbs, pools
from mevforge.arbitrage import DEFAULT_SHARE_ADDRESS, attribute_profit, extract_arbitrage_cycle
from mevforge.cli import main
from mevforge.records import read_records
from mevforge.reports import decimal_str, percent_str
from mevforge.traces import EventKind, iter_transactions

import test_pbs
import test_pools

DATA = Path(__file__).resolve().parent.parent / "data"


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_criterion_1_worked_example_exactness(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "out"
    code = main(
        [
            "extract",
            "--traces", str(DATA / "worked_example_trace.ndjson"),
            "--labels", str(DATA / "builder_labels.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out / "records.csv", encoding="utf-8") as fh:
        rows = read_records(fh)
    assert len(rows) == 1
    assert (rows[0].gross, rows[0].share, rows[0].net) == (3040, 820, 2220)

    with open(DATA / "worked_example_trace.ndjson", encoding="utf-8") as fh:
        tx = next(iter_transactions(fh))
    path = [t.symbol for t in extract_arbitrage_cycle(tx).tokens]
    assert path == ["USDT", "WBNB", "USD1", "USDT"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"worked example gives (3040, 820, 2220) over USDT>WBNB>USD1>USDT in {elapsed:.3f}s")


def test_criterion_2_market_share_reproduction():
    started = time.perf_counter()
    counts = {
        "48Club": 6_119_452,
        "Blockrazor": 4_292_085,
        "Jetbldr": 172_018,
        "Bloxroute": 104_217,
        "Nodereal": 73_628,
        "Blocksmith": 29_343,
    }
    table = analytics.market_share(counts)
    rendered = [percent_str(row.share) for row in table.rows]
    assert rendered == ["56.71", "39.78", "1.59", "0.97", "0.68", "0.27"]
    assert table.top_share(2) > Fraction(96, 100)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"published block counts give shares {'/'.join(rendered)} with top-2 {percent_str(table.top_share(2))}%")


def test_criterion_3_dominant_token_share():
    cells = {
        ("48Club", "WBNB"): Fraction(1_180_000),
        ("48Club", "USDT"): Fraction(580_000),
        ("48Club", "USD1"): Fraction(100_000),
        ("48Club", "USDC"): Fraction(50_000),
        ("Blockrazor", "WBNB"): Fraction(480_000),
    }
    share = analytics.token_shares(cells)["48Club", "WBNB"]
    assert abs(share - Fraction("0.711")) <= Fraction("0.005")  # 71.1% +/- 0.5pp
    _report(3, f"dominant builder holds {percent_str(share)}% of the WBNB profit cell")


def test_criterion_4_horizon_arithmetic():
    windows = {}
    for name in ("bsc_duopoly.json", "eth_duopoly.json"):
        scenario = pbs.load_scenario(SCENARIOS / name)
        assert scenario.horizon_ms == pbs.DEFAULT_HORIZON_MS[scenario.protocol]
        windows[scenario.protocol] = next(pbs.run_campaign(scenario, 1, rng_seed=42)).schedule.contested_ms
    assert windows == {pbs.Protocol.BSC_DIRECT: 0, pbs.Protocol.ETH_RELAY: Fraction(9580, 3)}
    missing = pbs.DEFAULT_HORIZON_MS[pbs.Protocol.ETH_RELAY] - pbs.DEFAULT_HORIZON_MS[pbs.Protocol.BSC_DIRECT]
    assert missing == 9000
    _report(4, "measured contested windows 0 ms (direct) and 9580/3 ms (relay), missing horizon 9000 ms, exact")


def test_criterion_5_winner_takes_all_vs_value_wins():
    started = time.perf_counter()

    def win_share(scenario, builder_id):
        _outcomes, summary = test_pbs.campaign(scenario, 10_000, rng_seed=42)
        return Fraction(summary.wins[builder_id], summary.n_slots)

    low_latency_share = win_share(pbs.load_scenario(SCENARIOS / "bsc_duopoly.json"), "alpha")
    assert low_latency_share >= Fraction(95, 100)

    eth_scenario = pbs.load_scenario(SCENARIOS / "eth_duopoly.json")
    high_value_share = win_share(eth_scenario, "beta")
    assert high_value_share >= Fraction(95, 100)  # higher achievable value

    # same agents with the latency ordering flipped: value still wins
    flipped = pbs.SimScenario(
        protocol=eth_scenario.protocol,
        builders=tuple(
            pbs.BuilderAgent(
                id=b.id,
                latency_ms=other.latency_ms,
                strategy=b.strategy,
                share_ratio_bp=b.share_ratio_bp,
                infra_tier=b.infra_tier,
                non_delivery_prob=b.non_delivery_prob,
            )
            for b, other in zip(eth_scenario.builders, reversed(eth_scenario.builders))
        ),
        horizon_ms=eth_scenario.horizon_ms,
        opportunity=eth_scenario.opportunity,
        proposers=eth_scenario.proposers,
        relay=eth_scenario.relay,
    )
    assert win_share(flipped, "beta") >= Fraction(95, 100)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        5,
        f"direct flow: low-latency builder wins {percent_str(low_latency_share)}%; "
        f"relay flow: high-value builder wins {percent_str(high_value_share)}% "
        f"(both orderings) in {elapsed:.1f}s",
    )


def test_criterion_6_oracle_equivalence_suites():
    # (a) + (b): cycle extraction and share attribution against the
    # planted-path generator on >= 10^4 transactions
    corpus = fixtures.gen_trace_corpus(seed=606, n_transactions=10_000)
    share_set = {DEFAULT_SHARE_ADDRESS}
    extraction_mismatches = share_mismatches = cycles_checked = 0
    for tx, expected in corpus.transactions:
        cycle = extract_arbitrage_cycle(tx)
        if expected is None:
            if cycle is not None:
                extraction_mismatches += 1
            continue
        if cycle is None or [t.symbol for t in cycle.tokens] != expected["path"]:
            extraction_mismatches += 1
            continue
        cycles_checked += 1
        brute_share = 0
        for event in tx.events:
            if event.kind is EventKind.TRANSFER and (event.to in share_set or event.pool_sink):
                brute_share += event.amount
            elif event.kind is EventKind.SWAP and event.pool_sink:
                brute_share += event.amount
        gross, share, gas = attribute_profit(tx, share_set)
        if share != brute_share or share != expected["share"]:
            share_mismatches += 1
        if (gross, gross - share - gas) != (expected["gross"], expected["net"]):
            share_mismatches += 1
    assert extraction_mismatches == 0
    assert share_mismatches == 0
    assert cycles_checked >= 6000

    # (c): constant-product quotes against the exact rational oracle
    rng = random.Random(660)
    v2_checked = 0
    for _ in range(10_000):
        r_in, r_out = rng.randint(1, 10**24), rng.randint(1, 10**24)
        fee = rng.choice((0, 100, 500, 2500, 3000, 10000))
        amount = rng.randint(1, 10**24)
        expected = test_pools.v2_oracle(r_in, r_out, fee, amount)
        pool = test_pools.v2_pool(r_in, r_out, fee_ppm=fee)
        try:
            out, _, _ = pools.swap(pool, test_pools.TOKEN_A, amount)
        except pools.DustError:
            out = 0
        assert out == expected
        v2_checked += 1

    # (d): trend statistic against the pairwise double loop
    for i in range(100):
        series_rng = random.Random(6600 + i)
        n = series_rng.randint(3, 50)
        series = [series_rng.randint(-8, 8) for _ in range(n)]
        s_brute = 0
        for a, b in itertools.combinations(range(n), 2):
            s_brute += (series[b] > series[a]) - (series[b] < series[a])
        assert analytics.mann_kendall(series).s_statistic == s_brute

    _report(
        6,
        f"oracle suites clean: {cycles_checked} planted cycles, {v2_checked} v2 quotes, "
        "100 trend series, zero mismatches",
    )


def test_criterion_7_atomicity_and_split_identities():
    rng = random.Random(777)
    successes = aborts = 0
    for _ in range(1000):
        descriptor, pool_map, amount0 = test_pools.random_two_hop_fixture(rng)
        snapshot = dict(pool_map)
        ratio = rng.randint(0, 10000)
        outcome = pools.arbitrage_run(descriptor, pool_map, amount0, ratio)
        assert pool_map == snapshot  # inputs untouched in every case
        if outcome is None:
            aborts += 1
            continue
        result, _new_pools = outcome
        successes += 1
        assert result.delta > 0
        assert result.payout == result.delta * ratio // 10_000
        assert result.kept + result.payout == result.delta
    assert successes > 100 and aborts > 100
    _report(7, f"{successes} successful runs keep exact split identities; {aborts} aborts roll back cleanly")


def test_criterion_8_byte_identical_outputs(tmp_path):
    sim1, sim2 = tmp_path / "s1", tmp_path / "s2"
    for out in (sim1, sim2):
        code = main(
            [
                "simulate",
                "--scenario", str(SCENARIOS / "eth_duopoly.json"),
                "--slots", "300",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
    assert read_all(sim1) == read_all(sim2)

    fixture_dir = tmp_path / "recfx"
    assert main(["gen-fixtures", "--kind", "records", "--seed", "88", "--count", "400", "--out", str(fixture_dir)]) == 0
    records_path = fixture_dir / "records.csv"
    lines = records_path.read_text().splitlines(keepends=True)
    shuffled = lines[:2] + random.Random(5).sample(lines[2:], len(lines) - 2)
    shuffled_path = tmp_path / "shuffled.csv"
    shuffled_path.write_text("".join(shuffled))

    a1, a2 = tmp_path / "a1", tmp_path / "a2"
    assert main(["analyze", "--records", str(records_path), "--out", str(a1)]) == 0
    assert main(["analyze", "--records", str(shuffled_path), "--out", str(a2)]) == 0
    assert read_all(a1) == read_all(a2)
    _report(8, "simulate reruns and shuffled analyze inputs are byte-identical")


def test_criterion_9_proposer_split_agrees_with_records_and_matrix(tmp_path):
    fixture_dir, out = tmp_path / "fx", tmp_path / "out"
    assert main(["gen-fixtures", "--kind", "traces", "--seed", "3", "--count", "1500", "--out", str(fixture_dir)]) == 0
    with open(fixture_dir / "traces.ndjson", encoding="utf-8") as fh:
        decimals = {e.token_in.decimals for tx in iter_transactions(fh) for e in tx.events if e.kind is EventKind.SWAP}
    assert decimals == {0, 6, 8, 18}
    config = str(fixture_dir / "run.cfg")
    extract_args = ["--traces", str(fixture_dir / "traces.ndjson"), "--labels", str(fixture_dir / "labels.csv")]
    assert main(["extract", *extract_args, "--config", config, "--out", str(out)]) == 0
    assert main(["analyze", "--records", str(out / "records.csv"), "--config", config, "--out", str(out)]) == 0

    with open(out / "records.csv", encoding="utf-8") as fh:
        rows = read_records(fh)
    kept: dict[str, Fraction] = {}
    paid: dict[str, Fraction] = {}
    cells: dict[tuple[str, str], Fraction] = {}
    for row in rows:
        usd, share_usd = Fraction(row.usd_value), Fraction(row.share_usd)
        kept[row.builder_brand] = kept.get(row.builder_brand, Fraction(0)) + usd
        paid[row.builder_brand] = paid.get(row.builder_brand, Fraction(0)) + share_usd
        key = (row.builder_brand, row.base_token)
        cells[key] = cells.get(key, Fraction(0)) + usd

    def report(name):
        with open(out / name, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))[1:]

    matrix = {(brand, token): usd for brand, token, usd, _pct in report("profit_matrix.csv")}
    assert matrix == {key: decimal_str(usd, 2) for key, usd in cells.items()}
    split = {brand: (k, p, pct) for brand, k, p, pct in report("proposer_split.csv")}
    assert set(split) == set(kept)
    for brand, (kept_usd, paid_usd, payout_pct) in split.items():
        row_total = sum((usd for (b, _token), usd in cells.items() if b == brand), Fraction(0))
        assert row_total == kept[brand] > 0
        assert kept_usd == decimal_str(kept[brand], 2)
        assert paid_usd == decimal_str(paid[brand], 2)
        assert payout_pct == percent_str(paid[brand] / (paid[brand] + kept[brand]))
    _report(
        9,
        f"proposer split of {len(rows)} records over {len(split)} brands equals record net/share dollars "
        f"and the profit-matrix rows, with token decimals {sorted(decimals)}",
    )
