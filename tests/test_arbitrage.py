"""Cycle extraction, profit attribution, USD conversion."""

import io
import random
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mevforge import fixtures
from mevforge.arbitrage import (
    DEFAULT_SHARE_ADDRESS,
    MissingPriceError,
    ShareTokenError,
    attribute_profit,
    extract_arbitrage_cycle,
    gas_cost_in_base_units,
    to_usd,
)
from mevforge.traces import (
    EventKind,
    TokenId,
    TraceEvent,
    Transaction,
    iter_transactions,
)

import strategies

DATA = Path(__file__).resolve().parent.parent / "data"

TOKEN_A = TokenId("AAA", bytes([1]) * 20, 18)
TOKEN_B = TokenId("BBB", bytes([2]) * 20, 18)
TOKEN_C = TokenId("CCC", bytes([3]) * 20, 18)
POOL_1 = bytes([11]) * 20
POOL_2 = bytes([12]) * 20


def make_tx(events, gas_used=0, gas_price=0, tx_hash=None):
    return Transaction(
        hash=tx_hash or bytes(32),
        block_number=1,
        initiator=bytes([9]) * 20,
        events=tuple(events),
        gas_used=gas_used,
        gas_price=gas_price,
    )


def swap(token_in, token_out, pool, amount_in, amount_out, **kw):
    return TraceEvent(
        kind=EventKind.SWAP, pool=pool, token_in=token_in, token_out=token_out,
        amount_in=amount_in, amount_out=amount_out, **kw,
    )


def transfer(to, amount):
    return TraceEvent(kind=EventKind.TRANSFER, to=to, amount=amount)


# -- extraction ---------------------------------------------------------------


def test_worked_example_extraction_and_attribution():
    with open(DATA / "worked_example_trace.ndjson", encoding="utf-8") as fh:
        tx = next(iter_transactions(fh))
    path = extract_arbitrage_cycle(tx)
    assert path is not None
    symbols = [t.symbol for t in path.tokens]
    assert symbols == ["USDT", "WBNB", "USD1", "USDT"]
    assert path.n_hops == 3
    assert attribute_profit(tx) == (3040, 820, 0)


def test_no_swaps_yields_no_cycle():
    tx = make_tx([transfer(bytes([5]) * 20, 10)])
    assert extract_arbitrage_cycle(tx) is None


def test_single_swap_is_not_a_cycle():
    tx = make_tx([swap(TOKEN_A, TOKEN_B, POOL_1, 100, 90)])
    assert extract_arbitrage_cycle(tx) is None


def test_open_path_is_not_a_cycle():
    tx = make_tx([
        swap(TOKEN_A, TOKEN_B, POOL_1, 100, 90),
        swap(TOKEN_B, TOKEN_C, POOL_2, 90, 80),
    ])
    assert extract_arbitrage_cycle(tx) is None


def test_same_endpoints_but_broken_chain_is_not_a_cycle():
    tx = make_tx([
        swap(TOKEN_A, TOKEN_B, POOL_1, 100, 90),
        swap(TOKEN_C, TOKEN_A, POOL_2, 90, 101),
    ])
    assert extract_arbitrage_cycle(tx) is None


def test_planted_corpus_paths_recovered_exactly():
    corpus = fixtures.gen_trace_corpus(seed=17, n_transactions=400)
    found = planted = 0
    for tx, expected in corpus.transactions:
        cycle = extract_arbitrage_cycle(tx)
        found += cycle is not None
        if expected is not None:
            assert expected["tx_hash"] == "0x" + tx.hash.hex()
            assert cycle is not None
            assert [t.symbol for t in cycle.tokens] == expected["path"]
            assert ["0x" + pool.hex() for pool in cycle.pools] == expected["pools"]
            assert cycle.n_hops == expected["hop_count"]
            planted += 1
        else:
            assert cycle is None
    assert found == planted > 0


def test_permuting_non_swap_events_never_changes_the_path():
    corpus = fixtures.gen_trace_corpus(seed=23, n_transactions=60)
    rng = random.Random(99)
    for tx, _entry in corpus.transactions:
        baseline = extract_arbitrage_cycle(tx)
        swaps = [e for e in tx.events if e.kind is EventKind.SWAP]
        others = [e for e in tx.events if e.kind is not EventKind.SWAP]
        for _ in range(3):
            rng.shuffle(others)
            merged = list(swaps)
            for other in others:
                merged.insert(rng.randint(0, len(merged)), other)
            shuffled = make_tx(merged, tx_hash=tx.hash)
            cycle = extract_arbitrage_cycle(shuffled)
            if baseline is None:
                assert cycle is None
            else:
                assert cycle == baseline


# -- attribution --------------------------------------------------------------


def cycle_tx(gross=0, amount_in=1000, share_transfers=(), pool_sink=None, gas_used=0, gas_price=0):
    events = [
        swap(TOKEN_A, TOKEN_B, POOL_1, amount_in, 500),
        swap(TOKEN_B, TOKEN_A, POOL_2, 500, amount_in + gross),
    ]
    if pool_sink is not None:
        events[1] = swap(TOKEN_B, TOKEN_A, POOL_2, 500, amount_in + gross, pool_sink=True, amount=pool_sink)
    for amt in share_transfers:
        events.append(transfer(DEFAULT_SHARE_ADDRESS, amt))
    return make_tx(events, gas_used=gas_used, gas_price=gas_price)


def test_zero_profit_identity():
    assert attribute_profit(cycle_tx(gross=0)) == (0, 0, 0)


def test_share_sums_transfers_and_pool_sink():
    tx = cycle_tx(gross=5000, share_transfers=(300, 200), pool_sink=100)
    assert attribute_profit(tx) == (5000, 600, 0)


def test_a_share_transfer_in_another_token_is_an_error():
    """A 5 USDT (6-decimal) payment to the share address inside a WBNB
    cycle is in USDT units, so it cannot be summed into share."""
    wbnb, usdt = TokenId("WBNB", bytes([4]) * 20, 18), TokenId("USDT", bytes([5]) * 20, 6)
    events = [
        swap(wbnb, TOKEN_B, POOL_1, 1000, 500),
        transfer(DEFAULT_SHARE_ADDRESS, 5_000_000)._replace(token_out=usdt),
        swap(TOKEN_B, wbnb, POOL_2, 500, 1100),
    ]
    with pytest.raises(ShareTokenError, match="share transfer moves USDT, not the base token WBNB"):
        attribute_profit(make_tx(events))
    # in the base token, or with no token named, the transfer is share
    for token in (wbnb, None):
        events[1] = events[1]._replace(token_out=token)
        assert attribute_profit(make_tx(events)) == (100, 5_000_000, 0)


def test_negative_gross_is_reported_not_clamped():
    assert attribute_profit(cycle_tx(gross=-250)) == (-250, 0, 0)


@pytest.mark.parametrize(
    "events",
    [
        pytest.param([transfer(DEFAULT_SHARE_ADDRESS, 5)], id="no-swap"),
        pytest.param([swap(TOKEN_A, TOKEN_B, POOL_1, 100, 90), swap(TOKEN_B, TOKEN_C, POOL_2, 90, 80)], id="open-path"),
    ],
)
def test_attributing_a_non_cycle_raises(events):
    tx = make_tx(events, tx_hash=bytes([7]) * 32)
    with pytest.raises(ValueError, match=f"tx 0x{'07' * 32} is not a cycle"):
        attribute_profit(tx)


def test_inferred_pool_sinks_count_transfers_into_pools_an_earlier_swap_touched():
    events = [
        transfer(POOL_1, 11),  # before the swap that touches POOL_1: not share
        swap(TOKEN_A, TOKEN_B, POOL_1, 1000, 500),
        transfer(POOL_1, 3),
        transfer(bytes([6]) * 20, 4),
        transfer(POOL_2, 5),  # POOL_2 is touched only by the next swap
        swap(TOKEN_B, TOKEN_A, POOL_2, 500, 1100),
        transfer(POOL_2, 7),
        transfer(DEFAULT_SHARE_ADDRESS, 20),
    ]
    tx = make_tx(events)
    assert attribute_profit(tx, infer_pool_sinks=True) == (100, 30, 0)
    assert attribute_profit(tx) == (100, 20, 0)
    # a transfer already flagged counts once, inferred or not
    flagged = make_tx([e._replace(pool_sink=True) if e == events[2] else e for e in events])
    assert attribute_profit(flagged, infer_pool_sinks=True) == (100, 30, 0)
    assert attribute_profit(flagged) == (100, 23, 0)


def test_brute_force_share_oracle_on_planted_corpus():
    corpus = fixtures.gen_trace_corpus(seed=31, n_transactions=500)
    share_set = {DEFAULT_SHARE_ADDRESS}
    checked = 0
    for tx, _entry in corpus.transactions:
        cycle = extract_arbitrage_cycle(tx)
        if cycle is None:
            continue
        expected_share = 0
        for event in tx.events:
            if event.kind is EventKind.TRANSFER and (event.to in share_set or event.pool_sink):
                expected_share += event.amount
            elif event.kind is EventKind.SWAP and event.pool_sink:
                expected_share += event.amount
        _gross, share, _gas = attribute_profit(tx, share_set)
        assert share == expected_share
        checked += 1
    assert checked > 100


def test_planted_profit_triples_match_manifest():
    corpus = fixtures.gen_trace_corpus(seed=37, n_transactions=300)
    for tx, expected in corpus.transactions:
        cycle = extract_arbitrage_cycle(tx)
        if cycle is None:
            continue
        assert expected is not None and expected["tx_hash"] == "0x" + tx.hash.hex()
        gross, share, gas = attribute_profit(tx)
        assert (gross, share, gross - share - gas) == (expected["gross"], expected["share"], expected["net"])


def test_gas_conversion_uses_price_table():
    # 10^18 wei of gas at parity prices equals one whole base token
    price_table = {"WBNB": Decimal(600), "AAA": Decimal(3)}
    gas_base = gas_cost_in_base_units(10**18, TOKEN_A, price_table)
    assert gas_base == 10**18 * 600 // (3 * 1)  # decimals cancel at 18
    assert gas_cost_in_base_units(0, TOKEN_A, None) == 0
    with pytest.raises(MissingPriceError):
        gas_cost_in_base_units(5, TOKEN_A, {"WBNB": Decimal(600)})


def test_nonzero_gas_without_a_price_table_is_a_missing_price():
    """extract always passes a price table; a library caller that passes
    none gets a MissingPriceError for any gas to convert, never a zero."""
    with pytest.raises(MissingPriceError, match="^gas conversion requires a price table$"):
        gas_cost_in_base_units(1, TOKEN_A, None)
    with pytest.raises(MissingPriceError, match="^gas conversion requires a price table$"):
        attribute_profit(cycle_tx(gross=10**18, gas_used=1, gas_price=1))


def test_attribution_with_nonzero_gas():
    price_table = {"WBNB": Decimal(600), "AAA": Decimal(3)}
    tx = cycle_tx(gross=10**18, gas_used=10**6, gas_price=10**9)
    assert tx.gas_cost == 10**15
    gas_base = gas_cost_in_base_units(10**15, TOKEN_A, price_table)
    assert gas_base > 0
    assert attribute_profit(tx, price_table=price_table) == (10**18, 0, gas_base)


# -- USD conversion -----------------------------------------------------------


def test_to_usd_wbnb_price():
    wbnb = TokenId("WBNB", bytes([4]) * 20, 18)
    tx_events = [
        swap(wbnb, TOKEN_B, POOL_1, 10**18, 500),
        swap(TOKEN_B, wbnb, POOL_2, 500, 3 * 10**18),
    ]
    assert attribute_profit(make_tx(tx_events)) == (2 * 10**18, 0, 0)
    usd = to_usd(2 * 10**18, wbnb, {"WBNB": Decimal("891.78")})
    assert usd == Decimal("1783.56")


def test_to_usd_zero_and_unit_price():
    assert to_usd(0, TOKEN_A, {"AAA": Decimal(1)}) == 0

    usdt = TokenId("USDT", bytes([5]) * 20, 18)
    events = [
        swap(usdt, TOKEN_B, POOL_1, 10**18, 500),
        swap(TOKEN_B, usdt, POOL_2, 500, 10**18 + 15 * 10**17),
    ]
    gross, share, gas = attribute_profit(make_tx(events))
    assert to_usd(gross - share - gas, usdt, {"USDT": Decimal(1)}) == Decimal("1.5")


def test_missing_price_is_an_error_not_zero():
    with pytest.raises(MissingPriceError):
        to_usd(5, TOKEN_A, {"WBNB": Decimal(600)})


def test_usd_values():
    gross, share, gas = attribute_profit(cycle_tx(gross=3040, share_transfers=(820,)))
    assert to_usd(gross - share - gas, TOKEN_A, {"AAA": Decimal(1)}) == Decimal("2220E-18")
    assert to_usd(share, TOKEN_A, {"AAA": Decimal(1)}) == Decimal("820E-18")

