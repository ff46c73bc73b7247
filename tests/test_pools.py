"""Swap math oracles, atomic execution, input search."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mevforge import fixtures
from mevforge.pools import (
    FEE_SCALE,
    MAX_SQRT_PRICE_X96,
    MIN_SQRT_PRICE_X96,
    Q96,
    DustError,
    ExecutionResult,
    InactivePoolError,
    PoolKind,
    PoolState,
    PoolLookupError,
    _execute_path,
    _hop_quote,
    _path_pools,
    arbitrage_run,
    best_input_search,
    cycle_delta,
    dump_pool_file,
    enumerate_cycles,
    load_pool_file,
    profit_bound,
    quote_v2,
    search_range,
    split_delta,
    step_v3,
    swap,
)
from mevforge.traces import LineError, PathDescriptor, TokenId

TOKEN_A = TokenId("AAA", bytes([1]) * 20, 18)
TOKEN_B = TokenId("BBB", bytes([2]) * 20, 18)


def v2_pool(reserve0, reserve1, fee_ppm=3000, address=bytes([11]) * 20, token0=TOKEN_A, token1=TOKEN_B):
    return PoolState(address=address, kind=PoolKind.V2, token0=token0, token1=token1,
                     fee_ppm=fee_ppm, reserve0=reserve0, reserve1=reserve1)


def v3_pool(liquidity, sqrt_price_x96=Q96, fee_ppm=0, address=bytes([12]) * 20, token0=TOKEN_A, token1=TOKEN_B):
    return PoolState(address=address, kind=PoolKind.V3, token0=token0, token1=token1,
                     fee_ppm=fee_ppm, liquidity=liquidity, sqrt_price_x96=sqrt_price_x96)


def v2_oracle(reserve_in, reserve_out, fee_ppm, amount_in):
    """Exact rational constant-product quote, floored."""
    x_f = Fraction(amount_in * (FEE_SCALE - fee_ppm))
    quote = x_f * reserve_out / (reserve_in * FEE_SCALE + x_f)
    return quote.numerator // quote.denominator


# -- V2 -----------------------------------------------------------------------


def test_v2_basic_quote():
    out, new_pool, _ = swap(v2_pool(1000, 1000, fee_ppm=3000), TOKEN_A, 100)
    assert out == 90  # floor(99700*1000 / 1099700)
    assert (new_pool.reserve0, new_pool.reserve1) == (1100, 910)
    out, new_pool, _ = swap(v2_pool(1000, 2000, fee_ppm=3000), TOKEN_B, 100)
    assert out == 47  # floor(99700*1000 / 2099700)
    assert (new_pool.reserve0, new_pool.reserve1) == (953, 2100)


def test_v2_zero_amount_rejected():
    with pytest.raises(ValueError):
        swap(v2_pool(10**6, 10**6, fee_ppm=0), TOKEN_A, 0)


def test_v2_fee_free_round_trip_never_gains():
    pool = v2_pool(10**9, 10**9, fee_ppm=0)
    for x in (2, 17, 10**3, 10**6, 10**8):
        try:
            out, mid, _ = swap(pool, TOKEN_A, x)
            back, _, _ = swap(mid, TOKEN_B, out)
        except DustError:
            continue  # rounded to nothing, which certainly did not gain
        assert back <= x


def test_v2_token_not_in_pool():
    stranger = TokenId("ZZZ", bytes([9]) * 20, 18)
    with pytest.raises(ValueError):
        swap(v2_pool(10, 10), stranger, 1)


def test_v2_dust_error():
    with pytest.raises(DustError):
        swap(v2_pool(10**12, 10), TOKEN_A, 1)


def test_v2_oracle_equivalence_randomized():
    rng = random.Random(404)
    for _ in range(2000):
        r_in = rng.randint(1, 10**24)
        r_out = rng.randint(1, 10**24)
        fee = rng.choice((0, 100, 500, 2500, 3000, 10000))
        x = rng.randint(1, 10**24)
        expected = v2_oracle(r_in, r_out, fee, x)
        pool = v2_pool(r_in, r_out, fee_ppm=fee)
        if expected == 0:
            with pytest.raises(DustError):
                swap(pool, TOKEN_A, x)
        else:
            out, new_pool, _ = swap(pool, TOKEN_A, x)
            assert out == expected
            assert new_pool.reserve0 * new_pool.reserve1 >= r_in * r_out
            assert new_pool.reserve1 == r_out - out  # conservation


@given(
    r_in=st.integers(min_value=1, max_value=10**30),
    r_out=st.integers(min_value=1, max_value=10**30),
    fee=st.integers(min_value=0, max_value=FEE_SCALE - 1),
    x=st.integers(min_value=1, max_value=10**30),
    token0_in=st.booleans(),
)
def test_v2_product_never_decreases(r_in, r_out, fee, x, token0_in):
    pool = v2_pool(r_in, r_out, fee_ppm=fee) if token0_in else v2_pool(r_out, r_in, fee_ppm=fee)
    try:
        out, new_pool, _ = swap(pool, TOKEN_A if token0_in else TOKEN_B, x)
    except DustError:
        return
    assert new_pool.reserve0 * new_pool.reserve1 >= r_in * r_out
    assert out == v2_oracle(r_in, r_out, fee, x)
    # the input reserve gains the whole input, the output reserve loses the output
    expected = (r_in + x, r_out - out) if token0_in else (r_out - out, r_in + x)
    assert (new_pool.reserve0, new_pool.reserve1) == expected


# -- V3 -----------------------------------------------------------------------


def v3_oracle_down(liquidity, sqrt_p, fee_ppm, amount_in):
    """Closed-form exact-input quote for direction 0 in exact rationals,
    mirroring the implementation's conservative rounding steps."""
    available = amount_in * (FEE_SCALE - fee_ppm) // FEE_SCALE
    next_sqrt_exact = Fraction(liquidity * Q96 * sqrt_p, liquidity * Q96 + available * sqrt_p)
    next_sqrt = -((-next_sqrt_exact.numerator) // next_sqrt_exact.denominator)  # ceil
    return liquidity * (sqrt_p - next_sqrt) // Q96


def test_v3_closed_form_oracle_fixture():
    pool = v3_pool(liquidity=10**12, sqrt_price_x96=Q96, fee_ppm=0)
    out, new_pool, _ = swap(pool, TOKEN_A, 10**6)
    assert out == v3_oracle_down(10**12, Q96, 0, 10**6) == 999_999
    assert new_pool.sqrt_price_x96 < Q96
    assert step_v3(10**12, Q96, 0, 0, 10**6) == (out, new_pool.sqrt_price_x96, 0)


def test_v3_degenerate_limit_no_move():
    # at the end of its range in the swap's direction the price cannot move
    for direction, end in ((0, MIN_SQRT_PRICE_X96), (1, MAX_SQRT_PRICE_X96)):
        assert step_v3(10**12, end, 0, direction, 10**6) == (0, end, 10**6)


def test_v3_mirror_symmetry():
    # same pool seen with the token order flipped: price inverts, direction flips
    for sqrt_p, liquidity, amount in ((Q96, 10**12, 10**6), (2 * Q96, 1 << 20, 1 << 10)):
        down = v3_pool(liquidity=liquidity, sqrt_price_x96=sqrt_p)
        mirrored = v3_pool(liquidity=liquidity, sqrt_price_x96=Q96 * Q96 // sqrt_p,
                           token0=TOKEN_B, token1=TOKEN_A)
        out_down, _, _ = swap(down, TOKEN_A, amount)
        out_up, _, _ = swap(mirrored, TOKEN_A, amount)
        assert out_down == out_up


def test_v3_price_limit_partial_consumption():
    # a swap that would cross the end of the range stops there and leaves
    # the rest of its input unconsumed
    liquidity = 2**40
    # going up from Q96 to 2**160 takes L * (2**160 - 2**96) / 2**96 of net token1
    need_up = 2**104 - 2**40
    assert step_v3(liquidity, Q96, 0, 1, 2**104) == (
        liquidity * Q96 * (MAX_SQRT_PRICE_X96 - Q96) // (MAX_SQRT_PRICE_X96 * Q96),  # 2**40 - 1
        MAX_SQRT_PRICE_X96,
        2**104 - need_up,
    )
    # going down from Q96 to 1 takes L * Q96 * (Q96 - 1) / Q96 of net token0
    need_down = liquidity * (Q96 - 1)
    assert step_v3(liquidity, Q96, 0, 0, 2**137) == (
        liquidity * (Q96 - MIN_SQRT_PRICE_X96) // Q96,  # 2**40 - 1
        MIN_SQRT_PRICE_X96,
        2**137 - need_down,
    )
    # an input that just reaches the end is used up
    assert step_v3(liquidity, Q96, 0, 1, need_up)[1:] == (MAX_SQRT_PRICE_X96, 0)


def test_v3_price_limit_fee_charged_on_consumed_only():
    liquidity = 2**40
    fee = 500
    need = 2**104 - 2**40  # net token1 from Q96 to the top of the range
    gross = -(-(need * FEE_SCALE) // (FEE_SCALE - fee))
    _, end, unused = step_v3(liquidity, Q96, fee, 1, 2**105)
    assert end == MAX_SQRT_PRICE_X96
    assert unused == 2**105 - gross


def test_v3_inactive_pool_rejected():
    with pytest.raises(InactivePoolError):
        v3_pool(liquidity=0)


def test_v3_fee_reduces_output():
    free, _, _ = swap(v3_pool(10**15), TOKEN_A, 10**9)
    taxed, _, _ = swap(v3_pool(10**15, fee_ppm=3000), TOKEN_A, 10**9)
    assert taxed < free


# -- amount functions against the state-building swaps ----------------------


def swap_amounts(pool, direction, amount):
    """swap's amount_out and remainder and, for V3, its post-swap sqrt price."""
    amount_out, state, remainder = swap(pool, (pool.token0, pool.token1)[direction], amount)
    return amount_out, remainder, state.sqrt_price_x96 if pool.kind is PoolKind.V3 else None


def quote_amounts(pool, direction, amount):
    """The search's amount function for the hop and, for V3, step_v3's new
    sqrt price."""
    amount_out, remainder = _hop_quote(pool, (pool.token0, pool.token1)[direction])(amount)
    if pool.kind is PoolKind.V2:
        return amount_out, remainder, None
    return amount_out, remainder, step_v3(pool.liquidity, pool.sqrt_price_x96, pool.fee_ppm, direction, amount)[1]


@settings(max_examples=400)
@given(
    v2=st.booleans(),
    direction=st.sampled_from((0, 1)),
    depth=st.integers(1, 10**24),
    skew=st.integers(1, 10**6),
    fee=st.sampled_from((0, 500, 3000, 10000)),
    amount=st.integers(0, 90).map(lambda k: 10**k // 3 + 1),
)
@example(v2=False, direction=0, depth=10**12, skew=10**3, fee=500, amount=10**45)  # stops at the range end
@example(v2=False, direction=1, depth=1, skew=10**3, fee=0, amount=10**30)  # pays out 0 at the range end
@example(v2=False, direction=0, depth=10**12, skew=10**3, fee=3000, amount=1)  # dust
@example(v2=True, direction=0, depth=10**12, skew=1, fee=3000, amount=1)  # dust
def test_quotes_equal_the_swaps_amount_out(v2, direction, depth, skew, fee, amount):
    """The amount function a search probes on gives exactly swap's
    amount_out, and step_v3 the sqrt price of swap's post-swap state, or
    both raise the same error.  skew sets the pool price in thousandths."""
    if v2:
        pool = v2_pool(depth, depth * skew // 1000 + 1, fee_ppm=fee)
    else:
        pool = v3_pool(depth, sqrt_price_x96=Q96 * skew // 1000 + 1, fee_ppm=fee)
    try:
        expected = swap_amounts(pool, direction, amount)
    except (DustError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            quote_amounts(pool, direction, amount)
        return
    assert quote_amounts(pool, direction, amount) == expected


def test_quote_rejects_zero_input():
    with pytest.raises(ValueError, match="amount_in must be positive"):
        quote_v2(10**6, 10**6, 0, 0)
    with pytest.raises(ValueError, match="amount_in must be positive"):
        step_v3(10**6, Q96, 0, 1, 0)


# -- atomic runs --------------------------------------------------------------


def test_split_delta_examples():
    assert split_delta(1000, 2500) == (250, 750)
    assert split_delta(1000, 0) == (0, 1000)
    assert split_delta(999, 10000) == (999, 0)
    assert split_delta(1001, 3333) == (1001 * 3333 // 10000, 1001 - 1001 * 3333 // 10000)


def balanced_triangle(fee_ppm=2500):
    fixture = fixtures.gen_pool_fixture(seed=1)
    pools = {}
    for address, pool in fixture.pools.items():
        if pool.kind is PoolKind.V2:
            pools[address] = PoolState(
                address=pool.address, kind=pool.kind, token0=pool.token0, token1=pool.token1,
                fee_ppm=fee_ppm, reserve0=pool.reserve0, reserve1=pool.reserve0,
            )
        else:
            pools[address] = pool
    return fixture.descriptor, pools


def test_balanced_pools_with_fees_abort():
    descriptor, pools = balanced_triangle(fee_ppm=2500)
    for amount in (10**6, 10**12, 10**18):
        assert arbitrage_run(descriptor, pools, amount, 2500) is None


def test_profitable_triangle_replay_oracle():
    fixture = fixtures.gen_pool_fixture(seed=7)
    descriptor, pools = fixture.descriptor, fixture.pools
    lo, hi = 1, 10**22
    grid_step = (hi - lo) // 10**4
    grid_best = max(range(lo, hi, grid_step), key=lambda a: cycle_delta(descriptor, pools, a))
    amount0 = grid_best
    outcome = arbitrage_run(descriptor, pools, amount0, share_ratio_bp=2500)
    assert outcome is not None
    result, new_pools = outcome

    # independent replay: three explicit swaps threaded by hand
    amount = amount0
    hop_amounts = []
    for i in range(descriptor.n_hops):
        pool = pools[descriptor.pools[i]]
        amount, _, _ = swap(pool, descriptor.tokens[i], amount)
        hop_amounts.append(amount)
    delta = amount - amount0
    assert delta > 0
    payout = delta * 2500 // 10000
    assert result.delta == delta
    assert result.payout == payout
    assert result.kept == delta - payout
    assert result.hop_amounts == tuple(hop_amounts)
    # pool map input untouched, output updated
    assert pools == fixture.pools
    assert new_pools != pools


def test_share_ratio_zero_keeps_everything():
    fixture = fixtures.gen_pool_fixture(seed=9)
    amount, delta = best_input_search(fixture.descriptor, fixture.pools, 1, 10**22)
    assert delta > 0
    result, _ = arbitrage_run(fixture.descriptor, fixture.pools, amount, share_ratio_bp=0)
    assert result.payout == 0
    assert result.kept == result.delta


def test_run_validates_inputs():
    fixture = fixtures.gen_pool_fixture(seed=9)
    with pytest.raises(ValueError):
        arbitrage_run(fixture.descriptor, fixture.pools, 0, 0)
    with pytest.raises(ValueError):
        arbitrage_run(fixture.descriptor, fixture.pools, 10, 10001)
    with pytest.raises(PoolLookupError):
        arbitrage_run(fixture.descriptor, {}, 10, 0)


def random_two_hop_fixture(rng):
    """Two pools over one token pair, one mispriced, cycled A->B->A."""
    token_a = TokenId("AAA", rng.getrandbits(160).to_bytes(20, "big"), 18)
    token_b = TokenId("BBB", rng.getrandbits(160).to_bytes(20, "big"), 18)
    depth = 10 ** rng.randint(12, 20)
    skew = rng.randint(80, 125)
    addr1 = rng.getrandbits(160).to_bytes(20, "big")
    addr2 = rng.getrandbits(160).to_bytes(20, "big")
    first = PoolState(address=addr1, kind=PoolKind.V2, token0=token_a, token1=token_b,
                      fee_ppm=rng.choice((0, 500, 3000)), reserve0=depth, reserve1=depth * skew // 100)
    if rng.random() < 0.5:
        second = PoolState(address=addr2, kind=PoolKind.V2, token0=token_a, token1=token_b,
                           fee_ppm=rng.choice((0, 500, 3000)), reserve0=depth, reserve1=depth)
    else:
        second = PoolState(address=addr2, kind=PoolKind.V3, token0=token_a, token1=token_b,
                           fee_ppm=rng.choice((0, 500)), liquidity=depth, sqrt_price_x96=Q96)
    descriptor = PathDescriptor(tokens=(token_a, token_b, token_a), pools=(addr1, addr2))
    pools = {addr1: first, addr2: second}
    amount0 = rng.randint(1, depth // 50)
    return descriptor, pools, amount0


def test_randomized_runs_atomicity_and_identities():
    rng = random.Random(1234)
    successes = aborts = 0
    for _ in range(300):
        descriptor, pools, amount0 = random_two_hop_fixture(rng)
        snapshot = dict(pools)
        ratio = rng.choice((0, 1, 2500, 9999, 10000))
        outcome = arbitrage_run(descriptor, pools, amount0, ratio)
        assert pools == snapshot  # input map and states untouched either way
        if outcome is None:
            aborts += 1
            continue
        result, new_pools = outcome
        successes += 1
        assert result.delta > 0
        assert result.payout == result.delta * ratio // 10000
        assert result.kept + result.payout == result.delta
        assert set(new_pools) == set(pools)
    assert successes > 20 and aborts > 20


PATH_TOKENS = (TOKEN_A, TOKEN_B, TokenId("CCC", bytes([3]) * 20, 18))


@st.composite
def pool_paths(draw):
    """(descriptor, pools, amount0): 2-4 V2/V3 pools over three tokens and a
    1-4 hop path through them; a path may be a cycle or open, and may visit
    one pool more than once."""
    pools = {}
    for i in range(draw(st.integers(2, 4))):
        token0, token1 = draw(st.permutations(PATH_TOKENS))[:2]
        address = bytes([20 + i]) * 20
        if draw(st.booleans()):
            pools[address] = PoolState(
                address=address, kind=PoolKind.V2, token0=token0, token1=token1,
                fee_ppm=draw(st.sampled_from((0, 500, 3000))),
                reserve0=draw(st.integers(10**6, 10**12)), reserve1=draw(st.integers(10**6, 10**12)),
            )
        else:
            pools[address] = PoolState(
                address=address, kind=PoolKind.V3, token0=token0, token1=token1,
                fee_ppm=draw(st.sampled_from((0, 500, 3000))), liquidity=draw(st.integers(10**6, 10**12)),
                sqrt_price_x96=Q96 * draw(st.integers(50, 200)) // 100,
            )
    token = draw(st.sampled_from(list(pools.values()))).token0
    tokens, hops = [token], []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.sampled_from([p for p in pools.values() if p.has_token(token)]))
        hops.append(pool)
        token = pool.other(token)
        tokens.append(token)
    descriptor = PathDescriptor(tokens=tokens, pools=[p.address for p in hops])
    return descriptor, pools, draw(st.integers(1, 10**9))


def threaded_by_hand(descriptor, pools, amount0):
    """(delta, hop_amounts, post-run map), swapping hop by hop on a copy of
    the map.  The first hop's remainder goes back to the entry balance;
    delta is None when a hop rounds to dust or a later hop leaves a
    remainder."""
    state = dict(pools)
    amount, spent, hop_amounts = amount0, amount0, []
    for token, address in zip(descriptor.tokens, descriptor.pools):
        try:
            amount, state[address], remainder = swap(state[address], token, amount)
        except DustError:
            return None, hop_amounts, state
        if remainder and hop_amounts:
            return None, hop_amounts, state
        spent -= remainder
        hop_amounts.append(amount)
    return (amount - spent if descriptor.is_cycle else -spent), hop_amounts, state


@settings(max_examples=300)
@given(path=pool_paths(), ratio=st.sampled_from((0, 2500, 10000)))
def test_runs_match_hops_threaded_by_hand(path, ratio):
    descriptor, pools, amount0 = path
    snapshot = list(pools.items())
    delta, hop_amounts, state = threaded_by_hand(descriptor, pools, amount0)
    assert cycle_delta(descriptor, pools, amount0) == (-amount0 if delta is None else delta)
    outcome = arbitrage_run(descriptor, pools, amount0, ratio)
    assert list(pools.items()) == snapshot
    if delta is None or delta <= 0:
        assert outcome is None
        return
    result, new_pools = outcome
    payout = delta * ratio // 10000
    assert result == ExecutionResult(delta=delta, payout=payout, kept=delta - payout, hop_amounts=tuple(hop_amounts))
    assert list(new_pools.items()) == list(state.items())  # same keys, order and states


TOKEN_C = PATH_TOKENS[2]


@pytest.mark.parametrize(
    "v3_tokens, sqrt_price", [((TOKEN_B, TOKEN_C), MIN_SQRT_PRICE_X96), ((TOKEN_C, TOKEN_B), MAX_SQRT_PRICE_X96)],
    ids=["token0-in-at-min", "token1-in-at-max"],
)
def test_a_dead_v3_hop_ends_the_path_as_dust(v3_tokens, sqrt_price):
    """A V3 pool at the end of its price range in the direction of the swap
    pays out 0 and leaves the whole input unconsumed: the path dies there,
    as at a dust output, in a probe, a search and a run alike, whether the
    pool is a later hop or the first."""
    pools = {
        p.address: p for p in (
            v2_pool(10**21, 3 * 10**23, address=bytes([31]) * 20, token0=TOKEN_A, token1=TOKEN_B),
            v3_pool(10**22, sqrt_price, 3000, bytes([32]) * 20, *v3_tokens),
            v2_pool(10**21, 15 * 10**22, address=bytes([33]) * 20, token0=TOKEN_A, token1=TOKEN_C),
        )
    }
    ab, bc, ca = tuple(pools)
    later = PathDescriptor((TOKEN_A, TOKEN_B, TOKEN_C, TOKEN_A), (ab, bc, ca))
    first = PathDescriptor((TOKEN_B, TOKEN_C, TOKEN_A, TOKEN_B), (bc, ca, ab))
    for descriptor in (later, first):
        for amount in (1, 10**6, 10**18):
            assert cycle_delta(descriptor, pools, amount) == -amount
            assert arbitrage_run(descriptor, pools, amount, 2500) is None
        amount, delta = best_input_search(descriptor, pools, *search_range(pools, descriptor))
        assert amount == 1 and delta < 0


DEPTHS = st.integers(1, 10**30)


@st.composite
def bounded_cycles(draw):
    """(descriptor, pools): a 2- or 3-hop cycle over distinct V2 and V3
    pools, each either way round and drawn over every fee, depth and sqrt
    price a pool file accepts."""
    tokens = (TOKEN_A, TOKEN_B, TOKEN_A) if draw(st.booleans()) else (TOKEN_A, TOKEN_B, TOKEN_C, TOKEN_A)
    pools = {}
    for i, (token_in, token_out) in enumerate(zip(tokens, tokens[1:])):
        pair = (token_in, token_out) if draw(st.booleans()) else (token_out, token_in)
        address, fee = bytes([40 + i]) * 20, draw(st.integers(0, FEE_SCALE - 1))
        if draw(st.booleans()):
            pool = v2_pool(draw(DEPTHS), draw(DEPTHS), fee, address, *pair)
        else:
            pool = v3_pool(draw(DEPTHS), draw(st.integers(MIN_SQRT_PRICE_X96, MAX_SQRT_PRICE_X96)), fee, address, *pair)
        pools[address] = pool
    return PathDescriptor(tokens, tuple(pools)), pools


@settings(max_examples=300)
@given(cycle=bounded_cycles(), amounts=st.lists(st.integers(1, 10**30), max_size=8))
def test_no_delta_exceeds_the_profit_bound(cycle, amounts):
    """profit_bound is at least cycle_delta at random inputs and at the search's pick."""
    descriptor, pools = cycle
    bound = profit_bound(descriptor, pools)
    assert bound >= 0
    assert [a for a in amounts if cycle_delta(descriptor, pools, a) > bound] == []
    assert best_input_search(descriptor, pools, *search_range(pools, descriptor))[1] <= bound


# -- a V3 hop stopped at the end of its price range ---------------------------


def test_a_v3_remainder_is_refunded_at_the_first_hop_and_ends_a_later_one():
    """A V3 pool at L = 2**40 and sqrt price Q96, fed 2**137 of token0,
    stops at the bottom of its range and leaves about 8.7e40 unconsumed.
    At a cycle's first hop that remainder goes back to the entry balance,
    so more input changes nothing; at a later hop it is in another token
    than the delta, so the run ends there as at dust."""
    v3, v2 = v3_pool(2**40), v2_pool(10**60, 10**12, fee_ppm=0)
    pools = {v3.address: v3, v2.address: v2}
    amount0 = 2**137
    out, _end, remainder = step_v3(2**40, Q96, 0, 0, amount0)
    assert remainder > 8 * 10**40
    back = quote_v2(10**12, 10**60, 0, out)
    delta = back - (amount0 - remainder)
    first = PathDescriptor((TOKEN_A, TOKEN_B, TOKEN_A), (v3.address, v2.address))
    assert cycle_delta(first, pools, amount0) == cycle_delta(first, pools, 2 * amount0) == delta
    result, _ = arbitrage_run(first, pools, amount0, 2500)
    assert result == ExecutionResult(delta, delta // 4, delta - delta // 4, (out, back))
    later = PathDescriptor((TOKEN_B, TOKEN_A, TOKEN_B), (v2.address, v3.address))
    assert cycle_delta(later, pools, 10**12) == -(10**12)
    assert arbitrage_run(later, pools, 10**12, 2500) is None


@st.composite
def range_end_cycles(draw):
    """(descriptor, pools, amounts): a 2- or 3-hop cycle over distinct pools,
    each either way round, whose first pool is V3 and any other V2 or V3,
    every V3 pool at most 2**64 deep; and inputs from half to four times
    the one that takes the first pool to the end of its price range, so a
    run may stop there, and a shallow later pool may stop too."""
    tokens = (TOKEN_A, TOKEN_B, TOKEN_A) if draw(st.booleans()) else (TOKEN_A, TOKEN_B, TOKEN_C, TOKEN_A)
    pools = {}
    for i, (token_in, token_out) in enumerate(zip(tokens, tokens[1:])):
        pair = (token_in, token_out) if draw(st.booleans()) else (token_out, token_in)
        address, fee = bytes([50 + i]) * 20, draw(st.sampled_from((0, 500, 3000)))
        if i and draw(st.booleans()):
            pool = v2_pool(draw(DEPTHS), draw(DEPTHS), fee, address, *pair)
        else:
            sqrt_price = draw(st.integers(MIN_SQRT_PRICE_X96, MAX_SQRT_PRICE_X96))
            pool = v3_pool(draw(st.integers(1, 2**64)), sqrt_price, fee, address, *pair)
        pools[address] = pool
    first = next(iter(pools.values()))
    direction = 0 if tokens[0] == first.token0 else 1
    flood = 2**300  # more than any pool here can take
    to_end = max(flood - step_v3(first.liquidity, first.sqrt_price_x96, first.fee_ppm, direction, flood)[2], 1)
    amounts = draw(st.lists(st.integers(max(to_end // 2, 1), 4 * to_end), min_size=1, max_size=8))
    return PathDescriptor(tokens, tuple(pools)), pools, amounts


def executed_delta(descriptor, pools, amount0):
    """_execute_path's delta, or -amount0 when the run ends as dust."""
    try:
        return _execute_path(descriptor, _path_pools(descriptor, pools), amount0)[0]
    except DustError:
        return -amount0


@settings(max_examples=300)
@given(cycle=range_end_cycles())
def test_executor_equals_probe_near_range_ends(cycle):
    """The executor, the amount-only probe and hops threaded by hand give
    one delta when a V3 pool stops at the end of its range."""
    descriptor, pools, amounts = cycle
    for amount in amounts:
        delta = threaded_by_hand(descriptor, pools, amount)[0]
        expected = -amount if delta is None else delta
        assert executed_delta(descriptor, pools, amount) == cycle_delta(descriptor, pools, amount) == expected
        outcome = arbitrage_run(descriptor, pools, amount, 0)
        assert (outcome and outcome[0].delta) == (expected if expected > 0 else None)


@settings(max_examples=300)
@given(cycle=range_end_cycles())
def test_no_delta_exceeds_the_profit_bound_near_range_ends(cycle):
    """profit_bound stays a bound once remainders are refunded: past the end
    of its range a first hop pays out what the input it took would."""
    descriptor, pools, amounts = cycle
    bound = profit_bound(descriptor, pools)
    assert [a for a in amounts if cycle_delta(descriptor, pools, a) > bound] == []


# -- input search -------------------------------------------------------------


def test_balanced_cycle_has_no_profitable_input():
    descriptor, pools = balanced_triangle(fee_ppm=2500)
    amount, delta = best_input_search(descriptor, pools, 1, 10**20)
    assert amount == 1
    assert delta <= 0


def test_search_matches_grid_scan():
    fixture = fixtures.gen_pool_fixture(seed=21)
    lo, hi = 1, 10**22
    amount, delta = best_input_search(fixture.descriptor, fixture.pools, lo, hi)
    step = (hi - lo) // 10**4
    grid = range(lo, hi, step)
    grid_best = max(grid, key=lambda a: cycle_delta(fixture.descriptor, fixture.pools, a))
    grid_delta = cycle_delta(fixture.descriptor, fixture.pools, grid_best)
    assert delta >= grid_delta
    assert abs(amount - grid_best) <= step


def test_search_scales_homogeneously():
    fixture = fixtures.gen_pool_fixture(seed=5)
    _, delta1 = best_input_search(fixture.descriptor, fixture.pools, 1, 10**22)
    doubled = {
        addr: PoolState(
            address=p.address, kind=p.kind, token0=p.token0, token1=p.token1, fee_ppm=p.fee_ppm,
            reserve0=p.reserve0 * 2, reserve1=p.reserve1 * 2,
        )
        if p.kind is PoolKind.V2
        else PoolState(
            address=p.address, kind=p.kind, token0=p.token0, token1=p.token1, fee_ppm=p.fee_ppm,
            liquidity=p.liquidity * 2, sqrt_price_x96=p.sqrt_price_x96,
        )
        for addr, p in fixture.pools.items()
    }
    _, delta2 = best_input_search(fixture.descriptor, doubled, 2, 2 * 10**22)
    ratio = delta2 / delta1
    assert 1.99 <= ratio <= 2.01


def test_unimodality_of_profit_curve_on_fixture():
    fixture = fixtures.gen_pool_fixture(seed=3)
    step = 10**21 // 200
    values = [cycle_delta(fixture.descriptor, fixture.pools, a) for a in range(step, 10**21, step)]
    peak = values.index(max(values))
    assert all(values[i] <= values[i + 1] for i in range(peak)) or peak == 0
    assert all(values[i] >= values[i + 1] for i in range(peak, len(values) - 1))


def misfit_descriptors():
    """(descriptor, pools) params: the seed-9 triangle with one fault each
    on its last hop, so earlier hops could swap, or die of dust at an input
    of 1, before a hop-by-hop executor met it."""
    fixture = fixtures.gen_pool_fixture(seed=9)
    d, pools = fixture.descriptor, fixture.pools
    stranger = TokenId("ZZZ", bytes([9]) * 20, 18)
    return [
        pytest.param(d, {a: p for a, p in pools.items() if a != d.pools[-1]}, id="missing-pool"),
        pytest.param(PathDescriptor(d.tokens[:-2] + (stranger, d.tokens[-1]), d.pools), pools, id="token"),
    ]


@pytest.mark.parametrize("descriptor, pools", misfit_descriptors())
def test_search_rejects_a_misfit_descriptor_like_a_run(descriptor, pools):
    """Every entry point that reads a path's pools raises the run's error,
    of the same type and with the same message, before any hop runs."""
    with pytest.raises((KeyError, ValueError)) as run_error:
        arbitrage_run(descriptor, pools, 10**18, 0)
    calls = {
        "dust run": lambda: arbitrage_run(descriptor, pools, 1, 0),
        "cycle_delta": lambda: cycle_delta(descriptor, pools, 10**18),
        "best_input_search": lambda: best_input_search(descriptor, pools, 1, 10**22),
        "profit_bound": lambda: profit_bound(descriptor, pools),
        "search_range": lambda: search_range(pools, descriptor),
    }
    for name, call in calls.items():
        with pytest.raises(Exception) as error:
            call()
        assert (type(error.value), str(error.value)) == (type(run_error.value), str(run_error.value)), name


def search_threaded_by_hand(descriptor, pools, lo, hi):
    """best_input_search's ternary search with every probe threaded hop by
    hop through threaded_by_hand."""

    def probe(amount):
        delta = threaded_by_hand(descriptor, pools, amount)[0]
        return -amount if delta is None else delta

    lo0 = lo
    while hi - lo > 32:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        f1, f2 = probe(m1), probe(m2)
        if f1 < f2:
            lo = m1 + 1
        elif f1 > f2:
            hi = m2 - 1
        else:
            lo, hi = m1, m2
    best = min(range(lo, hi + 1), key=lambda a: (-probe(a), a))
    return (best, probe(best)) if probe(best) > 0 else (lo0, probe(best))


def test_search_on_a_repeated_pool_threads_its_state():
    fixture = fixtures.gen_pool_fixture(seed=7)
    d = fixture.descriptor
    twice = PathDescriptor(tokens=d.tokens + d.tokens[1:], pools=d.pools * 2)
    amount, delta = best_input_search(twice, fixture.pools, 1, 10**22)
    assert delta > 0
    assert (amount, delta) == search_threaded_by_hand(twice, fixture.pools, 1, 10**22)
    # the second lap sees the pools the first one moved: it gains less than twice one lap
    assert delta < 2 * best_input_search(d, fixture.pools, 1, 10**22)[1]


@settings(max_examples=100)
@given(path=pool_paths())
def test_search_matches_a_search_threaded_by_hand(path):
    descriptor, pools, amount0 = path
    hi = max(amount0, 2)
    assert best_input_search(descriptor, pools, 1, hi) == search_threaded_by_hand(descriptor, pools, 1, hi)


def test_enumerate_cycles_finds_planted_triangle():
    fixture = fixtures.gen_pool_fixture(seed=13)
    cycles = enumerate_cycles(fixture.pools, "WBNB")
    lengths = {c.n_hops for c in cycles}
    assert 2 in lengths and 3 in lengths
    planted = fixture.descriptor
    assert any(c.pools == planted.pools for c in cycles)


def test_enumerate_cycles_from_a_symbol_no_pool_holds_is_empty():
    pools = fixtures.gen_pool_fixture(seed=13).pools
    assert enumerate_cycles(pools, "WBNB")
    assert enumerate_cycles(pools, "NOSUCH") == []


# -- fixture files ------------------------------------------------------------


def test_pool_file_round_trip(tmp_path):
    fixture = fixtures.gen_pool_fixture(seed=2)
    text = dump_pool_file(fixture.pools)
    loaded = load_pool_file(text.splitlines())
    assert loaded == fixture.pools
    assert dump_pool_file(loaded) == text


def test_pool_file_skips_blank_lines_and_counts_them():
    lines = dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools).splitlines(keepends=True)
    spaced = [lines[0], "\n", " \t\r\n", *lines[1:]]
    assert load_pool_file(spaced) == load_pool_file(lines)
    with pytest.raises(LineError, match="^line 7: pool 0x1221b5a22155a41c2ff7c0fcbbe8f88da415c4c8 repeats line 1$"):
        load_pool_file([*spaced, lines[0]])


def test_pool_file_clash_names_both_lines():
    lines = dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools).splitlines()
    repeat = json.dumps({**json.loads(lines[0]), "reserve0": "7"})
    with pytest.raises(LineError, match="^line 5: pool 0x1221b5a22155a41c2ff7c0fcbbe8f88da415c4c8 repeats line 1$"):
        load_pool_file([*lines, repeat])
    # cycles and embodied_base_symbol pick tokens by symbol, so a second USDT
    # would leave the search a pool that lacks the USDT it picked
    v3 = json.loads(lines[3])
    v3["token1"]["address"] = "0x" + "ee" * 20
    with pytest.raises(LineError, match="^line 4: token symbol 'USDT' names another token on line 1$"):
        load_pool_file([*lines[:3], json.dumps(v3)])
