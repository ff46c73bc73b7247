"""Simulated pool state and atomic multi-hop execution.

Two pool shapes are supported: constant-product pairs (V2) and a single
active concentrated-liquidity range with a Q64.96 sqrt price (V3).  All
swap math is exact integer arithmetic with floor rounding on outputs,
matching on-chain behavior.  Fees are parts per million so both the
0.30% and 0.01% tiers are exact.

Each swap has two layers.  quote_v2 and step_v3 hold the formulas and
return amounts only (step_v3 also the new sqrt price and the unused
input); swap runs the one its pool's kind names and builds the post-swap
PoolState.  A V3 pool that reaches the end of its price range leaves the
rest of its input with the payer; _thread_hops states once what a path
does with that remainder.

PoolState is immutable and a run never writes to the caller's pool map: it
keeps a map of the pools it touched, which an aborted run simply drops and
a successful one lays over the input map.  Rollback is thus structural
rather than compensating arithmetic, and runs may share one pool map.
Every entry point takes a path's pools from the map through _path_pools,
which checks each hop before any hop runs.  The input search needs no
post-swap state when a path's pools are distinct: it probes on the amount
functions alone; a hop that pays out 0 ends the path as dust.
enumerate_cycles lists the 2-hop and 3-hop cycles of a pool map for the
search to run on, search_range the input range a simulation searches each
over, and profit_bound an exact bound on a cycle's surplus, so a caller can
skip the cycles that cannot win.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
import json
import math
from typing import IO, Callable, Iterable, Mapping, Optional

from .traces import (
    Frozen, LineError, PathDescriptor, TokenId, format_address, parse_address, read_json, read_lines, token_from_obj, token_to_obj,
    unique_keys,
)

FEE_SCALE = 10**6           # fee denominator, parts per million
Q96 = 1 << 96               # Q64.96 fixed-point unit for sqrt prices
MIN_SQRT_PRICE_X96 = 1
MAX_SQRT_PRICE_X96 = 1 << 160
SHARE_RATIO_SCALE = 10_000  # payout ratio denominator, basis points


class DustError(ArithmeticError):
    """Swap output rounded to zero."""


class InactivePoolError(ValueError):
    """V3 pool has no liquidity in range."""


class PoolLookupError(KeyError):
    """Descriptor references a pool missing from the pool map."""


class PoolKind(Enum):
    V2 = "v2"
    V3 = "v3"


class PoolState(Frozen):
    address: bytes
    kind: PoolKind
    token0: TokenId
    token1: TokenId
    fee_ppm: int
    reserve0: int
    reserve1: int
    liquidity: int
    sqrt_price_x96: int

    def __new__(
        cls, address: bytes, kind: PoolKind, token0: TokenId, token1: TokenId, fee_ppm: int,
        reserve0: int = 0, reserve1: int = 0, liquidity: int = 0, sqrt_price_x96: int = 0,
    ):
        if token0 == token1:
            raise ValueError("pool tokens must differ")
        if not 0 <= fee_ppm < FEE_SCALE:
            raise ValueError("fee_ppm out of range")
        if kind is PoolKind.V2:
            if reserve0 <= 0 or reserve1 <= 0:
                raise ValueError("active V2 pool needs positive reserves")
        else:
            if liquidity <= 0:
                raise InactivePoolError("V3 pool needs positive liquidity")
            if not MIN_SQRT_PRICE_X96 <= sqrt_price_x96 <= MAX_SQRT_PRICE_X96:
                raise ValueError("V3 sqrt price out of range")
        return tuple.__new__(cls, (address, kind, token0, token1, fee_ppm, reserve0, reserve1, liquidity, sqrt_price_x96))

    def has_token(self, token: TokenId) -> bool:
        return token in (self.token0, self.token1)

    def other(self, token: TokenId) -> TokenId:
        return self.token1 if _direction(self, token) == 0 else self.token0


def _direction(pool: PoolState, token_in: TokenId) -> int:
    """0 when token_in is the pool's token0, 1 when it is its token1."""
    if token_in == pool.token0:
        return 0
    if token_in == pool.token1:
        return 1
    raise ValueError(f"token {token_in.symbol} not in pool {format_address(pool.address)}")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def quote_v2(reserve_in: int, reserve_out: int, fee_ppm: int, amount_in: int) -> int:
    """Constant-product exact-input output amount.

    amount_out = floor(x_f * R_out / (R_in * SCALE + x_f)) with
    x_f = amount_in * (SCALE - fee); the product R0*R1 never decreases.
    """
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    amount_in_with_fee = amount_in * (FEE_SCALE - fee_ppm)
    amount_out = amount_in_with_fee * reserve_out // (reserve_in * FEE_SCALE + amount_in_with_fee)
    if amount_out == 0:
        raise DustError("swap output rounded to zero")
    return amount_out


def _next_sqrt_price_down(liquidity: int, sqrt_p: int, amount0: int) -> int:
    # token0 in, price falls: P' = L*Q*P / (L*Q + dx*P), rounded up so the
    # pool never pays out more than the curve allows.
    numerator = liquidity * Q96
    return _ceil_div(numerator * sqrt_p, numerator + amount0 * sqrt_p)


def _amount0_to_reach(liquidity: int, sqrt_from: int, sqrt_to: int) -> int:
    # token0 needed to push the price down from sqrt_from to sqrt_to.
    return _ceil_div(liquidity * Q96 * (sqrt_from - sqrt_to), sqrt_from * sqrt_to)


def _amount1_to_reach(liquidity: int, sqrt_from: int, sqrt_to: int) -> int:
    # token1 needed to push the price up from sqrt_from to sqrt_to.
    return _ceil_div(liquidity * (sqrt_to - sqrt_from), Q96)


def step_v3(liquidity: int, sqrt_p: int, fee_ppm: int, direction: int, amount_in: int) -> tuple[int, int, int]:
    """Single-range concentrated-liquidity exact-input step.

    direction 0 swaps token0 for token1 (price falls), 1 swaps token1 for
    token0 (price rises).  The fee is charged on the consumed input.  When
    the implied move would cross the end of the range (MIN_SQRT_PRICE_X96
    going down, MAX_SQRT_PRICE_X96 going up) the swap stops there and
    leaves input unconsumed.  Returns (amount_out, new sqrt price, unused
    input).
    """
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    end = MIN_SQRT_PRICE_X96 if direction == 0 else MAX_SQRT_PRICE_X96
    available = amount_in * (FEE_SCALE - fee_ppm) // FEE_SCALE
    if direction == 0:
        max_net = _amount0_to_reach(liquidity, sqrt_p, end)
    else:
        max_net = _amount1_to_reach(liquidity, sqrt_p, end)

    # max_net is rounded up, so an input equal to it may overshoot the end
    # when priced by the curve: it stops at the end instead
    if available < max_net:
        consumed_net = available
        unused = 0
        if direction == 0:
            new_sqrt = _next_sqrt_price_down(liquidity, sqrt_p, consumed_net)
        else:
            new_sqrt = sqrt_p + consumed_net * Q96 // liquidity
    else:
        consumed_net = max_net
        gross = _ceil_div(consumed_net * FEE_SCALE, FEE_SCALE - fee_ppm) if consumed_net else 0
        unused = amount_in - gross
        new_sqrt = end

    if direction == 0:
        amount_out = liquidity * (sqrt_p - new_sqrt) // Q96
    else:
        amount_out = liquidity * Q96 * (new_sqrt - sqrt_p) // (new_sqrt * sqrt_p)

    if amount_out == 0 and unused == 0:
        raise DustError("swap output rounded to zero")
    return amount_out, new_sqrt, unused


def _v3_hop_out(amount_out: int) -> int:
    # a V3 pool already at the end of its price range pays out 0
    if amount_out == 0:
        raise DustError("V3 hop output is zero")
    return amount_out


def swap(pool: PoolState, token_in: TokenId, amount_in: int) -> tuple[int, PoolState, int]:
    """(amount_out, post-swap state, remainder) of one hop: quote_v2 on a V2
    pool, step_v3 on a V3 one, where a zero output is dust.  The remainder
    is the input step_v3 leaves unconsumed at the end of its range; 0 on a
    V2 pool."""
    direction = _direction(pool, token_in)
    if pool.kind is PoolKind.V2:
        if direction == 0:
            amount_out = quote_v2(pool.reserve0, pool.reserve1, pool.fee_ppm, amount_in)
            return amount_out, pool._replace(reserve0=pool.reserve0 + amount_in, reserve1=pool.reserve1 - amount_out), 0
        amount_out = quote_v2(pool.reserve1, pool.reserve0, pool.fee_ppm, amount_in)
        return amount_out, pool._replace(reserve1=pool.reserve1 + amount_in, reserve0=pool.reserve0 - amount_out), 0
    amount_out, new_sqrt, unused = step_v3(pool.liquidity, pool.sqrt_price_x96, pool.fee_ppm, direction, amount_in)
    return _v3_hop_out(amount_out), pool._replace(sqrt_price_x96=new_sqrt), unused


# ---------------------------------------------------------------------------
# atomic multi-hop execution


class ExecutionResult(Frozen):
    """Successful run: delta split into the validator payout and the kept
    remainder; kept + payout == delta and payout == floor(delta*r/10000)."""

    delta: int
    payout: int
    kept: int
    hop_amounts: tuple[int, ...]


def split_delta(delta: int, share_ratio_bp: int) -> tuple[int, int]:
    """Split a surplus into (payout, kept) at the basis-point share ratio."""
    # a library contract: each caller passes an agent's ratio, checked when it was built or loaded
    if not 0 <= share_ratio_bp <= SHARE_RATIO_SCALE:
        raise ValueError("share ratio must be within [0, 10000] bp")
    payout = delta * share_ratio_bp // SHARE_RATIO_SCALE
    return payout, delta - payout


def _path_pools(descriptor: PathDescriptor, pools: Mapping[bytes, PoolState]) -> list[PoolState]:
    """The descriptor's pools in hop order, taken from the map and checked
    before any hop runs: a pool missing from the map raises PoolLookupError
    naming it, and a hop whose pool lacks its input token _direction's
    ValueError."""
    path = []
    for token_in, address in zip(descriptor.tokens, descriptor.pools):
        pool = pools.get(address)
        if pool is None:
            raise PoolLookupError(format_address(address))
        _direction(pool, token_in)
        path.append(pool)
    return path


def _hop_quote(pool: PoolState, token_in: TokenId) -> Callable[[int], tuple[int, int]]:
    """The hop's (output, remainder) as a function of its input, on the
    pool's current state, as swap gives them."""
    direction = _direction(pool, token_in)
    if pool.kind is PoolKind.V2:
        reserves = (pool.reserve0, pool.reserve1) if direction == 0 else (pool.reserve1, pool.reserve0)
        quote = partial(quote_v2, *reserves, pool.fee_ppm)
        return lambda amount: (quote(amount), 0)
    step = partial(step_v3, pool.liquidity, pool.sqrt_price_x96, pool.fee_ppm, direction)

    def hop(amount: int) -> tuple[int, int]:
        amount_out, _sqrt, unused = step(amount)
        return _v3_hop_out(amount_out), unused

    return hop


def _thread_hops(hops: Iterable[Callable[[int], tuple[int, int]]], amount0: int, is_cycle: bool) -> int:
    """The delta of amount0 threaded through hops, each a function of its
    input to (output, remainder): the entry-token balance the run gains.

    A first-hop remainder is refunded to the entry balance, so the run
    spends amount0 - remainder: delta is the last output less that spend
    on a cycle, and minus the spend on an open path.  A later hop's
    remainder is in another token than the delta, so it ends the run as
    dust does.
    """
    hops = iter(hops)
    amount, remainder = next(hops)(amount0)
    spent = amount0 - remainder
    for hop in hops:
        amount, remainder = hop(amount)
        if remainder:
            raise DustError("a later hop left input unconsumed")
    return amount - spent if is_cycle else -spent


def _execute_path(
    descriptor: PathDescriptor, path: list[PoolState], amount0: int
) -> tuple[int, list[int], dict[bytes, PoolState]]:
    """Thread amount0 through every hop, starting from the pool states in
    `path` (_path_pools), without changing them.

    Returns (delta, hop_amounts, touched): touched maps each pool the run
    visited to its post-run state, and delta is _thread_hops' entry-token
    balance the run gains.
    """
    touched: dict[bytes, PoolState] = {}
    hop_amounts: list[int] = []

    def hop(token_in: TokenId, pool: PoolState, amount: int) -> tuple[int, int]:
        amount_out, touched[pool.address], remainder = swap(touched.get(pool.address, pool), token_in, amount)
        hop_amounts.append(amount_out)
        return amount_out, remainder

    hops = (partial(hop, token_in, pool) for token_in, pool in zip(descriptor.tokens, path))
    return _thread_hops(hops, amount0, descriptor.is_cycle), hop_amounts, touched


def arbitrage_run(
    descriptor: PathDescriptor,
    pools: Mapping[bytes, PoolState],
    amount0: int,
    share_ratio_bp: int,
) -> Optional[tuple[ExecutionResult, dict[bytes, PoolState]]]:
    """Execute a path atomically, requiring a strictly positive surplus.

    Hops run in descriptor order, each on the V2 or V3 formula of its
    pool's kind, each output feeding the next input, and a V3 remainder
    goes as _thread_hops says.  If the surplus delta is not positive, or a
    hop dies as dust, the whole run aborts and None is returned with every
    pool untouched.  On success the surplus is split as
    payout = floor(delta * share_ratio_bp / 10000), kept = delta - payout,
    and the post-run pool map is returned alongside the result.
    """
    if amount0 <= 0:
        raise ValueError("amount0 must be positive")
    if not 0 <= share_ratio_bp <= SHARE_RATIO_SCALE:
        raise ValueError("share ratio must be within [0, 10000] bp")
    path = _path_pools(descriptor, pools)
    try:
        delta, hop_amounts, touched = _execute_path(descriptor, path, amount0)
    except DustError:
        return None  # a dead hop cannot yield profit; treat as an abort
    if delta <= 0:
        return None
    payout, kept = split_delta(delta, share_ratio_bp)
    return ExecutionResult(delta=delta, payout=payout, kept=kept, hop_amounts=tuple(hop_amounts)), {**pools, **touched}


def _delta_fn(descriptor: PathDescriptor, pools: Mapping[bytes, PoolState]) -> Callable[[int], int]:
    """cycle_delta of the descriptor on `pools` as a function of amount0.

    The descriptor is checked against the map here, once.  When its pools
    are distinct, every hop sees its pool's state in `pools`, so each call
    runs on the hops' amount functions alone.  A descriptor that repeats a
    pool runs on _execute_path, which threads the post-swap states from hop
    to hop.

    The amount-only fork serves the tests' exhaustive search references,
    not simulate's pruned search: with every probe on _execute_path,
    test_bench_tooling and test_pools took 81-83 s, not 21 s (2-vCPU VM).
    """
    path = _path_pools(descriptor, pools)
    if len(set(descriptor.pools)) < descriptor.n_hops:
        def run(amount0: int) -> int:
            return _execute_path(descriptor, path, amount0)[0]
    else:
        quotes = [_hop_quote(pool, token_in) for token_in, pool in zip(descriptor.tokens, path)]
        is_cycle = descriptor.is_cycle

        def run(amount0: int) -> int:
            return _thread_hops(quotes, amount0, is_cycle)

    def delta(amount0: int) -> int:
        try:
            return run(amount0)
        except DustError:
            return -amount0  # a run that dies mid-path loses the whole input

    return delta


def cycle_delta(descriptor: PathDescriptor, pools: Mapping[bytes, PoolState], amount0: int) -> int:
    """Surplus of executing the path, without the profit gate or payouts.

    Used when searching for the best input; a run that dies mid-path (dust,
    or a later hop's remainder) counts as losing the whole input.  Only the
    hops' output amounts are worked out, no post-swap pool state, unless
    the descriptor repeats a pool (see _delta_fn).
    """
    if amount0 <= 0:  # a library contract: no command calls it, and the search probes only its range
        raise ValueError("amount0 must be positive")
    return _delta_fn(descriptor, pools)(amount0)


def best_input_search(
    descriptor: PathDescriptor,
    pools: Mapping[bytes, PoolState],
    lo: int,
    hi: int,
) -> tuple[int, int]:
    """Ternary-search the unimodal profit curve for the best input amount.

    Returns (amount, delta); when no input in [lo, hi] is profitable the
    result is (lo, best-delta) with a non-positive delta.  Each probe is a
    cycle_delta; the descriptor is checked against the pool map once,
    before the first probe, and a descriptor whose pools are distinct
    probes on amounts only.
    """
    if not 1 <= lo < hi:  # a library contract: search_range gives 1 <= lo < hi
        raise ValueError("need 1 <= lo < hi")
    delta = _delta_fn(descriptor, pools)
    lo0 = lo
    while hi - lo > 32:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        f1, f2 = delta(m1), delta(m2)
        if f1 < f2:
            lo = m1 + 1
        elif f1 > f2:
            hi = m2 - 1
        else:
            # Equal probes: the peak lies inside [m1, m2] or within one
            # floor-quantization plateau of it, so shrinking here can miss
            # the integer argmax by a few base units of delta.  Against the
            # best integer within 3,000 of the closed-form optimum, on the
            # 1,397 profitable V2-only cycles of perfbench/gen_embodied.py
            # seeds 0-29, picks were 0 units below on 559 cycles, 1 on 678,
            # 2 on 134, 3 on 18, 4 on 5 and 5 on 2, and beat the window on 1.
            lo, hi = m1, m2
    best_delta, neg_amount = max((delta(a), -a) for a in range(lo, hi + 1))  # ties go to the smallest amount
    return (-neg_amount if best_delta > 0 else lo0), best_delta


def search_range(pools: Mapping[bytes, PoolState], descriptor: PathDescriptor) -> tuple[int, int]:
    """The (lo, hi) input range a simulation searches the path over: 1 to a
    quarter of its shallowest pool's depth (a V2 pool's smaller reserve, a
    V3 pool's liquidity), and at least to 16."""
    depth = min(
        min(pool.reserve0, pool.reserve1) if pool.kind is PoolKind.V2 else pool.liquidity
        for pool in _path_pools(descriptor, pools)
    )
    return 1, max(depth // 4, 16)


def _hop_map(pool: PoolState, token_in: TokenId) -> tuple[int, int, int]:
    """(a, b, c) of an increasing real map x -> a*x / (b + c*x) that the
    hop's output never exceeds: a V2 quote floors it, and a V3 step floors
    its fee, rounds its price up and floors its output, or stops short at
    the end of its range."""
    g = FEE_SCALE - pool.fee_ppm
    direction = _direction(pool, token_in)
    if pool.kind is PoolKind.V2:
        r_in, r_out = (pool.reserve0, pool.reserve1) if direction == 0 else (pool.reserve1, pool.reserve0)
        return g * r_out, r_in * FEE_SCALE, g
    # token0 in: L*P^2*g*x / (L*Q^2*S + Q*P*g*x) at sqrt price P; token1 in swaps P and Q
    near, far = (pool.sqrt_price_x96, Q96) if direction == 0 else (Q96, pool.sqrt_price_x96)
    return pool.liquidity * near * near * g, pool.liquidity * far * far * FEE_SCALE, far * near * g


def cycle_map(descriptor: PathDescriptor, pools: Mapping[bytes, PoolState]) -> tuple[int, int, int]:
    """(A, B, C) of the path's hop maps composed into x -> A*x / (B + C*x)."""
    A, B, C = 1, 1, 0
    for token_in, pool in zip(descriptor.tokens, _path_pools(descriptor, pools)):
        a, b, c = _hop_map(pool, token_in)
        A, B, C = A * a, B * b, C * b + A * c
    return A, B, C


def profit_bound(descriptor: PathDescriptor, pools: Mapping[bytes, PoolState]) -> int:
    """No cycle_delta of the cycle, its pools distinct, exceeds this at any
    input: the floor of max A*x / (B + C*x) - x = (sqrt(A) - sqrt(B))**2 / C
    (Wang et al., arXiv 2105.02784), which isqrt only raises; 0 if A <= B."""
    A, B, C = cycle_map(descriptor, pools)
    return (A + B - 2 * math.isqrt(A * B)) // C if A > B else 0


def enumerate_cycles(
    pools: Mapping[bytes, PoolState],
    base_symbol: Optional[str] = None,
) -> list[PathDescriptor]:
    """All 2-hop and 3-hop cycles over the pool fixture, optionally anchored
    at a base token symbol."""
    tokens: dict[str, TokenId] = {}
    adjacency: dict[str, list[PoolState]] = {}
    for pool in pools.values():
        for token in (pool.token0, pool.token1):
            tokens[token.symbol] = token
            adjacency.setdefault(token.symbol, []).append(pool)

    bases = [base_symbol] if base_symbol else sorted(tokens)
    found: list[PathDescriptor] = []

    for base in bases:
        if base not in tokens:
            continue
        start = tokens[base]
        for p1 in adjacency[base]:
            mid = p1.other(start)
            for p2 in adjacency[mid.symbol]:
                if p2.address == p1.address or not p2.has_token(start):
                    continue
                found.append(PathDescriptor((start, mid, start), (p1.address, p2.address)))
            for p2 in adjacency[mid.symbol]:
                if p2.address == p1.address or p2.has_token(start):
                    continue
                far = p2.other(mid)
                for p3 in adjacency[far.symbol]:
                    if p3.address in (p1.address, p2.address) or not p3.has_token(start):
                        continue
                    found.append(PathDescriptor((start, mid, far, start), (p1.address, p2.address, p3.address)))
    return found


# ---------------------------------------------------------------------------
# pool fixture files (newline-delimited JSON records)


# a pool line's keys: these, its kind's amounts, and each token's keys as
# traces.token_to_obj writes them; any other key is an error
_POOL_KEYS = ("address", "kind", "token0", "token1", "fee_ppm")
_AMOUNT_KEYS = {PoolKind.V2: ("reserve0", "reserve1"), PoolKind.V3: ("liquidity", "sqrt_price_x96")}
_TOKEN_KEYS = ("symbol", "address", "decimals")


def pool_to_obj(pool: PoolState) -> dict:
    return {
        "address": format_address(pool.address),
        "kind": pool.kind.value,
        "token0": token_to_obj(pool.token0),
        "token1": token_to_obj(pool.token1),
        "fee_ppm": pool.fee_ppm,
        **{key: str(getattr(pool, key)) for key in _AMOUNT_KEYS[pool.kind]},
    }


def _only_keys(obj, keys: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(obj).difference(keys)) if type(obj) is dict else ()
    if unknown:
        raise ValueError(f"{what}: unknown keys {', '.join(map(repr, unknown))}")


def pool_from_obj(obj: Mapping) -> PoolState:
    obj = read_json(obj, "pool", dict)
    kind = read_json(obj["kind"], "kind", PoolKind)
    _only_keys(obj, _POOL_KEYS + _AMOUNT_KEYS[kind], f"{kind.value} pool")
    for side in ("token0", "token1"):
        _only_keys(obj[side], _TOKEN_KEYS, side)
    return PoolState(
        address=parse_address(obj["address"]),
        kind=kind,
        token0=token_from_obj(obj["token0"]),
        token1=token_from_obj(obj["token1"]),
        fee_ppm=read_json(obj["fee_ppm"], "fee_ppm", int),
        **{key: read_json(obj[key], key, int, digits=True) for key in _AMOUNT_KEYS[kind]},
    )


def load_pool_file(stream: IO | Iterable[str | bytes]) -> dict[bytes, PoolState]:
    """Pools by address from newline-delimited JSON records, as text or as bytes read strictly
    as UTF-8; a malformed line, a repeated address or a symbol naming two tokens raises LineError."""
    pools: dict[bytes, PoolState] = {}
    pool_lines: dict[bytes, int] = {}
    tokens: dict[str, tuple[TokenId, int]] = {}  # symbol -> (token, first line): cycles pick tokens by symbol
    for line_no, line in read_lines(stream):
        if not line.strip():
            continue
        try:
            pool = pool_from_obj(json.loads(line, object_pairs_hook=unique_keys))
        except KeyError as exc:  # its str is only the quoted key
            raise LineError(line_no, f"missing key {exc}") from None
        except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: nested past the decoder's depth
            raise LineError(line_no, str(exc)) from None
        if pool.address in pools:
            raise LineError(line_no, f"pool {format_address(pool.address)} repeats line {pool_lines[pool.address]}")
        for token in (pool.token0, pool.token1):
            known, first = tokens.setdefault(token.symbol, (token, line_no))
            if known != token:
                raise LineError(line_no, f"token symbol {token.symbol!r} names another token on line {first}")
        pools[pool.address] = pool
        pool_lines[pool.address] = line_no
    return pools


def dump_pool_file(pools: Mapping[bytes, PoolState]) -> str:
    lines = [json.dumps(pool_to_obj(p), separators=(",", ":")) for p in pools.values()]
    return "\n".join(lines) + ("\n" if lines else "")
