"""Simulated pool state and atomic multi-hop execution.

Two pool shapes are supported: constant-product pairs (V2) and a single
active concentrated-liquidity range with a Q64.96 sqrt price (V3).  All
swap math is exact integer arithmetic with floor rounding on outputs,
matching on-chain behavior.  Fees are parts per million so both the
0.30% and 0.01% tiers are exact.

PoolState is immutable and a run never writes to the caller's pool map: it
keeps a map of the pools it touched, which an aborted run simply drops and
a successful one lays over the input map.  Rollback is thus structural
rather than compensating arithmetic, and runs may share one pool map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
import json
from typing import IO, Iterable, Mapping, Optional

from .traces import PathDescriptor, TokenId, format_address, parse_address, read_int, token_from_obj, token_to_obj

FEE_SCALE = 10**6           # fee denominator, parts per million
Q96 = 1 << 96               # Q64.96 fixed-point unit for sqrt prices
MIN_SQRT_PRICE_X96 = 1
MAX_SQRT_PRICE_X96 = 1 << 160
SHARE_RATIO_SCALE = 10_000  # payout ratio denominator, basis points


class DustError(ArithmeticError):
    """Swap output rounded to zero."""


class InactivePoolError(ValueError):
    """V3 pool has no liquidity in range."""


class PriceLimitError(ValueError):
    """price_limit sits on the wrong side of the current price."""


class PoolLookupError(KeyError):
    """Descriptor references a pool missing from the pool map."""


class PoolKind(Enum):
    V2 = "v2"
    V3 = "v3"


@dataclass(frozen=True)
class PoolState:
    address: bytes
    kind: PoolKind
    token0: TokenId
    token1: TokenId
    fee_ppm: int
    reserve0: int = 0
    reserve1: int = 0
    liquidity: int = 0
    sqrt_price_x96: int = 0

    def __post_init__(self) -> None:
        if self.token0 == self.token1:
            raise ValueError("pool tokens must differ")
        if not 0 <= self.fee_ppm < FEE_SCALE:
            raise ValueError("fee_ppm out of range")
        if self.kind is PoolKind.V2:
            if self.reserve0 <= 0 or self.reserve1 <= 0:
                raise ValueError("active V2 pool needs positive reserves")
        else:
            if self.liquidity <= 0:
                raise InactivePoolError("V3 pool needs positive liquidity")
            if self.sqrt_price_x96 <= 0:
                raise ValueError("V3 pool needs a positive sqrt price")

    def has_token(self, token: TokenId) -> bool:
        return token in (self.token0, self.token1)

    def other(self, token: TokenId) -> TokenId:
        if token == self.token0:
            return self.token1
        if token == self.token1:
            return self.token0
        raise ValueError(f"token {token.symbol} not in pool {format_address(self.address)}")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def swap_v2(pool: PoolState, token_in: TokenId, amount_in: int) -> tuple[int, PoolState]:
    """Constant-product exact-input swap.

    amount_out = floor(x_f * R_out / (R_in * SCALE + x_f)) with
    x_f = amount_in * (SCALE - fee); the product R0*R1 never decreases.
    """
    if pool.kind is not PoolKind.V2:
        raise ValueError("swap_v2 requires a V2 pool")
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    if token_in == pool.token0:
        reserve_in, reserve_out = pool.reserve0, pool.reserve1
    elif token_in == pool.token1:
        reserve_in, reserve_out = pool.reserve1, pool.reserve0
    else:
        raise ValueError(f"token {token_in.symbol} not in pool {format_address(pool.address)}")

    amount_in_with_fee = amount_in * (FEE_SCALE - pool.fee_ppm)
    amount_out = amount_in_with_fee * reserve_out // (reserve_in * FEE_SCALE + amount_in_with_fee)
    if amount_out == 0:
        raise DustError("swap output rounded to zero")
    if token_in == pool.token0:
        new_pool = replace(pool, reserve0=reserve_in + amount_in, reserve1=reserve_out - amount_out)
    else:
        new_pool = replace(pool, reserve1=reserve_in + amount_in, reserve0=reserve_out - amount_out)
    return amount_out, new_pool


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


def swap_v3(
    pool: PoolState,
    direction: int,
    amount_in: int,
    price_limit: Optional[int] = None,
) -> tuple[int, PoolState, int]:
    """Single-range concentrated-liquidity exact-input swap.

    direction 0 swaps token0 for token1 (price falls), 1 swaps token1 for
    token0 (price rises).  The fee is charged on the consumed input.  When
    the implied move would cross price_limit the swap stops at the limit
    and the unconsumed input is returned as the third element.
    """
    if pool.kind is not PoolKind.V3:
        raise ValueError("swap_v3 requires a V3 pool")
    if direction not in (0, 1):
        raise ValueError("direction must be 0 or 1")
    if amount_in <= 0:
        raise ValueError("amount_in must be positive")
    if pool.liquidity <= 0:
        raise InactivePoolError("no liquidity in range")

    liquidity, sqrt_p, fee = pool.liquidity, pool.sqrt_price_x96, pool.fee_ppm
    if price_limit is None:
        price_limit = MIN_SQRT_PRICE_X96 if direction == 0 else MAX_SQRT_PRICE_X96
    if direction == 0 and price_limit > sqrt_p:
        raise PriceLimitError("limit above current price for a downward swap")
    if direction == 1 and price_limit < sqrt_p:
        raise PriceLimitError("limit below current price for an upward swap")

    available = amount_in * (FEE_SCALE - fee) // FEE_SCALE
    if direction == 0:
        max_net = _amount0_to_reach(liquidity, sqrt_p, price_limit)
    else:
        max_net = _amount1_to_reach(liquidity, sqrt_p, price_limit)

    if available <= max_net:
        consumed_net = available
        unused = 0
        if direction == 0:
            new_sqrt = _next_sqrt_price_down(liquidity, sqrt_p, consumed_net)
        else:
            new_sqrt = sqrt_p + consumed_net * Q96 // liquidity
    else:
        consumed_net = max_net
        gross = _ceil_div(consumed_net * FEE_SCALE, FEE_SCALE - fee) if consumed_net else 0
        unused = amount_in - gross
        new_sqrt = price_limit

    if direction == 0:
        amount_out = liquidity * (sqrt_p - new_sqrt) // Q96
    else:
        amount_out = liquidity * Q96 * (new_sqrt - sqrt_p) // (new_sqrt * sqrt_p)

    if amount_out == 0 and unused == 0:
        raise DustError("swap output rounded to zero")
    return amount_out, replace(pool, sqrt_price_x96=new_sqrt), unused


# ---------------------------------------------------------------------------
# atomic multi-hop execution


@dataclass(frozen=True)
class ExecutionResult:
    """Successful run: delta split into the validator payout and the kept
    remainder; kept + payout == delta and payout == floor(delta*r/10000)."""

    delta: int
    payout: int
    kept: int
    hop_amounts: tuple[int, ...]


def split_delta(delta: int, share_ratio_bp: int) -> tuple[int, int]:
    """Split a surplus into (payout, kept) at the basis-point share ratio."""
    if not 0 <= share_ratio_bp <= SHARE_RATIO_SCALE:
        raise ValueError("share ratio must be within [0, 10000] bp")
    payout = delta * share_ratio_bp // SHARE_RATIO_SCALE
    return payout, delta - payout


def _hop_swap(pool: PoolState, type_flag: int, direction: int, token_in: TokenId, amount: int) -> tuple[int, PoolState]:
    expected_direction = 0 if token_in == pool.token0 else 1 if token_in == pool.token1 else None
    if expected_direction is None:
        raise ValueError(f"token {token_in.symbol} not in pool {format_address(pool.address)}")
    if direction != expected_direction:
        raise ValueError("direction flag inconsistent with path tokens")
    if type_flag == 1:
        if pool.kind is not PoolKind.V2:
            raise ValueError("pool type flag says V2 but pool is V3")
        return swap_v2(pool, token_in, amount)
    if pool.kind is not PoolKind.V3:
        raise ValueError("pool type flag says V3 but pool is V2")
    amount_out, new_pool, _unused = swap_v3(pool, direction, amount)
    return amount_out, new_pool


def _execute_path(
    descriptor: PathDescriptor, pools: Mapping[bytes, PoolState], amount0: int
) -> tuple[int, list[int], dict[bytes, PoolState]]:
    """Thread amount0 through every hop without changing `pools`.

    Returns (delta, hop_amounts, touched): touched maps each pool the run
    visited to its post-run state, and delta is the entry-token balance the
    run gains, the last output minus amount0 on a cycle and -amount0 on an
    open path.
    """
    touched: dict[bytes, PoolState] = {}
    amount = amount0
    hop_amounts: list[int] = []
    hops = zip(descriptor.tokens, descriptor.pools, descriptor.pool_type_flags, descriptor.direction_flags)
    for token_in, address, type_flag, direction in hops:
        pool = touched.get(address) or pools.get(address)
        if pool is None:
            raise PoolLookupError(format_address(address))
        amount, touched[address] = _hop_swap(pool, type_flag, direction, token_in, amount)
        hop_amounts.append(amount)
    delta = amount - amount0 if descriptor.is_cycle else -amount0
    return delta, hop_amounts, touched


def arbitrage_run(
    descriptor: PathDescriptor,
    pools: Mapping[bytes, PoolState],
    amount0: int,
    share_ratio_bp: int,
) -> Optional[tuple[ExecutionResult, dict[bytes, PoolState]]]:
    """Execute a path atomically, requiring a strictly positive surplus.

    Hops run in descriptor order with V2/V3 dispatch per pool-type flag,
    each output feeding the next input.  If the surplus delta is not
    positive the whole run aborts and None is returned with every pool
    untouched.  On success the surplus is split as
    payout = floor(delta * share_ratio_bp / 10000), kept = delta - payout,
    and the post-run pool map is returned alongside the result.
    """
    if amount0 <= 0:
        raise ValueError("amount0 must be positive")
    if not 0 <= share_ratio_bp <= SHARE_RATIO_SCALE:
        raise ValueError("share ratio must be within [0, 10000] bp")
    try:
        delta, hop_amounts, touched = _execute_path(descriptor, pools, amount0)
    except DustError:
        return None  # a dead hop cannot yield profit; treat as an abort
    if delta <= 0:
        return None
    payout, kept = split_delta(delta, share_ratio_bp)
    return ExecutionResult(delta=delta, payout=payout, kept=kept, hop_amounts=tuple(hop_amounts)), {**pools, **touched}


def cycle_delta(descriptor: PathDescriptor, pools: Mapping[bytes, PoolState], amount0: int) -> int:
    """Surplus of executing the path, without the profit gate or payouts.

    Used when searching for the best input; a run that dies mid-path (dust)
    counts as losing the whole input.
    """
    if amount0 <= 0:
        raise ValueError("amount0 must be positive")
    try:
        return _execute_path(descriptor, pools, amount0)[0]
    except DustError:
        return -amount0


def best_input_search(
    descriptor: PathDescriptor,
    pools: Mapping[bytes, PoolState],
    lo: int,
    hi: int,
) -> tuple[int, int]:
    """Ternary-search the unimodal profit curve for the best input amount.

    Returns (amount, delta); when no input in [lo, hi] is profitable the
    result is (lo, best-delta) with a non-positive delta.
    """
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    cache: dict[int, int] = {}

    def evaluate(amount: int) -> int:
        if amount not in cache:
            cache[amount] = cycle_delta(descriptor, pools, amount)
        return cache[amount]

    lo0 = lo
    while hi - lo > 32:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        f1, f2 = evaluate(m1), evaluate(m2)
        if f1 < f2:
            lo = m1 + 1
        elif f1 > f2:
            hi = m2 - 1
        else:
            # Equal probes: the peak lies inside [m1, m2] or within one
            # floor-quantization plateau of it, so shrinking here costs at
            # most a unit of delta.
            lo, hi = m1, m2
    best_amount = min(range(lo, hi + 1), key=lambda a: (-evaluate(a), a))
    best_delta = evaluate(best_amount)
    if best_delta <= 0:
        return lo0, best_delta
    return best_amount, best_delta


# ---------------------------------------------------------------------------
# pool fixture files (newline-delimited JSON records)


def pool_to_obj(pool: PoolState) -> dict:
    obj = {
        "address": format_address(pool.address),
        "kind": pool.kind.value,
        "token0": token_to_obj(pool.token0),
        "token1": token_to_obj(pool.token1),
        "fee_ppm": pool.fee_ppm,
    }
    if pool.kind is PoolKind.V2:
        obj["reserve0"] = str(pool.reserve0)
        obj["reserve1"] = str(pool.reserve1)
    else:
        obj["liquidity"] = str(pool.liquidity)
        obj["sqrt_price_x96"] = str(pool.sqrt_price_x96)
    return obj


def pool_from_obj(obj: Mapping) -> PoolState:
    if type(obj) is not dict:
        raise ValueError(f"pool is not an object but {type(obj).__name__}")
    kind = PoolKind(obj["kind"])
    common = dict(
        address=parse_address(obj["address"]),
        kind=kind,
        token0=token_from_obj(obj["token0"]),
        token1=token_from_obj(obj["token1"]),
        fee_ppm=read_int(obj["fee_ppm"], "fee_ppm"),
    )
    keys = ("reserve0", "reserve1") if kind is PoolKind.V2 else ("liquidity", "sqrt_price_x96")
    return PoolState(**common, **{key: read_int(obj[key], key, digits=True) for key in keys})


def load_pool_file(stream: IO[str] | Iterable[str]) -> dict[bytes, PoolState]:
    """Pools by address from newline-delimited JSON records; a malformed
    line raises ValueError naming its 1-based line number."""
    pools: dict[bytes, PoolState] = {}
    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            pool = pool_from_obj(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        pools[pool.address] = pool
    return pools


def dump_pool_file(pools: Mapping[bytes, PoolState]) -> str:
    lines = [json.dumps(pool_to_obj(p), separators=(",", ":")) for p in pools.values()]
    return "\n".join(lines) + ("\n" if lines else "")
