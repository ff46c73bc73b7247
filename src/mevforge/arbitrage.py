"""Arbitrage-cycle extraction and profit attribution.

A transaction is an arbitrage cycle when the entry asset of its first swap
equals the exit asset of its last swap; the swap sequence in between is
treated as one atomic opportunity, however many hops it takes.  Profit is
split three ways: gross (cycle surplus in the base token), share (amounts
redirected to validator-income endpoints or routed back into pools), and
the builder-retained net after gas.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .records import EXACT
from .traces import EventKind, PathDescriptor, TokenId, Transaction, format_address

# Validator-income endpoint commonly seen in share transfers.  Not the
# protocol payout contract, so callers can override the whole set.
DEFAULT_SHARE_ADDRESS = bytes.fromhex("ff" * 19 + "fe")

NATIVE_DECIMALS = 18
NATIVE_PRICE_SYMBOL = "WBNB"  # gas is paid in the native coin, priced via its wrapper


class MissingPriceError(LookupError):
    """A token needed for USD or gas conversion has no quoted price."""


class ShareTokenError(ValueError):
    """A share transfer moves a token other than the cycle's base token."""


def extract_arbitrage_cycle(tx: Transaction) -> Optional[PathDescriptor]:
    """The route of the transaction's swaps in order, or None when there is
    no swap, the entry and exit assets differ, or the hops do not chain into
    a single route.  A swap never has token_in == token_out, so a cycle has
    at least two hops."""
    swaps = [e for e in tx.events if e.kind is EventKind.SWAP]
    if not swaps or swaps[0].token_in != swaps[-1].token_out:
        return None
    if any(a.token_out != b.token_in for a, b in zip(swaps, swaps[1:])):
        return None
    return PathDescriptor(tokens=(swaps[0].token_in, *(e.token_out for e in swaps)), pools=tuple(e.pool for e in swaps))


def gas_cost_in_base_units(gas_wei: int, base_token: TokenId, price_table: Optional[Mapping[str, Decimal]]) -> int:
    """Convert a wei gas cost into base-token units via the price table.

    Zero gas (the usual 0 Gwei regime) needs no prices at all.
    """
    if gas_wei == 0:
        return 0
    if price_table is None:
        raise MissingPriceError("gas conversion requires a price table")
    try:
        native_price = Fraction(price_table[NATIVE_PRICE_SYMBOL])
        base_price = Fraction(price_table[base_token.symbol])
    except KeyError as exc:
        raise MissingPriceError(f"no price for {exc.args[0]}") from exc
    value = Fraction(gas_wei) * native_price * 10**base_token.decimals
    return int(value / (10**NATIVE_DECIMALS * base_price))


def attribute_profit(
    tx: Transaction,
    share_addresses: Iterable[bytes] = (DEFAULT_SHARE_ADDRESS,),
    price_table: Optional[Mapping[str, Decimal]] = None,
    infer_pool_sinks: bool = False,
) -> tuple[int, int, int]:
    """(gross, share, gas) of a cycle, in base units of its first swap's
    input token; the builder keeps net = gross - share - gas.

    gross is the last swap's output minus the first swap's input, and may
    be negative.  share sums transfers to the share addresses or flagged
    pool_sink, and the surplus of swaps flagged pool_sink.  With
    infer_pool_sinks, for feeds that omit the flags, a transfer into a pool
    that an earlier swap in the transaction touched counts as share too.  A
    share transfer whose token_out names another token than the base token
    raises ShareTokenError, since its amount is in that token's units.
    gas is the transaction's wei cost converted through the price table.
    """
    share_set = frozenset(share_addresses)
    seen_pools: set[bytes] = set()
    share_tokens: list[TokenId] = []  # the token_out of share transfers that name one, in event order
    first = last = None
    share = 0
    for event in tx.events:
        if event.kind is EventKind.SWAP:
            if first is None:
                first = event
            last = event
            if infer_pool_sinks:
                seen_pools.add(event.pool)
            if event.pool_sink and event.amount is not None:
                share += event.amount
        elif event.kind is EventKind.TRANSFER and (event.to in share_set or event.pool_sink or event.to in seen_pools):
            share += event.amount
            if event.token_out is not None:
                share_tokens.append(event.token_out)
    if first is None or first.token_in != last.token_out:
        raise ValueError(f"tx {format_address(tx.hash)} is not a cycle")
    stray = next((token for token in share_tokens if token != first.token_in), None)
    if stray is not None:
        raise ShareTokenError(f"share transfer moves {stray.symbol}, not the base token {first.token_in.symbol}")
    gas = gas_cost_in_base_units(tx.gas_cost, first.token_in, price_table)
    return last.amount_out - first.amount_in, share, gas


def to_usd(amount: int, token: TokenId, price_table: Mapping[str, Decimal]) -> Decimal:
    """Exact dollar value of `amount` base units of `token`; never silently
    zero on a missing price."""
    if token.symbol not in price_table:
        raise MissingPriceError(f"no price for {token.symbol}")
    return EXACT.multiply(amount, price_table[token.symbol]).scaleb(-token.decimals, EXACT)
