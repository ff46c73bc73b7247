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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .traces import EventKind, PathDescriptor, TokenId, Transaction, format_address

# Validator-income endpoint commonly seen in share transfers.  Not the
# protocol payout contract, so callers can override the whole set.
DEFAULT_SHARE_ADDRESS = bytes.fromhex("ff" * 19 + "fe")

NATIVE_DECIMALS = 18
NATIVE_PRICE_SYMBOL = "WBNB"  # gas is paid in the native coin, priced via its wrapper


class MissingPriceError(LookupError):
    """A token needed for USD or gas conversion has no quoted price."""


class CycleMismatchError(ValueError):
    """The cycle handed to attribution came from a different transaction."""


@dataclass(frozen=True)
class ArbitrageCycle:
    """The swap route of one transaction, starting and ending at its base
    token."""

    tx_hash: bytes
    path: PathDescriptor

    def __post_init__(self) -> None:
        if self.path.n_hops < 2:
            raise ValueError("a cycle needs at least two hops")

    @property
    def base_token(self) -> TokenId:
        return self.path.tokens[0]

    @property
    def hop_count(self) -> int:
        return self.path.n_hops


def extract_arbitrage_cycle(tx: Transaction) -> Optional[ArbitrageCycle]:
    """Collect the transaction's swaps in order and return the cycle they
    form, or None when there is no swap, the entry and exit assets differ,
    or the hops do not chain into a single route."""
    swaps = [e for e in tx.events if e.kind is EventKind.SWAP]
    if not swaps:
        return None
    if swaps[0].token_in != swaps[-1].token_out:
        return None
    for a, b in zip(swaps, swaps[1:]):
        if a.token_out != b.token_in:
            return None
    path = PathDescriptor(tokens=(swaps[0].token_in, *(e.token_out for e in swaps)), pools=tuple(e.pool for e in swaps))
    return ArbitrageCycle(tx_hash=tx.hash, path=path)


@dataclass(frozen=True)
class ProfitBreakdown:
    """Profit components of one cycle, in base-token units except gas_cost
    (wei).  net = gross - share - gas-in-base-units holds exactly; gross may
    be negative for losing cycles."""

    base_token: TokenId
    gross: int
    share: int
    gas_cost: int
    net: int

    def __post_init__(self) -> None:
        if self.share < 0 or self.gas_cost < 0:
            raise ValueError("share and gas_cost must be non-negative")

    @property
    def gas_in_base_units(self) -> int:
        return self.gross - self.share - self.net


def gas_cost_in_base_units(gas_wei: int, base_token: TokenId, price_table: Optional[Mapping[str, Fraction]]) -> int:
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
    cycle: ArbitrageCycle,
    share_addresses: Iterable[bytes] = (DEFAULT_SHARE_ADDRESS,),
    price_table: Optional[Mapping[str, Fraction]] = None,
) -> ProfitBreakdown:
    """Compute (gross, share, net) for an extracted cycle.

    gross is the base-token output of the last swap minus the input of the
    first; share sums transfers to the configured endpoints plus surplus
    flagged as routed into pools; net subtracts both share and the gas cost
    converted into base units.
    """
    if cycle.tx_hash != tx.hash:
        raise CycleMismatchError(
            f"cycle from {format_address(cycle.tx_hash)} does not match tx {format_address(tx.hash)}"
        )
    share_set = frozenset(share_addresses)
    swaps = [e for e in tx.events if e.kind is EventKind.SWAP]
    gross = swaps[-1].amount_out - swaps[0].amount_in

    share = 0
    for event in tx.events:
        if event.kind is EventKind.TRANSFER and (event.to in share_set or event.pool_sink):
            share += event.amount
        elif event.kind is EventKind.SWAP and event.pool_sink and event.amount is not None:
            share += event.amount

    gas_wei = tx.gas_cost
    gas_base = gas_cost_in_base_units(gas_wei, cycle.base_token, price_table)
    return ProfitBreakdown(
        base_token=cycle.base_token,
        gross=gross,
        share=share,
        gas_cost=gas_wei,
        net=gross - share - gas_base,
    )


def to_usd(amount: int, token: TokenId, price_table: Mapping[str, Fraction]) -> Fraction:
    """Dollar value of `amount` base units of `token`; never silently zero
    on a missing price."""
    if token.symbol not in price_table:
        raise MissingPriceError(f"no price for {token.symbol}")
    price = Fraction(price_table[token.symbol])
    return Fraction(amount) * price / 10**token.decimals
