"""Run configuration: share addresses, price/risk tables, misc knobs.

The config file is flat ``key = value`` lines with ``#`` comments.
Recognized keys: ``share_addresses`` (comma-separated hex addresses),
``price_table.<SYMBOL>`` (dollars: a number with a terminating decimal
expansion, held as an exact ``Decimal``),
``risk.<SYMBOL>`` (three comma-separated bits), ``alpha``, ``genesis_unix``
and ``infer_pool_sinks`` (``true`` or ``false``).
Each key is set on one line only.  ``load_config`` reads the file from a
stream and raises a LineError naming a faulty line.
Token decimals come from the traces themselves, never from the config.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import IO, Iterable, Optional

from .arbitrage import DEFAULT_SHARE_ADDRESS
from .records import EXACT
from .traces import Frozen, LineError, parse_address, read_json, read_lines

DEFAULT_PRICE_TABLE: dict[str, Decimal] = {
    "WBNB": Decimal("891.78"),
    "USDT": Decimal(1),
    "USD1": Decimal(1),
    "USDC": Decimal(1),
}

# (freezable, custodial, external_chain) defaults; override via risk.<SYM>
DEFAULT_RISK_BITS: dict[str, tuple[int, int, int]] = {
    "WBNB": (0, 0, 0),
    "USDT": (1, 1, 0),
    "USDC": (1, 1, 0),
    "USD1": (1, 1, 0),
    "DAI": (0, 1, 0),
    "WBTC": (1, 1, 1),
}


class RunConfig(Frozen):
    """A run's settings; a table left out is a fresh copy of its default."""

    share_addresses: tuple[bytes, ...]
    price_table: dict[str, Decimal]
    risk_bits: dict[str, tuple[int, int, int]]
    alpha: Fraction
    genesis_unix: int
    infer_pool_sinks: bool

    def __new__(
        cls,
        share_addresses: tuple[bytes, ...] = (DEFAULT_SHARE_ADDRESS,),
        price_table: Optional[dict[str, Decimal]] = None,
        risk_bits: Optional[dict[str, tuple[int, int, int]]] = None,
        alpha: Fraction = Fraction(1, 20),
        genesis_unix: int = 0,
        infer_pool_sinks: bool = False,
    ):
        price_table = dict(DEFAULT_PRICE_TABLE) if price_table is None else price_table
        risk_bits = dict(DEFAULT_RISK_BITS) if risk_bits is None else risk_bits
        if any(p <= 0 for p in price_table.values()):
            raise ValueError("price_table values must be positive")
        if any(len(bits) != 3 or not set(bits) <= {0, 1} for bits in risk_bits.values()):
            raise ValueError("risk needs three 0/1 bits")
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        return tuple.__new__(cls, (share_addresses, price_table, risk_bits, alpha, genesis_unix, infer_pool_sinks))


def _setting(key: str, value: str) -> tuple[str, object]:
    """The RunConfig field a config line sets, and its value there; a table
    line gives a table of one entry."""
    table, _, symbol = key.partition(".")
    if table == "price_table" and symbol:
        price = read_json(value, key, Fraction)
        places = price.denominator.bit_length()  # a 2^a * 5^b denominator divides 10^places
        units, rest = divmod(price.numerator * 10**places, price.denominator)
        if rest:  # the one terminating-decimal check: every dollar is a Decimal from here on
            raise ValueError(f"{key}: {price} has no terminating decimal expansion")
        return "price_table", {symbol: EXACT.scaleb(units, -places)}
    if table == "risk" and symbol:
        return "risk_bits", {symbol: tuple(read_json(bit.strip(), key, int, digits=True) for bit in value.split(","))}
    if key == "share_addresses":
        return key, tuple(parse_address(a.strip()) for a in value.split(",") if a.strip())
    if key == "alpha":
        return key, read_json(value, key, Fraction)
    if key == "genesis_unix":
        return key, read_json(value, key, int, digits=True)
    if key == "infer_pool_sinks":
        if value not in ("true", "false"):  # the JSON literals, as in scenario files
            raise ValueError(f"{key}: expected true or false, got {value!r:.40}")
        return key, value == "true"
    raise ValueError(f"unknown key {key!r}")


def load_config(stream: IO | Iterable[str | bytes]) -> RunConfig:
    """The defaults overridden line by line, from a config file whose lines
    are text, or bytes read strictly as UTF-8; a fault, range checks and a
    repeated key included, raises LineError naming its line."""
    settings: dict = {"price_table": dict(DEFAULT_PRICE_TABLE), "risk_bits": dict(DEFAULT_RISK_BITS)}
    key_lines: dict[str, int] = {}
    for line_no, line in read_lines(stream):
        try:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            name, setting = _setting(key, value)
            RunConfig(**{name: setting})  # the range checks, on this line's value alone
            if key in key_lines:
                raise ValueError(f"{key} repeats line {key_lines[key]}")
            key_lines[key] = line_no
            if name in ("price_table", "risk_bits"):
                settings[name].update(setting)
            else:
                settings[name] = setting
        except ValueError as exc:
            raise LineError(line_no, str(exc)) from exc
    return RunConfig(**settings)
