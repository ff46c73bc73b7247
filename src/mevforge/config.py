"""Run configuration: share addresses, price/risk tables, misc knobs.

The config file is flat ``key = value`` lines with ``#`` comments.
Recognized keys: ``share_addresses`` (comma-separated hex addresses),
``price_table.<SYMBOL>`` (decimal dollars), ``risk.<SYMBOL>`` (three
comma-separated bits), ``alpha``, ``genesis_unix`` and ``infer_pool_sinks``.
Token decimals come from the traces themselves, never from the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .arbitrage import DEFAULT_SHARE_ADDRESS
from .traces import parse_address

BLOCK_INTERVAL_S = 3

DEFAULT_PRICE_TABLE: dict[str, Fraction] = {
    "WBNB": Fraction("891.78"),
    "USDT": Fraction(1),
    "USD1": Fraction(1),
    "USDC": Fraction(1),
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


class ConfigFileError(ValueError):
    """Unparseable or unknown configuration content."""


@dataclass(frozen=True)
class RunConfig:
    share_addresses: tuple[bytes, ...] = (DEFAULT_SHARE_ADDRESS,)
    price_table: dict[str, Fraction] = field(default_factory=lambda: dict(DEFAULT_PRICE_TABLE))
    risk_bits: dict[str, tuple[int, int, int]] = field(default_factory=lambda: dict(DEFAULT_RISK_BITS))
    alpha: Fraction = Fraction(1, 20)
    genesis_unix: int = 0
    infer_pool_sinks: bool = False

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.price_table.values()):
            raise ConfigFileError("price_table values must be positive")
        if not 0 < self.alpha < 1:
            raise ConfigFileError("alpha must be in (0, 1)")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigFileError(f"expected boolean, got {text!r}")


def load_config(path: str | Path) -> RunConfig:
    config = RunConfig()
    price_table = dict(config.price_table)
    risk_bits = dict(config.risk_bits)
    updates: dict = {}
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError("expected key = value")
                key, _, value = (part.strip() for part in line.partition("="))
                if key == "share_addresses":
                    updates["share_addresses"] = tuple(
                        parse_address(a.strip()) for a in value.split(",") if a.strip()
                    )
                elif key.startswith("price_table."):
                    price_table[key.split(".", 1)[1]] = Fraction(value)
                elif key.startswith("risk."):
                    bits = tuple(int(b.strip()) for b in value.split(","))
                    if len(bits) != 3 or any(b not in (0, 1) for b in bits):
                        raise ValueError("risk needs three 0/1 bits")
                    risk_bits[key.split(".", 1)[1]] = bits  # type: ignore[assignment]
                elif key == "alpha":
                    updates["alpha"] = Fraction(value)
                elif key == "genesis_unix":
                    updates["genesis_unix"] = int(value)
                elif key == "infer_pool_sinks":
                    updates["infer_pool_sinks"] = _parse_bool(value)
                else:
                    raise ValueError(f"unknown key {key!r}")
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigFileError(f"{path}: line {line_no}: {exc}") from exc
    return replace(config, price_table=price_table, risk_bits=risk_bits, **updates)
