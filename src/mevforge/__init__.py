"""Trace analytics and slot-market simulation for builder-driven AMM arbitrage."""

from pathlib import Path

__version__ = "0.1.0"
# The duopoly pair, one file per protocol, shipped as package data.
BUNDLED_SCENARIOS = Path(__file__).with_name("scenarios")
