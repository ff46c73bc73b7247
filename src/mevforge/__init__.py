"""Trace analytics and slot-market simulation for builder-driven AMM arbitrage."""

__version__ = "0.1.0"
