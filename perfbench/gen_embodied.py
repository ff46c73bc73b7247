"""Seeded inputs for the sim-direct-embodied workload.

Writes a WBNB-anchored pool graph that mixes V2 and V3 pools
(``pools.ndjson``, through ``mevforge.pools.dump_pool_file``), a
four-builder ``bsc_direct`` scenario that points at it
(``scenario.json``), and ``manifest.json`` with the graph's sizes.

The graph topology and the builders are fixed; the seed draws only token
prices, pool depths and per-pool mispricing.  So every seed yields the same
number of cycles for ``enumerate_cycles`` and about the same search cost,
while the profit each cycle offers, and hence the bids, differ.

Usage: python3 perfbench/gen_embodied.py --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

from mevforge.pbs import enumerate_cycles
from mevforge.pools import Q96, PoolKind, PoolState, dump_pool_file
from mevforge.traces import TokenId

TOKENS = ("WBNB", "USDT", "USD1", "USDC", "CAKE", "ETH", "BTCB", "XRP", "DOGE", "ADA", "DOT", "LINK")
# Non-WBNB tokens with a second, V3 pool against WBNB: these give the
# 2-hop cycles that the short_hop strategy draws on.
WBNB_V3 = ("USDT", "USDC", "ETH", "BTCB", "CAKE")
# Every pair of non-WBNB tokens has a V2 pool; these pairs also get a V3 one.
CROSS_V3 = (
    ("USDT", "USD1"), ("USDT", "USDC"), ("USDT", "ETH"), ("USDT", "BTCB"), ("USD1", "USDC"),
    ("USDC", "CAKE"), ("CAKE", "ETH"), ("ETH", "BTCB"), ("BTCB", "XRP"), ("XRP", "DOGE"),
    ("DOGE", "ADA"), ("ADA", "DOT"), ("DOT", "LINK"), ("LINK", "USDT"), ("ETH", "LINK"),
    ("BTCB", "DOT"), ("CAKE", "ADA"), ("USD1", "XRP"), ("USDC", "DOGE"),
)
UNIT = 10**18
MISPRICING = Fraction(3, 100)  # each pool's price is off by at most this share

BUILDERS = (
    {"id": "b1-short", "latency_ms": 20, "strategy": "short_hop", "share_ratio_bp": 3000, "infra_tier": 5, "non_delivery_prob": 0.2},
    {"id": "b2-mixed", "latency_ms": 30, "strategy": "mixed", "share_ratio_bp": 2000, "infra_tier": 3, "non_delivery_prob": 0.1},
    {"id": "b3-long", "latency_ms": 45, "strategy": "long_hop", "share_ratio_bp": 2500, "infra_tier": 4, "non_delivery_prob": 0.05},
    {"id": "b4-mixed", "latency_ms": 60, "strategy": "mixed", "share_ratio_bp": 1500, "infra_tier": 1, "non_delivery_prob": 0.0},
)


def _address(rng: random.Random) -> bytes:
    return rng.getrandbits(160).to_bytes(20, "big")


def pool_graph(seed: int) -> dict[bytes, PoolState]:
    rng = random.Random(seed)
    tokens = {symbol: TokenId(symbol, _address(rng), 18) for symbol in TOKENS}
    # price of one whole token in WBNB
    price = {symbol: Fraction(1) if symbol == "WBNB" else Fraction(rng.randint(200, 5000), 1000) for symbol in TOKENS}
    pools: dict[bytes, PoolState] = {}

    def add(kind: PoolKind, a: str, b: str) -> None:
        t0, t1 = tokens[a], tokens[b]
        skew = 1 + MISPRICING * Fraction(rng.randint(-1000, 1000), 1000)
        # depth in WBNB terms, then token0 reserve in base units
        depth = rng.randint(2_000, 8_000)
        reserve0 = int(depth / price[a] * UNIT)
        ratio = price[a] / price[b] * skew  # token1 per token0
        fee = rng.choice((500, 2500, 3000))
        if kind is PoolKind.V2:
            pool = PoolState(_address(rng), kind, t0, t1, fee, reserve0=reserve0, reserve1=int(reserve0 * ratio))
        else:
            sqrt_price = isqrt(ratio.numerator * Q96 * Q96 // ratio.denominator)
            pool = PoolState(_address(rng), kind, t0, t1, fee, liquidity=isqrt(reserve0 * int(reserve0 * ratio)), sqrt_price_x96=sqrt_price)
        pools[pool.address] = pool

    others = TOKENS[1:]
    for symbol in others:
        add(PoolKind.V2, "WBNB", symbol)
    for symbol in WBNB_V3:
        add(PoolKind.V3, symbol, "WBNB")
    for i, a in enumerate(others):
        for b in others[i + 1:]:
            add(PoolKind.V2, a, b)
    for a, b in CROSS_V3:
        add(PoolKind.V3, a, b)
    return pools


def scenario(pool_file: str) -> dict:
    return {
        "protocol": "bsc_direct",
        "horizon_ms": 3000,
        "listen_window_ms": 100,
        "base_compute_ms": 10,
        "builders": list(BUILDERS),
        "opportunity": {
            "decay": "piecewise",
            "peak_value": 10**18,
            "gas_floor": 10**12,
            "knee_ms": 80,
            "deadline_ms": 400,
            "birth_ms": 0,
            "tail_value": 0,
        },
        "proposers": {"count": 5, "rotation": "round_robin", "blacklist_slots": 50},
        "pools": pool_file,
        "embodied_base_symbol": "WBNB",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pools = pool_graph(args.seed)
    (out / "pools.ndjson").write_text(dump_pool_file(pools), encoding="utf-8")
    manifest = {
        "kind": "embodied",
        "seed": args.seed,
        "tokens": len(TOKENS),
        "pools": len(pools),
        "v3_pools": sum(p.kind is PoolKind.V3 for p in pools.values()),
        "cycles": len(enumerate_cycles(pools, "WBNB")),
        "builders": len(BUILDERS),
    }
    for name, obj in (("scenario.json", scenario("pools.ndjson")), ("manifest.json", manifest)):
        with open(out / name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
