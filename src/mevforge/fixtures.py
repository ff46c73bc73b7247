"""Seeded synthetic fixtures with planted ground truth.

Every generator is a pure function of its seed and writes a manifest
recording what was planted, so tests and the acceptance suite can compare
pipeline output against generator intent rather than against itself.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator

from .arbitrage import DEFAULT_SHARE_ADDRESS
from .config import DEFAULT_PRICE_TABLE
from .records import EXACT, ArbitrageRecord, timestamp_for_block
from .traces import (
    BuilderLabel,
    EventKind,
    PathDescriptor,
    TokenId,
    TraceEvent,
    Transaction,
    format_address,
)

if TYPE_CHECKING:
    from .pools import PoolState

GEN_BRANDS = ("GenAlpha", "GenBeta")
CYCLE_FRACTION = 0.7  # roughly the share of generated transactions that hold a planted cycle
MISPRICING_PCT = 5  # how far the pool fixture's USDT/USD1 pair sits off par


def _rand_address(rng: random.Random) -> bytes:
    return rng.getrandbits(160).to_bytes(20, "big")


def _rand_hash(rng: random.Random) -> bytes:
    return rng.getrandbits(256).to_bytes(32, "big")


def make_token_universe(rng: random.Random) -> list[TokenId]:
    """The four majors and six generated tokens TK0-TK5."""
    tokens = [
        TokenId("WBNB", _rand_address(rng), 18),
        TokenId("USDT", _rand_address(rng), 18),
        TokenId("USD1", _rand_address(rng), 18),
        TokenId("USDC", _rand_address(rng), 18),
    ]
    for i in range(6):
        tokens.append(TokenId(f"TK{i}", _rand_address(rng), rng.choice((0, 6, 8, 18))))
    return tokens


class TraceCorpus:
    """A trace corpus drawn as it is consumed.  Each transaction comes with
    its planted cycle's manifest entry, or None when it plants none; no
    entry is kept, so manifest holds every key but "planted" and the
    planted_cycles and non_cycles counts, which a writer takes from the
    entries it writes."""

    __slots__ = ("transactions", "labels", "manifest")

    def __init__(
        self, transactions: Iterator[tuple[Transaction, dict | None]], labels: list[BuilderLabel], manifest: dict
    ) -> None:
        self.transactions, self.labels, self.manifest = transactions, labels, manifest


def _pool_for(rng: random.Random, pools: dict[tuple[bytes, bytes], bytes], a: TokenId, b: TokenId) -> bytes:
    key = (min(a.address, b.address), max(a.address, b.address))
    if key not in pools:
        pools[key] = _rand_address(rng)
    return pools[key]


def _noise_events(rng: random.Random, tokens: list[TokenId], count: int) -> list[TraceEvent]:
    out = []
    for _ in range(count):
        kind = rng.choice((EventKind.SYNC, EventKind.TRANSFER, EventKind.INTERNAL))
        if kind is EventKind.SYNC:
            out.append(TraceEvent(kind, _rand_address(rng)))
        else:
            out.append(
                TraceEvent(
                    kind=kind,
                    to=_rand_address(rng),
                    amount=rng.randint(1, 10**9),
                    token_out=rng.choice(tokens) if kind is EventKind.TRANSFER and rng.random() < 0.5 else None,
                )
            )
    return out


def gen_trace_corpus(seed: int, n_transactions: int) -> TraceCorpus:
    """Random transactions, a planted arbitrage cycle in roughly
    CYCLE_FRACTION of them; swap order is fixed, noise interleaves freely."""
    rng = random.Random(seed)
    tokens = make_token_universe(rng)
    labels = [BuilderLabel(brand, f"{brand.lower()}-1", _rand_address(rng)) for brand in GEN_BRANDS]
    manifest = {
        "kind": "traces",
        "seed": seed,
        "transactions": n_transactions,
        "share_address": format_address(DEFAULT_SHARE_ADDRESS),
        "tokens": sorted({t.symbol for t in tokens}),
    }
    transactions = _draw_transactions(rng, tokens, [l.address for l in labels], n_transactions)
    return TraceCorpus(transactions=transactions, labels=labels, manifest=manifest)


def _draw_transactions(
    rng: random.Random, tokens: list[TokenId], label_addresses: list[bytes], count: int
) -> Iterator[tuple[Transaction, dict | None]]:
    """gen_trace_corpus's transactions, one at a time, each paired with the
    manifest entry of the cycle planted in it (None if none).  Swaps and
    transactions are built by position, which costs a checked value type
    less than keywords do."""
    pools: dict[tuple[bytes, bytes], bytes] = {}
    # each token's others, in universe order; the symbols are distinct, so `is not` is !=
    others = {t: [u for u in tokens if u is not t] for t in tokens}
    block = 50_000_000

    for _ in range(count):
        block += rng.randint(1, 3)
        tx_hash = _rand_hash(rng)
        initiator = rng.choice(label_addresses + [_rand_address(rng)])
        roll = rng.random()
        events: list[TraceEvent]
        entry = None
        if roll < CYCLE_FRACTION:
            base = rng.choice(tokens)
            hops = rng.randint(2, 8)
            route = [base]
            for _i in range(hops - 2):
                route.append(rng.choice(others[route[-1]]))
            route.append(rng.choice([t for t in others[route[-1]] if t is not base]))  # the last hop closes on base
            route.append(base)
            amount_in0 = rng.randint(10**3, 10**9)
            gross = rng.randint(-(amount_in0 // 10), 10**8)
            amounts = [amount_in0]
            for _i in range(hops - 1):
                amounts.append(rng.randint(1, 10**12))
            amounts.append(amount_in0 + gross)

            swaps = []
            for i in range(hops):
                pool = _pool_for(rng, pools, route[i], route[i + 1])
                swaps.append(TraceEvent(EventKind.SWAP, pool, route[i], route[i + 1], amounts[i], amounts[i + 1]))
            share_total = 0
            extras: list[TraceEvent] = []
            for _i in range(rng.randint(0, 2)):
                amt = rng.randint(1, 10**6)
                share_total += amt
                extras.append(
                    TraceEvent(kind=EventKind.TRANSFER, to=DEFAULT_SHARE_ADDRESS, amount=amt, token_out=base)
                )
            if rng.random() < 0.3:
                sink_at = rng.randrange(hops)
                amt = rng.randint(1, 10**6)
                share_total += amt
                swaps[sink_at] = swaps[sink_at]._replace(pool_sink=True, amount=amt)
            events = list(swaps)
            for extra in extras + _noise_events(rng, tokens, rng.randint(0, 4)):
                events.insert(rng.randint(0, len(events)), extra)
            entry = {
                "tx_hash": format_address(tx_hash),
                "base_token": base.symbol,
                "path": [t.symbol for t in route],
                "pools": [format_address(s.pool) for s in swaps],
                "hop_count": hops,
                "gross": gross,
                "share": share_total,
                "net": gross - share_total,
            }
        elif roll < CYCLE_FRACTION + 0.15:
            # no swaps at all
            events = _noise_events(rng, tokens, rng.randint(1, 5))
        else:
            # open path (entry != exit) or a same-endpoint sequence whose
            # hops do not chain; neither is a cycle
            a, b, c = rng.sample(tokens, 3)
            if rng.random() < 0.5:
                legs = [(a, b), (b, c)]
            else:
                legs = [(a, b), (c, a)]
            events = [
                TraceEvent(EventKind.SWAP, _pool_for(rng, pools, t_in, t_out), t_in, t_out, rng.randint(1, 10**9), rng.randint(1, 10**9))
                for t_in, t_out in legs
            ]
            for extra in _noise_events(rng, tokens, rng.randint(0, 3)):
                events.insert(rng.randint(0, len(events)), extra)

        # gas price 0: the zero-gas regime, where profit identities stay integral
        tx = Transaction(tx_hash, block, initiator, tuple(events), rng.choice((0, 21_000, 180_000)), 0)
        yield tx, entry


# ---------------------------------------------------------------------------
# pool fixtures


class PoolFixture:
    __slots__ = ("pools", "descriptor", "manifest")

    def __init__(self, pools: dict[bytes, PoolState], descriptor: PathDescriptor, manifest: dict) -> None:
        self.pools = pools
        self.descriptor = descriptor  # planted profitable V2 triangle
        self.manifest = manifest


def gen_pool_fixture(seed: int) -> PoolFixture:
    """A small pool graph with one deliberately mispriced V2 pair, so a
    triangular route through it is profitable, plus one V3 pool."""
    from .pools import Q96, PoolKind, PoolState
    rng = random.Random(seed)
    wbnb = TokenId("WBNB", _rand_address(rng), 18)
    usdt = TokenId("USDT", _rand_address(rng), 18)
    usd1 = TokenId("USD1", _rand_address(rng), 18)

    unit = 10**18
    depth = 5_000_000
    pools: dict[bytes, PoolState] = {}

    def add(pool: PoolState) -> PoolState:
        pools[pool.address] = pool
        return pool

    # WBNB/USDT and WBNB/USD1 at par; USDT/USD1 off par by MISPRICING_PCT.
    p1 = add(
        PoolState(
            address=_rand_address(rng),
            kind=PoolKind.V2,
            token0=wbnb,
            token1=usdt,
            fee_ppm=2500,
            reserve0=depth * unit,
            reserve1=depth * unit,
        )
    )
    p2 = add(
        PoolState(
            address=_rand_address(rng),
            kind=PoolKind.V2,
            token0=usdt,
            token1=usd1,
            fee_ppm=500,
            reserve0=depth * unit,
            reserve1=depth * unit * (100 + MISPRICING_PCT) // 100,
        )
    )
    p3 = add(
        PoolState(
            address=_rand_address(rng),
            kind=PoolKind.V2,
            token0=usd1,
            token1=wbnb,
            fee_ppm=2500,
            reserve0=depth * unit,
            reserve1=depth * unit,
        )
    )
    add(
        PoolState(
            address=_rand_address(rng),
            kind=PoolKind.V3,
            token0=wbnb,
            token1=usdt,
            fee_ppm=500,
            liquidity=depth * unit,
            sqrt_price_x96=Q96,
        )
    )

    descriptor = PathDescriptor(
        tokens=(wbnb, usdt, usd1, wbnb),
        pools=(p1.address, p2.address, p3.address),
    )
    manifest = {
        "kind": "pools",
        "seed": seed,
        "mispricing_pct": MISPRICING_PCT,
        "planted_cycle": [t.symbol for t in descriptor.tokens],
        "pools": len(pools),
    }
    return PoolFixture(pools=pools, descriptor=descriptor, manifest=manifest)


# ---------------------------------------------------------------------------
# record fixtures


def gen_records(seed: int, n_rows: int) -> Iterator[ArbitrageRecord]:
    """Synthetic analytics dataset: whole-token profits in the 18-decimal
    majors, priced at the default price table."""
    rng = random.Random(seed)
    hash_rng = random.Random(seed ^ 0x5EED)
    brands = ("48Club", "Blockrazor")
    symbols = ("WBNB", "USDT", "USD1", "USDC")
    unit = 10**18
    genesis_unix = 1_748_649_600  # 2025-05-31T00:00:00Z
    block = 50_000_000
    for _ in range(n_rows):
        block += rng.randint(1, 40)
        gross = rng.randint(0, 10**6)
        share = rng.randint(0, gross) if gross else 0
        brand = rng.choices(brands, weights=(4, 1))[0]
        symbol = rng.choice(symbols)
        hop_count = rng.choices((2, 3, 4, 5, 8), weights=(45, 30, 15, 7, 3))[0]
        price = DEFAULT_PRICE_TABLE[symbol]
        yield ArbitrageRecord(
            tx_hash=_rand_hash(hash_rng),
            block_number=block,
            builder_brand=brand,
            base_token=symbol,
            hop_count=hop_count,
            gross=gross * unit,
            share=share * unit,
            gas=0,
            net=(gross - share) * unit,
            usd_value=EXACT.multiply(gross - share, price),
            share_usd=EXACT.multiply(share, price),
            timestamp_utc=timestamp_for_block(block, genesis_unix),
        )
