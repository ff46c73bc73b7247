"""Shared hypothesis strategies for trace-model objects."""

from hypothesis import strategies as st

from mevforge.traces import EventKind, TokenId, TraceEvent, Transaction

AMOUNTS = st.integers(min_value=0, max_value=10**30)
POSITIVE_AMOUNTS = st.integers(min_value=1, max_value=10**30)

addresses = st.binary(min_size=20, max_size=20)
tx_hashes = st.binary(min_size=32, max_size=32)

tokens = st.builds(
    TokenId,
    symbol=st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ01", min_size=2, max_size=6),
    address=addresses,
    decimals=st.integers(min_value=0, max_value=36),
)


@st.composite
def swap_events(draw, token_pool=None):
    token_in = draw(token_pool or tokens)
    token_out = draw((token_pool or tokens).filter(lambda t: t != token_in))
    pool_sink = draw(st.booleans())
    return TraceEvent(
        kind=EventKind.SWAP,
        pool=draw(addresses),
        token_in=token_in,
        token_out=token_out,
        amount_in=draw(AMOUNTS),
        amount_out=draw(AMOUNTS),
        amount=draw(POSITIVE_AMOUNTS) if pool_sink else None,
        pool_sink=pool_sink,
    )


@st.composite
def transfer_events(draw, kind=EventKind.TRANSFER):
    return TraceEvent(
        kind=kind,
        to=draw(addresses),
        amount=draw(AMOUNTS),
        token_out=draw(st.none() | tokens) if kind is EventKind.TRANSFER else None,
    )


@st.composite
def sync_events(draw):
    return TraceEvent(kind=EventKind.SYNC, pool=draw(addresses))


def events():
    return st.one_of(
        swap_events(),
        transfer_events(),
        transfer_events(kind=EventKind.INTERNAL),
        sync_events(),
    )


@st.composite
def transactions(draw, events_strategy=None, min_events=0, max_events=8):
    raw_events = draw(st.lists(events_strategy or events(), min_size=min_events, max_size=max_events))
    return Transaction(
        hash=draw(tx_hashes),
        block_number=draw(st.integers(min_value=0, max_value=10**9)),
        initiator=draw(addresses),
        events=tuple(raw_events),
        gas_used=draw(st.integers(min_value=0, max_value=10**8)),
        gas_price=draw(st.integers(min_value=0, max_value=10**12)),
    )
