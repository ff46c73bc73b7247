"""Shared hypothesis strategies for trace-model objects."""

from hypothesis import strategies as st

from mevforge.traces import EventKind, TokenId, TraceEvent, Transaction

AMOUNTS = st.integers(min_value=0, max_value=10**30)
POSITIVE_AMOUNTS = st.integers(min_value=1, max_value=10**30)

# text json must escape: quote, backslash, control characters, non-ASCII
# text and a lone surrogate, else any text
escaped_text = st.text(st.sampled_from('"\\\x00\n\x1f\x7fA\u00e9\u4e2d\ud800\U0001f600') | st.characters(exclude_categories=()), max_size=5)

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
    events_strategy = events() if events_strategy is None else events_strategy
    raw_events = draw(st.lists(events_strategy, min_size=min_events, max_size=max_events))
    return Transaction(
        hash=draw(tx_hashes),
        block_number=draw(st.integers(min_value=0, max_value=10**9)),
        initiator=draw(addresses),
        events=tuple(raw_events),
        gas_used=draw(st.integers(min_value=0, max_value=10**8)),
        gas_price=draw(st.integers(min_value=0, max_value=10**12)),
    )


# -- hostile JSON values ------------------------------------------------------

# text that is often number-like, hex-like or a lone surrogate, else any string
hostile_text = st.text(
    st.sampled_from("0123456789-+./eE_x \ud800") | st.characters(exclude_categories=()),
    max_size=12,
)
json_scalars = st.one_of(
    hostile_text,
    st.sampled_from(["5", "1e3", "+5", " 5", "5_0", "1/0", "0.5", "al\ud800", ""]),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    st.booleans(),
    st.none(),
)
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(hostile_text, inner, max_size=3),
    max_leaves=8,
)


def json_paths(doc, path=()):
    """The path of doc itself and of every value nested in it, as tuples of
    object keys and array indices."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, (*path, key))


ABSENT = object()  # as a replaced() value: remove the key or item at path


def replaced(doc, path, value):
    """A copy of doc with the value at path replaced, or removed if value is
    ABSENT (path must then be nonempty)."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    if value is ABSENT and len(path) == 1:
        del copy[path[0]]
    else:
        copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy
