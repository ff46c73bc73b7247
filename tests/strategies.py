"""Shared hypothesis strategies for trace-model objects, hostile JSON
values and scenario value faults."""

from fractions import Fraction

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


# -- scenario values that read but fail their key's own check ------------------


def _json_fractions(fractions):
    """Fractions as a scenario's millisecond keys and infra_tier read them:
    JSON floats, number text such as ``-3/7`` and, when whole, JSON
    integers."""

    def forms(f: Fraction) -> list:
        return [float(f), str(f)] + ([int(f)] if f.denominator == 1 else [])

    return fractions.flatmap(lambda f: st.sampled_from(forms(f)))


negative_numbers = _json_fractions(st.fractions(min_value=-(10**9), max_value=Fraction(-1, 10**6)))
non_positive_numbers = _json_fractions(st.fractions(min_value=-(10**9), max_value=0))
negative_ints = st.integers(max_value=-1)
names = st.text("abcdefghijklmnopqrstuvwxyz_", max_size=50)

# key: (JSON values that read but fail the key's one-key check, the fault's
# message after "key: ", formatted with the value)
TOP_LEVEL_FAULTS = {
    "horizon_ms": (non_positive_numbers, "must be > 0"),
    "listen_window_ms": (negative_numbers, "must be >= 0"),
    "base_compute_ms": (negative_numbers, "must be >= 0"),
}
SECTION_FAULTS = {
    "builders": {
        "id": (st.just(""), "must not be empty"),
        "latency_ms": (negative_numbers, "must be >= 0"),
        "share_ratio_bp": (negative_ints | st.integers(min_value=10_001), "must be in [0, 10000]"),
        "infra_tier": (non_positive_numbers, "must be > 0"),
        "non_delivery_prob": (
            st.floats(max_value=1e300, min_value=1, exclude_min=True) | st.floats(max_value=0, exclude_max=True, min_value=-1e300),
            "must be in [0, 1]",
        ),
    },
    "opportunity": {
        "peak_value": (negative_ints, "must be >= 0"),
        "gas_floor": (negative_ints, "must be >= 0"),
        "decay": (names.filter(lambda text: text != "piecewise"), "expected 'piecewise', got {0!r:.40}"),
        "tail_value": (negative_ints, "must be >= 0 and below gas_floor, unless 0"),
    },
    "proposers": {
        "count": (st.integers(max_value=0), "must be >= 1"),
        "rotation": (names.filter(lambda text: text != "round_robin"), "expected 'round_robin', got {0!r:.40}"),
        "blacklist_slots": (negative_ints, "must be >= 0"),
    },
    "relay": {
        "delay_ms": (negative_numbers, "must be >= 0"),
        "rebid_interval_ms": (non_positive_numbers, "must be > 0"),
        "optimization_rounds": (st.integers(max_value=0), "must be >= 1"),
    },
}


@st.composite
def one_key_faults(draw, doc, nested, unread=frozenset()):
    """(path, value, fault): a key that the scenario doc's protocol reads,
    top-level (TOP_LEVEL_FAULTS) or, with nested, in a section
    (SECTION_FAULTS; builders: any of doc's), a value that fails its
    one-key check, and the fault led by its path as simulate prints it."""
    if nested:
        section = draw(st.sampled_from(sorted(set(SECTION_FAULTS) - unread)))
        key = draw(st.sampled_from(sorted(set(SECTION_FAULTS[section]) - unread)))
        values, message = SECTION_FAULTS[section][key]
        if section == "builders":
            index = draw(st.integers(0, len(doc[section]) - 1))
            path, where = (section, index, key), f"{section}[{index}]: {key}"
        else:
            path, where = (section, key), f"{section}: {key}"
    else:
        key = draw(st.sampled_from(sorted(set(TOP_LEVEL_FAULTS) - unread)))
        (values, message), path, where = TOP_LEVEL_FAULTS[key], (key,), key
    value = draw(values)
    return path, value, f"{where}: {message.format(value)}"
