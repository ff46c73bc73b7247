"""Trace model: parsing, canonical serialization, labels, invariants."""

import gc
import io
import json
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mevforge import fixtures
from mevforge.traces import (
    MAX_SHARED_TOKENS,
    EventKind,
    LabelFileError,
    PathDescriptor,
    TokenId,
    TraceEvent,
    TraceParseError,
    Transaction,
    format_address,
    iter_transactions,
    parse_address,
    parse_tx_hash,
    read_json,
    read_labels,
    serialize_transactions,
)

import strategies

DATA = Path(__file__).resolve().parent.parent / "data"


def test_worked_example_file_parses_to_five_events():
    with open(DATA / "worked_example_trace.ndjson", encoding="utf-8") as fh:
        txs = list(iter_transactions(fh))
    assert len(txs) == 1
    tx = txs[0]
    assert len(tx.events) == 5
    kinds = [e.kind for e in tx.events]
    assert kinds == [EventKind.SWAP] * 3 + [EventKind.TRANSFER, EventKind.INTERNAL]
    assert tx.events[0].token_in.symbol == "USDT"
    assert tx.events[0].amount_in == 1_000_000


def test_empty_stream_parses_to_empty_list():
    assert list(iter_transactions(io.StringIO(""))) == []


def test_generated_corpus_round_trips_identically():
    transactions = [tx for tx, _entry in fixtures.gen_trace_corpus(seed=11, n_transactions=1000).transactions]
    text = "".join(serialize_transactions(transactions))
    reparsed = list(iter_transactions(io.StringIO(text)))
    assert len(reparsed) == 1000
    assert reparsed == transactions
    assert "".join(serialize_transactions(reparsed)) == text


def test_trace_corpus_is_drawn_and_written_a_transaction_at_a_time():
    """Each transaction is drawn, and its line made, only when asked for;
    the manifest is whole when the corpus is returned, and holds no count
    of the entries, which a writer takes from the entries it writes."""
    corpus = fixtures.gen_trace_corpus(seed=3, n_transactions=4)
    manifest = dict(corpus.manifest)
    entries = []

    def drawn():
        for tx, entry in corpus.transactions:
            entries.append(entry)
            yield tx

    lines = serialize_transactions(drawn())
    first = next(lines)
    assert first.endswith("}\n") and first.count("\n") == 1
    assert len(entries) == 1
    rest = list(lines)
    assert len(rest) == 3
    assert len(entries) == 4
    assert corpus.manifest == manifest and manifest.keys().isdisjoint({"planted", "planted_cycles", "non_cycles"})
    assert list(serialize_transactions([])) == []


@settings(max_examples=100)
@given(txs=st.lists(strategies.transactions(), max_size=5))
def test_round_trip_property(txs):
    text = "".join(serialize_transactions(txs))
    assert list(iter_transactions(io.StringIO(text))) == txs


def test_parse_normalizes_whitespace_variants():
    corpus = fixtures.gen_trace_corpus(seed=3, n_transactions=5)
    canonical = "".join(serialize_transactions(tx for tx, _entry in corpus.transactions))
    import json

    loose_lines = [json.dumps(json.loads(line), indent=None, separators=(", ", ": ")) for line in canonical.splitlines()]
    loose = "\n\n".join(loose_lines) + "\n"
    assert "".join(serialize_transactions(iter_transactions(io.StringIO(loose)))) == canonical


def test_parse_preserves_event_order():
    transactions = [tx for tx, _entry in fixtures.gen_trace_corpus(seed=5, n_transactions=50).transactions]
    text = "".join(serialize_transactions(transactions))
    for original, parsed in zip(transactions, iter_transactions(io.StringIO(text))):
        assert [e.kind for e in parsed.events] == [e.kind for e in original.events]


def test_malformed_line_reports_line_number():
    good = "".join(serialize_transactions(tx for tx, _entry in fixtures.gen_trace_corpus(seed=1, n_transactions=1).transactions))
    stream = io.StringIO(good + "{not json\n")
    with pytest.raises(TraceParseError) as excinfo:
        list(iter_transactions(stream))
    assert excinfo.value.line_no == 2
    assert "line 2" in str(excinfo.value)


def test_blank_lines_are_skipped_and_counted():
    """A line of whitespace alone, with a CRLF end or none, holds no
    transaction but has a number."""
    good = "".join(serialize_transactions(tx for tx, _entry in fixtures.gen_trace_corpus(seed=1, n_transactions=2).transactions))
    first, second = good.splitlines(keepends=True)
    counts = Counter()
    spaced = ["\n", first, " \t\r\n", "\r\n", second, "  "]
    assert list(iter_transactions(spaced, counts)) == list(iter_transactions([first, second]))
    assert counts == {"transactions": 2}
    with pytest.raises(TraceParseError, match="^line 7: invalid JSON"):
        list(iter_transactions([*spaced[:-1], "\n", "{not json\n"]))


def swap_line(decimals, n=0) -> str:
    """A one-swap transaction from token 2n, which has the given decimals,
    to token 2n + 1."""
    token_in = {"symbol": f"T{2 * n}", "address": f"0x{2 * n:040x}", "decimals": decimals}
    token_out = {"symbol": f"T{2 * n + 1}", "address": f"0x{2 * n + 1:040x}", "decimals": 18}
    swap = {"kind": "swap", "pool": "0x" + "03" * 20, "token_in": token_in, "token_out": token_out, "amount_in": "1"}
    tx = {"hash": "0x" + "01" * 32, "block": 1, "from": "0x" + "02" * 20, "gas_used": 0, "gas_price": 0, "events": [swap]}
    return json.dumps(tx) + "\n"


@pytest.mark.parametrize("good, loose", [(1, True), (0, False), (18, 18.0)], ids=["true", "false", "float"])
def test_a_loose_repeat_of_a_good_token_reports_line_number(good, loose):
    """Equal tokens share one TokenId, but a repeat whose decimals only
    compare equal (True == 1, 18.0 == 18) is still checked and rejected."""
    with pytest.raises(TraceParseError, match="^line 2: decimals: expected an integer") as excinfo:
        list(iter_transactions([swap_line(good), swap_line(loose)]))
    assert excinfo.value.line_no == 2


def test_equal_tokens_in_one_stream_share_one_token_id():
    text = "".join(serialize_transactions(tx for tx, _entry in fixtures.gen_trace_corpus(seed=4, n_transactions=50).transactions))
    events = [event for tx in iter_transactions(io.StringIO(text)) for event in tx.events]
    tokens = [token for event in events for token in (event.token_in, event.token_out) if token is not None]
    assert len(tokens) > len(set(tokens)) > 1
    assert len({id(token) for token in tokens}) == len(set(tokens))


def test_a_stream_of_ever_new_tokens_holds_a_bounded_number():
    """Past MAX_SHARED_TOKENS distinct tokens none is kept, so a streamed parse
    of ever-new tokens holds no more of them however long it runs."""

    def live_tokens() -> int:
        return sum(type(obj) is TokenId for obj in gc.get_objects())

    before = live_tokens()
    transactions = iter_transactions(swap_line(18, n) for n in range(3 * MAX_SHARED_TOKENS))
    for _tx in islice(transactions, 3 * MAX_SHARED_TOKENS - 1):  # six times the bound, the parse still open
        pass
    assert live_tokens() - before <= MAX_SHARED_TOKENS + 2


def test_non_object_event_reports_line_number():
    good = "".join(serialize_transactions(tx for tx, _entry in fixtures.gen_trace_corpus(seed=1, n_transactions=1).transactions))
    bad = json.dumps({**json.loads(good), "events": ["x"]})
    with pytest.raises(TraceParseError) as excinfo:
        list(iter_transactions(io.StringIO(good + bad + "\n")))
    assert excinfo.value.line_no == 2
    assert "event: expected an object" in str(excinfo.value)


def test_missing_field_reports_line_number():
    with pytest.raises(TraceParseError) as excinfo:
        list(iter_transactions(io.StringIO('{"hash": "0x' + "00" * 32 + '"}\n')))
    assert excinfo.value.line_no == 1


def test_unknown_event_kind_skipped_with_counter():
    [(tx, _entry)] = fixtures.gen_trace_corpus(seed=2, n_transactions=1).transactions
    import json

    [line] = serialize_transactions([tx])
    obj = json.loads(line)
    obj["events"].insert(0, {"kind": "mint", "pool": "0x" + "00" * 20})
    counts = Counter()
    txs = list(iter_transactions(io.StringIO(json.dumps(obj) + "\n"), counts))
    assert counts == {"transactions": 1, "unknown_events": 1}
    assert len(txs) == 1
    assert len(txs[0].events) == len(tx.events)


@pytest.mark.parametrize("kind", [["swap"], {"swap": 1}, 5, None], ids=["array", "object", "number", "null"])
def test_an_event_kind_that_is_not_a_string_is_an_unknown_event(kind):
    [(tx, _entry)] = fixtures.gen_trace_corpus(seed=2, n_transactions=1).transactions
    obj = json.loads(next(serialize_transactions([tx])))
    obj["events"].insert(0, {"kind": kind, "pool": "0x" + "00" * 20})
    counts = Counter()
    [parsed] = iter_transactions([json.dumps(obj)], counts)
    assert counts == {"transactions": 1, "unknown_events": 1}
    assert parsed == tx


@given(tx=strategies.transactions())
def test_event_kind_invariants_hold_after_round_trip(tx):
    for event in tx.events:
        if event.kind is EventKind.SWAP:
            assert event.pool is not None and event.token_in != event.token_out
        if event.kind in (EventKind.TRANSFER, EventKind.INTERNAL):
            assert event.to is not None and event.amount is not None


def test_swap_event_requires_distinct_tokens():
    token = TokenId("AAA", bytes(20), 18)
    with pytest.raises(ValueError):
        TraceEvent(kind=EventKind.SWAP, pool=bytes(20), token_in=token, token_out=token, amount_in=1, amount_out=1)


def test_transfer_requires_to_and_amount():
    with pytest.raises(ValueError):
        TraceEvent(kind=EventKind.TRANSFER, to=bytes(20))


def test_token_decimals_bounded():
    with pytest.raises(ValueError):
        TokenId("AAA", bytes(20), 37)


def test_address_parsing_is_canonical():
    raw = parse_address("0xAbCd" + "00" * 18)
    assert format_address(raw) == "0xabcd" + "00" * 18
    with pytest.raises(ValueError):
        parse_address("0x1234")


@pytest.mark.parametrize("parse, size", [(parse_address, 20), (parse_tx_hash, 32)])
@pytest.mark.parametrize("text", ["0x{} {}", "0x{}\t{}", "{} {}", " 0x{}{}", "0x{}{}\n"])
def test_hex_is_digits_only(parse, size, text):
    half = "ab" * (size // 2)
    assert parse("0x" + half + half) == bytes.fromhex(half + half)
    with pytest.raises(ValueError):
        parse(text.format(half, half))


@pytest.mark.parametrize(
    "value, kind, digits, expected",
    [
        (-7, int, False, -7),
        ("-12", int, True, -12),
        ("007", int, True, 7),
        (2, float, False, 2.0),
        (0.1, float, False, 0.1),
        (3, Fraction, False, Fraction(3)),
        (0.1, Fraction, False, Fraction(1, 10)),
        ("600.50", Fraction, False, Fraction("600.50")),
        ("-1/3", Fraction, False, Fraction(-1, 3)),
        ("al", str, False, "al"),
        (False, bool, False, False),
        ([1], list, False, [1]),
        ({}, dict, False, {}),
        ("swap", EventKind, False, EventKind.SWAP),
    ],
)
def test_read_json_reads_the_value_grammar(value, kind, digits, expected):
    read = read_json(value, "key", kind, digits)
    assert read == expected and type(read) is type(expected)


@pytest.mark.parametrize(
    "value, kind, digits",
    [
        (True, int, True),
        (5.0, int, False),
        ("5", int, False),
        *(
            (text, int, True)
            for text in ("+5", " 5", "5 ", "5_000", "\u0661\u0662", "1e3", "0x10", "5.0", "", "-", "5\n")
        ),
        (True, float, False),
        ("0.5", float, False),
        *(
            (text, Fraction, False)
            for text in ("1e3", "1E3", "+1", ".5", "5.", "1/0", "1 /2", "inf", "nan", "1_0", "\u0661", "")
        ),
        (float("inf"), Fraction, False),
        (float("nan"), Fraction, False),
        (True, Fraction, False),
        ("al\ud800", str, False),
        (5, str, False),
        (0, bool, False),
        ("true", bool, False),
        ([], dict, False),
        ({}, list, False),
        ("SWAP", EventKind, False),
        (1, EventKind, False),
    ],
)
def test_read_json_rejects_all_else_naming_the_key(value, kind, digits):
    with pytest.raises(ValueError, match="^key: expected "):
        read_json(value, "key", kind, digits)


# -- the canonical line against json.dumps --------------------------------


def reference_line(tx: Transaction) -> str:
    """tx's canonical line as json.dumps writes it from one dict per event,
    the form the serializer was built on before it used format strings."""

    def token(t: TokenId) -> dict:
        return {"symbol": t.symbol, "address": format_address(t.address), "decimals": t.decimals}

    def event(e: TraceEvent) -> dict:
        obj: dict = {"kind": e.kind.value}
        if e.pool is not None:
            obj["pool"] = format_address(e.pool)
        if e.token_in is not None:
            obj["token_in"] = token(e.token_in)
        if e.token_out is not None:
            obj["token_out"] = token(e.token_out)
        if e.amount_in:
            obj["amount_in"] = str(e.amount_in)
        if e.amount_out:
            obj["amount_out"] = str(e.amount_out)
        if e.to is not None:
            obj["to"] = format_address(e.to)
        if e.amount is not None:
            obj["amount"] = str(e.amount)
        if e.pool_sink:
            obj["pool_sink"] = True
        return obj

    obj = {
        "hash": format_address(tx.hash),
        "block": tx.block_number,
        "from": format_address(tx.initiator),
        "gas_used": tx.gas_used,
        "gas_price": tx.gas_price,
        "events": [event(e) for e in tx.events],
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


@st.composite
def any_events(draw, tokens):
    """Any event the types allow: a swap's or a transfer's own fields, each
    other field present or not, zero amounts, and pool_sink with or without
    an amount."""
    kind = draw(st.sampled_from(EventKind))
    swap, moves = kind is EventKind.SWAP, kind in (EventKind.TRANSFER, EventKind.INTERNAL)
    token_in = draw(tokens if swap else st.none() | tokens)
    return TraceEvent(
        kind=kind,
        pool=draw(strategies.addresses if swap else st.none() | strategies.addresses),
        token_in=token_in,
        token_out=draw(tokens.filter(lambda t: t != token_in) if swap else st.none() | tokens),
        amount_in=draw(strategies.AMOUNTS),
        amount_out=draw(strategies.AMOUNTS),
        to=draw(strategies.addresses if moves else st.none() | strategies.addresses),
        amount=draw(strategies.AMOUNTS if moves else st.none() | strategies.AMOUNTS),
        pool_sink=draw(st.booleans()),
    )


@st.composite
def transactions_sharing_symbols(draw):
    """Transactions over a few symbols, so that tokens which share a symbol
    but differ in address or decimals meet in one stream."""
    symbols = draw(st.lists(strategies.escaped_text, min_size=1, max_size=3))
    tokens = st.builds(
        TokenId,
        symbol=st.sampled_from(symbols),
        address=st.sampled_from([b"\x00" * 20, b"\xff" * 20]) | strategies.addresses,
        decimals=st.sampled_from([0, 18]) | st.integers(min_value=0, max_value=36),
    )
    return draw(st.lists(strategies.transactions(events_strategy=any_events(tokens)), max_size=4))


_SAME_SYMBOL = [TokenId('W"\\\x01\u00e9\ud800', address, decimals) for address, decimals in [(b"\x01" * 20, 18), (b"\x02" * 20, 18), (b"\x01" * 20, 6)]]


@settings(max_examples=150, deadline=None)
@given(txs=transactions_sharing_symbols())
@example(
    txs=[
        Transaction(
            hash=b"\x03" * 32,
            block_number=0,
            initiator=b"\x04" * 20,
            events=(
                TraceEvent(EventKind.SWAP, pool=b"\x05" * 20, token_in=_SAME_SYMBOL[0], token_out=_SAME_SYMBOL[1]),
                TraceEvent(EventKind.SWAP, pool=b"\x05" * 20, token_in=_SAME_SYMBOL[2], token_out=_SAME_SYMBOL[0],
                           amount_in=7, pool_sink=True),
                TraceEvent(EventKind.SWAP, pool=b"\x06" * 20, token_in=_SAME_SYMBOL[1], token_out=_SAME_SYMBOL[2],
                           amount_out=9, amount=0, pool_sink=True),
                TraceEvent(EventKind.TRANSFER, to=b"\x07" * 20, amount=0, token_out=_SAME_SYMBOL[2]),
                TraceEvent(EventKind.INTERNAL, to=b"\x07" * 20, amount=0),
                TraceEvent(EventKind.SYNC, pool=b"\x06" * 20),
            ),
            gas_used=0,
            gas_price=0,
        )
    ]
)
def test_lines_equal_json_dumps_of_dicts(txs):
    """Each line is what compact json.dumps writes from the transaction's
    fields, escapes included, even where tokens share a symbol."""
    assert list(serialize_transactions(txs)) == [reference_line(tx) for tx in txs]


def test_a_token_freed_after_its_line_lends_its_id_no_text():
    """Each transaction holds a fresh token that is freed once its line is
    taken, so a later token can have a freed one's id; the memo holds every
    token it keys by id, so no line takes another token's text."""

    def transfer(n: int) -> Transaction:
        token = TokenId(f"T{n}", n.to_bytes(20, "big"), n % 37)
        return Transaction(n.to_bytes(32, "big"), n, b"\x01" * 20, (TraceEvent(EventKind.TRANSFER, to=b"\x02" * 20, amount=n, token_out=token),), 0, 0)

    ids = []

    def fresh(count: int) -> Iterator[Transaction]:
        for n in range(count):
            tx = transfer(n)
            ids.append(id(tx.events[0].token_out))
            yield tx

    count = MAX_SHARED_TOKENS + 500
    for n, line in enumerate(serialize_transactions(fresh(count))):
        assert line == reference_line(transfer(n))
    assert len(set(ids)) < count  # ids were taken again past the memo's bound, so the hazard was live


WORKED_EXAMPLE = json.loads((DATA / "worked_example_trace.ndjson").read_text())


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(strategies.json_paths(WORKED_EXAMPLE))), value=strategies.json_values)
@example(path=("events", 0, "token_in", "symbol"), value="US\ud800")
@example(path=("events", 0, "amount_in"), value="+5")
@example(path=(), value="abc")
@example(path=("events", 0, "kind"), value=["swap"])
def test_any_json_value_at_any_trace_field_parses_or_is_a_parse_error(path, value):
    line = json.dumps(strategies.replaced(WORKED_EXAMPLE, path, value))
    try:
        txs = list(iter_transactions([line]))
    except TraceParseError as exc:
        assert exc.line_no == 1
        assert not isinstance(exc.__cause__, TypeError)  # a fault is named by the readers' rules, not by Python's
    else:
        assert len(txs) == 1
        "".join(serialize_transactions(txs)).encode("utf-8")  # whatever parses can be written out


# -- labels -----------------------------------------------------------------


def test_builder_registry_lookup_by_address():
    with open(DATA / "builder_labels.csv", encoding="utf-8") as fh:
        labels = read_labels(fh)
    found = labels.get(parse_address("0x487e5dfe70119c1b320b8219b190a6fa95a5bb48"))
    assert found is not None
    assert found.brand == "48Club"
    assert found.instance_name == "48Club-puissant-1"


def test_unlabeled_address_returns_none():
    labels = read_labels(io.StringIO("brand,instance,address\nX,x-1,0x" + "00" * 20 + "\n"))
    assert labels.get(bytes([7]) * 20) is None


def test_duplicate_address_across_brands_fails_at_load():
    addr = "0x" + "09" * 20
    text = f"brand,instance,address\nA,a-1,{addr}\nB,b-1,{addr}\n"
    with pytest.raises(LabelFileError, match=f"^line 3: address {addr} labeled under both 'A' and 'B'$"):
        read_labels(io.StringIO(text))


def test_label_file_skips_blank_rows_and_counts_them():
    """An empty line and a row of blank cells hold no label but have a
    line number."""
    addr = "0x" + "09" * 20
    labels = read_labels(io.StringIO(f"brand,instance,address\n\nA,a-1,{addr}\n , ,\t\n"))
    assert [(label.brand, label.instance_name, format_address(label.address)) for label in labels.values()] == [("A", "a-1", addr)]
    with pytest.raises(LabelFileError, match=f"^line 5: address {addr} labeled under both 'A' and 'B'$"):
        read_labels(io.StringIO(f"brand,instance,address\n\nA,a-1,{addr}\n , ,\t\nB,b-1,{addr}\n"))


def test_label_csv_requires_header():
    with pytest.raises(LabelFileError, match="^line 1: "):
        read_labels(io.StringIO("A,a-1,0x" + "00" * 20 + "\n"))


# -- path descriptors ---------------------------------------------------------


def test_path_descriptor_lengths_and_cycle_flag():
    a = TokenId("AAA", bytes(20), 18)
    b = TokenId("BBB", bytes([1]) * 20, 18)
    descriptor = PathDescriptor(tokens=(a, b, a), pools=(bytes(20), bytes([1]) * 20))
    assert descriptor.n_hops == 2 and descriptor.is_cycle
    open_path = PathDescriptor(tokens=(a, b), pools=(bytes(20),))
    assert not open_path.is_cycle
    with pytest.raises(ValueError):
        PathDescriptor(tokens=(a, b, a), pools=(bytes(20),))
