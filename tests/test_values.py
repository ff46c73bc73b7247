"""The value types' contract: every type built on traces.Frozen is an
immutable NamedTuple whose body states its fields once, defaults
included, and whose _check runs on every construction: a call by keyword
or by position, _replace and _make raise the same messages; an instance
equals neither a bare tuple nor an instance of another type with the same fields;
and hash(x) is hash(tuple(x)), the hash a frozen dataclass had, so no set
or dict order moves."""

import csv
import importlib
import io
import pkgutil
from decimal import Decimal
from fractions import Fraction

import pytest

import mevforge
from mevforge import analytics, config, pbs, pools, records, reports, traces
from mevforge.traces import EventKind, Frozen

ADDRESS, OTHER, HASH = b"\x01" * 20, b"\x02" * 20, b"\x03" * 32
WBNB, USDT = traces.TokenId("WBNB", ADDRESS, 18), traces.TokenId("USDT", OTHER, 6)
SWAP = traces.TraceEvent(EventKind.SWAP, pool=ADDRESS, token_in=WBNB, token_out=USDT, amount_in=5, amount_out=7)
BID = pbs.Bid("alpha", Fraction(20), 1, 3)
SCHEDULE = pbs.BidSchedule((BID,), ((BID, 0.0),))
OPPORTUNITY = pbs.OpportunityModel(peak_value=10**9, gas_floor=1000)

# one valid instance of each type, and for a type with checks, changes
# that fail one, with the error they raise
VALUES = {
    traces.TokenId: (WBNB, {"decimals": 37}, ValueError, "token decimals out of range"),
    traces.TraceEvent: (SWAP, {"token_out": WBNB}, ValueError, "swap token_in must differ from token_out"),
    traces.Transaction: (
        traces.Transaction(HASH, 50, ADDRESS, (SWAP,), 21_000, 1),
        {"gas_price": -1}, ValueError, "block number and gas fields must be non-negative",
    ),
    traces.BuilderLabel: (
        traces.BuilderLabel("48Club", "48club-1", ADDRESS), {"address": b"\x01"}, ValueError,
        "builder address must be 20 bytes",
    ),
    traces.PathDescriptor: (
        traces.PathDescriptor((WBNB, USDT, WBNB), (ADDRESS, OTHER)), {"tokens": (WBNB, USDT)}, ValueError,
        "descriptor length mismatch: need n+1 tokens for n pools",
    ),
    records.ArbitrageRecord: (
        records.ArbitrageRecord(HASH, 50, "48Club", "WBNB", 2, 10, 3, 1, 6, Decimal(6), Decimal(3), "1970-01-01T00:02:30Z"),
        {"net": 7}, ValueError, "record identity violated: net != gross - share - gas",
    ),
    config.RunConfig: (config.RunConfig(), {"alpha": Fraction(1)}, ValueError, "alpha must be in (0, 1)"),
    pools.PoolState: (
        pools.PoolState(ADDRESS, pools.PoolKind.V2, WBNB, USDT, 2500, reserve0=10**6, reserve1=10**6),
        {"fee_ppm": 10**6}, ValueError, "fee_ppm out of range",
    ),
    pools.ExecutionResult: (pools.ExecutionResult(delta=4, payout=1, kept=3, hop_amounts=(5, 9)), None, None, None),
    pbs.BuilderAgent: (
        pbs.BuilderAgent(id="alpha", latency_ms=Fraction(20)), {"latency_ms": Fraction(-1)}, pbs.ConfigError,
        "latency_ms: must be >= 0",
    ),
    pbs.OpportunityModel: (OPPORTUNITY, {"tail_value": 10**10}, pbs.ConfigError,
                           "tail_value: must be >= 0 and below gas_floor, unless 0; tail_value: must be <= peak_value"),
    pbs.Bid: (BID, {"offered_payment": 4}, ValueError, "insolvent bid: payment exceeds realized surplus"),
    pbs.ProposerConfig: (pbs.ProposerConfig(), {"count": 0}, pbs.ConfigError, "count: must be >= 1"),
    pbs.RelayConfig: (pbs.RelayConfig(), {"rebid_interval_ms": Fraction(0)}, pbs.ConfigError, "rebid_interval_ms: must be > 0"),
    pbs.SimScenario: (
        pbs.SimScenario(protocol=pbs.Protocol.BSC_DIRECT, opportunity=OPPORTUNITY),
        {"listen_window_ms": Fraction(-1)}, pbs.ConfigError, "listen_window_ms: must be >= 0",
    ),
    pbs.BidSchedule: (SCHEDULE, {"received": ()}, ValueError, "candidate bids must appear among received bids"),
    pbs.SlotOutcome: (pbs.SlotOutcome(0, "alpha", 1, (), SCHEDULE, 2), None, None, None),
    analytics.ShareRow: (analytics.ShareRow("48Club", 3, Fraction(3, 4)), None, None, None),
    analytics.ProposerSplit: (analytics.ProposerSplit(Fraction(3), Fraction(1), Fraction(1, 4)), None, None, None),
    analytics.TrendResult: (
        analytics.TrendResult(3, Fraction(11, 3), 1.5, Fraction(1), analytics.TrendDirection.NO_TREND, Fraction(1, 20)),
        None, None, None,
    ),
    analytics.PathComplexity: (analytics.PathComplexity({2: 1}, ((2, Fraction(1)),)), None, None, None),
    analytics.RiskScore: (analytics.RiskScore("USDT", 1, 1, 0, Fraction(2, 3)), None, None, None),
}
CHECKED = [kind for kind, (_value, changes, _error, _message) in VALUES.items() if changes is not None]


def test_every_value_type_is_listed():
    modules = [importlib.import_module(f"mevforge.{m.name}") for m in pkgutil.iter_modules(mevforge.__path__)]
    found = {
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Frozen) and hasattr(obj, "_fields") and obj.__module__ == module.__name__
    }
    assert found == set(VALUES)


@pytest.mark.parametrize("kind", VALUES, ids=lambda kind: kind.__name__)
def test_a_field_can_be_neither_set_nor_deleted(kind):
    value = VALUES[kind][0]
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1  # no __dict__ either


@pytest.mark.parametrize("kind", CHECKED, ids=lambda kind: kind.__name__)
def test_replace_and_make_run_the_constructor_checks(kind):
    value, changes, error, message = VALUES[kind]
    assert value._replace() == value
    assert kind._make(tuple(value)) == value
    with pytest.raises(error) as built:
        kind(**{**value._asdict(), **changes})
    with pytest.raises(error) as replaced:
        value._replace(**changes)
    with pytest.raises(error) as made:
        kind._make(tuple({**value._asdict(), **changes}.values()))
    assert str(built.value) == str(replaced.value) == str(made.value) == message
    if kind is not pbs.SimScenario:  # its fields are keyword-only
        with pytest.raises(error) as positional:
            kind(*{**value._asdict(), **changes}.values())
        assert str(positional.value) == message


@pytest.mark.parametrize(
    "kind, args, kwargs",
    [
        pytest.param(traces.TraceEvent, (EventKind.SYNC,), {}, id="TraceEvent"),
        pytest.param(pools.PoolState, (ADDRESS, pools.PoolKind.V3, WBNB, USDT, 500), {"liquidity": 1, "sqrt_price_x96": 1},
                     id="PoolState"),
    ],
)
def test_defaults_are_declared_once_in_the_body(kind, args, kwargs):
    """Each default is the body's, so _field_defaults names every field
    after the required ones (args), and a call that leaves some out builds
    what _make builds with them filled in from _field_defaults."""
    assert tuple(kind._field_defaults) == kind._fields[len(args):]
    filled = {**dict(zip(kind._fields, args)), **kind._field_defaults, **kwargs}
    assert kind(*args, **kwargs) == kind._make(filled.values())


@pytest.mark.parametrize("kind", VALUES, ids=lambda kind: kind.__name__)
def test_an_instance_equals_only_its_own_type(kind):
    value = VALUES[kind][0]
    twin_type = type("Twin", (Frozen, kind.__mro__[-3]), {"__slots__": ()})  # the same NamedTuple fields
    twin = tuple.__new__(twin_type, value)
    assert tuple(twin) == tuple(value)
    for other in (tuple(value), twin):
        assert value != other and other != value
        assert not value == other and not other == value
    assert value == kind._make(tuple(value)) and not value != kind._make(tuple(value))


@pytest.mark.parametrize("kind", VALUES, ids=lambda kind: kind.__name__)
def test_an_instance_hashes_as_the_tuple_of_its_fields(kind):
    value = VALUES[kind][0]
    try:
        expected = hash(tuple(value))
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


def test_a_body_declares_fields_as_typing_namedtuple_does():
    """The fields a body annotates, in order, each default taken from the
    namespace so that no class attribute shadows its field; a field without
    a default may not follow one with a default."""

    class Pair(Frozen):
        first: int
        second: int = 0

    assert Pair._fields == ("first", "second") and Pair(1, 2).second == 2 and Pair(1) == Pair(1, 0)
    assert "second" not in vars(Pair)
    with pytest.raises(TypeError, match="^Misordered: a field without a default follows one with a default$"):

        class Misordered(Frozen):
            first: int = 0
            second: int


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: traces.TokenId("WBNB", b"\x01", 18), "token address must be 20 bytes", id="token-address"),
        pytest.param(lambda: SWAP._replace(pool=b"\x01"), "event address must be 20 bytes", id="event-pool"),
        pytest.param(
            lambda: traces.TraceEvent(EventKind.TRANSFER, to=b"\x01" * 21, amount=1), "event address must be 20 bytes", id="event-to"
        ),
        pytest.param(lambda: traces.Transaction(b"\x03", 50, ADDRESS, (), 0, 0), "tx hash must be 32 bytes", id="tx-hash"),
        pytest.param(lambda: traces.Transaction(HASH, 50, b"\x01", (), 0, 0), "initiator must be 20 bytes", id="initiator"),
        pytest.param(lambda: traces.PathDescriptor((WBNB,), ()), "descriptor needs at least one hop", id="no-hop"),
    ],
)
def test_a_check_no_file_reaches_names_its_fault(build, message):
    """The library contracts of the trace types: parse_address and
    parse_tx_hash read whole addresses and hashes, and every cycle the
    package builds has two hops or more, so no input file reaches these."""
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_the_slot_log_writes_what_a_writer_per_row_writes():
    """Outcomes that differ only in height share one memoized row text;
    builder ids that hold a comma, a quote and a newline are quoted as the
    csv module quotes them."""
    odd = 'a,"b\nc'
    bid = pbs.Bid(odd, Fraction(1), 2, 3)
    schedule = pbs.BidSchedule((bid, pbs.Bid("x", Fraction(2), 0, 0)), ((bid, 0.5),))
    kinds = [  # (winner, payment, blacklist events, profit), each repeated at four heights
        (odd, 2, (), 1),
        (None, 0, (odd, 'q"'), 0),
        (odd, 2, ("x\n",), 1),
    ]
    outcomes = []
    for height in range(12):
        winner, payment, events, profit = kinds[height % len(kinds)]
        outcomes.append(pbs.SlotOutcome(height, winner, payment, events, schedule, profit))
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(
        ["height", "winner", "proposer_payment", "fallback", "bids", "blacklist_events", "realized_builder_profit"]
    )
    for o in outcomes:
        writer.writerow(
            [o.height, o.winner or "", o.proposer_payment, int(o.winner is None), len(o.schedule.received),
             "|".join(o.blacklist_events), o.realized_builder_profit]
        )
    written = io.StringIO()
    reports.write_slot_log(written, outcomes)
    assert written.getvalue() == reference.getvalue()
    assert '"a,""b\nc"' in written.getvalue()
