"""In-memory model for decoded execution traces.

Trace files are newline-delimited JSON, one object per transaction.
Token amounts travel as decimal strings and are held as arbitrary-precision
ints (EVM quantities overflow 64-bit), addresses as raw 20-byte values.
Parsing preserves event order; serialization is canonical (fixed key order,
no padding, json's escapes), so parse followed by serialize is a normalizing
round trip.  Lines are built from format strings; only a token's symbol goes
through json.dumps, once per token object.
The transactions of one parsed stream share one TokenId per distinct token
(up to MAX_SHARED_TOKENS distinct tokens).

The token, event, transaction, label and path types are Frozen value
types: immutable namedtuples, each checked as it is built, safe to share
across threads.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter, namedtuple
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import IO, Iterable, Iterator, Mapping, Optional

ADDRESS_LEN = 20
HASH_LEN = 32
MAX_TOKEN_DECIMALS = 36


class LineError(ValueError):
    """A fault in a line-oriented input file, named by its 1-based line
    number (``unit`` names what is counted)."""

    unit = "line"

    def __init__(self, line_no: int, message: str):
        super().__init__(f"{self.unit} {line_no}: {message}")
        self.line_no, self.message = line_no, message


class ConfigError(ValueError):
    """Invalid scenario or agent configuration; str() joins its messages, one per fault, with "; "."""

    def __str__(self) -> str:
        return "; ".join(map(str, self.args))


class TraceParseError(LineError):
    """Malformed trace record."""


class LabelFileError(LineError):
    """Malformed label file."""


def read_lines(stream: IO | Iterable[str | bytes], error: type[LineError] = LineError) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of a stream of text, or of bytes
    read strictly as UTF-8; an undecodable line raises error."""
    for line_no, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(line_no, f"not UTF-8: {exc}") from None
        yield line_no, line


_NUMBER_TEXT = {
    Fraction: re.compile(r"-?[0-9]+(?:\.[0-9]+|/[0-9]+)?"),
    Decimal: re.compile(r"-?[0-9]+(?:\.[0-9]+)?"),
}
_KIND_NAMES = {
    int: "an integer", bool: "a boolean", float: "a number", Fraction: "a number", Decimal: "a decimal number",
    str: "a string", dict: "an object", list: "an array",
}


def read_json(value, key: str, kind: type, digits: bool = False):
    """An outside value read strictly as kind, or ValueError naming key.

    Booleans are never numbers.  An int is a JSON integer or, with digits
    (for formats that carry text), ASCII digits with at most a leading
    minus; a float any JSON number; a Fraction any JSON number (a float as
    its exact shortest decimal) or text ``-D``, ``-D.D`` or ``-D/D`` with the
    minus optional and no exponent; a Decimal only text ``-D`` or ``-D.D``;
    a str any string that is valid Unicode (no lone surrogate, escaped as
    "\\ud800"); an Enum one of its values.
    """
    if type(value) is kind and (kind is not str or value.isascii()):
        return value
    reason = ""
    try:
        if type(value) is str:
            if kind is str:
                value.encode("utf-8")  # a lone surrogate could not be written out
                return value
            if kind is int and digits and value.isascii() and value.removeprefix("-").isdigit():
                return int(value)
            if kind in _NUMBER_TEXT and _NUMBER_TEXT[kind].fullmatch(value):
                return kind(value)
            if issubclass(kind, Enum):
                return kind(value)
        elif type(value) is int and kind in (float, Fraction):
            return kind(value)
        elif type(value) is float and kind is Fraction:
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # UnicodeEncodeError is a ValueError
        reason = f" ({exc})"
    if issubclass(kind, Enum):
        expected = " or ".join(repr(m.value) for m in kind)
    else:
        expected = "an integer or a digit string" if kind is int and digits else _KIND_NAMES[kind]
    raise ValueError(f"{key}: expected {expected}, got {value!r:.40}{reason}")


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are distinct strings without a lone
    surrogate (``object_pairs_hook`` for files edited by hand); json alone
    keeps a repeated key's last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r:.40}")
        obj[read_json(key, "object key", str)] = value
    return obj


def _parse_hex(text, length: int, what: str) -> bytes:
    """length bytes from hex digits with an optional 0x prefix."""
    if type(text) is not str:
        raise ValueError(f"{what} must be a hex string, got {text!r:.40}")
    digits = text.removeprefix("0x")
    raw = bytes.fromhex(digits)
    if len(digits) != 2 * len(raw):  # fromhex skips whitespace between pairs
        raise ValueError(f"{what} must be hex digits only, got {text!r:.40}")
    if len(raw) != length:
        raise ValueError(f"{what} must be {length} bytes, got {len(raw)}")
    return raw


def parse_address(text: str) -> bytes:
    return _parse_hex(text, ADDRESS_LEN, "address")


def parse_tx_hash(text: str) -> bytes:
    return _parse_hex(text, HASH_LEN, "tx hash")


def format_address(raw: bytes) -> str:
    """0x-prefixed lowercase hex of an address or a tx hash."""
    return "0x" + raw.hex()


class EventKind(Enum):
    SWAP = "swap"
    SYNC = "sync"
    TRANSFER = "transfer"
    INTERNAL = "internal"


def _run_check(self, *_args, **_kwargs) -> None:
    self._check()


class _FrozenType(type):
    """Builds a class whose body annotates fields on a namedtuple of them,
    with the defaults the body gives them (taken out of the namespace, so
    no class attribute shadows a field), as typing.NamedTuple does; a class
    that annotates nothing is built as written.  A body that defines
    ``_check(self)`` gets an ``__init__`` that calls it, so each instance is
    checked once it is built; a class without one pays no call.  Every
    class gets ``__slots__ = ()``."""

    def __new__(mcls, name, bases, ns):
        fields = list(ns.get("__annotations__", ()))
        defaulted = [field for field in fields if field in ns]
        if defaulted != fields[len(fields) - len(defaulted):]:
            raise TypeError(f"{name}: a field without a default follows one with a default")
        if fields:
            defaults = [ns.pop(field) for field in defaulted]
            bases += (namedtuple(name, fields, defaults=defaults, module=ns["__module__"]),)
        if "_check" in ns:
            ns["__init__"] = _run_check
        ns["__slots__"] = ()
        return super().__new__(mcls, name, bases, ns)


class Frozen(metaclass=_FrozenType):
    """The base of the package's value types, each one class whose body
    annotates its fields, defaults included (``class T(Frozen):``), and
    states its rules, if it has any, in ``_check(self)``, which raises on a
    fault.  Every construction runs the check: a call to the type, ``_make``
    (which builds through ``cls(...)``, where the stock one calls
    ``tuple.__new__``) and so the stock ``_replace``, which calls ``_make``.
    A type defines ``__new__`` only to normalize its inputs.  A field can
    be neither set nor deleted.  An instance equals only an instance of its
    own type with equal fields, never a bare tuple, and hashes as
    ``hash(tuple(self))``."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(**dict(zip(cls._fields, iterable, strict=True)))


class TokenId(Frozen):
    """A token: display symbol, contract address, base-unit scale."""

    symbol: str
    address: bytes
    decimals: int

    def _check(self) -> None:
        if len(self.address) != ADDRESS_LEN:  # a library contract: parse_address reads 20 bytes
            raise ValueError("token address must be 20 bytes")
        if not 0 <= self.decimals <= MAX_TOKEN_DECIMALS:
            raise ValueError("token decimals out of range")


class TraceEvent(Frozen):
    """One decoded event inside a transaction; its position in
    ``Transaction.events`` is its order of execution.

    Field usage is kind-specific: swaps carry pool/token_in/token_out and
    the in/out amounts; transfers and internal txns carry to/amount.
    ``pool_sink`` marks a swap that routes surplus into the pool itself,
    in which case ``amount`` holds the routed surplus.
    """

    kind: EventKind
    pool: Optional[bytes] = None
    token_in: Optional[TokenId] = None
    token_out: Optional[TokenId] = None
    amount_in: int = 0
    amount_out: int = 0
    to: Optional[bytes] = None
    amount: Optional[int] = None
    pool_sink: bool = False

    def _check(self) -> None:
        if self.amount_in < 0 or self.amount_out < 0:
            raise ValueError("amounts must be non-negative")
        if self.amount is not None and self.amount < 0:
            raise ValueError("amount must be non-negative")
        if self.kind is EventKind.SWAP:
            if self.pool is None or self.token_in is None or self.token_out is None:
                raise ValueError("swap requires pool, token_in and token_out")
            if self.token_in == self.token_out:
                raise ValueError("swap token_in must differ from token_out")
        elif self.kind in (EventKind.TRANSFER, EventKind.INTERNAL):
            if self.to is None or self.amount is None:
                raise ValueError(f"{self.kind.value} requires to and amount")
        for addr in (self.pool, self.to):
            if addr is not None and len(addr) != ADDRESS_LEN:  # a library contract: parse_address reads 20 bytes
                raise ValueError("event address must be 20 bytes")


class Transaction(Frozen):
    hash: bytes
    block_number: int
    initiator: bytes
    events: tuple[TraceEvent, ...]  # any iterable of events, held as a tuple
    gas_used: int
    gas_price: int

    def __new__(cls, *args, **kwargs):
        tx = super().__new__(cls, *args, **kwargs)
        return tx if type(tx.events) is tuple else super().__new__(cls, **{**tx._asdict(), "events": tuple(tx.events)})

    def _check(self) -> None:
        if len(self.hash) != HASH_LEN:  # a library contract: parse_tx_hash reads 32 bytes
            raise ValueError("tx hash must be 32 bytes")
        if len(self.initiator) != ADDRESS_LEN:  # a library contract: parse_address reads 20 bytes
            raise ValueError("initiator must be 20 bytes")
        if self.block_number < 0 or self.gas_used < 0 or self.gas_price < 0:
            raise ValueError("block number and gas fields must be non-negative")

    @property
    def gas_cost(self) -> int:
        """Total gas cost in wei (exact, Python ints do not overflow)."""
        return self.gas_used * self.gas_price


class BuilderLabel(Frozen):
    brand: str
    instance_name: str
    address: bytes

    def _check(self) -> None:
        if len(self.address) != ADDRESS_LEN:
            raise ValueError("builder address must be 20 bytes")


class PathDescriptor(Frozen):
    """A multi-hop route: a traced cycle, or a path to run on pools.

    Hop i swaps ``tokens[i]`` for ``tokens[i + 1]`` in ``pools[i]``, so
    ``tokens`` has one more entry than ``pools``.  A hop's pool kind (V2 or
    V3) and direction (which pool token goes in) belong to the pool itself
    and are read from the pool map when the route runs.  Either field may
    be given as any iterable; each is held as a tuple.
    """

    tokens: tuple[TokenId, ...]
    pools: tuple[bytes, ...]

    def __new__(cls, *args, **kwargs):
        path = super().__new__(cls, *args, **kwargs)
        if type(path.tokens) is tuple and type(path.pools) is tuple:
            return path
        return super().__new__(cls, tokens=tuple(path.tokens), pools=tuple(path.pools))

    def _check(self) -> None:
        n = len(self.pools)
        if n < 1:  # a library contract: every cycle the package builds has two hops or more
            raise ValueError("descriptor needs at least one hop")
        if len(self.tokens) != n + 1:
            raise ValueError("descriptor length mismatch: need n+1 tokens for n pools")

    @property
    def n_hops(self) -> int:
        return len(self.pools)

    @property
    def is_cycle(self) -> bool:
        return self.tokens[0] == self.tokens[-1]


# ---------------------------------------------------------------------------
# newline-delimited JSON trace format


_KIND_BY_NAME = {k.value: k for k in EventKind}


def token_to_obj(token: TokenId) -> dict:
    return {"symbol": token.symbol, "address": format_address(token.address), "decimals": token.decimals}


def token_from_obj(obj: Mapping) -> TokenId:
    obj = read_json(obj, "token", dict)
    symbol = read_json(obj["symbol"], "symbol", str)
    return TokenId(symbol=symbol, address=parse_address(obj["address"]), decimals=read_json(obj["decimals"], "decimals", int))


# One stream's token memo, read or written, keeps at most this many tokens
# (about 1.6 MB); past them a new token is parsed or formatted at each
# mention, so a stream of ever-new tokens holds no more.
MAX_SHARED_TOKENS = 4096


def _shared_token(obj, tokens: dict[tuple[str, str, int], TokenId]) -> TokenId:
    """token_from_obj(obj), the same TokenId for each equal token object
    kept in tokens.  Only exactly str, str and int values key it: True == 1
    == 1.0 hash alike, so a looser key would let "decimals": true or 18.0
    past token_from_obj's check once a good token had been read."""
    if type(obj) is dict:
        key = obj.get("symbol"), obj.get("address"), obj.get("decimals")
        if type(key[0]) is str and type(key[1]) is str and type(key[2]) is int:
            token = tokens.get(key)
            if token is None:
                token = token_from_obj(obj)
                if len(tokens) < MAX_SHARED_TOKENS:
                    tokens[key] = token
            return token
    return token_from_obj(obj)


def _event_from_obj(obj: Mapping, tokens: dict) -> TraceEvent:
    return TraceEvent(  # by position, in TraceEvent's field order: faster than by keyword
        _KIND_BY_NAME[obj["kind"]],
        parse_address(obj["pool"]) if "pool" in obj else None,
        _shared_token(obj["token_in"], tokens) if "token_in" in obj else None,
        _shared_token(obj["token_out"], tokens) if "token_out" in obj else None,
        read_json(obj["amount_in"], "amount_in", int, digits=True) if "amount_in" in obj else 0,
        read_json(obj["amount_out"], "amount_out", int, digits=True) if "amount_out" in obj else 0,
        parse_address(obj["to"]) if "to" in obj else None,
        read_json(obj["amount"], "amount", int, digits=True) if "amount" in obj else None,
        read_json(obj["pool_sink"], "pool_sink", bool) if "pool_sink" in obj else False,
    )


def _transaction_from_obj(obj, line_no: int, counts: Counter[str], tokens: dict) -> Transaction:
    try:
        obj = read_json(obj, "transaction", dict)
        events = []
        for raw in read_json(obj["events"], "events", list):
            kind = read_json(raw, "event", dict).get("kind")
            if type(kind) is not str or kind not in _KIND_BY_NAME:
                counts["unknown_events"] += 1
                continue
            events.append(_event_from_obj(raw, tokens))
        return Transaction(  # by position, as _event_from_obj builds
            parse_tx_hash(obj["hash"]),
            read_json(obj["block"], "block", int),
            parse_address(obj["from"]),
            tuple(events),
            read_json(obj["gas_used"], "gas_used", int),
            read_json(obj["gas_price"], "gas_price", int),
        )
    except KeyError as exc:  # its str is only the quoted key
        raise TraceParseError(line_no, f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise TraceParseError(line_no, str(exc)) from exc


def iter_transactions(stream: IO | Iterable[str | bytes], counts: Counter[str] | None = None) -> Iterator[Transaction]:
    """Yield transactions from a newline-delimited trace stream in input order.
    Lines are text, or bytes read strictly as UTF-8.  Equal token objects
    parse to one shared TokenId, for the first MAX_SHARED_TOKENS distinct
    tokens of the stream.  Two counts are added to counts: "transactions",
    one per transaction yielded, and "unknown_events", one per event of an
    unknown kind, which is skipped (its transaction is kept without it)
    rather than failing the file."""
    counts = Counter() if counts is None else counts
    tokens: dict[tuple[str, str, int], TokenId] = {}
    for line_no, line in read_lines(stream, TraceParseError):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, past int's digit limit or nested too deep
            raise TraceParseError(line_no, f"invalid JSON: {exc}") from exc
        tx = _transaction_from_obj(obj, line_no, counts, tokens)
        counts["transactions"] += 1
        yield tx


def serialize_transactions(transactions: Iterable[Transaction]) -> Iterator[str]:
    """One canonical NDJSON line, newline included, per transaction, made
    as the transaction is taken; "".join(...) is the whole file.  Each line
    is what compact json.dumps of its fields writes, byte for byte.  A
    token's text is made once per distinct token (up to MAX_SHARED_TOKENS);
    a shared token object is found by identity, its fields uncompared."""
    fragments: dict[TokenId, str] = {}

    def token_text(token: TokenId) -> str:
        text = fragments.get(token)
        if text is None:
            text = json.dumps(token_to_obj(token), separators=(",", ":"))
            if len(fragments) < MAX_SHARED_TOKENS:
                fragments[token] = text
        return text

    for tx in transactions:
        events = []
        for event in tx.events:
            text = '{"kind":"' + event.kind._value_ + '"'  # _value_ skips the Enum value property
            if event.pool is not None:
                text += ',"pool":"0x' + event.pool.hex() + '"'
            if event.token_in is not None:
                text += ',"token_in":' + token_text(event.token_in)
            if event.token_out is not None:
                text += ',"token_out":' + token_text(event.token_out)
            if event.amount_in:
                text += ',"amount_in":"%d"' % event.amount_in
            if event.amount_out:
                text += ',"amount_out":"%d"' % event.amount_out
            if event.to is not None:
                text += ',"to":"0x' + event.to.hex() + '"'
            if event.amount is not None:
                text += ',"amount":"%d"' % event.amount
            if event.pool_sink:
                text += ',"pool_sink":true'
            events.append(text + "}")
        yield '{"hash":"0x%s","block":%d,"from":"0x%s","gas_used":%d,"gas_price":%d,"events":[%s]}\n' % (
            tx.hash.hex(), tx.block_number, tx.initiator.hex(), tx.gas_used, tx.gas_price, ",".join(events)
        )


# ---------------------------------------------------------------------------
# builder labels, a CSV file under this header
LABEL_HEADER = ["brand", "instance", "address"]


def read_labels(stream: IO | Iterable[str | bytes]) -> dict[bytes, BuilderLabel]:
    """Builder labels by address, from a CSV file whose lines are text, or
    bytes read strictly as UTF-8.  Any fault raises LabelFileError naming
    the line it is on: 1 for the header, the second occurrence for a
    repeated address."""
    reader = csv.reader(text for _line_no, text in read_lines(stream, LabelFileError))
    labels: dict[bytes, BuilderLabel] = {}
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != LABEL_HEADER:
            raise ValueError(f"label file must start with header: {','.join(LABEL_HEADER)}")
        for row in reader:
            if not row or not "".join(row).strip():
                continue
            if len(row) != 3:
                raise ValueError(f"label row must have 3 columns, got {row!r}")
            label = BuilderLabel(brand=row[0].strip(), instance_name=row[1].strip(), address=parse_address(row[2].strip()))
            if label.address in labels:
                other = labels[label.address]
                raise ValueError(f"address {format_address(label.address)} labeled under both {other.brand!r} and {label.brand!r}")
            labels[label.address] = label
    except LabelFileError:
        raise
    except (ValueError, csv.Error) as exc:
        raise LabelFileError(max(reader.line_num, 1), str(exc)) from exc
    return labels
