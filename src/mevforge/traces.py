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
types: immutable NamedTuples whose constructor checks their fields, safe
to share across threads.
"""

from __future__ import annotations

import csv
import json
import re
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Optional

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


class Frozen:
    """The base of the package's value types, each a NamedTuple subclass:
    ``class T(Frozen, _TFields)``, where ``_TFields(NamedTuple)`` declares
    the fields and T's ``__new__`` checks them.  A field can be neither set
    nor deleted.  An instance equals only an instance of its own type with
    equal fields, never a bare tuple, and hashes as ``hash(tuple(self))``.
    ``_make`` and ``_replace`` build through ``__new__``, so they run its
    checks (the stock ones call ``tuple.__new__``)."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(**dict(zip(cls._fields, iterable, strict=True)))

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self)), **changes})


class _TokenIdFields(NamedTuple):
    symbol: str
    address: bytes
    decimals: int


class TokenId(Frozen, _TokenIdFields):
    """A token: display symbol, contract address, base-unit scale."""

    __slots__ = ()

    def __new__(cls, symbol: str, address: bytes, decimals: int):
        if len(address) != ADDRESS_LEN:
            raise ValueError("token address must be 20 bytes")
        if not 0 <= decimals <= MAX_TOKEN_DECIMALS:
            raise ValueError("token decimals out of range")
        return tuple.__new__(cls, (symbol, address, decimals))


class _TraceEventFields(NamedTuple):
    kind: EventKind
    pool: Optional[bytes]
    token_in: Optional[TokenId]
    token_out: Optional[TokenId]
    amount_in: int
    amount_out: int
    to: Optional[bytes]
    amount: Optional[int]
    pool_sink: bool


class TraceEvent(Frozen, _TraceEventFields):
    """One decoded event inside a transaction; its position in
    ``Transaction.events`` is its order of execution.

    Field usage is kind-specific: swaps carry pool/token_in/token_out and
    the in/out amounts; transfers and internal txns carry to/amount.
    ``pool_sink`` marks a swap that routes surplus into the pool itself,
    in which case ``amount`` holds the routed surplus.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: EventKind,
        pool: Optional[bytes] = None,
        token_in: Optional[TokenId] = None,
        token_out: Optional[TokenId] = None,
        amount_in: int = 0,
        amount_out: int = 0,
        to: Optional[bytes] = None,
        amount: Optional[int] = None,
        pool_sink: bool = False,
    ):
        if amount_in < 0 or amount_out < 0:
            raise ValueError("amounts must be non-negative")
        if amount is not None and amount < 0:
            raise ValueError("amount must be non-negative")
        if kind is EventKind.SWAP:
            if pool is None or token_in is None or token_out is None:
                raise ValueError("swap requires pool, token_in and token_out")
            if token_in == token_out:
                raise ValueError("swap token_in must differ from token_out")
        elif kind in (EventKind.TRANSFER, EventKind.INTERNAL):
            if to is None or amount is None:
                raise ValueError(f"{kind.value} requires to and amount")
        for addr in (pool, to):
            if addr is not None and len(addr) != ADDRESS_LEN:
                raise ValueError("event address must be 20 bytes")
        return tuple.__new__(cls, (kind, pool, token_in, token_out, amount_in, amount_out, to, amount, pool_sink))


class _TransactionFields(NamedTuple):
    hash: bytes
    block_number: int
    initiator: bytes
    events: tuple[TraceEvent, ...]
    gas_used: int
    gas_price: int


class Transaction(Frozen, _TransactionFields):
    __slots__ = ()

    def __new__(
        cls, hash: bytes, block_number: int, initiator: bytes, events: Iterable[TraceEvent], gas_used: int, gas_price: int
    ):
        if len(hash) != HASH_LEN:
            raise ValueError("tx hash must be 32 bytes")
        if len(initiator) != ADDRESS_LEN:
            raise ValueError("initiator must be 20 bytes")
        if block_number < 0 or gas_used < 0 or gas_price < 0:
            raise ValueError("block number and gas fields must be non-negative")
        return tuple.__new__(cls, (hash, block_number, initiator, tuple(events), gas_used, gas_price))

    @property
    def gas_cost(self) -> int:
        """Total gas cost in wei (exact, Python ints do not overflow)."""
        return self.gas_used * self.gas_price


class _BuilderLabelFields(NamedTuple):
    brand: str
    instance_name: str
    address: bytes


class BuilderLabel(Frozen, _BuilderLabelFields):
    __slots__ = ()

    def __new__(cls, brand: str, instance_name: str, address: bytes):
        if len(address) != ADDRESS_LEN:
            raise ValueError("builder address must be 20 bytes")
        return tuple.__new__(cls, (brand, instance_name, address))


class _PathDescriptorFields(NamedTuple):
    tokens: tuple[TokenId, ...]
    pools: tuple[bytes, ...]


class PathDescriptor(Frozen, _PathDescriptorFields):
    """A multi-hop route: a traced cycle, or a path to run on pools.

    Hop i swaps ``tokens[i]`` for ``tokens[i + 1]`` in ``pools[i]``, so
    ``tokens`` has one more entry than ``pools``.  A hop's pool kind (V2 or
    V3) and direction (which pool token goes in) belong to the pool itself
    and are read from the pool map when the route runs.
    """

    __slots__ = ()

    def __new__(cls, tokens: Iterable[TokenId], pools: Iterable[bytes]):
        tokens, pools = tuple(tokens), tuple(pools)
        n = len(pools)
        if n < 1:
            raise ValueError("descriptor needs at least one hop")
        if len(tokens) != n + 1:
            raise ValueError("descriptor length mismatch: need n+1 tokens for n pools")
        return tuple.__new__(cls, (tokens, pools))

    @property
    def n_hops(self) -> int:
        return len(self.pools)

    @property
    def is_cycle(self) -> bool:
        return self.tokens[0] == self.tokens[-1]


# ---------------------------------------------------------------------------
# newline-delimited JSON trace format


class ParseStats:
    """Counters accumulated while parsing; unknown event kinds are skipped
    (the record is retained minus that event) rather than failing the file."""

    __slots__ = ("transactions", "unknown_events")

    def __init__(self, transactions: int = 0, unknown_events: int = 0) -> None:
        self.transactions, self.unknown_events = transactions, unknown_events

    def __repr__(self) -> str:
        return f"ParseStats(transactions={self.transactions!r}, unknown_events={self.unknown_events!r})"


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
    return TraceEvent(
        kind=_KIND_BY_NAME[obj["kind"]],
        pool=parse_address(obj["pool"]) if "pool" in obj else None,
        token_in=_shared_token(obj["token_in"], tokens) if "token_in" in obj else None,
        token_out=_shared_token(obj["token_out"], tokens) if "token_out" in obj else None,
        amount_in=read_json(obj["amount_in"], "amount_in", int, digits=True) if "amount_in" in obj else 0,
        amount_out=read_json(obj["amount_out"], "amount_out", int, digits=True) if "amount_out" in obj else 0,
        to=parse_address(obj["to"]) if "to" in obj else None,
        amount=read_json(obj["amount"], "amount", int, digits=True) if "amount" in obj else None,
        pool_sink=read_json(obj["pool_sink"], "pool_sink", bool) if "pool_sink" in obj else False,
    )


def _transaction_from_obj(obj: Mapping, line_no: int, stats: ParseStats, tokens: dict) -> Transaction:
    try:
        events = []
        for raw in read_json(obj["events"], "events", list):
            if read_json(raw, "event", dict).get("kind") not in _KIND_BY_NAME:
                stats.unknown_events += 1
                continue
            events.append(_event_from_obj(raw, tokens))
        return Transaction(
            hash=parse_tx_hash(obj["hash"]),
            block_number=read_json(obj["block"], "block", int),
            initiator=parse_address(obj["from"]),
            events=tuple(events),
            gas_used=read_json(obj["gas_used"], "gas_used", int),
            gas_price=read_json(obj["gas_price"], "gas_price", int),
        )
    except KeyError as exc:  # its str is only the quoted key
        raise TraceParseError(line_no, f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise TraceParseError(line_no, str(exc)) from exc


def iter_transactions(stream: IO | Iterable[str | bytes], stats: ParseStats | None = None) -> Iterator[Transaction]:
    """Yield transactions from a newline-delimited trace stream in input order.
    Lines are text, or bytes read strictly as UTF-8.  Equal token objects
    parse to one shared TokenId, for the first MAX_SHARED_TOKENS distinct
    tokens of the stream."""
    stats = stats if stats is not None else ParseStats()
    tokens: dict[tuple[str, str, int], TokenId] = {}
    for line_no, line in read_lines(stream, TraceParseError):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # not JSON, or an integer past int's digit limit
            raise TraceParseError(line_no, f"invalid JSON: {exc}") from exc
        tx = _transaction_from_obj(obj, line_no, stats, tokens)
        stats.transactions += 1
        yield tx


def serialize_transactions(transactions: Iterable[Transaction]) -> Iterator[str]:
    """One canonical NDJSON line, newline included, per transaction, made
    as the transaction is taken; "".join(...) is the whole file.  Each line
    is what compact json.dumps of its fields writes, byte for byte.  A
    token's text is made once per token object, so tokens shared as
    iter_transactions shares them are formatted once each."""
    # (token, its text) by id(token), for MAX_SHARED_TOKENS token objects:
    # an id hashes and compares without reading the token's fields, and the
    # entry holds its token so that no other object can take that id
    fragments: dict[int, tuple[TokenId, str]] = {}

    def token_text(token: TokenId) -> str:
        entry = fragments.get(id(token))
        if entry is None:
            entry = token, '{"symbol":%s,"address":"0x%s","decimals":%d}' % (json.dumps(token.symbol), token.address.hex(), token.decimals)
            if len(fragments) < MAX_SHARED_TOKENS:
                fragments[id(token)] = entry
        return entry[1]

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
# builder labels (CSV columns: brand,instance,address)


def read_labels(stream: IO | Iterable[str | bytes]) -> dict[bytes, BuilderLabel]:
    """Builder labels by address, from a CSV file whose lines are text, or
    bytes read strictly as UTF-8.  Any fault raises LabelFileError naming
    the line it is on: 1 for the header, the second occurrence for a
    repeated address."""
    reader = csv.reader(text for _line_no, text in read_lines(stream, LabelFileError))
    labels: dict[bytes, BuilderLabel] = {}
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["brand", "instance", "address"]:
            raise ValueError("label file must start with header: brand,instance,address")
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
