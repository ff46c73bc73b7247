"""Per-cycle arbitrage records and their versioned CSV schema.

The file starts with a ``schema_version`` row so later alignment with an
externally published schema stays detectable, then a header row, then one
row per cycle.  The base-unit identity net = gross - share - gas must hold
on every row and is revalidated on load.  The dollar columns (``usd_value``
for net, ``share_usd`` for share) are fixed when the record is built, with
the token's real decimals; analytics only sum them.  They are ``Decimal``s,
which always have an exact decimal text, computed only in ``EXACT``.
"""

from __future__ import annotations

import csv
import re
from datetime import datetime, timezone
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from itertools import repeat
from typing import IO, Iterable, Iterator, get_type_hints

from .traces import Frozen, LineError, format_address, parse_tx_hash, read_json, read_lines

SCHEMA_VERSION = "2"
BLOCK_INTERVAL_S = 3  # seconds per BSC block; timestamp_for_block counts from genesis by it
_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")  # timestamp_for_block's form

# The one context for dollar arithmetic: products and scalings are exact at
# any size, and a result that would round raises Inexact.  Nothing divides
# in it, since a quotient such as 1/3 exhausts memory before it is inexact.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


class RecordSchemaError(LineError):
    """Schema violation at a 1-based file line; a row whose quoted field
    holds a newline is named by the line it ends on."""

    unit = "row"


class TimestampRangeError(ValueError):
    """A block's moment falls outside the years 1 to 9999."""


class ArbitrageRecord(Frozen):
    tx_hash: bytes
    block_number: int
    builder_brand: str
    base_token: str
    hop_count: int
    gross: int
    share: int
    gas: int  # base units, already converted from wei
    net: int
    usd_value: Decimal  # net in dollars
    share_usd: Decimal  # share in dollars
    timestamp_utc: str

    def _check(self) -> None:
        if self.net != self.gross - self.share - self.gas:
            raise ValueError("record identity violated: net != gross - share - gas")
        if self.hop_count < 2:
            raise ValueError("cycles have at least two hops")
        if self.block_number < 0 or self.share < 0 or self.gas < 0 or self.share_usd < 0:  # extract writes none
            checked = {"block_number": self.block_number, "share": self.share, "gas": self.gas, "share_usd": self.share_usd}
            key = next(key for key, value in checked.items() if value < 0)
            raise ValueError(f"{key} must be non-negative, got {checked[key]}")


# the columns of a records file are a record's fields, in order, each read
# as its field's type (the bytes of the tx hash as hex text, parsed after)
_HEADER = list(ArbitrageRecord._fields)
_KINDS = [str if kind is bytes else kind for kind in get_type_hints(ArbitrageRecord).values()]


def timestamp_for_block(block_number: int, genesis_unix: int) -> str:
    """Derive a UTC timestamp for a block from a configured genesis epoch,
    as YYYY-MM-DDTHH:MM:SSZ with a four-digit year."""
    try:
        moment = datetime.fromtimestamp(genesis_unix + block_number * BLOCK_INTERVAL_S, tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise TimestampRangeError(f"block {block_number}: timestamp out of range ({exc})") from None
    return moment.replace(tzinfo=None).isoformat() + "Z"


def dollar_text(value: Decimal) -> str:
    """The shortest exact text of a dollar value: no exponent, no trailing
    zero after the point, and no sign on zero."""
    return f"{value.normalize(EXACT):f}" if value else "0"


# each column's text, by its field's type
_TEXT = {bytes: format_address, int: str, str: str, Decimal: dollar_text}
_COLUMN_TEXTS = [_TEXT[kind] for kind in get_type_hints(ArbitrageRecord).values()]


def record_to_row(record: ArbitrageRecord) -> list[str]:
    return [text(value) for text, value in zip(_COLUMN_TEXTS, record)]


def write_records(stream: IO[str], records: Iterable[ArbitrageRecord], header: bool = True) -> int:
    """Write a row per record, after the schema_version and header rows
    unless header is false (for rows appended to a file that has them);
    the number of records written."""
    writer = csv.writer(stream, lineterminator="\n")
    if header:
        writer.writerow(["schema_version", SCHEMA_VERSION])
        writer.writerow(_HEADER)
    count = 0
    for record in records:
        writer.writerow(record_to_row(record))
        count += 1
    return count


def iter_records(stream: IO | Iterable[str | bytes]) -> Iterator[ArbitrageRecord]:
    """Records from a records file whose lines are text, or bytes read
    strictly as UTF-8.  A line that is not UTF-8, or a field over the csv
    module's size limit, is a RecordSchemaError naming its line."""
    reader = csv.reader(text for _line_no, text in read_lines(stream, RecordSchemaError))
    try:
        yield from _records(reader)
    except csv.Error as exc:
        raise RecordSchemaError(reader.line_num, str(exc)) from exc


def _records(reader) -> Iterator[ArbitrageRecord]:
    version_row = next(reader, None)
    if version_row is None or version_row[:1] != ["schema_version"]:
        raise RecordSchemaError(1, "missing schema_version row")
    if version_row[1:] != [SCHEMA_VERSION]:
        raise RecordSchemaError(1, f"unsupported schema version {version_row[1:]}")
    header = next(reader, None)
    if header != _HEADER:
        raise RecordSchemaError(2, f"bad header, expected {','.join(_HEADER)}")
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(_HEADER):
                raise ValueError(f"expected {len(_HEADER)} columns, got {len(row)}")
            if not _TIMESTAMP.fullmatch(row[-1]):
                raise ValueError(f"timestamp_utc: expected YYYY-MM-DDTHH:MM:SSZ, got {row[-1]!r:.40}")
            try:  # and name a moment that exists: 2025-02-30 and 24:00 have the form but do not
                datetime.fromisoformat(row[-1][:-1])
            except ValueError as exc:
                raise ValueError(f"timestamp_utc: {exc}, got {row[-1]!r}") from None
            tx_hash, *values = map(read_json, row, _HEADER, _KINDS, repeat(True))
            yield ArbitrageRecord(parse_tx_hash(tx_hash), *values)
        except ValueError as exc:
            raise RecordSchemaError(reader.line_num, str(exc)) from exc


def read_records(stream: IO | Iterable[str | bytes]) -> list[ArbitrageRecord]:
    return list(iter_records(stream))
