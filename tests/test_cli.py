"""CLI surface, record schema, config file, end-to-end determinism."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mevforge import BUNDLED_SCENARIOS as SCENARIOS, cli, fixtures, pools
from mevforge.cli import _spool_planted, _write_manifest, main
from mevforge.config import RunConfig, load_config
from mevforge.pbs import UNREAD_KEYS, Protocol
from mevforge.records import (
    ArbitrageRecord,
    RecordSchemaError,
    TimestampRangeError,
    dollar_text,
    read_records,
    timestamp_for_block,
    write_records,
)
from mevforge.reports import decimal_str, percent_str
from mevforge.traces import LineError, TokenId

import strategies

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


# -- records ------------------------------------------------------------------


def sample_record(**overrides):
    fields = dict(
        tx_hash=bytes([1]) * 32,
        block_number=100,
        builder_brand="48Club",
        base_token="USDT",
        hop_count=3,
        gross=3040,
        share=820,
        gas=0,
        net=2220,
        usd_value=Decimal(2220),
        share_usd=Decimal(820),
        timestamp_utc="2025-06-01T00:00:00Z",
    )
    fields.update(overrides)
    return ArbitrageRecord(**fields)


def test_record_round_trip():
    records = [sample_record(), sample_record(block_number=101, usd_value=Decimal("12.345"), share_usd=Decimal("0.5"))]
    buffer = io.StringIO()
    write_records(buffer, records)
    assert read_records(io.StringIO(buffer.getvalue())) == records


def test_record_identity_enforced():
    with pytest.raises(ValueError):
        sample_record(net=1)


def test_a_record_holds_only_dollars_its_writer_can_write():
    """A dollar value is a Decimal, which always has an exact decimal text,
    at any size; a value no record field can hold fails the record itself,
    so write_records is never handed a row it would stop at part-way."""
    with pytest.raises(ValueError, match="^share_usd must be non-negative, got -0.0333$"):
        sample_record(share_usd=Decimal("-0.0333"))
    buffer = io.StringIO()
    with pytest.raises(ValueError):
        write_records(buffer, [sample_record(), sample_record(block_number=101, share_usd=Decimal(-1))])
    assert buffer.getvalue() == ""
    tiny, wide = Decimal(1).scaleb(-40), Decimal("-1234567890123456789012345678901234567890.375")
    written = records_text(sample_record(usd_value=wide, share_usd=tiny))
    assert ",-1234567890123456789012345678901234567890.375,0.0000000000000000000000000000000000000001," in written
    [read] = read_records(io.StringIO(written))
    assert (read.usd_value, read.share_usd) == (wide, tiny)


def test_schema_version_is_checked():
    with pytest.raises(RecordSchemaError):
        read_records(io.StringIO("schema_version,99\n"))
    with pytest.raises(RecordSchemaError):
        read_records(io.StringIO("tx_hash,block\n"))


def test_blank_record_lines_are_skipped_and_counted():
    buffer = io.StringIO()
    write_records(buffer, [sample_record(), sample_record(block_number=101)])
    schema, header, first, second = buffer.getvalue().splitlines(keepends=True)
    assert read_records([schema, header, "\n", first, "\r\n", second, "\n"]) == read_records(buffer.getvalue().splitlines())
    with pytest.raises(RecordSchemaError, match="^row 5: expected 12 columns, got 1$"):
        read_records([schema, header, "\n", first, "x\n"])


def test_bad_row_reports_row_number():
    buffer = io.StringIO()
    write_records(buffer, [sample_record()])
    broken = buffer.getvalue().replace(",2220,", ",99,", 1)
    with pytest.raises(RecordSchemaError) as excinfo:
        read_records(io.StringIO(broken))
    assert excinfo.value.line_no == 3


def test_dollar_rendering_is_exact():
    """The shortest exact text: no exponent, no trailing zero, no -0."""
    assert dollar_text(Decimal(2220)) == "2220"
    assert dollar_text(Decimal("891.78")) == "891.78"
    assert dollar_text(Decimal("-0.375")) == "-0.375"
    assert dollar_text(Decimal("2.220E+3")) == dollar_text(Decimal("2220.000")) == "2220"
    assert dollar_text(Decimal("-0.00")) == dollar_text(Decimal("0E-18")) == "0"
    wide = Decimal("1234567890123456789012345678901234567890E-41")
    assert dollar_text(wide) == "0.0123456789012345678901234567890123456789"


def test_timestamps_derived_from_blocks():
    assert timestamp_for_block(0, 0) == "1970-01-01T00:00:00Z"
    assert timestamp_for_block(10, 3) == "1970-01-01T00:00:33Z"


def test_timestamps_span_years_1_to_9999_with_four_digits():
    assert timestamp_for_block(0, -62135596800) == "0001-01-01T00:00:00Z"
    assert timestamp_for_block(1, 253402300796) == "9999-12-31T23:59:59Z"
    for block, genesis in ((2, 253402300796), (0, -62135596801), (10**15, 0), (0, 10**20)):
        with pytest.raises(TimestampRangeError, match=f"^block {block}: timestamp out of range"):
            timestamp_for_block(block, genesis)


# -- config -------------------------------------------------------------------


def test_config_defaults():
    config = RunConfig()
    assert config.price_table["WBNB"] == Decimal("891.78")
    assert config.share_addresses[0].hex().endswith("fffe")


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# comment
share_addresses = 0x{fe}, 0x{aa}
price_table.WBNB = 600.50
price_table.NEW = 2
price_table.EIGHTH = 1/8
risk.NEW = 1,0,1
alpha = 0.01
genesis_unix = 1000
infer_pool_sinks = true
""".format(fe="ff" * 19 + "fe", aa="aa" * 20)
    )
    with open(path, "rb") as fh:
        config = load_config(fh)
    assert len(config.share_addresses) == 2
    assert config.price_table["WBNB"] == Decimal("600.50")
    assert config.price_table["NEW"] == 2
    assert config.price_table["EIGHTH"] == Decimal("0.125")
    assert all(type(price) is Decimal for price in config.price_table.values())
    assert config.risk_bits["NEW"] == (1, 0, 1)
    assert config.alpha == Fraction(1, 100)
    assert config.genesis_unix == 1000
    assert config.infer_pool_sinks is True


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery = 1\n")
    with pytest.raises(LineError) as excinfo, open(path, "rb") as fh:
        load_config(fh)
    assert "line 1" in str(excinfo.value)


@pytest.mark.parametrize("line", ["decimals.NEW = 6", "k_hops = 2", "seed = 1", "scenario_path = x.json"])
def test_config_keys_nothing_reads_are_unknown(tmp_path, line):
    path = tmp_path / "old.cfg"
    path.write_text("alpha = 0.01\n" + line + "\n")
    with pytest.raises(LineError) as excinfo, open(path, "rb") as fh:
        load_config(fh)
    assert "line 2: unknown key" in str(excinfo.value)


# -- extract ------------------------------------------------------------------


def test_extract_worked_example(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "extract",
            "--traces", str(DATA / "worked_example_trace.ndjson"),
            "--labels", str(DATA / "builder_labels.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out / "records.csv", encoding="utf-8") as fh:
        rows = read_records(fh)
    assert len(rows) == 1
    row = rows[0]
    assert (row.gross, row.share, row.net) == (3040, 820, 2220)
    assert row.base_token == "USDT"
    assert row.hop_count == 3
    assert row.builder_brand == "48Club"
    assert row.usd_value == 2220
    assert row.share_usd == 820


WORKED_BUILDER = "0x487e5dfe70119c1b320b8219b190a6fa95a5bb48"


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("brand,instance,address\n48Club,48Club-puissant-1,0xzz\n", 2, id="bad-hex"),
        pytest.param(f"brand,name,address\n48Club,48Club-puissant-1,{WORKED_BUILDER}\n", 1, id="wrong-header"),
        pytest.param(f"brand,instance,address\nX,x-1,0x{'01' * 20}\n48Club,{WORKED_BUILDER}\n", 3, id="two-columns"),
        pytest.param(
            f"brand,instance,address\n48Club,48Club-puissant-1,{WORKED_BUILDER}\nX,x-1,0x{'01' * 20}\nY,y-1,{WORKED_BUILDER}\n",
            4,
            id="duplicate-address",
        ),
        pytest.param("brand,instance,address\nX,x-1,0x" + "ab" * 100_000 + "\n", 2, id="field-over-csv-limit"),
        pytest.param(f"brand,instance,address\nX,x-1,0x{'01' * 20}\nY,y-\udcff,0x{'02' * 20}\n", 3, id="not-utf8"),
    ],
)
def test_extract_malformed_label_file_names_the_line(tmp_path, capsys, text, line):
    labels = tmp_path / "labels.csv"
    labels.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = ["extract", "--traces", str(DATA / "worked_example_trace.ndjson"), "--labels", str(labels)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {labels}: line {line}: ")


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param("alpha = 0.01\nalpha = 0.5\n", "alpha", id="alpha"),
        pytest.param("price_table.WBNB = 600\nprice_table.WBNB = 700\n", "price_table.WBNB", id="price"),
    ],
)
def test_extract_config_key_set_twice_names_both_lines(tmp_path, capsys, text, key):
    """A key set twice is a fault, not a silent override; price_table.A and
    price_table.B are different keys."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    argv = ["extract", "--traces", str(DATA / "worked_example_trace.ndjson"), "--labels", str(DATA / "builder_labels.csv")]
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: line 2: {key} repeats line 1\n"
    assert not (tmp_path / "out").exists()


def test_extract_counts_non_cycles(tmp_path, capsys):
    trace = tmp_path / "traces.ndjson"
    trace.write_text(
        json.dumps(
            {
                "hash": "0x" + "00" * 32,
                "block": 1,
                "from": "0x" + "11" * 20,
                "gas_used": 0,
                "gas_price": 0,
                "events": [{"kind": "transfer", "to": "0x" + "22" * 20, "amount": "5"}],
            }
        )
        + "\n"
    )
    out = tmp_path / "out"
    code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)])
    assert code == 0
    assert "records=0 skipped=1" in capsys.readouterr().out


def test_extract_missing_price_produces_error_row(tmp_path):
    corpus_dir = tmp_path / "fx"
    assert main(["gen-fixtures", "--kind", "traces", "--seed", "3", "--count", "60", "--out", str(corpus_dir)]) == 0
    config = tmp_path / "only_wbnb.cfg"
    # strip every stable price so most cycles cannot be normalized
    config.write_text("price_table.WBNB = 1\n")
    out = tmp_path / "out"
    code = main(
        [
            "extract",
            "--traces", str(corpus_dir / "traces.ndjson"),
            "--labels", str(corpus_dir / "labels.csv"),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    # generated tokens TK* have no price: expect error rows and exit 1
    assert code == 1
    assert (out / "errors.csv").exists()


def test_extract_summary_accounts_for_every_transaction(tmp_path, capsys):
    fixture = tmp_path / "fx"
    assert main(["gen-fixtures", "--kind", "traces", "--seed", "3", "--count", "300", "--out", str(fixture)]) == 0
    config = fixture / "run.cfg"
    config.write_text("".join(line for line in config.read_text().splitlines(True) if "TK0" not in line))
    manifest = json.loads((fixture / "manifest.json").read_text())
    capsys.readouterr()
    inputs = ["--traces", str(fixture / "traces.ndjson"), "--labels", str(fixture / "labels.csv")]
    assert main(["extract", *inputs, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    summary = dict(field.split("=") for field in capsys.readouterr().out.split())
    counts = {key: int(value) for key, value in summary.items()}
    assert counts["errors"] > 0
    assert counts["records"] + counts["skipped"] + counts["errors"] == manifest["transactions"]
    assert counts["skipped"] == manifest["non_cycles"]


def test_extract_errors_csv_quotes_hostile_symbols(tmp_path):
    def token(symbol, tag):
        return {"symbol": symbol, "address": "0x" + tag * 20, "decimals": 18}

    evil, wbnb = token('EVIL,"T', "e1"), token("WBNB", "bb")
    trace = tmp_path / "traces.ndjson"
    trace.write_text(
        json.dumps(
            {
                "hash": "0x" + "01" * 32,
                "block": 1,
                "from": "0x" + "11" * 20,
                "gas_used": 0,
                "gas_price": 0,
                "events": [
                    {"kind": "swap", "pool": "0x" + "a1" * 20, "token_in": evil, "token_out": wbnb,
                     "amount_in": "10", "amount_out": "20"},
                    {"kind": "swap", "pool": "0x" + "a2" * 20, "token_in": wbnb, "token_out": evil,
                     "amount_in": "20", "amount_out": "12"},
                ],
            }
        )
        + "\n"
    )
    out = tmp_path / "out"
    code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)])
    assert code == 1
    with open(out / "errors.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["tx_hash", "error"], ["0x" + "01" * 32, 'no price for EVIL,"T']]


def test_extract_sends_a_share_transfer_in_another_token_to_errors_csv(tmp_path):
    """A WBNB cycle that pays 5 USDT (6 decimals) to the share address is an
    error row, not a share of 5,000,000 wei."""
    wbnb = {"symbol": "WBNB", "address": "0x" + "bb" * 20, "decimals": 18}
    usdt = {"symbol": "USDT", "address": "0x" + "55" * 20, "decimals": 6}
    trace = tmp_path / "traces.ndjson"
    trace.write_text(
        json.dumps(
            {
                "hash": "0x" + "01" * 32,
                "block": 1,
                "from": "0x" + "11" * 20,
                "gas_used": 0,
                "gas_price": 0,
                "events": [
                    {"kind": "swap", "pool": "0x" + "a1" * 20, "token_in": wbnb, "token_out": usdt,
                     "amount_in": "10", "amount_out": "20"},
                    {"kind": "swap", "pool": "0x" + "a2" * 20, "token_in": usdt, "token_out": wbnb,
                     "amount_in": "20", "amount_out": "12"},
                    {"kind": "transfer", "token_out": usdt, "to": "0x" + "ff" * 19 + "fe", "amount": "5000000"},
                ],
            }
        )
        + "\n"
    )
    out = tmp_path / "out"
    code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)])
    assert code == 1
    with open(out / "errors.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["tx_hash", "error"], ["0x" + "01" * 32, "share transfer moves USDT, not the base token WBNB"]]
    assert (out / "records.csv").read_text().count("\n") == 2  # the schema row and the header only


def test_extract_non_object_event_fails_with_line(tmp_path, capsys):
    """A bad trace line leaves no report: neither the records written
    before it nor an errors.csv from an earlier run."""
    trace = tmp_path / "traces.ndjson"
    header = {"hash": "0x" + "00" * 32, "block": 1, "from": "0x" + "11" * 20, "gas_used": 0, "gas_price": 0}
    trace.write_text(json.dumps({**header, "events": []}) + "\n" + json.dumps({**header, "events": ["x"]}) + "\n")
    out = tmp_path / "o"
    out.mkdir()
    (out / "errors.csv").write_text("tx_hash,error\n")
    code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {trace}: line 2: ")
    assert list(out.iterdir()) == []


def test_extract_missing_trace_file_leaves_the_records_as_they_were(tmp_path, capsys):
    out = tmp_path / "o"
    labels = str(DATA / "builder_labels.csv")
    assert main(["extract", "--traces", str(DATA / "worked_example_trace.ndjson"), "--labels", labels, "--out", str(out)]) == 0
    written = read_all(out)
    missing = tmp_path / "missing.ndjson"
    capsys.readouterr()
    assert main(["extract", "--traces", str(missing), "--labels", labels, "--out", str(out)]) == 1
    assert str(missing) in capsys.readouterr().err
    assert read_all(out) == written


def test_extract_a_bad_trace_line_after_an_error_row_leaves_no_report(tmp_path, capsys):
    """A bad line read after an error row removes errors.csv too, as it
    does the records."""
    unpriced = json.loads((DATA / "worked_example_trace.ndjson").read_text())
    for event in unpriced["events"]:
        for key in ("token_in", "token_out"):
            if event.get(key, {}).get("symbol") == "USDT":
                event[key]["symbol"] = "NOPRICE"
    trace = tmp_path / "traces.ndjson"
    trace.write_text(json.dumps(unpriced) + "\n" + '{"bad\n')
    out = tmp_path / "o"
    out.mkdir()
    code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {trace}: line 2: ")
    assert list(out.iterdir()) == []
    trace.write_text(json.dumps(unpriced) + "\n")
    assert main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)]) == 1
    assert (out / "errors.csv").read_text().startswith("tx_hash,error\n")


def test_extract_a_bad_trace_line_removes_only_the_out_it_made(tmp_path, capsys):
    """extract streams, so --out exists when a bad line past the first is
    read: a directory the run made is removed again, with the parents it
    made, and one that was there before is left, empty."""
    trace = tmp_path / "traces.ndjson"
    trace.write_text((DATA / "worked_example_trace.ndjson").read_text() + '{"bad\n')
    argv = ["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out"]
    assert main([*argv, str(tmp_path / "new" / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {trace}: line 2: ")
    assert list(tmp_path.iterdir()) == [trace]
    (tmp_path / "kept").mkdir()
    assert main([*argv, str(tmp_path / "kept")]) == 1
    assert list((tmp_path / "kept").iterdir()) == []


def worked_example_with(edit) -> str:
    obj = json.loads((DATA / "worked_example_trace.ndjson").read_text())
    edit(obj)
    return json.dumps(obj) + "\n"


def set_event(index, **values):
    return lambda obj: obj["events"][index].update(values)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda o: o.pop("events"), "missing key 'events'", id="missing-key"),
        pytest.param(lambda o: o.update(block=50636154.7), "", id="block-float"),
        pytest.param(lambda o: o.update(gas_used=True), "", id="gas-used-bool"),
        pytest.param(lambda o: o.update(gas_price="0"), "", id="gas-price-string"),
        pytest.param(lambda o: o["events"][0]["token_in"].update(decimals=False), "", id="decimals-bool"),
        pytest.param(set_event(0, amount_in="+1000000"), "", id="amount-in-signed-string"),
        pytest.param(set_event(0, amount_out="2_980_000_000_000_000_000"), "", id="amount-out-underscores"),
        pytest.param(set_event(3, amount=" 820"), "", id="amount-padded-string"),
        pytest.param(set_event(0, pool_sink="false", amount="5"), "", id="pool-sink-string"),
        pytest.param(set_event(0, pool=5), "", id="pool-address-number"),
        pytest.param(lambda o: o["events"][0]["token_in"].update(symbol=None), "", id="symbol-null"),
        pytest.param(lambda o: o["events"][0]["token_out"].update(symbol=5), "", id="symbol-number"),
        pytest.param(lambda o: o["events"][0]["token_in"].update(symbol="US\ud800"), "", id="symbol-lone-surrogate"),
    ],
)
def test_extract_rejects_loosely_typed_trace_fields(tmp_path, capsys, edit, message):
    trace = tmp_path / "traces.ndjson"
    trace.write_text(worked_example_with(edit))
    code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {trace}: line 1: {message}")


def records_text(*records) -> str:
    buffer = io.StringIO()
    write_records(buffer, records or [sample_record()])
    return buffer.getvalue()


def traces_with_bad_byte(tmp_path):
    traces = tmp_path / "traces.ndjson"
    traces.write_bytes((DATA / "worked_example_trace.ndjson").read_bytes() + b"\xff\n")
    return ["extract", "--traces", str(traces), "--labels", str(DATA / "builder_labels.csv")], f"{traces}: line 2"


def traces_with_long_integer(tmp_path):
    traces = tmp_path / "traces.ndjson"
    text = (DATA / "worked_example_trace.ndjson").read_text()
    traces.write_text(text.replace('"block":50636154', '"block":' + "9" * 5000, 1))
    return ["extract", "--traces", str(traces), "--labels", str(DATA / "builder_labels.csv")], f"{traces}: line 1"


def records_with_bad_byte(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(records_text().encode() + b"\xff")
    return ["analyze", "--records", str(path)], f"{path}: row 4"


def records_with_long_field(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(records_text(sample_record(builder_brand="x" * 200_000)))
    return ["analyze", "--records", str(path)], f"{path}: row 3"


def config_with_bad_byte(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"alpha = 0.01\n\xff\n")
    argv = ["extract", "--traces", str(DATA / "worked_example_trace.ndjson"), "--labels", str(DATA / "builder_labels.csv")]
    return [*argv, "--config", str(config)], f"{config}: line 2"


def records_text_with(column, text) -> str:
    """records_text() with one column of its record replaced by text."""
    rows = list(csv.reader(records_text().splitlines()))
    rows[2][column] = text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def records_with(column, text):
    def make_input(tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(records_text_with(column, text).encode("utf-8"))
        return ["analyze", "--records", str(path)], f"{path}: row 3"

    return make_input


def config_with(line):
    def make_input(tmp_path):
        records_file, config = tmp_path / "records.csv", tmp_path / "run.cfg"
        records_file.write_text(records_text())
        config.write_text("# prices\n" + line + "\n")
        return ["analyze", "--records", str(records_file), "--config", str(config)], f"{config}: line 2"

    return make_input


def scenario_with(edit, where):
    def make_input(tmp_path):
        obj = json.loads((SCENARIOS / "bsc_duopoly.json").read_text())
        edit(obj)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj))
        return ["simulate", "--scenario", str(scenario), "--slots", "3"], f"invalid scenario keys: {where}"

    return make_input


SPACED_ADDRESS = "0x" + " ".join(["01"] * 20)


def labels_with_spaced_hex(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text(f"brand,instance,address\nX,x-1,0x{'02' * 20}\nY,y-1,{SPACED_ADDRESS}\n")
    return ["extract", "--traces", str(DATA / "worked_example_trace.ndjson"), "--labels", str(labels)], f"{labels}: line 3"


def traces_with_spaced_hex(tmp_path):
    traces = tmp_path / "traces.ndjson"
    traces.write_text(worked_example_with(lambda o: o.__setitem__("from", SPACED_ADDRESS)))
    return ["extract", "--traces", str(traces), "--labels", str(DATA / "builder_labels.csv")], f"{traces}: line 1"


def pool_file_with_bad_byte(tmp_path):
    scenario = embodied_scenario(tmp_path, pool_lines_with(json.dumps))
    lines = (tmp_path / "pools.ndjson").read_bytes().split(b"\n")
    lines[1] += b" \xff"
    (tmp_path / "pools.ndjson").write_bytes(b"\n".join(lines))
    return ["simulate", "--scenario", str(scenario), "--slots", "1"], "invalid scenario keys: pools: line 2"


@pytest.mark.parametrize(
    "make_input",
    [
        pytest.param(traces_with_bad_byte, id="traces-not-utf8"),
        pytest.param(traces_with_long_integer, id="traces-5000-digit-integer"),
        pytest.param(records_with_bad_byte, id="records-not-utf8"),
        pytest.param(records_with_long_field, id="records-field-over-csv-limit"),
        pytest.param(config_with_bad_byte, id="config-not-utf8"),
        # values outside the shared value grammar (README "Values")
        pytest.param(records_with(1, "5_0000_0001"), id="records-block-underscores"),
        pytest.param(records_with(1, "\u0661\u0662"), id="records-block-arabic-indic-digits"),
        pytest.param(records_with(1, "+100"), id="records-block-plus"),
        pytest.param(records_with(9, "1e3"), id="records-usd-exponent"),
        pytest.param(records_with(10, "1/3"), id="records-share-usd-no-terminating-decimal"),
        pytest.param(records_with(0, "0x" + " ".join(["01"] * 32)), id="records-tx-hash-spaced-hex"),
        pytest.param(config_with("price_table.WBNB = 1e3"), id="config-price-exponent"),
        pytest.param(config_with("genesis_unix = 1_000"), id="config-genesis-underscores"),
        pytest.param(config_with("risk.X = +1,0,1"), id="config-risk-plus"),
        pytest.param(config_with(f"share_addresses = {SPACED_ADDRESS}"), id="config-share-address-spaced-hex"),
        # range checks name their line too
        pytest.param(config_with("price_table.WBNB = 0"), id="config-price-zero"),
        pytest.param(config_with("price_table.USDT = 1/3"), id="config-price-no-terminating-decimal"),
        pytest.param(config_with("alpha = 2"), id="config-alpha-above-one"),
        pytest.param(config_with("risk.X = 1,0,2"), id="config-risk-bit-two"),
        # a boolean is a JSON literal, as in scenario files
        pytest.param(config_with("infer_pool_sinks = yes"), id="config-boolean-yes"),
        pytest.param(config_with("infer_pool_sinks = 1"), id="config-boolean-one"),
        pytest.param(config_with("infer_pool_sinks = TRUE"), id="config-boolean-upper-case"),
        pytest.param(
            scenario_with(lambda o: o["builders"][0].update(latency_ms="1e3"), "builders[0]: latency_ms"),
            id="scenario-latency-exponent",
        ),
        pytest.param(
            scenario_with(lambda o: o["builders"][1].update(id="al\ud800"), "builders[1]: id"),
            id="scenario-id-lone-surrogate",
        ),
        pytest.param(labels_with_spaced_hex, id="labels-spaced-hex"),
        pytest.param(traces_with_spaced_hex, id="traces-spaced-hex"),
        pytest.param(pool_file_with_bad_byte, id="pools-not-utf8"),
    ],
)
def test_undecodable_or_oversized_input_names_file_and_line(tmp_path, capsys, make_input):
    argv, where = make_input(tmp_path)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


def test_records_faults_name_the_file_line(tmp_path, capsys):
    """A quoted newline in the first record makes it span lines 3 and 4, so
    the next record is line 5, for a bad value and a bad byte alike."""
    text = records_text(sample_record(base_token="US\nDT"), sample_record(block_number=101))
    for name, data in (
        ("value", text.replace(",101,", ",1x1,").encode()),
        ("byte", text.encode().replace(b",101,", b",1\xff1,")),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        assert main(["analyze", "--records", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: row 5: ")


@settings(max_examples=300, deadline=None)
@given(column=st.integers(min_value=0, max_value=11), text=st.text(max_size=30))
def test_any_text_in_any_records_column_reads_or_is_a_schema_error(column, text):
    try:
        rows_read = read_records(io.BytesIO(records_text_with(column, text).encode("utf-8")))
    except RecordSchemaError:
        return
    assert len(rows_read) == 1


@pytest.mark.parametrize("block, genesis", [(10**15, 0), (50636154, 10**20)], ids=["block", "genesis"])
def test_extract_timestamp_out_of_range_is_an_error_row(tmp_path, block, genesis):
    trace = tmp_path / "traces.ndjson"
    trace.write_text(worked_example_with(lambda o: o.update(block=block)))
    config = tmp_path / "run.cfg"
    config.write_text(f"genesis_unix = {genesis}\n")
    out = tmp_path / "out"
    argv = ["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--config", str(config)]
    assert main([*argv, "--out", str(out)]) == 1
    with open(out / "errors.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "0x" + "ab" * 32
    assert rows[1][1].startswith(f"block {block}: timestamp out of range")
    with open(out / "records.csv", encoding="utf-8") as fh:
        assert read_records(fh) == []


def test_extract_timestamps_before_year_1000_read_back(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"genesis_unix = {-61_000_000_000 - 50636154 * 3}\n")
    out = tmp_path / "out"
    argv = ["extract", "--traces", str(DATA / "worked_example_trace.ndjson"), "--labels", str(DATA / "builder_labels.csv")]
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    with open(out / "records.csv", encoding="utf-8") as fh:
        assert [row.timestamp_utc for row in read_records(fh)] == ["0036-12-26T11:33:20Z"]


def with_pool_transfers(obj):
    """Three USDT transfers into the worked example's pools: 11 into the
    last hop's pool before any swap, 100 into the first hop's pool after
    its swap, and 7 into the last hop's pool at the end."""
    usdt = obj["events"][0]["token_in"]

    def into(pool, amount):
        return {"kind": "transfer", "token_out": usdt, "to": pool, "amount": amount}

    first_pool, last_pool = obj["events"][0]["pool"], obj["events"][2]["pool"]
    obj["events"][1:1] = [into(first_pool, "100")]
    obj["events"][:0] = [into(last_pool, "11")]
    obj["events"].append(into(last_pool, "7"))


@pytest.mark.parametrize("infer, share", [("true", 927), ("false", 820)])
def test_extract_infers_pool_sinks_only_when_configured(tmp_path, infer, share):
    """With infer_pool_sinks, a transfer into a pool that an earlier swap
    touched is share: 100 + 7 on top of the 820 share transfer, while the
    11 sent before its pool's swap is not."""
    trace, config, out = tmp_path / "traces.ndjson", tmp_path / "run.cfg", tmp_path / "out"
    trace.write_text(worked_example_with(with_pool_transfers))
    config.write_text(f"infer_pool_sinks = {infer}\n")
    argv = ["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--config", str(config)]
    assert main([*argv, "--out", str(out)]) == 0
    with open(out / "records.csv", encoding="utf-8") as fh:
        [row] = read_records(fh)
    assert (row.gross, row.share, row.gas, row.net) == (3040, share, 0, 3040 - share)
    assert (row.usd_value, row.share_usd) == (3040 - share, share)


def test_dollars_wider_than_28_digits_stay_exact_from_extract_to_analyze(tmp_path):
    """A WBNB cycle (18 decimals, priced 891.78) with a 50-digit net and a
    48-digit share: all 53 or 54 digits of their dollars reach records.csv,
    and the reports render the exact sums, which 28-digit decimal arithmetic
    would round in the integer digits."""
    net, share = 12345678901234567890123456789012345678901234567890, 987654321098765432109876543210987654321098765432
    share_address = "0x" + "ff" * 19 + "fe"

    def wide_cycle(obj):
        usdt, wbnb = obj["events"][0]["token_in"], obj["events"][0]["token_out"]
        obj["events"] = [
            {"kind": "swap", "pool": "0x" + "a1" * 20, "token_in": wbnb, "token_out": usdt,
             "amount_in": str(10**50), "amount_out": "5"},
            {"kind": "swap", "pool": "0x" + "a2" * 20, "token_in": usdt, "token_out": wbnb,
             "amount_in": "5", "amount_out": str(10**50 + net + share)},
            {"kind": "transfer", "token_out": wbnb, "to": share_address, "amount": str(share)},
        ]

    trace, out = tmp_path / "traces.ndjson", tmp_path / "out"
    trace.write_text(worked_example_with(wide_cycle))
    assert main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)]) == 0
    assert main(["analyze", "--records", str(out / "records.csv"), "--out", str(out)]) == 0

    usd, share_usd = (Fraction(units) * Fraction("891.78") / 10**18 for units in (net, share))
    with open(out / "records.csv", encoding="utf-8", newline="") as fh:
        [row] = list(csv.reader(fh))[2:]
    assert (row[8], row[6]) == (str(net), str(share))
    assert row[9:11] == [
        "11009629530542962953054296295305429.6295305429629529442",
        "880770370469457037046945703704694.57037046945703694896",
    ]
    assert (Fraction(row[9]), Fraction(row[10])) == (usd, share_usd)
    matrix = (out / "profit_matrix.csv").read_text().splitlines()
    assert matrix[1:] == [f"48Club,WBNB,{decimal_str(usd, 2)},100.00"]
    split = (out / "proposer_split.csv").read_text().splitlines()
    payout = percent_str(share_usd / (usd + share_usd))
    assert split[1:] == [f"48Club,{decimal_str(usd, 2)},{decimal_str(share_usd, 2)},{payout}"]


def test_extract_matches_planted_manifest(tmp_path):
    fixture_dir = tmp_path / "fx"
    assert main(["gen-fixtures", "--kind", "traces", "--seed", "9", "--count", "400", "--out", str(fixture_dir)]) == 0
    manifest = json.loads((fixture_dir / "manifest.json").read_text())
    config = tmp_path / "prices.cfg"
    config.write_text("".join(f"price_table.TK{i} = 1\n" for i in range(6)))
    out = tmp_path / "out"
    code = main(
        [
            "extract",
            "--traces", str(fixture_dir / "traces.ndjson"),
            "--labels", str(fixture_dir / "labels.csv"),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out / "records.csv", encoding="utf-8") as fh:
        rows = read_records(fh)
    assert len(rows) == manifest["planted_cycles"]
    planted = {p["tx_hash"]: p for p in manifest["planted"]}
    for row in rows:
        expected = planted["0x" + row.tx_hash.hex()]
        assert (row.gross, row.share, row.net) == (expected["gross"], expected["share"], expected["net"])
        assert row.hop_count == expected["hop_count"]


def test_extract_is_idempotent(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert (
            main(
                [
                    "extract",
                    "--traces", str(DATA / "worked_example_trace.ndjson"),
                    "--labels", str(DATA / "builder_labels.csv"),
                    "--out", str(out),
                ]
            )
            == 0
        )
    assert read_all(out1) == read_all(out2)


# -- extract spans ------------------------------------------------------------


def extract_with(k: int, trace: Path, out: Path, *options: str) -> tuple[int, str, str, dict[str, bytes]]:
    """(exit code, stdout, stderr, files left in out) of extract over trace
    with k usable CPUs, so over k byte spans of a regular file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_usable_cpus", return_value=k), redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), *options, "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), read_all(out) if out.exists() else {}


WORKED_TX = json.loads((DATA / "worked_example_trace.ndjson").read_text())
SPAN_KINDS = ("cycle", "unpriced", "non-cycle", "unknown-event", "unlabeled", "blank")


def span_line(kind: str, n: int) -> str:
    """Line n of a corpus, without its end: the worked example as a kind of
    transaction with a hash and block of its own, a blank line, or a bad
    line."""
    if kind == "blank":
        return " " * (n % 3)
    if kind == "bad":
        return '{"bad'
    tx = json.loads(json.dumps(WORKED_TX))
    tx.update(hash=f"0x{n:064x}", block=WORKED_TX["block"] + n)
    if kind == "unpriced":
        for event in tx["events"]:
            for key in ("token_in", "token_out"):
                if event.get(key, {}).get("symbol") == "USDT":
                    event[key]["symbol"] = "NOPRICE"
    elif kind == "non-cycle":
        del tx["events"][1:]
    elif kind == "unknown-event":
        tx["events"].append({"kind": "mystery"})
    elif kind == "unlabeled":
        tx["from"] = f"0x{n:040x}"
    return json.dumps(tx)


def span_of(trace: Path, k: int, offset: int) -> int:
    """The index of the span, of k, that holds byte offset of trace."""
    with open(trace, "rb") as fh:
        return next(j for j, (start, end) in enumerate(cli._spans(fh, k)) if start <= offset < end)


def line_start(lines: list[str], n: int) -> int:
    return len("".join(lines[:n]).encode())


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(st.tuples(st.sampled_from(SPAN_KINDS), st.sampled_from(["\n", "\r\n"])), max_size=10),
    bad=st.lists(st.integers(min_value=0, max_value=9), max_size=2),
    last_ends=st.booleans(),
    k=st.integers(min_value=2, max_value=7),
)
@example(lines=[("cycle", "\n")] * 3, bad=[], last_ends=False, k=7)
@example(lines=[("cycle", "\n"), ("blank", "\n"), ("unpriced", "\r\n"), ("cycle", "\n")] * 2, bad=[], last_ends=True, k=3)
@example(lines=[("cycle", "\n")] * 6, bad=[5, 2], last_ends=True, k=3)
def test_extract_writes_the_same_bytes_over_any_number_of_spans(tmp_path_factory, lines, bad, last_ends, k):
    """Over 2 to 7 spans, which may be empty, cut next to a blank line or
    outnumber the lines, extract writes the reports, summary, exit code and
    error message of the one span that it runs in this process."""
    kinds = [kind for kind, _end in lines]
    for n in bad:
        if n < len(kinds):
            kinds[n] = "bad"
    text = "".join(span_line(kind, n) + end for n, (kind, (_kind, end)) in enumerate(zip(kinds, lines)))
    if lines and not last_ends:
        text = text.removesuffix(lines[-1][1])
    directory = tmp_path_factory.mktemp("spans")
    trace = directory / "traces.ndjson"
    trace.write_bytes(text.encode())
    assert extract_with(k, trace, directory / "k") == extract_with(1, trace, directory / "one")


def test_extract_writes_the_same_bytes_over_any_number_of_cpus(tmp_path):
    fixture = tmp_path / "fx"
    assert main(["gen-fixtures", "--kind", "traces", "--seed", "3", "--count", "60", "--out", str(fixture)]) == 0
    config = fixture / "run.cfg"
    config.write_text("".join(line for line in config.read_text().splitlines(True) if "TK0" not in line))
    one = extract_with(1, fixture / "traces.ndjson", tmp_path / "one", "--config", str(config))
    assert one[0] == 1 and len(one[3]["records.csv"].splitlines()) > 10 and len(one[3]["errors.csv"].splitlines()) > 2
    for k in range(2, 8):
        assert extract_with(k, fixture / "traces.ndjson", tmp_path / f"k{k}", "--config", str(config)) == one


def test_extract_names_a_bad_line_in_any_span_by_its_line_in_the_file(tmp_path):
    k = 3
    kinds = ["cycle", "blank", "unpriced", "cycle", "non-cycle", "blank", "cycle", "unknown-event", "cycle"]
    trace = tmp_path / "traces.ndjson"
    spans_hit = set()
    for bad in range(len(kinds)):
        lines = [span_line("bad" if n == bad else kind, n) + "\n" for n, kind in enumerate(kinds)]
        trace.write_text("".join(lines))
        spans_hit.add(span_of(trace, k, line_start(lines, bad)))
        code, stdout, stderr, files = extract_with(k, trace, tmp_path / f"k{bad}")
        assert (code, stdout, files) == (1, "", {})
        assert stderr.startswith(f"error: {trace}: line {bad + 1}: invalid JSON: ")
        assert extract_with(1, trace, tmp_path / f"one{bad}") == (code, stdout, stderr, files)
    assert spans_hit == set(range(k))


@pytest.mark.parametrize("bad", [(4, 7), (1, 8), (0, 4, 8)])
def test_extract_names_the_first_bad_line_of_several_spans(tmp_path, bad):
    k = 3
    lines = [span_line("bad" if n in bad else "cycle", n) + "\n" for n in range(9)]
    trace = tmp_path / "traces.ndjson"
    trace.write_text("".join(lines))
    assert len({span_of(trace, k, line_start(lines, n)) for n in bad}) == len(bad)
    code, stdout, stderr, files = extract_with(k, trace, tmp_path / "out")
    assert (code, stdout, files) == (1, "", {})
    assert stderr.startswith(f"error: {trace}: line {bad[0] + 1}: invalid JSON: ")


def test_extract_counts_a_blank_line_at_a_span_cut(tmp_path):
    """Two spans of a cycle, a blank line and a line as long as the first
    are cut at the blank line, which the second span counts."""
    first, second = span_line("cycle", 0), span_line("cycle", 1)
    trace = tmp_path / "traces.ndjson"
    for last in (second, ('{"bad' + " " * len(second))[: len(second)]):
        trace.write_text(f"{first}\n\n{last}\n")
        with open(trace, "rb") as fh:
            assert cli._spans(fh, 2) == [(0, len(first) + 1), (len(first) + 1, 2 * len(first) + 3)]
        assert extract_with(2, trace, tmp_path / "two") == extract_with(1, trace, tmp_path / "one")
    assert extract_with(2, trace, tmp_path / "two")[2].startswith(f"error: {trace}: line 3: invalid JSON: ")
    trace.write_text(f"{first}\n\n{second}\n")
    code, stdout, _stderr, files = extract_with(2, trace, tmp_path / "two")
    assert (code, stdout) == (0, "records=2 skipped=0 unknown_events=0 errors=0\n")
    assert len(files["records.csv"].splitlines()) == 4


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad", [None, 7], ids=["success", "bad-line"])
def test_extract_leaves_no_worker_behind(tmp_path, bad):
    trace = tmp_path / "traces.ndjson"
    trace.write_text("".join(span_line("bad" if n == bad else "cycle", n) + "\n" for n in range(9)))
    assert extract_with(3, trace, tmp_path / "out")[0] == (0 if bad is None else 1)
    assert_no_child_process()


@pytest.mark.parametrize("fault", ["raises", "reports-nothing"])
def test_extract_stops_on_a_failed_worker(tmp_path, fault):
    """A worker that fails, or ends without a report, is an error: the
    reports it would have added to are removed, never written without its
    rows."""
    parent, extract_span = os.getpid(), cli._extract_span

    def failing(lines, rows, errors, stats, header, **kwargs):
        if os.getpid() != parent:
            if fault == "raises":
                raise RuntimeError("worker fault")
            os._exit(0)
        return extract_span(lines, rows, errors, stats, header, **kwargs)

    trace = tmp_path / "traces.ndjson"
    trace.write_text("".join(span_line("cycle", n) + "\n" for n in range(6)))
    with open(trace, "rb") as fh:
        [_first, (start, end)] = cli._spans(fh, 2)
    with mock.patch.object(cli, "_extract_span", failing):
        result = extract_with(2, trace, tmp_path / "new" / "out")
    ended = "exited with status 1" if fault == "raises" else "reported nothing"
    assert result == (1, "", f"error: {trace}: extract worker for bytes {start}-{end} {ended}\n", {})
    assert list(tmp_path.iterdir()) == [trace]
    assert_no_child_process()


def test_extract_reads_a_fifo_as_one_span(tmp_path):
    fixture = tmp_path / "fx"
    assert main(["gen-fixtures", "--kind", "traces", "--seed", "4", "--count", "60", "--out", str(fixture)]) == 0
    fifo = tmp_path / "traces.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((fixture / "traces.ndjson").read_bytes(),), daemon=True)
    writer.start()
    try:
        with mock.patch.object(os, "fork", side_effect=AssertionError("a FIFO is read as one span")):
            from_fifo = extract_with(3, fifo, tmp_path / "from-fifo", "--config", str(fixture / "run.cfg"))
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    from_file = extract_with(3, fixture / "traces.ndjson", tmp_path / "from-file", "--config", str(fixture / "run.cfg"))
    assert from_fifo[0] == 0 and from_fifo == from_file


# -- analyze ------------------------------------------------------------------


def records_fixture(tmp_path) -> Path:
    fixture_dir = tmp_path / "recfx"
    assert main(["gen-fixtures", "--kind", "records", "--seed", "5", "--count", "300", "--out", str(fixture_dir)]) == 0
    return fixture_dir / "records.csv"


def test_analyze_reports_and_shuffle_invariance(tmp_path):
    records_path = records_fixture(tmp_path)
    out1 = tmp_path / "r1"
    assert main(["analyze", "--records", str(records_path), "--out", str(out1)]) == 0
    expected = {
        "shares.csv",
        "profit_matrix.csv",
        "proposer_split.csv",
        "complexity_hist.csv",
        "complexity_ecdf.csv",
        "correlations.csv",
        "trends.csv",
        "risk_scores.csv",
    }
    assert expected <= set(read_all(out1))

    lines = records_path.read_text().splitlines(keepends=True)
    head, body = lines[:2], lines[2:]
    random.Random(3).shuffle(body)
    shuffled_path = tmp_path / "shuffled.csv"
    shuffled_path.write_text("".join(head + body))
    out2 = tmp_path / "r2"
    assert main(["analyze", "--records", str(shuffled_path), "--out", str(out2)]) == 0
    assert read_all(out1) == read_all(out2)


def test_analyze_empty_records_succeeds(tmp_path):
    empty = tmp_path / "empty.csv"
    buffer = io.StringIO()
    write_records(buffer, [])
    empty.write_text(buffer.getvalue())
    out = tmp_path / "out"
    assert main(["analyze", "--records", str(empty), "--out", str(out)]) == 0
    assert (out / "shares.csv").read_text() == "brand,blocks,validators,share_pct\n"


def test_analyze_schema_violation_fails_with_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    buffer = io.StringIO()
    write_records(buffer, [sample_record()])
    bad.write_text(buffer.getvalue().replace(",2220,", ",999,", 1))
    assert main(["analyze", "--records", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "row 3" in capsys.readouterr().err


def test_analyze_rejects_v1_records(tmp_path, capsys):
    v1 = tmp_path / "v1.csv"
    v1.write_text(
        "schema_version,1\n"
        "tx_hash,block_number,builder_brand,base_token,hop_count,gross,share,gas,net,usd_value,timestamp_utc\n"
        f"0x{'01' * 32},100,48Club,USDT,3,3040,820,0,2220,2220,2025-06-01T00:00:00Z\n"
    )
    assert main(["analyze", "--records", str(v1), "--out", str(tmp_path / "out")]) == 1
    assert "row 1: unsupported schema version" in capsys.readouterr().err


def test_analyze_a_malformed_last_row_writes_no_report(tmp_path, capsys):
    """Every row is read before --out is made."""
    bad = tmp_path / "bad.csv"
    buffer = io.StringIO()
    write_records(buffer, [sample_record(block_number=100 + i) for i in range(5)])
    bad.write_text(buffer.getvalue().rstrip("\n").removesuffix("Z") + "\n")
    out = tmp_path / "out"
    assert main(["analyze", "--records", str(bad), "--out", str(out)]) == 1
    assert "row 7: timestamp_utc" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, key",
    [
        pytest.param({1: "-5"}, "block_number", id="block-number"),
        pytest.param({6: "-10", 8: "3050"}, "share", id="share"),
        pytest.param({7: "-7", 8: "2227"}, "gas", id="gas"),
        pytest.param({10: "-10"}, "share_usd", id="share-usd"),
        pytest.param({1: "-5", 6: "-10", 7: "-7", 8: "3057", 10: "-10"}, "block_number", id="all-four"),
    ],
)
def test_analyze_rejects_a_negative_value_extract_never_writes(tmp_path, capsys, changes, key):
    """Each row keeps net = gross - share - gas, so only a sign is wrong; all
    four at once used to pass, for a negative payout fraction."""
    rows = list(csv.reader(records_text().splitlines()))
    for column, text in changes.items():
        rows[2][column] = text
    path, out = tmp_path / "records.csv", tmp_path / "out"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["analyze", "--records", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: row 3: {key} must be non-negative, got -")
    assert not out.exists()


def test_analyze_holds_no_rows(tmp_path):
    """Traced Python allocations of a 5,000-row analyze peak near 1 MiB; the
    two-pass form, which held every record, peaked at 4.7 MiB."""
    fixture = tmp_path / "fx"
    assert main(["gen-fixtures", "--kind", "records", "--seed", "5", "--count", "5000", "--out", str(fixture)]) == 0
    tracemalloc.start()
    try:
        code = main(["analyze", "--records", str(fixture / "records.csv"), "--out", str(tmp_path / "out")])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def write_unpriced_cycles(trace: Path, count: int) -> str:
    """Write count cycles in an unpriced token whose 2,048-character symbol
    makes each error row take 2 KiB; that symbol."""
    symbol = "X" * 2048
    token = {"symbol": symbol, "address": "0x" + "e1" * 20, "decimals": 18}
    wbnb = {"symbol": "WBNB", "address": "0x" + "bb" * 20, "decimals": 18}
    events = [
        {"kind": "swap", "pool": "0x" + "a1" * 20, "token_in": token, "token_out": wbnb, "amount_in": "10", "amount_out": "20"},
        {"kind": "swap", "pool": "0x" + "a2" * 20, "token_in": wbnb, "token_out": token, "amount_in": "20", "amount_out": "12"},
    ]
    with open(trace, "w", encoding="utf-8") as fh:
        for i in range(count):
            header = {"hash": f"0x{i:064x}", "block": i + 1, "from": "0x" + "11" * 20, "gas_used": 0, "gas_price": 0}
            fh.write(json.dumps({**header, "events": events}) + "\n")
    return symbol


def traced_extract_peak(trace: Path, out: Path, k: int) -> tuple[int, int]:
    """(exit code, traced peak of this process's Python allocations) of
    extract over trace as k spans."""
    tracemalloc.start()
    try:
        with mock.patch.object(cli, "_usable_cpus", return_value=k):
            code = main(["extract", "--traces", str(trace), "--labels", str(DATA / "builder_labels.csv"), "--out", str(out)])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_extract_holds_no_error_rows(tmp_path):
    """1,000 unpriced cycles make 1,000 error rows whose messages alone take
    2 MiB; each row is written as it comes, so the traced peak stays far
    below that.  They run as one span in this process, since tracemalloc
    sees nothing that a worker allocates."""
    trace, out = tmp_path / "traces.ndjson", tmp_path / "out"
    symbol = write_unpriced_cycles(trace, 1000)
    code, peak = traced_extract_peak(trace, out, 1)
    assert code == 1
    with open(out / "errors.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tx_hash", "error"] and len(rows) == 1001
    assert rows[-1] == [f"0x{999:064x}", f"no price for {symbol}"]
    assert peak < 2**20


def test_extract_appends_a_workers_error_rows_in_blocks(tmp_path):
    """As two spans, 2,100 unpriced cycles leave a worker over 2 MiB of
    error rows, which this process appends to errors.csv in bounded blocks:
    its traced peak stays far below their size."""
    trace, out = tmp_path / "traces.ndjson", tmp_path / "out"
    symbol = write_unpriced_cycles(trace, 2100)
    with open(trace, "rb") as fh:
        [_first, (start, end)] = cli._spans(fh, 2)
        fh.seek(start)
        assert sum(1 for _ in cli._lines_to(fh, end)) * len(symbol) > 2 * 2**20
    code, peak = traced_extract_peak(trace, out, 2)
    assert code == 1
    with open(out / "errors.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tx_hash", "error"]
    assert [row[0] for row in rows[1:]] == [f"0x{i:064x}" for i in range(2100)]
    assert rows[-1] == [f"0x{2099:064x}", f"no price for {symbol}"]
    assert peak < 2**20


# SHA-256 of extract's records.csv and analyze's eight reports, taken before
# traced cycles and pool paths shared one route type; a mismatch means the
# pipeline's output changed.  "traces-1" is the seed-1 gen-fixtures trace
# corpus of 2,000 transactions extracted with its run.cfg; "records-5" and
# "records-88" are 500 gen-fixtures records of that seed.  Every corpus
# spans less than a day, so trends.csv holds only its header, and scores
# the same four major tokens for risk.
_MAJORS_RISK = "36d6f95125475110201d49c4aec9942e429510cf5bf968142de373bd65a363c9"
_HEADER_ONLY_TRENDS = "98056a5c61cce5cd08c90bce933131b036708ef19b3e4c75c304bd5182f63d75"
PINNED_PIPELINE_DIGESTS = {
    "traces-1": {
        "records.csv": "861374b9f8d4886a974eea30ee948216b52bddeb47838760d26641aa7baa4d08",
        "complexity_ecdf.csv": "d1a610f6930d14deb9aa129827cbdff8ef1fd510f10c5c48ec8a6ad7dee37490",
        "complexity_hist.csv": "aeb153f1a93c22a75cad0d1900713a1528607837b78750e0201c034646021d1f",
        "correlations.csv": "51faa26e7fdd2451f8a18d8d20df21cfc065273bab0cad23153c4456a944a3d5",
        "profit_matrix.csv": "55f628763798a41c3d1d134a2c5af89fca03de5bdb34c740688b0732aabd5fda",
        "proposer_split.csv": "45cde97263561add021971eca7d1cc25209a53f3a687bbe04747a4335b6532cd",
        "risk_scores.csv": _MAJORS_RISK,
        "shares.csv": "b0ca405d3767a7c44365af42eb9ab202a7470bf30bd6243a46631e24afc718bc",
        "trends.csv": _HEADER_ONLY_TRENDS,
    },
    "records-5": {
        "complexity_ecdf.csv": "2615a83c352164cc9500dcc5965717fc6f0a6a989d6b0e7af4c2b7ae5b0b3d5e",
        "complexity_hist.csv": "6712394aa3555c188404e67267cf85a06d5ab286ed5f2d8e11e696cce0f99b76",
        "correlations.csv": "3756de3e141efdd7097875b522727794d584652f559548a76bf6589581486c96",
        "profit_matrix.csv": "2e16a108bc23b2352d0d59c59cb0c25d9abc6611d779fa833fc7e561e4d60ae8",
        "proposer_split.csv": "fb664fac495d5a4f0e134f96757918e7b6faa7533243bb764f71a02d7f1c6ec4",
        "risk_scores.csv": _MAJORS_RISK,
        "shares.csv": "e5dd7134f0863074b5ea356fe7aaa42c03f4f429a6735f45f262ab92b90cee43",
        "trends.csv": _HEADER_ONLY_TRENDS,
    },
    "records-88": {
        "complexity_ecdf.csv": "37e754bb337d9d038e77970c012c0eaed8032b7de93c596dadb0af5e5bfedef3",
        "complexity_hist.csv": "7d961de4a45de4c4501315e65796b03824fbd583cee1000330ef300dac6d2296",
        "correlations.csv": "ed3d1653b379893e2f7195b42593bc518840200d7a7db02df549d11ad65edddd",
        "profit_matrix.csv": "4c6c6e1959c90d5a83144e2a7b7f054e51550f0fa29b906d1f0965192246d33c",
        "proposer_split.csv": "dba524b48e63f7b8dc9fa400faaad0fc9e2dff2452d6cac51702e2c2d7cca1a7",
        "risk_scores.csv": _MAJORS_RISK,
        "shares.csv": "f6f3096e3a8798683ad38855d2fe8b449adbd8d91dae0e3ac62a3614114d1afc",
        "trends.csv": _HEADER_ONLY_TRENDS,
    },
    # four days of records, so trends.csv holds a Mann-Kendall row per series
    "records-5-5000": {
        "complexity_ecdf.csv": "4d8f38936f7ad176b3a6707115aaf6bb9df9b44dd585fd4396ddad307119830a",
        "complexity_hist.csv": "1f054fb6c8c2a6eae000bfc4df3d45a565492aa54db1752bd92c169643f9ad30",
        "correlations.csv": "6c0df6ce6e9226058e2c8d0137d13b428a73ad42bf766f634563300b007858ab",
        "profit_matrix.csv": "3dc2015aced50e09d68677d03840cc7c9a4a5de6b05741ca675cf852af069926",
        "proposer_split.csv": "5d70aedf6d954a2c6dada059fb1079c6a9de15228b78a185adf068c68bcbcee6",
        "risk_scores.csv": _MAJORS_RISK,
        "shares.csv": "517852ca63e149305d9ff938bdd24c4f009b08cce105250c190a639256db3a89",
        "trends.csv": "a327670a80fc9d3db2b613e880e0c6c14da85d1ecad6e277dbf62df3b78859f5",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_PIPELINE_DIGESTS))
def test_extract_and_analyze_outputs_match_pinned_digests(tmp_path, name):
    kind, seed, *given = name.split("-")  # kind-seed, or kind-seed-count
    fixture = tmp_path / "fx"
    count = given[0] if given else "2000" if kind == "traces" else "500"
    assert main(["gen-fixtures", "--kind", kind, "--seed", seed, "--count", count, "--out", str(fixture)]) == 0
    records_path, outputs = fixture / "records.csv", {}
    if kind == "traces":
        out = tmp_path / "extract"
        inputs = ["--traces", str(fixture / "traces.ndjson"), "--labels", str(fixture / "labels.csv")]
        assert main(["extract", *inputs, "--config", str(fixture / "run.cfg"), "--out", str(out)]) == 0
        records_path = out / "records.csv"
        outputs["records.csv"] = records_path.read_bytes()
    assert main(["analyze", "--records", str(records_path), "--out", str(tmp_path / "analyze")]) == 0
    outputs.update(read_all(tmp_path / "analyze"))
    assert {f: hashlib.sha256(data).hexdigest() for f, data in outputs.items()} == PINNED_PIPELINE_DIGESTS[name]


@pytest.mark.parametrize(
    "timestamp",
    [
        pytest.param("garbage", id="garbage"),
        pytest.param("2025-13-45T99:99:99Z", id="month-13"),
        pytest.param("2025-02-30T00:00:00Z", id="february-30"),
        pytest.param("2025-06-01T24:00:00Z", id="hour-24"),
        pytest.param("0000-06-01T00:00:00Z", id="year-0"),
    ],
)
def test_analyze_rejects_a_malformed_timestamp(tmp_path, capsys, timestamp):
    bad = tmp_path / "bad.csv"
    buffer = io.StringIO()
    write_records(buffer, [sample_record(), sample_record(block_number=101, timestamp_utc=timestamp)])
    bad.write_text(buffer.getvalue())
    assert main(["analyze", "--records", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "row 4: timestamp_utc" in capsys.readouterr().err


@pytest.mark.parametrize("cells", [11, 13])
def test_analyze_names_a_row_of_the_wrong_width_by_its_column_count(tmp_path, capsys, cells):
    """A row one cell short or one cell long fails the column count, not
    the timestamp check, which would read a share_usd or an extra cell."""
    rows = list(csv.reader(records_text().splitlines()))
    rows[2] = rows[2][:11] if cells == 11 else [*rows[2], "extra"]
    path = tmp_path / "records.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["analyze", "--records", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: row 3: expected 12 columns, got {cells}\n"


def test_analyze_writes_an_unsigned_zero_for_a_brand_with_zero_covariance(tmp_path):
    """Profit per hop (usd / hops) averages 2 at two hops and at three, so
    covariance is 0 though both coordinates vary: pearson_r is 0, and a
    negated square root would write it as -0.000000000000."""
    points = [(2, 2), (2, 6), (3, 6), (3, 6)]  # (hops, usd): per hop 1, 3, 2, 2
    rows = [
        sample_record(block_number=100 + i, hop_count=hops, usd_value=Decimal(usd))
        for i, (hops, usd) in enumerate(points)
    ]
    path, out = tmp_path / "records.csv", tmp_path / "out"
    path.write_text(records_text(*rows))
    assert main(["analyze", "--records", str(path), "--out", str(out)]) == 0
    assert (out / "correlations.csv").read_text() == "series,pearson_r\n48Club,0.000000000000\n"


# -- simulate -----------------------------------------------------------------


def test_simulate_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        code = main(
            [
                "simulate",
                "--scenario", str(SCENARIOS / "bsc_duopoly.json"),
                "--slots", "200",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
    assert read_all(out1) == read_all(out2)
    summary = (out1 / "summary.csv").read_text()
    assert summary.splitlines()[0] == "builder_id,wins,win_share,profit,proposer_revenue"


def test_simulate_single_slot(tmp_path):
    out = tmp_path / "s"
    assert (
        main(["simulate", "--scenario", str(SCENARIOS / "bsc_duopoly.json"), "--slots", "1", "--seed", "1", "--out", str(out)])
        == 0
    )
    slots = (out / "slots.csv").read_text().splitlines()
    assert len(slots) == 2  # header plus exactly one slot


def test_simulate_holds_no_slots(tmp_path):
    """Traced Python allocations of a 20,000-slot relay campaign peak near
    0.2 MiB; holding every slot's outcome took 4 MiB."""
    argv = ["simulate", "--scenario", str(SCENARIOS / "eth_duopoly.json"), "--slots", "20000", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        code = main(argv)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


def test_simulate_faults_stop_it_before_slots_csv(tmp_path, capsys):
    """Slots are resolved while slots.csv is written, but a bad slot count
    or a pool fixture without a cycle is found before --out is made."""
    one_pool = pools.dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools).splitlines()[0] + "\n"
    for scenario, slots, message in [
        (SCENARIOS / "eth_duopoly.json", "0", "n_slots must be >= 1"),
        (embodied_scenario(tmp_path, one_pool), "1", "pools: fixture contains no executable cycle"),
    ]:
        out = tmp_path / f"out{slots}"
        assert main(["simulate", "--scenario", str(scenario), "--slots", slots, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param({"embodied_base_symbol": "BUSD"}, "embodied_base_symbol 'BUSD' names no token of the pool file", id="unknown-symbol"),
        pytest.param({"pools": None}, "embodied_base_symbol 'WBNB' is given, but no pools are loaded", id="pools-null"),
        pytest.param({"pools": ""}, "embodied_base_symbol 'WBNB' is given, but no pools are loaded", id="pools-empty"),
    ],
)
def test_simulate_embodied_base_symbol_must_name_a_pool_token(tmp_path, capsys, edit, message):
    pool_text = pools.dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools)
    scenario = embodied_scenario(tmp_path, pool_text, {**EMBODIED_SCENARIO, **edit})
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(scenario), "--slots", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid scenario keys: {message}\n"
    assert not out.exists()


def test_simulate_invalid_scenario_fails(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"protocol": "nope", "opportunity": {}}))
    assert main(["simulate", "--scenario", str(bad), "--slots", "1", "--seed", "1", "--out", str(tmp_path / "o")]) == 1


def duopoly_text(edit) -> str:
    obj = json.loads((SCENARIOS / "eth_duopoly.json").read_text())
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"protocol": "bsc_direct",', id="malformed-json"),
        pytest.param("[1, 2]", id="top-level-array"),
        pytest.param(duopoly_text(lambda o: o["proposers"].update(count="abc")), id="count-not-integer"),
        pytest.param(duopoly_text(lambda o: o["builders"].__setitem__(0, "alpha")), id="builder-not-object"),
        pytest.param(duopoly_text(lambda o: o.update(opportunity=[1])), id="opportunity-not-object"),
        pytest.param(duopoly_text(lambda o: o.update(proposers=5)), id="proposers-not-object"),
        pytest.param(duopoly_text(lambda o: o.update(relay=None)), id="relay-not-object"),
        pytest.param(duopoly_text(lambda o: o.update(base_compute_ms=-1000)), id="negative-base-compute"),
        pytest.param(duopoly_text(lambda o: o["proposers"].update(rotation="random")), id="unknown-rotation"),
        pytest.param(duopoly_text(lambda o: o["builders"][0].update(id="al\ud800")), id="builder-id-lone-surrogate"),
        pytest.param(duopoly_text(lambda o: o["proposers"].update({"\ud800": 1})), id="key-lone-surrogate"),
    ],
)
def test_simulate_broken_scenario_is_a_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["simulate", "--scenario", str(bad), "--slots", "1", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: invalid scenario keys: ")


def test_simulate_missing_scenario_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--scenario", str(missing), "--slots", "1", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: invalid scenario keys: {missing}: ")


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(lambda o: o.update(listen_windw_ms=5), "listen_windw_ms", id="top-level"),
        pytest.param(lambda o: o["relay"].update(rebid_enabled=False), "rebid_enabled", id="relay"),
        pytest.param(lambda o: o["opportunity"].update(peak=1), "peak", id="opportunity"),
        pytest.param(lambda o: o["builders"][1].update(latency=1), "latency", id="builder"),
        # horizon_ms is a top-level key, so the proposers section does not read it
        pytest.param(lambda o: o["proposers"].update(horizon_ms=1), "horizon_ms", id="proposers"),
        # keys the protocol's flow never reads: the direct flow has no relay,
        # and the relay flow no listen window or non-delivery
        pytest.param(lambda o: o.update(protocol="bsc_direct"), "relay", id="direct-relay"),
        pytest.param(lambda o: o.update(listen_window_ms=5), "listen_window_ms", id="relay-listen-window"),
        pytest.param(lambda o: o["builders"][1].update(non_delivery_prob=0.3), "non_delivery_prob", id="relay-non-delivery"),
    ],
)
def test_simulate_unknown_scenario_key_is_a_config_error(tmp_path, capsys, edit, key):
    bad = tmp_path / "bad.json"
    bad.write_text(duopoly_text(edit))
    assert main(["simulate", "--scenario", str(bad), "--slots", "1", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario keys: ")
    assert f"unknown keys {key}" in err


@pytest.mark.parametrize(
    "name, key, value",
    [
        pytest.param("bsc_duopoly.json", "horizon_ms", "3000", id="top-level"),
        pytest.param("eth_duopoly.json", "rebids_enabled", "true", id="relay"),
    ],
)
def test_simulate_repeated_scenario_key_is_a_config_error(tmp_path, capsys, name, key, value):
    """json keeps a repeated key's last value: a second horizon_ms of 40
    would make every slot fall back."""
    bad = tmp_path / "bad.json"
    given = f'"{key}": {value}'
    bad.write_text((SCENARIOS / name).read_text().replace(given, f'{given}, "{key}": 40', 1))
    assert main(["simulate", "--scenario", str(bad), "--slots", "1", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: invalid scenario keys: {bad}: duplicate key '{key}'\n"


def embodied_scenario(directory: Path, pool_text: str, scenario_obj=None) -> Path:
    """scenario_obj (by default EMBODIED_SCENARIO) written to directory
    beside the pool file it names."""
    (directory / "pools.ndjson").write_text(pool_text)
    scenario = directory / "embodied.json"
    scenario.write_text(json.dumps(scenario_obj or EMBODIED_SCENARIO))
    return scenario


def pool_lines_with(edit) -> str:
    """The seed-13 pool fixture with its second line replaced by edit(obj)."""
    lines = pools.dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools).splitlines()
    lines[1] = edit(json.loads(lines[1]))
    return "\n".join(lines) + "\n"


def v3_line_with(**values):
    def edit(obj):
        fixture_pools = fixtures.gen_pool_fixture(seed=13).pools.values()
        v3 = pools.pool_to_obj(next(p for p in fixture_pools if p.kind is pools.PoolKind.V3))
        return json.dumps({**v3, "address": obj["address"], **values})

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda o: json.dumps({k: v for k, v in o.items() if k != "token1"}), "missing key 'token1'", id="missing-key"),
        pytest.param(lambda o: json.dumps(list(o.values())), "", id="array"),
        pytest.param(lambda o: json.dumps({**o, "token0": "WBNB"}), "", id="token0-not-object"),
        pytest.param(lambda o: json.dumps({**o, "address": 5}), "", id="address-number"),
        pytest.param(lambda o: json.dumps({**o, "fee_ppm": 2500.9}), "", id="fee-float"),
        pytest.param(lambda o: json.dumps(o)[:-1], "", id="invalid-json"),
        pytest.param(lambda o: json.dumps({**o, "reserve0": True}), "", id="reserve-bool"),
        pytest.param(lambda o: json.dumps({**o, "reserve1": "1e21"}), "", id="reserve-exponent-string"),
        pytest.param(v3_line_with(liquidity=10.0**21), "", id="liquidity-float"),
        pytest.param(v3_line_with(sqrt_price_x96="-1"), "", id="sqrt-price-signed-string"),
        pytest.param(v3_line_with(sqrt_price_x96=str(2**160 + 1)), "", id="sqrt-price-above-max"),
        pytest.param(lambda o: json.dumps({**o, "token0": {**o["token0"], "symbol": None}}), "", id="symbol-null"),
        pytest.param(lambda o: json.dumps({**o, "token1": {**o["token1"], "symbol": 5}}), "", id="symbol-number"),
        pytest.param(lambda o: json.dumps(o)[:-1] + ', "fee_ppm": 3000}', "", id="repeated-key"),
        # line 1 holds pool 0x1221... over WBNB/USDT; line 2 is a USDT/USD1 pool
        pytest.param(lambda o: json.dumps({**o, "address": "0x1221b5a22155a41c2ff7c0fcbbe8f88da415c4c8"}), "", id="address-repeated"),
        pytest.param(lambda o: json.dumps({**o, "token0": {**o["token0"], "address": "0x" + "ee" * 20}}), "", id="symbol-reused"),
        pytest.param(lambda o: json.dumps({**o, "bogus": 1}), "v2 pool: unknown keys 'bogus'", id="unknown-key"),
        pytest.param(
            lambda o: json.dumps({**o, "liquidity": "5", "bogus": 1}), "v2 pool: unknown keys 'bogus', 'liquidity'", id="other-kind-key"
        ),
        pytest.param(v3_line_with(reserve0="5"), "v3 pool: unknown keys 'reserve0'", id="other-kind-key-v3"),
        pytest.param(lambda o: json.dumps({**o, "token1": {**o["token1"], "name": "x"}}), "token1: unknown keys 'name'", id="token-unknown-key"),
    ],
)
def test_simulate_malformed_pool_file_names_the_line(tmp_path, capsys, edit, message):
    scenario = embodied_scenario(tmp_path, pool_lines_with(edit))
    assert main(["simulate", "--scenario", str(scenario), "--slots", "1", "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: invalid scenario keys: pools: line 2: {message}")


@pytest.mark.parametrize(
    "edit, faults",
    [
        pytest.param({}, [], id="pool-fault-only"),
        pytest.param({"horizon_ms": "soon"}, ["horizon_ms: expected a number, got 'soon'"], id="horizon-text"),
        pytest.param({"horizon_ms": -5}, ["horizon_ms: must be > 0"], id="horizon-negative"),
        pytest.param({"embodied_base_symbol": 5}, ["embodied_base_symbol: expected a string, got 5"], id="symbol-number"),
    ],
)
def test_simulate_pool_file_fault_adds_no_symbol_fault(tmp_path, capsys, edit, faults):
    """A pool file cut mid-line is its own fault; the symbol that could
    name none of its tokens adds none, and every other fault is listed."""
    cut = pools.dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools)[:60]
    scenario = embodied_scenario(tmp_path, cut, {**EMBODIED_SCENARIO, **edit})
    assert main(["simulate", "--scenario", str(scenario), "--slots", "1", "--out", str(tmp_path / "o")]) == 1
    pool_fault, *others = capsys.readouterr().err.removesuffix("\n").split("; ")
    assert pool_fault.startswith("error: invalid scenario keys: pools: line 1: Unterminated string")
    assert others == faults


def test_simulate_over_a_v3_pool_at_the_end_of_its_range(tmp_path, capsys):
    """CAKE/USDT sits at the top sqrt price, so USDT in pays out 0 and the
    WBNB -> USDT -> CAKE -> WBNB cycle dies at that hop as dust.  The two
    V2 pools are so lopsided that this cycle has the highest profit bound,
    so it is searched; no cycle is profitable and every slot falls back."""
    wbnb, usdt, cake = (TokenId(symbol, bytes([i]) * 20, 18) for i, symbol in enumerate(("WBNB", "USDT", "CAKE"), 1))
    pool_map = {
        p.address: p for p in (
            pools.PoolState(bytes([11]) * 20, pools.PoolKind.V2, wbnb, usdt, 3000, reserve0=10**6, reserve1=10**30),
            pools.PoolState(bytes([12]) * 20, pools.PoolKind.V3, cake, usdt, 3000, liquidity=10**22, sqrt_price_x96=2**160),
            pools.PoolState(bytes([13]) * 20, pools.PoolKind.V2, wbnb, cake, 3000, reserve0=10**30, reserve1=10**6),
        )
    }
    scenario = embodied_scenario(tmp_path, pools.dump_pool_file(pool_map))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(scenario), "--slots", "50", "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("slots=50 top=pair:0 fallback_rate=1.000000\n", "")
    assert (out / "slots.csv").exists() and (out / "summary.csv").exists()


def repeat_first_builder(obj):
    obj["builders"][1]["id"] = obj["builders"][0]["id"]


@pytest.mark.parametrize(
    "edit, faults",
    [
        pytest.param(
            lambda o: (o.update(horizon_ms=-5, base_compute_ms=-1), repeat_first_builder(o)),
            ["horizon_ms: must be > 0", "base_compute_ms: must be >= 0", "builders: duplicate ids"],
            id="three-top-level",
        ),
        pytest.param(lambda o: o["relay"].update(delay_ms=-1), ["relay: delay_ms: must be >= 0"], id="relay-delay"),
        pytest.param(
            lambda o: o["proposers"].update(count=0, rotation="x"),
            ["proposers: count: must be >= 1", "proposers: rotation: expected 'round_robin', got 'x'"],
            id="proposers-count-rotation",
        ),
        pytest.param(
            lambda o: o["builders"][1].update(latency_ms=-1, infra_tier=0),
            ["builders[1]: latency_ms: must be >= 0", "builders[1]: infra_tier: must be > 0"],
            id="builder-named-once",
        ),
        # a protocol that does not read leaves no key unread, so relay is no unknown key
        pytest.param(
            lambda o: o.update(protocol="eth_rely"),
            ["protocol: expected 'bsc_direct' or 'eth_relay', got 'eth_rely' ('eth_rely' is not a valid Protocol)"],
            id="protocol-mistyped",
        ),
        pytest.param(lambda o: o.pop("protocol"), ["missing protocol"], id="protocol-missing"),
        # tail_value is checked only against a peak_value or gas_floor that passed its own check
        pytest.param(
            lambda o: o.update(opportunity={"peak_value": -1, "gas_floor": -3, "knee_ms": 500}),
            [
                "opportunity: peak_value: must be >= 0",
                "opportunity: gas_floor: must be >= 0",
                "opportunity: knee_ms: must be >= 0 and below deadline_ms",
            ],
            id="opportunity-peak-and-floor",
        ),
        pytest.param(
            lambda o: o["opportunity"].update(gas_floor=-1, tail_value=5),
            ["opportunity: gas_floor: must be >= 0"],
            id="opportunity-floor-with-tail",
        ),
        # decay takes the one curve's name, as rotation takes round_robin
        pytest.param(
            lambda o: o["opportunity"].update(decay="exponential"),
            ["opportunity: decay: expected 'piecewise', got 'exponential'"],
            id="opportunity-decay",
        ),
        # a nested fault hides no top-level check; nested faults come first, as they are read first
        pytest.param(
            lambda o: (o.update(horizon_ms=-5), o["builders"][1].update(latency_ms=-1), o["relay"].update(delay_ms=-1)),
            ["builders[1]: latency_ms: must be >= 0", "relay: delay_ms: must be >= 0", "horizon_ms: must be > 0"],
            id="nested-and-top-level",
        ),
        # a check reads no key that did not read: builders did not, so its ids are not compared
        pytest.param(
            lambda o: (o["builders"][1].update(latency_ms="x"), repeat_first_builder(o)),
            ["builders[1]: latency_ms: expected a number, got 'x'"],
            id="builder-unread-beside-a-repeated-id",
        ),
        # nor is an unread knee_ms taken as its default 100, which a deadline_ms of 50 would fault
        pytest.param(
            lambda o: o["opportunity"].update(knee_ms="soon", deadline_ms=50),
            ["opportunity: knee_ms: expected a number, got 'soon'"],
            id="knee-unread",
        ),
    ],
)
def test_simulate_lists_every_value_fault_by_its_key(tmp_path, capsys, edit, faults):
    bad = tmp_path / "bad.json"
    bad.write_text(duopoly_text(edit))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(bad), "--slots", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid scenario keys: {'; '.join(faults)}\n"
    assert not out.exists()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["bsc_duopoly.json", "eth_duopoly.json"]), data=st.data())
def test_simulate_lists_a_nested_fault_and_a_top_level_one(tmp_path, capsys, name, data):
    """A fault in a section hides no top-level check: both are listed, the
    nested one first, as it is read first."""
    doc = json.loads((SCENARIOS / name).read_text())
    unread = UNREAD_KEYS[Protocol(doc["protocol"])]
    top_path, top_value, top_fault = data.draw(strategies.one_key_faults(doc, nested=False, unread=unread), label="top")
    path, value, fault = data.draw(strategies.one_key_faults(doc, nested=True, unread=unread), label="nested")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(strategies.replaced(strategies.replaced(doc, top_path, top_value), path, value)))
    assert main(["simulate", "--scenario", str(bad), "--slots", "1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: invalid scenario keys: {fault}; {top_fault}\n"


# A direct-flow scenario whose slots depend on the non-delivery draws and on
# per-proposer blacklists.
FLAKY_SCENARIO = {
    "protocol": "bsc_direct",
    "horizon_ms": 3000,
    "listen_window_ms": 50,
    "builders": [
        {"id": "alpha", "latency_ms": 10, "share_ratio_bp": 9000, "non_delivery_prob": 0.3},
        {"id": "beta", "latency_ms": 12, "share_ratio_bp": 2500, "non_delivery_prob": 0.1},
        {"id": "gamma", "latency_ms": 15, "share_ratio_bp": 100},
    ],
    "opportunity": {"peak_value": 10**9, "gas_floor": 1000},
    "proposers": {"count": 3, "blacklist_slots": 20},
}

# A direct-flow scenario priced by pool search over the seed-13 pool fixture
# (written beside it as pools.ndjson), with non-delivery and blacklists.
EMBODIED_SCENARIO = {
    "protocol": "bsc_direct",
    "horizon_ms": 3000,
    "builders": [
        {"id": "tri", "latency_ms": 10, "share_ratio_bp": 2500, "strategy": "mixed", "non_delivery_prob": 0.3},
        {"id": "pair", "latency_ms": 10, "share_ratio_bp": 2500, "strategy": "short_hop"},
        {"id": "slow", "latency_ms": 15, "share_ratio_bp": 4000, "strategy": "long_hop", "non_delivery_prob": 0.1},
    ],
    "proposers": {"count": 3, "blacklist_slots": 20},
    "opportunity": {"peak_value": 10**9, "gas_floor": 1000},
    "pools": "pools.ndjson",
    "embodied_base_symbol": "WBNB",
}

# The relay flow without rebids: one sealed bid per builder, delivered late
# enough that alpha's bid has decayed past the knee.
RELAY_SEALED_SCENARIO = json.loads(duopoly_text(lambda o: o["relay"].update(rebids_enabled=False, delay_ms=100)))

# The relay flow with rebids, priced by pool search; the relay always
# delivers, so its builders have no non-delivery probability.
RELAY_EMBODIED_SCENARIO = {
    **EMBODIED_SCENARIO,
    "protocol": "eth_relay",
    "horizon_ms": 12000,
    "builders": [{k: v for k, v in b.items() if k != "non_delivery_prob"} for b in EMBODIED_SCENARIO["builders"]],
}

# SHA-256 of (slots.csv, summary.csv) for 2,000 slots per scenario and seed,
# taken from a simulator that rebuilt every slot's bids from scratch (the
# embodied ones from a pool search that copied the pool map on every run;
# the relay-* ones from separate direct and relay bid builders); a mismatch
# means the simulated behaviour changed.
_BSC_DUOPOLY = (
    "7c6f18377b9c49c950a3e685a3f70307eb9ae4ac9359e8f0559de9b1f799f4fc",
    "604dc834a9884d82739fe515946729ec3316bdf3c212a11b6b904a2f70c58022",
)
_ETH_DUOPOLY = (
    "a74016e066f21555a5aedd4f4163216ad748aa82a3b51f0b1066f77d3e427a87",
    "a4ddc076e2079bea548bff2e66853abdc5e9cd7c5da0f1847c780c4bde40f52a",
)
PINNED_SIMULATE_DIGESTS = {
    "bsc_duopoly.json": dict.fromkeys((1, 7, 42), _BSC_DUOPOLY),
    "eth_duopoly.json": dict.fromkeys((1, 7, 42), _ETH_DUOPOLY),
    "embodied": {
        1: (
            "878552d310b48497ee29855b1bc0d4c89fac87312a61ad74a96ae66fef40d586",
            "9fdd0861c8c1a944c62d010799c0fb05541a4081e6d0f1d23b020e81584aa58e",
        ),
        7: (
            "186b2979661dc61cc2bec122b09715b7f2061aaf4cbd540e7d76a2043931aac9",
            "495d5024dc4825cc78b37692d2b2f501876c2b0ceec377f91267b38d13b1620f",
        ),
        42: (
            "395ae483bc6ac1ee31fa51d585c2ffd03f8bd9b1e0e6b55b1e00c1412e4bf1d1",
            "eb3f9abf89d4ec91e655e1167b97171b85227e7086b8e69b4cdf0d836884b632",
        ),
    },
    "relay-embodied": dict.fromkeys(
        (1, 7, 42),
        (
            "0ad0fb477497f35526f23fdd97a0b1dd20d3789c88d6cb5e3070c474450a6d89",
            "1284c0be1037d7076adfc32a65f936f392925cd38bc8622a881710cd3b83d718",
        ),
    ),
    "relay-sealed": dict.fromkeys(
        (1, 7, 42),
        (
            "8c82d7dcb667ffc992878a0dc24db880938dcfee13adb2d72a51a178fb512f45",
            "e6053f6a4f8c2f86544b5071e79fb29a57ae867d13751949a79a94d9a8c922f8",
        ),
    ),
    "flaky": {
        1: (
            "1daed6b162dd9acacfee686b879ba03e487b65b3fd0db6d1200d4eebb5c1f2ec",
            "79f14119d622dc22d171d7e7d3ad5d3398ace60c9611fcf3bed3cc9d5f7bc880",
        ),
        7: (
            "1b63236047f1f717c53f6d75daa055db8361b77a13101925a756b7689dc21c5a",
            "bd532fb7a4a14b47ccf68ef1ff41c6871dfd334ae77c0f98a849d4c55e0116c2",
        ),
        42: (
            "826be743af0348d50114abd827d4e2c19671c44389880d78355c2ecc7339a498",
            "c3ce45ff02de1cb7a137f0a12ab501ea5f3ea3ef3b3705366d3a22a3882b7367",
        ),
    },
}


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("name", sorted(PINNED_SIMULATE_DIGESTS))
def test_simulate_outputs_match_pinned_digests(tmp_path, name, seed):
    plain = {"flaky": FLAKY_SCENARIO, "relay-sealed": RELAY_SEALED_SCENARIO}
    pooled = {"embodied": EMBODIED_SCENARIO, "relay-embodied": RELAY_EMBODIED_SCENARIO}
    scenario = SCENARIOS / name
    if name in plain:
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(plain[name]))
    if name in pooled:
        pool_text = pools.dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools)
        scenario = embodied_scenario(tmp_path, pool_text, pooled[name])
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--slots", "2000", "--seed", str(seed), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("slots.csv", "summary.csv"))
    assert digests == PINNED_SIMULATE_DIGESTS[name][seed]


def test_simulate_makes_a_proposer_blacklist_only_when_it_proposes(tmp_path):
    """A trillion proposers cost nothing until they propose: ten slots
    read the same as with ten proposers."""
    outputs = []
    for count in (10, 10**12):
        scenario = tmp_path / f"proposers-{count}.json"
        scenario.write_text(json.dumps({**FLAKY_SCENARIO, "proposers": {"count": count, "blacklist_slots": 20}}))
        out = tmp_path / f"sim-{count}"
        assert main(["simulate", "--scenario", str(scenario), "--slots", "10", "--seed", "7", "--out", str(out)]) == 0
        outputs.append(read_all(out))
    assert outputs[0] == outputs[1]


# -- hostile input, end to end ------------------------------------------------

# One valid input of each format, edited at one site by the no-traceback
# property: a JSON value at a path of a trace line, a pool line or a
# scenario, and text in a cell of a label or records file or as a config
# line.
HOSTILE_JSON = {
    "trace": json.loads((DATA / "worked_example_trace.ndjson").read_text()),
    "pools": [json.loads(line) for line in pools.dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools).splitlines()],
    **{name: json.loads((SCENARIOS / name).read_text()) for name in ("bsc_duopoly.json", "eth_duopoly.json")},
    "embodied.json": EMBODIED_SCENARIO,
}
HOSTILE_ROWS = {
    "labels": list(csv.reader((DATA / "builder_labels.csv").read_text().splitlines())),
    "records": list(csv.reader(records_text(sample_record(), sample_record(block_number=101, builder_brand="X")).splitlines())),
    "config": [[line] for line in ("share_addresses = 0x" + "ff" * 19 + "fe", "price_table.WBNB = 600.50", "alpha = 0.01")],
}
HOSTILE_SITES = [
    *((name, path) for name, doc in HOSTILE_JSON.items() for path in strategies.json_paths(doc) if name != "pools" or path),
    *((name, (i, j)) for name, rows in HOSTILE_ROWS.items() for i, row in enumerate(rows) for j in range(len(row))),
]


def hostile_argv(tmp_path: Path, name: str, path: tuple, value) -> list[str]:
    """The command that reads the input name with value at path, every
    other input valid; simulate runs 3 slots."""
    docs, rows = dict(HOSTILE_JSON), dict(HOSTILE_ROWS)
    edited = docs if name in docs else rows
    edited[name] = strategies.replaced(edited[name], path, value)
    for kind, kind_rows in rows.items():
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(kind_rows)
        text = "".join(line + "\n" for line, in kind_rows) if kind == "config" else buffer.getvalue()
        (tmp_path / kind).write_bytes(text.encode("utf-8", "surrogatepass"))  # a lone surrogate is not UTF-8
    (tmp_path / "trace").write_text(json.dumps(docs["trace"]) + "\n")
    (tmp_path / "pools.ndjson").write_text("".join(json.dumps(line) + "\n" for line in docs["pools"]))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(docs[name if name.endswith(".json") else "embodied.json"]))
    if name in ("trace", "labels", "config"):
        return ["extract", "--traces", str(tmp_path / "trace"), "--labels", str(tmp_path / "labels"), "--config", str(tmp_path / "config")]
    if name == "records":
        return ["analyze", "--records", str(tmp_path / "records")]
    return ["simulate", "--scenario", str(scenario), "--slots", "3"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(site=st.sampled_from(HOSTILE_SITES), data=st.data())
def test_any_edit_of_any_input_exits_0_or_1(tmp_path, capsys, site, data):
    """capsys makes stderr strict UTF-8, so no error message may carry a
    lone surrogate either.  Bids stay few: one site changes, so either
    optimization_rounds or horizon_ms over rebid_interval_ms keeps its
    bundled size."""
    name, path = site
    value = data.draw(strategies.json_values if name in HOSTILE_JSON else st.text(max_size=30), label="value")
    assert main([*hostile_argv(tmp_path, name, path, value), "--out", str(tmp_path / "o")]) in (0, 1)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["extract", "--traces", "missing", "--labels", str(DATA / "builder_labels.csv")], id="extract-no-traces"),
        pytest.param(["extract", "--traces", str(DATA / "worked_example_trace.ndjson"), "--labels", "missing"], id="extract-no-labels"),
        pytest.param(["analyze", "--records", "missing"], id="analyze-no-records"),
        pytest.param(["simulate", "--scenario", "missing", "--slots", "1"], id="simulate-no-scenario"),
        pytest.param(["simulate", "--scenario", str(DATA / "builder_labels.csv"), "--slots", "1"], id="simulate-bad-scenario"),
    ],
)
def test_a_run_that_fails_on_its_input_makes_no_out_directory(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [str(tmp_path / "missing") if arg == "missing" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# -- gen-fixtures -------------------------------------------------------------


def test_gen_fixtures_deterministic(tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    for out in (out1, out2):
        assert main(["gen-fixtures", "--kind", "traces", "--seed", "11", "--count", "50", "--out", str(out)]) == 0
    assert read_all(out1) == read_all(out2)


# SHA-256 of gen-fixtures --kind traces output, taken while the generator
# still held the whole corpus; drawing and writing it a transaction at a
# time moves no byte.  At --count 0 the planted list renders as [].  At
# --count 1 (taken while the manifest held the planted list) the one
# transaction plants no cycle, so an empty spool must also render as [].
_GEN_LABELS = "d10d29d8c597c3ee1f5b50e8bd9d97b3d82e3b05f1fcbe963342d149dc07487b"
_GEN_RUN_CFG = "20bf986f5f279bbc2e65cf529d541437fadc954607b7dcf013cf0c5c9af1e6f3"
PINNED_TRACE_FIXTURE_DIGESTS = {
    "2000": {
        "labels.csv": _GEN_LABELS,
        "manifest.json": "4daa40fbdc591fa095232f4c60d764e8b7698218e09ccc318ab20b015b410f34",
        "run.cfg": _GEN_RUN_CFG,
        "traces.ndjson": "f51f31cf8e2fdaa83174bf130d21b01c07997dcd7fda2773e75fea45eafe5b6c",
    },
    "0": {
        "labels.csv": _GEN_LABELS,
        "manifest.json": "47f17453639b60b2fb358250e831ba4aa5fd1b2292ac064bd5b1e514ac98e173",
        "run.cfg": _GEN_RUN_CFG,
        "traces.ndjson": hashlib.sha256(b"").hexdigest(),
    },
    "1": {
        "labels.csv": _GEN_LABELS,
        "manifest.json": "0ce7d63debc658cf791c4318b2eb0b10ceea447f9a11897e8ad46157585bf9c0",
        "run.cfg": _GEN_RUN_CFG,
        "traces.ndjson": "a53d4c71259f30323617117763545704191f11a7d4dd81ea2d40a69a16719a9a",
    },
}


@pytest.mark.parametrize("count", sorted(PINNED_TRACE_FIXTURE_DIGESTS))
def test_gen_fixtures_traces_match_pinned_digests(tmp_path, count):
    assert main(["gen-fixtures", "--kind", "traces", "--seed", "1", "--count", count, "--out", str(tmp_path)]) == 0
    written = {name: hashlib.sha256(data).hexdigest() for name, data in read_all(tmp_path).items()}
    assert written == PINNED_TRACE_FIXTURE_DIGESTS[count]


# a trace manifest's shape, over text json must escape and any integers
_MANIFEST_INTS = st.integers() | st.sampled_from([-(10**80), -1, 0, 10**80])
_PLANTED_ENTRIES = st.fixed_dictionaries(
    {
        "tx_hash": strategies.escaped_text,
        "base_token": strategies.escaped_text,
        "path": st.lists(strategies.escaped_text, min_size=1, max_size=4),
        "pools": st.lists(strategies.escaped_text, min_size=1, max_size=3),
        "hop_count": _MANIFEST_INTS,
        "gross": _MANIFEST_INTS,
        "share": _MANIFEST_INTS,
        "net": _MANIFEST_INTS,
    }
)
_TRACE_MANIFESTS = st.fixed_dictionaries(
    {
        "kind": st.just("traces"),
        "seed": _MANIFEST_INTS,
        "transactions": _MANIFEST_INTS,
        "share_address": strategies.escaped_text,
        "tokens": st.lists(strategies.escaped_text, max_size=3),
        "planted": st.lists(_PLANTED_ENTRIES, max_size=4),
        "planted_cycles": _MANIFEST_INTS,
        "non_cycles": _MANIFEST_INTS,
    }
)
_ONE_ENTRY = {
    "tx_hash": "0x" + "ab" * 32, "base_token": 'W"\\\x01\u00e9\ud800', "path": ["\U0001f600", "\n"], "pools": ["0x" + "00" * 20],
    "hop_count": 1, "gross": -(10**80), "share": 0, "net": 10**80,
}


def json_manifest(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def spool(fh, planted: list) -> None:
    """Write the entries to fh through _spool_planted, each drawn with a
    transaction that is None."""
    list(_spool_planted(fh, ((None, entry) for entry in planted)))


@settings(max_examples=150, deadline=None)
@given(manifest=_TRACE_MANIFESTS)
@example(manifest={"kind": "traces", "planted": []})
@example(manifest={"kind": "traces", "planted": [_ONE_ENTRY]})
@example(manifest={"kind": "traces", "planted": [_ONE_ENTRY, {**_ONE_ENTRY, "share": 1}]})
def test_write_manifest_writes_what_json_dump_writes(tmp_path_factory, manifest):
    """The manifest's other keys, with the planted entries spooled, write
    as json.dump writes the manifest with its planted list."""
    out = tmp_path_factory.mktemp("manifest")
    head = {key: value for key, value in manifest.items() if key != "planted"}
    with open(out / "spool", "w+", encoding="utf-8", newline="") as planted:
        spool(planted, manifest["planted"])
        _write_manifest(out, head, planted)
    assert (out / "manifest.json").read_text(encoding="utf-8") == json_manifest(manifest)


# edits after which json.dump would write a planted entry other than as the format string does
_MISFIT_ENTRIES = {
    "extra-key": lambda e: {**e, "extra": 0},
    "missing-key": lambda e: {k: v for k, v in e.items() if k != "share"},
    "empty-path": lambda e: {**e, "path": []},
    "empty-pools": lambda e: {**e, "pools": []},
    "path-as-tuple": lambda e: {**e, "path": tuple(e["path"])},
    "path-as-text": lambda e: {**e, "path": "ab"},
    "int-in-pools": lambda e: {**e, "pools": [*e["pools"], 7]},
    "int-symbol": lambda e: {**e, "base_token": 7},
    "bool-gross": lambda e: {**e, "gross": True},
    "float-net": lambda e: {**e, "net": 1.0},
    "not-a-dict": lambda e: sorted(e.items()),
}


@settings(max_examples=100, deadline=None)
@given(manifest=_TRACE_MANIFESTS.filter(lambda m: m["planted"]), edit=st.sampled_from(sorted(_MISFIT_ENTRIES)), data=st.data())
def test_write_manifest_raises_on_a_misfit_entry_leaving_a_prefix_of_json(tmp_path_factory, manifest, edit, data):
    """A misfit entry raises before its text reaches the spool, so the
    spool holds the start of json's text of the planted list."""
    at = data.draw(st.integers(0, len(manifest["planted"]) - 1), label="at")
    manifest["planted"][at] = _MISFIT_ENTRIES[edit](manifest["planted"][at])
    tmp = tmp_path_factory.mktemp("manifest")
    with open(tmp / "spool", "w", encoding="utf-8", newline="") as planted, pytest.raises((ValueError, TypeError)):
        spool(planted, manifest["planted"])
    _head, _, planted_text = json_manifest(manifest).partition('\n  "planted": ')
    assert planted_text.startswith((tmp / "spool").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def gen_traces_peaks(tmp_path_factory):
    """Traced Python allocation peak of gen-fixtures --kind traces (seed
    101) by --count, after an untraced run has done any first-call work."""
    def run(count, out):
        return main(["gen-fixtures", "--kind", "traces", "--seed", "101", "--count", str(count), "--out", str(out)])

    assert run(500, tmp_path_factory.mktemp("warm")) == 0
    peaks = {}
    for count in (500, 5000):
        out = tmp_path_factory.mktemp(f"gen{count}")
        tracemalloc.start()
        try:
            code = run(count, out)
            _current, peaks[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["labels.csv", "manifest.json", "run.cfg", "traces.ndjson"]
    return peaks


def test_gen_fixtures_traces_holds_no_corpus(gen_traces_peaks):
    """Traced Python allocations of a 5,000-transaction trace corpus peak
    near 0.3 MiB, since the planted entries go to a spool file as they are
    drawn; holding them in the manifest took 3.9 MiB, and holding every
    transaction and the whole file as one string 37 MiB."""
    assert gen_traces_peaks[5000] < 2 * 2**20


def test_gen_fixtures_traces_peak_is_flat_in_count(gen_traces_peaks):
    """Ten times the transactions raise the traced peak by under 0.25 MiB:
    nothing gen-fixtures holds grows with --count."""
    assert abs(gen_traces_peaks[5000] - gen_traces_peaks[500]) < 2**20 / 4


def test_gen_fixtures_pools_pass_invariants(tmp_path):
    out = tmp_path / "pools"
    assert main(["gen-fixtures", "--kind", "pools", "--seed", "2", "--out", str(out)]) == 0
    from mevforge.pools import load_pool_file

    with open(out / "pools.ndjson", encoding="utf-8") as fh:
        pools = load_pool_file(fh)
    assert len(pools) == 4  # construction re-runs PoolState validation


def test_gen_fixtures_records_load_cleanly(tmp_path):
    out = tmp_path / "records"
    assert main(["gen-fixtures", "--kind", "records", "--seed", "2", "--count", "40", "--out", str(out)]) == 0
    with open(out / "records.csv", encoding="utf-8") as fh:
        assert len(read_records(fh)) == 40


# SHA-256 of gen-fixtures --kind pools and --kind records output at seed 2.
PINNED_FIXTURE_DIGESTS = {
    "pools": {
        "manifest.json": "4c15f2e89f87005ffb0502fcff622c7611ea2d0a8415a46962975b18435d92e5",
        "pools.ndjson": "08513805b3ae1dcdfeb664cf8aca82cfe1f546e05dc74bbfcf678f69d1968095",
    },
    "records": {
        "manifest.json": "d569939ab8ed7b6f8bc69c0b69735fd34e1201cb5f688de40d1fe92216827f57",
        "records.csv": "4f994475f6ac68edc616b8d3d2caf88e42362068372e9aa75c494f5b6a6d4838",
    },
}


@pytest.mark.parametrize("argv", [["--kind", "pools"], ["--kind", "records", "--count", "40"]], ids=["pools", "records"])
def test_gen_fixtures_pools_and_records_match_pinned_digests(tmp_path, argv):
    assert main(["gen-fixtures", *argv, "--seed", "2", "--out", str(tmp_path)]) == 0
    written = {name: hashlib.sha256(data).hexdigest() for name, data in read_all(tmp_path).items()}
    assert written == PINNED_FIXTURE_DIGESTS[argv[1]]


def test_gen_fixtures_count_means_what_it_says(tmp_path, capsys):
    traces, rows = tmp_path / "traces", tmp_path / "records"
    assert main(["gen-fixtures", "--kind", "traces", "--count", "0", "--out", str(traces)]) == 0
    assert (traces / "traces.ndjson").read_text() == ""
    assert json.loads((traces / "manifest.json").read_text())["transactions"] == 0
    assert main(["gen-fixtures", "--kind", "records", "--count", "0", "--out", str(rows)]) == 0
    with open(rows / "records.csv", encoding="utf-8") as fh:
        assert read_records(fh) == []
    for kind in ("traces", "records"):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-fixtures", "--kind", kind, "--count", "-5", "--out", str(tmp_path / "negative")])
        assert excinfo.value.code == 2
        assert "--count: must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "negative").exists()


@pytest.mark.parametrize("kind", ["pools", "scenario"])
def test_gen_fixtures_count_of_a_fixed_kind_is_a_usage_error(tmp_path, capsys, kind):
    """pools and scenario write fixed files, so a count there would be ignored."""
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-fixtures", "--kind", kind, "--count", "5", "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert f"argument --count: --kind {kind} writes fixed files" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_fixtures_scenario_equals_the_bundled_files(tmp_path):
    out = tmp_path / "scn"
    assert main(["gen-fixtures", "--kind", "scenario", "--out", str(out)]) == 0
    for name in ("bsc_duopoly.json", "eth_duopoly.json"):
        assert (out / name).read_bytes() == (SCENARIOS / name).read_bytes()
        # the repository's scenarios/ holds links to the packaged files, not copies
        assert (ROOT / "scenarios" / name).resolve() == (SCENARIOS / name).resolve()


def test_gen_fixtures_scenario_loads(tmp_path):
    out = tmp_path / "scn"
    assert main(["gen-fixtures", "--kind", "scenario", "--seed", "2", "--out", str(out)]) == 0
    from mevforge.pbs import load_scenario

    scenario = load_scenario(out / "bsc_duopoly.json")
    assert len(scenario.builders) == 2


# -- start-up -----------------------------------------------------------------

# Run a command in a fresh interpreter, then print its exit code and the
# mevforge modules it loaded.
_FOOTPRINT = (
    "import json, sys\n"
    "from mevforge.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "generators = sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('mevforge.')), generators]))\n"
)


# The mevforge modules that each command, and each kind of gen-fixtures,
# never loads.
_UNLOADED = {
    "extract": {"analytics", "fixtures", "pbs", "pools", "reports"},
    "analyze": {"fixtures", "pbs", "pools"},
    "simulate": {"analytics", "fixtures"},
    "gen-fixtures-traces": {"analytics", "pbs", "pools", "reports"},
    "gen-fixtures-records": {"analytics", "pbs", "pools", "reports"},
    "gen-fixtures-scenario": {"analytics", "fixtures", "pbs", "pools", "reports"},
    "gen-fixtures-pools": {"analytics", "pbs", "reports"},
}


@pytest.mark.parametrize("command", _UNLOADED)
def test_a_command_imports_only_the_modules_it_uses(tmp_path, command):
    """Each command, and each kind of gen-fixtures, imports its own modules,
    so a short run compiles and builds no module it never calls; and none
    loads dataclasses or the inspect it imports, since every run would pay
    for importing them and generating each dataclass's methods."""
    records = tmp_path / "records.csv"
    with open(records, "w", encoding="utf-8", newline="") as fh:
        write_records(fh, [sample_record()])
    argv = {
        "extract": ["extract", "--traces", DATA / "worked_example_trace.ndjson", "--labels", DATA / "builder_labels.csv"],
        "analyze": ["analyze", "--records", records],
        "simulate": ["simulate", "--scenario", SCENARIOS / "eth_duopoly.json", "--slots", "3"],
        "gen-fixtures-traces": ["gen-fixtures", "--kind", "traces", "--count", "3"],
        "gen-fixtures-records": ["gen-fixtures", "--kind", "records", "--count", "3"],
        "gen-fixtures-scenario": ["gen-fixtures", "--kind", "scenario"],
        "gen-fixtures-pools": ["gen-fixtures", "--kind", "pools"],
    }[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *map(str, argv), "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
    )
    code, modules, generators = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    assert "mevforge.cli" in modules
    assert _UNLOADED[command].isdisjoint(name.removeprefix("mevforge.") for name in modules)
    assert generators == []
