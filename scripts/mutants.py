#!/usr/bin/env python3
"""Mutation register: deliberate bugs that named tests must catch.

Each mutant is a source file, an exact ``old`` snippet that occurs once in
it, the ``new`` text that replaces it, and the test ids that must fail once
it is replaced.  For each mutant the script copies the tree (without .git
or caches) to a temporary directory, applies the edit there and runs only
the named tests.  A mutant is killed when every named test fails, and
survives when one passes; a run that ends in neither (a test id that is not
collected, an edit that does not apply) is an error.  The exit status is
nonzero if any mutant survives or errs.

    python3 scripts/mutants.py             # every mutant
    python3 scripts/mutants.py M1 M5       # the named ones

Hypothesis runs with a fixed seed, so a verdict is reproducible.  Mutants
that change no behaviour (such as relay rebids past the horizon alone,
which the relay cutoff at the horizon already keeps out of the candidates)
are not registered.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PBS, ANALYTICS, RECORDS = "src/mevforge/pbs.py", "src/mevforge/analytics.py", "src/mevforge/records.py"
POOLS, REPORTS = "src/mevforge/pools.py", "src/mevforge/reports.py"
CLI, CONFIG, TRACES = "src/mevforge/cli.py", "src/mevforge/config.py", "src/mevforge/traces.py"
CLI_TESTS, PBS_TESTS, POOLS_TESTS = "tests/test_cli.py", "tests/test_pbs.py", "tests/test_pools.py"
TRACES_TESTS, VALUES_TESTS = "tests/test_traces.py", "tests/test_values.py"
EXHAUSTIVE_TEST = "tests/test_bench_tooling.py::test_strategy_values_equal_an_exhaustive_search"
FOLD_TEST = "tests/test_analytics.py::test_the_fold_sums_long_dollars_exactly"
HYPOTHESIS_SEED = "0"

FIELDS_TEST = f"{VALUES_TESTS}::test_a_body_declares_fields_as_typing_namedtuple_does"
SERIALIZER_TEST = f"{TRACES_TESTS}::test_lines_equal_json_dumps_of_dicts"
# the serializer's token-fragment memo, from its lookup to its store
FRAGMENT_MEMO = """fragments.get(token)
        if text is None:
            text = json.dumps(token_to_obj(token), separators=(",", ":"))
            if len(fragments) < MAX_SHARED_TOKENS:
                fragments[token] = text"""

# gen-fixtures's planted list: each entry is written to manifest.json as it is drawn
PLANTED_LOOP = """    for item, entry in drawn:
        if entry is not None:
            fh.write((",\\n" if planted else "\\n") + encode(entry))
            planted += 1
        items += 1
        yield item"""

DEEP_TEST = f"{CLI_TESTS}::test_json_nested_past_the_decoders_depth_is_an_input_error"
SPAN_PROPERTY = f"{CLI_TESTS}::test_extract_writes_the_same_bytes_over_any_number_of_spans"
# extract's span runner: each worker's report, read and reaped in span order
SPAN_MERGE = """                start, end, pid, temps, report = workers[0]
                text = report.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[0]"""
WORKER_FAILURE = """                if code or not text:
                    ended = f"exited with status {code}" if code else "reported nothing"
                    raise ChildProcessError(f"{path}: extract worker for bytes {start}-{end} {ended}")"""

# the cases of the OS fault test that a worker meets: (CPUs, span) with span > 0
OS_FAULT_CASES = [f"{k}-{span}-{fault}" for fault in ("write", "flush", "read") for k, span in ((2, 1), (3, 1), (3, 2))]

MUTANTS = [
    {
        "name": "symbol-written-unescaped",
        "why": "a token's symbol is written between quotes as it is, not through json.dumps",
        "file": TRACES,
        "old": 'json.dumps(token_to_obj(token), separators=(",", ":"))',
        "new": """'{"symbol":"%s","address":"0x%s","decimals":%d}' % (token.symbol, token.address.hex(), token.decimals)""",
        "tests": [SERIALIZER_TEST],
    },
    {
        "name": "fragment-memo-by-symbol",
        "why": "the serializer's token fragments are keyed by symbol, so a same-symbol token reuses another's text",
        "file": TRACES,
        "old": FRAGMENT_MEMO,
        "new": FRAGMENT_MEMO.replace("(token)\n", "(token.symbol)\n").replace("[token]", "[token.symbol]"),
        "tests": [SERIALIZER_TEST],
    },
    {
        "name": "make-skips-checks",
        "why": "a value type's _make, and so the stock _replace, builds its tuple directly, past the checks in _check",
        "file": TRACES,
        "old": "        return cls(**dict(zip(cls._fields, iterable, strict=True)))",
        "new": "        return tuple.__new__(cls, iterable)",
        "tests": [f"{VALUES_TESTS}::test_replace_and_make_run_the_constructor_checks"],
    },
    {
        "name": "check-hook-not-installed",
        "why": "a body's _check is never called, so every value type builds unchecked",
        "file": TRACES,
        "old": """        if "_check" in ns:
            ns["__init__"] = _run_check
""",
        "new": "",
        "tests": [f"{VALUES_TESTS}::test_replace_and_make_run_the_constructor_checks"],
    },
    {
        "name": "default-shadows-field",
        "why": "a field's default stays in the class namespace, so every instance reads the default",
        "file": TRACES,
        "old": "            defaults = [ns.pop(field) for field in defaulted]",
        "new": "            defaults = [ns.get(field) for field in defaulted]",
        # most test modules build sample events, pools or sections at import, so under this mutant
        # they fail to collect; the scripts build theirs when they run
        "tests": [
            "tests/test_scripts.py::test_script_exits_zero[run_duopoly]",
            "tests/test_scripts.py::test_script_exits_zero[run_pipeline_demo]",
        ],
    },
    {
        "name": "default-order-unchecked",
        "why": "a field without a default after one with a default builds, with the defaults shifted to the last fields",
        "file": TRACES,
        "old": """        if defaulted != fields[len(fields) - len(defaulted):]:
            raise TypeError(f"{name}: a field without a default follows one with a default")
""",
        "new": "",
        "tests": [FIELDS_TEST],
    },
    {
        "name": "eq-ignores-type",
        "why": "a value type compares as a bare tuple, so it equals a tuple or another type with the same fields",
        "file": TRACES,
        "old": "        return type(other) is type(self) and tuple.__eq__(self, other)",
        "new": "        return tuple.__eq__(self, other)",
        "tests": [f"{VALUES_TESTS}::test_an_instance_equals_only_its_own_type"],
    },
    {
        "name": "records-column-count-unchecked",
        "why": "a records row of 11 or 13 cells reaches the timestamp check, which names the wrong fault",
        "file": RECORDS,
        "old": """            if len(row) != len(_HEADER):
                raise ValueError(f"expected {len(_HEADER)} columns, got {len(row)}")
""",
        "new": "",
        "tests": [f"{CLI_TESTS}::test_analyze_names_a_row_of_the_wrong_width_by_its_column_count"],
    },
    {
        "name": "records-blank-row-read",
        "why": "a blank line of a records file is read as a row of no cells",
        "file": RECORDS,
        "old": "        if not row:\n            continue\n",
        "new": "",
        "tests": [f"{CLI_TESTS}::test_blank_record_lines_are_skipped_and_counted"],
    },
    {
        "name": "pool-blank-line-read",
        "why": "a blank line of a pool file is read as JSON",
        "file": POOLS,
        "old": "    for line_no, line in read_lines(stream):\n        if not line.strip():\n            continue\n",
        "new": "    for line_no, line in read_lines(stream):\n",
        "tests": [f"{POOLS_TESTS}::test_pool_file_skips_blank_lines_and_counts_them"],
    },
    {
        "name": "labels-blank-row-read",
        "why": "a blank row of a label file is read as a label",
        "file": TRACES,
        "old": '            if not row or not "".join(row).strip():\n                continue\n',
        "new": "",
        "tests": [f"{TRACES_TESTS}::test_label_file_skips_blank_rows_and_counts_them"],
    },
    {
        "name": "trace-blank-line-read",
        "why": "a blank line of a trace file is read as JSON",
        "file": TRACES,
        "old": "        if not line.strip():\n            continue\n        try:\n            obj = json.loads(line)",
        "new": "        try:\n            obj = json.loads(line)",
        "tests": [
            f"{TRACES_TESTS}::test_blank_lines_are_skipped_and_counted",
            f"{CLI_TESTS}::test_extract_counts_a_blank_line_at_a_span_cut",
        ],
    },
    {
        "name": "base-symbol-unchecked",
        "why": "enumerate_cycles looks up a base symbol that no pool holds",
        "file": POOLS,
        "old": "        if base not in tokens:\n            continue\n",
        "new": "",
        "tests": [f"{POOLS_TESTS}::test_enumerate_cycles_from_a_symbol_no_pool_holds_is_empty"],
    },
    {
        "name": "span-line-offset-dropped",
        "why": "a bad line in a later span of the trace file is named by its line within the span",
        "file": CLI,
        "old": 'raise TraceParseError(before + result["line"], result["message"])',
        "new": 'raise TraceParseError(result["line"], result["message"])',
        "tests": [
            SPAN_PROPERTY,
            f"{CLI_TESTS}::test_extract_names_a_bad_line_in_any_span_by_its_line_in_the_file",
            f"{CLI_TESTS}::test_extract_counts_a_blank_line_at_a_span_cut",
            f"{CLI_TESTS}::test_any_edit_of_any_input_exits_0_or_1",
        ],
    },
    {
        "name": "spans-merged-out-of-order",
        "why": "extract reaps and appends the last unreaped worker first, so its rows in the reverse of span order",
        "file": CLI,
        "old": SPAN_MERGE,
        "new": SPAN_MERGE.replace("workers[0]", "workers[-1]"),
        "tests": [SPAN_PROPERTY, f"{CLI_TESTS}::test_extract_writes_the_same_bytes_over_any_number_of_cpus"],
    },
    {
        "name": "worker-failure-ignored",
        "why": "extract leaves out the rows of a worker that exits nonzero or reports nothing, and ends without an error",
        "file": CLI,
        "old": WORKER_FAILURE,
        "new": "                if code or not text:\n                    continue",
        "tests": [f"{CLI_TESTS}::test_extract_stops_on_a_failed_worker"],
    },
    {
        "name": "extract-undoes-listed-faults-only",
        "why": "extract removes its reports only on a bad line or a failed worker or fork, so a failed write leaves them behind",
        "file": CLI,
        "old": "        except BaseException as exc:\n",
        "new": "        except (TraceParseError, ChildProcessError) as exc:\n",
        "tests": [f"{CLI_TESTS}::test_extract_undoes_a_write_that_fails"],
    },
    {
        "name": "fork-fault-unnamed",
        "why": "a fork that fails ends extract with the bare OS error, naming neither the trace file nor the span",
        "file": CLI,
        "old": """                try:
                    pid = os.fork()
                except OSError as exc:
                    raise ChildProcessError(f"{path}: extract worker for bytes {start}-{end} could not start: {exc}") from exc
""",
        "new": "                pid = os.fork()\n",
        "tests": [f"{CLI_TESTS}::test_extract_undoes_a_failed_fork"],
    },
    {
        "name": "read-fault-unnamed",
        "why": "a failed read of the trace file names no file",
        "file": CLI,
        "old": "        raise _naming(exc, fh.name)",
        "new": "        raise",
        "tests": [f"{CLI_TESTS}::test_lines_to_names_the_file_of_a_failed_read"],
    },
    {
        "name": "write-fault-unnamed",
        "why": "a failed write of a report names no file, not even --out",
        "file": CLI,
        "old": "            raise _naming(exc, args.out)",
        "new": "            raise",
        "tests": [f"{CLI_TESTS}::test_extract_undoes_a_write_that_fails"],
    },
    {
        "name": "worker-fault-on-stderr",
        "why": "a worker stopped by a fault writes its own error line to stderr, beside the parent's",
        "file": CLI,
        "old": "    finally:\n        os._exit(1)\n",
        "new": """    except BaseException as exc:
        os.write(2, f"error: extract worker for bytes {fh.tell()}-{end}: {exc!r}\\n".encode(errors="backslashreplace"))
        raise
    finally:
        os._exit(1)
""",
        "tests": [f"{CLI_TESTS}::test_a_failed_worker_writes_nothing_to_stderr"],
    },
    {
        "name": "worker-os-fault-unreported",
        "why": "a worker's OSError goes unreported, so the run ends with the worker's exit status, not the one-span line",
        "file": CLI,
        "old": """        except OSError as exc:
            result = {"fault": [exc.errno, exc.strerror, exc.filename]}
""",
        "new": "",
        "tests": [f"{CLI_TESTS}::test_an_os_fault_in_any_span_reads_as_at_one_span[{case}]" for case in OS_FAULT_CASES],
    },
    {
        "name": "worker-reopens-by-path",
        "why": "a worker reads whatever file holds the trace's path when it is forked, not the file extract opened",
        "file": CLI,
        "old": """                if not os.path.samestat(os.fstat(fh.fileno()), opened):
                    raise _InputError(f"{path}: replaced while extract was reading it")
""",
        "new": "",
        "tests": [f"{CLI_TESTS}::test_extract_reads_only_the_trace_file_it_opened[replaced-2]"],
    },
    {
        "name": "worker-counts-dropped",
        "why": "extract leaves its workers' counts out of the summary line",
        "file": CLI,
        "old": "            counts.update(span_counts)\n",
        "new": "            counts.update({} if files else span_counts)\n",
        "tests": [SPAN_PROPERTY],
    },
    {
        "name": "event-amount-sign-unchecked",
        "why": "a trace event's negative amount is read as it is",
        "file": TRACES,
        "old": '        if self.amount is not None and self.amount < 0:\n            raise ValueError("amount must be non-negative")\n',
        "new": "",
        "tests": [f"{CLI_TESTS}::test_extract_rejects_loosely_typed_trace_fields[amount-negative]"],
    },
    {
        "name": "swap-pool-unchecked",
        "why": "a trace swap with no pool is read as a swap",
        "file": TRACES,
        "old": "            if self.pool is None or self.token_in is None or self.token_out is None:",
        "new": "            if self.token_in is None or self.token_out is None:",
        "tests": [f"{CLI_TESTS}::test_extract_rejects_loosely_typed_trace_fields[swap-without-pool]"],
    },
    {
        "name": "pool-tokens-may-match",
        "why": "a pool whose two tokens are one is read as a pool",
        "file": POOLS,
        "old": '        if self.token0 == self.token1:\n            raise ValueError("pool tokens must differ")\n',
        "new": "",
        "tests": [f"{CLI_TESTS}::test_simulate_malformed_pool_file_names_the_line[tokens-equal]"],
    },
    {
        "name": "v2-reserves-unchecked",
        "why": "a V2 pool with an empty reserve is read as an active pool",
        "file": POOLS,
        "old": """            if self.reserve0 <= 0 or self.reserve1 <= 0:
                raise ValueError("active V2 pool needs positive reserves")
""",
        "new": "            pass\n",
        "tests": [f"{CLI_TESTS}::test_simulate_malformed_pool_file_names_the_line[reserve-zero]"],
    },
    {
        "name": "one-hop-record-read",
        "why": "a records row of one hop is read as a cycle",
        "file": RECORDS,
        "old": '        if self.hop_count < 2:\n            raise ValueError("cycles have at least two hops")\n',
        "new": "",
        "tests": [f"{CLI_TESTS}::test_analyze_rejects_a_one_hop_row"],
    },
    {
        "name": "dollar-column-unformatted",
        "why": "a records file's dollar columns are written with str, so a value keeps its trailing zeros or takes an exponent",
        "file": RECORDS,
        "old": "Decimal: dollar_text}",
        "new": "Decimal: str}",
        "tests": [
            f"{CLI_TESTS}::test_extract_and_analyze_outputs_match_pinned_digests[traces-1]",
            f"{CLI_TESTS}::test_gen_fixtures_pools_and_records_match_pinned_digests[records]",
        ],
    },
    {
        "name": "correlation-zero-signed",
        "why": "correlations.csv writes a Pearson r that rounds to zero, or a negated zero root, as -0.000000000000",
        "file": REPORTS,
        "old": '"0.000000000000" if text == "-0.000000000000" else text',
        "new": "text",
        "tests": [
            f"{CLI_TESTS}::test_analyze_writes_an_unsigned_zero_for_a_brand_with_zero_covariance",
            f"{CLI_TESTS}::test_analyze_writes_an_unsigned_zero_for_a_correlation_that_rounds_to_zero",
        ],
    },
    {
        "name": "trace-deep-json-uncaught",
        "why": "a trace line nested past json's limit ends extract in a traceback, or fails its worker",
        "file": TRACES,
        "old": "        except (ValueError, RecursionError) as exc:",
        "new": "        except ValueError as exc:",
        "tests": [f"{DEEP_TEST}[trace]"],
    },
    {
        "name": "pool-deep-json-uncaught",
        "why": "a pool line nested past json's limit ends simulate in a traceback",
        "file": POOLS,
        "old": "        except (TypeError, ValueError, RecursionError) as exc:",
        "new": "        except (TypeError, ValueError) as exc:",
        "tests": [f"{DEEP_TEST}[pool-file]"],
    },
    {
        "name": "scenario-deep-json-uncaught",
        "why": "a scenario nested past json's limit ends simulate in a traceback",
        "file": PBS,
        "old": "    except (OSError, ValueError, RecursionError) as exc:",
        "new": "    except (OSError, ValueError) as exc:",
        "tests": [f"{DEEP_TEST}[scenario]"],
    },
    {
        "name": "top-without-wins",
        "why": "simulate's summary line names the first builder as top though every slot fell back",
        "file": CLI,
        "old": '    top_text = f"{top}:{summary.wins[top]}" if summary.wins.get(top) else "-"',
        "new": '    top_text = "-" if top is None else f"{top}:{summary.wins[top]}"',
        "tests": [
            f"{CLI_TESTS}::test_simulate_names_its_top_builder_only_when_one_won",
            f"{CLI_TESTS}::test_simulate_over_a_v3_pool_at_the_end_of_its_range",
        ],
    },
    {
        "name": "planted-separator-dropped",
        "why": "manifest.json's planted entries are written without the comma between them",
        "file": CLI,
        "old": '(",\\n" if planted else "\\n")',
        "new": '"\\n"',
        "tests": [f"{CLI_TESTS}::test_gen_fixtures_traces_match_pinned_digests"],
    },
    {
        "name": "planted-entries-held",
        "why": "gen-fixtures holds every planted entry in a list and writes them once the draw ends",
        "file": CLI,
        "old": PLANTED_LOOP,
        "new": '''    held = []
    for item, entry in drawn:
        if entry is not None:
            held.append(entry)
        items += 1
        yield item
    for entry in held:
        fh.write((",\\n" if planted else "\\n") + encode(entry))
        planted += 1''',
        "tests": [f"{CLI_TESTS}::test_gen_fixtures_traces_peak_is_flat_in_count"],
    },
    {
        "name": "planted-count-one-over",
        "why": "manifest.json's planted_cycles counts one entry more than its planted list holds",
        "file": CLI,
        "old": '"planted_cycles": planted,',
        "new": '"planted_cycles": planted + 1,',
        "tests": [
            f"{CLI_TESTS}::test_trace_counts_agree_with_what_was_written",
            f"{CLI_TESTS}::test_gen_fixtures_traces_match_pinned_digests",
        ],
    },
    {
        "name": "labels-written-unquoted",
        "why": "gen-fixtures writes labels.csv by format strings, so a name holding a comma or a quote does not read back",
        "file": CLI,
        "old": """            rows = csv.writer(fh, lineterminator="\\n")
            rows.writerow(LABEL_HEADER)
            rows.writerows((label.brand, label.instance_name, format_address(label.address)) for label in corpus.labels)""",
        "new": """            fh.write(",".join(LABEL_HEADER) + "\\n")
            fh.writelines(f"{label.brand},{label.instance_name},{format_address(label.address)}\\n" for label in corpus.labels)""",
        "tests": [f"{CLI_TESTS}::test_gen_fixtures_labels_read_back_whatever_their_names"],
    },
    {
        "name": "trace-line-object-unchecked",
        "why": "a trace line is indexed as it parsed, so a line that is not an object fails with Python's own message",
        "file": TRACES,
        "old": '        obj = read_json(obj, "transaction", dict)\n',
        "new": "",
        "tests": [
            f"{CLI_TESTS}::test_extract_names_a_trace_line_that_is_not_an_object",
            f"{TRACES_TESTS}::test_any_json_value_at_any_trace_field_parses_or_is_a_parse_error",
        ],
    },
    {
        "name": "event-kind-unhashable",
        "why": "an event kind is looked up whatever its type, so a list or object kind fails the line as unhashable",
        "file": TRACES,
        "old": "if type(kind) is not str or kind not in _KIND_BY_NAME:",
        "new": "if kind not in _KIND_BY_NAME:",
        "tests": [
            f"{TRACES_TESTS}::test_an_event_kind_that_is_not_a_string_is_an_unknown_event",
            f"{TRACES_TESTS}::test_any_json_value_at_any_trace_field_parses_or_is_a_parse_error",
        ],
    },
    {
        "name": "check-first-fault-only",
        "why": "a section's _faults raises at its first fault",
        "file": PBS,
        "old": "            raise ConfigError(*faults)",
        "new": "            raise ConfigError(*faults[:1])",
        "tests": [
            f"{PBS_TESTS}::test_a_section_names_every_failing_key_in_one_config_error[scenario]",
            f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[three-top-level]",
        ],
    },
    {
        "name": "unread-keys-of-bsc-direct",
        "why": "a protocol that does not read takes bsc_direct's unread keys, so relay reads as unknown",
        "file": PBS,
        "old": 'obj.get("protocol")), frozenset())',
        "new": 'obj.get("protocol")), UNREAD_KEYS[Protocol.BSC_DIRECT])',
        "tests": [
            f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[protocol-mistyped]",
            f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[protocol-missing]",
        ],
    },
    {
        "name": "symbol-after-failed-pool-file",
        "why": "the symbol is checked even when the pool file failed to load",
        "file": PBS,
        "old": '        problems.append(f"pools: {exc}")\n        obj["pools"] = MISSING\n',
        "new": '        problems.append(f"pools: {exc}")\n',
        "tests": [f"{CLI_TESTS}::test_simulate_pool_file_fault_adds_no_symbol_fault[pool-fault-only]"],
    },
    {
        "name": "nested-fault-hides-parent",
        "why": "a section's checks run only once every section inside it has passed",
        "file": PBS,
        "old": "        section = kind(**values)\n",
        "new": "        section = kind(**values) if len(problems) == found else section\n",
        "tests": [
            f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[nested-and-top-level]",
            f"{CLI_TESTS}::test_simulate_lists_a_nested_fault_and_a_top_level_one",
        ],
    },
    {
        "name": "unread-entry-keeps-its-array",
        "why": "an array reads though an entry did not, so builders' ids are compared with one missing",
        "file": PBS,
        "old": "            return items if len(problems) == found else MISSING\n",
        "new": "            return items\n",
        "tests": [f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[builder-unread-beside-a-repeated-id]"],
    },
    {
        "name": "fold-plain-add",
        "why": "the fold adds dollars with + in the default 28-digit context, not EXACT.add",
        "file": ANALYTICS,
        "old": "        add, multiply = EXACT.add, EXACT.multiply",
        "new": "        add, multiply = Decimal.__add__, EXACT.multiply",
        "tests": [FOLD_TEST],
    },
    {
        "name": "hop-counts-from-one-brand",
        "why": "complexity counts each hop count from the alphabetically first brand's hop groups only",
        "file": ANALYTICS,
        "old": """        for (_brand, hops), (count, _usd, _usd2) in self.hop_groups.items():
            counts[hops] += count""",
        "new": """        for (brand, hops), (count, _usd, _usd2) in self.hop_groups.items():
            if brand == min(self.blocks):
                counts[hops] += count""",
        "tests": [FOLD_TEST],
    },
    {
        "name": "rows-count-hop-groups",
        "why": "analyze's analyzed= counts the (brand, hop count) groups, not the records in them",
        "file": ANALYTICS,
        "old": "        return sum(count for count, _usd, _usd2 in self.hop_groups.values())",
        "new": "        return len(self.hop_groups)",
        "tests": [f"{CLI_TESTS}::test_analyze_prints_its_summary_line", FOLD_TEST],
    },
    {
        "name": "kept-plain-add",
        "why": "proposer_split adds each brand's kept dollars with + in the default context",
        "file": ANALYTICS,
        "old": "            kept[brand] = EXACT.add(kept.get(brand, ZERO), usd)",
        "new": "            kept[brand] = kept.get(brand, ZERO) + usd",
        "tests": [FOLD_TEST],
    },
    {
        "name": "square-default-context",
        "why": "the fold squares usd as usd * usd in the default context, not EXACT.multiply",
        "file": ANALYTICS,
        "old": "group[2] = add(group[2], multiply(usd, usd))",
        "new": "group[2] = add(group[2], usd * usd)",
        "tests": [FOLD_TEST],
    },
    {
        "name": "exact-28-digits",
        "why": "EXACT is the default 28-digit context",
        "file": RECORDS,
        "old": "EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])",
        "new": "EXACT = Context()",
        "tests": [f"{CLI_TESTS}::test_dollars_wider_than_28_digits_stay_exact_from_extract_to_analyze"],
    },
    {
        "name": "bound-v3-directions-swapped",
        "why": "a V3 hop's map takes the other direction's, so the bound can fall below a cycle's delta",
        "file": POOLS,
        "old": "    near, far = (pool.sqrt_price_x96, Q96) if direction == 0 else (Q96, pool.sqrt_price_x96)",
        "new": "    near, far = (Q96, pool.sqrt_price_x96) if direction == 0 else (pool.sqrt_price_x96, Q96)",
        "tests": [f"{POOLS_TESTS}::test_no_delta_exceeds_the_profit_bound", f"{EXHAUSTIVE_TEST}[embodied-0]"],
    },
    {
        "name": "prune-against-every-hop-count",
        "why": "a cycle is searched only if its bound beats the best of any hop count, not of its own",
        "file": PBS,
        "old": "        if bound > best[descriptor.n_hops]:",
        "new": "        if bound > max(best.values()):",
        "tests": [f"{EXHAUSTIVE_TEST}[embodied-0]", f"{EXHAUSTIVE_TEST}[embodied-1]"],
    },
    {
        "name": "v2-map-without-fee",
        "why": "a V2 hop's map leaves out the fee: a looser bound, which prunes less",
        "file": POOLS,
        "old": "        return g * r_out, r_in * FEE_SCALE, g",
        "new": "        return FEE_SCALE * r_out, r_in * FEE_SCALE, FEE_SCALE",
        "tests": ["tests/test_bench_tooling.py::test_v2_cycle_map_equals_the_mobius_reference"],
    },
    {
        "name": "dead-v3-hop-passes-zero",
        "why": "a first-hop V3 pool that pays out 0 hands 0 to the next hop, which raises ValueError",
        "file": POOLS,
        "old": "    if amount_out == 0:\n        raise DustError(\"V3 hop output is zero\")",
        "new": "    if False:\n        raise DustError(\"V3 hop output is zero\")",
        "tests": [f"{POOLS_TESTS}::test_a_dead_v3_hop_ends_the_path_as_dust"],
    },
    {
        "name": "no-refund",
        "why": "a first-hop remainder is not refunded, so the run counts all of amount0 as spent",
        "file": POOLS,
        "old": "    spent = amount0 - remainder\n",
        "new": "    spent = amount0\n",
        "tests": [
            f"{POOLS_TESTS}::test_a_v3_remainder_is_refunded_at_the_first_hop_and_ends_a_later_one",
            f"{POOLS_TESTS}::test_executor_equals_probe_near_range_ends",
        ],
    },
    {
        "name": "refund-at-every-hop",
        "why": "a later hop's remainder, in another token than the delta, is refunded as if it were the entry token",
        "file": POOLS,
        "old": """        if remainder:
            raise DustError("a later hop left input unconsumed")""",
        "new": """        spent -= remainder""",
        "tests": [
            f"{POOLS_TESTS}::test_a_v3_remainder_is_refunded_at_the_first_hop_and_ends_a_later_one",
            f"{POOLS_TESTS}::test_no_delta_exceeds_the_profit_bound_near_range_ends",
        ],
    },
    {
        "name": "v2-post-reserves-swapped",
        "why": "swap's V2 post-state for token1 in credits the input to reserve0 and debits the output from reserve1",
        "file": POOLS,
        "old": "        return amount_out, pool._replace(reserve1=pool.reserve1 + amount_in, reserve0=pool.reserve0 - amount_out)",
        "new": "        return amount_out, pool._replace(reserve0=pool.reserve1 + amount_in, reserve1=pool.reserve0 - amount_out)",
        "tests": [f"{POOLS_TESTS}::test_v2_basic_quote", f"{POOLS_TESTS}::test_v2_product_never_decreases"],
    },
    {
        "name": "v3-range-ends-reversed",
        "why": "step_v3 runs a downward swap toward MAX_SQRT_PRICE_X96 and an upward one toward MIN_SQRT_PRICE_X96",
        "file": POOLS,
        "old": "    end = MIN_SQRT_PRICE_X96 if direction == 0 else MAX_SQRT_PRICE_X96",
        "new": "    end = MAX_SQRT_PRICE_X96 if direction == 0 else MIN_SQRT_PRICE_X96",
        "tests": [
            f"{POOLS_TESTS}::test_v3_closed_form_oracle_fixture",
            f"{POOLS_TESTS}::test_v3_degenerate_limit_no_move",
            f"{POOLS_TESTS}::test_v3_price_limit_partial_consumption",
        ],
    },
    {
        "name": "path-lookup-skips-tokens",
        "why": "a path's pool lookup checks only that each pool is in the map, so a hop whose pool lacks its token fails mid-run",
        "file": POOLS,
        "old": "        _direction(pool, token_in)\n        path.append(pool)",
        "new": "        path.append(pool)",
        "tests": [f"{POOLS_TESTS}::test_search_rejects_a_misfit_descriptor_like_a_run[token]"],
    },
    {
        "name": "input-fault-without-path",
        "why": "a fault in an input file is reported without the file's path",
        "file": CLI,
        "old": '        raise _InputError(f"{path}: {exc}") from exc',
        "new": "        raise _InputError(str(exc)) from exc",
        "tests": [f"{CLI_TESTS}::test_undecodable_or_oversized_input_names_file_and_line"],
    },
    {
        "name": "labels-keep-first-repeat",
        "why": "read_labels keeps the first of two rows for one address instead of rejecting the second",
        "file": TRACES,
        "old": "                other = labels[label.address]\n",
        "new": "                continue\n",
        "tests": [f"{CLI_TESTS}::test_extract_malformed_label_file_names_the_line[duplicate-address]"],
    },
    {
        "name": "token-memo-any-key",
        "why": "iter_transactions shares a token on any equal key, so decimals true or 18.0 reuses a good token",
        "file": TRACES,
        "old": "        if type(key[0]) is str and type(key[1]) is str and type(key[2]) is int:\n",
        "new": "        if True:\n",
        "tests": [
            f"{TRACES_TESTS}::test_a_loose_repeat_of_a_good_token_reports_line_number[{case}]"
            for case in ("true", "false", "float")
        ],
    },
    {
        "name": "token-memo-unbounded",
        "why": "iter_transactions keeps every distinct token, so a stream of ever-new tokens grows without bound",
        "file": TRACES,
        "old": "                if len(tokens) < MAX_SHARED_TOKENS:\n",
        "new": "                if True:\n",
        "tests": [f"{TRACES_TESTS}::test_a_stream_of_ever_new_tokens_holds_a_bounded_number"],
    },
    {
        "name": "config-repeat-unchecked",
        "why": "load_config keeps the last of two lines that set one key",
        "file": CONFIG,
        "old": "            if key in key_lines:",
        "new": "            if False:",
        "tests": [f"{CLI_TESTS}::test_extract_config_key_set_twice_names_both_lines"],
    },
    {
        "name": "config-equals-unchecked",
        "why": "a config line with no = is read as a key with an empty value",
        "file": CONFIG,
        "old": '            if "=" not in line:\n                raise ValueError("expected key = value")\n',
        "new": "",
        "tests": [f"{CLI_TESTS}::test_config_line_without_equals_is_named_as_such"],
    },
    {
        "name": "decay-any-text",
        "why": "the opportunity's decay takes any text, so a curve nothing computes reads as piecewise",
        "file": PBS,
        "old": """            (("decay",), lambda: self.decay != "piecewise", f"decay: expected 'piecewise', got {self.decay!r:.40}"),\n""",
        "new": "",
        "tests": [f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[opportunity-decay]"],
    },
    {
        "name": "tail-against-failed-peak",
        "why": "tail_value is checked against a peak_value that failed its own check",
        "file": PBS,
        "old": '            (("tail_value", "peak_value"), lambda:',
        "new": '            (("tail_value",), lambda:',
        "tests": [f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[opportunity-peak-and-floor]"],
    },
    {
        "name": "tail-against-failed-floor",
        "why": "tail_value is checked against a gas_floor that failed its own check",
        "file": PBS,
        "old": '            (("tail_value", "gas_floor"), lambda:',
        "new": '            (("tail_value",), lambda:',
        "tests": [f"{CLI_TESTS}::test_simulate_lists_every_value_fault_by_its_key[opportunity-floor-with-tail]"],
    },
    {
        "name": "M1",
        "why": "the direct proposer's cutoff is the horizon, not the listen window",
        "file": PBS,
        "old": "        cutoff = max(scenario.listen_window_ms, bids[0].timestamp_ms if bids else 0)",
        "new": "        cutoff = horizon",
        "tests": [f"{PBS_TESTS}::test_direct_contested_window_ends_with_the_listen_window"],
    },
    {
        "name": "M2",
        "why": "the contested window is measured from birth (0 ms), not from the first arrival",
        "file": PBS,
        "old": "        return last_change.timestamp_ms - arrivals[0].timestamp_ms",
        "new": "        return last_change.timestamp_ms",
        "tests": [
            f"{PBS_TESTS}::test_bundled_duopoly_contested_windows",
            f"{PBS_TESTS}::test_direct_bids_inside_the_listen_window_are_contested",
            f"{PBS_TESTS}::test_direct_contested_window_ends_with_the_listen_window",
        ],
    },
    {
        "name": "M4",
        "why": "relay rebids and the relay cutoff run one rebid interval past the horizon",
        "file": PBS,
        "old": """            if t > horizon:
                break
            improved = max(locked, ceiling * k // relay.optimization_rounds)
            bids.append(_make_bid(agent, t, improved))
            if improved >= ceiling:
                break

    bids.sort(key=lambda b: (b.timestamp_ms, b.builder_id))
    if relayed:
        cutoff, non_delivery = horizon, {}""",
        "new": """            if t > horizon + relay.rebid_interval_ms:
                break
            improved = max(locked, ceiling * k // relay.optimization_rounds)
            bids.append(_make_bid(agent, t, improved))
            if improved >= ceiling:
                break

    bids.sort(key=lambda b: (b.timestamp_ms, b.builder_id))
    if relayed:
        cutoff, non_delivery = horizon + relay.rebid_interval_ms, {}""",
        "tests": [f"{PBS_TESTS}::test_relay_contested_window_ends_by_the_horizon"],
    },
    {
        "name": "M5",
        "why": "a builder outbidding itself extends the contested window",
        "file": PBS,
        "old": "                if bid.builder_id != best.builder_id:",
        "new": "                if True:",
        "tests": [f"{PBS_TESTS}::test_a_builder_outbidding_itself_contests_nothing"],
    },
]


def failed_ids(output: str) -> list[str]:
    """The test ids pytest's -rfE summary names as failed or errored."""
    return [line.split()[1] for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))]


def run_mutant(mutant: dict) -> tuple[str, str]:
    """(verdict, detail): verdict is killed, survived or error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-work", "demo_out")
        shutil.copytree(ROOT, tree, symlinks=True, ignore=ignore)
        source = tree / mutant["file"]
        text = source.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return "error", f"the old snippet occurs {text.count(mutant['old'])} times in {mutant['file']}"
        source.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutant["tests"]],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if result.returncode not in (0, 1):
        return "error", f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    failed = failed_ids(result.stdout)
    passed = [t for t in mutant["tests"] if not any(f == t or f.startswith(t + "[") for f in failed)]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", f"{len(mutant['tests'])} named test(s) failed"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    unknown = sorted(set(args.names) - {m["name"] for m in MUTANTS})
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m["name"] in args.names]
    bad = 0
    for m in chosen:
        verdict, detail = run_mutant(m)
        bad += verdict != "killed"
        print(f"{verdict:8} {m['name']:26} {m['why']}: {detail}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
