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
POOLS = "src/mevforge/pools.py"
CLI, CONFIG, TRACES = "src/mevforge/cli.py", "src/mevforge/config.py", "src/mevforge/traces.py"
CLI_TESTS, PBS_TESTS, POOLS_TESTS = "tests/test_cli.py", "tests/test_pbs.py", "tests/test_pools.py"
TRACES_TESTS, VALUES_TESTS = "tests/test_traces.py", "tests/test_values.py"
EXHAUSTIVE_TEST = "tests/test_bench_tooling.py::test_strategy_values_equal_an_exhaustive_search"
FOLD_TEST = "tests/test_analytics.py::test_the_fold_sums_long_dollars_exactly"
HYPOTHESIS_SEED = "0"

SERIALIZER_TEST = f"{TRACES_TESTS}::test_lines_equal_json_dumps_of_dicts"
MANIFEST_TEST = f"{CLI_TESTS}::test_write_manifest_writes_what_json_dump_writes"
# the serializer's token-fragment memo, from its lookup to its store
FRAGMENT_MEMO = """fragments.get(id(token))
        if entry is None:
            entry = token, '{"symbol":%s,"address":"0x%s","decimals":%d}' % (json.dumps(token.symbol), token.address.hex(), token.decimals)
            if len(fragments) < MAX_SHARED_TOKENS:
                fragments[id(token)] = entry"""

# gen-fixtures's planted spool: each entry is written as it is drawn
SPOOL_LOOP = """    sep = "["
    for item, entry in drawn:
        if entry is not None:
            spool.write(_planted_text(sep, entry))
            sep = ","
        yield item"""

SPAN_PROPERTY = f"{CLI_TESTS}::test_extract_writes_the_same_bytes_over_any_number_of_spans"
# extract's merge: each worker's report, in span order
SPAN_MERGE = "            for start, end, pid, report, worker_rows, worker_errors in workers:"
WORKER_FAILURE = """                if code or not text:
                    ended = f"exited with status {code}" if code else "reported nothing"
                    raise ChildProcessError(f"{path}: extract worker for bytes {start}-{end} {ended}")"""

MUTANTS = [
    {
        "name": "symbol-written-unescaped",
        "why": "a token's symbol is written between quotes as it is, not through json.dumps",
        "file": TRACES,
        "old": "% (json.dumps(token.symbol), token.address.hex()",
        "new": "% ('\"' + token.symbol + '\"', token.address.hex()",
        "tests": [SERIALIZER_TEST],
    },
    {
        "name": "fragment-memo-by-symbol",
        "why": "the serializer's token fragments are keyed by symbol, so a same-symbol token reuses another's text",
        "file": TRACES,
        "old": FRAGMENT_MEMO,
        "new": FRAGMENT_MEMO.replace("(id(token))", "(token.symbol)").replace("[id(token)]", "[token.symbol]"),
        "tests": [SERIALIZER_TEST],
    },
    {
        "name": "memo-forgets-token",
        "why": "the serializer's memo stores only a token's text under id(token), so a freed token's id, taken by a new token, finds the old text",
        "file": TRACES,
        "old": FRAGMENT_MEMO,
        "new": FRAGMENT_MEMO.replace("entry = token, ", "entry = None, "),
        "tests": [f"{TRACES_TESTS}::test_a_token_freed_after_its_line_lends_its_id_no_text"],
    },
    {
        "name": "replace-skips-checks",
        "why": "a value type's _replace builds its tuple directly, past the checks in __new__",
        "file": TRACES,
        "old": "        return type(self)(**{**dict(zip(self._fields, self)), **changes})",
        "new": "        return tuple.__new__(type(self), {**dict(zip(self._fields, self)), **changes}.values())",
        "tests": [f"{VALUES_TESTS}::test_replace_and_make_run_the_constructor_checks"],
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
        ],
    },
    {
        "name": "spans-merged-out-of-order",
        "why": "extract appends its workers' rows in the reverse of span order",
        "file": CLI,
        "old": SPAN_MERGE,
        "new": SPAN_MERGE.replace("in workers:", "in reversed(workers):"),
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
        "name": "zero-covariance-signed",
        "why": "Pearson with zero covariance negates a zero square root, so correlations.csv writes -0.000000000000",
        "file": ANALYTICS,
        "old": """        if sxy == 0:
            return 0.0
""",
        "new": "",
        "tests": [f"{CLI_TESTS}::test_analyze_writes_an_unsigned_zero_for_a_brand_with_zero_covariance"],
    },
    {
        "name": "manifest-entry-comma-dropped",
        "why": "manifest.json's planted entries are written without the comma between them",
        "file": CLI,
        "old": '            sep = ","',
        "new": '            sep = ""',
        "tests": [MANIFEST_TEST],
    },
    {
        "name": "planted-entries-held",
        "why": "gen-fixtures holds every planted entry in a list and spools them once the draw ends",
        "file": CLI,
        "old": SPOOL_LOOP,
        "new": """    held = []
    for item, entry in drawn:
        if entry is not None:
            held.append(entry)
        yield item
    sep = "["
    for entry in held:
        spool.write(_planted_text(sep, entry))
        sep = ','""",
        "tests": [f"{CLI_TESTS}::test_gen_fixtures_traces_peak_is_flat_in_count"],
    },
    {
        "name": "manifest-net-and-share-swapped",
        "why": "a planted entry's net is written under share and its share under net",
        "file": CLI,
        "old": 'entry["net"], entry["share"]',
        "new": 'entry["share"], entry["net"]',
        "tests": [MANIFEST_TEST],
    },
    {
        "name": "check-first-fault-only",
        "why": "a section's _check raises at its first fault",
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
        "old": """        while t <= horizon:
            improved = max(locked, ceiling * min(k, rounds) // rounds)
            bids.append(_make_bid(agent, t, improved))
            if improved >= ceiling:
                break
            k += 1
            t += relay.rebid_interval_ms

    bids.sort(key=lambda b: (b.timestamp_ms, b.builder_id))
    if relayed:
        cutoff, non_delivery = horizon, {}""",
        "new": """        while t <= horizon + relay.rebid_interval_ms:
            improved = max(locked, ceiling * min(k, rounds) // rounds)
            bids.append(_make_bid(agent, t, improved))
            if improved >= ceiling:
                break
            k += 1
            t += relay.rebid_interval_ms

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
