#!/usr/bin/env python3
"""Line coverage of src/ under the tests, with the standard library alone.

Runs pytest in this process with a sys.settrace hook (and the same hook
for threads) that line-traces only frames whose code is under src/, then
prints each executable function-body line that never ran, as
``path:line: text``, and a count.  Module and class bodies run at import
and are left out.  A forked child (such as an extract worker) traces on
and hands in what it ran as it leaves through os._exit; a line that only
a subprocess runs shows as unrun, since its trace stays in that process.
Hypothesis runs with the mutation register's fixed seed unless the
arguments give one, so a line reached by some draws alone is reported the
same way on every run.  The run is several times slower than the tests
alone, so the tests do not run it.

    python3 scripts/coverage.py                        # the whole suite
    python3 scripts/coverage.py tests/test_values.py   # pytest's arguments
    python3 scripts/coverage.py --hypothesis-seed=7    # another seed

The exit status is pytest's.
"""

import os
import sys
import tempfile
import threading
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

import pytest

from mutants import HYPOTHESIS_SEED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def body_lines(code: CodeType) -> set[int]:
    """The lines of every function (lambda and comprehension too) nested
    in code, the body of a module or class."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_NEWLOCALS:
                lines.update(line for _start, _end, line in const.co_lines() if line is not None)
            lines |= body_lines(const)
    return lines


def main() -> int:
    sys.path.insert(0, str(SRC))
    args = sys.argv[1:]
    if not any(arg.startswith("--hypothesis-seed") for arg in args):
        args.insert(0, f"--hypothesis-seed={HYPOTHESIS_SEED}")
    prefix = str(SRC) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, _event, _arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        ran.add((code.co_filename, code.co_firstlineno))  # a call runs its def line
        return local

    with tempfile.TemporaryDirectory(prefix="coverage-") as children:

        def in_child(exit=os._exit):
            def leave(code):
                try:  # a child must never unwind into the code that forked it
                    text = "".join(f"{line}\t{path}\n" for path, line in ran)
                    Path(children, str(os.getpid())).write_text(text, encoding="utf-8")
                finally:
                    exit(code)

            ran.clear()
            os._exit = leave

        os.register_at_fork(after_in_child=in_child)
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            status = pytest.main(args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for child in Path(children).iterdir():
            for entry in child.read_text(encoding="utf-8").splitlines():
                line, path = entry.split("\t", 1)
                ran.add((path, int(line)))

    unrun = total = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        lines = body_lines(compile(text, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} function-body lines in src/ never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
