"""Run one workload command as a child of the harness and record the
child's own peak RSS.

Usage: python3 perfbench/child.py PEAK_FILE COMMAND [ARGS...]

COMMAND is ``mevforge`` followed by CLI arguments, run through
``mevforge.cli.main``, or the path of one of the benchmark's own scripts.
On exit the process writes its VmHWM (peak resident set, KiB) to
PEAK_FILE and exits with the command's code.

The parent's ru_maxrss from wait4 cannot serve: Linux carries the parent's
own peak RSS over fork and exec into the child's figure, so every child
would report at least the harness's peak.
"""

from __future__ import annotations

import runpy
import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run(command: list[str]) -> int:
    if command[0] == "mevforge":
        from mevforge.cli import main

        return main(command[1:])
    sys.argv = command
    try:
        runpy.run_path(command[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return 0


def main(argv: list[str]) -> int:
    peak_file, command = argv[0], argv[1:]
    try:
        return run(command)
    finally:
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(str(peak_rss_kib()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
