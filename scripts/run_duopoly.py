#!/usr/bin/env python3
"""Run the bundled duopoly scenario under both market designs with
`mevforge simulate`, print each campaign's summary.csv, then the
coordination-window arithmetic behind the outcome."""

import argparse
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from mevforge import pbs
from mevforge.cli import main as mevforge_main


def run(argv: list[str]) -> None:
    code = mevforge_main(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("bsc_duopoly.json", "eth_duopoly.json"):
            out = Path(tmp) / name.removesuffix(".json")
            print(f"\n== {name}")
            run(["simulate", "--scenario", str(pbs.BUNDLED_SCENARIOS / name), "--slots", str(args.slots),
                 "--seed", str(args.seed), "--out", str(out)])
            print((out / "summary.csv").read_text(encoding="utf-8"), end="")

    print("\n== coordination windows")
    for protocol, horizon in ((pbs.Protocol.BSC_DIRECT, 3000), (pbs.Protocol.ETH_RELAY, 12000)):
        window = pbs.contestable_window(protocol, Fraction(horizon), Fraction(100))
        print(f"{protocol.value:<12} horizon {horizon:>6} ms  contestable {window} ms")
    print(f"missing horizon: {pbs.missing_horizon(Fraction(12000), Fraction(3000))} ms")


if __name__ == "__main__":
    main()
