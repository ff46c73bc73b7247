#!/usr/bin/env python3
"""Run the bundled duopoly scenario under both market designs with
`mevforge simulate`, print each campaign's summary.csv, then how long
each scenario's slot stays contested, measured on its first slot's bid
schedule, and the horizon the short-slot chain lacks."""

import argparse
import sys
import tempfile
from pathlib import Path

from mevforge import BUNDLED_SCENARIOS, pbs
from mevforge.cli import main as mevforge_main

SCENARIOS = ("bsc_duopoly.json", "eth_duopoly.json")


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
        for name in SCENARIOS:
            out = Path(tmp) / name.removesuffix(".json")
            print(f"\n== {name}")
            run(["simulate", "--scenario", str(BUNDLED_SCENARIOS / name), "--slots", str(args.slots),
                 "--seed", str(args.seed), "--out", str(out)])
            print((out / "summary.csv").read_text(encoding="utf-8"), end="")

    print("\n== contested windows")
    for name in SCENARIOS:
        scenario = pbs.load_scenario(BUNDLED_SCENARIOS / name)
        window = next(pbs.run_campaign(scenario, 1, args.seed)).schedule.contested_ms
        print(f"{scenario.protocol.value:<12} horizon {scenario.horizon_ms!s:>6} ms  contested {window} ms")
    gap = pbs.DEFAULT_HORIZON_MS[pbs.Protocol.ETH_RELAY] - pbs.DEFAULT_HORIZON_MS[pbs.Protocol.BSC_DIRECT]
    print(f"missing horizon: {gap} ms")


if __name__ == "__main__":
    main()
