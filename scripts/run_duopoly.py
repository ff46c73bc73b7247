#!/usr/bin/env python3
"""Run the bundled duopoly scenario under both market designs and print
who wins, plus the coordination-window arithmetic behind the outcome."""

import argparse
from fractions import Fraction

from mevforge import pbs
from mevforge.reports import decimal_str

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    for name in ("bsc_duopoly.json", "eth_duopoly.json"):
        scenario = pbs.load_scenario(pbs.BUNDLED_SCENARIOS / name)
        summary = pbs.CampaignSummary(scenario.builders)
        for outcome in pbs.run_campaign(scenario, args.slots, args.seed):
            summary.add(outcome)
        print(f"\n== {name} ({scenario.protocol.value}, horizon {scenario.horizon_ms} ms)")
        print(f"{'builder':<10} {'wins':>8} {'win_share':>10} {'profit':>16} {'proposer_rev':>14}")
        for builder_id, wins in summary.wins.items():
            print(
                f"{builder_id:<10} {wins:>8} {decimal_str(Fraction(wins, summary.n_slots), 4):>10} "
                f"{summary.profit[builder_id]:>16} {summary.revenue[builder_id]:>14}"
            )
        print(f"fallback rate: {decimal_str(summary.fallback_rate, 6)}")

    print("\n== coordination windows")
    for protocol, horizon in ((pbs.Protocol.BSC_DIRECT, 3000), (pbs.Protocol.ETH_RELAY, 12000)):
        window = pbs.contestable_window(protocol, Fraction(horizon), Fraction(100))
        print(f"{protocol.value:<12} horizon {horizon:>6} ms  contestable {window} ms")
    print(f"missing horizon: {pbs.missing_horizon(Fraction(12000), Fraction(3000))} ms")


if __name__ == "__main__":
    main()
