#!/usr/bin/env python3
"""Train the strategy grid on the synthetic corpus and print the TER table.

The table is read against the paper's expected orderings: the offline-only
model collapses at the smallest latency, the streaming-only model gives up
offline quality, and dual-mode training with the symmetric consistency loss
holds the best low-latency/offline trade-off.  Measured at 2000 steps over
seeds 0 and 1 (the table is in ROADMAP.md, open item 1), the first ordering
reproduces: offline_baseline reads TER .356 at C1R0 against .240-.273 for
every strategy that trains streaming.  The method's ordering does not:
streaming_baseline is best at every streaming spec.  Runs fan out over a
pool of ``spawn`` workers at one BLAS thread each; results are deterministic
per seed.  ``spawn`` re-imports this script in each worker, so its work
stays under ``if __name__ == "__main__"``.  ``--json-out`` dumps each run's
summary and sweep rows (``decoding.evaluate``), specs as objects.
"""

import argparse
import json
import sys
from dataclasses import asdict

from unify_rnnt.experiments import (ABLATION_STRATEGIES, TREND_STRATEGIES,
                                    format_suite_table, run_suite, toy_setup)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated run seeds")
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--ablation", action="store_true",
                        help="also run the one-directional teacher variants")
    parser.add_argument("--json-out", help="dump raw results as JSON")
    args = parser.parse_args()

    seeds = tuple(int(s) for s in args.seeds.split(","))
    strategies = list(TREND_STRATEGIES)
    if args.ablation:
        strategies += [s for s in ABLATION_STRATEGIES if s not in strategies]
    suite = run_suite(strategies, seeds, setup=toy_setup(args.steps), workers=args.workers)
    print(format_suite_table(suite))

    dm_mcr = suite["results"].get("dm_mcr", {})
    for seed, res in sorted(dm_mcr.items()):
        if res.get("sweep"):
            print(f"\nlatency sweep (dm_mcr, seed {seed}):")
            for row in res["sweep"]:
                spec = row["spec"]
                print(f"  budget={spec.chunk + spec.right} C={spec.chunk} R={spec.right} "
                      f"ter={row['ter']:.4f}")
    if args.json_out:
        payload = {s: {str(seed): {k: v for k, v in r.items() if k != "final"}
                       for seed, r in by_seed.items()}
                   for s, by_seed in suite["results"].items()}
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=1, default=asdict)
        print(f"\nwrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
