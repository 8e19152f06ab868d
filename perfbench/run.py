#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload train_dual --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The line before it carries run details (seed, metadata,
tail percentiles and sample counts, gates, tracing overhead).  Result files,
and the spans of a traced run, are written under ``perfbench/out/``.  The exit
code is 0 only when every operation and every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# one client, one process: BLAS may use at most one thread (nproc >= 1)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def parse_args(argv=None):
    from bench import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "unify_rnnt", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import meta

    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    metrics, detail, outcome, rec = bench.run(workload, args.seed, args.seconds,
                                              bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        # one spans file per workload, overwritten by its latest traced run
        spans_file = os.path.join(OUT, f"{args.workload}-spans.jsonl.gz")
        rec.write(spans_file)
        detail["spans_file"] = os.path.relpath(spans_file, ROOT)
        detail["spans"] = len(rec.spans)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "meta": meta.collect(ROOT, BLAS_THREADS),
            "failures": outcome.notes, **detail}
    with open(result_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump({"info": info, **result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
