#!/usr/bin/env python3
"""Run the consistency-loss memory probe on two checkouts; write BENCH_mcr_v1024.json.

    python3 scripts/bench_mcr_pairs.py --parent ../parent --change .

Each checkout is a directory holding ``src/`` (a clone or an exported tree of
one commit).  The script runs ``python -m unify_rnnt.cli bench-mcr`` at the
fixed shape ``SHAPE`` (V=1024, tile 128) ``RUNS`` times per side, in pairs
that alternate which side goes first, so a slow period of the machine falls
on both sides alike.  Each run is one process with its side's ``src/`` first
on ``PYTHONPATH`` and one BLAS thread.  The probe times the naive oracle
before the fused path, so the naive figure does not depend on what the fused
path leaves behind.

The file holds the command, the shape, a note on how the runs were made,
each side's run metadata (``perfbench/meta.py``'s ``collect``, read in a
process set up as the runs are), per side the median, min and max of the
fused and naive peak bytes and wall times, and every run's report.  A run
that exits non-zero or prints no report fails the script: it prints the
run's standard error, writes nothing and exits 1.  Compare only files made
on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_mcr_v1024.json")
SHAPE = {"B": 4, "T": 64, "U": 32, "V": 1024, "tile": 128, "direction": "symmetric"}
ARGS = ["bench-mcr", "--batch", str(SHAPE["B"]), "--frames", str(SHAPE["T"]),
        "--labels", str(SHAPE["U"]), "--vocab", str(SHAPE["V"]), "--tile", str(SHAPE["tile"]),
        "--direction", SHAPE["direction"]]
RUNS = 5
SUMMARY_FIELDS = ("wall_ms_fused", "wall_ms_naive", "aux_bytes_fused", "aux_bytes_naive")
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
NOTE = (f"{RUNS} runs per side, alternating which side runs first; one process per run "
        "(OPENBLAS_NUM_THREADS=1, `python -m unify_rnnt.cli bench-mcr` with the side's "
        "src/ on PYTHONPATH), written by scripts/bench_mcr_pairs.py. The probe times the "
        "naive oracle first, so its figure does not depend on what the fused path leaves "
        "behind; the naive oracle is the same code in both trees.")
META_CODE = ("import json, sys; sys.path.insert(0, sys.argv[1]); import meta; "
             "print(json.dumps(meta.collect(sys.argv[2], '1')))")


def side_env(tree: str) -> dict:
    src = os.path.join(tree, "src")
    return {**os.environ, **ONE_THREAD,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_json(tree: str, argv: list[str]) -> tuple[dict | None, str]:
    """The JSON report a process prints, or None and its standard error."""
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=side_env(tree),
                          capture_output=True, text=True, check=False)
    try:
        report = json.loads(done.stdout) if done.returncode == 0 else None
    except ValueError:
        report = None
    return report, done.stderr[-2000:]


def summary(runs: list[dict]) -> dict:
    return {field: {"median": statistics.median(r[field] for r in runs),
                    "min": min(r[field] for r in runs),
                    "max": max(r[field] for r in runs)} for field in SUMMARY_FIELDS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    args = p.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    meta, runs = {}, {side: [] for side in trees}
    for side, tree in trees.items():
        meta[side], err = run_json(tree, ["-c", META_CODE, os.path.join(ROOT, "perfbench"),
                                          tree])
        if meta[side] is None:
            print(f"FAILED {side} metadata:\n{err}")
            return 1
    for i in range(RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            report, err = run_json(trees[side], ["-m", "unify_rnnt.cli", *ARGS])
            if report is None:
                print(f"FAILED {side} run {i}:\n{err}")
                return 1
            runs[side].append(report)
            print(f"run {i} {side}: fused {report['aux_bytes_fused']} B "
                  f"{report['wall_ms_fused']:.1f} ms, naive {report['wall_ms_naive']:.1f} ms",
                  flush=True)
    doc = {"command": "unify-rnnt " + " ".join(ARGS), "shape": SHAPE, "note": NOTE,
           "meta": meta, "summary": {side: summary(runs[side]) for side in trees},
           "runs": runs}
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
