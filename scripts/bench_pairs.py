#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs; write BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change .

Each checkout is a directory holding ``perfbench/`` and ``src/`` (a clone or
an exported tree of one commit).  For every seed and every workload of
``BENCHMARK.json`` the script runs ``perfbench/run.py --trace 0`` once in
each checkout, the parent first on even pair indices and the change first on
odd ones, so a slow period of the machine falls on both sides alike.
``--trace-seeds`` adds traced (``--trace 1``) pairs of every workload for
the per-layer metrics.  The defaults are the seeds behind the committed
``BENCH_*.json``; each file also records its seeds.

The output file keeps every run's metrics and details, and per metric the
median and quartiles of each side, the change's wins over the pairs (ties
count for neither side) and the ratio of the medians, change over parent.
Metric directions and bounds come from ``BENCHMARK.json``.  Compare only
files made on one machine.

A run that exits non-zero or reports ``correct: false`` is a failed run; one
that prints no result keeps the tail of its standard error instead.  Failed
runs stay in the file, summaries use the pairs whose two runs both printed
metrics, and the script lists every failed run (side, workload, seed, exit
code, failure notes) and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, TypeError, ValueError):
        return {"exit": done.returncode, "info": None, "correct": False, "metrics": None,
                "stderr_tail": done.stderr[-2000:]}
    return {"exit": done.returncode, "info": info, **result}


def failed(run: dict) -> bool:
    return run["exit"] != 0 or run.get("correct") is not True


def failure_report(pairs) -> list[str]:
    """One line per failed run of ``(workload, trace, pair)`` triples, then its
    failure notes or the tail of its stderr."""
    lines = []
    for w, trace, pair in pairs:
        for side in pair["order"]:
            run = pair[side]
            if not failed(run):
                continue
            lines.append(f"FAILED {side} {w} seed {pair['seed']} trace {trace}: "
                         f"exit {run['exit']}, correct={run.get('correct')}")
            if run["info"] is None:
                lines.append("  printed no result; stderr ends:")
                lines.extend(f"  {line}" for line in run["stderr_tail"].splitlines())
            else:
                lines.extend(f"  {note}" for note in run["info"].get("failures") or [])
    return lines


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict) -> dict:
    pairs = [p for p in pairs if p["parent"]["metrics"] and p["change"]["metrics"]]
    if not pairs:
        return {}
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum((c - p) * sign > 0 for p, c in zip(par, chg))
        losses = sum((c - p) * sign < 0 for p, c in zip(par, chg))
        qp, qc = quartiles(par), quartiles(chg)
        out[name] = {"unit": pairs[0]["parent"]["metrics"][name]["unit"],
                     "better": better.get(name, "lower"), "parent": qp, "change": qc,
                     "change_wins": wins, "change_losses": losses, "pairs": len(pairs),
                     "ratio_of_medians": (qc["median"] / qp["median"]
                                          if qp["median"] else None)}
    return out


def run_pair(trees: dict, workload: str, seed: int, seconds: float, trace: int,
             parent_first: bool) -> dict:
    order = ("parent", "change") if parent_first else ("change", "parent")
    pair = {"seed": seed, "order": list(order)}
    for side in order:
        pair[side] = run_once(trees[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} trace {trace} {side}: "
              f"exit={pair[side]['exit']} correct={pair[side]['correct']}", flush=True)
    return pair


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seeds", default="744-753")
    p.add_argument("--trace-seeds", default="744-746", help="traced pairs; '' for none")
    p.add_argument("--out-dir", default=ROOT)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    trace_seeds = seed_list(args.trace_seeds) if args.trace_seeds else []

    # workloads interleave per seed, so both see the same machine periods
    results = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for trace, runs, seed_set in ((0, results, seeds), (1, traced, trace_seeds)):
        for i, seed in enumerate(seed_set):
            for w in workloads:
                runs[w].append(run_pair(trees, w, seed, bench["run_seconds"], trace,
                                        parent_first=i % 2 == 0))

    for w in workloads:
        doc = {"workload": w,
               "command": f"perfbench/run.py --workload {w} --seed SEED "
                          f"--seconds {bench['run_seconds']} --trace {{0,1}}",
               "seeds": seeds, "trace_seeds": trace_seeds,
               "meta": {side: next((p[side]["info"]["meta"] for p in results[w] + traced[w]
                                    if p[side]["info"]), None) for side in trees},
               "pairs_note": "order alternates per pair; wins count pairs where the "
                             "change reads better, ties count for neither side",
               "summary": summarise(results[w], better),
               "pairs": results[w]}
        if traced[w]:
            doc["traced_summary"] = summarise(traced[w], better)
            doc["traced_pairs"] = traced[w]
        path = os.path.join(args.out_dir, f"BENCH_{w}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {path}")
    report = failure_report([(w, trace, pair) for trace, runs in ((0, results), (1, traced))
                             for w in workloads for pair in runs[w]])
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
