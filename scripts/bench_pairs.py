#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs; write BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change .

Each checkout is a directory holding ``perfbench/`` and ``src/`` (a clone or
an exported tree of one commit).  For every seed and every workload of
``BENCHMARK.json`` the script runs ``perfbench/run.py --trace 0`` once in
each checkout, the parent first on even pair indices and the change first on
odd ones, so a slow period of the machine falls on both sides alike.  The
run kind ``PROBE`` (``mcr_v1024``) runs beside them at the same seeds: the
consistency loss's memory probe ``PROBE_ARGS`` (``bench-mcr`` at V=1024,
tile 128), whose report fields in ``PROBE_UNITS`` are its metrics, all
better lower, and whose other fields are its run details.
``--trace-seeds`` adds traced (``--trace 1``) pairs of every workload of
``BENCHMARK.json`` for the per-layer metrics.  Every run is one process with
its checkout's ``src/`` first on ``PYTHONPATH`` and one BLAS thread
(``side_env``).  The defaults are the seeds behind the committed
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

``--claim METRIC:WORKLOAD`` (repeatable) prints the verdict on a claimed
gain: both medians, the parent's interquartile range, the change's wins
over the pairs, and "met" only when the change wins at least nine tenths of
the pairs and its median is better than the parent's by more than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = "mcr_v1024"
PROBE_ARGS = ["-m", "unify_rnnt.cli", "bench-mcr", "--batch", "4", "--frames", "64",
              "--labels", "32", "--vocab", "1024", "--tile", "128", "--direction", "symmetric"]
PROBE_UNITS = {"aux_bytes_fused": "bytes", "aux_bytes_naive": "bytes", "ratio": "frac",
               "wall_ms_fused": "ms", "wall_ms_naive": "ms"}


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def side_env(tree: str) -> dict:
    """The environment of every process run on checkout ``tree``: its ``src/``
    first on ``PYTHONPATH`` and one BLAS thread (results depend on the count)."""
    src = os.path.join(tree, "src")
    return {**os.environ,
            **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    if workload == PROBE:
        cmd = [sys.executable, *PROBE_ARGS, "--seed", str(seed)]
    else:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=side_env(tree), capture_output=True, text=True,
                          check=False)
    try:
        if workload == PROBE:
            # one JSON report; the fields that are not metrics are the run's details
            info = json.loads(done.stdout)
            result = {"correct": True, "metrics": {k: {"value": info.pop(k), "unit": unit}
                                                   for k, unit in PROBE_UNITS.items()}}
        else:
            lines = done.stdout.strip().splitlines()
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


def claim_verdict(summary: dict, metric: str, workload: str) -> str:
    """One line: the medians, the parent IQR, the wins and whether the claim is met."""
    row = summary.get(metric)
    if row is None:
        return f"claim {metric} on {workload}: no pair has this metric: not met"
    par, chg = row["parent"], row["change"]
    iqr = par["q3"] - par["q1"]
    gain = (par["median"] - chg["median"]) * (1.0 if row["better"] == "lower" else -1.0)
    met = row["change_wins"] >= 0.9 * row["pairs"] and gain > iqr
    return (f"claim {metric} on {workload}: parent median {par['median']:.6g}, "
            f"change median {chg['median']:.6g}, parent IQR {iqr:.6g}, gain {gain:.6g}, "
            f"change wins {row['change_wins']}/{row['pairs']} pairs: "
            f"{'met' if met else 'not met'}")


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
    p.add_argument("--seeds", default="754-763")
    p.add_argument("--trace-seeds", default="754-756", help="traced pairs; '' for none")
    p.add_argument("--out-dir", default=ROOT)
    p.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD",
                   help="print the verdict on a claimed gain of METRIC on WORKLOAD")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    better.update(dict.fromkeys(PROBE_UNITS, "lower"))
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = [w["name"] for w in bench["workloads"]]
    # workloads interleave per seed, so all see the same machine periods; the
    # probe is not traced
    results = {w: [] for w in workloads + [PROBE]}
    traced = {w: [] for w in workloads}
    claims = [tuple(c.rpartition(":")[::2]) for c in args.claim]
    for metric, workload in claims:
        if metric not in better or workload not in results:
            p.error(f"--claim {metric}:{workload}: need METRIC:WORKLOAD of BENCHMARK.json "
                    f"or of {PROBE}")
    seeds = seed_list(args.seeds)
    trace_seeds = seed_list(args.trace_seeds) if args.trace_seeds else []

    for trace, runs, seed_set in ((0, results, seeds), (1, traced, trace_seeds)):
        for i, seed in enumerate(seed_set):
            for w in runs:
                runs[w].append(run_pair(trees, w, seed, bench["run_seconds"], trace,
                                        parent_first=i % 2 == 0))

    summaries = {w: summarise(results[w], better) for w in results}
    # each side's host and package details, from its first perfbench run that printed them
    meta = {side: next((pair[side]["info"]["meta"] for w in workloads
                        for pair in results[w] + traced[w] if pair[side]["info"]), None)
            for side in trees}
    for w in results:
        doc = {"workload": w,
               "command": (f"python {' '.join(PROBE_ARGS)} --seed SEED" if w == PROBE else
                           f"perfbench/run.py --workload {w} --seed SEED "
                           f"--seconds {bench['run_seconds']} --trace {{0,1}}"),
               "seeds": seeds, "trace_seeds": trace_seeds if w in traced else [],
               "meta": meta,
               "pairs_note": "order alternates per pair; wins count pairs where the "
                             "change reads better, ties count for neither side",
               "summary": summaries[w],
               "pairs": results[w]}
        if traced.get(w):
            doc["traced_summary"] = summarise(traced[w], better)
            doc["traced_pairs"] = traced[w]
        path = os.path.join(args.out_dir, f"BENCH_{w}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {path}")
    for metric, workload in claims:
        print(claim_verdict(summaries[workload], metric, workload))
    report = failure_report([(w, trace, pair) for trace, runs in ((0, results), (1, traced))
                             for w in runs for pair in runs[w]])
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
