#!/usr/bin/env python3
"""Check that two checkouts train, decode and take the loss head bit for bit alike.

    python3 scripts/fingerprint.py --parent ../parent --change .

Each checkout is a directory holding ``src/`` (a clone or an exported tree of
one commit).  The script runs one recipe against each checkout's package, in
a subprocess per checkout with its ``src/`` first on ``PYTHONPATH`` and one
BLAS thread (``bench_pairs.side_env``; results depend on the thread count).
The recipe is fixed; it runs on ``experiments.toy_setup(steps=300)`` and its
corpora:

- trains ``dm_mcr``, ``sm`` and ``dm_mcr_strteacher`` at seeds 11 and 12 for
  300 seeded steps each on the setup's training corpus with
  ``training.run_training``, and digests every step report (its
  ``metrics.jsonl`` record less ``wall_ms``) and each final parameter;
- decodes the first 40 eval utterances (all of them if the setup has fewer)
  with each trained model, offline and at the toy specs, and digests each
  one's tokens and emit frames;
- builds padded batches of four of those utterances from the offline and
  streaming lattices of the two ``dm_mcr`` models at (L, C, R) = (12, 1, 0)
  and (12, 2, 4) with ``profile_step.lattice_batches``, and digests
  ``rnnt_loss``'s losses and gradients on each lattice batch, and
  ``mcr_backward``'s loss and both gradients for every direction, tiles 1,
  5, 6 and 18 and ``full_grad`` off and on.

It prints one digest per section (train, params, decode, head) and side, and
for a section whose records differ, the first differing one: a step, a
parameter, an utterance or a head case.  It exits 1 on any difference or
when a recipe fails, and 0 when every record is equal.  ``--recipe`` runs the
recipe in this process, on the ``unify_rnnt`` it imports, and prints its
records as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

from bench_pairs import side_env

SCRIPT = os.path.abspath(__file__)
STRATEGIES = ("dm_mcr", "sm", "dm_mcr_strteacher")
SEEDS = (11, 12)
STEPS = 300
EVAL_UTTS = 40
HEAD_SPECS = ((12, 1, 0), (12, 2, 4))
HEAD_TILES = (1, 5, 6, 18)
SECTIONS = ("train", "params", "decode", "head")


def digest(*parts) -> str:
    """sha256 over strings (utf-8) and arrays (dtype, shape and bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(part.tobytes())
    return h.hexdigest()


def recipe():
    """Yield the recipe's ``(section, key, digest)`` records in a fixed order."""
    from unify_rnnt import experiments
    from unify_rnnt.corpus import generate_utterances
    from unify_rnnt.decoding import decode_mode, mode_label

    setup = experiments.toy_setup(steps=STEPS)
    train_utts = generate_utterances(setup.train_corpus, setup.n_train)
    eval_utts = generate_utterances(setup.eval_corpus, min(EVAL_UTTS, setup.n_eval))
    models = {}
    for strategy in STRATEGIES:
        for seed in SEEDS:
            models[strategy, seed] = yield from train_records(setup, strategy, seed, train_utts)
    for (strategy, seed), model in models.items():
        for spec in experiments.eval_modes(setup):
            for utt in eval_utts:
                res = decode_mode(model, utt.features, spec, setup.frame_ms)
                yield ("decode", f"{strategy} seed {seed} {mode_label(spec)} {utt.id}",
                       digest(json.dumps([res.tokens, res.emit_frame])))
    for seed in SEEDS:
        yield from head_records(models["dm_mcr", seed], eval_utts, f"seed {seed}")


def train_records(setup, strategy: str, seed: int, utts):
    """Train one run, yielding its step and parameter records; return the model."""
    from unify_rnnt import experiments
    from unify_rnnt.model import TransducerModel
    from unify_rnnt.training import run_training

    run = f"{strategy} seed {seed}"
    model = TransducerModel(replace(setup.model, seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        metrics = os.path.join(tmp, "metrics.jsonl")
        run_training(model, utts, experiments.strategy_train_config(setup, strategy, seed),
                     metrics_path=metrics)
        with open(metrics) as fh:
            reports = [json.loads(line) for line in fh]
    for report in reports:
        report.pop("wall_ms")
        yield "train", f"{run} step {report['step']}", digest(json.dumps(report, sort_keys=True))
    for name, p in model.param_items():
        yield "params", f"{run} {name}", digest(p.data)
    return model


def head_records(model, utts, run: str):
    """The loss head's records on ``model``'s padded lattice batches of
    ``utts``, offline against each of ``HEAD_SPECS``."""
    import numpy as np
    from profile_step import lattice_batches

    from unify_rnnt.contexts import ContextSpec
    from unify_rnnt.mcr import DIRECTIONS, MCRConfig, mcr_backward
    from unify_rnnt.rnnt_loss import rnnt_loss

    for spec in (ContextSpec(*s) for s in HEAD_SPECS):
        for b, (*lattices, targets) in enumerate(lattice_batches(model, utts, spec)):
            case = f"{run} L{spec.left}C{spec.chunk}R{spec.right} batch {b}"
            for mode, lattice in zip(("offline", "streaming"), lattices):
                yield "head", f"{case} rnnt_loss {mode}", digest(*rnnt_loss(lattice, targets))
            for direction in DIRECTIONS:
                for tile in HEAD_TILES:
                    for full_grad in (False, True):
                        res = mcr_backward(*lattices, MCRConfig(direction=direction, tile=tile,
                                                                full_grad=full_grad))
                        yield ("head", f"{case} mcr {direction} tile {tile} "
                                       f"full_grad {int(full_grad)}",
                               digest(np.float64(res.loss), res.grad_offline,
                                      res.grad_streaming))


def start_recipe(tree: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, SCRIPT, "--recipe"], cwd=tree, env=side_env(tree),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def collect(side: str, tree: str, proc: subprocess.Popen) -> tuple[dict | None, list[str]]:
    """The records of one finished recipe by section, or None and the reason."""
    out, err = proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"{side}: recipe exited {proc.returncode}; stderr ends:",
                      *(f"  {line}" for line in err[-2000:].splitlines())]
    package = json.loads(lines[0])["package"]
    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(package).startswith(src + os.sep):
        return None, [f"{side}: recipe imported unify_rnnt from {package}, not from {src}"]
    records = {s: [] for s in SECTIONS}
    for line in lines[1:]:
        section, key, value = json.loads(line)
        records[section].append((key, value))
    return records, []


def compare(records: dict) -> tuple[list[str], bool]:
    """Report lines for the two sides' records, and whether all are equal."""
    lines, same = [], True
    for section in SECTIONS:
        par, chg = records["parent"][section], records["change"][section]
        digests = {side: digest("".join(k + v for k, v in records[side][section]))
                   for side in records}
        lines.append(f"{section:6s} parent {digests['parent'][:16]} ({len(par)} records)  "
                     f"change {digests['change'][:16]} ({len(chg)} records)")
        if par == chg:
            continue
        same = False
        n = min(len(par), len(chg))
        i = next((i for i in range(n) if par[i] != chg[i]), n)
        if i == n:
            lines.append(f"  {section} differs: one side stops after record {n}")
        elif par[i][0] != chg[i][0]:
            lines.append(f"  {section} differs at record {i}: parent {par[i][0]!r}, "
                         f"change {chg[i][0]!r}")
        else:
            lines.append(f"  {section} first differs at {par[i][0]}: parent {par[i][1][:16]}, "
                         f"change {chg[i][1][:16]}")
    return lines, same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--recipe", action="store_true",
                   help="run the recipe here and print its records")
    args = p.parse_args(argv)

    if args.recipe:
        import unify_rnnt
        print(json.dumps({"package": unify_rnnt.__file__}), flush=True)
        for record in recipe():
            print(json.dumps(record))
        return 0
    if not (args.parent and args.change):
        p.error("--parent and --change are required")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    procs = {side: start_recipe(tree) for side, tree in trees.items()}
    records, problems = {}, []
    for side, proc in procs.items():
        records[side], why = collect(side, trees[side], proc)
        problems += why
    if problems:
        print("\n".join(problems))
        return 1
    lines, same = compare(records)
    print("\n".join(lines))
    print("bit-identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
