#!/usr/bin/env python3
"""Profile training steps or streaming chunk steps; print the top entries by self time.

    python scripts/profile_step.py train --n 20 --seed 0
    python scripts/profile_step.py stream --spec 12,1,0 --n 500 --seed 0

``train`` runs ``n`` dual-mode steps with the consistency loss
(``train_step_dm``) at ``experiments.toy_setup()``.  ``stream`` decodes eval
utterances with ``decoding.greedy_decode_streaming`` at the spec ``L,C,R``
until their chunk steps sum to at least ``n``, so the profile holds each
chunk's encoder step and its greedy loop as a real decode pays them.  The
model, the utterances and the training rng all derive from ``--seed``, so a
profile can be reproduced; only its timings vary.  The whole run is profiled
with cProfile and the 25 entries with the largest self time (``tottime``)
are printed.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from dataclasses import replace

import numpy as np

from unify_rnnt import experiments
from unify_rnnt.contexts import ContextSpec
from unify_rnnt.corpus import generate_utterances
from unify_rnnt.decoding import greedy_decode_streaming
from unify_rnnt.model import TransducerModel
from unify_rnnt.training import AdamW, train_step_dm

TOP = 25


def train_steps(setup, seed: int, n: int):
    """A closure running ``n`` seeded ``train_step_dm`` calls."""
    cfg = experiments.strategy_train_config(setup, "dm_mcr", seed)
    model = TransducerModel(replace(setup.model, seed=seed))
    opt = AdamW(model.parameters(), lr=cfg.max_lr, weight_decay=cfg.weight_decay)
    utts = generate_utterances(replace(setup.train_corpus, seed=seed), 8 * cfg.batch_size)
    rng = np.random.default_rng(seed)

    def run() -> None:
        for step in range(1, n + 1):
            batch = [utts[i] for i in rng.integers(0, len(utts), cfg.batch_size)]
            train_step_dm(model, batch, rng, cfg, opt, step)
    return run


def stream_decodes(setup, seed: int, n: int, spec: ContextSpec):
    """A closure decoding whole utterances at ``spec`` until ``n`` chunk
    steps are done; it returns the chunk steps and utterances decoded."""
    model = TransducerModel(replace(setup.model, seed=seed))
    utts = generate_utterances(replace(setup.eval_corpus, seed=seed), 64)

    def run() -> tuple[int, int]:
        steps = decoded = 0
        while steps < n:
            utt = utts[decoded % len(utts)]
            steps += greedy_decode_streaming(model, utt.features, spec, setup.frame_ms).steps
            decoded += 1
        return steps, decoded
    return run


def parse_spec(text: str) -> ContextSpec:
    try:
        left, chunk, right = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"spec {text!r} is not L,C,R") from None
    return ContextSpec(left, chunk, right)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("train", "stream"))
    parser.add_argument("--n", type=int, default=None,
                        help="steps to profile (default: 20 train steps, at least 500 chunk steps)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spec", type=parse_spec, default=ContextSpec(12, 1, 0),
                        help="L,C,R of the chunk steps (default 12,1,0)")
    args = parser.parse_args(argv)

    setup = experiments.toy_setup()
    profile = cProfile.Profile()
    if args.what == "train":
        n = 20 if args.n is None else args.n
        profile.runcall(train_steps(setup, args.seed, n))
        title = f"{n} train_step_dm calls, seed {args.seed}"
    else:
        n = 500 if args.n is None else args.n
        steps, decoded = profile.runcall(stream_decodes(setup, args.seed, n, args.spec))
        s = args.spec
        title = (f"{steps} chunk steps in {decoded} streaming decodes at "
                 f"L={s.left} C={s.chunk} R={s.right}, seed {args.seed}")

    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    stats.sort_stats("tottime").print_stats(TOP)
    print(title)
    print(out.getvalue().strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
