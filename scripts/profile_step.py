#!/usr/bin/env python3
"""Profile training steps, streaming chunk steps or loss-head calls; print the top entries by self time.

    python scripts/profile_step.py train --n 20 --seed 0
    python scripts/profile_step.py stream --spec 12,1,0 --n 500 --seed 0
    python scripts/profile_step.py head --spec 12,1,0 --n 200 --seed 0

``train`` runs ``n`` dual-mode steps with the consistency loss
(``train_step_dm``) at ``experiments.toy_setup()``.  ``stream`` decodes eval
utterances with ``decoding.greedy_decode_streaming`` at the spec ``L,C,R``
until their chunk steps sum to at least ``n``, so the profile holds each
chunk's encoder step and its greedy loop as a real decode pays them.
``head`` makes ``n`` loss-head calls, cycling over padded batches of four
eval utterances: the transducer loss on the offline and on the streaming
(``L,C,R``) lattice of each batch, then the fused consistency loss with the
benchmark's tile, a third of the vocabulary; the lattices are built before
profiling starts.  The model, the utterances and the training rng all
derive from ``--seed``, so a profile can be reproduced; only its timings
vary.  The whole run is profiled with cProfile and the 25 entries with the
largest self time (``tottime``) are printed.
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
from unify_rnnt.mcr import MCRConfig, mcr_loss
from unify_rnnt.model import OFFLINE, TransducerModel, streaming_mode
from unify_rnnt.rnnt_loss import JointLogits, rnnt_loss
from unify_rnnt.training import AdamW, train_step_dm

TOP = 25
HEAD_BATCHES = 8
HEAD_BATCH_SIZE = 4


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


def head_batches(setup, seed: int, spec: ContextSpec) -> list:
    """``HEAD_BATCHES`` padded ``(offline, streaming, targets)`` lattice batches
    of ``HEAD_BATCH_SIZE`` eval utterances each."""
    model = TransducerModel(replace(setup.model, seed=seed))
    utts = generate_utterances(replace(setup.eval_corpus, seed=seed),
                               HEAD_BATCHES * HEAD_BATCH_SIZE)
    mode = streaming_mode(spec)
    batches = []
    for b0 in range(0, len(utts), HEAD_BATCH_SIZE):
        group = utts[b0:b0 + HEAD_BATCH_SIZE]
        pairs = []
        for utt in group:
            pred = model.pred_sequence(utt.tokens)
            pairs.append([model.joint(model.encode(utt.features, m), pred).data
                          for m in (OFFLINE, mode)])
        t_len = [z.shape[0] for z, _ in pairs]
        u_len = [len(utt.tokens) for utt in group]
        lattices = []
        for k in range(2):
            z = np.zeros((len(group), max(t_len), max(u_len) + 1, model.cfg.vocab_size),
                         dtype=pairs[0][0].dtype)
            for i, pair in enumerate(pairs):
                z[i, :t_len[i], :u_len[i] + 1] = pair[k]
            lattices.append(JointLogits(z, t_len, u_len))
        batches.append((*lattices, [np.asarray(utt.tokens) for utt in group]))
    return batches


def head_calls(setup, seed: int, n: int, spec: ContextSpec):
    """A closure making ``n`` loss-head calls over ``head_batches``."""
    batches = head_batches(setup, seed, spec)
    cfg = MCRConfig(direction="symmetric", lam=1.0, tile=max(1, setup.model.vocab_size // 3))

    def run() -> None:
        for k in range(n):
            z_off, z_str, targets = batches[k % len(batches)]
            rnnt_loss(z_off, targets)
            rnnt_loss(z_str, targets)
            mcr_loss(z_off, z_str, cfg)
    return run


def parse_spec(text: str) -> ContextSpec:
    try:
        left, chunk, right = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"spec {text!r} is not L,C,R") from None
    return ContextSpec(left, chunk, right)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("train", "stream", "head"))
    parser.add_argument("--n", type=int, default=None,
                        help="steps to profile (default: 20 train steps, at least 500 "
                             "chunk steps, 200 loss-head calls)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spec", type=parse_spec, default=ContextSpec(12, 1, 0),
                        help="L,C,R of the chunk steps or of the streaming lattices "
                             "(default 12,1,0)")
    args = parser.parse_args(argv)

    setup = experiments.toy_setup()
    profile = cProfile.Profile()
    if args.what == "train":
        n = 20 if args.n is None else args.n
        profile.runcall(train_steps(setup, args.seed, n))
        title = f"{n} train_step_dm calls, seed {args.seed}"
    elif args.what == "head":
        n = 200 if args.n is None else args.n
        profile.runcall(head_calls(setup, args.seed, n, args.spec))
        s = args.spec
        title = (f"{n} loss-head calls on {HEAD_BATCHES} batches of {HEAD_BATCH_SIZE} "
                 f"utterances at L={s.left} C={s.chunk} R={s.right}, seed {args.seed}")
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
