#!/usr/bin/env python3
"""Profile training steps, streaming chunk steps, loss-head calls or corpus set-up; print the top entries by self time.

    python scripts/profile_step.py train --n 20 --seed 0
    python scripts/profile_step.py stream --spec 12,1,0 --n 500 --seed 0
    python scripts/profile_step.py head --spec 12,1,0 --n 200 --seed 0
    python scripts/profile_step.py setup --n 3 --seed 0

``train`` runs ``n`` ``training.train_step`` calls at the ``dm_mcr`` config
of ``experiments.toy_setup()``: dual mode with the consistency loss.
``stream`` first trains the model for 25 ``dm_mcr`` steps, outside the
profile: an untrained model emits over ten times the reference tokens, and
its greedy loop would hide the chunk steps.  It then decodes eval utterances
with ``decoding.decode_mode`` at the spec ``L,C,R`` until their chunk steps
sum to at least ``n``, so the profile holds each chunk's encoder step and its
greedy loop as a real decode pays them; the title gives the tokens emitted
per utterance.
``head`` makes ``n`` loss-head calls, cycling over padded batches of four
eval utterances: the transducer loss on the offline and on the streaming
(``L,C,R``) lattice of each batch, then the fused consistency loss with the
benchmark's tile, a third of the vocabulary; the lattices are built before
profiling starts.
``setup`` generates the train and eval corpora of ``experiments.toy_setup()``
``n`` times, with both corpus seeds set to ``--seed``: the corpus stage of
every set-up.  The model, the utterances and the training rng all
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
from unify_rnnt.decoding import decode_mode
from unify_rnnt.mcr import MCRConfig, mcr_loss
from unify_rnnt.model import TransducerModel
from unify_rnnt.rnnt_loss import JointLogits, rnnt_loss
from unify_rnnt.training import AdamW, train_step

TOP = 25
STREAM_TRAIN_STEPS = 25
HEAD_BATCHES = 8
HEAD_BATCH_SIZE = 4


def train_steps(setup, seed: int, n: int, model: TransducerModel | None = None):
    """A closure running ``n`` seeded ``train_step`` calls at ``dm_mcr`` on
    ``model``, by default a fresh one drawn from ``seed``."""
    cfg = experiments.strategy_train_config(setup, "dm_mcr", seed)
    if model is None:
        model = TransducerModel(replace(setup.model, seed=seed))
    opt = AdamW(model.parameters(), lr=cfg.max_lr, weight_decay=cfg.weight_decay)
    utts = generate_utterances(replace(setup.train_corpus, seed=seed), 8 * cfg.batch_size)
    rng = np.random.default_rng(seed)

    def run() -> None:
        for step in range(1, n + 1):
            batch = [utts[i] for i in rng.integers(0, len(utts), cfg.batch_size)]
            train_step(model, batch, rng, cfg, opt, step)
    return run


def stream_decodes(setup, seed: int, n: int, spec: ContextSpec):
    """A closure decoding whole utterances at ``spec`` until ``n`` chunk
    steps are done, with a model trained for ``STREAM_TRAIN_STEPS`` steps;
    it returns the chunk steps, utterances decoded and tokens emitted."""
    model = TransducerModel(replace(setup.model, seed=seed))
    train_steps(setup, seed, STREAM_TRAIN_STEPS, model)()
    utts = generate_utterances(replace(setup.eval_corpus, seed=seed), 64)

    def run() -> tuple[int, int, int]:
        steps = decoded = tokens = 0
        while steps < n:
            utt = utts[decoded % len(utts)]
            res = decode_mode(model, utt.features, spec, setup.frame_ms)
            steps += res.steps
            tokens += len(res.tokens)
            decoded += 1
        return steps, decoded, tokens
    return run


def head_batches(setup, seed: int, spec: ContextSpec) -> list:
    """``HEAD_BATCHES`` padded ``(offline, streaming, targets)`` lattice batches
    of ``HEAD_BATCH_SIZE`` eval utterances each."""
    model = TransducerModel(replace(setup.model, seed=seed))
    utts = generate_utterances(replace(setup.eval_corpus, seed=seed),
                               HEAD_BATCHES * HEAD_BATCH_SIZE)
    batches = []
    for b0 in range(0, len(utts), HEAD_BATCH_SIZE):
        group = utts[b0:b0 + HEAD_BATCH_SIZE]
        pairs = []
        for utt in group:
            pred = model.pred_sequence(utt.tokens)
            pairs.append([model.joint(model.encode(utt.features, m), pred).data
                          for m in (None, spec)])
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


def corpus_setups(setup, seed: int, n: int):
    """A closure generating ``setup``'s train and eval corpora ``n`` times at
    ``seed``; it returns the frames generated."""
    corpora = ((replace(setup.train_corpus, seed=seed), setup.n_train),
               (replace(setup.eval_corpus, seed=seed), setup.n_eval))

    def run() -> int:
        return sum(len(utt.features) for _ in range(n) for cfg, count in corpora
                   for utt in generate_utterances(cfg, count))
    return run


def parse_spec(text: str) -> ContextSpec:
    try:
        left, chunk, right = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"spec {text!r} is not L,C,R") from None
    return ContextSpec(left, chunk, right)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("train", "stream", "head", "setup"))
    parser.add_argument("--n", type=int, default=None,
                        help="steps to profile (default: 20 train steps, at least 500 "
                             "chunk steps, 200 loss-head calls, 3 corpus set-ups)")
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
        title = f"{n} train_step calls at dm_mcr, seed {args.seed}"
    elif args.what == "head":
        n = 200 if args.n is None else args.n
        profile.runcall(head_calls(setup, args.seed, n, args.spec))
        s = args.spec
        title = (f"{n} loss-head calls on {HEAD_BATCHES} batches of {HEAD_BATCH_SIZE} "
                 f"utterances at L={s.left} C={s.chunk} R={s.right}, seed {args.seed}")
    elif args.what == "setup":
        n = 3 if args.n is None else args.n
        frames = profile.runcall(corpus_setups(setup, args.seed, n))
        title = (f"{n} generations of the train ({setup.n_train} utterances) and eval "
                 f"({setup.n_eval} utterances) corpora, {frames} frames, seed {args.seed}")
    else:
        n = 500 if args.n is None else args.n
        steps, decoded, tokens = profile.runcall(stream_decodes(setup, args.seed, n,
                                                                args.spec))
        s = args.spec
        title = (f"{steps} chunk steps in {decoded} streaming decodes "
                 f"({tokens / decoded:.1f} tokens per utterance) at "
                 f"L={s.left} C={s.chunk} R={s.right}, seed {args.seed}")

    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    stats.sort_stats("tottime").print_stats(TOP)
    print(title)
    print(out.getvalue().strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
