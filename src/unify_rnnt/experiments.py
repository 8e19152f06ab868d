"""Toy-scale experiment harness: trend, ablation and latency-sweep runs.

A run is one (strategy, seed) training job over the shared synthetic corpus.
It is evaluated by :func:`decoding.evaluate` offline and at a fixed latency
ladder, and, for ``dm_mcr``, on :func:`contexts.latency_splits`;
its result keeps the summary rows.  Runs are self-contained and picklable, so
the suite fans out over a process pool of ``spawn`` workers, each started
with one BLAS thread; results are gathered in a fixed order and are
deterministic per seed regardless of the worker count and of the BLAS
threads of the calling process.

Strategies:
  offline_baseline    single mode, always offline
  streaming_baseline  single mode, always streaming (sampled context)
  sm                  single mode, coin flip per step
  dm                  dual mode, no consistency loss
  dm_mcr              dual mode plus symmetric consistency loss
  dm_mcr_offteacher / dm_mcr_strteacher   one-directional ablations
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .contexts import ContextSets, ContextSpec, latency_of, latency_splits
from .corpus import CorpusConfig, generate_utterances
from .decoding import evaluate, mode_label
from .mcr import MCRConfig
from .model import ModelConfig, TransducerModel
from .training import ModeWeights, TrainConfig, run_training

TREND_STRATEGIES = ("offline_baseline", "streaming_baseline", "sm", "dm", "dm_mcr")
ABLATION_STRATEGIES = ("dm_mcr", "dm_mcr_offteacher", "dm_mcr_strteacher")

FRAME_MS = 40.0
# the thread counts BLAS builds read when numpy loads: a product's rounding
# depends on how many threads split it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ToySetup:
    """Frozen desk-scale configuration shared by all runs of a suite."""

    train_corpus: CorpusConfig
    eval_corpus: CorpusConfig
    n_train: int
    n_eval: int
    model: ModelConfig
    train: TrainConfig
    eval_left: int
    eval_specs: tuple[tuple[int, int], ...]
    budgets: tuple[int, ...]
    frame_ms: float = FRAME_MS


def toy_setup(steps: int = 2000) -> ToySetup:
    # min_duration 2 keeps every symbol at least one encoder frame wide after
    # the x2 frame stacking; the eval corpus oversamples ambiguous pairs
    corpus = CorpusConfig(n_symbols=16, feat_dim=16, min_duration=2, max_duration=4,
                          min_symbols=4, max_symbols=12, coarticulation=0.4,
                          noise_sigma=0.3, ambiguous_pairs=4, seed=1234)
    eval_corpus = replace(corpus, seed=991, ambiguous_boost=3.0)
    model = ModelConfig(feat_dim=16, model_dim=64, heads=4, blocks=2, conv_kernel=9,
                        subsample_factor=2, vocab_size=18, predictor_dim=64,
                        joint_dim=64, ff_dim=128, seed=0, dtype="float32")
    train = TrainConfig(
        strategy="dual_mode",
        mode_weights=ModeWeights(alpha=0.5, p_off=0.5),
        mcr=MCRConfig(direction="symmetric", lam=0.3, tile=18),
        context_sets=ContextSets.from_nested([[12], [1, 2, 4], [0, 1, 2, 4]]),
        steps=steps, warmup_steps=max(1, min(150, steps // 10)),
        max_lr=3e-3, min_lr=3e-4, batch_size=8, seed=0,
        weight_decay=1e-4, clip_norm=5.0)
    return ToySetup(train_corpus=corpus, eval_corpus=eval_corpus,
                    n_train=3000, n_eval=160, model=model, train=train,
                    eval_left=12,
                    eval_specs=((1, 0), (1, 1), (2, 2), (4, 4)),
                    budgets=(2, 4))


def strategy_train_config(setup: ToySetup, strategy: str, seed: int) -> TrainConfig:
    base = replace(setup.train, seed=seed)
    if strategy.startswith("dm"):
        # dual mode runs two forwards per step; halve the batch for compute parity
        base = replace(base, batch_size=max(1, base.batch_size // 2))
    p_off = {"offline_baseline": 1.0, "streaming_baseline": 0.0, "sm": 0.5}.get(strategy)
    if p_off is not None:
        return replace(base, strategy="single_mode",
                       mode_weights=replace(base.mode_weights, p_off=p_off))
    if strategy == "dm":
        return replace(base, strategy="dual_mode", mcr=replace(base.mcr, lam=0.0))
    if strategy == "dm_mcr":
        return base
    if strategy == "dm_mcr_offteacher":
        return replace(base, mcr=replace(base.mcr, direction="offline_teacher"))
    if strategy == "dm_mcr_strteacher":
        return replace(base, mcr=replace(base.mcr, direction="streaming_teacher"))
    raise ValueError(f"unknown strategy {strategy!r}")


def eval_modes(setup: ToySetup) -> list[ContextSpec | None]:
    """Offline, then each eval spec in the order given."""
    return [None] + [ContextSpec(setup.eval_left, c, r) for c, r in setup.eval_specs]


def _sweep_specs(setup: ToySetup) -> list[ContextSpec]:
    """The latency sweep grid; checks the budgets and the frame duration, so
    a bad value fails before any work."""
    latency_of(None, setup.frame_ms)
    return latency_splits(setup.eval_left, setup.budgets)


def run_one(job: tuple) -> dict:
    """Train one (strategy, seed) job and evaluate it; process-pool entry.

    ``summary`` holds :func:`decoding.evaluate`'s summary rows of
    :func:`eval_modes`; a ``dm_mcr`` run's ``sweep`` holds those of the
    latency sweep grid.
    """
    setup, strategy, seed = job
    sweep_specs = _sweep_specs(setup)
    train_utts = generate_utterances(setup.train_corpus, setup.n_train)
    eval_utts = generate_utterances(setup.eval_corpus, setup.n_eval)
    cfg = strategy_train_config(setup, strategy, seed)
    model = TransducerModel(replace(setup.model, seed=seed))
    last = run_training(model, train_utts, cfg)
    result = {"strategy": strategy, "seed": seed, "final": last,
              "summary": evaluate(model, eval_utts, eval_modes(setup), setup.frame_ms)[1]}
    if strategy == "dm_mcr":
        result["sweep"] = evaluate(model, eval_utts, sweep_specs, setup.frame_ms)[1]
    return result


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to 1 for processes started inside, then
    restore them."""
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_suite(strategies, seeds, setup: ToySetup, workers: int | None = None) -> dict:
    """Run the strategy x seed grid in a pool of ``workers`` processes.

    Every job runs in a ``spawn`` worker started with one BLAS thread, a
    pool of one included, so a result does not depend on the caller's BLAS
    threads.  ``spawn`` re-imports the caller's ``__main__``, so a script
    that calls this must guard its entry point with ``if __name__ ==
    "__main__"``.  A latency budget below 1 frame, or a frame duration that
    is not finite and positive, raises ``ValueError`` before any job runs.
    """
    _sweep_specs(setup)
    jobs = [(setup, strategy, seed) for strategy in strategies for seed in seeds]
    if workers is None:
        workers = max(1, min(4, os.cpu_count() or 1))
    with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(run_one, jobs))
    table: dict = {}
    for res in results:
        table.setdefault(res["strategy"], {})[res["seed"]] = res
    return {"setup": setup, "results": table}


def format_suite_table(suite: dict) -> str:
    """Human-readable TER table: a line per (strategy, seed), a column per
    eval mode, from the runs' summary rows."""
    labels = [mode_label(spec) for spec in eval_modes(suite["setup"])]
    lines = [f"{'strategy':22s} {'seed':>4s} " + " ".join(f"{m:>8s}" for m in labels)]
    for strategy, by_seed in suite["results"].items():
        for seed, res in sorted(by_seed.items()):
            cells = " ".join(f"{row['ter']:{max(8, len(row['mode']))}.4f}"
                             for row in res["summary"])
            lines.append(f"{strategy:22s} {seed:4d} {cells}")
    return "\n".join(lines)
