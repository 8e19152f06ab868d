"""Toy-scale experiment harness: trend, ablation and latency-sweep runs.

A run is one (strategy, seed) training job over the shared synthetic corpus,
evaluated offline and at a fixed latency ladder.  Runs are self-contained and
picklable, so the suite fans out over a process pool; results are gathered in
a fixed order and are deterministic per seed regardless of worker count.

Strategies:
  offline_baseline    single mode, always offline
  streaming_baseline  single mode, always streaming (sampled context)
  sm                  single mode, coin flip per step
  dm                  dual mode, no consistency loss
  dm_mcr              dual mode plus symmetric consistency loss
  dm_mcr_offteacher / dm_mcr_strteacher   one-directional ablations
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .contexts import ContextSets, ContextSpec
from .corpus import CorpusConfig, generate_utterances
from .decoding import evaluate_utterances, mean_ter
from .mcr import MCRConfig
from .model import ModelConfig, OFFLINE, TransducerModel, streaming_mode
from .training import ModeWeights, TrainConfig, run_training

TREND_STRATEGIES = ("offline_baseline", "streaming_baseline", "sm", "dm", "dm_mcr")
ABLATION_STRATEGIES = ("dm_mcr", "dm_mcr_offteacher", "dm_mcr_strteacher")

FRAME_MS = 40.0


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
        mcr=MCRConfig(direction="symmetric", lam=0.3, variant="full_joint", tile=18),
        context_sets=ContextSets.from_nested([[12], [1, 2, 4], [0, 1, 2, 4]]),
        steps=steps, warmup_steps=max(1, min(150, steps // 10)),
        max_lr=3e-3, min_lr=3e-4, batch_size=8, seed=0,
        precision="float32", weight_decay=1e-4, clip_norm=5.0)
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
    if strategy == "offline_baseline":
        return replace(base, strategy="single_mode",
                       mode_weights=ModeWeights(alpha=0.5, p_off=1.0))
    if strategy == "streaming_baseline":
        return replace(base, strategy="single_mode",
                       mode_weights=ModeWeights(alpha=0.5, p_off=0.0))
    if strategy == "sm":
        return replace(base, strategy="single_mode",
                       mode_weights=ModeWeights(alpha=0.5, p_off=0.5))
    if strategy == "dm":
        return replace(base, strategy="dual_mode", mcr=replace(base.mcr, lam=0.0))
    if strategy == "dm_mcr":
        return base
    if strategy == "dm_mcr_offteacher":
        return replace(base, mcr=replace(base.mcr, direction="offline_teacher"))
    if strategy == "dm_mcr_strteacher":
        return replace(base, mcr=replace(base.mcr, direction="streaming_teacher"))
    raise ValueError(f"unknown strategy {strategy!r}")


def evaluate_model(model: TransducerModel, utterances, specs, left: int,
                   frame_ms: float) -> dict:
    """Offline TER plus TER at each (chunk, right) spec, in the order given.

    ``utterances`` holds the per-utterance rows: offline first, then each
    spec in turn.
    """
    per_utt = evaluate_utterances(model, utterances, OFFLINE, frame_ms)
    out = {"offline": mean_ter(per_utt), "specs": {}, "utterances": list(per_utt)}
    for chunk, right in specs:
        mode = streaming_mode(ContextSpec(left, chunk, right))
        per_utt = evaluate_utterances(model, utterances, mode, frame_ms)
        out["specs"][f"{chunk},{right}"] = mean_ter(per_utt)
        out["utterances"].extend(per_utt)
    return out


def sweep_model(model: TransducerModel, utterances, budgets, left: int,
                frame_ms: float) -> list[dict]:
    """All (C, R = budget - C) splits per latency budget, with mean TER."""
    rows = []
    for budget in budgets:
        for chunk in range(1, budget + 1):
            right = budget - chunk
            mode = streaming_mode(ContextSpec(left, chunk, right))
            ter = mean_ter(evaluate_utterances(model, utterances, mode, frame_ms))
            rows.append({"budget": budget,
                         "budget_s": budget * frame_ms / 1000.0,
                         "chunk": chunk, "right": right,
                         "chunk_s": chunk * frame_ms / 1000.0,
                         "right_s": right * frame_ms / 1000.0,
                         "ter": ter})
    return rows


def run_one(job: tuple) -> dict:
    """Train one (strategy, seed) job and evaluate it; process-pool entry."""
    setup, strategy, seed, want_sweep = job
    train_utts = generate_utterances(setup.train_corpus, setup.n_train)
    eval_utts = generate_utterances(setup.eval_corpus, setup.n_eval)
    cfg = strategy_train_config(setup, strategy, seed)
    model = TransducerModel(replace(setup.model, seed=seed))
    last = run_training(model, train_utts, cfg)
    ev = evaluate_model(model, eval_utts, setup.eval_specs, setup.eval_left,
                        setup.frame_ms)
    result = {"strategy": strategy, "seed": seed, "final": last,
              "offline": ev["offline"], "specs": ev["specs"]}
    if want_sweep:
        result["sweep"] = sweep_model(model, eval_utts, setup.budgets,
                                      setup.eval_left, setup.frame_ms)
    return result


def default_workers() -> int:
    env = os.environ.get("UNIFY_RNNT_THREADS")
    if env:
        return max(1, int(env))
    return max(1, min(4, os.cpu_count() or 1))


def run_suite(strategies, seeds, setup: ToySetup | None = None,
              steps: int = 2000, workers: int | None = None,
              sweep_strategies=("dm_mcr",)) -> dict:
    """Run the strategy x seed grid, in parallel processes when available."""
    if setup is None:
        setup = toy_setup(steps)
    jobs = [(setup, strategy, seed, strategy in sweep_strategies)
            for strategy in strategies for seed in seeds]
    if workers is None:
        workers = default_workers()
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]
    table: dict = {}
    for res in results:
        table.setdefault(res["strategy"], {})[res["seed"]] = res
    return {"setup": setup, "results": table}


def format_suite_table(suite: dict) -> str:
    """Human-readable TER table, strategies by latency columns."""
    setup = suite["setup"]
    specs = [f"{c},{r}" for c, r in setup.eval_specs]
    header = f"{'strategy':22s} {'seed':>4s} {'offline':>8s} " + " ".join(
        f"{s:>8s}" for s in specs)
    lines = [header]
    for strategy, by_seed in suite["results"].items():
        for seed, res in sorted(by_seed.items()):
            cells = " ".join(f"{res['specs'][s]:8.4f}" for s in specs)
            lines.append(f"{strategy:22s} {seed:4d} {res['offline']:8.4f} {cells}")
    return "\n".join(lines)
