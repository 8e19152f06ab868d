"""The corpus generator against its earlier per-symbol form, bit for bit.

The reference below is the generator that ``corpus.generate_utterance``
replaced, kept as its specification: per symbol it rebuilds the draw weights,
takes one noise block and mixes one base row.  The generator that draws one
noise block per utterance must consume the same random numbers in the same
order and produce the same ids, tokens and features, down to their dtypes.
"""

from dataclasses import replace

import numpy as np
import pytest

from unify_rnnt import experiments
from unify_rnnt.corpus import (CorpusConfig, _tables, ambiguous_symbols, generate_utterance,
                               generate_utterances, successor_sets, symbol_embeddings)

# ---------------------------------------------------------------------------
# reference: the per-symbol generator
# ---------------------------------------------------------------------------


def _ref_weighted_choice(rng, candidates, cfg, ambiguous):
    if cfg.ambiguous_boost == 1.0:
        return int(candidates[rng.integers(len(candidates))])
    weights = np.array([cfg.ambiguous_boost if c in ambiguous else 1.0
                        for c in candidates])
    weights /= weights.sum()
    return int(rng.choice(candidates, p=weights))


def ref_generate_utterance(rng, cfg, uid=None, tables=None):
    if tables is None:
        tables = (symbol_embeddings(cfg), successor_sets(cfg))
    emb, succ = tables
    ambiguous = ambiguous_symbols(cfg)
    if uid is None:
        uid = f"u{rng.integers(1 << 62):016x}"
    n = int(rng.integers(cfg.min_symbols, cfg.max_symbols + 1))
    tokens = np.empty(n, dtype=np.int64)
    tokens[0] = _ref_weighted_choice(rng, np.arange(1, cfg.n_symbols + 1), cfg, ambiguous)
    for i in range(1, n):
        tokens[i] = _ref_weighted_choice(rng, succ[int(tokens[i - 1])], cfg, ambiguous)
    durations = rng.integers(cfg.min_duration, cfg.max_duration + 1, size=n)
    gamma = cfg.coarticulation
    frames = []
    for i in range(n):
        nxt = int(tokens[i + 1]) if i + 1 < n else 0
        base = (1.0 - gamma) * emb[int(tokens[i])] + gamma * emb[nxt]
        noise = rng.standard_normal((int(durations[i]), cfg.feat_dim)) * cfg.noise_sigma
        frames.append(base[None, :] + noise)
    features = np.concatenate(frames, axis=0).astype(np.float32)
    return tokens, features, uid


# ---------------------------------------------------------------------------


def assert_same(utt, ref):
    tokens, features, uid = ref
    assert utt.id == uid
    assert utt.tokens.dtype == tokens.dtype and utt.tokens.shape == tokens.shape
    assert utt.tokens.tobytes() == tokens.tobytes()
    assert utt.features.dtype == features.dtype and utt.features.shape == features.shape
    assert utt.features.tobytes() == features.tobytes()


def assert_same_stream(cfg, uids, seed, with_tables=True):
    """One call of both generators on twin rngs per entry of ``uids``, compared
    after each call; returns the reference utterances."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tables = _tables(cfg) if with_tables else None
    refs = []
    for uid in uids:
        utt = generate_utterance(rng, cfg, uid=uid, tables=tables)
        refs.append(ref_generate_utterance(ref_rng, cfg, uid=uid))
        assert_same(utt, refs[-1])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    return refs


TOY = experiments.toy_setup()


@pytest.mark.parametrize("which", ["train", "eval"])
def test_toy_corpora_bitwise(which):
    cfg, n = ((TOY.train_corpus, TOY.n_train) if which == "train"
              else (TOY.eval_corpus, TOY.n_eval))
    assert cfg.ambiguous_boost == (1.0 if which == "train" else 3.0)
    refs = assert_same_stream(cfg, [f"utt-{cfg.seed}-{i:05d}" for i in range(n)], cfg.seed)
    corpus = generate_utterances(cfg, n)
    assert len(corpus) == n
    for utt, ref in zip(corpus, refs):
        assert_same(utt, ref)


EDGE_CONFIGS = {
    "default": CorpusConfig(),
    "fixed_duration": CorpusConfig(min_duration=3, max_duration=3),
    "one_symbol": CorpusConfig(min_symbols=1, max_symbols=1),
    "no_pairs": CorpusConfig(ambiguous_pairs=0),
    # 1 + n_symbols - ambiguous_pairs > feat_dim: random unit rows, not a basis
    "random_rows": CorpusConfig(n_symbols=12, feat_dim=5, ambiguous_pairs=2),
    "all_pairs": CorpusConfig(n_symbols=6, ambiguous_pairs=3, max_symbols=6),
    "no_noise": CorpusConfig(noise_sigma=0.0, coarticulation=0.0),
}


@pytest.mark.parametrize("boost", [1.0, 3.0])
@pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
def test_edge_configs_bitwise(name, boost):
    cfg = replace(EDGE_CONFIGS[name], ambiguous_boost=boost)
    if name == "random_rows":
        assert 1 + cfg.n_symbols - cfg.ambiguous_pairs > cfg.feat_dim
    assert_same_stream(cfg, [f"utt-{i}" for i in range(40)], seed=11)


@pytest.mark.parametrize("boost", [1.0, 3.0])
def test_drawn_ids_and_default_tables_bitwise(boost):
    # uid=None draws the id from the rng first; tables=None builds them per call
    cfg = CorpusConfig(ambiguous_boost=boost, seed=4)
    assert_same_stream(cfg, [None] * 30, seed=5, with_tables=False)
    assert_same_stream(cfg, [None] * 30, seed=6)
