"""The stacked encode of a training step: several (utterance, mode) segments
run as one layout.

Each segment's rows must be the rows ``encode`` gives it alone, bit for
bit (a one-row segment's to rounding: see below); no segment may read
another's frames; and within a streaming segment
no row of chunk ``[s, s+C)`` may read a frame at or past ``s+C+R``.  The
stacked layout is assembled per call from the cached per-``(T, spec)``
layouts and never cached itself.
"""

from dataclasses import replace

import numpy as np
import pytest

from unify_rnnt import experiments
from unify_rnnt import tensor as tz
from unify_rnnt.contexts import ContextSpec
from unify_rnnt.corpus import generate_utterances
from unify_rnnt.decoding import decode_mode
from unify_rnnt.model import ModelConfig, TransducerModel
from unify_rnnt.training import AdamW, run_training

CFG = ModelConfig(feat_dim=6, model_dim=16, heads=2, blocks=2, conv_kernel=5,
                  subsample_factor=2, vocab_size=6, predictor_dim=8, joint_dim=8,
                  ff_dim=16, seed=3)
SPECS = [None, ContextSpec(12, 1, 0), ContextSpec(3, 2, 1), ContextSpec(2, 1, 3),
         ContextSpec(12, 4, 4)]
LENGTHS = (2, 9, 30, 17, 23)   # raw frames: 1 to 15 encoder frames


@pytest.fixture(params=["float32", "float64"])
def model(request):
    return TransducerModel(replace(CFG, dtype=request.param))


def segments(rng):
    """Every utterance under every spec, mode-major, as a training step stacks them."""
    feats = [rng.standard_normal((n, CFG.feat_dim)) for n in LENGTHS]
    return ([f for _ in SPECS for f in feats], [spec for spec in SPECS for _ in feats])


def encode_batch(model, feats, specs, taped):
    if not taped:
        return model.encode_batch(feats, specs)
    with tz.Tape():
        return model.encode_batch(feats, specs)


@pytest.mark.parametrize("taped", [False, True], ids=["kernels", "tape"])
def test_stacked_rows_equal_per_utterance_rows_bitwise(model, rng, taped):
    feats, specs = segments(rng)
    enc, lengths = encode_batch(model, feats, specs, taped)
    assert enc.shape == (len(feats), max(lengths), CFG.model_dim)
    assert enc.requires_grad == taped
    eps = np.finfo(model.np_dtype).eps
    for i, (f, spec) in enumerate(zip(feats, specs)):
        alone = model.encode(f, spec).data
        assert lengths[i] == alone.shape[0]
        if lengths[i] > 1:
            np.testing.assert_array_equal(enc.data[i, :lengths[i]], alone)
        else:
            # alone, a one-row segment's products are vector-matrix products,
            # which numpy runs on another BLAS kernel: they round differently
            np.testing.assert_allclose(enc.data[i, :1], alone, rtol=0,
                                       atol=64 * eps * np.abs(alone).max())


def test_perturbing_one_utterance_leaves_every_other_segment_bitwise(model, rng):
    feats, specs = segments(rng)
    base = encode_batch(model, feats, specs, True)[0].data
    n_utts = len(LENGTHS)
    for victim in range(n_utts):
        moved = [f + 1.0 if i % n_utts == victim else f for i, f in enumerate(feats)]
        enc, lengths = encode_batch(model, moved, specs, True)
        for i in range(len(feats)):
            rows = slice(0, lengths[i])
            if i % n_utts == victim:
                assert not np.array_equal(enc.data[i, rows], base[i, rows])
            else:
                np.testing.assert_array_equal(enc.data[i, rows], base[i, rows])


@pytest.mark.parametrize("spec", [s for s in SPECS if s is not None], ids=str)
def test_no_chunk_reads_past_its_horizon_in_the_stacked_layout(model, rng, spec):
    q = CFG.subsample_factor
    feats = [rng.standard_normal((n, CFG.feat_dim)) for n in (30, 25, 14)]
    specs = [None] * len(feats) + [spec] * len(feats)
    base = encode_batch(model, feats * 2, specs, True)[0].data
    T = feats[0].shape[0] // q
    for s in range(0, T, spec.chunk):
        horizon = s + spec.chunk + spec.right
        if horizon >= T:
            break
        moved = feats[0].copy()
        moved[horizon * q:] += 5.0
        enc = encode_batch(model, [moved] + feats[1:] + [moved] + feats[1:], specs, True)[0].data
        # the streaming segment of utterance 0: chunk s's rows stay put
        stream = len(feats)
        np.testing.assert_array_equal(enc[stream, s:s + spec.chunk],
                                      base[stream, s:s + spec.chunk])
        assert not np.array_equal(enc[stream, :T], base[stream, :T])
        for i, f in enumerate(feats[1:], start=1):
            rows = slice(0, len(f) // q)
            np.testing.assert_array_equal(enc[stream + i, rows], base[stream + i, rows])


def test_context_cache_holds_only_per_layout_and_chunk_step_entries():
    setup = experiments.toy_setup(steps=12)
    cfg = experiments.strategy_train_config(setup, "dm_mcr", 0)
    model = TransducerModel(setup.model)
    utts = generate_utterances(setup.train_corpus, 40)
    used = set()
    stacked = model.encode_batch

    def recording(features, specs):
        for f, spec in zip(features, specs):
            T = model.encoded_length(len(f))
            used.add((T, ContextSpec(T, T, 0) if spec is None else spec))
        return stacked(features, specs)
    model.encode_batch = recording
    run_training(model, utts, cfg, opt=AdamW(model.parameters(), lr=cfg.max_lr))
    # one entry per (T, spec) the steps used: no stacked layout was kept
    assert set(model._context_cache) == used
    assert len(used) > cfg.steps
    spec = ContextSpec(setup.eval_left, 2, 2)
    decode_mode(model, utts[0].features, spec, setup.frame_ms)
    for key in model._context_cache:
        assert key in used or key[0] == "step"
