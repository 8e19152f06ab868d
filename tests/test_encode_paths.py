"""The encoder's two sets of ops over its two call shapes.

A stacked encode (a whole utterance is the stack of one segment) runs the
tape ops under a tape and the array kernels off it; a chunk step, which all
decoding runs (offline is one step of ``(T, T, 0)``), runs the kernels
whether a tape is open or not.  Both sets run the one encoder body; the
kernels must give the rows the tape ops give, bit for bit, in every layout
and dtype.
"""

from dataclasses import replace

import numpy as np
import pytest

from unify_rnnt import tensor as tz
from unify_rnnt.contexts import ContextSpec
from unify_rnnt.decoding import decode_mode
from unify_rnnt.model import ModelConfig, StreamState, TransducerModel

CFG = ModelConfig(feat_dim=6, model_dim=16, heads=2, blocks=2, conv_kernel=5,
                  subsample_factor=2, vocab_size=6, predictor_dim=8, joint_dim=8,
                  ff_dim=16, seed=3)
# offline, then training layouts: without and with right-context copy rows
LAYOUTS = [None, ContextSpec(12, 1, 0), ContextSpec(12, 2, 4), ContextSpec(3, 2, 1)]


def taped(fn, *args):
    """``fn(*args)`` under a fresh tape, and the tape."""
    with tz.Tape() as tape:
        return fn(*args), tape


@pytest.fixture(params=["float32", "float64"])
def model(request):
    return TransducerModel(replace(CFG, dtype=request.param))


@pytest.mark.parametrize("spec", LAYOUTS, ids=str)
def test_whole_utterance_rows_agree_bitwise(model, rng, spec):
    for n_frames in (2, 9, 30):
        feats = rng.standard_normal((n_frames, CFG.feat_dim))
        off = model.encode(feats, spec)
        on, _tape = taped(model.encode, feats, spec)
        assert isinstance(off, tz.Tensor) and not off.requires_grad
        assert off.dtype == on.dtype == model.np_dtype
        np.testing.assert_array_equal(off.data, on.data)


@pytest.mark.parametrize("spec", [ContextSpec(12, 1, 0), ContextSpec(2, 1, 1),
                                  ContextSpec(3, 2, 2), ContextSpec(12, 4, 4)], ids=str)
def test_chunk_step_rows_and_caches_agree_bitwise(model, rng, spec):
    # a chunk step runs on the kernels under an open tape too: it records nothing
    feats = rng.standard_normal((37, CFG.feat_dim))
    q, T = CFG.subsample_factor, 37 // CFG.subsample_factor
    off_state, on_state = StreamState(), StreamState()
    for s in range(0, T, spec.chunk):
        window = feats[s * q:min(T, s + spec.chunk + spec.right) * q]
        off = model.encode(window, spec, off_state)
        on, tape = taped(model.encode, window, spec, on_state)
        assert len(tape._records) == 0 and not on.requires_grad
        np.testing.assert_array_equal(off.data, on.data)
        for name in ("keys", "values", "halo"):
            off_cache, on_cache = getattr(off_state, name), getattr(on_state, name)
            assert off_cache.keys() == on_cache.keys()
            for block in off_cache:
                assert type(off_cache[block]) is np.ndarray
                np.testing.assert_array_equal(off_cache[block], on_cache[block])


@pytest.mark.parametrize("spec", [None, ContextSpec(12, 1, 0), ContextSpec(12, 2, 2)],
                         ids=str)
def test_decoded_tokens_agree_on_and_off_the_tape(model, rng, spec):
    emitted = 0
    for n_frames in (3, 14, 25):
        feats = rng.standard_normal((n_frames, CFG.feat_dim))
        off = decode_mode(model, feats, spec, 40.0)
        on, _tape = taped(decode_mode, model, feats, spec, 40.0)
        assert (off.tokens, off.emit_frame) == (on.tokens, on.emit_frame)
        assert off.steps == on.steps
        emitted += len(off.tokens)
    assert emitted > 0


@pytest.mark.parametrize("spec", [None, ContextSpec(12, 2, 4)], ids=str)
def test_a_taped_encode_records_27_ops(model, rng, spec):
    feats = rng.standard_normal((12, CFG.feat_dim))
    _out, tape = taped(model.encode, feats, spec)
    # the input projection, then 13 ops per block
    assert len(tape._records) == 1 + 13 * CFG.blocks == 27


def test_each_kernel_gives_its_ops_data(rng):
    x, w, y = rng.standard_normal((5, 4)), rng.standard_normal((4, 4)), rng.standard_normal(4)
    mask = tz.AttentionMask(np.tril(np.ones((5, 5), bool)))
    taps = tz.ConvTaps.full_context(5, 3)
    kernel = rng.standard_normal((3, 4))
    cases = [("add", (x, x)), ("add", (x, x[:2])), ("linear", (x, w)), ("linear", (x, w, y)),
             ("linear", (rng.standard_normal((2, 5, 4)), w, y)),
             ("relu", (x,)), ("layer_norm", (x, y, y)),
             ("masked_attention", (x, x, x, mask, 2)),
             ("depthwise_conv1d_windows", (x, kernel, taps))]
    for name, args in cases:
        op_args = [tz.constant(a) if isinstance(a, np.ndarray) else a for a in args]
        np.testing.assert_array_equal(getattr(tz.Kernels, name)(*args),
                                      getattr(tz, name)(*op_args).data, err_msg=name)
