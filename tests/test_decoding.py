"""Greedy decoding, streaming windows, token error rate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unify_rnnt.contexts import ContextSpec, latency_of
from unify_rnnt.decoding import (DecodeResult, greedy_decode_offline,
                                 greedy_decode_streaming, levenshtein, mean_ter,
                                 token_error_rate)
from unify_rnnt.model import ModelConfig, OFFLINE, TransducerModel, streaming_mode

CFG = ModelConfig(feat_dim=4, model_dim=8, heads=2, blocks=1, conv_kernel=3,
                  subsample_factor=2, vocab_size=5, predictor_dim=4, joint_dim=4,
                  ff_dim=8, seed=11, dtype="float64")


def rigged_model(kind: str):
    """Model whose joint always prefers blank / a token / depends on nothing."""
    model = TransducerModel(CFG)
    model.params["joint.w_out"].data[...] = 0.0
    model.params["joint.w_enc"].data[...] = 0.0
    model.params["joint.w_pred"].data[...] = 0.0
    model.params["joint.b"].data[...] = 0.0
    bias = np.zeros(CFG.vocab_size)
    if kind == "blank":
        bias[0] = 5.0
    elif kind == "token":
        bias[2] = 5.0
    # route a constant logit through the output row of the tanh hidden
    model.params["joint.b"].data[0] = 1.0
    model.params["joint.w_out"].data[0, :] = bias / math.tanh(1.0)
    return model


class TestGreedyOffline:
    def test_always_blank_gives_empty_output(self, rng):
        model = rigged_model("blank")
        res = greedy_decode_offline(model, rng.standard_normal((12, 4)))
        assert res.tokens == []
        assert res.emit_frame == []

    def test_always_token_hits_symbol_cap(self, rng):
        model = rigged_model("token")
        res = greedy_decode_offline(model, rng.standard_normal((8, 4)))
        T = 4
        assert len(res.tokens) == 10 * T
        assert res.tokens == [2] * (10 * T)
        assert res.emit_frame == sorted(res.emit_frame)

    def test_token_then_blank(self, rng):
        # real model: first emission recorded at its frame, order nondecreasing
        model = TransducerModel(CFG)
        res = greedy_decode_offline(model, rng.standard_normal((10, 4)))
        assert all(t != 0 for t in res.tokens)
        assert res.emit_frame == sorted(res.emit_frame)
        assert res.worst_case_latency_s == math.inf


class TestGreedyStreaming:
    def test_step_count_and_window_arithmetic(self, rng):
        model = TransducerModel(CFG)
        feats = rng.standard_normal((12, 4))  # T = 6 encoder frames
        spec = ContextSpec(2, 2, 1)
        res = greedy_decode_streaming(model, feats, spec, frame_ms=40.0)
        assert res.steps == 3
        assert res.worst_case_latency_s == pytest.approx(latency_of(spec, 40.0))

    def test_full_context_matches_offline_tokens(self, rng):
        model = TransducerModel(CFG)
        for _ in range(5):
            feats = rng.standard_normal((int(rng.integers(6, 18)), 4))
            T = feats.shape[0] // 2
            spec = ContextSpec(T + 2, T + 2, T + 2)
            off = greedy_decode_offline(model, feats)
            stream = greedy_decode_streaming(model, feats, spec, 40.0)
            assert stream.tokens == off.tokens
            assert stream.emit_frame == off.emit_frame

    def test_determinism(self, rng):
        model = TransducerModel(CFG)
        feats = rng.standard_normal((14, 4))
        spec = ContextSpec(2, 2, 1)
        a = greedy_decode_streaming(model, feats, spec, 40.0)
        b = greedy_decode_streaming(model, feats, spec, 40.0)
        assert a.tokens == b.tokens and a.emit_frame == b.emit_frame and a.steps == b.steps

    def test_never_reads_past_window(self, rng):
        # perturbing features beyond the last window's end must not change
        # anything: the buffer handed to the encoder is truncated there
        model = TransducerModel(CFG)
        feats = rng.standard_normal((16, 4))
        spec = ContextSpec(2, 2, 1)
        base = greedy_decode_streaming(model, feats, spec, 40.0)
        # decode only the first chunk by slicing manually: perturb beyond
        # (chunk + right) * subsample and compare the first emitted prefix
        horizon = (spec.chunk + spec.right) * 2
        perturbed = feats.copy()
        perturbed[horizon:] += 100.0
        res = greedy_decode_streaming(model, perturbed, spec, 40.0)
        first_chunk_base = [t for t, f in zip(base.tokens, base.emit_frame) if f < spec.chunk]
        first_chunk_pert = [t for t, f in zip(res.tokens, res.emit_frame) if f < spec.chunk]
        assert first_chunk_base == first_chunk_pert

    def _chunk_divergence(self, model, feats, spec, conv_mode, margin):
        mode = streaming_mode(spec, conv_mode)
        full = model.encode(feats, mode).data
        T = feats.shape[0] // model.cfg.subsample_factor
        q = model.cfg.subsample_factor
        worst = 0.0
        for s in range(0, T, spec.chunk):
            w0 = max(0, s - spec.left - margin)
            w1 = min(T, s + spec.chunk + spec.right)
            enc = model.encode(feats[w0 * q:w1 * q], mode, grid_offset=w0).data
            keep = enc[s - w0:min(s + spec.chunk, T) - w0]
            worst = max(worst, float(np.abs(keep - full[s:min(s + spec.chunk, T)]).max()))
        return worst

    def test_chunkwise_exactness_single_block_zero_conv(self, rng):
        # kept re-encoded frames equal the full-sequence streaming forward for
        # a single attention block with zero-mode conv, given a left recompute
        # margin of chunk + conv halo (the halo frames need their own chunk's
        # attention window inside the buffer); a halo-free conv is exact with
        # no margin at all
        model = TransducerModel(CFG)
        feats = rng.standard_normal((20, 4))
        spec = ContextSpec(3, 2, 1)
        halo = (CFG.conv_kernel - 1) // 2
        exact = self._chunk_divergence(model, feats, spec, "zero",
                                       margin=spec.chunk + halo)
        assert exact <= 1e-5
        pointwise_cfg = ModelConfig(**{**CFG.__dict__, "conv_kernel": 1})
        exact0 = self._chunk_divergence(TransducerModel(pointwise_cfg), feats, spec,
                                        "zero", margin=0)
        assert exact0 <= 1e-5
        # without the margin the divergence is real; measured, not asserted
        measured = self._chunk_divergence(model, feats, spec, "zero", margin=0)
        print(f"\nchunkwise divergence without left margin: {measured:.3e}")


class TestContextCache:
    def test_streaming_entries_bounded_per_spec(self, rng):
        # decode windows have at most L+C+R frames, and the cache keys their
        # grid offset modulo C
        model = TransducerModel(CFG)
        spec = ContextSpec(3, 2, 1)
        for _ in range(25):
            feats = rng.standard_normal((int(rng.integers(20, 80)), 4))
            greedy_decode_streaming(model, feats, spec, frame_ms=40.0)
        entries = [key for key in model._context_cache if key[1] == spec]
        assert 0 < len(entries) <= (spec.left + spec.chunk + spec.right) * spec.chunk


class TestTokenErrorRate:
    def test_exact_match(self):
        assert token_error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_deletion(self):
        assert token_error_rate([1, 3], [1, 2, 3]) == pytest.approx(1 / 3)

    def test_empty_reference_clamps(self):
        assert token_error_rate([1], []) == 1.0
        assert token_error_rate([], []) == 0.0

    @given(st.lists(st.integers(1, 5), max_size=8),
           st.lists(st.integers(1, 5), max_size=8),
           st.lists(st.integers(1, 5), max_size=8))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.lists(st.integers(1, 5), max_size=8),
           st.lists(st.integers(1, 5), max_size=8))
    def test_distance_symmetry_and_identity(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, a) == 0

    def test_mean_ter_empty(self):
        assert mean_ter([]) == 0.0
