"""Greedy decoding, stateful chunk steps, token error rate."""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unify_rnnt.contexts import ContextSpec, latency_of
from unify_rnnt.decoding import decode_mode, evaluate, levenshtein, token_error_rate
from unify_rnnt.model import ModelConfig, StreamState, TransducerModel

Utt = namedtuple("Utt", "id features tokens")

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
        res = decode_mode(model, rng.standard_normal((12, 4)), None, 40.0)
        assert res.tokens == []
        assert res.emit_frame == []

    def test_always_token_hits_symbol_cap(self, rng):
        model = rigged_model("token")
        res = decode_mode(model, rng.standard_normal((8, 4)), None, 40.0)
        T = 4
        assert len(res.tokens) == 10 * T
        assert res.tokens == [2] * (10 * T)
        assert res.emit_frame == sorted(res.emit_frame)

    @pytest.mark.parametrize("spec", [None, ContextSpec(2, 1, 0)])
    @pytest.mark.parametrize("logits,token", [([0., 1., 3., 3., 3.], 2),
                                              ([3., 0., 0., 3., 3.], 0)])
    def test_tied_logits_pick_the_lowest_id(self, rng, monkeypatch, spec, logits, token):
        model = TransducerModel(CFG)
        monkeypatch.setattr(model, "joint_vec", lambda enc, pred: np.array(logits))
        res = decode_mode(model, rng.standard_normal((8, 4)), spec, 40.0)
        assert res.tokens == ([token] * (10 * 4) if token else [])

    def test_token_then_blank(self, rng):
        # real model: first emission recorded at its frame, order nondecreasing
        model = TransducerModel(CFG)
        res = decode_mode(model, rng.standard_normal((10, 4)), None, 40.0)
        assert all(t != 0 for t in res.tokens)
        assert res.emit_frame == sorted(res.emit_frame)
        assert res.worst_case_latency_s == math.inf

    def test_one_chunk_encoded_without_a_state(self, rng, monkeypatch):
        model = TransducerModel(CFG)
        calls = []
        original = TransducerModel.encode

        def encode(self, features, spec=None, state=None):
            calls.append((len(features), spec, state))
            return original(self, features, spec, state)
        monkeypatch.setattr(TransducerModel, "encode", encode)
        res = decode_mode(model, rng.standard_normal((11, 4)), None, 40.0)
        assert calls == [(10, None, None)] and res.steps == 1


class TestGreedyStreaming:
    def test_step_count_and_window_arithmetic(self, rng):
        model = TransducerModel(CFG)
        feats = rng.standard_normal((12, 4))  # T = 6 encoder frames
        spec = ContextSpec(2, 2, 1)
        res = decode_mode(model, feats, spec, 40.0)
        assert res.steps == 3
        assert res.worst_case_latency_s == pytest.approx(latency_of(spec, 40.0))

    def test_each_chunk_records_its_compute_time(self, rng, monkeypatch):
        from unify_rnnt import decoding
        clock = iter(range(100))
        monkeypatch.setattr(decoding, "perf_counter", lambda: next(clock) / 1e3)
        model = TransducerModel(CFG)
        feats = rng.standard_normal((12, 4))  # T = 6 encoder frames
        res = decode_mode(model, feats, ContextSpec(2, 2, 1), 40.0)
        # one perf_counter pair per chunk, 1 ms apart on the fake clock
        assert res.chunk_ms == pytest.approx([1.0] * res.steps) and res.steps == 3
        assert decode_mode(model, feats, None, 40.0).chunk_ms == pytest.approx([1.0])
        rows, (summary,) = evaluate(
            model, [Utt("a", feats, [1, 2]), Utt("b", feats[:6], [1])],
            [ContextSpec(2, 2, 1)], 40.0)
        assert [r["chunks"] for r in rows] == [3, 2]
        assert [r["chunk_compute_ms"] for r in rows] == pytest.approx([1.0, 1.0])
        assert summary["chunk_compute_ms"] == pytest.approx(1.0)

    def test_full_context_matches_offline_tokens(self, rng):
        model = TransducerModel(CFG)
        for _ in range(5):
            feats = rng.standard_normal((int(rng.integers(6, 18)), 4))
            T = feats.shape[0] // 2
            spec = ContextSpec(T + 2, T + 2, T + 2)
            off = decode_mode(model, feats, None, 40.0)
            stream = decode_mode(model, feats, spec, 40.0)
            assert stream.tokens == off.tokens
            assert stream.emit_frame == off.emit_frame

    def test_determinism(self, rng):
        model = TransducerModel(CFG)
        feats = rng.standard_normal((14, 4))
        spec = ContextSpec(2, 2, 1)
        a = decode_mode(model, feats, spec, 40.0)
        b = decode_mode(model, feats, spec, 40.0)
        assert a.tokens == b.tokens and a.emit_frame == b.emit_frame and a.steps == b.steps

    def test_never_reads_past_window(self, rng):
        # perturbing features beyond the last window's end must not change
        # anything: the buffer handed to the encoder is truncated there
        model = TransducerModel(CFG)
        feats = rng.standard_normal((16, 4))
        spec = ContextSpec(2, 2, 1)
        base = decode_mode(model, feats, spec, 40.0)
        # decode only the first chunk by slicing manually: perturb beyond
        # (chunk + right) * subsample and compare the first emitted prefix
        horizon = (spec.chunk + spec.right) * 2
        perturbed = feats.copy()
        perturbed[horizon:] += 100.0
        res = decode_mode(model, perturbed, spec, 40.0)
        first_chunk_base = [t for t, f in zip(base.tokens, base.emit_frame) if f < spec.chunk]
        first_chunk_pert = [t for t, f in zip(res.tokens, res.emit_frame) if f < spec.chunk]
        assert first_chunk_base == first_chunk_pert

    @pytest.mark.parametrize("blocks,kernel", [(1, 1), (2, 3), (3, 5)])
    def test_decoder_rows_equal_training_rows(self, rng, blocks, kernel):
        # chunk steps with cached keys, values and conv halo give the rows of
        # the training path's one masked encode, for every (L, C, R)
        cfg = ModelConfig(**{**CFG.__dict__, "blocks": blocks, "conv_kernel": kernel})
        model = TransducerModel(cfg)
        worst = 0.0
        for left in range(0, 6):
            for chunk in range(1, 5):
                for right in range(0, 5):
                    spec = ContextSpec(left, chunk, right)
                    feats = rng.standard_normal((int(rng.integers(2, 30)), 4))
                    T = feats.shape[0] // 2
                    train_rows = model.encode(feats, spec).data
                    state, steps = StreamState(), []
                    for s in range(0, T, chunk):
                        end = min(T, s + chunk + right)
                        steps.append(model.encode(feats[2 * s:2 * end], spec, state).data)
                    decode_rows = np.concatenate(steps)
                    assert decode_rows.shape == train_rows.shape
                    worst = max(worst, float(np.abs(decode_rows - train_rows).max()))
        assert worst <= 1e-12

    def test_state_keeps_left_context_and_halo(self, rng):
        model = TransducerModel(CFG)
        spec = ContextSpec(3, 2, 1)
        state = StreamState()
        feats = rng.standard_normal((20, 4))
        for s, kept in ((0, 2), (2, 3), (4, 3)):
            model.encode(feats[2 * s:2 * (s + 3)], spec, state)
            assert state.sizes() == (kept, 1)  # L keys at most, halo h = 1


class TestContextCache:
    def test_decode_entries_bounded_per_spec(self, rng):
        # a chunk step's layout depends only on the cached row counts and the
        # step's frame count, whatever the utterance length
        model = TransducerModel(CFG)
        spec = ContextSpec(3, 2, 1)
        h = (CFG.conv_kernel - 1) // 2
        for _ in range(25):
            feats = rng.standard_normal((int(rng.integers(20, 80)), 4))
            decode_mode(model, feats, spec, 40.0)
        steps = [key for key in model._context_cache if key[0] == "step"]
        n = spec.chunk + spec.right
        assert 0 < len(steps) <= (spec.left + 1) * (h + 1) * n
        # a step builds its all-true mask and its taps directly, and caches no
        # full-context layout
        assert len(model._context_cache) == len(steps)

    def test_streaming_specs_build_no_mask_or_plan(self, rng, monkeypatch):
        from unify_rnnt import model as model_module
        built = []
        for name in ("build_attention_mask", "plan_conv_chunks"):
            original = getattr(model_module, name)

            def wrapped(*args, _original=original, _name=name):
                built.append(_name)
                return _original(*args)
            monkeypatch.setattr(model_module, name, wrapped)
        model = TransducerModel(CFG)
        feats = [rng.standard_normal((int(rng.integers(6, 40)), 4)) for _ in range(4)]
        for spec in (ContextSpec(3, 1, 0), ContextSpec(3, 2, 2)):
            for f in feats:
                decode_mode(model, f, spec, 40.0)
        assert built == []
        # offline decoding builds the layout of a length once
        decode_mode(model, feats[0], None, 40.0)
        decode_mode(model, feats[0], None, 40.0)
        assert built == ["build_attention_mask", "plan_conv_chunks"]


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



class TestShortInput:
    @pytest.mark.parametrize("n_frames", [0, 1])
    @pytest.mark.parametrize("spec", [None, ContextSpec(2, 1, 0), ContextSpec(2, 2, 1)])
    def test_shorter_than_one_encoder_frame_is_empty_in_every_mode(self, rng, n_frames,
                                                                   spec):
        # subsample factor 2: one raw frame makes no encoder frame
        res = decode_mode(TransducerModel(CFG), rng.standard_normal((n_frames, 4)), spec, 40.0)
        assert res.tokens == [] and res.emit_frame == [] and res.steps == 0
        assert res.worst_case_latency_s == latency_of(spec, 40.0)


class TestEvaluate:
    def test_rows_per_mode_in_order(self, rng):
        model = TransducerModel(CFG)
        utts = [Utt(f"u{i}", rng.standard_normal((int(rng.integers(0, 14)), 4)), [1, 2])
                for i in range(4)]
        modes = [ContextSpec(2, 2, 1), None, ContextSpec(3, 1, 0)]
        rows, summary = evaluate(model, utts, modes, 40.0)
        labels = ["streaming_C2_R1", "offline", "streaming_C1_R0"]
        assert [r["mode"] for r in summary] == labels
        assert [r["spec"] for r in summary] == modes
        assert [(r["mode"], r["utt_id"]) for r in rows] == [(m, u.id) for m in labels
                                                           for u in utts]
        for spec, row in zip(modes, summary):
            res = [decode_mode(model, u.features, spec, 40.0) for u in utts]
            ters = [token_error_rate(r.tokens, u.tokens) for r, u in zip(res, utts)]
            assert row["ter"] == float(np.mean(ters))
            assert row["latency_s"] == latency_of(spec, 40.0)
            if spec is None:
                assert row["chunk_s"] is None and row["right_s"] is None
            else:
                assert (row["chunk_s"], row["right_s"]) == pytest.approx(
                    (spec.chunk * 0.04, spec.right * 0.04))

    def test_no_utterances(self):
        rows, (summary,) = evaluate(TransducerModel(CFG), [], [None], 40.0)
        assert rows == []
        assert summary["ter"] == 0.0 and summary["chunk_compute_ms"] == 0.0
