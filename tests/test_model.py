"""Encoder/predictor/joint contracts: shapes, determinism, mode equivalence,
parameter sharing, causality."""

import numpy as np
import pytest

from unify_rnnt import tensor as tz
from unify_rnnt.contexts import ContextSpec
from unify_rnnt.errors import BadTokenError, InputTooShortError
from unify_rnnt.gradcheck import finite_difference_grad, max_rel_error
from unify_rnnt.model import ModelConfig, StreamState, TransducerModel
from unify_rnnt.training import rnnt_loss_node

TOY = ModelConfig(feat_dim=6, model_dim=16, heads=2, blocks=2, conv_kernel=5,
                  subsample_factor=2, vocab_size=6, predictor_dim=8, joint_dim=8,
                  ff_dim=16, seed=7, dtype="float64")


@pytest.fixture
def model():
    return TransducerModel(TOY)


class TestEncode:
    def test_output_shape(self, model, rng):
        feats = rng.standard_normal((13, 6))
        enc = model.encode(feats)
        assert enc.shape == (6, 16)

    def test_determinism_bitwise(self, rng):
        feats = rng.standard_normal((12, 6))
        a = TransducerModel(TOY).encode(feats).data
        b = TransducerModel(TOY).encode(feats).data
        np.testing.assert_array_equal(a, b)

    def test_too_short_input(self, model):
        with pytest.raises(InputTooShortError):
            model.encode(np.zeros((1, 6)))

    def test_full_context_streaming_equals_offline(self, model, rng):
        for _ in range(20):
            feats = rng.standard_normal((int(rng.integers(4, 20)), 6))
            off = model.encode(feats).data
            T = feats.shape[0] // 2
            spec = ContextSpec(T + 3, T + 3, T + 3)
            stream = model.encode(feats, spec).data
            np.testing.assert_array_equal(off, stream)

    def test_parameters_shared_across_modes(self, model, rng):
        feats = rng.standard_normal((10, 6))
        spec = ContextSpec(2, 2, 1)
        before = model.encode(feats, spec).data.copy()
        # same storage: in-place parameter edit must change both modes
        target = model.params["block0.conv.kernel"]
        assert all(model.params[n] is p for n, p in model.param_items())
        target.data[...] += 0.25
        after_stream = model.encode(feats, spec).data
        after_off = model.encode(feats).data
        assert np.abs(after_stream - before).max() > 0
        assert np.abs(after_off - model_encode_fresh(feats)).max() > 0

    def test_streaming_causality(self, rng):
        # the training path: the rows of chunk [s, s+C) depend only on input
        # frames below (s + C + R) * subsample, bit for bit, through every block
        spec = ContextSpec(2, 2, 1)
        m = TransducerModel(TOY)
        feats = rng.standard_normal((20, 6))
        base = m.encode(feats, spec).data
        T = 10
        for s in range(0, T, spec.chunk):
            horizon = (s + spec.chunk + spec.right) * TOY.subsample_factor
            if horizon >= feats.shape[0]:
                continue
            perturbed = feats.copy()
            perturbed[horizon:] += rng.standard_normal(perturbed[horizon:].shape) * 5.0
            out = m.encode(perturbed, spec).data
            np.testing.assert_array_equal(out[s:s + spec.chunk], base[s:s + spec.chunk])
            # the right context is read: frames just below the horizon count
            nearby = feats.copy()
            nearby[horizon - 1] += 5.0
            assert not np.array_equal(m.encode(nearby, spec).data[s], base[s])

    def test_chunk_step_is_forward_only_and_streaming(self, model, rng):
        feats = rng.standard_normal((8, 6))
        with pytest.raises(ValueError):
            model.encode(feats, None, StreamState())
        out = model.encode(feats, ContextSpec(2, 3, 1), StreamState())
        assert out.shape == (3, 16)


def model_encode_fresh(feats):
    return TransducerModel(TOY).encode(feats).data


class TestPredictor:
    def test_predict_pure_function(self, model):
        state = model.predictor_start()
        s1 = model.predict(3, state)
        s2 = model.predict(3, state)
        np.testing.assert_array_equal(s1, s2)

    def test_sequence_equals_folded_steps(self, model):
        state = model.predictor_start()
        s1 = model.predict(2, state)
        s2 = model.predict(4, s1)
        seq = model.pred_sequence(np.array([2, 4])).data
        np.testing.assert_array_equal(seq[0], model.predictor_start())
        np.testing.assert_array_equal(seq[1], s1)
        np.testing.assert_array_equal(seq[2], s2)

    def test_bad_token_rejected(self, model):
        with pytest.raises(BadTokenError):
            model.predict(6, model.predictor_start())
        with pytest.raises(BadTokenError):
            model.predict(-1, model.predictor_start())

    def test_gradient_through_unrolled_steps(self, model, rng):
        targets = np.array([1, 2, 3])
        w = rng.standard_normal((4, 8))
        name = "pred.uc"
        x0 = model.params[name].data.copy()

        def f(x):
            model.params[name].data = x
            return float((model.pred_sequence(targets).data * w).sum())

        with tz.Tape() as tape:
            out = model.pred_sequence(targets)
            tape.backward(out, w)
        got = model.params[name].grad.copy()
        fd = finite_difference_grad(f, x0.copy())
        model.params[name].data = x0
        assert max_rel_error(got, fd) <= 1e-5


class TestJoint:
    def test_shape_and_uniform_at_zero_weights(self, model, rng):
        feats = rng.standard_normal((10, 6))
        enc = model.encode(feats)
        pred = model.pred_sequence(np.array([1, 2]))
        z = model.joint(enc, pred)
        assert z.shape == (5, 3, 6)
        for name in ("joint.w_out",):
            model.params[name].data[...] = 0.0
        z0 = model.joint(enc, pred).data
        assert np.abs(z0).max() == 0.0

    def test_joint_vec_matches_lattice(self, model, rng):
        feats = rng.standard_normal((8, 6))
        enc = model.encode(feats)
        pred = model.pred_sequence(np.array([3]))
        z = model.joint(enc, pred).data
        for t in range(z.shape[0]):
            for u in range(z.shape[1]):
                np.testing.assert_allclose(
                    model.joint_vec(enc.data[t], pred.data[u]), z[t, u], atol=1e-12)

    def test_end_to_end_gradient(self, model, rng):
        feats = rng.standard_normal((7, 6))
        targets = np.array([1, 4])
        name = "in_proj.w"
        x0 = model.params[name].data.copy()

        def build():
            with tz.Tape() as tape:
                pred = model.pred_sequence(targets)
                enc = model.encode(feats)
                loss = rnnt_loss_node(model.joint(enc, pred), targets)
            return tape, loss

        tape, loss = build()
        tape.backward(loss)
        got = model.params[name].grad.copy()

        def f(x):
            model.params[name].data = x
            return build()[1].item()

        fd = finite_difference_grad(f, x0.copy())
        model.params[name].data = x0
        assert max_rel_error(got, fd) <= 1e-4


class TestConfigValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(conv_kernel=4)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=1)
        with pytest.raises(ValueError):
            ModelConfig(blocks=0)
        with pytest.raises(ValueError):
            ModelConfig(model_dim=30, heads=4)
