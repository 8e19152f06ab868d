"""Tensor layer: op semantics, tape mechanics, gradient checks."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from unify_rnnt import tensor as tz
from unify_rnnt.contexts import ContextSets, ContextSpec, plan_conv_chunks, right_context_rows
from unify_rnnt.corpus import CorpusConfig, generate_utterances
from unify_rnnt.errors import EmptyAttentionRowError, EvenKernelError
from unify_rnnt.gradcheck import finite_difference_grad, max_rel_error
from unify_rnnt.mcr import MCRConfig
from unify_rnnt.model import ModelConfig, TransducerModel
from unify_rnnt.training import AdamW, ModeWeights, TrainConfig, train_step


def attention(q, k, v, mask, heads=2):
    return tz.masked_attention(q, k, v, tz.AttentionMask(mask), heads=heads)


class TestMaskedAttention:
    def _qkv(self, rng, T=5, d=8):
        return (tz.constant(rng.standard_normal((T, d))),
                tz.constant(rng.standard_normal((T, d))),
                tz.constant(rng.standard_normal((T, d))))

    def test_identity_mask_returns_values(self, rng):
        q, k, v = self._qkv(rng)
        out = attention(q, k, v, np.eye(5, dtype=bool))
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_all_true_equals_unmasked(self, rng):
        q, k, v = self._qkv(rng)
        full = attention(q, k, v, np.ones((5, 5), bool)).data
        # unmasked reference computed directly
        d_h = 4
        ref = np.empty_like(full)
        for h in range(2):
            sl = slice(h * d_h, (h + 1) * d_h)
            s = (q.data[:, sl] @ k.data[:, sl].T) / math.sqrt(d_h)
            a = np.exp(s - s.max(1, keepdims=True))
            a /= a.sum(1, keepdims=True)
            ref[:, sl] = a @ v.data[:, sl]
        np.testing.assert_allclose(full, ref, atol=1e-12)

    def test_empty_row_rejected(self):
        mask = np.ones((5, 5), bool)
        mask[3] = False
        with pytest.raises(EmptyAttentionRowError):
            tz.AttentionMask(mask)
        with pytest.raises(ValueError):
            tz.AttentionMask(np.ones(5, bool))

    def test_shape_checked_per_call(self, rng):
        q, k, v = self._qkv(rng)
        mask = tz.AttentionMask(np.ones((5, 5), bool))
        tz.masked_attention(q, k, v, mask, heads=2)
        with pytest.raises(ValueError, match="mask shape"):
            tz.masked_attention(tz.constant(q.data[:4]), k, v, mask, heads=2)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("all_true", [False, True])
    def test_cached_bias_equals_a_fresh_where_bias(self, rng, monkeypatch, dt, all_true):
        # the cached bias, or none for an all-true mask, gives the forward and
        # every gradient of adding np.where(mask, 0, -inf) on every call
        n, m, d = 4, 7, 8
        bits = np.ones((n, m), bool) if all_true else rng.random((n, m)) < 0.5
        bits[:, -1] = True
        arrs = [rng.standard_normal(s).astype(dt) for s in ((n, d), (m, d), (m, d))]
        g = rng.standard_normal((n, d)).astype(dt)
        mask = tz.AttentionMask(bits)
        assert (mask.bias(dt) is None) == all_true

        def run():
            q, k, v = (tz.parameter(a.copy()) for a in arrs)
            with tz.Tape() as tape:
                out = tz.masked_attention(q, k, v, mask, heads=2)
                tape.backward(out, g)
            return [t.tobytes() for t in (out.data, q.grad, k.grad, v.grad)]

        cached = [run(), run()]

        def where_bias(self, dtype):
            dt_ = np.dtype(dtype).type
            return np.where(self.mask, dt_(0.0), dt_(-np.inf))
        monkeypatch.setattr(tz.AttentionMask, "bias", where_bias)
        assert cached[0] == cached[1] == run()

    def test_bias_kept_in_its_first_dtype_only(self):
        mask = tz.AttentionMask(np.tri(3, dtype=bool))
        first = mask.bias(np.float32)
        other = mask.bias(np.float64)
        assert other.dtype == np.float64 and other.tobytes() == first.astype(np.float64).tobytes()
        assert mask.bias(np.float32) is first
        assert mask.bias(np.float64) is not other

    def test_cached_keys_before_the_queries(self, rng):
        # a chunk step's queries see cached keys first: the same rows as the
        # last queries of one longer all-true attention
        q, k, v = self._qkv(rng, T=7)
        full = attention(q, k, v, np.ones((7, 7), bool)).data
        tail = attention(tz.constant(q.data[4:]), k, v, np.ones((3, 7), bool)).data
        np.testing.assert_allclose(tail, full[4:], atol=1e-12)
        with pytest.raises(ValueError):
            attention(q, tz.constant(k.data[:3]), tz.constant(v.data[:3]),
                      np.ones((7, 3), bool))

    def test_gradient_with_more_keys_than_queries(self, rng):
        n, m, d = 3, 6, 8
        mask = np.random.default_rng(4).random((n, m)) < 0.6
        mask[:, 0] = True
        arrs = {"q": rng.standard_normal((n, d)), "k": rng.standard_normal((m, d)),
                "v": rng.standard_normal((m, d))}
        w = rng.standard_normal((n, d))
        tensors = {name: tz.parameter(a.copy()) for name, a in arrs.items()}
        with tz.Tape() as tape:
            out = attention(tensors["q"], tensors["k"], tensors["v"], mask)
            tape.backward(out, w)
        for name in arrs:
            def f(x, name=name):
                vals = {nm: tz.constant(x if nm == name else a) for nm, a in arrs.items()}
                return float((attention(vals["q"], vals["k"], vals["v"], mask).data
                              * w).sum())
            fd = finite_difference_grad(f, arrs[name].copy())
            assert max_rel_error(tensors[name].grad, fd) <= 1e-6, name

    def test_gradient_matches_finite_differences(self, rng):
        T, d = 5, 8
        mask = np.random.default_rng(3).random((T, T)) < 0.6
        np.fill_diagonal(mask, True)
        arrs = {name: rng.standard_normal((T, d)) for name in ("q", "k", "v")}
        w = rng.standard_normal((T, d))

        def f_for(name):
            def f(x):
                vals = {n: (x if n == name else arrs[n]) for n in arrs}
                out = attention(tz.constant(vals["q"]), tz.constant(vals["k"]),
                                tz.constant(vals["v"]), mask)
                return float((out.data * w).sum())
            return f

        tensors = {n: tz.parameter(arrs[n].copy()) for n in arrs}
        with tz.Tape() as tape:
            out = attention(tensors["q"], tensors["k"], tensors["v"], mask)
            tape.backward(out, w)
        for name in arrs:
            fd = finite_difference_grad(f_for(name), arrs[name].copy())
            assert max_rel_error(tensors[name].grad, fd) <= 1e-6, name


class TestDepthwiseConv:
    def test_center_one_kernel_is_identity(self, rng):
        x = rng.standard_normal((6, 3))
        kernel = np.zeros((5, 3))
        kernel[2] = 1.0
        out = tz.depthwise_conv1d(tz.constant(x), tz.constant(kernel))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_box_kernel_same_padding(self):
        x = np.array([[1.0], [2.0], [3.0]])
        kernel = np.ones((3, 1))
        out = tz.depthwise_conv1d(tz.constant(x), tz.constant(kernel))
        np.testing.assert_allclose(out.data.ravel(), [3.0, 6.0, 5.0], atol=1e-15)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(EvenKernelError):
            tz.depthwise_conv1d(tz.constant(rng.standard_normal((4, 2))),
                                tz.constant(rng.standard_normal((2, 2))))

    def test_oversized_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            tz.depthwise_conv1d(tz.constant(rng.standard_normal((2, 1))),
                                tz.constant(rng.standard_normal((7, 1))))

    def test_gradient_matches_finite_differences(self, rng):
        T, d, k = 6, 3, 5
        x0 = rng.standard_normal((T, d))
        k0 = rng.standard_normal((k, d))
        w = rng.standard_normal((T, d))
        xt, kt = tz.parameter(x0.copy()), tz.parameter(k0.copy())
        with tz.Tape() as tape:
            out = tz.depthwise_conv1d(xt, kt)
            tape.backward(out, w)
        fd_x = finite_difference_grad(
            lambda x: float((tz.depthwise_conv1d(tz.constant(x), tz.constant(k0)).data * w).sum()),
            x0.copy())
        fd_k = finite_difference_grad(
            lambda kk: float((tz.depthwise_conv1d(tz.constant(x0), tz.constant(kk)).data * w).sum()),
            k0.copy())
        assert max_rel_error(xt.grad, fd_x) <= 1e-6
        assert max_rel_error(kt.grad, fd_k) <= 1e-6


def per_row_reference(x, kernel, T, spec):
    """Each layout row on its own, from the rule: tap j of a row at frame p
    owned by chunk s reads frame p - h + j from the main row below s + C,
    from chunk s's copy in [s + C, min(s + C + R, T)), and zero otherwise."""
    frames, owner = right_context_rows(T, spec)
    k = kernel.shape[0]
    out = np.zeros((frames.size, x.shape[1]))
    for r in range(frames.size):
        s, end = owner[r], owner[r] + spec.chunk
        for j in range(k):
            f = frames[r] - (k - 1) // 2 + j
            if 0 <= f < min(end, T):
                out[r] += kernel[j] * x[f]
            elif end <= f < min(end + spec.right, T):
                copy = np.flatnonzero((owner == s) & (frames == f))
                copy = copy[copy >= T]
                out[r] += kernel[j] * x[copy[0]]
    return out


def per_tap_loop(x, kernel, index, g):
    """Output and gradients by a loop over kernel taps, in the op's order."""
    out, dx, dk = np.zeros((index.shape[1], x.shape[1]), x.dtype), np.zeros_like(x), \
        np.zeros_like(kernel)
    xz = np.concatenate([x, np.zeros((1, x.shape[1]), x.dtype)])
    for j in range(kernel.shape[0]):
        tap = xz[index[j]]
        out += tap * kernel[j]
        dk[j] = (tap * g).sum(axis=0)
        for i, src in enumerate(index[j]):
            if src >= 0:
                dx[src] += g[i] * kernel[j]
    return out, dx, dk


# (T, chunk, right): T not a multiple of C, chunks without a full right
# context, a single frame
CONV_CASES = [(T, C, R) for C in (1, 2, 3) for R in (0, 2) for T in (1, 2, 7, 8)]


class TestChunkedConv:
    @pytest.mark.parametrize("T,C,R", CONV_CASES)
    def test_matches_per_row_reference(self, rng, T, C, R):
        d, k = 4, 5
        spec = ContextSpec(0, C, R)
        taps = tz.ConvTaps(plan_conv_chunks(T, spec, k))
        n = taps.index.shape[1]
        x = rng.standard_normal((n, d))
        kernel = rng.standard_normal((k, d))
        out = tz.depthwise_conv1d_windows(tz.constant(x), tz.constant(kernel), taps)
        np.testing.assert_allclose(out.data, per_row_reference(x, kernel, T, spec),
                                   atol=1e-12)
        # the einsums and the reader gather sum in the tap loop's order, bit
        # for bit
        g = rng.standard_normal((n, d))
        for dt in (np.float32, np.float64):
            xt, kt = tz.parameter(x.astype(dt)), tz.parameter(kernel.astype(dt))
            with tz.Tape() as tape:
                out = tz.depthwise_conv1d_windows(xt, kt, taps)
                tape.backward(out, g.astype(dt))
            ref = per_tap_loop(xt.data, kt.data, taps.index, g.astype(dt))
            for got, want in zip((out.data, xt.grad, kt.grad), ref):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("T,C,R", CONV_CASES)
    def test_gradients_match_finite_differences(self, rng, T, C, R):
        d, k = 3, 5
        spec = ContextSpec(0, C, R)
        taps = tz.ConvTaps(plan_conv_chunks(T, spec, k))
        n = taps.index.shape[1]
        x0 = rng.standard_normal((n, d))
        k0 = rng.standard_normal((k, d))
        w = rng.standard_normal((n, d))
        xt, kt = tz.parameter(x0.copy()), tz.parameter(k0.copy())
        with tz.Tape() as tape:
            out = tz.depthwise_conv1d_windows(xt, kt, taps)
            tape.backward(out, w)

        def loss(x, kk):
            return float((per_row_reference(x, kk, T, spec) * w).sum())
        fd_x = finite_difference_grad(lambda x: loss(x, k0), x0.copy())
        fd_k = finite_difference_grad(lambda kk: loss(x0, kk), k0.copy())
        assert max_rel_error(xt.grad, fd_x) <= 1e-6
        assert max_rel_error(kt.grad, fd_k) <= 1e-6

    def test_table_may_read_rows_before_its_outputs(self, rng):
        # a chunk step convolves its rows after a left halo: the last columns
        # of the whole-sequence table over halo plus rows
        x = rng.standard_normal((7, 3))
        kernel = rng.standard_normal((5, 3))
        whole = tz.depthwise_conv1d(tz.constant(x), tz.constant(kernel)).data
        taps = tz.ConvTaps(plan_conv_chunks(7, ContextSpec(7, 7, 0), 5)[:, 2:])
        step = tz.depthwise_conv1d_windows(tz.constant(x), tz.constant(kernel), taps)
        np.testing.assert_array_equal(step.data, whole[2:])

    def test_full_context_taps_are_the_whole_sequence_columns(self):
        for n_in, k, first in ((7, 5, 0), (7, 5, 2), (3, 9, 1), (1, 3, 0)):
            taps = tz.ConvTaps.full_context(n_in, k, first)
            want = plan_conv_chunks(n_in, ContextSpec(n_in, n_in, 0), k)[:, first:]
            np.testing.assert_array_equal(taps.index, want)
            assert taps.max_index == want.max(initial=-1)

    def test_out_of_range_table_raises(self, rng):
        # the largest index is read once, when the table is built
        taps = tz.ConvTaps(np.array([[0, 1, 4], [-1, 0, 1], [1, 2, -1]]))
        assert taps.max_index == 4
        kernel = tz.constant(rng.standard_normal((3, 2)))
        tz.depthwise_conv1d_windows(tz.constant(rng.standard_normal((5, 2))), kernel, taps)
        with pytest.raises(ValueError, match="does not fit"):
            tz.depthwise_conv1d_windows(tz.constant(rng.standard_normal((4, 2))), kernel,
                                        taps)

    def test_table_must_fit_input(self, rng):
        taps = tz.ConvTaps(plan_conv_chunks(6, ContextSpec(0, 2, 1), 3))
        n = taps.index.shape[1]
        with pytest.raises(ValueError):
            tz.depthwise_conv1d_windows(tz.constant(rng.standard_normal((n - 1, 2))),
                                        tz.constant(rng.standard_normal((3, 2))), taps)
        with pytest.raises(ValueError):
            tz.depthwise_conv1d_windows(tz.constant(rng.standard_normal((n, 2))),
                                        tz.constant(rng.standard_normal((3, 3))), taps)
        with pytest.raises(ValueError):
            tz.depthwise_conv1d_windows(tz.constant(rng.standard_normal((n, 2))),
                                        tz.constant(rng.standard_normal((5, 2))), taps)


class TestTapeMechanics:
    def test_backward_composed_graph_matches_fd(self, rng):
        # h feeds two branches, so its gradient must sum both contributions
        x0 = rng.standard_normal((5, 4))
        w0 = rng.standard_normal((4, 3))
        seed = rng.standard_normal((5, 3))

        def f(wd):
            h = np.tanh(x0 @ wd)
            return float((seed * (np.maximum(h, 0.0) + h)).sum())

        w = tz.parameter(w0.copy())
        with tz.Tape() as tape:
            h = tz.tanh(tz.matmul(tz.constant(x0), w))
            out = tz.add(tz.relu(h), h)
            tape.backward(out, seed)
        fd = finite_difference_grad(f, w0.copy())
        assert max_rel_error(w.grad, fd) <= 1e-6

    def test_gradients_accumulate_additively(self):
        w = tz.parameter(np.array([[2.0]]))
        with tz.Tape() as tape:
            a = tz.matmul(tz.constant(np.array([[3.0]])), w)
            b = tz.matmul(tz.constant(np.array([[5.0]])), w)
            tape.backward(tz.add(a, b))
        np.testing.assert_allclose(w.grad, [[8.0]])

    def test_first_gradient_write_is_a_copy(self):
        # add hands one gradient array to both inputs: the first write must
        # not store it, or the second would add into it and into out.grad
        x = tz.parameter(np.array([1.0, -2.0], dtype=np.float32))
        with tz.Tape() as tape:
            out = tz.add(x, x)
            tape.backward(out, np.ones(2, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        np.testing.assert_array_equal(out.grad, [1.0, 1.0])
        assert x.grad.dtype == np.float32

    def test_scalar_seed_fills_the_output_shape(self):
        x = tz.parameter(np.arange(3.0))
        with tz.Tape() as tape:
            out = tz.relu(x)
            tape.backward(out)
        np.testing.assert_array_equal(out.grad, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])

    def test_residual_add_keeps_the_shorter_rows(self, rng):
        a0, b0 = rng.standard_normal((5, 3)), rng.standard_normal((2, 3))
        g = rng.standard_normal((2, 3))
        a, b = tz.parameter(a0), tz.parameter(b0)
        with tz.Tape() as tape:
            out = tz.add(a, b)
            tape.backward(out, g)
        np.testing.assert_array_equal(out.data, a0[:2] + b0)
        np.testing.assert_array_equal(a.grad, np.concatenate([g, np.zeros((3, 3))]))
        np.testing.assert_array_equal(b.grad, g)
        with pytest.raises(ValueError):
            tz.add(b, a)

    def test_untouched_parameter_has_no_gradient(self):
        w = tz.parameter(np.ones(3))
        unused = tz.parameter(np.ones(3))
        with tz.Tape() as tape:
            tape.backward(tz.tanh(w))
        assert unused.grad is None

    def test_backward_visits_reverse_order(self):
        seen = []
        t = tz.Tape()
        for name in ("a", "b", "c"):
            t.record(name, lambda n=name: seen.append(n))
        dummy = tz.Tensor(np.asarray(0.0), requires_grad=True)
        t.backward(dummy)
        assert seen == ["c", "b", "a"]

    def test_seed_must_be_scalar_or_output_shaped(self):
        w = tz.parameter(np.ones((2, 3)))
        with tz.Tape() as tape:
            out = tz.tanh(w)
            with pytest.raises(ValueError):
                tape.backward(out, np.ones(3))

    def test_no_recording_outside_tape(self):
        w = tz.parameter(np.ones(3))
        out = tz.tanh(w)
        assert out.requires_grad

    def test_ops_preserve_finiteness(self, rng):
        x = tz.constant(rng.standard_normal((4, 4)))
        g = tz.constant(np.ones(4))
        b = tz.constant(np.zeros(4))
        for out in (tz.tanh(x), tz.relu(x), tz.layer_norm(x, g, b),
                    tz.matmul(x, x), tz.outer_add(x, x)):
            assert np.isfinite(out.data).all()


GRU_NAMES = ["wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc"]


def gru_bptt_loop(emb, hs, g, params):
    """Gradients of gru_sequence by the per-token loop with one outer product per weight."""
    U = emb.shape[0]
    grads = {n: np.zeros_like(v) for n, v in params.items()}
    demb = np.zeros_like(emb)
    dh = g[U].copy()
    for i in range(U - 1, -1, -1):
        xe, h = emb[i], hs[i]
        z, r, rh, c, _ = tz.gru_cell(xe, h, *[params[n] for n in GRU_NAMES])
        dz, dc, dhprev = dh * (c - h), dh * z, dh * (1.0 - z)
        dac = dc * (1.0 - c * c)
        drh = dac @ params["uc"].T
        dr = drh * h
        dhprev += drh * r
        dar = dr * r * (1.0 - r)
        daz = dz * z * (1.0 - z)
        dhprev += dar @ params["ur"].T + daz @ params["uz"].T
        demb[i] = dac @ params["wc"].T + dar @ params["wr"].T + daz @ params["wz"].T
        for n, a, inp in (("wc", dac, xe), ("wr", dar, xe), ("wz", daz, xe),
                          ("uc", dac, rh), ("ur", dar, h), ("uz", daz, h)):
            grads[n] += np.outer(inp, a)
        for n, a in (("bc", dac), ("br", dar), ("bz", daz)):
            grads[n] += a
        dh = dhprev + g[i]
    return demb, dh, grads


class TestGruSequence:
    def _params(self, rng, E, P):
        names = ["wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc"]
        out = {}
        for n in names:
            shape = (P,) if n.startswith("b") else ((E, P) if n.startswith("w") else (P, P))
            out[n] = rng.standard_normal(shape) * 0.5
        return names, out

    def test_output_stacks_states_and_matches_stepwise(self, rng):
        E = P = 4
        names, params = self._params(rng, E, P)
        emb = rng.standard_normal((3, E))
        h0 = rng.standard_normal(P)
        out = tz.gru_sequence(tz.constant(emb), tz.constant(h0),
                              *[tz.constant(params[n]) for n in names])
        assert out.shape == (4, P)
        np.testing.assert_allclose(out.data[0], h0, atol=1e-15)
        # stepwise reference
        h = h0.copy()
        for i in range(3):
            z = 1 / (1 + np.exp(-(emb[i] @ params["wz"] + h @ params["uz"] + params["bz"])))
            r = 1 / (1 + np.exp(-(emb[i] @ params["wr"] + h @ params["ur"] + params["br"])))
            c = np.tanh(emb[i] @ params["wc"] + (r * h) @ params["uc"] + params["bc"])
            h = (1 - z) * h + z * c
            np.testing.assert_allclose(out.data[i + 1], h, atol=1e-12)

    def test_gradient_through_three_steps(self, rng):
        E = P = 3
        names, params = self._params(rng, E, P)
        emb0 = rng.standard_normal((3, E))
        h00 = rng.standard_normal(P)
        w = rng.standard_normal((4, P))

        def run(emb, h0, pd):
            return tz.gru_sequence(tz.constant(emb), tz.constant(h0),
                                   *[tz.constant(pd[n]) for n in names])

        tensors = {n: tz.parameter(params[n].copy()) for n in names}
        embt = tz.parameter(emb0.copy())
        h0t = tz.parameter(h00.copy())
        with tz.Tape() as tape:
            out = tz.gru_sequence(embt, h0t, *[tensors[n] for n in names])
            tape.backward(out, w)

        for n in names:
            def f(x, n=n):
                pd = dict(params)
                pd[n] = x
                return float((run(emb0, h00, pd).data * w).sum())
            fd = finite_difference_grad(f, params[n].copy())
            assert max_rel_error(tensors[n].grad, fd) <= 1e-5, n
        fd_emb = finite_difference_grad(
            lambda x: float((run(x, h00, params).data * w).sum()), emb0.copy())
        assert max_rel_error(embt.grad, fd_emb) <= 1e-5
        fd_h0 = finite_difference_grad(
            lambda x: float((run(emb0, x, params).data * w).sum()), h00.copy())
        assert max_rel_error(h0t.grad, fd_h0) <= 1e-5


    @pytest.mark.parametrize("U,P", [(0, 5), (1, 5), (6, 5), (13, 64)])
    def test_gradients_equal_per_token_loop_bitwise(self, rng, U, P):
        for dt in (np.float32, np.float64):
            params = {n: (rng.standard_normal((P,) if n.startswith("b") else (P, P)) * 0.5
                          ).astype(dt) for n in GRU_NAMES}
            emb = rng.standard_normal((U, P)).astype(dt)
            h0 = rng.standard_normal(P).astype(dt)
            g = rng.standard_normal((U + 1, P)).astype(dt)
            tensors = {n: tz.parameter(params[n].copy()) for n in GRU_NAMES}
            embt, h0t = tz.parameter(emb.copy()), tz.parameter(h0.copy())
            with tz.Tape() as tape:
                out = tz.gru_sequence(embt, h0t, *[tensors[n] for n in GRU_NAMES])
                tape.backward(out, g)
            demb, dh0, grads = gru_bptt_loop(emb, out.data, g, params)
            np.testing.assert_array_equal(embt.grad, demb)
            np.testing.assert_array_equal(h0t.grad, dh0)
            for n in GRU_NAMES:
                np.testing.assert_array_equal(tensors[n].grad, grads[n], err_msg=n)

    @pytest.mark.parametrize("U", [0, 1])
    def test_short_sequences(self, rng, U):
        E, P = 3, 4
        names, params = self._params(rng, E, P)
        emb0 = rng.standard_normal((U, E))
        h00 = rng.standard_normal(P)
        w = rng.standard_normal((U + 1, P))

        def run(emb, h0, pd):
            return tz.gru_sequence(tz.constant(emb), tz.constant(h0),
                                   *[tz.constant(pd[n]) for n in names])

        tensors = {n: tz.parameter(params[n].copy()) for n in names}
        embt, h0t = tz.parameter(emb0.copy()), tz.parameter(h00.copy())
        with tz.Tape() as tape:
            out = tz.gru_sequence(embt, h0t, *[tensors[n] for n in names])
            tape.backward(out, w)
        assert out.shape == (U + 1, P)
        np.testing.assert_array_equal(out.data[0], h00)
        assert embt.grad.shape == (U, E)
        for n in names:
            assert tensors[n].grad.shape == params[n].shape
            if U == 0:
                # no token: the weights get exactly zero gradient
                assert not tensors[n].grad.any(), n
            else:
                def f(x, n=n):
                    pd = dict(params)
                    pd[n] = x
                    return float((run(emb0, h00, pd).data * w).sum())
                fd = finite_difference_grad(f, params[n].copy())
                assert max_rel_error(tensors[n].grad, fd) <= 1e-6, n
        fd_h0 = finite_difference_grad(
            lambda x: float((run(emb0, x, params).data * w).sum()), h00.copy())
        assert max_rel_error(h0t.grad, fd_h0) <= 1e-6
        if U:
            fd_emb = finite_difference_grad(
                lambda x: float((run(x, h00, params).data * w).sum()), emb0.copy())
            assert max_rel_error(embt.grad, fd_emb) <= 1e-6


class TestOpContract:
    # the ops the model records, by the name the tape records them under
    # (depthwise_conv1d_windows records "depthwise_conv1d")
    MODEL_OPS = {"linear", "layer_norm", "masked_attention", "depthwise_conv1d", "add",
                 "relu", "matmul", "outer_add", "tanh", "reshape", "embedding",
                 "gru_sequence", "weighted_sum"}
    LOSS_OPS = {"rnnt_loss", "mcr_loss"}
    # public functions of tensor.py that record nothing
    HELPERS = {"constant", "parameter", "active_tape", "gru_cell"}

    def test_training_steps_record_exactly_the_model_ops(self, monkeypatch):
        recorded = set()
        original = tz.Tape.record

        def record(tape, name, backward_fn):
            recorded.add(name)
            original(tape, name, backward_fn)
        monkeypatch.setattr(tz.Tape, "record", record)

        model = TransducerModel(ModelConfig(
            feat_dim=6, model_dim=16, heads=2, blocks=1, conv_kernel=3,
            subsample_factor=2, vocab_size=10, predictor_dim=8, joint_dim=8,
            ff_dim=16, seed=5))
        batch = generate_utterances(CorpusConfig(n_symbols=8, feat_dim=6,
                                                 ambiguous_pairs=2, seed=3,
                                                 min_symbols=3, max_symbols=6), 2)
        cfg = TrainConfig(strategy="dual_mode", mcr=MCRConfig(lam=0.3, tile=10),
                          context_sets=ContextSets.from_nested([[4], [1, 2], [0, 1]]),
                          steps=1, warmup_steps=1, batch_size=2)
        opt = AdamW(model.parameters())
        rng = np.random.default_rng(0)
        train_step(model, batch, rng, cfg, opt, 1)
        for p_off, key in ((1.0, "loss_off"), (0.0, "loss_str")):
            sm = replace(cfg, strategy="single_mode", mode_weights=ModeWeights(p_off=p_off))
            report = train_step(model, batch, rng, sm, opt, 1)
            assert {"loss_off", "loss_str"} & set(report) == {key}
        assert recorded == self.MODEL_OPS | self.LOSS_OPS

    def test_public_ops_are_model_ops_or_the_oracle(self):
        public = {name for name, fn in vars(tz).items()
                  if inspect.isfunction(fn) and fn.__module__ == tz.__name__
                  and not name.startswith("_")}
        model_op_attrs = (self.MODEL_OPS - {"depthwise_conv1d"}) | {"depthwise_conv1d_windows"}
        # depthwise_conv1d is the whole-sequence convolution oracle
        assert public == model_op_attrs | {"depthwise_conv1d"} | self.HELPERS
