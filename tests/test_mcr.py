"""Mode-consistency loss: fused vs naive, gradients, tiling, memory probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unify_rnnt.errors import ModeShapeMismatchError, NonFiniteInputError
from unify_rnnt.gradcheck import finite_difference_grad, max_rel_error
from unify_rnnt.mcr import (MCRConfig, mcr_backward, mcr_forward, mcr_loss,
                            mcr_memory_probe, mcr_naive_oracle)
from unify_rnnt.rnnt_loss import JointLogits

DIRS = ("offline_teacher", "streaming_teacher", "symmetric")
# weights (a, b) of a·KL(p_off‖p_str) + b·KL(p_str‖p_off) per direction
AB = {"offline_teacher": (1.0, 0.0), "streaming_teacher": (0.0, 1.0),
      "symmetric": (0.5, 0.5)}


def pair_from(rng, B=2, T=4, U=3, V=8, spread=2.0):
    z_off = rng.standard_normal((B, T, U + 1, V)) * spread
    z_str = rng.standard_normal((B, T, U + 1, V)) * spread
    t_len = rng.integers(1, T + 1, B)
    u_len = rng.integers(0, U + 1, B)
    return (JointLogits(z_off, t_len, u_len), JointLogits(z_str, t_len, u_len))


def logits_for(probs):
    return np.log(np.asarray(probs, dtype=np.float64))


def per_cell_grads(z_off, z_str, direction, tile, seed=1.0):
    """Detached-teacher gradients one cell at a time, in the fused order.

    Each row's logsumexp runs over vocabulary tiles of width ``tile`` with a
    running max, as the fused path does, so the two agree bit for bit.
    """
    a, b = AB[direction]
    B, _T, _U1, V = z_off.z.shape
    g_off = np.zeros_like(z_off.z)
    g_str = np.zeros_like(z_str.z)
    for i in range(B):
        t_len, u_len = int(z_off.t_len[i]), int(z_off.u_len[i])
        w = seed / (t_len * (u_len + 1) * B)
        for t in range(t_len):
            for u in range(u_len + 1):
                logp = []
                for z in (z_off.z[i, t, u][None], z_str.z[i, t, u][None]):
                    m = np.full((1, 1), -np.inf, z.dtype)
                    s = np.zeros((1, 1), z.dtype)
                    for v0 in range(0, V, tile):
                        blk = z[:, v0:v0 + tile]
                        new = np.maximum(m, blk.max(axis=1, keepdims=True))
                        s = s * np.exp(m - new)
                        s = s + np.exp(blk - new).sum(axis=1, keepdims=True)
                        m = new
                    logp.append(z - (m + np.log(s)))
                q_minus_p = np.exp(logp[1]) - np.exp(logp[0])
                g_str[i, t, u] = (q_minus_p * (a * w))[0]
                g_off[i, t, u] = (q_minus_p * (-b * w))[0]
    return g_off, g_str


class TestKnownValues:
    def test_identical_inputs_zero_loss_and_grads(self, rng):
        a, b = pair_from(rng)
        same = JointLogits(a.z.copy(), a.t_len, a.u_len)
        for direction in DIRS:
            res = mcr_loss(a, same, MCRConfig(direction=direction, tile=3))
            assert res.loss == 0.0
            assert np.abs(res.grad_offline).max() == 0.0
            assert np.abs(res.grad_streaming).max() == 0.0

    def test_symmetric_single_cell_value(self):
        # p=(0.8, 0.2) vs q=(0.2, 0.8): 0.5 * (0.6*ln4 + 0.6*ln4) = 0.6*ln4
        a = JointLogits(logits_for([0.8, 0.2])[None, None, None, :], [1], [0])
        b = JointLogits(logits_for([0.2, 0.8])[None, None, None, :], [1], [0])
        res = mcr_loss(a, b, MCRConfig(direction="symmetric", tile=1))
        assert abs(res.loss - 0.6 * math.log(4.0)) < 1e-9
        assert abs(res.loss - 0.831777) < 1e-6

    def test_offline_teacher_uniform_student_grad(self):
        a = JointLogits(logits_for([0.8, 0.2])[None, None, None, :], [1], [0])
        b = JointLogits(np.zeros((1, 1, 1, 2)), [1], [0])
        res = mcr_loss(a, b, MCRConfig(direction="offline_teacher", tile=2))
        np.testing.assert_allclose(res.grad_streaming.ravel(), [-0.3, 0.3], atol=1e-9)
        assert np.abs(res.grad_offline).max() == 0.0

    def test_cell_normalization_mean(self, rng):
        # four identical cells with per-cell divergence d -> loss == d
        zt = rng.standard_normal(4) * 2.0
        zs = rng.standard_normal(4) * 2.0
        a = JointLogits(np.tile(zt, (1, 2, 2, 1)), [2], [1])
        b = JointLogits(np.tile(zs, (1, 2, 2, 1)), [2], [1])
        single_a = JointLogits(zt[None, None, None, :], [1], [0])
        single_b = JointLogits(zs[None, None, None, :], [1], [0])
        cfg = MCRConfig(direction="symmetric", tile=4)
        d = mcr_loss(single_a, single_b, cfg).loss
        res = mcr_loss(a, b, cfg)
        assert res.cells == 4
        assert abs(res.loss - d) <= 1e-12


class TestFusedNaiveEquivalence:
    @pytest.mark.parametrize("direction", DIRS)
    @pytest.mark.parametrize("full_grad", [False, True])
    def test_random_instances(self, rng, direction, full_grad):
        for _ in range(8):
            a, b = pair_from(rng, B=2, T=5, U=4, V=int(rng.integers(2, 24)))
            cfg = MCRConfig(direction=direction, tile=int(rng.integers(1, 30)),
                            full_grad=full_grad)
            fused = mcr_loss(a, b, cfg)
            naive = mcr_naive_oracle(a, b, cfg)
            assert abs(fused.loss - naive.loss) <= 1e-9
            assert np.abs(fused.grad_offline - naive.grad_offline).max() <= 1e-9
            assert np.abs(fused.grad_streaming - naive.grad_streaming).max() <= 1e-9
            assert fused.cells == naive.cells

    def test_symmetric_identity_algebra(self, rng):
        # 0.5 * (KL(p||q) + KL(q||p)) == 0.5 * sum (p - q)(log p - log q), and
        # the gradients, detached or full, are linear in the weights too
        a, b = pair_from(rng, B=2, T=3, U=2, V=6)
        for full_grad in (False, True):
            sym, pq, qp = (mcr_loss(a, b, MCRConfig(direction=d, tile=4, full_grad=full_grad))
                           for d in ("symmetric", "offline_teacher", "streaming_teacher"))
            assert abs(sym.loss - 0.5 * (pq.loss + qp.loss)) <= 1e-12
            for grad in ("grad_offline", "grad_streaming"):
                np.testing.assert_allclose(
                    getattr(sym, grad),
                    0.5 * (getattr(pq, grad) + getattr(qp, grad)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("direction", DIRS)
    @pytest.mark.parametrize("B,T,U,V,tile", [
        (2, 4, 3, 9, 4),        # width-1 trailing tile
        (1, 15, 9, 7, 3),       # 150 valid cells: crosses a cell-block boundary
        (2, 3, 2, 5, 8),        # tile wider than the vocabulary
    ])
    def test_gradients_bitwise_per_cell(self, rng, dtype, direction, B, T, U, V, tile):
        z_off = (rng.standard_normal((B, T, U + 1, V)) * 2.0).astype(dtype)
        z_str = (rng.standard_normal((B, T, U + 1, V)) * 2.0).astype(dtype)
        t_len = np.full(B, T)
        u_len = np.full(B, U)
        t_len[1:] = rng.integers(1, T + 1, B - 1)
        u_len[1:] = rng.integers(0, U + 1, B - 1)
        a = JointLogits(z_off, t_len, u_len)
        b = JointLogits(z_str, t_len, u_len)
        res = mcr_backward(a, b, MCRConfig(direction=direction, tile=tile), seed=1.7)
        want = per_cell_grads(a, b, direction, tile, seed=1.7)
        for g, r in zip((res.grad_offline, res.grad_streaming), want):
            assert g.dtype == dtype
            np.testing.assert_array_equal(g, r)

    def test_last_tile_width_one_regression(self, rng):
        # V = 9 with tile 8 leaves a width-1 trailing tile; certain numpy
        # builds miscompute aliased in-place ufuncs on strided views of the
        # reused scratch, which this shape used to trigger
        a, b = pair_from(rng, B=1, T=1, U=2, V=9)
        for direction in DIRS:
            cfg = MCRConfig(direction=direction, tile=8)
            fused = mcr_loss(a, b, cfg)
            naive = mcr_naive_oracle(a, b, cfg)
            assert np.abs(fused.grad_offline - naive.grad_offline).max() <= 1e-12
            assert np.abs(fused.grad_streaming - naive.grad_streaming).max() <= 1e-12

    def test_tile_independence(self, rng):
        a, b = pair_from(rng, B=2, T=4, U=3, V=16)
        ref = mcr_loss(a, b, MCRConfig(direction="symmetric", tile=16))
        for tile in (1, 2, 8, 16, 23):
            res = mcr_loss(a, b, MCRConfig(direction="symmetric", tile=tile))
            assert abs(res.loss - ref.loss) <= 1e-12
            assert np.abs(res.grad_offline - ref.grad_offline).max() <= 1e-12
            assert np.abs(res.grad_streaming - ref.grad_streaming).max() <= 1e-12


class TestGradients:
    def test_one_directional_matches_fd(self, rng):
        B, T, U, V = 1, 3, 2, 5
        z1 = rng.standard_normal((B, T, U + 1, V))
        z2 = rng.standard_normal((B, T, U + 1, V))
        cfg = MCRConfig(direction="offline_teacher", tile=2)

        def f(x):
            return mcr_forward(JointLogits(z1, [T], [U]),
                               JointLogits(x, [T], [U]), cfg)[0]

        res = mcr_loss(JointLogits(z1, [T], [U]), JointLogits(z2, [T], [U]), cfg)
        fd = finite_difference_grad(f, z2.copy())
        assert max_rel_error(res.grad_streaming, fd) <= 1e-5

    def test_symmetric_detached_matches_frozen_teacher_fd(self, rng):
        # each direction's gradient equals finite differences of its own
        # one-directional term with the teacher frozen, halved
        B, T, U, V = 1, 2, 2, 4
        z1 = rng.standard_normal((B, T, U + 1, V))
        z2 = rng.standard_normal((B, T, U + 1, V))
        res = mcr_loss(JointLogits(z1, [T], [U]), JointLogits(z2, [T], [U]),
                       MCRConfig(direction="symmetric", tile=3))
        fd_str = finite_difference_grad(
            lambda x: 0.5 * mcr_forward(JointLogits(z1, [T], [U]),
                                        JointLogits(x, [T], [U]),
                                        MCRConfig(direction="offline_teacher"))[0],
            z2.copy())
        fd_off = finite_difference_grad(
            lambda x: 0.5 * mcr_forward(JointLogits(x, [T], [U]),
                                        JointLogits(z2, [T], [U]),
                                        MCRConfig(direction="streaming_teacher"))[0],
            z1.copy())
        assert max_rel_error(res.grad_streaming, fd_str) <= 1e-5
        assert max_rel_error(res.grad_offline, fd_off) <= 1e-5
        np.testing.assert_allclose(res.grad_offline, -res.grad_streaming, atol=1e-15)

    def test_symmetric_full_grad_matches_true_fd(self, rng):
        B, T, U, V = 1, 2, 1, 4
        z1 = rng.standard_normal((B, T, U + 1, V))
        z2 = rng.standard_normal((B, T, U + 1, V))
        cfg = MCRConfig(direction="symmetric", tile=2, full_grad=True)
        res = mcr_loss(JointLogits(z1, [T], [U]), JointLogits(z2, [T], [U]), cfg)
        fd_off = finite_difference_grad(
            lambda x: mcr_forward(JointLogits(x, [T], [U]),
                                  JointLogits(z2, [T], [U]), cfg)[0], z1.copy())
        fd_str = finite_difference_grad(
            lambda x: mcr_forward(JointLogits(z1, [T], [U]),
                                  JointLogits(x, [T], [U]), cfg)[0], z2.copy())
        assert max_rel_error(res.grad_offline, fd_off) <= 1e-5
        assert max_rel_error(res.grad_streaming, fd_str) <= 1e-5


class TestInvariants:
    def test_nonnegative_loss(self, rng):
        for _ in range(10):
            a, b = pair_from(rng, V=int(rng.integers(2, 12)))
            for direction in DIRS:
                assert mcr_forward(a, b, MCRConfig(direction=direction))[0] >= 0.0

    def test_direction_symmetry_swap(self, rng):
        a, b = pair_from(rng)
        cfg = MCRConfig(direction="symmetric", tile=5)
        r1 = mcr_loss(a, b, cfg)
        r2 = mcr_loss(b, a, cfg)
        assert r1.loss == r2.loss
        np.testing.assert_array_equal(r1.grad_offline, r2.grad_streaming)
        np.testing.assert_array_equal(r1.grad_streaming, r2.grad_offline)

    def test_padding_inertness(self, rng):
        a, b = pair_from(rng, B=2, T=4, U=3, V=6)
        cfg = MCRConfig(direction="symmetric", tile=4)
        ref = mcr_loss(a, b, cfg)
        za, zb = a.z.copy(), b.z.copy()
        for z in (za, zb):
            for i, (tl, ul) in enumerate(zip(a.t_len, a.u_len)):
                z[i, tl:] = np.nan
                z[i, :, ul + 1:] = 1e33
        res = mcr_loss(JointLogits(za, a.t_len, a.u_len),
                       JointLogits(zb, b.t_len, b.u_len), cfg)
        assert res.loss == ref.loss
        np.testing.assert_array_equal(res.grad_offline, ref.grad_offline)
        np.testing.assert_array_equal(res.grad_streaming, ref.grad_streaming)

    def test_shift_invariance(self, rng):
        a, b = pair_from(rng, B=1, T=3, U=2, V=5)
        cfg = MCRConfig(direction="symmetric")
        ref = mcr_forward(a, b, cfg)[0]
        shifted = a.z + rng.standard_normal((1, 3, 3, 1)) * 9.0
        res = mcr_forward(JointLogits(shifted, a.t_len, a.u_len), b, cfg)[0]
        assert abs(res - ref) <= 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20)
    def test_property_fused_naive(self, seed):
        r = np.random.default_rng(seed)
        a, b = pair_from(r, B=2, T=int(r.integers(1, 6)), U=int(r.integers(0, 4)),
                         V=int(r.integers(2, 16)))
        cfg = MCRConfig(direction=DIRS[int(r.integers(3))], tile=int(r.integers(1, 20)))
        fused = mcr_loss(a, b, cfg)
        naive = mcr_naive_oracle(a, b, cfg)
        assert abs(fused.loss - naive.loss) <= 1e-9
        assert np.abs(fused.grad_offline - naive.grad_offline).max() <= 1e-9
        assert np.abs(fused.grad_streaming - naive.grad_streaming).max() <= 1e-9


class TestErrorsAndProbe:
    def test_only_the_full_joint_variant(self):
        assert MCRConfig(variant="full_joint").variant == "full_joint"
        with pytest.raises(ValueError):
            MCRConfig(variant="three_class")

    def test_shape_mismatch(self, rng):
        a, _ = pair_from(rng, B=1, T=3, U=2, V=4)
        b = JointLogits(rng.standard_normal((1, 3, 3, 5)), [3], [2])
        with pytest.raises(ModeShapeMismatchError):
            mcr_loss(a, b, MCRConfig())
        c = JointLogits(rng.standard_normal((1, 3, 3, 4)), [2], [2])
        with pytest.raises(ModeShapeMismatchError):
            mcr_loss(a, c, MCRConfig())

    def test_non_finite_valid_cells_rejected(self, rng):
        a, b = pair_from(rng, B=1, T=2, U=1, V=4)
        za = a.z.copy()
        za[0, 0, 0, 1] = np.nan
        with pytest.raises(NonFiniteInputError):
            mcr_loss(JointLogits(za, a.t_len, a.u_len), b, MCRConfig())
        with pytest.raises(NonFiniteInputError):
            mcr_naive_oracle(JointLogits(za, a.t_len, a.u_len), b, MCRConfig())

    def test_probe_small_shape(self):
        report = mcr_memory_probe((2, 6, 4, 32), tile=8)
        assert report["aux_bytes_fused"] > 0
        assert report["aux_bytes_naive"] > report["aux_bytes_fused"]
        assert abs(report["loss_fused"] - report["loss_naive"]) <= 1e-9
        assert report["max_grad_diff"] <= 1e-9

    def test_probe_degenerate_vocabulary(self):
        # V = 1: every distribution is the point mass, loss exactly zero
        report = mcr_memory_probe((1, 3, 2, 1), tile=4)
        assert report["loss_fused"] == 0.0
        assert report["loss_naive"] == 0.0
        assert report["aux_bytes_fused"] < 64 * 1024
        assert report["aux_bytes_naive"] < 64 * 1024

    def test_probe_times_the_naive_oracle_first(self, monkeypatch):
        # the reference figure must not depend on what the fused path leaves behind
        from unify_rnnt import mcr
        calls = []
        for name in ("mcr_loss", "mcr_naive_oracle"):
            original = getattr(mcr, name)
            monkeypatch.setattr(mcr, name, lambda *a, _f=original, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        report = mcr_memory_probe((1, 4, 2, 16), tile=4)
        assert calls == ["mcr_naive_oracle", "mcr_loss"]
        assert set(report) == {"aux_bytes_fused", "aux_bytes_naive", "ratio",
                               "wall_ms_fused", "wall_ms_naive", "loss_fused",
                               "loss_naive", "max_grad_diff"}

    def test_probe_tile_growth(self):
        small = mcr_memory_probe((1, 8, 4, 256), tile=8)
        large = mcr_memory_probe((1, 8, 4, 256), tile=256)
        assert abs(small["loss_fused"] - large["loss_fused"]) <= 1e-12
        assert large["aux_bytes_fused"] > small["aux_bytes_fused"]
