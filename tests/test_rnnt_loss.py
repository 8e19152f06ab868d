"""Transducer lattice loss against the alignment-enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unify_rnnt.errors import BlankInTargetError, OracleTooLargeError
from unify_rnnt.gradcheck import finite_difference_grad, max_rel_error
from unify_rnnt.rnnt_loss import (ORACLE_MAX_T, ORACLE_MAX_U, JointLogits, _alpha_beta,
                                  _log_probs, rnnt_bruteforce_oracle,
                                  rnnt_forward_single, rnnt_loss)
from unify_rnnt.tensor import Tensor
from unify_rnnt.training import rnnt_loss_node

LOG4 = 1.3862943611198906


def single(z, y):
    """Loss and gradient of one whole [T, U+1, V] lattice, as a batch of one."""
    T, U1, _V = z.shape
    losses, grad = rnnt_forward_single(z[None], [np.asarray(y)], ([T], [U1 - 1]))
    return float(losses[0]), grad[0]


def alpha_beta(logpb, logpy):
    """Alpha and beta of one whole [T, U+1] lattice, as a batch of one."""
    T, U1 = logpb.shape
    alpha, beta = _alpha_beta(logpb[None], logpy[None], [T], [U1 - 1])
    return alpha[0], beta[0]


def random_instance(rng, t_max=4, u_max=3, v_max=3):
    T = int(rng.integers(1, t_max + 1))
    U = int(rng.integers(0, u_max + 1))
    V = int(rng.integers(2, v_max + 1))
    z = rng.standard_normal((T, U + 1, V)) * 2.0
    y = rng.integers(1, V, size=U)
    return z, y


class TestKnownValues:
    def test_single_frame_single_token(self):
        jl = JointLogits(np.zeros((1, 1, 2, 2)), [1], [1])
        losses, _ = rnnt_loss(jl, [[1]])
        assert abs(losses[0] - LOG4) < 1e-9
        assert abs(rnnt_bruteforce_oracle(jl, [[1]])[0] - LOG4) < 1e-9

    def test_two_frames_empty_target(self):
        jl = JointLogits(np.zeros((1, 2, 1, 2)), [2], [0])
        losses, _ = rnnt_loss(jl, [[]])
        assert abs(losses[0] - LOG4) < 1e-9

    def test_two_frames_one_token_two_alignments(self):
        jl = JointLogits(np.zeros((1, 2, 2, 2)), [2], [1])
        losses, _ = rnnt_loss(jl, [[1]])
        assert abs(losses[0] - LOG4) < 1e-9

    def test_empty_target_is_blank_chain(self, rng):
        T, V = 4, 3
        z = rng.standard_normal((T, 1, V))
        loss, _ = single(z, np.array([], dtype=np.int64))
        lse = np.log(np.exp(z).sum(-1))
        expected = -float((z[:, 0, 0] - lse[:, 0]).sum())
        assert abs(loss - expected) < 1e-9


class TestOracleEquivalence:
    def test_fifty_random_instances(self, rng):
        for _ in range(50):
            z, y = random_instance(rng)
            jl = JointLogits(z[None], [z.shape[0]], [len(y)])
            losses, _ = rnnt_loss(jl, [y])
            oracle = rnnt_bruteforce_oracle(jl, [y])
            assert abs(losses[0] - oracle[0]) <= 1e-9

    def test_oracle_bound_enforced(self, rng):
        z = rng.standard_normal((7, 1, 2))
        jl = JointLogits(z[None], [7], [0])
        with pytest.raises(OracleTooLargeError):
            rnnt_bruteforce_oracle(jl, [[]])


class TestGradient:
    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(5):
            z, y = random_instance(rng)
            _, grad = single(z, y)
            fd = finite_difference_grad(lambda x: single(x, y)[0], z.copy())
            assert max_rel_error(grad, fd) <= 1e-5

    def test_grad_rows_sum_to_zero(self, rng):
        z, y = random_instance(rng)
        _, grad = single(z, y)
        assert np.abs(grad.sum(axis=-1)).max() <= 1e-9


class TestInvariants:
    def test_padding_inertness_exact(self, rng):
        z, y = random_instance(rng)
        T, U1, V = z.shape
        losses, grads = rnnt_loss(JointLogits(z[None], [T], [U1 - 1]), [y])
        # enlarge with garbage, including non-finite junk in padded cells
        big = np.full((1, T + 3, U1 + 2, V), np.nan)
        big[0, :T, :U1] = z
        big[0, T:, :, :] = 1e30
        losses2, grads2 = rnnt_loss(JointLogits(big, [T], [U1 - 1]), [y])
        assert losses2[0] == losses[0]
        np.testing.assert_array_equal(grads2[0, :T, :U1], grads[0])
        assert (grads2[0, T:] == 0).all()
        assert (grads2[0, :, U1:] == 0).all()

    def test_shift_invariance_per_cell(self, rng):
        z, y = random_instance(rng)
        losses, _ = rnnt_loss(JointLogits(z[None], [z.shape[0]], [len(y)]), [y])
        shifted = z + rng.standard_normal((z.shape[0], z.shape[1], 1)) * 7.0
        losses2, _ = rnnt_loss(JointLogits(shifted[None], [z.shape[0]], [len(y)]), [y])
        assert abs(losses[0] - losses2[0]) <= 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25)
    def test_property_oracle_equivalence(self, seed):
        r = np.random.default_rng(seed)
        z, y = random_instance(r)
        jl = JointLogits(z[None], [z.shape[0]], [len(y)])
        assert abs(rnnt_loss(jl, [y])[0][0] - rnnt_bruteforce_oracle(jl, [y])[0]) <= 1e-9


def cell_loop_alpha_beta(logpb, logpy):
    """Alpha and beta one lattice cell at a time, row by row."""
    T, U1 = logpb.shape
    U = U1 - 1
    alpha = np.full((T, U + 1), -np.inf)
    beta = np.full((T, U + 1), -np.inf)
    for t in range(T):
        row = np.full(U + 1, -np.inf)
        if t == 0:
            row[0] = 0.0
        else:
            row = alpha[t - 1] + logpb[t - 1]
        for u in range(1, U + 1):
            row[u] = np.logaddexp(row[u], row[u - 1] + logpy[t, u - 1])
        alpha[t] = row
    for t in range(T - 1, -1, -1):
        row = np.full(U + 1, -np.inf)
        if t == T - 1:
            row[U] = logpb[t, U]
        else:
            row = logpb[t] + beta[t + 1]
        for u in range(U - 1, -1, -1):
            row[u] = np.logaddexp(row[u], logpy[t, u] + row[u + 1])
        beta[t] = row
    return alpha, beta


lattices = st.tuples(st.integers(1, 8), st.integers(0, 6), st.integers(2, 5),
                     st.sampled_from([0.1, 2.0, 30.0]),
                     st.integers(min_value=0, max_value=2 ** 31 - 1))


def lattice(T, U, V, scale, seed):
    r = np.random.default_rng(seed)
    return r.standard_normal((T, U + 1, V)) * scale, r.integers(1, V, size=U)


class TestLatticeScan:
    @given(lattices)
    @settings(max_examples=60)
    def test_alpha_and_beta_give_one_total(self, case):
        T, U = case[:2]
        z, y = lattice(*case)
        _, logpb, logpy = _log_probs(z, y)
        alpha, beta = alpha_beta(logpb, logpy)
        assert alpha.shape == beta.shape == (T, U + 1)
        assert abs(alpha[T - 1, U] + logpb[T - 1, U] - beta[0, 0]) <= 1e-12

    @given(lattices)
    @settings(max_examples=60)
    def test_scan_equals_cell_loop_bitwise(self, case):
        z, y = lattice(*case)
        _, logpb, logpy = _log_probs(z, y)
        for got, want in zip(alpha_beta(logpb, logpy), cell_loop_alpha_beta(logpb, logpy)):
            np.testing.assert_array_equal(got, want)

    @given(st.integers(1, ORACLE_MAX_T), st.integers(0, ORACLE_MAX_U), st.integers(2, 5),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60)
    def test_loss_matches_enumeration_oracle(self, T, U, V, seed):
        z, y = lattice(T, U, V, 2.0, seed)
        jl = JointLogits(z[None], [T], [U])
        assert abs(rnnt_loss(jl, [y])[0][0] - rnnt_bruteforce_oracle(jl, [y])[0]) <= 1e-9

    def test_degenerate_lattices(self):
        # one frame and no targets: the total is the single blank
        _, logpb, logpy = _log_probs(np.array([[[0.3, -0.2]]]), np.array([], dtype=np.int64))
        alpha, beta = alpha_beta(logpb, logpy)
        np.testing.assert_array_equal(alpha, [[0.0]])
        np.testing.assert_array_equal(beta, logpb)


class TestErrors:
    def test_blank_in_target(self):
        jl = JointLogits(np.zeros((1, 2, 2, 3)), [2], [1])
        with pytest.raises(BlankInTargetError):
            rnnt_loss(jl, [[0]])
        # the single-lattice node checks it too
        with pytest.raises(BlankInTargetError):
            rnnt_loss_node(Tensor(np.zeros((2, 4, 3))), np.array([2, 0, 1]))

    def test_target_length_mismatch(self):
        jl = JointLogits(np.zeros((1, 2, 2, 3)), [2], [1])
        with pytest.raises(ValueError):
            rnnt_loss(jl, [[1, 2]])

    def test_container_validates_lengths(self):
        with pytest.raises(ValueError):
            JointLogits(np.zeros((1, 2, 2, 3)), [0], [1])
        with pytest.raises(ValueError):
            JointLogits(np.zeros((1, 2, 2, 3)), [2], [5])
        # a lattice with zero frames cannot emit a nonempty target
        with pytest.raises(ValueError):
            JointLogits(np.zeros((1, 0, 2, 3)), [0], [1])


class TestBatching:
    def test_batch_matches_singles(self, rng):
        B = 3
        zs, ys = [], []
        T_max, U_max, V = 5, 3, 3
        z = rng.standard_normal((B, T_max, U_max + 1, V))
        t_len = rng.integers(1, T_max + 1, B)
        u_len = rng.integers(0, U_max + 1, B)
        targets = [rng.integers(1, V, u) for u in u_len]
        losses, grads = rnnt_loss(JointLogits(z, t_len, u_len), targets)
        for b in range(B):
            sub = z[b, :t_len[b], :u_len[b] + 1]
            loss_b, grad_b = single(sub, targets[b])
            assert abs(losses[b] - loss_b) <= 1e-12
            np.testing.assert_allclose(grads[b, :t_len[b], :u_len[b] + 1], grad_b,
                                       atol=1e-12)
