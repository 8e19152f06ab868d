"""The loss kernels against their earlier forms, bit for bit.

The references below are the kernels the current ones replaced, kept as
specifications: the consistency loss as two tile sweeps (loss, then
gradients) that each recompute both modes' logsumexps and gather every tile
with a strided ``np.take``, and the transducer lattice scan that rebuilt its
skew layout on every call.  The current kernels must reproduce them exactly.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from unify_rnnt import rnnt_loss as rl
from unify_rnnt.errors import NonFiniteInputError
from unify_rnnt.mcr import (KL_WEIGHTS, MCRConfig, _validate_pair, mcr_backward,
                            mcr_forward, mcr_loss)
from unify_rnnt.memtrack import MemoryMeter
from unify_rnnt.rnnt_loss import JointLogits, rnnt_forward_single, rnnt_loss

# ---------------------------------------------------------------------------
# reference: the two-sweep consistency loss with the strided-take gather
# ---------------------------------------------------------------------------

_CELL_BLOCK = 128


def _ref_valid_rows(t_len, u_len, U1):
    t_idx = np.repeat(np.arange(t_len, dtype=np.int64), u_len + 1)
    u_idx = np.tile(np.arange(u_len + 1, dtype=np.int64), t_len)
    return t_idx * U1 + u_idx


class _RefTileKernel:
    def __init__(self, V, tile, dtype, n_max):
        self.V = V
        self.tw = min(tile, V)
        size = min(_CELL_BLOCK, max(1, n_max)) * self.tw
        self.bp, self.bq, self.bd, self.bx = (np.empty((size,), dtype) for _ in range(4))

    def _blocks(self, rows):
        for c0 in range(0, rows.size, _CELL_BLOCK):
            cells = slice(c0, min(c0 + _CELL_BLOCK, rows.size))
            for v0 in range(0, self.V, self.tw):
                yield rows[cells], cells, slice(v0, min(v0 + self.tw, self.V))

    @staticmethod
    def _view(buf, n, width):
        return buf[:n * width].reshape(n, width)

    def _gather(self, z2, rows, cols, buf):
        bv = self._view(buf, rows.size, cols.stop - cols.start)
        np.take(z2[:, cols], rows, axis=0, out=bv)
        return bv

    def lse(self, z2, rows):
        m = np.full((rows.size, 1), -np.inf, z2.dtype)
        s = np.zeros((rows.size, 1), z2.dtype)
        for rblk, cells, cols in self._blocks(rows):
            bv = self._gather(z2, rblk, cols, self.bx)
            if not np.isfinite(bv).all():
                raise NonFiniteInputError("joint logits contain non-finite values")
            mb, sb = m[cells], s[cells]
            new_max = np.maximum(mb, bv.max(axis=1, keepdims=True))
            np.subtract(bv, new_max, out=bv)
            np.exp(bv, out=bv)
            sb *= np.exp(mb - new_max)
            sb += bv.sum(axis=1, keepdims=True)
            mb[:] = new_max
        np.log(s, out=s)
        m += s
        return m

    def tiles(self, zo2, zs2, rows, lse_off, lse_str):
        for rblk, cells, cols in self._blocks(rows):
            p = self._gather(zo2, rblk, cols, self.bp)
            q = self._gather(zs2, rblk, cols, self.bq)
            np.subtract(p, lse_off[cells], out=p)
            np.subtract(q, lse_str[cells], out=q)
            d = self._view(self.bd, *p.shape)
            np.subtract(p, q, out=d)
            np.exp(p, out=p)
            np.exp(q, out=q)
            yield cells, cols, p, q, d, self._view(self.bx, *p.shape)


def _ref_utterances(z_off, z_str, tile):
    _validate_pair(z_off, z_str)
    _B, _T, U1, V = z_off.z.shape
    n_max = int((z_off.t_len * (z_off.u_len + 1)).max())
    kernel = _RefTileKernel(V, tile, z_off.z.dtype, n_max)
    for i in range(z_off.batch_size):
        rows = _ref_valid_rows(int(z_off.t_len[i]), int(z_off.u_len[i]), U1)
        zo2 = z_off.z[i].reshape(-1, V)
        zs2 = z_str.z[i].reshape(-1, V)
        lse_off = kernel.lse(zo2, rows)
        lse_str = kernel.lse(zs2, rows)
        yield i, rows, partial(kernel.tiles, zo2, zs2, rows, lse_off, lse_str)


def ref_mcr_forward(z_off, z_str, cfg):
    a, b = KL_WEIGHTS[cfg.direction]
    total = 0.0
    cells = 0
    for _i, rows, tiles in _ref_utterances(z_off, z_str, cfg.tile):
        acc = 0.0
        for _cells, _cols, p, q, d, _x in tiles():
            acc += a * float(np.vdot(p, d)) - b * float(np.vdot(q, d))
        total += acc / rows.size
        cells += rows.size
    return total / z_off.batch_size, cells


def ref_mcr_backward(z_off, z_str, cfg, seed=1.0):
    a, b = KL_WEIGHTS[cfg.direction]
    B, V = z_off.batch_size, z_off.z.shape[-1]
    grad_off = np.zeros_like(z_off.z)
    grad_str = np.zeros_like(z_str.z)
    for i, rows, tiles in _ref_utterances(z_off, z_str, cfg.tile):
        w = seed / (rows.size * B)
        ws, wo = a * w, -b * w
        g_off2 = grad_off[i].reshape(-1, V)
        g_str2 = grad_str[i].reshape(-1, V)
        if cfg.full_grad:
            kl_pq = np.zeros((rows.size, 1), z_off.z.dtype)
            kl_sum = np.zeros((rows.size, 1), z_off.z.dtype)
            for cells, _cols, p, q, d, _x in tiles():
                np.multiply(p, d, out=p)
                np.multiply(q, d, out=q)
                kl_pq[cells] += p.sum(axis=1, keepdims=True)
                kl_sum[cells] -= q.sum(axis=1, keepdims=True)
            kl_sum += kl_pq
        for cells, cols, p, q, d, x in tiles():
            r = rows[cells]
            np.subtract(q, p, out=x)
            if cfg.full_grad:
                np.subtract(d, kl_pq[cells], out=d)
                np.multiply(p, d, out=p)
                np.add(d, kl_sum[cells], out=d)
                np.multiply(q, d, out=q)
                np.multiply(x, ws, out=d)
                np.multiply(q, wo, out=q)
                np.add(d, q, out=d)
                g_str2[r, cols] = d
                np.multiply(p, ws, out=p)
                np.multiply(x, wo, out=x)
                np.add(x, p, out=x)
                g_off2[r, cols] = x
            else:
                if a:
                    np.multiply(x, ws, out=d)
                    g_str2[r, cols] = d
                if b:
                    np.multiply(x, wo, out=x)
                    g_off2[r, cols] = x
    return grad_off, grad_str


def ref_mcr_loss(z_off, z_str, cfg):
    loss, cells = ref_mcr_forward(z_off, z_str, cfg)
    grad_off, grad_str = ref_mcr_backward(z_off, z_str, cfg)
    return loss, grad_off, grad_str, cells


# ---------------------------------------------------------------------------
# reference: the lattice scan that rebuilds its skew layout per call
# ---------------------------------------------------------------------------


def ref_lattice_scan(wt, wu, base):
    K, T, U = wu.shape
    N = T + U
    S = np.full((N, U + 2, K), -np.inf)
    S[0, 1] = base
    top = np.full_like(S, -np.inf)
    left = np.full_like(S, -np.inf)
    for w, skewed in ((wt, top), (wu, left)):
        t, u = np.indices(w.shape[1:])
        skewed[t + u, u + 1] = np.moveaxis(w, 0, -1)
    for n in range(1, N):
        np.logaddexp(S[n - 1, 1:] + top[n - 1, 1:], S[n - 1, :-1] + left[n - 1, :-1],
                     out=S[n, 1:])
    t, u = np.indices((T, U + 1))
    return np.moveaxis(S[t + u, u + 1], -1, 0)


def ref_rnnt_forward_single(z, y):
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    T, U1, V = z.shape
    U = y.size
    lse, logpb, logpy = rl._log_probs(z, y)
    wt = logpb[:T - 1]
    alpha, beta = ref_lattice_scan(np.stack([wt, wt[::-1, ::-1]]),
                                   np.stack([logpy, logpy[::-1, ::-1]]),
                                   [0.0, logpb[T - 1, -1]])
    beta = beta[::-1, ::-1]
    log_total = alpha[T - 1, U] + logpb[T - 1, U]
    with np.errstate(invalid="ignore"):
        occ = np.exp(alpha + beta - log_total)
        beta_next_t = np.full((T, U + 1), -np.inf)
        if T > 1:
            beta_next_t[:T - 1] = beta[1:]
        beta_next_t[T - 1, U] = 0.0
        occ_blank = np.exp(alpha + logpb + beta_next_t - log_total)
        grad = occ[:, :, None] * np.exp(z - lse[:, :, None])
        grad[:, :, 0] -= occ_blank
        if U:
            occ_label = np.exp(alpha[:, :U] + logpy + beta[:, 1:] - log_total)
            grad[:, np.arange(U), y] -= occ_label
    return -float(log_total), grad


# ---------------------------------------------------------------------------
# the consistency loss
# ---------------------------------------------------------------------------


def ragged_pair(rng, dtype, B, T, U, V):
    """A batch whose first utterance fills the lattice and the rest are ragged,
    with non-finite padding that a correct kernel never reads."""
    z_off = (rng.standard_normal((B, T, U + 1, V)) * 2.0).astype(dtype)
    z_str = (rng.standard_normal((B, T, U + 1, V)) * 2.0).astype(dtype)
    t_len = np.full(B, T)
    u_len = np.full(B, U)
    t_len[1:] = rng.integers(1, T + 1, B - 1)
    u_len[1:] = rng.integers(0, U + 1, B - 1)
    for z in (z_off, z_str):
        for i in range(B):
            z[i, t_len[i]:] = np.nan
            z[i, :, u_len[i] + 1:] = np.inf
    return JointLogits(z_off, t_len, u_len), JointLogits(z_str, t_len, u_len)


# (B, T, U, V); 15·10 and 40·6 cells put the second cell block's first cell
# in the middle of a frame
SHAPES = [(3, 4, 3, 9), (2, 15, 9, 7), (3, 6, 4, 18), (1, 1, 0, 5), (2, 40, 5, 6)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("full_grad", [False, True])
@pytest.mark.parametrize("direction", list(KL_WEIGHTS))
@pytest.mark.parametrize("B,T,U,V", SHAPES)
def test_mcr_kernels_equal_the_two_sweep_reference(dtype, full_grad, direction, B, T, U, V):
    rng = np.random.default_rng([B, T, U, V])
    a, b = ragged_pair(rng, dtype, B, T, U, V)
    for tile in (1, 5, 6, V, 128):
        cfg = MCRConfig(direction=direction, tile=tile, full_grad=full_grad)
        loss, g_off, g_str, cells = ref_mcr_loss(a, b, cfg)
        res = mcr_loss(a, b, cfg)
        assert (res.loss, res.cells) == (loss, cells)
        for got, want in ((res.grad_offline, g_off), (res.grad_streaming, g_str)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)
        seeded = mcr_backward(a, b, cfg, seed=1.7)
        assert seeded.loss == loss
        for got, want in zip((seeded.grad_offline, seeded.grad_streaming),
                             ref_mcr_backward(a, b, cfg, seed=1.7)):
            np.testing.assert_array_equal(got, want)
        assert mcr_forward(a, b, cfg) == ref_mcr_forward(a, b, cfg)


def test_mcr_non_finite_valid_cell_rejected_in_either_mode():
    rng = np.random.default_rng(3)
    a, b = ragged_pair(rng, np.float64, 2, 3, 2, 5)
    for which in (0, 1):
        z = (a, b)[which].z.copy()
        z[1, 0, 0, 4] = np.inf
        pair = [a, b]
        pair[which] = JointLogits(z, a.t_len, a.u_len)
        with pytest.raises(NonFiniteInputError):
            mcr_loss(*pair, MCRConfig(tile=2))


def test_criterion_4_counts_what_the_kernel_allocates():
    """The tracemalloc peak of ``mcr_loss``, gradients excluded, is at most
    twice the peak the instrumented allocator reports: no tile-sized buffer
    escapes the meter."""
    B, T, U, V = 4, 64, 32, 1024
    rng = np.random.default_rng(0)
    a = JointLogits(rng.standard_normal((B, T, U + 1, V)), [T] * B, [U] * B)
    b = JointLogits(rng.standard_normal((B, T, U + 1, V)), [T] * B, [U] * B)
    cfg = MCRConfig(direction="symmetric", tile=128)
    with MemoryMeter() as meter:
        mcr_loss(a, b, cfg)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        res = mcr_loss(a, b, cfg)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    aux = peak - res.grad_offline.nbytes - res.grad_streaming.nbytes
    assert 0 < meter.peak and aux <= 2 * meter.peak, (aux, meter.peak)


# ---------------------------------------------------------------------------
# the transducer lattice
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("T,U", [(1, 0), (1, 3), (4, 0), (2, 1), (7, 5), (23, 11), (3, 9)])
def test_rnnt_forward_single_equals_the_per_call_skew_reference(T, U):
    rl._skew_layout.cache_clear()
    rng = np.random.default_rng([T, U])
    for scale in (0.1, 2.0, 30.0):
        z = rng.standard_normal((T, U + 1, 6)) * scale
        y = rng.integers(1, 6, size=U)
        want_loss, want_grad = ref_rnnt_forward_single(z, y)
        # the first use of a layout builds it; later uses read the cache
        for _ in range(2):
            loss, grad = rnnt_forward_single(z, y)
            assert loss == want_loss
            np.testing.assert_array_equal(grad, want_grad)


def test_rnnt_loss_batch_equals_the_reference_on_a_new_shape():
    rng = np.random.default_rng(11)
    B, T, U, V = 4, 17, 6, 9
    z = rng.standard_normal((B, T, U + 1, V)).astype(np.float32)
    t_len = [17, 1, 9, 13]
    u_len = [6, 0, 6, 2]
    targets = [rng.integers(1, V, size=u) for u in u_len]
    rl._skew_layout.cache_clear()
    losses, grad = rnnt_loss(JointLogits(z, t_len, u_len), targets)
    for i in range(B):
        want_loss, want_grad = ref_rnnt_forward_single(
            z[i, :t_len[i], :u_len[i] + 1], targets[i])
        assert losses[i] == want_loss
        np.testing.assert_array_equal(grad[i, :t_len[i], :u_len[i] + 1],
                                      want_grad.astype(np.float32))


def test_skew_cache_stays_within_its_bound():
    rl._skew_layout.cache_clear()
    rng = np.random.default_rng(5)
    n_shapes = rl.SKEW_CACHE_SIZE + 20
    shapes = [(1 + k % 37, k // 37) for k in range(n_shapes)]
    for T, U in shapes:
        rnnt_forward_single(rng.standard_normal((T, U + 1, 3)), rng.integers(1, 3, size=U))
        assert rl._skew_layout.cache_info().currsize <= rl.SKEW_CACHE_SIZE
    info = rl._skew_layout.cache_info()
    assert info.currsize == rl.SKEW_CACHE_SIZE
    assert info.misses == n_shapes
    # a layout evicted and built again gives the same bits
    T, U = shapes[0]
    z = rng.standard_normal((T, U + 1, 3))
    y = rng.integers(1, 3, size=U)
    want = ref_rnnt_forward_single(z, y)
    got = rnnt_forward_single(z, y)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])


def test_cached_layouts_are_read_only():
    for idx in rl._skew_layout(3, 2):
        with pytest.raises(ValueError):
            idx[0] = 0
