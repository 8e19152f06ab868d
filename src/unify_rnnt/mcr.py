"""Mode-consistency regularization over the full transducer joint lattice.

Per valid lattice cell (t, u) the loss is a KL divergence between the
offline-mode and streaming-mode output distributions over the whole
vocabulary (the ``full_joint`` variant, the only one), computed directly
from raw logits.  The fused path never materializes a [T, U+1, V] softmax or
log-softmax buffer: it streams vocabulary tiles through fixed scratch blocks
and recomputes per-cell softmaxes from the raw logits in the backward pass.
A naive materialized implementation serves as the oracle, and a memory probe
measures both paths under the instrumented allocator.

Normalization: per-utterance sums are divided by the count of valid (t, u)
cells, then averaged over the batch.  Cell iteration order is fixed
(t-major, then u, then vocabulary tiles), so results are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ModeShapeMismatchError, NonFiniteInputError
from .memtrack import MemoryMeter, scratch_empty, scratch_full, scratch_zeros
from .rnnt_loss import JointLogits

DIRECTIONS = ("offline_teacher", "streaming_teacher", "symmetric")

_CELL_BLOCK = 128


@dataclass(frozen=True)
class MCRConfig:
    """Direction, weight, variant and tile size of the consistency loss.

    ``variant`` names the distribution compared per cell; the only one is
    ``"full_joint"``, the full output distribution over the vocabulary.
    ``full_grad`` also differentiates the teacher side of each KL term;
    training's default treats the teacher as a constant.
    """

    direction: str = "symmetric"
    lam: float = 0.3
    variant: str = "full_joint"
    tile: int = 128
    full_grad: bool = False

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.variant != "full_joint":
            raise ValueError("variant must be 'full_joint'")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.tile < 1:
            raise ValueError("tile must be >= 1")


@dataclass
class MCRResult:
    loss: float
    grad_offline: np.ndarray
    grad_streaming: np.ndarray
    cells: int


def _validate_pair(z_off: JointLogits, z_str: JointLogits) -> None:
    if z_off.z.shape != z_str.z.shape:
        raise ModeShapeMismatchError(
            f"joint shapes differ: {z_off.z.shape} vs {z_str.z.shape}")
    if not np.array_equal(z_off.t_len, z_str.t_len) or not np.array_equal(z_off.u_len, z_str.u_len):
        raise ModeShapeMismatchError("valid lengths differ between modes")
    if z_off.blank_id != z_str.blank_id:
        raise ModeShapeMismatchError("blank ids differ between modes")


def _valid_rows(t_len: int, u_len: int, U1: int) -> np.ndarray:
    t_idx = np.repeat(np.arange(t_len, dtype=np.int64), u_len + 1)
    u_idx = np.tile(np.arange(u_len + 1, dtype=np.int64), t_len)
    return t_idx * U1 + u_idx


class _TileKernel:
    """Shared scratch blocks for the tiled KL passes over one lattice pair.

    Scratch lives in flat buffers reshaped per tile so every working view is
    contiguous; in-place ufuncs on strided views of reused buffers are not
    reliable on all numpy builds.
    """

    def __init__(self, V: int, tile: int, dtype, n_max: int = _CELL_BLOCK) -> None:
        self.V = V
        self.tw = min(tile, V)
        self.cb = min(_CELL_BLOCK, max(1, n_max))
        size = self.cb * self.tw
        self.bt = scratch_empty((size,), dtype)
        self.bs = scratch_empty((size,), dtype)
        self.bp = scratch_empty((size,), dtype)
        self.bq = scratch_empty((size,), dtype)
        self.bx = scratch_empty((size,), dtype)

    def _blocks(self, n: int):
        for c0 in range(0, n, _CELL_BLOCK):
            yield c0, min(c0 + _CELL_BLOCK, n)

    def _tiles(self):
        for v0 in range(0, self.V, self.tw):
            yield v0, min(v0 + self.tw, self.V)

    @staticmethod
    def _view(buf: np.ndarray, cb: int, width: int) -> np.ndarray:
        return buf[:cb * width].reshape(cb, width)

    def _gather(self, z2: np.ndarray, rows: np.ndarray, v0: int, v1: int,
                buf: np.ndarray) -> np.ndarray:
        bv = self._view(buf, rows.size, v1 - v0)
        np.take(z2[:, v0:v1], rows, axis=0, out=bv)
        return bv

    def lse(self, z2: np.ndarray, rows: np.ndarray, check_finite: bool = True) -> np.ndarray:
        """Streaming per-row logsumexp with running-max rescaling."""
        n = rows.size
        m = scratch_full((n,), -np.inf, z2.dtype)
        s = scratch_zeros((n,), z2.dtype)
        for c0, c1 in self._blocks(n):
            rblk = rows[c0:c1]
            mb = m[c0:c1]
            sb = s[c0:c1]
            for v0, v1 in self._tiles():
                bv = self._gather(z2, rblk, v0, v1, self.bt)
                if check_finite and not np.isfinite(bv).all():
                    raise NonFiniteInputError("joint logits contain non-finite values")
                blk_max = bv.max(axis=1)
                new_max = np.maximum(mb, blk_max)
                np.subtract(bv, new_max[:, None], out=bv)
                np.exp(bv, out=bv)
                sb *= np.exp(mb - new_max)
                sb += bv.sum(axis=1)
                mb[:] = new_max
        np.log(s, out=s)
        m += s
        return m

    def _load_logprobs(self, zt2, zs2, rblk, lt, ls, v0, v1):
        bt = self._gather(zt2, rblk, v0, v1, self.bt)
        bs = self._gather(zs2, rblk, v0, v1, self.bs)
        np.subtract(bt, lt[:, None], out=bt)
        np.subtract(bs, ls[:, None], out=bs)
        return bt, bs

    def loss(self, zt2, zs2, rows, lse_t, lse_s, symmetric: bool) -> float:
        acc = 0.0
        for c0, c1 in self._blocks(rows.size):
            rblk = rows[c0:c1]
            lt = lse_t[c0:c1]
            ls = lse_s[c0:c1]
            for v0, v1 in self._tiles():
                bt, bs = self._load_logprobs(zt2, zs2, rblk, lt, ls, v0, v1)
                bp = self._view(self.bp, rblk.size, v1 - v0)
                np.exp(bt, out=bp)
                np.subtract(bt, bs, out=bt)
                if symmetric:
                    bq = self._view(self.bq, rblk.size, v1 - v0)
                    np.exp(bs, out=bq)
                    np.subtract(bp, bq, out=bp)
                    np.multiply(bp, bt, out=bp)
                    acc += 0.5 * float(bp.sum())
                else:
                    np.multiply(bp, bt, out=bp)
                    acc += float(bp.sum())
        return acc

    def cell_kls(self, zt2, zs2, rows, lse_t, lse_s):
        """Per-cell KL(p||q) and KL(q||p), needed by full-gradient modes."""
        n = rows.size
        kl_pq = scratch_zeros((n,), zt2.dtype)
        kl_qp = scratch_zeros((n,), zt2.dtype)
        for c0, c1 in self._blocks(n):
            rblk = rows[c0:c1]
            lt = lse_t[c0:c1]
            ls = lse_s[c0:c1]
            for v0, v1 in self._tiles():
                bt, bs = self._load_logprobs(zt2, zs2, rblk, lt, ls, v0, v1)
                bp = self._view(self.bp, rblk.size, v1 - v0)
                bq = self._view(self.bq, rblk.size, v1 - v0)
                np.exp(bt, out=bp)
                np.exp(bs, out=bq)
                np.subtract(bt, bs, out=bt)
                np.multiply(bp, bt, out=bp)
                kl_pq[c0:c1] += bp.sum(axis=1)
                np.multiply(bq, bt, out=bq)
                kl_qp[c0:c1] -= bq.sum(axis=1)
        return kl_pq, kl_qp

    def grads(self, zt2, zs2, rows, lse_t, lse_s, mode: str, w: float,
              g_t2, g_s2, kl_pq=None, kl_qp=None) -> None:
        """Write per-cell gradient tiles with teacher orientation p = zt, q = zs.

        mode "onedir": student gets (q - p) * w; with full-grad kl_pq set,
        teacher gets p * (log p - log q - KL(p||q)) * w.
        mode "sym": detached halves +-(q - p) * w / 2; with kl vectors set,
        each side also receives its own-direction full-gradient term.
        """
        half = 0.5 * w
        for c0, c1 in self._blocks(rows.size):
            rblk = rows[c0:c1]
            lt = lse_t[c0:c1]
            ls = lse_s[c0:c1]
            for v0, v1 in self._tiles():
                bt, bs = self._load_logprobs(zt2, zs2, rblk, lt, ls, v0, v1)
                bp = self._view(self.bp, rblk.size, v1 - v0)
                bq = self._view(self.bq, rblk.size, v1 - v0)
                bx = self._view(self.bx, rblk.size, v1 - v0)
                np.exp(bt, out=bp)
                np.exp(bs, out=bq)
                np.subtract(bt, bs, out=bt)      # log p - log q
                np.subtract(bq, bp, out=bs)      # q - p
                if mode == "onedir":
                    np.multiply(bs, w, out=bx)
                    g_s2[rblk, v0:v1] = bx
                    if kl_pq is not None:
                        np.subtract(bt, kl_pq[c0:c1][:, None], out=bt)
                        np.multiply(bp, bt, out=bt)
                        bt *= w
                        g_t2[rblk, v0:v1] = bt
                elif mode == "sym":
                    if kl_pq is None:
                        np.multiply(bs, half, out=bx)
                        g_s2[rblk, v0:v1] = bx
                        np.negative(bx, out=bx)
                        g_t2[rblk, v0:v1] = bx
                    else:
                        np.add(bt, kl_qp[c0:c1][:, None], out=bx)
                        np.multiply(bq, bx, out=bx)
                        np.subtract(bs, bx, out=bx)   # (q-p) - q*(diff + KL(q||p))
                        bx *= half
                        g_s2[rblk, v0:v1] = bx
                        np.subtract(bt, kl_pq[c0:c1][:, None], out=bt)
                        np.multiply(bp, bt, out=bt)
                        np.subtract(bt, bs, out=bt)   # p*(diff - KL(p||q)) + (p-q)
                        bt *= half
                        g_t2[rblk, v0:v1] = bt
                else:
                    raise ValueError(f"unknown gradient mode {mode!r}")


def _orient(cfg: MCRConfig, z_off: JointLogits, z_str: JointLogits):
    """Teacher-first orientation of the two lattices per cfg.direction."""
    if cfg.direction == "streaming_teacher":
        return z_str, z_off
    return z_off, z_str


def mcr_forward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> tuple[float, int]:
    """Batch-reduced consistency loss via the tiled path, no gradients."""
    _validate_pair(z_off, z_str)
    zt_all, zs_all = _orient(cfg, z_off, z_str)
    B, _T, U1, V = z_off.z.shape
    n_max = int((z_off.t_len * (z_off.u_len + 1)).max())
    kernel = _TileKernel(V, cfg.tile, z_off.z.dtype, n_max)
    total = 0.0
    cells = 0
    sym = cfg.direction == "symmetric"
    for b in range(B):
        rows = _valid_rows(int(z_off.t_len[b]), int(z_off.u_len[b]), U1)
        zt2 = zt_all.z[b].reshape(-1, V)
        zs2 = zs_all.z[b].reshape(-1, V)
        lse_t = kernel.lse(zt2, rows)
        lse_s = kernel.lse(zs2, rows)
        total += kernel.loss(zt2, zs2, rows, lse_t, lse_s, sym) / rows.size
        cells += rows.size
    return total / B, cells


def mcr_backward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig,
                 seed: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the batch-reduced loss, recomputed from raw logits."""
    _validate_pair(z_off, z_str)
    B, _T, U1, V = z_off.z.shape
    grad_off = np.zeros_like(z_off.z)
    grad_str = np.zeros_like(z_str.z)
    n_max = int((z_off.t_len * (z_off.u_len + 1)).max())
    kernel = _TileKernel(V, cfg.tile, z_off.z.dtype, n_max)
    sym = cfg.direction == "symmetric"
    for b in range(B):
        rows = _valid_rows(int(z_off.t_len[b]), int(z_off.u_len[b]), U1)
        w = seed / (rows.size * B)
        if cfg.direction == "streaming_teacher":
            zt2, zs2 = z_str.z[b].reshape(-1, V), z_off.z[b].reshape(-1, V)
            g_t2, g_s2 = grad_str[b].reshape(-1, V), grad_off[b].reshape(-1, V)
        else:
            zt2, zs2 = z_off.z[b].reshape(-1, V), z_str.z[b].reshape(-1, V)
            g_t2, g_s2 = grad_off[b].reshape(-1, V), grad_str[b].reshape(-1, V)
        lse_t = kernel.lse(zt2, rows)
        lse_s = kernel.lse(zs2, rows)
        kl_pq = kl_qp = None
        if cfg.full_grad:
            kl_pq, kl_qp = kernel.cell_kls(zt2, zs2, rows, lse_t, lse_s)
        kernel.grads(zt2, zs2, rows, lse_t, lse_s, "sym" if sym else "onedir",
                     w, g_t2, g_s2, kl_pq, kl_qp)
    return grad_off, grad_str


def mcr_loss(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> MCRResult:
    """Tiled full-joint consistency loss with gradients for both modes."""
    loss, cells = mcr_forward(z_off, z_str, cfg)
    grad_off, grad_str = mcr_backward(z_off, z_str, cfg)
    return MCRResult(loss, grad_off, grad_str, cells)


# ---------------------------------------------------------------------------
# naive materialized oracle
# ---------------------------------------------------------------------------


def _valid_mask(logits: JointLogits) -> np.ndarray:
    B, T, U1, _ = logits.z.shape
    mask = np.zeros((B, T, U1), dtype=bool)
    for b in range(B):
        mask[b, :logits.t_len[b], :logits.u_len[b] + 1] = True
    return mask


def _materialized_softmax(z: np.ndarray, mask: np.ndarray):
    """Full log-softmax and softmax buffers, all routed through the meter."""
    fin = scratch_empty(z.shape, bool)
    np.isfinite(z, out=fin)
    if not fin.all(axis=-1)[mask].all():
        raise NonFiniteInputError("joint logits contain non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        m = z.max(axis=-1, keepdims=True)
        e = scratch_empty(z.shape, z.dtype)
        np.subtract(z, m, out=e)
        np.exp(e, out=e)
        s = e.sum(axis=-1, keepdims=True)
        logp = scratch_empty(z.shape, z.dtype)
        np.subtract(z, m + np.log(s), out=logp)
        np.divide(e, s, out=e)
    return logp, e


def mcr_naive_oracle(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> MCRResult:
    """Reference implementation materializing full log-softmax tensors."""
    _validate_pair(z_off, z_str)
    mask = _valid_mask(z_off)
    zt_all, zs_all = _orient(cfg, z_off, z_str)
    logp_t, p_t = _materialized_softmax(zt_all.z, mask)
    logp_s, p_s = _materialized_softmax(zs_all.z, mask)
    diff = scratch_empty(logp_t.shape, logp_t.dtype)
    with np.errstate(invalid="ignore"):
        np.subtract(logp_t, logp_s, out=diff)
        if cfg.direction == "symmetric":
            kl_cells = 0.5 * ((p_t - p_s) * diff).sum(axis=-1)
        else:
            kl_cells = (p_t * diff).sum(axis=-1)
    kl_cells[~mask] = 0.0

    B = z_off.batch_size
    n_cells = (z_off.t_len * (z_off.u_len + 1)).astype(np.float64)
    loss = float((kl_cells.sum(axis=(1, 2)) / n_cells).mean())

    w = 1.0 / (n_cells * B)
    wb = w[:, None, None, None]
    with np.errstate(invalid="ignore"):
        if cfg.direction == "symmetric":
            g_student = (p_s - p_t) * (0.5 * wb)
            if cfg.full_grad:
                kl_pq = (p_t * diff).sum(axis=-1, keepdims=True)
                kl_qp = -(p_s * diff).sum(axis=-1, keepdims=True)
                g_student = g_student + p_s * (-diff - kl_qp) * (0.5 * wb)
                g_teacher = (p_t - p_s) * (0.5 * wb) + p_t * (diff - kl_pq) * (0.5 * wb)
            else:
                g_teacher = -g_student
        else:
            g_student = (p_s - p_t) * wb
            if cfg.full_grad:
                kl_pq = (p_t * diff).sum(axis=-1, keepdims=True)
                g_teacher = p_t * (diff - kl_pq) * wb
            else:
                g_teacher = np.zeros_like(g_student)
    g_student[~mask] = 0.0
    g_teacher[~mask] = 0.0
    if cfg.direction == "streaming_teacher":
        grad_off, grad_str = g_student, g_teacher
    else:
        grad_off, grad_str = g_teacher, g_student
    return MCRResult(loss, grad_off, grad_str, int(mask.sum()))


# ---------------------------------------------------------------------------
# memory probe
# ---------------------------------------------------------------------------


def mcr_memory_probe(shape, tile: int = 128, direction: str = "symmetric",
                     seed: int = 0) -> dict:
    """Run fused and naive paths under the instrumented allocator.

    ``shape`` is (B, T, U, V); lengths are full.  Reports peak auxiliary
    bytes (inputs and gradient outputs excluded) and wall time per path.
    """
    B, T, U, V = shape
    rng = np.random.default_rng(seed)
    z_off = JointLogits(rng.standard_normal((B, T, U + 1, V)), [T] * B, [U] * B)
    z_str = JointLogits(rng.standard_normal((B, T, U + 1, V)), [T] * B, [U] * B)
    cfg = MCRConfig(direction=direction, lam=1.0, variant="full_joint", tile=tile)

    with MemoryMeter() as meter_fused:
        t0 = time.perf_counter()
        fused = mcr_loss(z_off, z_str, cfg)
        wall_fused = (time.perf_counter() - t0) * 1000.0
    with MemoryMeter() as meter_naive:
        t0 = time.perf_counter()
        naive = mcr_naive_oracle(z_off, z_str, cfg)
        wall_naive = (time.perf_counter() - t0) * 1000.0

    max_grad_diff = max(
        float(np.abs(fused.grad_offline - naive.grad_offline).max(initial=0.0)),
        float(np.abs(fused.grad_streaming - naive.grad_streaming).max(initial=0.0)),
    )
    aux_naive = meter_naive.peak
    return {
        "aux_bytes_fused": meter_fused.peak,
        "aux_bytes_naive": aux_naive,
        "ratio": meter_fused.peak / aux_naive if aux_naive else float("nan"),
        "wall_ms_fused": wall_fused,
        "wall_ms_naive": wall_naive,
        "loss_fused": fused.loss,
        "loss_naive": naive.loss,
        "max_grad_diff": max_grad_diff,
    }
