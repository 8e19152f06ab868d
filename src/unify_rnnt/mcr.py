"""Mode-consistency regularization over the full transducer joint lattice.

Per valid lattice cell (t, u) the loss compares the offline-mode and
streaming-mode output distributions p and q over the whole vocabulary (the
``full_joint`` variant, the only one), computed directly from raw logits.
Every teacher direction is one weighted KL, ``a·KL(p‖q) + b·KL(q‖p)``, with
``(a, b)`` from ``KL_WEIGHTS``:

    offline_teacher     (1, 0)
    streaming_teacher   (0, 1)
    symmetric           (½, ½)

With ``d = log p − log q`` and ``w = seed / (cells·B)`` the gradients with
respect to the streaming and offline logits are

    g_str =  a·w·(q − p)  −  b·w·q·(d + KL(q‖p))
    g_off = −b·w·(q − p)  +  a·w·p·(d − KL(p‖q))

where the second terms, which differentiate the teacher side of each KL,
are added only with ``full_grad``; by default the teacher is a constant.

The fused path never materializes a [T, U+1, V] buffer: one tile routine
gives p, q and d for a block of cells through fixed scratch blocks, from the
raw logits.  The forward reduces its output to the loss; the backward to
per-cell KLs (only with ``full_grad``), then to gradients.  A naive
materialized oracle, written per teacher and student, is the specification,
and a memory probe measures both paths under the instrumented allocator.

Normalization: per-utterance sums are divided by the count of valid (t, u)
cells, then averaged over the batch.  Cell iteration order is fixed
(t-major, then u, then vocabulary tiles), so results are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ModeShapeMismatchError, NonFiniteInputError
from .memtrack import MemoryMeter, scratch_empty, scratch_full, scratch_zeros
from .rnnt_loss import JointLogits

KL_WEIGHTS = {"offline_teacher": (1.0, 0.0),
              "streaming_teacher": (0.0, 1.0),
              "symmetric": (0.5, 0.5)}
DIRECTIONS = tuple(KL_WEIGHTS)

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
    """Four scratch blocks and the tile passes over one lattice pair's cells.

    Scratch lives in flat buffers reshaped per tile so every working view is
    contiguous; in-place ufuncs on strided views of reused buffers are not
    reliable on all numpy builds.
    """

    def __init__(self, V: int, tile: int, dtype, n_max: int) -> None:
        self.V = V
        self.tw = min(tile, V)
        size = min(_CELL_BLOCK, max(1, n_max)) * self.tw
        self.bp, self.bq, self.bd, self.bx = (scratch_empty((size,), dtype)
                                              for _ in range(4))

    def _blocks(self, rows: np.ndarray):
        """(block rows, cells, cols): cell blocks in order, vocabulary tiles
        in each; ``cells`` slices the block out of ``rows``."""
        for c0 in range(0, rows.size, _CELL_BLOCK):
            cells = slice(c0, min(c0 + _CELL_BLOCK, rows.size))
            rblk = rows[cells]
            for v0 in range(0, self.V, self.tw):
                yield rblk, cells, slice(v0, min(v0 + self.tw, self.V))

    @staticmethod
    def _view(buf: np.ndarray, n: int, width: int) -> np.ndarray:
        return buf[:n * width].reshape(n, width)

    def _gather(self, z2: np.ndarray, rows: np.ndarray, cols: slice,
                buf: np.ndarray) -> np.ndarray:
        bv = self._view(buf, rows.size, cols.stop - cols.start)
        np.take(z2[:, cols], rows, axis=0, out=bv)
        return bv

    def lse(self, z2: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Streaming per-row logsumexp with running-max rescaling, as a column."""
        m = scratch_full((rows.size, 1), -np.inf, z2.dtype)
        s = scratch_zeros((rows.size, 1), z2.dtype)
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
        """(cells, cols, p, q, d, x) per tile: p and q are the offline and
        streaming softmaxes, d = log p − log q, and x is a spare block of the
        same shape.  The caller may overwrite all four."""
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


def _utterances(z_off: JointLogits, z_str: JointLogits, tile: int):
    """(index, valid rows, tile pass) per utterance; each call of the tile
    pass restarts ``_TileKernel.tiles`` on the utterance's logsumexps."""
    _validate_pair(z_off, z_str)
    _B, _T, U1, V = z_off.z.shape
    n_max = int((z_off.t_len * (z_off.u_len + 1)).max())
    kernel = _TileKernel(V, tile, z_off.z.dtype, n_max)
    for i in range(z_off.batch_size):
        rows = _valid_rows(int(z_off.t_len[i]), int(z_off.u_len[i]), U1)
        zo2 = z_off.z[i].reshape(-1, V)
        zs2 = z_str.z[i].reshape(-1, V)
        lse_off = kernel.lse(zo2, rows)
        lse_str = kernel.lse(zs2, rows)
        yield i, rows, partial(kernel.tiles, zo2, zs2, rows, lse_off, lse_str)


def mcr_forward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> tuple[float, int]:
    """Batch-reduced consistency loss via the tiled path, no gradients."""
    a, b = KL_WEIGHTS[cfg.direction]
    total = 0.0
    cells = 0
    for _i, rows, tiles in _utterances(z_off, z_str, cfg.tile):
        acc = 0.0
        for _cells, _cols, p, q, d, _x in tiles():
            acc += a * float(np.vdot(p, d)) - b * float(np.vdot(q, d))
        total += acc / rows.size
        cells += rows.size
    return total / z_off.batch_size, cells


def mcr_backward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig,
                 seed: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the batch-reduced loss, recomputed from raw logits."""
    a, b = KL_WEIGHTS[cfg.direction]
    B, V = z_off.batch_size, z_off.z.shape[-1]
    grad_off = np.zeros_like(z_off.z)
    grad_str = np.zeros_like(z_str.z)
    for i, rows, tiles in _utterances(z_off, z_str, cfg.tile):
        w = seed / (rows.size * B)
        ws, wo = a * w, -b * w          # scales of q − p in g_str and g_off
        g_off2 = grad_off[i].reshape(-1, V)
        g_str2 = grad_str[i].reshape(-1, V)
        if cfg.full_grad:
            kl_pq = scratch_zeros((rows.size, 1), z_off.z.dtype)
            kl_sum = scratch_zeros((rows.size, 1), z_off.z.dtype)
            for cells, _cols, p, q, d, _x in tiles():
                np.multiply(p, d, out=p)
                np.multiply(q, d, out=q)
                kl_pq[cells] += p.sum(axis=1, keepdims=True)
                kl_sum[cells] -= q.sum(axis=1, keepdims=True)
            kl_sum += kl_pq                 # KL(p‖q) + KL(q‖p)
        for cells, cols, p, q, d, x in tiles():
            r = rows[cells]
            np.subtract(q, p, out=x)
            if cfg.full_grad:
                np.subtract(d, kl_pq[cells], out=d)
                np.multiply(p, d, out=p)    # p·(d − KL(p‖q))
                np.add(d, kl_sum[cells], out=d)
                np.multiply(q, d, out=q)    # q·(d + KL(q‖p))
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
    if cfg.direction == "streaming_teacher":
        zt_all, zs_all = z_str, z_off
    else:
        zt_all, zs_all = z_off, z_str
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
