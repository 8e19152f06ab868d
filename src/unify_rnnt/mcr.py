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

The fused path never materializes a [T, U+1, V] buffer.  Per utterance,
one pass over the vocabulary tiles gives both modes' per-cell logsumexps;
a tile sweep then gives p, q and d for a block of cells through fixed
scratch blocks, from the raw logits, copied from frame-aligned views of the
lattices.  ``mcr_backward`` reduces each tile to its share of the loss and
to gradients in that one sweep (``full_grad`` adds a first sweep that sums
the per-cell KLs, and takes the loss there); ``mcr_loss`` is
``mcr_backward`` with seed 1, and ``mcr_forward`` is the loss-only sweep,
bit-identical in its loss.  A naive materialized oracle, written per
teacher and student, is the specification, and a memory probe measures both
paths under the instrumented allocator.

Normalization: per-utterance sums are divided by the count of valid (t, u)
cells, then averaged over the batch.  Cell iteration order is fixed
(t-major, then u, then vocabulary tiles), so results are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ModeShapeMismatchError, NonFiniteInputError
from .memtrack import MemoryMeter, scratch_empty, scratch_zeros
from .rnnt_loss import JointLogits

KL_WEIGHTS = {"offline_teacher": (1.0, 0.0),
              "streaming_teacher": (0.0, 1.0),
              "symmetric": (0.5, 0.5)}
DIRECTIONS = tuple(KL_WEIGHTS)

_CELL_BLOCK = 128


@dataclass(frozen=True)
class MCRConfig:
    """Direction, weight and tile size of the consistency loss.

    Each cell compares the full output distributions over the vocabulary;
    ``variant`` names that one choice, ``"full_joint"``, and accepts no
    other.  ``full_grad`` also differentiates the teacher side of each KL
    term; training's default treats the teacher as a constant.
    """

    direction: str = "symmetric"
    lam: float = 0.3
    variant: str = "full_joint"  # perfbench/bench.py passes this field
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


def _frame_runs(c0: int, c1: int, u1: int) -> tuple:
    """Cells ``[c0, c1)`` of a lattice with ``u1`` valid label rows, as runs.

    Cell ``c`` is ``(t, u) = divmod(c, u1)``.  A run is ``(rows, shape,
    frames, labels)``: block rows ``rows`` hold ``z[frames, labels]``, which
    is whole frames or part of one frame, and ``shape`` views them as
    ``[frames, labels, width]``.
    """
    runs = []
    c = c0
    while c < c1:
        t, u = divmod(c, u1)
        if u or c1 - c < u1:
            nt, nu = 1, min(u1 - u, c1 - c)
        else:
            nt, nu = (c1 - c) // u1, u1
        rows = slice(c - c0, c - c0 + nt * nu)
        runs.append((rows, (nt, nu, -1), slice(t, t + nt), slice(u, u + nu)))
        c = c0 + rows.stop
    return tuple(runs)


class _TileKernel:
    """Scratch blocks and the tile passes over one lattice pair's valid cells.

    ``load`` takes one utterance: its valid cells (t-major, then u) are cut
    into blocks of ``_CELL_BLOCK`` cells, each a few runs of frames, and both
    modes' per-cell logsumexps are computed in one pass over the tiles.  A
    tile is copied from frame-aligned views of the two lattices into one
    ``[2, cells, width]`` block (offline, streaming).  Every working array,
    a block's logsumexps included, is a contiguous view of a scratch buffer
    the meter counts, and no copy makes a temporary; in-place ufuncs on
    strided views of reused buffers are not reliable on all numpy builds.
    """

    def __init__(self, V: int, tile: int, dtype, n_max: int) -> None:
        tw = min(tile, V)
        self.cols = [slice(v0, min(v0 + tw, V)) for v0 in range(0, V, tw)]
        size = min(_CELL_BLOCK, max(1, n_max)) * tw
        # [p | q] and [d | x], each viewed as one [2, cells, width] block
        self.bpq, self.bdx = (scratch_empty((2 * size,), dtype) for _ in range(2))
        # per block of cells [c0, c1): both modes' logsumexps at [2·c0, 2·c1)
        self.lse = scratch_empty((2 * max(1, n_max),), dtype)

    def load(self, zo3: np.ndarray, zs3: np.ndarray, t_len: int, u_len: int) -> int:
        """Take one utterance's [T, U+1, V] lattices; return its valid cells.

        ``blocks`` then holds ``(cells, runs, lse)`` per block of cells, with
        ``lse`` the block's [2, cells, 1] logsumexps.
        """
        u1 = u_len + 1
        n = t_len * u1
        self.z = (zo3, zs3)
        self.blocks = []
        for c0 in range(0, n, _CELL_BLOCK):
            c1 = min(c0 + _CELL_BLOCK, n)
            self.blocks.append((slice(c0, c1), _frame_runs(c0, c1, u1),
                                self.lse[2 * c0:2 * c1].reshape(2, c1 - c0, 1)))
        self._logsumexp()
        return n

    def _gather(self, runs, n: int, cols: slice) -> np.ndarray:
        pair = self.bpq[:2 * n * (cols.stop - cols.start)].reshape(2, n, -1)
        for z, dst in zip(self.z, pair):
            for rows, shape, frames, labels in runs:
                np.copyto(dst[rows].reshape(shape), z[frames, labels, cols])
        return pair

    @staticmethod
    def scatter(g3: np.ndarray, runs, cols: slice, src: np.ndarray) -> None:
        """Write a tile of a block's cell rows into a [T, U+1, V] gradient."""
        for rows, shape, frames, labels in runs:
            np.copyto(g3[frames, labels, cols], src[rows].reshape(shape))

    def _logsumexp(self) -> None:
        """Each block's logsumexps, with running-max rescaling over the tiles."""
        for cells, runs, m in self.blocks:
            n = cells.stop - cells.start
            s = self.bdx[:2 * n].reshape(2, n, 1)
            m.fill(-np.inf)
            s.fill(0.0)
            for cols in self.cols:
                pair = self._gather(runs, n, cols)
                if not np.isfinite(pair).all():
                    raise NonFiniteInputError("joint logits contain non-finite values")
                new_max = np.maximum(m, pair.max(axis=2, keepdims=True))
                np.subtract(pair, new_max, out=pair)
                np.exp(pair, out=pair)
                s *= np.exp(m - new_max)
                s += pair.sum(axis=2, keepdims=True)
                m[:] = new_max
            np.log(s, out=s)
            m += s

    def tiles(self):
        """(cells, runs, cols, p, q, d, x) per tile of the loaded utterance: p
        and q are the offline and streaming softmaxes, d = log p − log q, and
        x is a spare block of the same shape.  The caller may overwrite all
        four."""
        for cells, runs, lse in self.blocks:
            n = cells.stop - cells.start
            for cols in self.cols:
                pair = self._gather(runs, n, cols)
                np.subtract(pair, lse, out=pair)
                p, q = pair
                d, x = self.bdx[:pair.size].reshape(pair.shape)
                np.subtract(p, q, out=d)
                np.exp(pair, out=pair)
                yield cells, runs, cols, p, q, d, x


def _utterances(z_off: JointLogits, z_str: JointLogits, tile: int):
    """(index, valid cells, kernel) per utterance, the kernel loaded with it."""
    _validate_pair(z_off, z_str)
    V = z_off.z.shape[-1]
    n_max = int((z_off.t_len * (z_off.u_len + 1)).max())
    kernel = _TileKernel(V, tile, z_off.z.dtype, n_max)
    for i in range(z_off.batch_size):
        n = kernel.load(z_off.z[i], z_str.z[i], int(z_off.t_len[i]), int(z_off.u_len[i]))
        yield i, n, kernel


def _kl_term(a: float, b: float, p, q, d) -> float:
    """One tile's share of ``a·KL(p‖q) + b·KL(q‖p)``."""
    return a * float(np.vdot(p, d)) - b * float(np.vdot(q, d))


def mcr_forward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> tuple[float, int]:
    """Batch-reduced consistency loss via the tiled path, no gradients."""
    a, b = KL_WEIGHTS[cfg.direction]
    total = 0.0
    cells = 0
    for _i, n, kernel in _utterances(z_off, z_str, cfg.tile):
        acc = 0.0
        for _rows, _runs, _cols, p, q, d, _x in kernel.tiles():
            acc += _kl_term(a, b, p, q, d)
        total += acc / n
        cells += n
    return total / z_off.batch_size, cells


def mcr_backward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig,
                 seed: float = 1.0) -> MCRResult:
    """Loss and ``seed``-scaled gradients of the batch-reduced loss, from one
    tile sweep per utterance (two with ``full_grad``, whose first sweep sums
    the per-cell KLs); the loss is ``mcr_forward``'s, bit for bit."""
    a, b = KL_WEIGHTS[cfg.direction]
    B = z_off.batch_size
    grad_off = np.zeros_like(z_off.z)
    grad_str = np.zeros_like(z_str.z)
    total = 0.0
    cells = 0
    for i, n, kernel in _utterances(z_off, z_str, cfg.tile):
        w = seed / (n * B)
        ws, wo = a * w, -b * w          # scales of q − p in g_str and g_off
        g_off3, g_str3 = grad_off[i], grad_str[i]
        acc = 0.0
        if cfg.full_grad:
            kl_pq = scratch_zeros((n, 1), z_off.z.dtype)
            kl_sum = scratch_zeros((n, 1), z_off.z.dtype)
            for rows, _runs, _cols, p, q, d, _x in kernel.tiles():
                acc += _kl_term(a, b, p, q, d)
                np.multiply(p, d, out=p)
                np.multiply(q, d, out=q)
                kl_pq[rows] += p.sum(axis=1, keepdims=True)
                kl_sum[rows] -= q.sum(axis=1, keepdims=True)
            kl_sum += kl_pq                 # KL(p‖q) + KL(q‖p)
            for rows, runs, cols, p, q, d, x in kernel.tiles():
                np.subtract(q, p, out=x)
                np.subtract(d, kl_pq[rows], out=d)
                np.multiply(p, d, out=p)    # p·(d − KL(p‖q))
                np.add(d, kl_sum[rows], out=d)
                np.multiply(q, d, out=q)    # q·(d + KL(q‖p))
                np.multiply(x, ws, out=d)
                np.multiply(q, wo, out=q)
                np.add(d, q, out=d)
                kernel.scatter(g_str3, runs, cols, d)
                np.multiply(p, ws, out=p)
                np.multiply(x, wo, out=x)
                np.add(x, p, out=x)
                kernel.scatter(g_off3, runs, cols, x)
            del kl_pq, kl_sum
        else:
            for _rows, runs, cols, p, q, d, x in kernel.tiles():
                acc += _kl_term(a, b, p, q, d)
                np.subtract(q, p, out=x)
                if a:
                    np.multiply(x, ws, out=d)
                    kernel.scatter(g_str3, runs, cols, d)
                if b:
                    np.multiply(x, wo, out=x)
                    kernel.scatter(g_off3, runs, cols, x)
        total += acc / n
        cells += n
    return MCRResult(total / B, grad_off, grad_str, cells)


def mcr_loss(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> MCRResult:
    """Tiled full-joint consistency loss with gradients for both modes."""
    return mcr_backward(z_off, z_str, cfg)


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
    """Run naive and fused paths under the instrumented allocator.

    ``shape`` is (B, T, U, V); lengths are full.  Reports peak auxiliary
    bytes (inputs and gradient outputs excluded) and wall time per path.
    The naive oracle runs first, so its figures do not depend on what the
    fused path leaves behind.
    """
    B, T, U, V = shape
    rng = np.random.default_rng(seed)
    z_off = JointLogits(rng.standard_normal((B, T, U + 1, V)), [T] * B, [U] * B)
    z_str = JointLogits(rng.standard_normal((B, T, U + 1, V)), [T] * B, [U] * B)
    cfg = MCRConfig(direction=direction, lam=1.0, tile=tile)

    with MemoryMeter() as meter_naive:
        t0 = time.perf_counter()
        naive = mcr_naive_oracle(z_off, z_str, cfg)
        wall_naive = (time.perf_counter() - t0) * 1000.0
    with MemoryMeter() as meter_fused:
        t0 = time.perf_counter()
        fused = mcr_loss(z_off, z_str, cfg)
        wall_fused = (time.perf_counter() - t0) * 1000.0

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
