"""Mode-consistency regularization over the full transducer joint lattice.

Per valid lattice cell (t, u) the loss compares the offline-mode and
streaming-mode output distributions p and q over the whole vocabulary (the
``full_joint`` variant, the only one), computed directly from raw logits.
Every teacher direction is one weighted KL, ``a·KL(p‖q) + b·KL(q‖p)``, with
``(a, b)`` from ``KL_WEIGHTS``:

    offline_teacher     (1, 0)
    streaming_teacher   (0, 1)
    symmetric           (½, ½)

With ``d = log p − log q`` and ``w = 1 / (cells·B)`` the gradients with
respect to the streaming and offline logits are

    g_str =  a·w·(q − p)  −  b·w·q·(d + KL(q‖p))
    g_off = −b·w·(q − p)  +  a·w·p·(d − KL(p‖q))

where the second terms, which differentiate the teacher side of each KL,
are added only with ``full_grad``; by default the teacher is a constant.

The fused path never materializes a [T, U+1, V] buffer.  ``mcr_backward``,
the one implementation, finishes each block of up to ``_CELL_BLOCK`` valid
cells before it starts the next: one pass over the vocabulary tiles gives
both modes' logsumexps (an online softmax), ``full_grad`` adds a pass that
sums the per-cell KLs and takes the loss there, and a last pass gives p, q
and d from the raw logits and reduces each tile to its share of the loss
and to both gradients.  Tiles are copied from runs of frames of the
lattices into three fixed scratch blocks, ``[p | q]``, d and the block's
logsumexps, and no scratch buffer grows with the utterance.  Both gradient
forms write ``x = q − p`` scaled straight into the outputs, one frame run at
a time; ``full_grad`` then adds each gradient's teacher side in place.
``mcr_loss`` and ``mcr_forward`` are names for it, the latter keeping only
the loss and the cell count.  A naive materialized oracle, written per
teacher and student, is the specification, and a memory probe measures both
paths under the instrumented allocator.

Normalization: per-utterance sums are divided by the count of valid (t, u)
cells, then averaged over the batch.  Cell iteration order is fixed
(t-major, then u, then vocabulary tiles), so results are deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .corpus import _check_number_fields
from .errors import ModeShapeMismatchError, NonFiniteInputError
from .memtrack import MemoryMeter, scratch_empty
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
        _check_number_fields(self)
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.variant != "full_joint":
            raise ValueError("variant must be 'full_joint'")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and nonnegative")
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


def _gather(buf: np.ndarray, zs, runs, k: int, cols: slice) -> np.ndarray:
    """A tile of a block's ``k`` cells, copied from the frame runs of both
    lattices ``zs`` into one contiguous [2, k, width] view of ``buf``
    (offline, streaming)."""
    pair = buf[:2 * k * (cols.stop - cols.start)].reshape(2, k, -1)
    for z, dst in zip(zs, pair):
        for rows, shape, frames, labels in runs:
            np.copyto(dst[rows].reshape(shape), z[frames, labels, cols])
    return pair


def _kl_term(a: float, b: float, p, q, d) -> float:
    """One tile's share of ``a·KL(p‖q) + b·KL(q‖p)``."""
    return a * float(np.vdot(p, d)) - b * float(np.vdot(q, d))


def mcr_backward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> MCRResult:
    """Loss and gradients of the batch-reduced loss, one block of cells at a
    time.

    A block is up to ``_CELL_BLOCK`` consecutive valid cells of one
    utterance, t-major, then u; it may start mid-frame.  Per block, one pass
    over the vocabulary tiles gives both modes' logsumexps, with running-max
    rescaling; with ``full_grad`` a second pass sums the per-cell KLs and
    takes the block's share of the loss; a last pass gives p, q and d, the
    share of the loss (without ``full_grad``) and both gradients.

    Scratch is three blocks the meter counts, each sized by one block of
    cells: ``[p | q]`` (``2·blk·tw``), the block's logsumexps (``2·blk``;
    ``4·blk`` with ``full_grad``, for the KL columns), and d.  By default d's
    block holds pass 1's two running sums, then d, then ``x = q − p`` in d's
    place, so it is ``max(blk·tw, 2·blk)`` long.  With ``full_grad`` it is
    ``2·blk·tw``: x goes in its spare half before the teacher sides, scaled,
    overwrite p and q.  Both forms then share one loop: each frame run of x
    is multiplied by its scale straight into each gradient's strided view,
    and with ``full_grad`` its teacher side is added there in place.  No
    ufunc's output overlaps an input other than element for element in
    place, so numpy makes no hidden overlap copy the meter would miss; the
    gradients are fresh arrays that no input shares.
    """
    _validate_pair(z_off, z_str)
    a, b = KL_WEIGHTS[cfg.direction]
    B, V = z_off.batch_size, z_off.z.shape[-1]
    tw = min(cfg.tile, V)
    tiles = [slice(v0, min(v0 + tw, V)) for v0 in range(0, V, tw)]
    blk = min(_CELL_BLOCK, max(1, int((z_off.t_len * (z_off.u_len + 1)).max())))
    # [p | q], viewed as one [2, cells, width] block; then d, with full_grad
    # followed by a spare x of d's shape, else also holding pass 1's two sums
    bpq = scratch_empty((2 * blk * tw,), z_off.z.dtype)
    bd = scratch_empty((2 * blk * tw if cfg.full_grad else max(blk * tw, 2 * blk),),
                       z_off.z.dtype)
    # a block's logsumexps, then with full_grad its KL(p‖q) and KL sums
    col = scratch_empty(((4 if cfg.full_grad else 2) * blk,), z_off.z.dtype)
    grad_off = np.zeros_like(z_off.z)
    grad_str = np.zeros_like(z_str.z)
    total = 0.0
    cells = 0
    for i in range(B):
        zs, g_off3, g_str3 = (z_off.z[i], z_str.z[i]), grad_off[i], grad_str[i]
        u1 = int(z_off.u_len[i]) + 1
        n = int(z_off.t_len[i]) * u1
        w = 1.0 / (n * B)
        ws, wo = a * w, -b * w          # scales of q − p in g_str and g_off
        sides = ((g_str3, ws), (g_off3, wo))   # each gradient and its scale of x
        if not cfg.full_grad:   # the teacher is a constant: a side of weight 0 stays 0
            sides = tuple(side for side, on in zip(sides, (a, b)) if on)
        acc = 0.0
        for c0 in range(0, n, _CELL_BLOCK):
            k = min(_CELL_BLOCK, n - c0)
            runs = _frame_runs(c0, c0 + k, u1)
            lse = col[:2 * k].reshape(2, k, 1)
            s = bd[:2 * k].reshape(2, k, 1)
            lse.fill(-np.inf)
            s.fill(0.0)
            for cols in tiles:
                pair = _gather(bpq, zs, runs, k, cols)
                if not np.isfinite(pair).all():
                    raise NonFiniteInputError("joint logits contain non-finite values")
                new_max = np.maximum(lse, pair.max(axis=2, keepdims=True))
                np.subtract(pair, new_max, out=pair)
                np.exp(pair, out=pair)
                s *= np.exp(lse - new_max)
                s += pair.sum(axis=2, keepdims=True)
                lse[:] = new_max
            np.log(s, out=s)
            lse += s

            def sweep():
                """(cols, p, q, d) per tile: p and q are the offline and
                streaming softmaxes and d = log p − log q, all three in
                scratch the caller may overwrite."""
                for cols in tiles:
                    pair = _gather(bpq, zs, runs, k, cols)
                    np.subtract(pair, lse, out=pair)
                    p, q = pair
                    d = bd[:p.size].reshape(p.shape)
                    np.subtract(p, q, out=d)
                    np.exp(pair, out=pair)
                    yield cols, p, q, d

            if cfg.full_grad:
                kl_pq, kl_sum = col[2 * k:4 * k].reshape(2, k, 1)
                kl_pq.fill(0.0)
                kl_sum.fill(0.0)
                for _cols, p, q, d in sweep():
                    acc += _kl_term(a, b, p, q, d)
                    np.multiply(p, d, out=p)
                    np.multiply(q, d, out=q)
                    kl_pq += p.sum(axis=1, keepdims=True)
                    kl_sum -= q.sum(axis=1, keepdims=True)
                kl_sum += kl_pq                 # KL(p‖q) + KL(q‖p)
            for cols, p, q, d in sweep():
                if cfg.full_grad:
                    x = bd[d.size:2 * d.size].reshape(d.shape)
                    np.subtract(q, p, out=x)
                    np.subtract(d, kl_pq, out=d)
                    np.multiply(p, d, out=p)    # p·(d − KL(p‖q))
                    np.add(d, kl_sum, out=d)
                    np.multiply(q, d, out=q)    # q·(d + KL(q‖p))
                    np.multiply(q, wo, out=q)   # the teacher sides, scaled
                    np.multiply(p, ws, out=p)
                    teachers = ((g_str3, q), (g_off3, p))
                else:
                    acc += _kl_term(a, b, p, q, d)
                    x, teachers = d, ()
                    np.subtract(q, p, out=x)    # x = q − p, in d's place
                for rows, shape, frames, labels in runs:
                    xr = x[rows].reshape(shape)
                    for g3, scale in sides:
                        np.multiply(xr, scale, out=g3[frames, labels, cols])
                    for g3, t in teachers:
                        g3[frames, labels, cols] += t[rows].reshape(shape)
        total += acc / n
        cells += n
    return MCRResult(total / B, grad_off, grad_str, cells)


def mcr_loss(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> MCRResult:
    """Tiled full-joint consistency loss with gradients for both modes."""
    return mcr_backward(z_off, z_str, cfg)


def mcr_forward(z_off: JointLogits, z_str: JointLogits, cfg: MCRConfig) -> tuple[float, int]:
    """Batch-reduced consistency loss and valid cell count: ``mcr_backward``'s,
    its gradients dropped.  perfbench/spans.py patches this name."""
    res = mcr_backward(z_off, z_str, cfg)
    return res.loss, res.cells


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
    fused path leaves behind.  B, T or V below 1, or U below 0, raises
    ``ValueError`` before any allocation.
    """
    B, T, U, V = shape
    if min(B, T, V) < 1 or U < 0:
        raise ValueError(f"probe shape (B, T, U, V) = {tuple(shape)} needs B, T, V >= 1 "
                         "and U >= 0")
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
