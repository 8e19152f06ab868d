"""Transducer lattice loss.

Log-space forward/backward recursions over the [T, U+1] lattice with an exact
analytic gradient with respect to the raw joint logits (occupancy-weighted
softmax minus transition indicators), plus a brute-force alignment
enumeration oracle for small lattices.

Every call takes a padded batch [B, T, U+1, V] with its lengths (a single
lattice is the batch of one) and runs it as one: one padded scan for all of
its lattices, alpha and beta together (the recursion of Graves 2012,
evaluated along anti-diagonals, whose cells are independent).  Beta is the
alpha recursion on each lattice flipped within its own ``(t_len, u_len)``,
so the scan advances 2B lattices of the padded shape, one diagonal per
vector step.  Each cell takes the same two ``logaddexp`` operands in the
same order as a cell-by-cell loop over its lattice alone, so the values are
bit-identical to it, and the padding is never read.  The V-wide work
(logsumexp, softmax, gradient) runs on the lattices' cells only.  The
scan's skewed storage is addressed through flat indices built once per
padded shape ``(T, U)`` and kept in a bounded cache, so a call pays only
for its fills, copies and diagonals.

Conventions: blank id is fixed to 0, target ids live in [1, V).  Losses are
per utterance; batch reduction belongs to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BlankInTargetError, OracleTooLargeError

NEG_INF = -np.inf

ORACLE_MAX_T = 6
ORACLE_MAX_U = 4


@dataclass
class JointLogits:
    """Batched joint lattice ``z[B, T_max, U_max+1, V]`` with valid lengths."""

    z: np.ndarray
    t_len: np.ndarray
    u_len: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z)
        if self.z.ndim != 4:
            raise ValueError(f"z must be 4-D [B, T, U+1, V], got shape {self.z.shape}")
        B, T, U1, V = self.z.shape
        if T < 1 or U1 < 1 or V < 1:
            raise ValueError(f"degenerate lattice shape {self.z.shape}")
        self.t_len = np.asarray(self.t_len, dtype=np.int64).reshape(B)
        self.u_len = np.asarray(self.u_len, dtype=np.int64).reshape(B)
        if (self.t_len < 1).any() or (self.t_len > T).any():
            raise ValueError("t_len entries must be in [1, T_max]")
        if (self.u_len < 0).any() or (self.u_len > U1 - 1).any():
            raise ValueError("u_len entries must be in [0, U_max]")

    @property
    def batch_size(self) -> int:
        return self.z.shape[0]


def _validate_targets(logits: JointLogits, targets) -> list[np.ndarray]:
    B = logits.batch_size
    V = logits.z.shape[3]
    if len(targets) != B:
        raise ValueError(f"expected {B} target sequences, got {len(targets)}")
    out = [np.asarray(y, dtype=np.int64).reshape(-1) for y in targets]
    for b, y in enumerate(out):
        if y.size != logits.u_len[b]:
            raise ValueError(f"targets[{b}] length {y.size} != u_len {logits.u_len[b]}")
    flat = np.concatenate(out)
    if flat.size and (flat.min() < 1 or flat.max() >= V):
        # the first offending sequence names the error
        for b, y in enumerate(out):
            if (y == 0).any():
                raise BlankInTargetError(f"targets[{b}] contains the blank id")
            if y.size and (y.min() < 1 or y.max() >= V):
                raise ValueError(f"targets[{b}] has ids outside [1, {V})")
    return out


def _logsumexp(z: np.ndarray) -> np.ndarray:
    """Over the last axis, shifted by its maximum."""
    m = z.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))


def _log_probs(z: np.ndarray, y: np.ndarray):
    """Per-cell blank and next-target log-probabilities of one [T, U+1, V] lattice."""
    lse = _logsumexp(z)
    logpb = z[:, :, 0] - lse
    U = y.size
    logpy = z[:, np.arange(U), y] - lse[:, :U]
    return lse, logpb, logpy


SKEW_CACHE_SIZE = 256


@lru_cache(maxsize=SKEW_CACHE_SIZE)
def _skew_layout(T: int, U: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into the skewed ``[T+U, U+2]`` plane of ``_lattice_scan``.

    ``(t + u)·(U+2) + u + 1`` over the cells of ``wt`` ([T-1, U+1]), of
    ``wu`` ([T, U]) and of the lattice ([T, U+1]), each t-major.  Built once
    per lattice shape and read-only; the cache keeps the most recent
    ``SKEW_CACHE_SIZE`` shapes.
    """
    out = []
    for rows, cols in ((T - 1, U + 1), (T, U), (T, U + 1)):
        t, u = np.divmod(np.arange(rows * cols), cols)
        idx = (t + u) * (U + 2) + u + 1
        idx.flags.writeable = False
        out.append(idx)
    return tuple(out)


def _lattice_scan(wt: np.ndarray, wu: np.ndarray, base) -> np.ndarray:
    """``X[k, t, u] = logaddexp(X[k, t-1, u] + wt[k, t-1, u], X[k, t, u-1] + wu[k, t, u-1])``.

    Scans ``K`` lattices at once: ``wt`` is [K, T-1, U+1], ``wu`` is
    [K, T, U] and ``X[k, 0, 0] = base[k]``.  An absent predecessor is
    ``-inf``, for which ``logaddexp`` returns the other term exactly.  The
    cells of one anti-diagonal ``t + u = n`` depend only on diagonal
    ``n - 1``, so each diagonal is one vector step.  Storage is skewed,
    ``S[n, 1 + u, k] = X[k, n - u, u]``, and column 0 is the absent label
    column ``u = -1``; the flat skew indices of each ``(T, U)`` come from
    ``_skew_layout``.
    """
    K, T, U = wu.shape
    N = T + U
    idx_top, idx_left, idx_out = _skew_layout(T, U)
    S = np.full((N, U + 2, K), NEG_INF)
    S[0, 1] = base
    top, left = np.full((2, N, U + 2, K), NEG_INF)
    top.reshape(-1, K)[idx_top] = wt.reshape(K, -1).T
    left.reshape(-1, K)[idx_left] = wu.reshape(K, -1).T
    # diagonal n from diagonal n - 1: rows of views, not per-step indexing
    for s_top, w_top, s_left, w_left, out in zip(S[:-1, 1:], top[:-1, 1:], S[:-1, :-1],
                                                 left[:-1, :-1], S[1:, 1:]):
        np.logaddexp(s_top + w_top, s_left + w_left, out=out)
    return S.reshape(-1, K)[idx_out].T.reshape(K, T, U + 1)


def _alpha_beta(logpb: np.ndarray, logpy: np.ndarray, t_len,
                u_len) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward log-variables of a padded batch of lattices.

    ``alpha[b, t, u]`` sums the paths from (0, 0) to (t, u); ``beta[b, t, u]``
    the paths from (t, u) through the final blank.  ``logpb`` is [B, T, U+1]
    and lattice b ends at cell ``(t_len[b] - 1, u_len[b])``; beta is
    ``-inf`` past that end, alpha holds whatever the padding gives.  Beta is
    the alpha recursion on each lattice flipped within its own lengths,
    started from its final blank, so one scan over 2B lattices computes both.
    """
    B, T, U1 = logpb.shape
    b = np.arange(B)
    t_last = np.asarray(t_len) - 1
    u_last = np.asarray(u_len)
    # the mirror of cell (t, u) within its lattice; a cell past the lattice
    # has a negative mirror, which wraps onto padding, and no cell of the
    # lattice reads what it gets
    tf = t_last[:, None, None] - np.arange(T)[:, None]
    uf = u_last[:, None, None] - np.arange(U1)
    bi = b[:, None, None]
    scan = _lattice_scan(np.concatenate([logpb[:, :T - 1], logpb[bi, tf[:, :T - 1] - 1, uf]]),
                         np.concatenate([logpy, logpy[bi, tf, uf[..., 1:]]]),
                         np.concatenate([np.zeros(B), logpb[b, t_last, u_last]]))
    beta = np.where((tf >= 0) & (uf >= 0), scan[B:][bi, tf, uf], NEG_INF)
    return scan[:B], beta


def rnnt_forward_single(z: np.ndarray, ys: list[np.ndarray],
                        lengths) -> tuple[np.ndarray, np.ndarray]:
    """Losses and logits gradient of a padded [B, T, U+1, V] batch, in one scan.

    ``lengths`` is ``(t_len, u_len)`` and ``ys`` the B target sequences, as
    :func:`rnnt_loss` checks them; a single lattice is the batch of one.
    Computed in float64 whatever ``z``'s dtype: the losses are float64, the
    gradient comes back in ``z``'s dtype, zero past each lattice.  The
    V-wide work (logsumexp, softmax, gradient) runs on the lattices' cells
    only, gathered into rows, and the padding, whatever it holds, is never
    read: the lattices' scan weights are ``-inf`` there.  Every cell gets
    the values its lattice alone gives it, bit for bit.
    """
    t_len, u_len = (np.asarray(n, dtype=np.int64) for n in lengths)
    B, T, U1, V = z.shape
    U = U1 - 1
    valid = ((np.arange(T)[:, None] < t_len[:, None, None])
             & (np.arange(U1) <= u_len[:, None, None]))
    cells = np.flatnonzero(valid)
    b_cell = cells // (T * U1)
    u_cell = cells % U1
    # the next target of each cell; the blank, unread, past the last
    y = np.zeros((B, U1), dtype=np.int64)
    for row, yb in zip(y, ys):
        row[:yb.size] = yb
    y_cell = y[b_cell, u_cell]
    zc = np.take(z.reshape(-1, V), cells, axis=0).astype(np.float64, copy=False)
    rows = np.arange(cells.size)
    lse = _logsumexp(zc)
    logpb, logpy = np.full((2, B, T, U1), NEG_INF)
    logpb.reshape(-1)[cells] = zc[:, 0] - lse
    logpy.reshape(-1)[cells] = zc[rows, y_cell] - lse
    logpy = logpy[..., :U]
    alpha, beta = _alpha_beta(logpb, logpy, t_len, u_len)
    b = np.arange(B)
    log_total = alpha[b, t_len - 1, u_len] + logpb[b, t_len - 1, u_len]
    lt = log_total[:, None, None]

    with np.errstate(invalid="ignore"):
        occ = np.exp(alpha + beta - lt)
        # blank continuation: beta of (t+1, u); the last frame completes only at u == U
        beta_next_t = np.full((B, T, U1), NEG_INF)
        beta_next_t[:, :T - 1] = beta[:, 1:]
        beta_next_t[b, t_len - 1, u_len] = 0.0
        occ_blank = np.exp(alpha + logpb + beta_next_t - lt)
        grad = occ.reshape(-1)[cells, None] * np.exp(zc - lse[:, None])
        grad[:, 0] -= occ_blank.reshape(-1)[cells]
        if U:
            occ_label = np.exp(alpha[..., :U] + logpy + beta[..., 1:] - lt)
            # cells that emit a target; cell (b, t, u) is row (b·T + t)·U + u of occ_label
            emits = u_cell < u_len[b_cell]
            at = cells[emits] // U1 * U + u_cell[emits]
            grad[rows[emits], y_cell[emits]] -= occ_label.reshape(-1)[at]
    out = np.zeros(z.shape, dtype=z.dtype)
    out.reshape(-1, V)[cells] = grad
    return -log_total, out


def rnnt_loss(logits: JointLogits, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance negative log-likelihood and exact logits gradient.

    Cells outside each utterance's valid (t_len, u_len) region contribute
    zero loss and zero gradient.  All lattices go through one padded scan.
    """
    ys = _validate_targets(logits, targets)
    # looked up by name at each call: perfbench wraps it here
    return rnnt_forward_single(logits.z, ys, (logits.t_len, logits.u_len))


def _enumerate_paths(logpb: np.ndarray, logpy: np.ndarray, T: int, U: int) -> list[float]:
    """Explicit log-probabilities of every monotonic blank/token interleaving."""
    paths: list[float] = []

    def rec(t: int, u: int, acc: float) -> None:
        if t == T - 1 and u == U:
            paths.append(acc + float(logpb[t, u]))
            return
        if u < U:
            rec(t, u + 1, acc + float(logpy[t, u]))
        if t < T - 1:
            rec(t + 1, u, acc + float(logpb[t, u]))

    rec(0, 0, 0.0)
    return paths


def rnnt_bruteforce_oracle(logits: JointLogits, targets) -> np.ndarray:
    """Loss by explicit alignment enumeration; small lattices only."""
    ys = _validate_targets(logits, targets)
    B = logits.batch_size
    losses = np.zeros(B, dtype=np.float64)
    for b in range(B):
        T = int(logits.t_len[b])
        U = int(logits.u_len[b])
        if T > ORACLE_MAX_T or U > ORACLE_MAX_U:
            raise OracleTooLargeError(
                f"lattice T={T}, U={U} beyond enumeration bound "
                f"T<={ORACLE_MAX_T}, U<={ORACLE_MAX_U}")
        z = np.asarray(logits.z[b, :T, :U + 1], dtype=np.float64)
        _, logpb, logpy = _log_probs(z, ys[b])
        paths = _enumerate_paths(logpb, logpy, T, U)
        arr = np.array(paths)
        m = arr.max()
        losses[b] = -(m + np.log(np.exp(arr - m).sum()))
    return losses
