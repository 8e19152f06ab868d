"""Transducer lattice loss.

Log-space forward/backward recursions over the [T, U+1] lattice with an exact
analytic gradient with respect to the raw joint logits (occupancy-weighted
softmax minus transition indicators), plus a brute-force alignment
enumeration oracle for small lattices.

Alpha and beta come from one scan (the recursion of Graves 2012, evaluated
along anti-diagonals, whose cells are independent): beta is the alpha
recursion on the lattice flipped along both axes, and both lattices advance
together, one diagonal per vector step.  Each cell takes the same two
``logaddexp`` operands in the same order as a cell-by-cell loop, so the
values are bit-identical to it.  The scan's skewed storage is addressed
through flat indices built once per lattice shape ``(T, U)`` and kept in a
bounded cache, so a call pays only for its fills, copies and diagonals.

Conventions: blank id is fixed to 0, target ids live in [1, V).  Losses are
per utterance; batch reduction belongs to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BlankInTargetError, ImpossibleLatticeError, OracleTooLargeError

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

    @classmethod
    def from_single(cls, z: np.ndarray) -> "JointLogits":
        """One whole [T, U+1, V] lattice as a batch of one."""
        z = np.asarray(z)
        if z.ndim != 3:
            raise ValueError("from_single expects [T, U+1, V]")
        T, U1, _ = z.shape
        return cls(z[None], [T], [U1 - 1])


def _validate_targets(logits: JointLogits, targets) -> list[np.ndarray]:
    B = logits.batch_size
    V = logits.z.shape[3]
    if len(targets) != B:
        raise ValueError(f"expected {B} target sequences, got {len(targets)}")
    out = []
    for b, y in enumerate(targets):
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        if y.size != logits.u_len[b]:
            raise ValueError(f"targets[{b}] length {y.size} != u_len {logits.u_len[b]}")
        if (y == 0).any():
            raise BlankInTargetError(f"targets[{b}] contains the blank id")
        if y.size and (y.min() < 1 or y.max() >= V):
            raise ValueError(f"targets[{b}] has ids outside [1, {V})")
        out.append(y)
    return out


def _log_probs(z: np.ndarray, y: np.ndarray):
    """Per-cell blank and next-target log-probabilities from raw logits."""
    m = z.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    logpb = z[:, :, 0] - lse
    U = y.size
    if U:
        logpy = z[:, np.arange(U), y] - lse[:, :U]
    else:
        logpy = np.zeros((z.shape[0], 0), dtype=z.dtype)
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


def _alpha_beta(logpb: np.ndarray, logpy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward log-variables of one [T, U+1] lattice.

    ``alpha[t, u]`` sums the paths from (0, 0) to (t, u); ``beta[t, u]`` the
    paths from (t, u) through the final blank.  Beta is the alpha recursion
    on the lattice flipped along both axes, started from the final blank, so
    one scan computes both.
    """
    T = logpb.shape[0]
    wt = logpb[:T - 1]
    alpha, beta = _lattice_scan(np.stack([wt, wt[::-1, ::-1]]),
                                np.stack([logpy, logpy[::-1, ::-1]]),
                                [0.0, logpb[T - 1, -1]])
    return alpha, beta[::-1, ::-1]


def rnnt_forward_single(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and logits gradient for one unpadded [T, U+1, V] lattice; a
    blank target raises ``BlankInTargetError`` (the loss would be corrupt)."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    if (y == 0).any():
        raise BlankInTargetError("targets contain the blank id")
    T, U1, V = z.shape
    U = y.size
    if U1 != U + 1:
        raise ValueError(f"lattice has {U1} label rows but {U} targets")
    if T == 0:
        if U > 0:
            raise ImpossibleLatticeError("cannot emit targets with zero frames")
        return 0.0, np.zeros_like(z)

    lse, logpb, logpy = _log_probs(z, y)
    alpha, beta = _alpha_beta(logpb, logpy)
    log_total = alpha[T - 1, U] + logpb[T - 1, U]
    loss = -float(log_total)

    with np.errstate(invalid="ignore"):
        occ = np.exp(alpha + beta - log_total)
        # blank continuation: beta of (t+1, u); final frame completes only at u == U
        beta_next_t = np.full((T, U + 1), NEG_INF)
        if T > 1:
            beta_next_t[:T - 1] = beta[1:]
        beta_next_t[T - 1, U] = 0.0
        occ_blank = np.exp(alpha + logpb + beta_next_t - log_total)
        grad = occ[:, :, None] * np.exp(z - lse[:, :, None])
        grad[:, :, 0] -= occ_blank
        if U:
            occ_label = np.exp(alpha[:, :U] + logpy + beta[:, 1:] - log_total)
            grad[:, np.arange(U), y] -= occ_label
    return loss, grad


def rnnt_loss(logits: JointLogits, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance negative log-likelihood and exact logits gradient.

    Cells outside each utterance's valid (t_len, u_len) region contribute
    zero loss and zero gradient.
    """
    ys = _validate_targets(logits, targets)
    B = logits.batch_size
    losses = np.zeros(B, dtype=np.float64)
    grad = np.zeros_like(logits.z)
    for b in range(B):
        T = int(logits.t_len[b])
        U = int(logits.u_len[b])
        loss_b, grad_b = rnnt_forward_single(logits.z[b, :T, :U + 1], ys[b])
        losses[b] = loss_b
        grad[b, :T, :U + 1] = grad_b.astype(grad.dtype, copy=False)
    return losses, grad


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
