"""Context restriction machinery for streaming encoders.

Everything here is a pure function of its arguments: chunked attention masks,
training-time context sampling, chunked depthwise-convolution plans, and the
worst-case latency arithmetic.  Frame counts are post-subsampling encoder
frames throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyContextSetError, EvenKernelError

RIGHT_MODES = ("real", "zero")


@dataclass(frozen=True)
class ContextSpec:
    """(left, chunk, right) context sizes in encoder frames."""

    left: int
    chunk: int
    right: int

    def __post_init__(self):
        if self.left < 0 or self.chunk < 1 or self.right < 0:
            raise ValueError(f"invalid context spec {self!r}: need left>=0, chunk>=1, right>=0")


@dataclass(frozen=True)
class ContextSets:
    """Candidate values for each context dimension, sampled at train time."""

    left_set: tuple[int, ...]
    chunk_set: tuple[int, ...]
    right_set: tuple[int, ...]

    def __post_init__(self):
        for name, values in (("left_set", self.left_set), ("chunk_set", self.chunk_set),
                             ("right_set", self.right_set)):
            if len(values) == 0:
                raise EmptyContextSetError(f"{name} is empty")
        for left in self.left_set:
            if left < 0:
                raise ValueError(f"negative left context {left}")
        for chunk in self.chunk_set:
            if chunk < 1:
                raise ValueError(f"chunk size {chunk} < 1")
        for right in self.right_set:
            if right < 0:
                raise ValueError(f"negative right context {right}")

    @classmethod
    def from_nested(cls, nested: Sequence[Sequence[int]]) -> "ContextSets":
        """Build from the ``[[L...], [C...], [R...]]`` config notation."""
        if len(nested) != 3:
            raise ValueError("expected three candidate lists: left, chunk, right")
        return cls(tuple(int(v) for v in nested[0]),
                   tuple(int(v) for v in nested[1]),
                   tuple(int(v) for v in nested[2]))


@dataclass(frozen=True)
class ConvWindow:
    """One chunk window of a chunked convolution plan (local frame coords)."""

    window_start: int
    window_end: int
    keep_start: int
    keep_end: int
    right_mode: str


@dataclass(frozen=True)
class ConvChunkPlan:
    """Windows whose keep ranges tile [0, T) exactly, with halo arithmetic."""

    windows: tuple[ConvWindow, ...]
    kernel_size: int
    length: int

    @property
    def halo(self) -> int:
        return (self.kernel_size - 1) // 2

    def realized(self) -> list[tuple[int, int, int, int, int, int]]:
        """Expand each window into (win_lo, win_hi, keep_lo, keep_hi, real_lo, real_hi).

        Real frames exist on [real_lo, real_hi); the rest of the window is
        zero filled.  ``right_mode="zero"`` truncates real content at the
        chunk boundary instead of the buffer end.
        """
        out = []
        for w in self.windows:
            real_lo = max(0, w.window_start)
            limit = self.length if w.right_mode == "real" else w.keep_end
            real_hi = min(w.window_end, limit)
            out.append((w.window_start, w.window_end, w.keep_start, w.keep_end,
                        real_lo, max(real_lo, real_hi)))
        return out


def build_attention_mask(T: int, spec: ContextSpec, offset: int = 0) -> np.ndarray:
    """Boolean [T, T] mask for chunk-limited attention.

    Frame ``i`` (global position ``offset + i``) belongs to the chunk starting
    at ``s = floor(g / C) * C`` and may attend global frames
    ``[max(0, s - L), s + C + R)`` clipped to the local buffer.  Left context
    is measured from the chunk start, so all frames of a chunk share one
    window.  ``offset`` keeps the chunk grid globally aligned when masking a
    re-encoded decode window.
    """
    if T < 1:
        raise ValueError("mask needs T >= 1")
    mask = np.zeros((T, T), dtype=bool)
    C = spec.chunk
    for i in range(T):
        g = offset + i
        s = (g // C) * C
        lo_local = max(0, max(0, s - spec.left) - offset)
        hi_local = min(T, s + C + spec.right - offset)
        mask[i, lo_local:hi_local] = True
    return mask


def sample_context(sets: ContextSets, rng: np.random.Generator) -> ContextSpec:
    """Independent uniform draw from each candidate set (left, chunk, right order)."""
    left = int(sets.left_set[rng.integers(len(sets.left_set))])
    chunk = int(sets.chunk_set[rng.integers(len(sets.chunk_set))])
    right = int(sets.right_set[rng.integers(len(sets.right_set))])
    return ContextSpec(left, chunk, right)


def plan_conv_chunks(T: int, spec: ContextSpec, k: int, right_mode: str = "real",
                     offset: int = 0) -> ConvChunkPlan:
    """Chunked depthwise-convolution plan: windows with a (k-1)/2 halo.

    Chunks of size C tile the sequence on the global grid (honoring
    ``offset``); each window extends the keep range by the halo on both
    sides.  With ``right_mode="real"`` the right halo reads real frames up to
    the buffer end; with ``"zero"`` the halo past the chunk boundary is
    zeroed.
    """
    if k % 2 == 0:
        raise EvenKernelError(f"kernel length {k} is even")
    if right_mode not in RIGHT_MODES:
        raise ValueError(f"right_mode must be one of {RIGHT_MODES}")
    if T < 1:
        raise ValueError("plan needs T >= 1")
    halo = (k - 1) // 2
    C = spec.chunk
    windows = []
    s = (offset // C) * C
    end = offset + T
    while s < end:
        keep_lo = max(s, offset) - offset
        keep_hi = min(s + C, end) - offset
        if keep_hi > keep_lo:
            windows.append(ConvWindow(keep_lo - halo, keep_hi + halo,
                                      keep_lo, keep_hi, right_mode))
        s += C
    return ConvChunkPlan(tuple(windows), k, T)


def latency_of(spec: ContextSpec, frame_ms: float) -> float:
    """Worst-case theoretical latency (chunk + right context) in seconds."""
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    return (spec.chunk + spec.right) * frame_ms / 1000.0
