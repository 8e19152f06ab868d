"""Context restriction machinery for streaming encoders.

Everything here is a pure function of its arguments: the streaming row
layout with its right-context copy rows, the chunked attention mask and the
convolution's tap table over that layout, training-time context sampling,
the worst-case latency arithmetic and the latency sweep grid.  Frame counts
are post-subsampling encoder frames throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyContextSetError

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
        for name, values, low in (("left_set", self.left_set, 0),
                                  ("chunk_set", self.chunk_set, 1),
                                  ("right_set", self.right_set, 0)):
            if len(values) == 0:
                raise EmptyContextSetError(f"{name} is empty")
            if min(values) < low:
                raise ValueError(f"{name} holds {min(values)} < {low}")

    @classmethod
    def from_nested(cls, nested: Sequence[Sequence[int]]) -> "ContextSets":
        """Build from the ``[[L...], [C...], [R...]]`` config notation."""
        if len(nested) != 3:
            raise ValueError("expected three candidate lists: left, chunk, right")
        return cls(tuple(int(v) for v in nested[0]),
                   tuple(int(v) for v in nested[1]),
                   tuple(int(v) for v in nested[2]))


def right_context_rows(T: int, spec: ContextSpec) -> tuple[np.ndarray, np.ndarray]:
    """Frame and owning chunk start of each row of the streaming layout.

    The layout has ``N = T + sum_s |[s+C, min(s+C+R, T))|`` rows: the ``T``
    main rows (row ``p`` is frame ``p``, owned by its chunk ``s = floor(p/C)*C``),
    then, chunk by chunk, one copy row per right-context frame of chunk ``s``,
    owned by ``s``.  A copy is the same input frame computed under its owner's
    context, so no output of chunk ``s`` reads a frame at or past ``s+C+R``.
    """
    if T < 1:
        raise ValueError("layout needs T >= 1")
    C, R = spec.chunk, spec.right
    main = np.arange(T)
    starts = np.arange(0, T, C)
    copies = starts[:, None] + C + np.arange(R)
    valid = copies < T
    frames = np.concatenate([main, copies[valid]])
    owner = np.concatenate([main // C * C, np.broadcast_to(starts[:, None], copies.shape)[valid]])
    return frames, owner


def build_attention_mask(T: int, spec: ContextSpec) -> np.ndarray:
    """Boolean [N, N] mask over the rows of :func:`right_context_rows`.

    A row owned by chunk ``s`` attends the main rows of frames
    ``[max(0, s - L), s + C)`` and the copy rows of chunk ``s``.  Left context
    is measured from the chunk start, so all rows of a chunk share one window.
    The offline spec ``(T, T, 0)`` gives one chunk, no copies and an all-true
    mask.
    """
    frames, owner = right_context_rows(T, spec)
    is_main = np.arange(frames.size) < T
    lo = np.maximum(0, owner - spec.left)[:, None]
    main_keys = is_main & (frames >= lo) & (frames < (owner + spec.chunk)[:, None])
    copy_keys = ~is_main & (owner == owner[:, None])
    return main_keys | copy_keys


def sample_context(sets: ContextSets, rng: np.random.Generator) -> ContextSpec:
    """Independent uniform draw from each candidate set (left, chunk, right order)."""
    left = int(sets.left_set[rng.integers(len(sets.left_set))])
    chunk = int(sets.chunk_set[rng.integers(len(sets.chunk_set))])
    right = int(sets.right_set[rng.integers(len(sets.right_set))])
    return ContextSpec(left, chunk, right)


def plan_conv_chunks(T: int, spec: ContextSpec, kernel_size: int) -> np.ndarray:
    """Tap table [k, N] of the chunk-bounded convolution over the streaming layout.

    Tap ``j`` of a row at frame ``p`` owned by chunk ``s`` reads frame
    ``f = p - h + j`` (``h = (k-1)/2``): the main row of ``f`` when
    ``0 <= f < s + C``, chunk ``s``'s copy of ``f`` when ``f`` lies in
    ``[s + C, min(s + C + R, T))``, and zero otherwise, written ``-1``.  This is
    dynamic chunk convolution: real frames up to the chunk's horizon, zeros
    past it.  The offline spec gives the whole-sequence convolution.
    """
    frames, owner = right_context_rows(T, spec)
    C, R = spec.chunk, spec.right
    h = (kernel_size - 1) // 2
    f = frames + np.arange(-h, h + 1)[:, None]
    end = owner + C
    taps = np.full(f.shape, -1)
    main = (f >= 0) & (f < np.minimum(end, T))
    copy = (f >= end) & (f < np.minimum(end + R, T))
    taps[main] = f[main]
    # copy rows are sorted by (owner, frame), so a search finds chunk s's copy of f
    taps[copy] = T + np.searchsorted(owner[T:] * T + frames[T:], (owner * T + f)[copy])
    return taps


def latency_of(spec: ContextSpec | None, frame_ms: float) -> float:
    """Worst-case theoretical latency (chunk + right context) in seconds;
    offline (``None``) waits for the whole utterance, so its latency is inf."""
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    if spec is None:
        return math.inf
    return (spec.chunk + spec.right) * frame_ms / 1000.0


def latency_splits(left: int, budgets: Sequence[int]) -> list[ContextSpec]:
    """The latency sweep grid: every split ``(C, R = budget - C)``, ``C >= 1``,
    of each budget in encoder frames, in budget order, then by chunk."""
    return [ContextSpec(left, chunk, budget - chunk)
            for budget in budgets for chunk in range(1, budget + 1)]
