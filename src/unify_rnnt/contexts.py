"""Context restriction machinery for streaming encoders.

Everything here is a pure function of its arguments: chunked attention masks,
training-time context sampling, the depthwise convolution's per-row read
horizon, and the worst-case latency arithmetic.  Frame counts are
post-subsampling encoder frames throughout.

The mask and the horizon of a buffer that starts at global frame ``offset``
depend on the offset only through ``offset % chunk``: the chunk grid repeats
every ``chunk`` frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyContextSetError

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


def plan_conv_chunks(T: int, spec: ContextSpec, right_mode: str = "real",
                     offset: int = 0) -> np.ndarray | None:
    """Read horizon of a chunked depthwise convolution over ``T`` local frames.

    Row ``i`` of the convolution reads local frames ``[i - h, i + h]`` that
    lie below its horizon and zeros elsewhere.  With ``right_mode="real"`` the
    horizon is the buffer end for every row, returned as ``None``: the
    whole-sequence convolution.  With ``"zero"`` it is the row's chunk end on
    the global grid (honoring ``offset``), as an int array ``[T]``, so the
    right halo past the chunk boundary reads zeros.
    """
    if right_mode not in RIGHT_MODES:
        raise ValueError(f"right_mode must be one of {RIGHT_MODES}")
    if T < 1:
        raise ValueError("plan needs T >= 1")
    if right_mode == "real":
        return None
    C = spec.chunk
    chunk_end = ((offset + np.arange(T)) // C + 1) * C - offset
    return np.minimum(chunk_end, T)


def latency_of(spec: ContextSpec, frame_ms: float) -> float:
    """Worst-case theoretical latency (chunk + right context) in seconds."""
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    return (spec.chunk + spec.right) * frame_ms / 1000.0
