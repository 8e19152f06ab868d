"""Byte accounting for auxiliary loss-path buffers.

A ``MemoryMeter`` installed as a context manager sees every buffer the loss
kernels allocate through :func:`scratch_empty`.  Frees are detected through
weakref finalizers, so ``peak`` reflects the true high-water mark of live
scratch bytes.  With no active meter :func:`scratch_empty` is plain
``np.empty``.

Inputs and gradient outputs are never routed through here; the meter measures
auxiliary storage only.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "meters", None)
    if stack is None:
        stack = []
        _tls.meters = stack
    return stack


def active_meter() -> "MemoryMeter | None":
    stack = _stack()
    return stack[-1] if stack else None


class MemoryMeter:
    """Tracks current and peak live bytes of registered scratch buffers."""

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def _on_alloc(self, nbytes: int) -> None:
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current

    def _on_free(self, nbytes: int) -> None:
        self.current -= nbytes

    def __enter__(self) -> "MemoryMeter":
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _stack().pop()
        assert popped is self, "meter context exited out of order"


def _register(arr: np.ndarray) -> np.ndarray:
    meter = active_meter()
    if meter is not None:
        nbytes = arr.nbytes
        meter._on_alloc(nbytes)
        weakref.finalize(arr, meter._on_free, nbytes)
    return arr


def scratch_empty(shape, dtype=np.float64) -> np.ndarray:
    return _register(np.empty(shape, dtype=dtype))
