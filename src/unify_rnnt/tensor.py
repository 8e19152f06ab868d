"""Dense tensors with reverse-mode automatic differentiation on a tape.

The scope is deliberately small: exactly the operations the toy transducer
model and its losses need, in 32- or 64-bit float.  A :class:`Tape` records
one op per call while active; ``Tape.backward`` replays the records in exact
reverse order and accumulates gradients additively into ``Tensor.grad``.

An op is a forward kernel plus ``backward(g)``, which adds its inputs'
gradients from the gradient ``g`` of its output.  ``Tape.record_output``
runs it only for an output that received a gradient: one that nothing read,
or that ``weighted_sum`` read with all-zero weights, keeps ``grad`` None and
costs no backward work.

A tape is single-threaded by contract: one graph, one thread.  Ops themselves
are pure functions of their inputs and may run concurrently on disjoint
tensors.

The encoder has two call shapes (see :mod:`model`): a stacked layout, the
only one a tape records, and a streaming chunk step, which calls the ops on
one or two rows, so what an op does per call, beyond its arithmetic, sets
the step's cost.  Each encoder op is therefore a forward kernel on plain
arrays plus its backward record; :class:`Kernels` holds the kernels under
the ops' names, and the encoder runs on them when no tape is recording, so
a forward-only pass pays no ``Tensor`` wrapping, tape lookup or gradient
bookkeeping and gives the tape ops' values bit for bit.  The layouts an op
reads are checked once, when they are built: an :class:`AttentionMask`
validates its rows and keeps its additive bias (none when all true), a
:class:`ConvTaps` keeps its largest index, and a call checks only that
their shapes fit.  A stacked layout's tap table is one table.  Attention
runs every mask as row groups, each group's heads written into its rows of
the output in one copy: an :class:`AttentionMask` is one group of every
row, and a stacked layout's :class:`SegmentedMask` is one group per
segment, so a training step records one op per layer, whatever the batch.
Ops wrap the arrays they make without copying them, and a tensor's first
gradient write stores a fresh array instead of adding into a zeroed one.

The depthwise convolution gathers the row each tap reads from a tap table
(zero where the table says so); its input gradient gathers, for each input
row, the taps that read it.  It keeps the accumulation order a loop over
taps would use: taps in tap order from zero, rows in ascending order, so
its results equal the loop's bit for bit.  The recurrent sequence loops
over tokens only for the state recursion; its forward and its state and
bias gradients keep the per-token loop's order bit for bit, while its
input and weight gradients are one matrix product each, which BLAS sums
in its own order.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyAttentionRowError, EvenKernelError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tape:
    """Ordered record of differentiable ops for one computation graph."""

    def __init__(self) -> None:
        self._records: list[tuple[str, Callable[[], None]]] = []

    def record(self, name: str, backward_fn: Callable[[], None]) -> None:
        self._records.append((name, backward_fn))

    def record_output(self, name: str, out: "Tensor",
                      backward: Callable[[np.ndarray], None]) -> None:
        """Record an op's ``backward``, run on replay as ``backward(out.grad)``
        only if ``out`` received a gradient."""
        def replay() -> None:
            g = out.grad
            if g is not None:
                backward(g)
        self.record(name, replay)

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "tape contexts exited out of order"

    def backward(self, out: "Tensor", seed=1.0) -> None:
        """Seed ``out``'s gradient, then replay the tape once in reverse.

        ``seed`` is a scalar or an array of ``out``'s shape.  Each record is
        dropped once it has run, so what it kept for its backward, and the
        gradient of a tensor that no record left to run reads, are freed as
        the replay goes: the peak holds the forward graph and the gradients
        in flight, not every gradient of the graph at once.  The tape is
        empty afterwards.
        """
        seed = np.asarray(seed, dtype=out.data.dtype)
        if seed.shape not in ((), out.data.shape):
            raise ValueError(f"seed shape {seed.shape} does not match output {out.data.shape}")
        out.accum_grad(seed)
        records = self._records
        while records:
            _name, fn = records.pop()
            fn()


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> Tape | None:
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


class Tensor:
    """Contiguous float array plus an additively accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accum_grad(self, g) -> None:
        if self.grad is None:
            # the first write stores a fresh array: ops pass one ``g`` to more
            # than one input (``add``), or a view of their own gradient.
            # Adding zero gives the values, dtype and broadcast shape a zeroed
            # array plus ``g`` would have, -0.0 turning +0.0 included.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _result(inputs: tuple, data: np.ndarray) -> tuple[Tensor, Tape | None]:
    """Wrap the array an op has just made, without ``Tensor``'s ``np.asarray``.

    ``data`` is kept as the op made it.  The ops are called on arrays of at
    least one axis, so it is an ndarray; a ufunc on 0-d inputs would leave a
    numpy scalar here.
    """
    if data.dtype not in _FLOAT_DTYPES:
        data = data.astype(np.float64)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = needs = any([t.requires_grad for t in inputs])
    tape = active_tape() if needs else None
    return out, tape


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape == b.shape:
        return a + b
    if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[1] and b.shape[0] < a.shape[0]:
        return a[:b.shape[0]] + b
    raise ValueError(f"add shapes incompatible: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add of two tensors of one shape.

    A 2-D ``b`` may also have fewer rows than ``a``: the sum then keeps
    ``b``'s rows, ``a[:n] + b``, a residual over the rows a layer kept.
    """
    out, tape = _result((a, b), _add(a.data, b.data))
    if tape is not None:
        def backward(g):
            if a.requires_grad:
                if g.shape == a.data.shape:
                    a.accum_grad(g)
                else:
                    ga = np.zeros_like(a.data)
                    ga[:g.shape[0]] = g
                    a.accum_grad(ga)
            if b.requires_grad:
                b.accum_grad(g)
        tape.record_output("add", out, backward)
    return out


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    out = x @ w
    if b is not None:
        out += b
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused ``x @ w (+ b)`` over rows ``x`` [..., n, d] on any leading axes.

    The bias is added in place into the product, so ``b`` has the product's
    dtype and broadcasts to its shape without enlarging it.  The weight and
    bias gradients sum over the rows of ``x`` with its leading axes flattened.
    """
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ValueError(f"linear expects rows [..., n, d] @ [d, m], got {x.shape} @ {w.shape}")
    if b is None:
        out, tape = _result((x, w), _linear(x.data, w.data))
    else:
        out, tape = _result((x, w, b), _linear(x.data, w.data, b.data))
    if tape is not None:
        def backward(g):
            if x.requires_grad:
                x.accum_grad(g @ w.data.T)
            rows = g.reshape(-1, g.shape[-1])
            if w.requires_grad:
                w.accum_grad(x.data.reshape(-1, x.shape[-1]).T @ rows)
            if b is not None and b.requires_grad:
                b.accum_grad(rows.sum(axis=0))
        tape.record_output("linear", out, backward)
    return out


# perfbench/spans.py patches this name; the joint's products are ``linear``
matmul = linear


def tanh(x: Tensor) -> Tensor:
    out, tape = _result((x,), np.tanh(x.data))
    if tape is not None:
        def backward(g):
            x.accum_grad(g * (1.0 - out.data * out.data))
        tape.record_output("tanh", out, backward)
    return out


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu(x: Tensor) -> Tensor:
    out, tape = _result((x,), _relu(x.data))
    if tape is not None:
        def backward(g):
            x.accum_grad(g * (x.data > 0.0))
        tape.record_output("relu", out, backward)
    return out


def _row_mean(a: np.ndarray) -> np.ndarray:
    # what ``a.mean(axis=1, keepdims=True)`` computes, without its wrapper
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def _layer_norm(x: np.ndarray, gain: np.ndarray,
                bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The output, then the normalized rows and inverse deviations the backward reads."""
    if x.ndim != 2:
        raise ValueError("layer_norm expects a 2-D input")
    mu = _row_mean(x)
    xc = x - mu
    var = _row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise layer normalization over the last axis of a 2-D input."""
    data, xhat, inv = _layer_norm(x.data, gain.data, bias.data)
    out, tape = _result((x, gain, bias), data)
    if tape is not None:
        def backward(g):
            dxhat = g * gain.data
            if x.requires_grad:
                m1 = _row_mean(dxhat)
                m2 = _row_mean(dxhat * xhat)
                x.accum_grad(inv * (dxhat - m1 - xhat * m2))
            if gain.requires_grad:
                gain.accum_grad((g * xhat).sum(axis=0))
            if bias.requires_grad:
                bias.accum_grad(g.sum(axis=0))
        tape.record_output("layer_norm", out, backward)
    return out


def embedding(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` by id: ``out[...] = table[ids[...]]``, for ids of any shape.

    Token embeddings are its first use; the batched training step also
    gathers encoder rows into a padded batch with it.  The backward adds each
    output row's gradient into the row it read.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"embedding ids out of range [0, {n})")
    out, tape = _result((table,), table.data[ids])
    if tape is not None:
        def backward(g):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)
        tape.record_output("embedding", out, backward)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out, tape = _result((x,), x.data.reshape(shape))
    if tape is not None:
        def backward(g):
            x.accum_grad(g.reshape(x.data.shape))
        tape.record_output("reshape", out, backward)
    return out


def outer_add(a: Tensor, b: Tensor) -> Tensor:
    """``out[i, j, :] = a[i, :] + b[j, :]`` for two 2-D inputs.

    With a batch axis, ``a`` is [N, T, d] and ``b`` is [N', U, d] with N a
    multiple of N': lattice ``n`` adds ``b[n % N']``, so several modes of a
    batch share one predictor output.  ``out`` is [N, T, U, d].
    """
    if a.data.ndim != b.data.ndim or a.data.ndim not in (2, 3) or a.shape[-1] != b.shape[-1] \
            or (a.data.ndim == 3 and a.shape[0] % b.shape[0]):
        raise ValueError(f"outer_add expects [T,d] and [U,d], or [N,T,d] and [N',U,d] with "
                         f"N' dividing N, got {a.shape}, {b.shape}")
    # a 2-D pair is one lattice: N = N' = 1
    m, u = (1, b.shape[0]) if b.data.ndim == 2 else b.shape[:2]
    T, d = a.shape[-2:]
    a5 = a.data.reshape(-1, m, T, 1, d)
    data = (a5 + b.data.reshape(1, m, 1, u, d)).reshape(a.shape[:-1] + (u, d))
    out, tape = _result((a, b), data)
    if tape is not None:
        def backward(g):
            g5 = g.reshape(a5.shape[:3] + (u, d))
            if a.requires_grad:
                a.accum_grad(g5.sum(axis=3).reshape(a.shape))
            if b.requires_grad:
                b.accum_grad(g5.sum(axis=(0, 2)).reshape(b.shape))
        tape.record_output("outer_add", out, backward)
    return out


def weighted_sum(pairs: Sequence[tuple[Tensor, float | np.ndarray]]) -> Tensor:
    """Scalar ``sum(w_i * t_i)``; zero weights are inert.

    A term is a scalar tensor with a float weight, or a tensor with an array
    of weights of its shape, which contributes their dot product.
    """
    if not pairs:
        raise ValueError("weighted_sum needs at least one term")
    dtype = np.result_type(*[t.data.dtype for t, _ in pairs])
    total = sum(float(np.dot(w, t.data)) if np.ndim(w) else w * t.item() for t, w in pairs)
    out, tape = _result(tuple(t for t, _ in pairs), np.asarray(total, dtype=dtype))
    if tape is not None:
        def backward(g):
            for t, w in pairs:
                if t.requires_grad and np.any(w != 0.0):
                    t.accum_grad(np.asarray(float(g) * w, dtype=t.data.dtype))
        tape.record_output("weighted_sum", out, backward)
    return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    # [rows, d] -> [heads, rows, dh]: each head's slice as a strided view, so
    # every head's product is the same BLAS call a per-head loop makes
    return a.reshape(a.shape[0], heads, a.shape[1] // heads).transpose(1, 0, 2)


class AttentionMask:
    """Boolean [n, m] attention mask, checked once, with its additive bias.

    ``mask[i, j] == True`` means query ``i`` may attend key ``j``.  Every row
    must keep at least one key.  Masked positions receive ``-inf`` before the
    row softmax, as a 0/-inf bias built on first use and kept; an all-true
    mask has no bias and :func:`masked_attention` adds nothing.  A layout
    builds its mask once and every call that uses it shares it.  A model
    calls it in one dtype; a call in another gets a fresh bias, not kept.
    """

    __slots__ = ("mask", "shape", "all_true", "_bias")

    def __init__(self, mask) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError("attention mask must be [queries, keys]")
        if not mask.any(axis=1).all():
            raise EmptyAttentionRowError("attention mask has an all-false row")
        self.mask = mask
        self.shape = mask.shape
        self.all_true = bool(mask.all())
        self._bias = None

    def bias(self, dtype) -> np.ndarray | None:
        """The 0/-inf bias in ``dtype``, or None for an all-true mask."""
        if self.all_true:
            return None
        bias = self._bias
        if bias is None or bias.dtype != dtype:
            dt = np.dtype(dtype).type
            fresh = np.where(self.mask, dt(0.0), dt(-np.inf))
            if bias is None:
                self._bias = fresh
            bias = fresh
        return bias


class SegmentedMask:
    """Attention over a stacked layout whose row groups attend only within themselves.

    ``parts`` holds, per group, its rows of the layout (an index array, in
    the group's own row order) and the group's :class:`AttentionMask` over
    those rows; the groups partition the layout's ``n`` rows.  Each group's
    scores are their own dense product, so a call costs the groups'
    products, never one [n, n] product.  A group's rows come out bit for bit
    as the group alone gives them.
    """

    __slots__ = ("parts", "shape")

    def __init__(self, parts: Sequence[tuple[np.ndarray, AttentionMask]], n: int) -> None:
        if sum(len(rows) for rows, _mask in parts) != n:
            raise ValueError(f"segment rows do not partition {n} rows")
        for rows, mask in parts:
            if mask.shape != (len(rows), len(rows)):
                raise ValueError(f"segment mask {mask.shape} does not fit {len(rows)} rows")
        self.parts = list(parts)
        self.shape = (n, n)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: AttentionMask, heads: int,
            inv_scale: float) -> tuple:
    """One mask's attention: the per-head output [heads, n, dh], then what the
    backward reads."""
    qh, kh, vh = _split_heads(q, heads), _split_heads(k, heads), _split_heads(v, heads)
    # masked scores get -inf by adding a 0/-inf bias: the same values as
    # selecting with the mask, at a fraction of the cost.  Without a bias the
    # scores keep a -0.0 that adding 0 would make +0.0; exp makes both 1.
    attn = qh @ kh.transpose(0, 2, 1)
    attn *= inv_scale
    bias = mask.bias(attn.dtype)
    if bias is not None:
        attn += bias
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)
    return attn @ vh, (attn, qh, kh, vh)


def _masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      mask: AttentionMask | SegmentedMask, heads: int) -> tuple:
    """The output, then what the backward reads: the score scale and, per
    row group, its rows and its attention weights and per-head ``q``, ``k``,
    ``v``.  An :class:`AttentionMask` is the one group of every row."""
    if k.shape != v.shape or q.ndim != 2 or k.ndim != 2 \
            or q.shape[1] != k.shape[1] or k.shape[0] < q.shape[0]:
        raise ValueError(f"need q [n, d] and k, v [m >= n, d], got {q.shape}, "
                         f"{k.shape}, {v.shape}")
    T, d = q.shape
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    if mask.shape != (T, k.shape[0]):
        raise ValueError(f"mask shape {mask.shape} != ({T}, {k.shape[0]})")
    inv_scale = 1.0 / math.sqrt(d // heads)
    groups = [(slice(None), mask)] if isinstance(mask, AttentionMask) else mask.parts
    out = np.empty((T, d), dtype=np.result_type(q, k, v))
    parts = []
    for rows, part in groups:
        oh, saved = _attend(q[rows], k[rows], v[rows], part, heads, inv_scale)
        # the group's heads go through a [rows, heads, dh] view: one copy
        out.reshape(T, heads, d // heads)[rows] = oh.transpose(1, 0, 2)
        parts.append((rows, saved))
    return out, inv_scale, parts


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: AttentionMask | SegmentedMask,
                     heads: int) -> Tensor:
    """Multi-head scaled dot-product attention under an [n, m] mask.

    ``q`` is [n, d]; ``k`` and ``v`` are [m, d] with ``m >= n`` (a streaming
    chunk step puts cached keys before its own).  The mask was checked when
    it was built; a call checks only that its shape fits.  Every mask runs
    as row groups, each group's attention on its own rows: an
    :class:`AttentionMask` is one group of all rows, and a
    :class:`SegmentedMask` is one group per segment (then ``m == n``).
    """
    data, inv_scale, parts = _masked_attention(q.data, k.data, v.data, mask, heads)
    out, tape = _result((q, k, v), data)
    if tape is not None:
        def backward(g):
            # each input's gradient is filled group by group, as the groups'
            # rows partition the input's rows, then accumulated once
            grads = [(t, np.empty(t.data.shape, t.data.dtype)) for t in (v, q, k)]
            for rows, (attn, qh, kh, vh) in parts:
                go = _split_heads(g[rows], heads)
                da = go @ vh.transpose(0, 2, 1)
                ds = attn * (da - (da * attn).sum(axis=2, keepdims=True))
                for (t, full), part in zip(grads, (attn.transpose(0, 2, 1) @ go,
                                                   (ds @ kh) * inv_scale,
                                                   (ds.transpose(0, 2, 1) @ qh) * inv_scale)):
                    if t.requires_grad:
                        full.reshape(len(full), *part.shape[::2])[rows] = part.transpose(1, 0, 2)
            for t, full in grads:
                if t.requires_grad:
                    t.accum_grad(full)
        tape.record_output("masked_attention", out, backward)
    return out


# ---------------------------------------------------------------------------
# depthwise convolution
# ---------------------------------------------------------------------------


def _check_kernel(kernel: np.ndarray) -> int:
    if kernel.ndim != 2:
        raise ValueError("kernel must be [k, d]")
    k = kernel.shape[0]
    if k % 2 == 0:
        raise EvenKernelError(f"kernel length {k} is even")
    return k


class ConvTaps:
    """Tap table of a gather convolution, as ``contexts.plan_conv_chunks`` gives it.

    ``index[j, i]`` is the input row that tap ``j`` of output row ``i`` reads,
    or -1 for zero; ``max_index`` is the largest entry, the last input row
    the table reads.  ``readers`` is the inverse map the input gradient sums
    over: ``readers[m, r]`` is the flat entry ``j * n + i`` of the m-th tap
    that reads input row ``r``, in flat order, or ``k * n`` (a zero entry)
    past the row's last reader.  It is built on the first backward and kept
    with the table.
    """

    __slots__ = ("index", "max_index", "_readers")

    def __init__(self, index) -> None:
        index = np.asarray(index)
        if index.ndim != 2:
            raise ValueError("tap table must be [k, rows]")
        self.index = index
        self.max_index = int(index.max(initial=-1))
        self._readers = None

    @classmethod
    def full_context(cls, n_in: int, k: int, first: int = 0) -> "ConvTaps":
        """Zero same-padding over ``n_in`` rows, for output rows ``first..n_in-1``:
        tap ``j`` of row ``i`` reads row ``i - (k-1)/2 + j`` where one exists."""
        index = np.arange(k)[:, None] - (k - 1) // 2 + np.arange(first, n_in)
        index[(index < 0) | (index >= n_in)] = -1
        return cls(index)

    def readers(self, n_in: int) -> np.ndarray:
        if self._readers is None or self._readers.shape[1] != n_in:
            flat = self.index.ravel()
            entries = np.flatnonzero(flat >= 0)
            entries = entries[np.argsort(flat[entries], kind="stable")]
            rows = flat[entries]
            fan_in = np.bincount(rows, minlength=n_in)
            rank = np.arange(rows.size) - np.repeat(np.cumsum(fan_in) - fan_in, fan_in)
            readers = np.full((int(fan_in.max(initial=0)), n_in), flat.size)
            readers[rank, rows] = entries
            self._readers = readers
        return self._readers


def _gather_taps(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    # [k, n, d]: the rows each tap reads, zero where the table says -1
    xz = np.concatenate([x, np.zeros((1, x.shape[1]), dtype=x.dtype)])
    return xz[index]


def _depthwise_conv1d_windows(x: np.ndarray, kernel: np.ndarray,
                              taps: ConvTaps) -> np.ndarray:
    k = _check_kernel(kernel)
    n_in, d = x.shape
    if kernel.shape[1] != d:
        raise ValueError(f"kernel channels {kernel.shape[1]} != input {d}")
    if taps.index.shape[0] != k or taps.max_index >= n_in:
        raise ValueError(f"tap table {taps.index.shape} does not fit a {k}-tap kernel "
                         f"over {n_in} rows")
    # einsum adds the products over a summed index one at a time, in index
    # order, into a zeroed output (the tests check this against a loop)
    return np.einsum("jic,jc->ic", _gather_taps(x, taps.index), kernel)


def depthwise_conv1d_windows(x: Tensor, kernel: Tensor, taps: ConvTaps) -> Tensor:
    """Per-channel 1-D convolution whose taps read the rows a tap table names.

    Output row ``i`` is ``sum_j kernel[j] * x[taps.index[j, i]]`` over the
    taps ``j = 0 .. k-1``, where index -1 reads zero.  The table may have
    fewer columns than ``x`` has rows: a streaming chunk step convolves its
    rows after a left halo of earlier ones.

    Each output row sums its taps in tap order, starting from zero; each
    input-gradient row sums the entries that read it in tap order, then row
    order; each kernel-gradient entry sums the rows in row order.  (This holds
    with more than one channel; for a single channel numpy may reorder the
    sums.)
    """
    out, tape = _result((x, kernel), _depthwise_conv1d_windows(x.data, kernel.data, taps))
    if tape is not None:
        def backward(g):
            index = taps.index
            k, d = kernel.data.shape
            if kernel.requires_grad:
                # gathered again rather than kept: a k-fold copy of x on the tape
                kernel.accum_grad(np.einsum("jic,ic->jc", _gather_taps(x.data, index), g))
            if x.requires_grad:
                # row j * n + i: what output row i passes back through tap j;
                # the last row is the zero entry.  Each input row sums its
                # readers in order: a sum over the outer axis adds slice by
                # slice.
                gk = np.zeros((index.size + 1, d), dtype=np.result_type(g, kernel.data))
                np.multiply(g, kernel.data[:, None, :], out=gk[:-1].reshape(k, -1, d))
                x.accum_grad(gk[taps.readers(x.data.shape[0])].sum(axis=0))
        tape.record_output("depthwise_conv1d", out, backward)
    return out


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Depthwise convolution with zero same-padding over the whole sequence."""
    k = _check_kernel(kernel.data)
    T = x.shape[0]
    if k > 2 * T + 1:
        raise ValueError(f"kernel length {k} exceeds 2*T+1 = {2 * T + 1}")
    return depthwise_conv1d_windows(x, kernel, ConvTaps.full_context(T, k))


# ---------------------------------------------------------------------------
# the encoder ops' forward kernels
# ---------------------------------------------------------------------------


class Kernels:
    """The forward kernels of the encoder's ops on plain arrays, by op name.

    Each tape op above is its kernel plus its backward record, so a kernel
    returns what the op's ``.data`` would hold, bit for bit, and checks its
    inputs as the op does.  ``model.TransducerModel.encode`` runs on these
    when no tape is recording.
    """

    add = staticmethod(_add)
    linear = staticmethod(_linear)
    relu = staticmethod(_relu)
    depthwise_conv1d_windows = staticmethod(_depthwise_conv1d_windows)

    @staticmethod
    def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
        return _layer_norm(x, gain, bias)[0]

    @staticmethod
    def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         mask: AttentionMask | SegmentedMask, heads: int) -> np.ndarray:
        return _masked_attention(q, k, v, mask, heads)[0]


# ---------------------------------------------------------------------------
# fused gated recurrent sequence
# ---------------------------------------------------------------------------


def gru_cell(xe: np.ndarray, h: np.ndarray,
             wz, uz, bz, wr, ur, br, wc, uc, bc) -> tuple[np.ndarray, ...]:
    """One gated recurrent step on plain arrays: ``(z, r, r * h, c, h_next)``.

    ``xe`` and ``h`` are one vector each or [B, ·] rows.  The single
    definition of the cell: :func:`gru_sequence` and the decoder's one-token
    step both evaluate it, so a single sequence's states agree bit for bit
    (on rows, numpy runs the products on its matrix kernels, which round
    differently).
    """
    z = 0.5 * (np.tanh(0.5 * (xe @ wz + h @ uz + bz)) + 1.0)
    r = 0.5 * (np.tanh(0.5 * (xe @ wr + h @ ur + br)) + 1.0)
    rh = r * h
    c = np.tanh(xe @ wc + rh @ uc + bc)
    return z, r, rh, c, (1.0 - z) * h + z * c


def gru_sequence(emb: Tensor, h0: Tensor,
                 wz: Tensor, uz: Tensor, bz: Tensor,
                 wr: Tensor, ur: Tensor, br: Tensor,
                 wc: Tensor, uc: Tensor, bc: Tensor) -> Tensor:
    """Unrolled single-layer gated recurrent cell.

    Consumes ``emb`` of shape [U, E] starting from state ``h0`` of shape [P]
    and returns the [U+1, P] stack of states h_0..h_U.  With a batch axis,
    ``emb`` is [B, U, E] and the result [B, U+1, P]: the B sequences advance
    together, one token of each per cell call on [B, E] rows.  Backward is
    fused backpropagation through time over the saved gate activations.
    """
    # token-major working arrays [U(+1), *batch, width]; without a batch axis
    # these are the inputs and outputs themselves
    x = np.moveaxis(emb.data, -2, 0)
    U, lead, P = x.shape[0], x.shape[1:-1], h0.data.shape[0]
    hs = np.empty((U + 1, *lead, P), dtype=h0.data.dtype)
    hs[0] = h0.data
    zs = np.empty((U, *lead, P), dtype=h0.data.dtype)
    rs = np.empty_like(zs)
    cs = np.empty_like(zs)
    rhs = np.empty_like(zs)
    weights = [p.data for p in (wz, uz, bz, wr, ur, br, wc, uc, bc)]
    for i in range(U):
        zs[i], rs[i], rhs[i], cs[i], hs[i + 1] = gru_cell(x[i], hs[i], *weights)

    inputs = (emb, h0, wz, uz, bz, wr, ur, br, wc, uc, bc)
    out, tape = _result(inputs, np.ascontiguousarray(np.moveaxis(hs, 0, -2)))
    if tape is not None:
        def backward(g):
            # the tensors come from ``inputs``: a closure over all eleven
            # names holds 20 cells, and CPython's free list for tuples of
            # that size then kept ~0.4 MB of them alive over a training run
            emb, h0, wz, uz, bz, wr, ur, br, wc, uc, bc = inputs
            g = np.moveaxis(g, -2, 0)
            # gate pre-activation gradients, row n for token U-1-n (loop order)
            pre = np.empty((3, U, *lead, P), dtype=np.result_type(hs, *weights))
            dh = g[U].copy()
            for n, i in enumerate(range(U - 1, -1, -1)):
                h = hs[i]
                z, r, c = zs[i], rs[i], cs[i]
                dz = dh * (c - h)
                dc = dh * z
                dhprev = dh * (1.0 - z)
                dac = dc * (1.0 - c * c)
                drh = dac @ uc.data.T
                dr = drh * h
                dhprev += drh * r
                dar = dr * r * (1.0 - r)
                daz = dz * z * (1.0 - z)
                dhprev += dar @ ur.data.T + daz @ uz.data.T
                pre[0, n], pre[1, n], pre[2, n] = dac, dar, daz
                dh = dhprev + g[i]
            if h0.requires_grad:
                h0.accum_grad(dh.reshape(-1, P).sum(axis=0) if lead else dh)
            # the rest reads only the gate gradients, so each term is one
            # product over every (token, row) pair: the input gradient one
            # per gate, each weight gradient one.  BLAS sums these in its own
            # order, not the per-token loop's; in float64 they agree with the
            # loop within 1e-12 relative
            dac, dar, daz = pre.reshape(3, -1, P)
            if emb.requires_grad:
                demb = dac @ wc.data.T + dar @ wr.data.T + daz @ wz.data.T
                emb.accum_grad(np.moveaxis(demb.reshape(x.shape)[::-1], 0, -2))
            xe, h, rh = (a[::-1].reshape(-1, a.shape[-1]) for a in (x, hs[:U], rhs))
            for p, a, inp in ((wz, daz, xe), (uz, daz, h), (wr, dar, xe),
                              (ur, dar, h), (wc, dac, xe), (uc, dac, rh)):
                if p.requires_grad:
                    p.accum_grad(inp.T @ a)
            # bias gradients: summed over tokens in loop order, last token
            # first (then over the batch)
            for p, a in ((bz, daz), (br, dar), (bc, dac)):
                if p.requires_grad:
                    p.accum_grad(a.sum(axis=0))
        tape.record_output("gru_sequence", out, backward)
    return out
