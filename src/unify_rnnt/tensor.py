"""Dense tensors with reverse-mode automatic differentiation on a tape.

The scope is deliberately small: exactly the operations the toy transducer
model and its losses need, in 32- or 64-bit float.  A :class:`Tape` records
one op per call while active; ``Tape.backward`` replays the records in exact
reverse order and accumulates gradients additively into ``Tensor.grad``.

A tape is single-threaded by contract: one graph, one thread.  Ops themselves
are pure functions of their inputs and may run concurrently on disjoint
tensors.

A streaming chunk step calls the ops on one or two rows, so what an op does
per call, beyond its arithmetic, sets the step's cost.  Each encoder op is
therefore a forward kernel on plain arrays plus its backward record;
:class:`Kernels` holds the kernels under the ops' names, and the encoder
runs on them when no tape is recording, so a forward-only pass pays no
``Tensor`` wrapping, tape lookup or gradient bookkeeping and gives the tape
ops' values bit for bit.  The layouts an op reads are checked once, when
they are built: an :class:`AttentionMask` validates its rows and keeps its
additive bias (none when all true), a :class:`ConvTaps` keeps its largest
index, and a call checks only that their shapes fit.  Ops wrap the arrays
they make without copying them, and a tensor's first gradient write stores
a fresh array instead of adding into a zeroed one.

The depthwise convolution gathers the row each tap reads from a tap table
(zero where the table says so); its input gradient gathers, for each input
row, the taps that read it.  The recurrent sequence loops over tokens only
for the state recursion.  Both keep a fixed
accumulation order, the one a loop over taps or tokens would use: taps in
tap order from zero, rows in ascending order, per-token weight-gradient
terms from the last token to the first.  Results therefore do not depend on
how the work is batched.
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

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "tape contexts exited out of order"

    def backward(self, out: "Tensor", seed=1.0) -> None:
        """Seed ``out``'s gradient, then replay the tape once in reverse.

        ``seed`` is a scalar or an array of ``out``'s shape.
        """
        seed = np.asarray(seed, dtype=out.data.dtype)
        if seed.shape not in ((), out.data.shape):
            raise ValueError(f"seed shape {seed.shape} does not match output {out.data.shape}")
        out.accum_grad(seed)
        for _name, fn in reversed(self._records):
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


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
    if a.shape == b.shape or (b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]):
        return a + b
    if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[1] and b.shape[0] < a.shape[0]:
        return a[:b.shape[0]] + b
    raise ValueError(f"add shapes incompatible: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; ``b`` may be a 1-D bias broadcast over leading axes.

    A 2-D ``b`` may also have fewer rows than ``a``: the sum then keeps
    ``b``'s rows, ``a[:n] + b``, a residual over the rows a layer kept.
    """
    out, tape = _result((a, b), _add(a.data, b.data))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                if g.shape == a.data.shape:
                    a.accum_grad(g)
                else:
                    ga = np.zeros_like(a.data)
                    ga[:g.shape[0]] = g
                    a.accum_grad(ga)
            if b.requires_grad:
                if b.data.ndim == 1 and g.ndim > 1:
                    b.accum_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))
                else:
                    b.accum_grad(g)
        tape.record("add", bwd)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with ``a`` 1-D or 2-D and ``b`` 2-D."""
    if b.data.ndim != 2 or a.data.ndim not in (1, 2):
        raise ValueError(f"matmul expects (1|2)-D @ 2-D, got {a.shape} @ {b.shape}")
    out, tape = _result((a, b), a.data @ b.data)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                a.accum_grad(g @ b.data.T)
            if b.requires_grad:
                if a.data.ndim == 2:
                    b.accum_grad(a.data.T @ g)
                else:
                    b.accum_grad(np.outer(a.data, g))
        tape.record("matmul", bwd)
    return out


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    out = x @ w
    if b is not None:
        out += b
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused ``x @ w (+ b)`` to keep tapes short.

    The bias is added in place into the product, so ``b`` has the product's
    dtype and broadcasts to its shape without enlarging it.
    """
    if b is None:
        out, tape = _result((x, w), _linear(x.data, w.data))
    else:
        out, tape = _result((x, w, b), _linear(x.data, w.data, b.data))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            if x.requires_grad:
                x.accum_grad(g @ w.data.T)
            if w.requires_grad:
                if x.data.ndim == 2:
                    w.accum_grad(x.data.T @ g)
                else:
                    w.accum_grad(np.outer(x.data, g))
            if b is not None and b.requires_grad:
                b.accum_grad(g.sum(axis=0) if g.ndim == 2 else g)
        tape.record("linear", bwd)
    return out


def tanh(x: Tensor) -> Tensor:
    out, tape = _result((x,), np.tanh(x.data))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            x.accum_grad(g * (1.0 - out.data * out.data))
        tape.record("tanh", bwd)
    return out


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu(x: Tensor) -> Tensor:
    out, tape = _result((x,), _relu(x.data))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            x.accum_grad(g * (x.data > 0.0))
        tape.record("relu", bwd)
    return out


def _row_mean(a: np.ndarray) -> np.ndarray:
    # what ``a.mean(axis=1, keepdims=True)`` computes, without its wrapper
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The output, then the normalized rows and inverse deviations the backward reads."""
    if x.ndim != 2:
        raise ValueError("layer_norm expects a 2-D input")
    mu = _row_mean(x)
    xc = x - mu
    var = _row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis of a 2-D input."""
    data, xhat, inv = _layer_norm(x.data, gain.data, bias.data, eps)
    out, tape = _result((x, gain, bias), data)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            dxhat = g * gain.data
            if x.requires_grad:
                m1 = _row_mean(dxhat)
                m2 = _row_mean(dxhat * xhat)
                x.accum_grad(inv * (dxhat - m1 - xhat * m2))
            if gain.requires_grad:
                gain.accum_grad((g * xhat).sum(axis=0))
            if bias.requires_grad:
                bias.accum_grad(g.sum(axis=0))
        tape.record("layer_norm", bwd)
    return out


def embedding(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    n = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"embedding ids out of range [0, {n})")
    out, tape = _result((table,), table.data[ids])
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)
        tape.record("embedding", bwd)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out, tape = _result((x,), x.data.reshape(shape))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            x.accum_grad(g.reshape(x.data.shape))
        tape.record("reshape", bwd)
    return out


def outer_add(a: Tensor, b: Tensor) -> Tensor:
    """``out[i, j, :] = a[i, :] + b[j, :]`` for two 2-D inputs."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"outer_add expects [T,d] and [U,d], got {a.shape}, {b.shape}")
    data = a.data[:, None, :] + b.data[None, :, :]
    out, tape = _result((a, b), data)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                a.accum_grad(g.sum(axis=1))
            if b.requires_grad:
                b.accum_grad(g.sum(axis=0))
        tape.record("outer_add", bwd)
    return out


def weighted_sum(pairs: Sequence[tuple[Tensor, float]]) -> Tensor:
    """Scalar ``sum(w_i * t_i)`` over scalar tensors; zero weights are inert."""
    if not pairs:
        raise ValueError("weighted_sum needs at least one term")
    dtype = np.result_type(*[t.data.dtype for t, _ in pairs])
    total = sum(w * t.item() for t, w in pairs)
    out, tape = _result(tuple(t for t, _ in pairs), np.asarray(total, dtype=dtype))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            for t, w in pairs:
                if t.requires_grad and w != 0.0:
                    t.accum_grad(np.asarray(float(g) * w, dtype=t.data.dtype))
        tape.record("weighted_sum", bwd)
    return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    # [rows, d] -> [heads, rows, dh]: each head's slice as a strided view, so
    # every head's product is the same BLAS call a per-head loop makes
    return a.reshape(a.shape[0], heads, a.shape[1] // heads).transpose(1, 0, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    return a.transpose(1, 0, 2).reshape(a.shape[1], a.shape[0] * a.shape[2])


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


def _masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: AttentionMask,
                      heads: int) -> tuple:
    """The output, then what the backward reads: the attention weights, the
    per-head ``q``, ``k``, ``v`` and the score scale."""
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
    return _merge_heads(attn @ vh), attn, qh, kh, vh, inv_scale


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: AttentionMask,
                     heads: int) -> Tensor:
    """Multi-head scaled dot-product attention under an [n, m] mask.

    ``q`` is [n, d]; ``k`` and ``v`` are [m, d] with ``m >= n`` (a streaming
    chunk step puts cached keys before its own).  The mask was checked when
    it was built; a call checks only that its shape fits.
    """
    data, attn, qh, kh, vh, inv_scale = _masked_attention(q.data, k.data, v.data, mask,
                                                          heads)
    out, tape = _result((q, k, v), data)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            go = _split_heads(g, heads)
            if v.requires_grad:
                v.accum_grad(_merge_heads(attn.transpose(0, 2, 1) @ go))
            da = go @ vh.transpose(0, 2, 1)
            ds = attn * (da - (da * attn).sum(axis=2, keepdims=True))
            if q.requires_grad:
                q.accum_grad(_merge_heads((ds @ kh) * inv_scale))
            if k.requires_grad:
                k.accum_grad(_merge_heads((ds.transpose(0, 2, 1) @ qh) * inv_scale))
        tape.record("masked_attention", bwd)
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
        def bwd():
            g = out.grad
            if g is None:
                return
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
        tape.record("depthwise_conv1d", bwd)
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
    def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   eps: float = 1e-5) -> np.ndarray:
        return _layer_norm(x, gain, bias, eps)[0]

    @staticmethod
    def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: AttentionMask,
                         heads: int) -> np.ndarray:
        return _masked_attention(q, k, v, mask, heads)[0]


# ---------------------------------------------------------------------------
# fused gated recurrent sequence
# ---------------------------------------------------------------------------


def gru_cell(xe: np.ndarray, h: np.ndarray,
             wz, uz, bz, wr, ur, br, wc, uc, bc) -> tuple[np.ndarray, ...]:
    """One gated recurrent step on plain arrays: ``(z, r, r * h, c, h_next)``.

    The single definition of the cell: :func:`gru_sequence` and the decoder's
    one-token step both evaluate it, so their states agree bit for bit.
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
    and returns the [U+1, P] stack of states h_0..h_U.  Backward is fused
    backpropagation through time over the saved gate activations.
    """
    U = emb.data.shape[0]
    P = h0.data.shape[0]
    hs = np.empty((U + 1, P), dtype=h0.data.dtype)
    hs[0] = h0.data
    zs = np.empty((U, P), dtype=h0.data.dtype)
    rs = np.empty_like(zs)
    cs = np.empty_like(zs)
    rhs = np.empty_like(zs)
    weights = [p.data for p in (wz, uz, bz, wr, ur, br, wc, uc, bc)]
    for i in range(U):
        zs[i], rs[i], rhs[i], cs[i], hs[i + 1] = gru_cell(emb.data[i], hs[i], *weights)

    inputs = (emb, h0, wz, uz, bz, wr, ur, br, wc, uc, bc)
    out, tape = _result(inputs, hs)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            # the tensors come from ``inputs``: a closure over all eleven
            # names holds 20 cells, and CPython's free list for tuples of
            # that size then kept ~0.4 MB of them alive over a training run
            emb, h0, wz, uz, bz, wr, ur, br, wc, uc, bc = inputs
            demb = np.zeros_like(emb.data)
            # gate pre-activation gradients, row n for token U-1-n (loop order)
            pre = np.empty((3, U, P), dtype=np.result_type(hs, *weights))
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
                demb[i] = dac @ wc.data.T + dar @ wr.data.T + daz @ wz.data.T
                pre[0, n], pre[1, n], pre[2, n] = dac, dar, daz
                dh = dhprev + g[i]
            if emb.requires_grad:
                emb.accum_grad(demb)
            if h0.requires_grad:
                h0.accum_grad(dh)
            # weight and bias gradients: outer products (or gate gradients)
            # summed over tokens in loop order, last token first; einsum
            # accumulates them one token at a time without a [U, P, P] buffer
            dac, dar, daz = pre
            xe, h, rh = emb.data[::-1], hs[:U][::-1], rhs[::-1]
            for p, a, inp in ((wz, daz, xe), (uz, daz, h), (wr, dar, xe),
                              (ur, dar, h), (wc, dac, xe), (uc, dac, rh)):
                if p.requires_grad:
                    p.accum_grad(np.einsum("ui,uj->ij", inp, a))
            for p, a in ((bz, daz), (br, dar), (bc, dac)):
                if p.requires_grad:
                    p.accum_grad(a.sum(axis=0))
        tape.record("gru_sequence", bwd)
    return out
