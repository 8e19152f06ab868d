"""Dense tensors with reverse-mode automatic differentiation on a tape.

The scope is deliberately small: exactly the operations the toy transducer
model and its losses need, in 32- or 64-bit float.  A :class:`Tape` records
one op per call while active; ``Tape.backward`` replays the records in exact
reverse order and accumulates gradients additively into ``Tensor.grad``.

A tape is single-threaded by contract: one graph, one thread.  Ops themselves
are pure functions of their inputs and may run concurrently on disjoint
tensors.

The depthwise convolution is one zero-padded convolution whose rows read
real frames up to a per-row horizon and zeros past it; it loops only over
kernel taps in the input gradient.  The recurrent sequence loops over tokens
only for the state recursion.  Both keep a fixed accumulation order, the one
a loop over taps or tokens would use: taps in tap order from zero, rows in
ascending order, per-token weight-gradient terms from the last token to the
first.  Results therefore do not depend on how the work is batched, and a
convolution without a horizon is the whole-sequence oracle itself.
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
    stack = _tape_stack()
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
            self.grad = np.zeros_like(self.data)
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
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs)
    tape = active_tape() if needs else None
    return out, tape


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; ``b`` may be a 1-D bias broadcast over leading axes."""
    bias = False
    if a.shape == b.shape:
        data = a.data + b.data
    elif b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        data = a.data + b.data
        bias = True
    else:
        raise ValueError(f"add shapes incompatible: {a.shape} vs {b.shape}")
    out, tape = _result((a, b), data)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            if a.requires_grad:
                a.accum_grad(g)
            if b.requires_grad:
                if bias and g.ndim > 1:
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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused ``x @ w (+ b)`` to keep tapes short."""
    data = x.data @ w.data
    if b is not None:
        data = data + b.data
    inputs = (x, w) if b is None else (x, w, b)
    out, tape = _result(inputs, data)
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


def relu(x: Tensor) -> Tensor:
    out, tape = _result((x,), np.maximum(x.data, 0.0))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            x.accum_grad(g * (x.data > 0.0))
        tape.record("relu", bwd)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis of a 2-D input."""
    if x.data.ndim != 2:
        raise ValueError("layer_norm expects a 2-D input")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out, tape = _result((x, gain, bias), xhat * gain.data + bias.data)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            dxhat = g * gain.data
            if x.requires_grad:
                m1 = dxhat.mean(axis=1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
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


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention with a boolean [T, T] mask.

    ``mask[i, j] == True`` means query ``i`` may attend key ``j``.  Masked
    positions receive additive ``-inf`` before the row softmax.  Every row
    must keep at least one allowed key.
    """
    if not (q.shape == k.shape == v.shape) or q.data.ndim != 2:
        raise ValueError("q, k, v must share one [T, d] shape")
    T, d = q.shape
    if d % heads != 0:
        raise ValueError(f"width {d} not divisible by {heads} heads")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (T, T):
        raise ValueError(f"mask shape {mask.shape} != ({T}, {T})")
    if not mask.any(axis=1).all():
        raise EmptyAttentionRowError("attention mask has an all-false row")

    dh = d // heads
    inv_scale = 1.0 / math.sqrt(dh)
    out_data = np.empty_like(q.data)
    attns = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = (q.data[:, sl] @ k.data[:, sl].T) * inv_scale
        scores = np.where(mask, scores, -np.inf)
        m = scores.max(axis=1, keepdims=True)
        e = np.exp(scores - m)
        attn = e / e.sum(axis=1, keepdims=True)
        attns.append(attn)
        out_data[:, sl] = attn @ v.data[:, sl]

    out, tape = _result((q, k, v), out_data)
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            dq = np.zeros_like(q.data) if q.requires_grad else None
            dk = np.zeros_like(k.data) if k.requires_grad else None
            dv = np.zeros_like(v.data) if v.requires_grad else None
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                attn = attns[h]
                go = g[:, sl]
                if dv is not None:
                    dv[:, sl] = attn.T @ go
                da = go @ v.data[:, sl].T
                ds = attn * (da - (da * attn).sum(axis=1, keepdims=True))
                if dq is not None:
                    dq[:, sl] = (ds @ k.data[:, sl]) * inv_scale
                if dk is not None:
                    dk[:, sl] = (ds.T @ q.data[:, sl]) * inv_scale
            if dq is not None:
                q.accum_grad(dq)
            if dk is not None:
                k.accum_grad(dk)
            if dv is not None:
                v.accum_grad(dv)
        tape.record("masked_attention", bwd)
    return out


# ---------------------------------------------------------------------------
# depthwise convolution
# ---------------------------------------------------------------------------


def _check_kernel(kernel: Tensor) -> int:
    if kernel.data.ndim != 2:
        raise ValueError("kernel must be [k, d]")
    k = kernel.data.shape[0]
    if k % 2 == 0:
        raise EvenKernelError(f"kernel length {k} is even")
    return k


def depthwise_conv1d_windows(x: Tensor, kernel: Tensor, horizon) -> Tensor:
    """Per-channel 1-D convolution in which each row reads up to its horizon.

    Row ``i`` of the output is ``sum_j kernel[j] * x[i - h + j]`` over the
    taps ``j = 0 .. k-1`` (``h = (k-1)/2``), where ``x`` reads as zero outside
    ``[0, T)`` and at or past ``horizon[i]``.  ``horizon`` is an int array
    ``[T]``, as ``contexts.plan_conv_chunks`` gives it, or ``None`` for no
    bound: the whole-sequence convolution.

    Each output row and each input-gradient row sums its taps in tap order,
    starting from zero; each kernel-gradient entry sums the rows in row
    order.  (This holds with more than one channel; for a single channel
    numpy may reorder the sums.)
    """
    k = _check_kernel(kernel)
    T, d = x.shape
    if kernel.data.shape[1] != d:
        raise ValueError(f"kernel channels {kernel.data.shape[1]} != input {d}")
    h = (k - 1) // 2
    past = None
    if horizon is not None:
        horizon = np.asarray(horizon)
        if horizon.shape != (T,):
            raise ValueError(f"horizon shape {horizon.shape} != ({T},)")
        # past[j, i]: tap j of row i would read frame i - h + j at or past
        # the row's horizon
        past = (np.arange(-h, h + 1)[:, None] + np.arange(T)) >= horizon

    def taps():
        # taps[j, i] = x[i - h + j]: the k shifted views of the zero-padded
        # input.  The backward builds them again rather than keep a k-fold
        # masked copy of x alive on the tape.
        xp = np.zeros((T + 2 * h, d), dtype=x.data.dtype)
        xp[h:h + T] = x.data
        view = np.ndarray((k, T, d), xp.dtype, xp, 0, xp.strides[:1] + xp.strides)
        if past is None:
            return view
        view = view.copy()
        view[past] = 0.0
        return view

    # einsum adds the products over a summed index one at a time, in index
    # order, into a zeroed output (the tests check this against a loop)
    out, tape = _result((x, kernel), np.einsum("jic,jc->ic", taps(), kernel.data))
    if tape is not None:
        def bwd():
            g = out.grad
            if g is None:
                return
            if kernel.requires_grad:
                kernel.accum_grad(np.einsum("jic,ic->jc", taps(), g))
            if x.requires_grad:
                # gk[j, i]: what row i passes back through tap j
                gk = g * kernel.data[:, None, :]
                if past is not None:
                    gk[past] = 0.0
                gp = np.zeros((T + 2 * h, d), dtype=x.data.dtype)
                for j in range(k):
                    gp[j:j + T] += gk[j]
                x.accum_grad(gp[h:h + T])
        tape.record("depthwise_conv1d", bwd)
    return out


def depthwise_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Depthwise convolution with zero same-padding over the whole sequence."""
    k = _check_kernel(kernel)
    T = x.shape[0]
    if k > 2 * T + 1:
        raise ValueError(f"kernel length {k} exceeds 2*T+1 = {2 * T + 1}")
    return depthwise_conv1d_windows(x, kernel, None)


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
