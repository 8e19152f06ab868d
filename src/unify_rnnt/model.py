"""Toy unified transducer: encoder, predictor and additive joint network.

One parameter set and one encoder function serve offline and streaming
passes.  A mode is a ``ContextSpec | None``: ``None`` is offline, a spec
``(L, C, R)`` is streaming.  A spec means the same thing in training and in
decoding: the output for chunk ``[s, s+C)`` reads frames
``[max(0, s-L), s+C+R)`` of each block's input and nothing at or past
``s+C+R``.

* Training encodes the whole utterance once on the streaming layout of
  ``contexts.right_context_rows``: the T main rows, then per chunk one copy
  row per right-context frame, computed under that chunk's mask and tap
  table.  It returns the T main rows.
* Decoding calls :meth:`TransducerModel.encode` once per chunk on the chunk's
  raw frames ``[s, min(T, s+C+R))`` with a :class:`StreamState`.  The state
  holds, per block, the keys and values of the last L main rows and the
  convolution's left halo, so within a step every row sees every cached and
  new row: the step is the full-context computation over them.  The chunk's
  right-context rows are recomputed on every step and never cached.
* Offline (``None``) encodes as the spec ``(T, T, 0)``: one chunk, no
  copies, an all-true mask and the whole-sequence convolution.

One encoder body runs on two sets of ops.  Under an active tape (training,
and any caller that opens one) it calls the tape ops of :mod:`tensor`,
looked up on the module at each call, and records 27 ops per call with two
blocks.  With no tape recording (chunk steps, offline decoding,
``decoding.evaluate``, any forward-only call) it runs the same body on
``tensor.Kernels``, the ops' forward arithmetic on plain arrays, and gives
the same rows bit for bit.  Either way it returns a ``Tensor``.

The encoder subsamples by frame stacking, then applies blocks of
layernorm -> masked attention -> residual -> layernorm -> depthwise
convolution -> pointwise feedforward -> residual.  The predictor is a
single-layer gated recurrent cell over token embeddings with a learned start
state; the joint is ``W_out . tanh(W_e enc + W_p pred + bias)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tz
from .contexts import (ContextSpec, build_attention_mask, plan_conv_chunks,
                       right_context_rows)
from .errors import BadTokenError, InputTooShortError
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    feat_dim: int = 16
    model_dim: int = 64
    heads: int = 4
    blocks: int = 2
    conv_kernel: int = 9
    subsample_factor: int = 2
    vocab_size: int = 18
    predictor_dim: int = 64
    joint_dim: int = 64
    ff_dim: int = 128
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.conv_kernel % 2 == 0 or self.conv_kernel < 1:
            raise ValueError("conv_kernel must be odd and positive")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2 (blank plus one token)")
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
        if self.subsample_factor < 1:
            raise ValueError("subsample_factor must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")


# gated recurrent predictor weights, in the argument order of tensor.gru_cell
GRU_WEIGHTS = ("wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc")

OFFLINE = None  # perfbench/bench.py imports this name; offline is spec None


def streaming_mode(spec: ContextSpec) -> ContextSpec:
    return spec  # perfbench/bench.py imports this name; a mode is its spec


class StreamState:
    """Per-block cache of one streaming decode, filled by chunk steps.

    ``keys``/``values`` hold the attention keys and values of the last L main
    rows of each block, ``halo`` the last h main rows of each block's
    convolution input (``h = (kernel - 1) / 2``).
    """

    def __init__(self) -> None:
        self.keys: dict[int, np.ndarray] = {}
        self.values: dict[int, np.ndarray] = {}
        self.halo: dict[int, np.ndarray] = {}

    @staticmethod
    def extend(cache: dict, block: int, rows, n_main: int, keep: int):
        """The cached rows then ``rows``; caches the last ``keep`` main rows
        of the two for the next step.  ``rows`` is an array, or a tensor on
        the tape path, whose result is then a constant."""
        taped = isinstance(rows, Tensor)
        held = rows.data if taped else rows
        if block in cache:
            held = np.concatenate([cache[block], held])
        end = held.shape[0] - rows.shape[0] + n_main
        cache[block] = held[max(0, end - keep):end]
        return tz.constant(held) if taped else held

    def sizes(self) -> tuple[int, int]:
        """Cached key rows and halo rows, the same in every block."""
        if not self.keys:
            return 0, 0
        return self.keys[0].shape[0], self.halo[0].shape[0]


class TransducerModel:
    """Parameter container plus the offline/streaming forward passes."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self._context_cache: dict = {}
        rng = np.random.default_rng(cfg.seed)
        dt = np.float32 if cfg.dtype == "float32" else np.float64

        def par(name: str, shape, scale: float | None = None) -> Tensor:
            if scale is None:
                arr = np.zeros(shape, dtype=dt)
            else:
                arr = (rng.standard_normal(shape) * scale).astype(dt)
            p = tz.parameter(arr)
            self.params[name] = p
            return p

        d = cfg.model_dim
        stacked = cfg.subsample_factor * cfg.feat_dim
        par("in_proj.w", (stacked, d), stacked ** -0.5)
        par("in_proj.b", (d,))
        for i in range(cfg.blocks):
            pre = f"block{i}."
            par(pre + "ln1.g", (d,))
            self.params[pre + "ln1.g"].data[:] = 1.0
            par(pre + "ln1.b", (d,))
            for nm in ("wq", "wk", "wv", "wo"):
                par(pre + "attn." + nm, (d, d), d ** -0.5)
            # no key bias: softmax is invariant to a per-row constant shift
            for nm in ("bq", "bv", "bo"):
                par(pre + "attn." + nm, (d,))
            par(pre + "ln2.g", (d,))
            self.params[pre + "ln2.g"].data[:] = 1.0
            par(pre + "ln2.b", (d,))
            par(pre + "conv.kernel", (cfg.conv_kernel, d), cfg.conv_kernel ** -0.5)
            par(pre + "ff1.w", (d, cfg.ff_dim), d ** -0.5)
            par(pre + "ff1.b", (cfg.ff_dim,))
            par(pre + "ff2.w", (cfg.ff_dim, d), cfg.ff_dim ** -0.5)
            par(pre + "ff2.b", (d,))
        P = cfg.predictor_dim
        par("pred.emb", (cfg.vocab_size, P), 0.5)
        for nm in ("wz", "wr", "wc"):
            par("pred." + nm, (P, P), P ** -0.5)
        for nm in ("uz", "ur", "uc"):
            par("pred." + nm, (P, P), P ** -0.5)
        for nm in ("bz", "br", "bc"):
            par("pred." + nm, (P,))
        par("pred.h0", (P,))
        H = cfg.joint_dim
        par("joint.w_enc", (d, H), d ** -0.5)
        par("joint.w_pred", (P, H), P ** -0.5)
        par("joint.b", (H,))
        par("joint.w_out", (H, cfg.vocab_size), H ** -0.5)
        self._gru_weights = [self.params["pred." + nm] for nm in GRU_WEIGHTS]

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_items(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    @property
    def np_dtype(self):
        return np.float32 if self.cfg.dtype == "float32" else np.float64

    # -- encoder ------------------------------------------------------------

    def _context_for(self, T: int, spec: ContextSpec) -> tuple:
        """Cached frame of each row, attention mask and tap table of a layout,
        and the tap table's main-row columns, which the last block keeps."""
        key = (T, spec)
        if key not in self._context_cache:
            frames, _owner = right_context_rows(T, spec)
            mask = build_attention_mask(T, spec)
            taps = plan_conv_chunks(T, spec, self.cfg.conv_kernel)
            for arr in (frames, mask, taps):
                arr.flags.writeable = False
            self._context_cache[key] = (frames, tz.AttentionMask(mask), tz.ConvTaps(taps),
                                        tz.ConvTaps(taps[:, :T]))
        return self._context_cache[key]

    def _step_context(self, keys: int, halo: int, n: int, n_main: int) -> tuple:
        """Mask and tap tables of a chunk step over ``keys``/``halo`` cached
        rows and ``n`` new ones: the full context over cached plus new rows,
        restricted to the new rows (to the main ones for the last block).
        Every new row attends every key, so the mask is all true."""
        key = ("step", keys, halo, n, n_main)
        if key not in self._context_cache:
            taps = tz.ConvTaps.full_context(halo + n, self.cfg.conv_kernel, halo)
            self._context_cache[key] = (tz.AttentionMask(np.ones((n, keys + n), bool)),
                                        taps, tz.ConvTaps(taps.index[:, :n_main]))
        return self._context_cache[key]

    def encode(self, features: np.ndarray, spec: ContextSpec | None = None,
               state: StreamState | None = None) -> Tensor:
        """Frame-stack subsample then run the masked encoder blocks.

        Without ``state``, encode the whole utterance on the layout of
        ``spec`` (None is offline) and return its T main rows.  With
        ``state``, run one streaming chunk step of ``spec``: ``features`` are
        the chunk's raw frames ``[s, min(T, s+C+R))``; return its
        ``min(C, n)`` main rows and cache what the next step reads.  The
        chunk step is forward-only.  Under a tape the body records tape ops;
        off one it runs on the array kernels and returns a constant.
        """
        feats = np.asarray(features, dtype=self.np_dtype)
        if feats.ndim != 2 or feats.shape[1] != self.cfg.feat_dim:
            raise ValueError(f"features must be [T_in, {self.cfg.feat_dim}]")
        q = self.cfg.subsample_factor
        T = feats.shape[0] // q
        if T < 1:
            raise InputTooShortError(
                f"{feats.shape[0]} frames < subsample factor {q}")
        stacked = feats[:T * q].reshape(T, q * self.cfg.feat_dim)
        if state is None:
            frames, mask, taps, taps_main = self._context_for(
                T, ContextSpec(T, T, 0) if spec is None else spec)
            stacked, n_main = stacked[frames], T
        else:
            if spec is None:
                raise ValueError("a chunk step needs a streaming spec")
            left, n_main = spec.left, min(spec.chunk, T)
            mask, taps, taps_main = self._step_context(*state.sizes(), T, n_main)
        h = (self.cfg.conv_kernel - 1) // 2
        # the ops are looked up on ``tz`` at each call: perfbench wraps them there
        taped = tz.active_tape() is not None
        if taped:
            ops, p, x = tz, self.params, tz.constant(stacked)
        else:
            ops, p, x = tz.Kernels, {n: t.data for n, t in self.params.items()}, stacked
        x = ops.linear(x, p["in_proj.w"], p["in_proj.b"])
        for i in range(self.cfg.blocks):
            pre = f"block{i}."
            a = ops.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
            qh = ops.linear(a, p[pre + "attn.wq"], p[pre + "attn.bq"])
            kh = ops.linear(a, p[pre + "attn.wk"])
            vh = ops.linear(a, p[pre + "attn.wv"], p[pre + "attn.bv"])
            if state is not None:
                kh = state.extend(state.keys, i, kh, n_main, left)
                vh = state.extend(state.values, i, vh, n_main, left)
            attn = ops.masked_attention(qh, kh, vh, mask, self.cfg.heads)
            x = ops.add(x, ops.linear(attn, p[pre + "attn.wo"], p[pre + "attn.bo"]))
            c = ops.layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            if state is not None:
                c = state.extend(state.halo, i, c, n_main, h)
            # the last block keeps only the main rows: no later row reads the
            # right-context copies
            last = i == self.cfg.blocks - 1
            conv = ops.depthwise_conv1d_windows(c, p[pre + "conv.kernel"],
                                                taps_main if last else taps)
            f = ops.relu(ops.linear(conv, p[pre + "ff1.w"], p[pre + "ff1.b"]))
            x = ops.add(x, ops.linear(f, p[pre + "ff2.w"], p[pre + "ff2.b"]))
        return x if taped else tz.constant(x)

    def encoded_length(self, n_input_frames: int) -> int:
        return n_input_frames // self.cfg.subsample_factor

    # -- predictor ----------------------------------------------------------

    def predictor_start(self) -> np.ndarray:
        return self.params["pred.h0"].data.copy()

    def predict(self, token: int, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Single recurrent step; blank is never fed by decoding convention."""
        if not 0 <= int(token) < self.cfg.vocab_size:
            raise BadTokenError(f"token {token} outside [0, {self.cfg.vocab_size})")
        xe = self.params["pred.emb"].data[int(token)]
        h = np.asarray(state, dtype=self.np_dtype)
        new_state = tz.gru_cell(xe, h, *[w.data for w in self._gru_weights])[-1]
        return new_state, new_state

    def pred_sequence(self, targets) -> Tensor:
        """Differentiable [U+1, P] stack of predictor states for training."""
        y = np.asarray(targets, dtype=np.int64).reshape(-1)
        if y.size and (y.min() < 0 or y.max() >= self.cfg.vocab_size):
            raise BadTokenError("target ids outside the vocabulary")
        emb = tz.embedding(self.params["pred.emb"], y)
        return tz.gru_sequence(emb, self.params["pred.h0"], *self._gru_weights)

    # -- joint --------------------------------------------------------------

    def joint(self, enc: Tensor, pred: Tensor) -> Tensor:
        """Full [T, U+1, V] joint lattice logits."""
        p = self.params
        a = tz.matmul(enc, p["joint.w_enc"])
        b = tz.matmul(pred, p["joint.w_pred"])
        h = tz.tanh(tz.add(tz.outer_add(a, b), p["joint.b"]))
        T, U1, H = h.shape
        flat = tz.matmul(tz.reshape(h, (T * U1, H)), p["joint.w_out"])
        return tz.reshape(flat, (T, U1, self.cfg.vocab_size))

    def joint_vec(self, enc_vec: np.ndarray, pred_vec: np.ndarray) -> np.ndarray:
        """Single-cell joint logits on plain arrays, for greedy decoding."""
        p = self.params
        h = np.tanh(enc_vec @ p["joint.w_enc"].data
                    + pred_vec @ p["joint.w_pred"].data + p["joint.b"].data)
        return h @ p["joint.w_out"].data

    def config_dict(self) -> dict:
        return asdict(self.cfg)
