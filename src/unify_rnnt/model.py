"""Toy unified transducer: encoder, predictor and additive joint network.

One parameter set and one encoder function serve offline and streaming
passes.  A mode is a ``ContextSpec | None``: ``None`` is offline, a spec
``(L, C, R)`` is streaming.  A spec means the same thing in training and in
decoding: the output for chunk ``[s, s+C)`` reads frames
``[max(0, s-L), s+C+R)`` of each block's input and nothing at or past
``s+C+R``.

Every encode is one of two call shapes on the one encoder body:

* A stacked layout (:meth:`TransducerModel.encode_batch`, for training).
  Each (utterance, mode) segment has the streaming layout of
  ``contexts.right_context_rows``: the T main rows, then per chunk one copy
  row per right-context frame, computed under that chunk's mask and tap
  table.  The stack holds every segment's main rows, then every segment's
  copy rows, attention kept within each segment, so each segment gets the
  rows it gets alone.  ``encode(features, spec)`` is the stack of one.
* A chunk step with a :class:`StreamState` (``encode(frames, spec, state)``,
  for all decoding) on the chunk's raw frames ``[s, min(T, s+C+R))``.  The
  state holds, per block, the keys and values of the last L main rows and
  the convolution's left halo, so the step is the full-context computation
  over the cached and new rows.  Right-context rows are never cached.

Offline (``None``) is the spec ``(T, T, 0)``: one chunk, no copies, an
all-true mask and the whole-sequence convolution.

A stacked encode under an active tape calls the tape ops of :mod:`tensor`,
looked up on the module at each call: 27 records with two blocks (the input
projection and 13 ops per block), however many segments are stacked, plus
one row gather in ``encode_batch``.  Every other call runs the same body on
``tensor.Kernels``, the ops' forward arithmetic on plain arrays, and gives
the same rows bit for bit.  Either way it returns a ``Tensor``.

The encoder subsamples by frame stacking, then applies blocks of
layernorm -> masked attention -> residual -> layernorm -> depthwise
convolution -> pointwise feedforward -> residual.  The predictor is a
single-layer gated recurrent cell over token embeddings with a learned start
state, run on one sequence or on a padded batch of them; the joint is
``W_out . tanh(W_e enc + W_p pred + bias)``, over one lattice or a padded
batch of lattices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tensor as tz
from .contexts import (ContextSpec, build_attention_mask, plan_conv_chunks,
                       right_context_rows)
from .corpus import _check_number_fields
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
        _check_number_fields(self)
        if self.conv_kernel % 2 == 0 or self.conv_kernel < 1:
            raise ValueError("conv_kernel must be odd and positive")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2 (blank plus one token)")
        for name in ("feat_dim", "model_dim", "heads", "blocks", "subsample_factor",
                     "predictor_dim", "joint_dim", "ff_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")
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
    def extend(cache: dict, block: int, rows: np.ndarray, n_main: int,
               keep: int) -> np.ndarray:
        """The cached rows then ``rows``; caches the last ``keep`` main rows
        of the two for the next step."""
        held = np.concatenate([cache[block], rows]) if block in cache else rows
        end = held.shape[0] - rows.shape[0] + n_main
        cache[block] = held[max(0, end - keep):end]
        return held

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

    @property
    def np_dtype(self):
        return np.float32 if self.cfg.dtype == "float32" else np.float64

    # -- encoder ------------------------------------------------------------

    def _context_for(self, T: int, spec: ContextSpec) -> tuple:
        """Cached frame of each row, attention mask and tap index of a layout."""
        key = (T, spec)
        if key not in self._context_cache:
            frames, _owner = right_context_rows(T, spec)
            mask = build_attention_mask(T, spec)
            taps = plan_conv_chunks(T, spec, self.cfg.conv_kernel)
            for arr in (frames, mask, taps):
                arr.flags.writeable = False
            self._context_cache[key] = (frames, tz.AttentionMask(mask), taps)
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

    def _frame_stack(self, features: np.ndarray) -> np.ndarray:
        """[T, q·feat_dim] rows of ``q`` consecutive frames; a partial last group is dropped."""
        feats = np.asarray(features, dtype=self.np_dtype)
        if feats.ndim != 2 or feats.shape[1] != self.cfg.feat_dim:
            raise ValueError(f"features must be [T_in, {self.cfg.feat_dim}]")
        q = self.cfg.subsample_factor
        T = feats.shape[0] // q
        if T < 1:
            raise InputTooShortError(
                f"{feats.shape[0]} frames < subsample factor {q}")
        return feats[:T * q].reshape(T, q * self.cfg.feat_dim)

    def encode(self, features: np.ndarray, spec: ContextSpec | None = None,
               state: StreamState | None = None) -> Tensor:
        """Frame-stack subsample then run the masked encoder blocks.

        Without ``state``, encode the whole utterance on the layout of
        ``spec`` (None is offline) as a stack of one segment; return its T
        main rows.  With ``state``, run one streaming chunk step of ``spec``
        on the chunk's raw frames ``[s, min(T, s+C+R))``; return its
        ``min(C, n)`` main rows and cache what the next step reads.
        """
        if state is None:
            return self._blocks(*self._stack([features], [spec])[0])
        if spec is None:
            raise ValueError("a chunk step needs a streaming spec")
        stacked = self._frame_stack(features)
        T = stacked.shape[0]
        n_main = min(spec.chunk, T)
        mask, taps, taps_main = self._step_context(*state.sizes(), T, n_main)
        return self._blocks(stacked, mask, taps, taps_main, state, n_main, spec.left)

    def encode_batch(self, features: Sequence[np.ndarray],
                     specs: Sequence[ContextSpec | None]) -> tuple[Tensor, np.ndarray]:
        """Encode segments ``(features[i], specs[i])`` as one stacked layout.

        Returns the segments' main rows padded to [S, T_max, d] (rows past a
        segment's T repeat stacked row 0) and the T of each segment.  Each
        segment gets the rows ``encode`` gives it alone, bit for bit from two
        rows up (alone, a one-row segment's products run on numpy's vector
        kernels, which round differently); none reads another's frames.
        """
        layout, lengths = self._stack(features, specs)
        enc = self._blocks(*layout)
        t = np.arange(lengths.max())
        start = np.cumsum(lengths) - lengths
        pad = np.where(t < lengths[:, None], start[:, None] + t, 0)
        return tz.embedding(enc, pad), lengths

    def _stack(self, features: Sequence[np.ndarray],
               specs: Sequence[ContextSpec | None]) -> tuple[tuple, np.ndarray]:
        """The stacked layout of segments ``(features[i], specs[i])``, as the
        arguments of :meth:`_blocks`, and the T of each segment.

        All segments' main rows in segment order, then all their copy rows;
        each segment's cached ``(T, spec)`` tap table is shifted to its rows
        and its mask kept to its rows (a :class:`tensor.SegmentedMask`).  The
        stack is assembled per call and never cached.
        """
        stacked = [self._frame_stack(f) for f in features]
        lengths = np.array([x.shape[0] for x in stacked])
        layouts = [self._context_for(T, ContextSpec(T, T, 0) if spec is None else spec)
                   for T, spec in zip(lengths, specs)]
        sizes = np.array([frames.size for frames, *_ in layouts])
        M = int(lengths.sum())
        main_start = np.cumsum(lengths) - lengths
        copy_start = M + np.cumsum(sizes - lengths) - (sizes - lengths)
        taps = np.empty((self.cfg.conv_kernel, int(sizes.sum())), dtype=np.int64)
        parts = []
        for T, N, m0, c0, (_frames, mask, seg_taps) in zip(
                lengths, sizes, main_start, copy_start, layouts):
            rows = np.concatenate([np.arange(m0, m0 + T), np.arange(c0, c0 + N - T)])
            taps[:, rows] = np.where(seg_taps >= 0, rows[seg_taps], -1)
            parts.append((rows, mask))
        copies = [x[frames[T:]] for x, (frames, *_), T in zip(stacked, layouts, lengths)]
        return (np.concatenate(stacked + copies), tz.SegmentedMask(parts, taps.shape[1]),
                tz.ConvTaps(taps), tz.ConvTaps(taps[:, :M])), lengths

    def _blocks(self, x: np.ndarray, mask, taps, taps_main,
                state: StreamState | None = None, n_main: int = 0, left: int = 0) -> Tensor:
        """The input projection and the encoder blocks over a layout's rows
        ``x``; a chunk step also reads and updates ``state``."""
        h = (self.cfg.conv_kernel - 1) // 2
        # the ops are looked up on ``tz`` at each call: perfbench wraps them there
        taped = state is None and tz.active_tape() is not None
        if taped:
            ops, p, x = tz, self.params, tz.constant(x)
        else:
            ops, p = tz.Kernels, {n: t.data for n, t in self.params.items()}
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

    def predict(self, token: int, state: np.ndarray) -> np.ndarray:
        """Single recurrent step: the state after ``token``, which is also the
        predictor output the joint reads.  Blank is never fed by decoding
        convention."""
        if not 0 <= int(token) < self.cfg.vocab_size:
            raise BadTokenError(f"token {token} outside [0, {self.cfg.vocab_size})")
        xe = self.params["pred.emb"].data[int(token)]
        h = np.asarray(state, dtype=self.np_dtype)
        return tz.gru_cell(xe, h, *[w.data for w in self._gru_weights])[-1]

    def pred_sequence(self, targets) -> Tensor:
        """Differentiable predictor states for training: [U+1, P] for one
        target sequence, or [B, U+1, P] for a [B, U] array of B sequences
        (padded rows: states past a sequence's end are never read)."""
        y = np.asarray(targets, dtype=np.int64)
        if y.ndim != 2:
            y = y.reshape(-1)
        if y.size and (y.min() < 0 or y.max() >= self.cfg.vocab_size):
            raise BadTokenError("target ids outside the vocabulary")
        emb = tz.embedding(self.params["pred.emb"], y)
        return tz.gru_sequence(emb, self.params["pred.h0"], *self._gru_weights)

    # -- joint --------------------------------------------------------------

    def joint(self, enc: Tensor, pred: Tensor) -> Tensor:
        """Joint lattice logits: [T, U+1, V] from enc [T, d] and pred [U+1, P];
        batched, [N, T, U+1, V] from enc [N, T, d] and pred [N', U+1, P]
        with N a multiple of N', lattice n reading pred[n % N']."""
        p = self.params
        # the bias joins the encoder side, before the lattice-sized sum
        a = tz.linear(enc, p["joint.w_enc"], p["joint.b"])
        b = tz.linear(pred, p["joint.w_pred"])
        h = tz.tanh(tz.outer_add(a, b))
        # the output product on 2-D rows, one BLAS product over every cell
        flat = tz.linear(tz.reshape(h, (-1, h.shape[-1])), p["joint.w_out"])
        return tz.reshape(flat, h.shape[:-1] + (self.cfg.vocab_size,))

    def joint_vec(self, enc_vec: np.ndarray, pred_vec: np.ndarray) -> np.ndarray:
        """Single-cell joint logits on plain arrays, for greedy decoding."""
        p = self.params
        h = np.tanh(enc_vec @ p["joint.w_enc"].data
                    + pred_vec @ p["joint.w_pred"].data + p["joint.b"].data)
        return h @ p["joint.w_out"].data

    def config_dict(self) -> dict:
        return asdict(self.cfg)
