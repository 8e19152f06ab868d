"""Toy unified transducer: encoder, predictor and additive joint network.

One parameter set serves both offline and streaming forward passes.  Offline
mode is full-context streaming: the spec ``(T, T, 0)`` at offset 0, one chunk
that spans the whole utterance, so it gives an all-true attention mask and
the whole-sequence convolution.  Streaming mode masks attention to the
chunk's context; its convolution is the one depthwise convolution with a
per-row read horizon: the buffer end (``conv_right_mode="real"``) or the
row's chunk end (``"zero"``).

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
from .contexts import ContextSpec, build_attention_mask, plan_conv_chunks
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


@dataclass(frozen=True)
class ModeSelector:
    """Offline, or streaming with a context spec and convolution right mode."""

    kind: str
    spec: ContextSpec | None = None
    conv_right_mode: str = "real"

    def __post_init__(self):
        if self.kind not in ("offline", "streaming"):
            raise ValueError("mode kind must be 'offline' or 'streaming'")
        if self.kind == "streaming" and self.spec is None:
            raise ValueError("streaming mode requires a ContextSpec")
        if self.conv_right_mode not in ("real", "zero"):
            raise ValueError("conv_right_mode must be 'real' or 'zero'")


OFFLINE = ModeSelector("offline")

# gated recurrent predictor weights, in the argument order of tensor.gru_cell
GRU_WEIGHTS = ("wz", "uz", "bz", "wr", "ur", "br", "wc", "uc", "bc")


def streaming_mode(spec: ContextSpec, conv_right_mode: str = "real") -> ModeSelector:
    return ModeSelector("streaming", spec, conv_right_mode)


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

    def _context_for(self, T: int, mode: ModeSelector, offset: int) -> tuple:
        """Cached attention mask and convolution read horizon for one encode.

        Both depend on the offset only through ``offset % chunk``, so the
        cache keeps at most ``chunk`` entries per buffer length and spec.
        """
        if mode.kind == "offline":
            spec, offset = ContextSpec(T, T, 0), 0
        else:
            spec = mode.spec
        offset %= spec.chunk
        key = (T, spec, mode.conv_right_mode, offset)
        if key not in self._context_cache:
            mask = build_attention_mask(T, spec, offset=offset)
            horizon = plan_conv_chunks(T, spec, mode.conv_right_mode, offset=offset)
            for arr in (mask, horizon):
                if arr is not None:
                    arr.flags.writeable = False
            self._context_cache[key] = (mask, horizon)
        return self._context_cache[key]

    def encode(self, features: np.ndarray, mode: ModeSelector = OFFLINE,
               grid_offset: int = 0) -> Tensor:
        """Frame-stack subsample then run the masked encoder blocks.

        ``grid_offset`` anchors chunk boundaries to the global frame grid when
        encoding a re-extracted decode window.
        """
        feats = np.asarray(features, dtype=self.np_dtype)
        if feats.ndim != 2 or feats.shape[1] != self.cfg.feat_dim:
            raise ValueError(f"features must be [T_in, {self.cfg.feat_dim}]")
        q = self.cfg.subsample_factor
        T = feats.shape[0] // q
        if T < 1:
            raise InputTooShortError(
                f"{feats.shape[0]} frames < subsample factor {q}")
        p = self.params
        x = tz.constant(feats[:T * q].reshape(T, q * self.cfg.feat_dim))
        x = tz.linear(x, p["in_proj.w"], p["in_proj.b"])
        mask, horizon = self._context_for(T, mode, grid_offset)
        for i in range(self.cfg.blocks):
            pre = f"block{i}."
            a = tz.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
            attn = tz.masked_attention(
                tz.linear(a, p[pre + "attn.wq"], p[pre + "attn.bq"]),
                tz.linear(a, p[pre + "attn.wk"]),
                tz.linear(a, p[pre + "attn.wv"], p[pre + "attn.bv"]),
                mask, self.cfg.heads)
            x = tz.add(x, tz.linear(attn, p[pre + "attn.wo"], p[pre + "attn.bo"]))
            c = tz.layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            conv = tz.depthwise_conv1d_windows(c, p[pre + "conv.kernel"], horizon)
            h = tz.relu(tz.linear(conv, p[pre + "ff1.w"], p[pre + "ff1.b"]))
            f = tz.linear(h, p[pre + "ff2.w"], p[pre + "ff2.b"])
            x = tz.add(x, f)
        return x

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
