"""Unified training step, optimizer, LR schedule and checkpointing.

A mode is a ``ContextSpec | None`` (None is offline), and one step is a list
of (mode, weight) terms drawn by :func:`step_modes`.  Single mode draws one
mode of weight 1: offline with probability p_off, else a freshly sampled
context spec.  Dual mode runs ``[(None, alpha), (spec, 1 - alpha)]`` on the
same batch, plus ``lam * L_mcr`` when ``lam > 0``; the consistency term
exists only in dual mode.  :func:`train_step` optimizes the weighted sum of
the terms' transducer losses, each a mean over the batch.  A step is one
graph on one tape (:func:`batch_objective`): one stacked encode of all
(mode, utterance) segments, one predictor pass over the padded targets, one
padded joint of all the step's lattices, one transducer node over them and
one consistency node, which couples the two modes' lattices of each
utterance.  Both loss nodes compute their gradients in the forward pass and
only scale them in the backward.  The optimizer keeps every parameter,
gradient and moment in one flat buffer (:class:`AdamW`), so clipping and
the update are a few whole-buffer calls.  Every step reports ``loss_off``
and/or ``loss_str`` (one per mode run), ``loss_mcr`` in dual mode, ``spec``
when a streaming mode ran, and ``total``.

Checkpoints: magic + format version + a JSON header (model config, step,
optimizer metadata, rng state) + raw little-endian parameter blobs in the
model's dtype (float32 or float64, read back from the header's model config)
in declaration order, then optimizer moment blobs, one per parameter.
Loading writes the moments into the new optimizer's buffer.  Roundtrips are
bit exact.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as tz
from .contexts import ContextSets, ContextSpec, sample_context
from .corpus import Utterance, _check_number_fields, atomic_write
from .errors import (CorruptCheckpointError, EmptyBatchError, InputTooShortError,
                     NonFiniteInputError, NumericalError, VersionMismatchError)
# perfbench/spans.py patches mcr_forward, mcr_backward and rnnt_forward_single here
from .mcr import MCRConfig, mcr_backward, mcr_forward
from .model import ModelConfig, TransducerModel
from .rnnt_loss import JointLogits, rnnt_forward_single, rnnt_loss
from .tensor import Tape, Tensor

CHECKPOINT_MAGIC = b"URNTCKPT"
CHECKPOINT_VERSION = 1
STRATEGIES = ("single_mode", "dual_mode")


@dataclass(frozen=True)
class ModeWeights:
    """alpha weights the offline loss in dual mode; p_off is the single-mode
    probability of drawing the offline mode."""

    alpha: float = 0.5
    p_off: float = 0.5

    def __post_init__(self):
        _check_number_fields(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.p_off <= 1.0:
            raise ValueError("p_off must be in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = "dual_mode"
    mode_weights: ModeWeights = field(default_factory=ModeWeights)
    mcr: MCRConfig = field(default_factory=MCRConfig)
    context_sets: ContextSets = field(
        default_factory=lambda: ContextSets.from_nested([[70], [1, 2, 7, 13],
                                                         [0, 1, 2, 3, 5, 7, 13, 26]]))
    steps: int = 2000
    warmup_steps: int = 100
    max_lr: float = 2e-3
    min_lr: float = 2e-4
    batch_size: int = 4
    seed: int = 0
    weight_decay: float = 1e-4
    clip_norm: float = 5.0

    def __post_init__(self):
        _check_number_fields(self)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if not 0 <= self.warmup_steps <= self.steps:
            raise ValueError("need 0 <= warmup_steps <= steps")
        if not 0 < self.max_lr < math.inf:
            raise ValueError("max_lr must be finite and positive")
        if not 0 <= self.min_lr <= self.max_lr:
            raise ValueError("need 0 <= min_lr <= max_lr")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if not 0 <= self.clip_norm < math.inf:
            raise ValueError("clip_norm must be finite and >= 0 (0 turns clipping off)")


def cosine_lr(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to max_lr, cosine decay to min_lr, clamp past the end."""
    if step > cfg.steps:
        return cfg.min_lr
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.max_lr * step / cfg.warmup_steps
    span = cfg.steps - cfg.warmup_steps
    if span <= 0:
        return cfg.max_lr
    progress = (step - cfg.warmup_steps) / span
    return cfg.min_lr + 0.5 * (cfg.max_lr - cfg.min_lr) * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay, over one flat buffer.

    The parameters (which share one dtype), their gradients and both
    moments live in four contiguous rows of one array, in parameter order.
    Each ``p.data``, ``p.grad``, ``m[i]`` and ``v[i]`` is a view of its
    row, so an update, a clip or a zeroing is a few whole-buffer calls, and
    each element takes the arithmetic of a per-parameter loop, bit for bit.
    A ``p.data`` or ``p.grad`` rebound to another array (or a grad set to
    None, which counts as zero) is copied into the buffer and bound to its
    view again before the buffer is read.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        b1, b2 = (float(b) for b in betas)
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if not eps > 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.params = list(params)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        self.lr = float(lr)
        self.betas = (b1, b2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        sizes = [p.data.size for p in self.params]
        ends = np.cumsum(sizes, dtype=np.int64)
        self._flat = np.zeros((4, int(ends[-1]) if sizes else 0), dtype=dtypes.pop() if dtypes
                              else np.float64)
        self._scratch = np.empty((2, self._flat.shape[1]), dtype=self._flat.dtype)
        data, grad, m, v = (
            [row[e - n:e].reshape(p.data.shape) for p, n, e in zip(self.params, sizes, ends)]
            for row in self._flat)
        for p, view in zip(self.params, data):
            view[...] = p.data
        self._views = list(zip(self.params, data, grad))
        self.m, self.v = m, v
        self._bind()

    def _bind(self) -> None:
        """Make every ``p.data`` and ``p.grad`` the view of its buffer row,
        copying in any array bound since."""
        for p, data, grad in self._views:
            if p.data is not data:
                data[...] = p.data
                p.data = data
            if p.grad is not grad:
                if p.grad is None:
                    grad.fill(0.0)
                else:
                    grad[...] = p.grad
                p.grad = grad

    def grad_buffer(self) -> np.ndarray:
        """Every parameter's gradient, as one flat array that they all view."""
        self._bind()
        return self._flat[1]

    def zero_grad(self) -> None:
        self._flat[1].fill(0.0)
        for p, _data, grad in self._views:
            p.grad = grad

    def step(self, lr: float | None = None) -> None:
        if lr is not None:
            self.lr = float(lr)
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        self._bind()
        w, g, m, v = self._flat
        a, b = self._scratch
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(g, g, out=a)
        a *= 1.0 - b2
        v += a
        # w -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd w)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, bc1, out=b)
        b /= a
        np.multiply(w, self.weight_decay, out=a)
        b += a
        b *= self.lr
        w -= b


def clip_global_norm(opt: AdamW, max_norm: float) -> float:
    """Scale the gradients in ``opt``'s flat buffer so that their global
    2-norm is at most ``max_norm`` (0 means no clipping); returns the norm
    before scaling."""
    grad = opt.grad_buffer()
    flat = grad.astype(np.float64)
    norm = math.sqrt(float(np.dot(flat, flat)))
    if max_norm > 0 and norm > max_norm:
        grad *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# loss nodes bridging the analytic losses onto the tape
# ---------------------------------------------------------------------------


def _loss_node(name: str, lattices: Sequence[Tensor], value, grad: np.ndarray) -> Tensor:
    """A loss computed with its logits gradient in the forward pass.

    ``grad`` is over the lattices of ``lattices`` stacked on one batch axis
    (a 3-D tensor is one lattice).  ``value`` is a scalar, or one loss per
    lattice; the backward scales ``grad`` by the upstream gradient, per
    lattice for a vector, and hands each tensor its rows.
    """
    out = Tensor(np.asarray(value, dtype=np.float64),
                 requires_grad=any(z.requires_grad for z in lattices))
    tape = tz.active_tape()
    if tape is not None and out.requires_grad:
        def backward(g):
            scaled = grad * (g[:, None, None, None] if g.ndim else float(g))
            start = 0
            for z in lattices:
                n = z.shape[0] if z.data.ndim == 4 else 1
                if z.requires_grad:
                    z.accum_grad(scaled[start:start + n].reshape(z.shape))
                start += n
        tape.record_output(name, out, backward)
    return out


def rnnt_loss_node(z: Tensor, targets, lengths=None) -> Tensor:
    """Transducer losses of the lattices of ``z``, each with its analytic gradient.

    ``z`` is a padded [N, T, U+1, V] batch with ``lengths`` ``(t_len,
    u_len)`` and N target sequences, giving [N] losses; a single
    [T, U+1, V] lattice with its target sequence is the batch of one and
    gives a scalar.
    """
    if z.data.ndim == 3:
        T, U1, _V = z.shape
        losses, grad = rnnt_loss(JointLogits(z.data[None], [T], [U1 - 1]), [targets])
        return _loss_node("rnnt_loss", [z], losses[0], grad)
    losses, grad = rnnt_loss(JointLogits(z.data, *lengths), targets)
    return _loss_node("rnnt_loss", [z], losses, grad)


def consistency_node(lattices: Sequence[Tensor], cfg: MCRConfig, lengths=None) -> Tensor:
    """Scalar batch-reduced consistency loss between two modes' lattices.

    The lattices of ``lattices``, on one batch axis, are B offline lattices
    then the B streaming ones of the same utterances, with ``lengths``
    ``(t_len, u_len)`` of the B utterances (whole lattices when None).  The
    loss and both gradients come from one ``mcr_backward`` in the forward
    pass; the backward only scales them.
    """
    parts = [z.data if z.data.ndim == 4 else z.data[None] for z in lattices]
    z = parts[0] if len(parts) == 1 else np.concatenate(parts)
    B = z.shape[0] // 2
    if lengths is None:
        lengths = ([z.shape[1]] * B, [z.shape[2] - 1] * B)
    res = mcr_backward(JointLogits(z[:B], *lengths), JointLogits(z[B:], *lengths), cfg)
    grad = np.concatenate([res.grad_offline, res.grad_streaming])
    return _loss_node("mcr_loss", lattices, res.loss, grad)


def mcr_loss_node(z_off: Tensor, z_str: Tensor, cfg: MCRConfig,
                  targets: np.ndarray | None = None) -> Tensor:
    """One utterance's consistency loss: :func:`consistency_node` on a batch of one.

    ``targets`` is unused (perfbench/bench.py passes it): the full-joint
    loss does not read the labels.
    """
    return consistency_node([z_off, z_str], cfg)


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------


def step_modes(rng: np.random.Generator,
               cfg: TrainConfig) -> list[tuple[ContextSpec | None, float]]:
    """The (mode, weight) terms of one step; draws from ``rng``.

    Single mode: one mode of weight 1, offline with probability p_off, else
    a sampled spec.  Dual mode: offline with weight alpha, then a sampled
    spec with weight 1 - alpha.
    """
    weights = cfg.mode_weights
    if cfg.strategy == "dual_mode":
        spec = sample_context(cfg.context_sets, rng)
        return [(None, weights.alpha), (spec, 1.0 - weights.alpha)]
    if rng.random() < weights.p_off:
        return [(None, 1.0)]
    return [(sample_context(cfg.context_sets, rng), 1.0)]


def batch_objective(model: TransducerModel, batch: list[Utterance],
                    modes: list[tuple[ContextSpec | None, float]],
                    cfg: TrainConfig) -> tuple[Tensor, Tensor, Tensor | None]:
    """The step's objective on the active tape, as one graph.

    One stacked encode of every (mode, utterance) segment, mode-major, one
    predictor pass over the padded targets, one padded joint of all M·B
    lattices, one transducer node over them and, for two modes with
    ``lam > 0``, one consistency node.  The objective is the batch mean of
    each mode's weighted transducer loss plus ``lam`` times the consistency
    loss.  Returns it, the [M·B] transducer losses and the consistency loss
    (None when not run).
    """
    B = len(batch)
    targets = [np.asarray(utt.tokens, dtype=np.int64).reshape(-1) for utt in batch]
    u_len = np.array([y.size for y in targets])
    padded = np.zeros((B, u_len.max()), dtype=np.int64)
    for row, y in zip(padded, targets):
        row[:y.size] = y
    enc, t_len = model.encode_batch([utt.features for _ in modes for utt in batch],
                                    [spec for spec, _ in modes for _ in batch])
    z = model.joint(enc, model.pred_sequence(padded))
    rnnt = rnnt_loss_node(z, targets * len(modes), (t_len, np.tile(u_len, len(modes))))
    terms = [(rnnt, np.repeat([w / B for _, w in modes], B))]
    l_mcr = None
    if len(modes) == 2 and cfg.mcr.lam > 0.0:
        l_mcr = consistency_node([z], cfg.mcr, (t_len[:B], u_len))
        terms.append((l_mcr, cfg.mcr.lam))
    return tz.weighted_sum(terms), rnnt, l_mcr


def train_step(model: TransducerModel, batch: list[Utterance],
               rng: np.random.Generator, cfg: TrainConfig, opt: AdamW,
               step: int) -> dict:
    """One step: every mode of ``step_modes`` on the same batch, plus the
    consistency loss between the two modes of a dual-mode step, as one
    graph (:func:`batch_objective`), then one update.  Non-finite logits or
    losses raise ``NumericalError``."""
    if not batch:
        raise EmptyBatchError("empty batch")
    modes = step_modes(rng, cfg)
    dual = len(modes) == 2
    B = len(batch)
    opt.zero_grad()
    try:
        with Tape() as tape:
            objective, rnnt, l_mcr = batch_objective(model, batch, modes, cfg)
            tape.backward(objective)
    except NonFiniteInputError as exc:
        raise NumericalError(f"non-finite logits at step {step}") from exc
    losses = [float(rnnt.data[m * B:(m + 1) * B].mean()) for m in range(len(modes))]
    loss_mcr = 0.0 if l_mcr is None else l_mcr.item()
    total = sum(w * loss for (_, w), loss in zip(modes, losses)) + cfg.mcr.lam * loss_mcr
    if not math.isfinite(total):
        raise NumericalError(f"non-finite loss at step {step}")
    grad_norm = clip_global_norm(opt, cfg.clip_norm)
    lr = cosine_lr(step, cfg)
    opt.step(lr=lr)
    report = {"step": step, "strategy": cfg.strategy, "lr": lr}
    for (spec, _w), loss in zip(modes, losses):
        if spec is None:
            report["loss_off"] = loss
        else:
            report["spec"] = [spec.left, spec.chunk, spec.right]
            report["loss_str"] = loss
    if dual:
        report["loss_mcr"] = loss_mcr
    report.update(total=total, grad_norm=grad_norm)
    return report


train_step_dm = train_step  # perfbench/bench.py imports this name


def check_training_corpus(utterances: list[Utterance], subsample_factor: int) -> None:
    """Reject a training corpus before any work: ``EmptyBatchError`` when it
    holds no utterance, ``InputTooShortError`` naming the first utterance
    shorter than one encoder frame (``subsample_factor`` raw frames), which
    would fail whichever step first draws it."""
    if not utterances:
        raise EmptyBatchError("training corpus is empty")
    for utt in utterances:
        if len(utt.features) < subsample_factor:
            raise InputTooShortError(f"utterance {utt.id}: {len(utt.features)} frames "
                                     f"< subsample factor {subsample_factor}")


def run_training(model: TransducerModel, utterances: list[Utterance],
                 cfg: TrainConfig, metrics_path=None, checkpoint_path=None,
                 start_step: int = 0, opt: AdamW | None = None,
                 rng: np.random.Generator | None = None) -> dict:
    """Drive train steps from start_step + 1 through cfg.steps.

    Per step the rng draws, in order: batch indices, then the draws of
    ``step_modes``.  Appends one JSON record per step to
    ``metrics_path`` and writes a final checkpoint, with the rng state, if
    requested.  A corpus :func:`check_training_corpus` rejects, or a
    ``start_step`` past ``cfg.steps`` (the checkpoint would store the wrong
    step), raises before any step or write.
    """
    check_training_corpus(utterances, model.cfg.subsample_factor)
    if start_step > cfg.steps:
        raise ValueError(f"cannot resume at step {start_step} past train.steps {cfg.steps}")
    if opt is None:
        opt = AdamW(model.parameters(), lr=cfg.max_lr,
                    weight_decay=cfg.weight_decay)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    log_fh = open(metrics_path, "a") if metrics_path else None
    last = {}
    try:
        for step in range(start_step + 1, cfg.steps + 1):
            t0 = time.perf_counter()
            idx = rng.integers(0, len(utterances), size=cfg.batch_size)
            batch = [utterances[int(i)] for i in idx]
            report = train_step(model, batch, rng, cfg, opt, step)
            report["wall_ms"] = (time.perf_counter() - t0) * 1000.0
            last = report
            if log_fh:
                log_fh.write(json.dumps(report) + "\n")
    finally:
        if log_fh:
            log_fh.close()
    if checkpoint_path:
        save_checkpoint(checkpoint_path, model, step=cfg.steps, optimizer=opt, rng=rng)
    return last


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: TransducerModel, step: int = 0,
                    optimizer: AdamW | None = None,
                    rng: np.random.Generator | None = None) -> None:
    """Write the checkpoint atomically: a failed write leaves the previous
    file intact."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": model.config_dict(),
        "step": int(step),
        "params": [{"name": name, "shape": list(p.shape)}
                   for name, p in model.param_items()],
        "optimizer": None,
        "rng_state": None if rng is None else rng.bit_generator.state,
    }
    if optimizer is not None:
        header["optimizer"] = {"t": optimizer.t, "betas": list(optimizer.betas),
                               "eps": optimizer.eps,
                               "weight_decay": optimizer.weight_decay,
                               "lr": optimizer.lr}
    blob = json.dumps(header).encode("utf-8")
    le = np.dtype(model.cfg.dtype).newbyteorder("<")     # the blobs' dtype
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _name, p in model.param_items():
            fh.write(p.data.astype(le, copy=False).tobytes())
        if optimizer is not None:
            for buf in optimizer.m + optimizer.v:
                fh.write(buf.astype(le, copy=False).tobytes())

def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CorruptCheckpointError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path, expected_config: ModelConfig | None = None
                    ) -> tuple[TransducerModel, int, AdamW | None,
                               np.random.Generator | None]:
    """Model, step, optimizer (if stored) and training rng (if stored)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CorruptCheckpointError("bad checkpoint magic")
        version = struct.unpack("<I", _read_exact(fh, 4, "version"))[0]
        if version != CHECKPOINT_VERSION:
            raise VersionMismatchError(
                f"checkpoint format {version}, expected {CHECKPOINT_VERSION}")
        hlen = struct.unpack("<Q", _read_exact(fh, 8, "header length"))[0]
        try:
            header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptCheckpointError(f"unreadable header: {exc}") from exc
        try:
            stored_cfg, step = header["model_config"], int(header["step"])
            stored = {e["name"]: tuple(e["shape"]) for e in header["params"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptCheckpointError(f"incomplete header: {exc!r}") from exc
        try:
            cfg = ModelConfig(**stored_cfg)
        except (TypeError, ValueError) as exc:
            raise VersionMismatchError(f"stored model config does not load: {exc}") from exc
        if expected_config is not None and cfg != expected_config:
            raise VersionMismatchError(
                f"stored model config {cfg} does not match expected {expected_config}")
        model = TransducerModel(cfg)
        le = np.dtype(cfg.dtype).newbyteorder("<")
        have = {name: p.shape for name, p in model.param_items()}
        if stored != have:
            raise VersionMismatchError("parameter layout mismatch")
        for name, p in model.param_items():
            raw = _read_exact(fh, p.data.size * le.itemsize, f"parameter {name}")
            p.data = np.frombuffer(raw, dtype=le).reshape(p.shape).copy()
        opt = None
        if header.get("optimizer"):
            meta = header["optimizer"]
            try:
                opt = AdamW(model.parameters(), lr=meta["lr"],
                            betas=tuple(meta["betas"]), eps=meta["eps"],
                            weight_decay=meta["weight_decay"])
                opt.t = int(meta["t"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptCheckpointError(f"incomplete optimizer header: {exc!r}") from exc
            for buf in opt.m + opt.v:
                raw = _read_exact(fh, buf.size * le.itemsize, "optimizer state")
                buf[...] = np.frombuffer(raw, dtype=le).reshape(buf.shape)
        trailing = fh.read(1)
        if trailing:
            raise CorruptCheckpointError("trailing bytes after checkpoint payload")
    rng = None
    if header.get("rng_state") is not None:
        bit_gen = np.random.PCG64()
        try:
            bit_gen.state = header["rng_state"]
        except (TypeError, ValueError, KeyError) as exc:
            raise CorruptCheckpointError(f"unreadable rng state: {exc}") from exc
        rng = np.random.Generator(bit_gen)
    return model, step, opt, rng
