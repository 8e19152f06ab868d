"""Unified training loops, optimizer, LR schedule and checkpointing.

Single-mode training samples one mode per step (offline with probability
p_off, else streaming with a freshly sampled context spec) and optimizes the
transducer loss of that mode.  Dual-mode training runs both modes on the same
batch and optimizes ``alpha * L_off + (1 - alpha) * L_str + lam * L_mcr``;
the consistency term exists only in dual mode.  Per-utterance graphs share
one tape so the consistency gradients couple the two forwards; batch
reduction is a mean applied through the backward seed.

Checkpoints: magic + format version + a JSON header (model config, step,
optimizer metadata, rng state) + raw little-endian float32 parameter blobs in
declaration order, then optimizer moment blobs.  Roundtrips are bit exact for
float32 models.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .contexts import ContextSets, sample_context
from .corpus import Utterance
from .errors import (CorruptCheckpointError, EmptyBatchError, NumericalError,
                     VersionMismatchError)
from .mcr import MCRConfig, mcr_backward, mcr_forward
from .model import OFFLINE, ModelConfig, TransducerModel, streaming_mode
from .rnnt_loss import JointLogits, rnnt_forward_single
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
    log_every: int = 1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.warmup_steps > self.steps:
            raise ValueError("warmup_steps must not exceed steps")
        if self.max_lr <= 0:
            raise ValueError("max_lr must be positive")
        if self.min_lr < 0 or self.min_lr > self.max_lr:
            raise ValueError("need 0 <= min_lr <= max_lr")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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
    """Adaptive-moment optimizer with decoupled weight decay."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        if lr is not None:
            self.lr = lr
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= self.lr * (update + self.weight_decay * p.data)


def clip_global_norm(params: list[Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


def sample_mode(rng: np.random.Generator, weights: ModeWeights) -> str:
    return "offline" if rng.random() < weights.p_off else "streaming"


# ---------------------------------------------------------------------------
# loss nodes bridging the analytic losses onto the tape
# ---------------------------------------------------------------------------


def rnnt_loss_node(z: Tensor, targets: np.ndarray) -> Tensor:
    """Scalar transducer loss whose backward injects the analytic gradient."""
    loss, grad = rnnt_forward_single(z.data, targets)
    out = Tensor(np.asarray(loss, dtype=np.float64), requires_grad=z.requires_grad)
    tape = tz.active_tape()
    if tape is not None and z.requires_grad:
        def bwd():
            g = out.grad
            if g is None:
                return
            z.accum_grad(grad * float(g))
        tape.record("rnnt_loss", bwd)
    return out


def mcr_loss_node(z_off: Tensor, z_str: Tensor, cfg: MCRConfig,
                  targets: np.ndarray | None = None) -> Tensor:
    """Scalar consistency loss; backward recomputes grads from raw logits.

    ``targets`` is unused: the full-joint loss does not read the labels.
    """
    jl_off = JointLogits.from_single(z_off.data)
    jl_str = JointLogits.from_single(z_str.data)
    loss, _cells = mcr_forward(jl_off, jl_str, cfg)
    out = Tensor(np.asarray(loss, dtype=np.float64),
                 requires_grad=z_off.requires_grad or z_str.requires_grad)
    tape = tz.active_tape()
    if tape is not None and out.requires_grad:
        def bwd():
            g = out.grad
            if g is None:
                return
            res = mcr_backward(jl_off, jl_str, cfg, seed=float(g))
            if z_off.requires_grad:
                z_off.accum_grad(res.grad_offline[0])
            if z_str.requires_grad:
                z_str.accum_grad(res.grad_streaming[0])
        tape.record("mcr_loss", bwd)
    return out


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------


def _check_finite(value: float, step: int, what: str) -> None:
    if not math.isfinite(value):
        raise NumericalError(f"non-finite {what} at step {step}")


def train_step_sm(model: TransducerModel, batch: list[Utterance],
                  rng: np.random.Generator, cfg: TrainConfig, opt: AdamW,
                  step: int) -> dict:
    """One single-mode step: sample the mode, one forward/backward, update."""
    if not batch:
        raise EmptyBatchError("empty batch")
    mode_name = sample_mode(rng, cfg.mode_weights)
    if mode_name == "offline":
        mode = OFFLINE
        spec = None
    else:
        spec = sample_context(cfg.context_sets, rng)
        mode = streaming_mode(spec)
    B = len(batch)
    total = 0.0
    opt.zero_grad()
    for utt in batch:
        with Tape() as tape:
            pred = model.pred_sequence(utt.tokens)
            enc = model.encode(utt.features, mode)
            z = model.joint(enc, pred)
            loss = rnnt_loss_node(z, utt.tokens)
            tape.backward(loss, seed=1.0 / B)
        total += loss.item() / B
    _check_finite(total, step, "loss")
    grad_norm = clip_global_norm(model.parameters(), cfg.clip_norm)
    lr = cosine_lr(step, cfg)
    opt.step(lr=lr)
    report = {"step": step, "strategy": "single_mode", "lr": lr,
              "mode": mode_name, "loss": total, "grad_norm": grad_norm}
    if spec is not None:
        report["spec"] = [spec.left, spec.chunk, spec.right]
    return report


def train_step_dm(model: TransducerModel, batch: list[Utterance],
                  rng: np.random.Generator, cfg: TrainConfig, opt: AdamW,
                  step: int) -> dict:
    """One dual-mode step: both modes on the same batch plus consistency."""
    if not batch:
        raise EmptyBatchError("empty batch")
    spec = sample_context(cfg.context_sets, rng)
    mode_str = streaming_mode(spec)
    alpha = cfg.mode_weights.alpha
    lam = cfg.mcr.lam
    B = len(batch)
    loss_off = loss_str = loss_mcr = 0.0
    opt.zero_grad()
    for utt in batch:
        with Tape() as tape:
            pred = model.pred_sequence(utt.tokens)
            z_off = model.joint(model.encode(utt.features, OFFLINE), pred)
            z_str = model.joint(model.encode(utt.features, mode_str), pred)
            l_off = rnnt_loss_node(z_off, utt.tokens)
            l_str = rnnt_loss_node(z_str, utt.tokens)
            terms = [(l_off, alpha), (l_str, 1.0 - alpha)]
            if lam > 0.0:
                l_mcr = mcr_loss_node(z_off, z_str, cfg.mcr)
                terms.append((l_mcr, lam))
                loss_mcr += l_mcr.item() / B
            total_u = tz.weighted_sum(terms)
            tape.backward(total_u, seed=1.0 / B)
        loss_off += l_off.item() / B
        loss_str += l_str.item() / B
    total = alpha * loss_off + (1.0 - alpha) * loss_str + lam * loss_mcr
    _check_finite(total, step, "loss")
    grad_norm = clip_global_norm(model.parameters(), cfg.clip_norm)
    lr = cosine_lr(step, cfg)
    opt.step(lr=lr)
    return {"step": step, "strategy": "dual_mode", "lr": lr,
            "spec": [spec.left, spec.chunk, spec.right],
            "loss_off": loss_off, "loss_str": loss_str, "loss_mcr": loss_mcr,
            "total": total, "grad_norm": grad_norm}


def run_training(model: TransducerModel, utterances: list[Utterance],
                 cfg: TrainConfig, metrics_path=None, checkpoint_path=None,
                 start_step: int = 0, opt: AdamW | None = None,
                 rng: np.random.Generator | None = None) -> dict:
    """Drive train steps from start_step + 1 through cfg.steps.

    Per step the rng draws, in order: batch indices, then mode
    (single mode) or context spec.  Appends one JSON record per step to
    ``metrics_path`` and writes a final checkpoint, with the rng state, if
    requested.
    """
    if not utterances:
        raise EmptyBatchError("training corpus is empty")
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
            if cfg.strategy == "single_mode":
                report = train_step_sm(model, batch, rng, cfg, opt, step)
            else:
                report = train_step_dm(model, batch, rng, cfg, opt, step)
            report["wall_ms"] = (time.perf_counter() - t0) * 1000.0
            last = report
            if log_fh and step % cfg.log_every == 0:
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
    """Write the checkpoint to a temp file in the same directory, then rename
    it over ``path``, so a failed write leaves the previous file intact."""
    if model.cfg.dtype != "float32":
        raise ValueError("checkpoints store float32 blobs; model dtype must be float32")
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
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _name, p in model.param_items():
                fh.write(p.data.astype("<f4", copy=False).tobytes())
            if optimizer is not None:
                for buf in optimizer.m + optimizer.v:
                    fh.write(buf.astype("<f4", copy=False).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
        have = {name: p.shape for name, p in model.param_items()}
        if stored != have:
            raise VersionMismatchError("parameter layout mismatch")
        for name, p in model.param_items():
            raw = _read_exact(fh, p.data.size * 4, f"parameter {name}")
            p.data = np.frombuffer(raw, dtype="<f4").reshape(p.shape).copy()
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
            for buf_list in (opt.m, opt.v):
                for i, buf in enumerate(buf_list):
                    raw = _read_exact(fh, buf.size * 4, "optimizer state")
                    buf_list[i] = np.frombuffer(raw, dtype="<f4").reshape(buf.shape).astype(buf.dtype)
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
