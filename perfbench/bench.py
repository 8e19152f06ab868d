"""The repository benchmark: workloads, correctness gates and metrics.

Every run executes the same pipeline in one process, one operation at a time
in a closed loop (one client; the next operation starts when the previous one
returns):

1. set-up: synthetic corpora and model init, drawn from the seed;
   repeated ``setup_repeats`` times, the median is reported;
2. training of the decode model: ``train_steps`` calls of ``train_step_dm``
   (``dm_mcr`` at ``experiments.toy_setup()``), then a frozen copy is taken;
3. one full decode pass of the eval corpus with the frozen copy, offline and
   at every ``(C, R)`` of ``toy_setup().eval_specs``: TER and the reference
   tokens;
4. measured rounds.  Each stage owns a set of *positions*, distinct
   operations that are each run ``repeats`` times: a train step on a fixed
   batch (training continues on the live model), the decode of one eval
   utterance at one spec (frozen model), a loss-head call on one batch of
   the frozen model's own lattices.  The call sequence of every stage is
   spread evenly over ``rounds`` interleaved rounds, so the repeats of one
   position lie seconds apart.

A position's latency is the fastest of its repeats; medians are taken over
positions, tails over every repeat.  On a shared machine, contention from
other tenants arrives in bursts of seconds that slow everything by up to
~1.5x; repeats seconds apart let a position's latency be read outside such
a burst, which is what makes the figures repeat between processes.

The workload names the stage that gets more positions and repeats (scaled by
``--seconds``); the other stages still run at a fixed small size, so every
run reports every metric.  Work is a
count fixed by the seed and ``--seconds``, never a time limit, so counts
repeat exactly.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from unify_rnnt import errors, experiments
from unify_rnnt import tensor as tz
from unify_rnnt.contexts import ContextSpec
from unify_rnnt.corpus import generate_utterances
from unify_rnnt.decoding import decode_mode, token_error_rate
from unify_rnnt.gradcheck import max_rel_error
from unify_rnnt.mcr import MCRConfig, mcr_loss, mcr_naive_oracle
from unify_rnnt.memtrack import MemoryMeter
from unify_rnnt.model import OFFLINE, TransducerModel, streaming_mode
from unify_rnnt.rnnt_loss import (ORACLE_MAX_T, ORACLE_MAX_U, JointLogits,
                                  rnnt_bruteforce_oracle, rnnt_loss)
from unify_rnnt.tensor import Tape
from unify_rnnt.training import AdamW, mcr_loss_node, rnnt_loss_node, train_step_dm

from spans import BACKWARD_ONLY_OPS, TENSOR_OPS, Instrumentation, Recorder

# every documented failure of the package; anything else is a benchmark bug
PACKAGE_ERRORS = tuple(v for v in vars(errors).values()
                       if isinstance(v, type) and issubclass(v, Exception)
                       and v.__module__ == errors.__name__)

TAIL_BEYOND = 10
# kind suffix of the operations a traced run times with the wrappers removed
PLAIN = ".plain"


@dataclass(frozen=True)
class Sizes:
    """Work per run, apart from what the workload scales with ``--seconds``."""

    n_train: int = 3000
    n_eval: int = 160
    setup_repeats: int = 8
    # dm_mcr steps that train the decode model: at 600 steps (the schedule of
    # toy_setup(steps=600)) greedy decoding emits ~6.6-7.5 tokens per
    # utterance against ~7.4 in the references, near the ~7.1 of the full
    # 2000 steps; at 150 steps it emitted ~3 (TER ~0.7)
    train_steps: int = 600
    rounds: int = 8
    # (stage, positions, repeats) of the stages that are not the workload's own
    minor: tuple = (("train", 24, 8), ("decode", 20, 8), ("head", 32, 8))
    gradcheck_entries: int = 4


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str              # the stage that gets the scaled work
    positions: int          # positions of that stage
    repeats_per_s: float    # its repeats per second of --seconds (at least 2)


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("train_dual", "train", positions=48, repeats_per_s=0.54),
    Workload("decode_stream", "decode", positions=48, repeats_per_s=0.54),
)}


def stage_plan(workload: Workload, sizes: Sizes, seconds: float) -> dict:
    """``{stage: (positions, repeats)}`` for one run."""
    plan = {stage: (n, k) for stage, n, k in sizes.minor}
    plan[workload.stage] = (workload.positions,
                            max(2, round(workload.repeats_per_s * seconds)))
    return plan


@dataclass
class Outcome:
    """Counts of attempted and failed operations and gates."""

    attempted: int = 0
    failed: int = 0
    gates: int = 0
    gates_failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def gate(self, ok: bool, what: str) -> None:
        self.op(ok, what)
        self.gates += 1
        self.gates_failed += not ok

    def ok_frac(self) -> float:
        """Operations that passed over those attempted; 0 when any gate failed."""
        if self.gates_failed:
            return 0.0
        ops = self.attempted - self.gates
        return (ops - self.failed) / max(1, ops)


def spec_label(spec: ContextSpec | None) -> str:
    return "offline" if spec is None else f"C{spec.chunk}R{spec.right}"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class State:
    setup: experiments.ToySetup
    seeds: dict
    train_utts: list
    eval_utts: list
    model: TransducerModel          # trained throughout the run
    cfg: object
    opt: AdamW
    rng: np.random.Generator
    heads: list = field(default_factory=list)   # [(JointLogits, JointLogits, targets)]
    decoder: TransducerModel | None = None      # frozen copy for decoding
    step: int = 0


def derive_seeds(seed: int) -> dict:
    """Independent non-negative seeds for each random input, from one seed."""
    names = ("train_corpus", "eval_corpus", "model", "train_rng", "positions")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {n: int(s.generate_state(1)[0]) for n, s in zip(names, children)}


def stratified_picks(rng, lengths, n: int, slots: int) -> np.ndarray:
    """``[n, slots]`` indices; slot ``s`` draws from the ``s``-th of ``slots``
    equal strata of the items sorted by length.

    Every row then spans short to long items, so the work of a row, and the
    spread of work over rows, changes little from seed to seed.
    """
    order = np.argsort(np.asarray(lengths), kind="stable")
    strata = np.array_split(order, slots)
    return np.stack([rng.choice(st, size=n, replace=len(st) < n) for st in strata], axis=1)


def quantile_picks(rng, lengths, reference, n: int) -> list[int]:
    """``n`` indices into ``lengths``: for each of ``n`` evenly spaced quantiles
    of ``reference``, a random item of the nearest length.

    ``reference`` is a large sample of the same length distribution, so the
    length mix of the picks, which sets their latency, stays put from seed to
    seed even when the corpus picked from is small (the median length of 160
    eval utterances moves by up to ±13% between seeds).
    """
    lengths = np.asarray(lengths)
    out = []
    for target in np.quantile(reference, (np.arange(n) + 0.5) / n):
        gap = np.abs(lengths - target)
        out.append(int(rng.choice(np.flatnonzero(gap == gap.min()))))
    return out


def model_heads(model: TransducerModel, groups: list, spec: ContextSpec) -> list:
    """Offline/streaming lattice pairs of the model itself, one padded batch per group."""
    out = []
    V = model.cfg.vocab_size
    mode = streaming_mode(spec)
    batch = len(groups[0])
    for group in groups:
        lattices = []
        for utt in group:
            pred = model.pred_sequence(utt.tokens)
            lattices.append((model.joint(model.encode(utt.features, OFFLINE), pred).data,
                             model.joint(model.encode(utt.features, mode), pred).data))
        T = max(z.shape[0] for z, _ in lattices)
        U1 = max(z.shape[1] for z, _ in lattices)
        pads = [np.zeros((batch, T, U1, V), dtype=lattices[0][0].dtype) for _ in range(2)]
        for b, pair in enumerate(lattices):
            for pad, z in zip(pads, pair):
                pad[b, :z.shape[0], :z.shape[1]] = z
        t_len = [z.shape[0] for z, _ in lattices]
        u_len = [z.shape[1] - 1 for z, _ in lattices]
        out.append((JointLogits(pads[0], t_len, u_len), JointLogits(pads[1], t_len, u_len),
                    [np.asarray(u.tokens) for u in group]))
    return out


def build_state(sizes: Sizes, seed: int) -> tuple[State, float]:
    """One set-up: corpora, model, optimizer and training rng.

    Returns the state and the seconds spent generating the corpora.
    """
    seeds = derive_seeds(seed)
    setup = experiments.toy_setup(steps=sizes.train_steps)
    t0 = perf_counter()
    train_utts = generate_utterances(replace(setup.train_corpus, seed=seeds["train_corpus"]),
                                     sizes.n_train)
    eval_utts = generate_utterances(replace(setup.eval_corpus, seed=seeds["eval_corpus"]),
                                    sizes.n_eval)
    gen_s = perf_counter() - t0
    cfg = experiments.strategy_train_config(setup, "dm_mcr", seeds["train_rng"])
    model = TransducerModel(replace(setup.model, seed=seeds["model"]))
    opt = AdamW(model.parameters(), lr=cfg.max_lr, weight_decay=cfg.weight_decay)
    return State(setup, seeds, train_utts, eval_utts, model, cfg, opt,
                 np.random.default_rng(cfg.seed)), gen_s


def frozen_copy(model: TransducerModel) -> TransducerModel:
    copy = TransducerModel(model.cfg)
    for name, p in copy.param_items():
        p.data = model.params[name].data.copy()
    return copy


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def decode_specs(state: State) -> list[ContextSpec | None]:
    s = state.setup
    return [None] + [ContextSpec(s.eval_left, c, r) for c, r in s.eval_specs]


@dataclass
class DecodeLog:
    """Reference tokens and chunk steps per (spec label, utterance index)."""

    tokens: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)


def loss_head(z_off: JointLogits, z_str: JointLogits, targets, cfg: MCRConfig) -> np.ndarray:
    """Transducer loss on both lattices plus the fused consistency loss."""
    l_off, _g_off = rnnt_loss(z_off, targets)
    l_str, _g_str = rnnt_loss(z_str, targets)
    res = mcr_loss(z_off, z_str, cfg)
    return np.concatenate([l_off, l_str, [res.loss]])


def lattice_cells(z: JointLogits) -> int:
    """T·(U+1)·V summed over the valid region of each lattice in the batch."""
    return int((z.t_len * (z.u_len + 1)).sum()) * z.z.shape[-1]


class Runner:
    """Runs single operations, records them and checks each result."""

    def __init__(self, state: State, rec: Recorder, out: Outcome, log: DecodeLog,
                 mcr_cfg: MCRConfig) -> None:
        self.state = state
        self.rec = rec
        self.out = out
        self.log = log
        self.mcr_cfg = mcr_cfg
        self.losses: list[float] = []
        self.head_ref: dict = {}

    def train(self, kind: str, batch: list, rng: np.random.Generator, key=None) -> None:
        s = self.state
        s.step += 1
        try:
            with self.rec.operation(kind, key=key):
                report = train_step_dm(s.model, batch, rng, s.cfg, s.opt, s.step)
        except PACKAGE_ERRORS as exc:
            self.out.op(False, f"train step {s.step}: {type(exc).__name__}: {exc}")
            return
        self.losses.append(report["total"])
        self.out.op(math.isfinite(report["total"]), f"train step {s.step}: non-finite loss")

    def decode(self, kind: str, spec, i: int) -> None:
        s = self.state
        label = spec_label(spec)
        mode = OFFLINE if spec is None else streaming_mode(spec)
        try:
            with self.rec.operation(kind, label, key=(label, i)):
                res = decode_mode(s.decoder, s.eval_utts[i].features, mode, s.setup.frame_ms)
        except PACKAGE_ERRORS as exc:
            self.out.op(False, f"decode {label} utt {i}: {type(exc).__name__}: {exc}")
            return
        V = s.decoder.cfg.vocab_size
        ref = self.log.tokens.setdefault((label, i), list(res.tokens))
        self.log.steps[(label, i)] = res.steps
        ok = ref == res.tokens and all(1 <= t < V for t in res.tokens)
        self.out.op(ok, f"decode {label} utt {i}: tokens out of range or not repeatable")

    def head(self, kind: str, p: int) -> None:
        z_off, z_str, targets = self.state.heads[p]
        try:
            with self.rec.operation(kind, key=p):
                self.rec.count("lattice_cells", lattice_cells(z_off))
                values = loss_head(z_off, z_str, targets, self.mcr_cfg)
        except PACKAGE_ERRORS as exc:
            self.out.op(False, f"loss head {p}: {type(exc).__name__}: {exc}")
            return
        ref = self.head_ref.setdefault(p, values)
        ok = bool(np.isfinite(values).all()) and np.array_equal(ref, values)
        self.out.op(ok, f"loss head {p}: non-finite or not repeatable")


def round_schedule(plan: dict, rounds: int) -> list[dict]:
    """Per round, the slice of each stage's ``(position, sweep)`` sequence it runs.

    A stage's sequence is ``repeats`` sweeps over its positions; cutting it
    into ``rounds`` equal slices puts the repeats of one position
    ``rounds / repeats`` rounds apart.
    """
    out = []
    for r in range(rounds):
        part = {}
        for stage, (n, k) in plan.items():
            seq = [(p, sweep) for sweep in range(k) for p in range(n)]
            part[stage] = seq[r * len(seq) // rounds:(r + 1) * len(seq) // rounds]
        out.append(part)
    return out


class CpuRotation:
    """Pins the process to one allowed CPU per sweep, in turn; ``restore`` undoes it.

    On a shared machine one virtual CPU can run slower than another for tens
    of seconds while a neighbour loads its sibling; alternating the CPU
    between the repeats of a position lets its fastest repeat avoid that.
    """

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self.current = None

    def use(self, sweep: int) -> None:
        cpu = self.allowed[sweep % len(self.allowed)]
        if cpu != self.current:
            os.sched_setaffinity(0, {cpu})
            self.current = cpu

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)
        self.current = None


# ---------------------------------------------------------------------------
# correctness gates (outside the timed region)
# ---------------------------------------------------------------------------


def dual_loss(model: TransducerModel, utt, mode, cfg) -> tz.Tensor:
    """The dual-mode objective of one utterance, as train_step_dm builds it."""
    alpha = cfg.mode_weights.alpha
    pred = model.pred_sequence(utt.tokens)
    z_off = model.joint(model.encode(utt.features, OFFLINE), pred)
    z_str = model.joint(model.encode(utt.features, mode), pred)
    terms = [(rnnt_loss_node(z_off, utt.tokens), alpha),
             (rnnt_loss_node(z_str, utt.tokens), 1.0 - alpha),
             (mcr_loss_node(z_off, z_str, cfg.mcr, targets=utt.tokens), cfg.mcr.lam)]
    return tz.weighted_sum(terms)


def gradcheck_entries(state: State, n: int, h: float = 1e-6):
    """Tape gradients and central differences on ``n`` parameter entries.

    Runs on a float64 copy of the model so the differences are exact enough
    to compare at a tight tolerance, and with the consistency loss's exact
    gradient (``full_grad``); training's default drops the teacher-side term
    and is not the derivative of the loss by design.
    """
    src = state.model
    cfg = replace(state.cfg, mcr=replace(state.cfg.mcr, full_grad=True))
    model = TransducerModel(replace(src.cfg, dtype="float64"))
    for name, p in model.param_items():
        p.data = src.params[name].data.astype(np.float64)
    utt = state.train_utts[0]
    mode = streaming_mode(ContextSpec(state.setup.eval_left, 1, 1))
    rng = np.random.default_rng(0)
    names = [name for name, _ in model.param_items()]
    picks = []
    for name in rng.choice(names, size=n, replace=False):
        p = model.params[str(name)]
        picks.append((str(name), tuple(int(rng.integers(0, d)) for d in p.data.shape)))
    with Tape() as tape:
        loss = dual_loss(model, utt, mode, cfg)
        tape.backward(loss)
    tape_g, fd_g = [], []
    for name, idx in picks:
        p = model.params[name]
        tape_g.append(0.0 if p.grad is None else float(p.grad[idx]))
        orig = p.data[idx]
        p.data[idx] = orig + h
        fp = dual_loss(model, utt, mode, cfg).item()
        p.data[idx] = orig - h
        fm = dual_loss(model, utt, mode, cfg).item()
        p.data[idx] = orig
        fd_g.append((fp - fm) / (2.0 * h))
    return np.array(tape_g), np.array(fd_g)


def grads_agree(tape_g: np.ndarray, fd_g: np.ndarray, rtol: float = 1e-4,
                atol: float = 1e-7) -> bool:
    return bool(np.all(np.abs(tape_g - fd_g) <= atol + rtol * np.abs(fd_g)))


def tokens_agree(stream, offline, vocab: int) -> list[int]:
    """Indices of utterances whose streaming tokens differ from offline or leave [1, V)."""
    bad = []
    for i, (s, o) in enumerate(zip(stream, offline)):
        if list(s) != list(o) or not all(1 <= t < vocab for t in s):
            bad.append(i)
    if len(stream) != len(offline):
        bad.append(min(len(stream), len(offline)))
    return bad


def full_context_tokens(model: TransducerModel, utts, frame_ms: float):
    """Streaming tokens at L, C >= T, R = 0 and offline tokens, per utterance."""
    stream, offline = [], []
    for utt in utts:
        T = max(1, model.encoded_length(len(utt.features)))
        spec = ContextSpec(T, T, 0)
        stream.append(decode_mode(model, utt.features, streaming_mode(spec), frame_ms).tokens)
        offline.append(decode_mode(model, utt.features, OFFLINE, frame_ms).tokens)
    return stream, offline


def head_gate(z_off: JointLogits, z_str: JointLogits, targets, cfg: MCRConfig) -> list[str]:
    """Fused vs naive consistency loss, rnnt gradient rows, rnnt vs enumeration."""
    problems = []
    # relative tolerances: rounding of the logits' dtype, not of float64
    tol, row_tol = (1e-9, 1e-12) if z_off.z.dtype == np.float64 else (1e-4, 1e-6)
    fused = mcr_loss(z_off, z_str, cfg)
    naive = mcr_naive_oracle(z_off, z_str, cfg)
    if abs(fused.loss - naive.loss) > tol * max(1.0, abs(naive.loss)):
        problems.append(f"mcr loss fused {fused.loss!r} != naive {naive.loss!r}")
    for g_f, g_n, which in ((fused.grad_offline, naive.grad_offline, "offline"),
                            (fused.grad_streaming, naive.grad_streaming, "streaming")):
        if max_rel_error(g_f, g_n) > tol:
            problems.append(f"mcr {which} gradient differs from the naive oracle")
    for z in (z_off, z_str):
        _losses, grad = rnnt_loss(z, targets)
        row_sums = np.abs(grad.sum(axis=-1)).max()
        if not row_sums <= row_tol * max(1.0, float(np.abs(grad).max())):
            problems.append(f"rnnt gradient rows sum to {row_sums:.3g}, not 0")
    # a slice small enough to enumerate every alignment
    T = min(ORACLE_MAX_T, int(z_off.t_len.min()))
    U = min(ORACLE_MAX_U, int(z_off.u_len.min()))
    small = JointLogits(np.ascontiguousarray(z_off.z[:, :T, :U + 1]), [T] * len(targets),
                        [U] * len(targets))
    sliced = [np.asarray(y)[:U] for y in targets]
    got, _ = rnnt_loss(small, sliced)
    want = rnnt_bruteforce_oracle(small, sliced)
    if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
        problems.append(f"rnnt loss {got} != enumeration {want}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples beyond it.

    That is the (TAIL_BEYOND + 1)-th largest sample; with fewer samples the
    minimum (percentile 0) is returned.  Callers pass every timed repeat, not
    the fastest repeat of each position, so a stall that hits one call in
    ten stays in the tail.
    """
    xs = sorted(values)
    n = len(xs)
    k = max(0, n - 1 - TAIL_BEYOND)
    pct = 100.0 * k / (n - 1) if n > 1 else 0.0
    return xs[k], pct, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec: Recorder, state: State, log: DecodeLog, setup_times, aux_peak: int,
               rss_mb: float, out: Outcome, detail: dict) -> dict:
    steps = list(rec.best("train_step").values())
    specs = decode_specs(state)
    stream_labels = [spec_label(s) for s in specs[1:]]
    offline = list(rec.best("decode", "offline").values())
    stream = {lab: rec.best("decode", lab) for lab in stream_labels}
    pooled = [x for lab in stream_labels for x in stream[lab].values()]
    heads = list(rec.best("head").values())
    frame_s = state.setup.frame_ms / 1000.0
    audio_s = per_chunk = 0.0
    for lab in stream_labels:
        for (_lab, i), x in stream[lab].items():
            audio_s += state.decoder.encoded_length(len(state.eval_utts[i].features)) * frame_s
            per_chunk += x / max(1, log.steps[(lab, i)])
    ter = {}
    for spec in specs:
        lab = spec_label(spec)
        ter[lab] = statistics.fmean(token_error_rate(log.tokens[(lab, i)], list(u.tokens))
                                    for i, u in enumerate(state.eval_utts))
    tails = {"train_step_ms_tail": tail(rec.durations("train_step")),
             "decode_utt_ms_tail": tail([d for lab in stream_labels
                                         for d in rec.durations("decode", lab)]),
             "loss_head_ms_tail": tail(rec.durations("head"))}
    detail["tails"] = {name: {"percentile": round(pct, 2), "samples": n}
                       for name, (_v, pct, n) in tails.items()}
    detail["ter_by_spec"] = ter
    detail["decode_utt_ms_p50_by_spec"] = {lab: statistics.median(stream[lab].values()) * 1000.0
                                           for lab in stream_labels}
    ms = 1000.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_utt_per_s": (state.cfg.batch_size * len(steps) / sum(steps), "1/s"),
        "train_step_ms_p50": (statistics.median(steps) * ms, "ms"),
        "train_step_ms_tail": (tails["train_step_ms_tail"][0] * ms, "ms"),
        # pooled, the median would sit in the gap between the C1 specs and the
        # cheaper C2/C4 specs and jump between them; the mean of per-spec
        # medians weighs each spec equally and stays put
        "decode_utt_ms_p50": (statistics.fmean(statistics.median(stream[lab].values())
                                                for lab in stream_labels) * ms, "ms"),
        "decode_utt_ms_tail": (tails["decode_utt_ms_tail"][0] * ms, "ms"),
        "decode_offline_utt_ms_p50": (statistics.median(offline) * ms, "ms"),
        "chunk_compute_ms_mean": (per_chunk / len(pooled) * ms, "ms"),
        "decode_rtf": (sum(pooled) / audio_s, "s/s"),
        "ter_offline": (ter["offline"], "frac"),
        "ter_stream": (statistics.fmean(ter[lab] for lab in stream_labels), "frac"),
        "loss_head_ms_p50": (statistics.median(heads) * ms, "ms"),
        "loss_head_ms_tail": (tails["loss_head_ms_tail"][0] * ms, "ms"),
        "mcr_aux_peak_bytes": (float(aux_peak), "bytes"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (out.ok_frac(), "frac"),
    }


def trace_overhead(rec: Recorder) -> dict:
    """Per stage: median traced latency over median untraced latency, minus 1.

    Both sides are the fastest repeat of each position, from the same run:
    the traced run alternates traced and untraced sweeps.
    """
    out = {}
    for kind in ("train_step", "decode", "head"):
        traced, plain = rec.best(kind), rec.best(kind + PLAIN)
        if traced and plain:
            out[kind] = statistics.median(traced.values()) / statistics.median(plain.values()) - 1
    return out


def per_layer(rec: Recorder, state: State, log: DecodeLog, gen_times, aux_peak: int) -> dict:
    """Per-layer metrics from the spans of the measured rounds (contexts: whole run)."""
    m: dict = {}
    ms = 1000.0
    totals = rec.totals()

    def summed(kinds, name, col=1, label=None):
        return sum(v[col] for (k, lab, nm), v in totals.items()
                   if k in kinds and nm == name and (label is None or lab == label))

    train = ("train_step",)
    n_steps = len(rec.durations("train_step"))
    per_step = ms / n_steps
    counts = rec.op_counts()
    m["tensor.ops_per_step"] = (sum(n for (k, _l, c), n in counts.items()
                                    if k == "train_step" and c == "tape_records") / n_steps,
                                "count")
    for op in TENSOR_OPS:
        m[f"tensor.fwd_ms.{op}"] = (summed(train, "fwd." + op) * per_step, "ms")
    for op in TENSOR_OPS + BACKWARD_ONLY_OPS:
        m[f"tensor.bwd_ms.{op}"] = (summed(train, "bwd." + op) * per_step, "ms")
    m["tensor.backward_ms"] = (summed(train, "Tape.backward") * per_step, "ms")
    m["model.encode_ms_per_step"] = (summed(train, "model.encode") * per_step, "ms")
    m["model.encode_calls_per_step"] = (summed(train, "model.encode", 0) / n_steps, "count")
    m["model.pred_sequence_ms"] = (summed(train, "model.pred_sequence") * per_step, "ms")
    m["model.joint_ms"] = (summed(train, "model.joint") * per_step, "ms")
    m["training.optim_ms"] = (summed(train, "AdamW.step") * per_step, "ms")
    m["training.clip_ms"] = (summed(train, "clip_global_norm") * per_step, "ms")
    m["training.step_self_ms"] = (summed(train, "train_step", 2) * per_step, "ms")

    dec = ("decode",)
    n_utts = len(rec.durations("decode"))
    m["model.encode_ms_per_utt"] = (summed(dec, "model.encode") * ms / n_utts, "ms")
    m["model.encode_calls_per_utt"] = (summed(dec, "model.encode", 0) / n_utts, "count")
    m["model.joint_vec_calls_per_utt"] = (summed(dec, "model.joint_vec", 0) / n_utts, "count")
    m["model.predict_calls_per_utt"] = (summed(dec, "model.predict", 0) / n_utts, "count")
    m["model.greedy_cell_us"] = (summed(dec, "model.joint_vec") * 1e6
                                 / max(1, summed(dec, "model.joint_vec", 0)), "us")
    for spec in decode_specs(state):
        lab = spec_label(spec)
        best = rec.best("decode", lab)
        n = len(rec.durations("decode", lab))
        frames = sum(c for (k, l2, name), c in counts.items()
                     if k == "decode" and l2 == lab and name == "encode_frames")
        kept = sum(state.decoder.encoded_length(len(state.eval_utts[i].features))
                   for (_l, i) in best) * n // len(best)
        chunks = statistics.fmean(log.steps[key] for key in best) if spec else 1.0
        m[f"decoding.utt_ms_p50.{lab}"] = (statistics.median(best.values()) * ms, "ms")
        m[f"decoding.chunks_per_utt.{lab}"] = (chunks, "count")
        m[f"decoding.encoded_frames_per_utt.{lab}"] = (frames / n, "count")
        m[f"decoding.useful_frame_ratio.{lab}"] = (kept / frames, "frac")
        m[f"decoding.greedy_self_ms.{lab}"] = (summed(dec, "decode", 2, lab) * ms / n, "ms")

    every = ("train_fixed", "decode_pass", "train_step", "decode")
    mask_builds = summed(every, "contexts.build_attention_mask", 0)
    plan_builds = summed(every, "contexts.plan_conv_chunks", 0)
    encodes = summed(every, "model.encode", 0)
    m["contexts.mask_builds"] = (float(mask_builds), "count")
    m["contexts.plan_builds"] = (float(plan_builds), "count")
    m["contexts.build_ms"] = ((summed(every, "contexts.build_attention_mask")
                               + summed(every, "contexts.plan_conv_chunks")) * ms, "ms")
    m["contexts.cache_hit_ratio"] = (1.0 - (mask_builds + plan_builds) / (2.0 * encodes),
                                     "frac")

    head = ("head",)
    n_heads = len(rec.durations("head"))
    # cells of the offline lattice batch of each call; rnnt runs on two batches
    cells = sum(n for (k, _l, c), n in counts.items() if k == "head" and c == "lattice_cells")
    rnnt_s = summed(head, "rnnt_forward_single")
    mcr_s = summed(head, "mcr_forward") + summed(head, "mcr_backward")
    n_lattices = summed(head, "rnnt_forward_single", 0)
    m["rnnt_loss.ms_per_lattice"] = (rnnt_s * ms / n_lattices, "ms")
    m["rnnt_loss.lattices"] = (n_lattices / n_heads, "count")
    m["rnnt_loss.cells_per_s"] = (2 * cells / rnnt_s, "1/s")
    m["mcr.fwd_ms"] = (summed(head, "mcr_forward") * ms / n_heads, "ms")
    m["mcr.bwd_ms"] = (summed(head, "mcr_backward") * ms / n_heads, "ms")
    m["mcr.cells_per_s"] = (cells / mcr_s, "1/s")
    m["mcr.aux_peak_bytes"] = (float(aux_peak), "bytes")

    m["corpus.gen_ms"] = (statistics.median(gen_times) * ms, "ms")
    m["corpus.frames_generated"] = (float(sum(len(u.features) for u in
                                              state.train_utts + state.eval_utts)), "count")
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> tuple[dict, dict, Outcome, Recorder]:
    """Execute one run; returns (metrics, detail, outcome, recorder).

    Metrics map a name to ``(value, unit)``: the end-to-end set untraced, the
    per-layer set traced.
    """
    plan = stage_plan(workload, sizes, seconds)
    setup_times, gen_times = [], []
    cpus = CpuRotation()
    try:
        for repeat in range(sizes.setup_repeats):
            cpus.use(repeat)
            t0 = perf_counter()
            state, gen_s = build_state(sizes, seed)
            setup_times.append(perf_counter() - t0)
            gen_times.append(gen_s)
    finally:
        cpus.restore()

    rec = Recorder()
    out = Outcome()
    log = DecodeLog()
    # three vocabulary tiles, so the running max across tiles is exercised
    # (training's tile 18 covers V=18 in one tile)
    mcr_cfg = MCRConfig(direction="symmetric", lam=1.0, variant="full_joint",
                        tile=max(1, state.model.cfg.vocab_size // 3))
    runner = Runner(state, rec, out, log, mcr_cfg)
    instr = Instrumentation(rec).install() if trace else None

    def kind_of(kind: str, sweep: int) -> str:
        """A traced run times odd sweeps untraced, under ``kind + PLAIN``."""
        if instr is None:
            return kind
        plain = sweep % 2 == 1
        instr.set(not plain)
        return kind + PLAIN if plain else kind
    stage_s = {}
    try:
        t0 = perf_counter()
        for _ in range(sizes.train_steps):
            idx = state.rng.integers(0, len(state.train_utts), size=state.cfg.batch_size)
            runner.train("train_fixed", [state.train_utts[int(i)] for i in idx], state.rng)
        state.decoder = frozen_copy(state.model)
        stage_s["train_fixed"] = perf_counter() - t0

        t0 = perf_counter()
        specs = decode_specs(state)
        for spec in specs:
            for i in range(len(state.eval_utts)):
                runner.decode("decode_pass", spec, i)
        stage_s["decode_pass"] = perf_counter() - t0

        # positions: batches and utterances stratified by length, from the seed
        pos_rng = np.random.default_rng(state.seeds["positions"])
        train_lens = [len(u.features) for u in state.train_utts]
        eval_lens = [len(u.features) for u in state.eval_utts]
        batches = [[state.train_utts[int(i)] for i in row] for row in
                   stratified_picks(pos_rng, train_lens, plan["train"][0],
                                    state.cfg.batch_size)]
        decode_utts = quantile_picks(pos_rng, eval_lens, train_lens, plan["decode"][0])
        groups = [[state.eval_utts[int(i)] for i in row] for row in
                  stratified_picks(pos_rng, eval_lens, plan["head"][0], state.cfg.batch_size)]
        state.heads = model_heads(state.decoder, groups, ContextSpec(state.setup.eval_left, 1, 0))

        t0 = perf_counter()
        for part in round_schedule(plan, sizes.rounds):
            for p, sweep in part["train"]:
                cpus.use(sweep)
                # a fresh rng per position: the same context spec on every repeat
                rng = np.random.default_rng([state.seeds["train_rng"], p])
                runner.train(kind_of("train_step", sweep), batches[p], rng, key=p)
            for p, sweep in part["decode"]:
                cpus.use(sweep)
                kind = kind_of("decode", sweep)
                for spec in specs:
                    runner.decode(kind, spec, decode_utts[p])
            for p, sweep in part["head"]:
                cpus.use(sweep)
                runner.head(kind_of("head", sweep), p)
        stage_s["rounds"] = perf_counter() - t0
    finally:
        cpus.restore()
        if instr is not None:
            instr.uninstall()
    rss = peak_rss_mb()

    # each call's peak depends on its lattice sizes; the median over the
    # loss-head batches moves less from seed to seed than any single batch
    aux_peaks = []
    for z_off, z_str, _targets in state.heads:
        with MemoryMeter() as meter:
            mcr_loss(z_off, z_str, mcr_cfg)
        aux_peaks.append(meter.peak)
    aux_peak = statistics.median(aux_peaks)

    gates = {}
    tape_g, fd_g = gradcheck_entries(state, sizes.gradcheck_entries)
    gates["train.gradcheck"] = grads_agree(tape_g, fd_g)
    gates["train.finite_losses"] = all(math.isfinite(x) for x in runner.losses)
    stream, offline = full_context_tokens(state.decoder, state.eval_utts, state.setup.frame_ms)
    gates["decode.full_context_equals_offline"] = not tokens_agree(
        stream, offline, state.decoder.cfg.vocab_size)
    problems = head_gate(*state.heads[0], mcr_cfg)
    gates["head.oracles"] = not problems
    for name, ok in gates.items():
        out.gate(ok, f"gate {name} failed" + (f": {problems}" if name == "head.oracles" else ""))

    detail = {"gates": gates, "stage_s": stage_s,
              "plan": {k: {"positions": n, "repeats": r} for k, (n, r) in plan.items()},
              "gradcheck": {"tape": tape_g.tolist(), "fd": fd_g.tolist()}}
    e2e = end_to_end(rec, state, log, setup_times, aux_peak, rss, out, detail)
    if not trace:
        return e2e, detail, out, rec
    detail["traced_end_to_end"] = {k: v for k, (v, _u) in e2e.items()}
    detail["trace_overhead"] = trace_overhead(rec)
    return per_layer(rec, state, log, gen_times, aux_peak), detail, out, rec
