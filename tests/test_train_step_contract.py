"""The batched training step against the per-utterance reference steps.

The references below are the single-mode and dual-mode steps that build one
graph per utterance, kept as the specification: single mode flips one coin
for the mode and samples a spec only for a streaming mode; dual mode samples
one spec and adds the consistency loss when ``lam > 0``.  ``train_step``
builds one graph per step instead, so it sums parameter gradients in another
order, and the contract is a tolerance, in float64:

* one step at fixed parameters: the same random draws, and gradients within
  ``GRAD_RTOL`` of the reference's gradient norm, for each strategy;
* ``LOSS_STEPS`` interleaved ``dm_mcr`` steps (reference step k, then
  batched step k, each on its own model, on the same batch and spec): every
  reported loss within ``LOSS_RTOL`` of the reference's, relative.

``LOSS_RTOL`` was set before the batched step was measured against it, from
two reorderings of the reference that are equivalent in exact arithmetic:
the batch's utterances in reverse order, and each utterance's streaming
graph built before its offline one.  Over these 120 steps they drifted from
the reference by at most 2.3e-14 (``loss_mcr``) and 3.5e-15 (``total``);
the bound is 100 times the larger, rounded up to a power of ten.  A change
of the batched step's mathematics is far outside it: rescaling its
consistency term by 1% moved the losses by 1e-9 at step 2 and by more than
1e-7 at step 5.  The reference builds its graphs from the same loss nodes
(their batch-of-one forms), so a fault inside a node moves both sides
alike; the finite-difference test below holds the nodes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from unify_rnnt import experiments
from unify_rnnt import tensor as tz
from unify_rnnt.contexts import sample_context
from unify_rnnt.corpus import generate_utterances
from unify_rnnt.errors import EmptyBatchError, NumericalError
from unify_rnnt.model import TransducerModel
from unify_rnnt.tensor import Tape
from unify_rnnt.training import (AdamW, batch_objective, cosine_lr, mcr_loss_node,
                                 rnnt_loss_node, step_modes, train_step)

GRAD_RTOL = 1e-12
LOSS_RTOL = 1e-11
LOSS_STEPS = 120
# float32 steps agree to float32 rounding, about 2.5e-7 of the norm
GRAD_RTOL_FLOAT32 = 1e-5
LOSS_KEYS = ("loss_off", "loss_str", "loss_mcr", "total")
STRATEGIES = tuple(dict.fromkeys(experiments.TREND_STRATEGIES
                                 + experiments.ABLATION_STRATEGIES))
SINGLE_MODE_RUNS = {"offline_baseline": {("loss_off",)},
                    "streaming_baseline": {("loss_str",)},
                    "sm": {("loss_off",), ("loss_str",)}}

# ---------------------------------------------------------------------------
# reference: the separate single-mode and dual-mode steps
# ---------------------------------------------------------------------------


def ref_clip_global_norm(params, max_norm):
    """The per-parameter global-norm clip, independent of the flat buffer."""
    grads = [p.grad for p in params if p.grad is not None]
    norm = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def _ref_check_finite(value, step, what):
    if not np.isfinite(value):
        raise NumericalError(f"non-finite {what} at step {step}")


def ref_train_step_sm(model, batch, rng, cfg, opt, step):
    if not batch:
        raise EmptyBatchError("empty batch")
    mode_name = "offline" if rng.random() < cfg.mode_weights.p_off else "streaming"
    spec = None if mode_name == "offline" else sample_context(cfg.context_sets, rng)
    B = len(batch)
    total = 0.0
    opt.zero_grad()
    for utt in batch:
        with Tape() as tape:
            pred = model.pred_sequence(utt.tokens)
            enc = model.encode(utt.features, spec)
            z = model.joint(enc, pred)
            loss = rnnt_loss_node(z, utt.tokens)
            tape.backward(loss, seed=1.0 / B)
        total += loss.item() / B
    _ref_check_finite(total, step, "loss")
    grad_norm = ref_clip_global_norm(model.parameters(), cfg.clip_norm)
    lr = cosine_lr(step, cfg)
    opt.step(lr=lr)
    report = {"step": step, "strategy": "single_mode", "lr": lr,
              "mode": mode_name, "loss": total, "grad_norm": grad_norm}
    if spec is not None:
        report["spec"] = [spec.left, spec.chunk, spec.right]
    return report


def ref_train_step_dm(model, batch, rng, cfg, opt, step):
    if not batch:
        raise EmptyBatchError("empty batch")
    spec = sample_context(cfg.context_sets, rng)
    alpha = cfg.mode_weights.alpha
    lam = cfg.mcr.lam
    B = len(batch)
    loss_off = loss_str = loss_mcr = 0.0
    opt.zero_grad()
    for utt in batch:
        with Tape() as tape:
            pred = model.pred_sequence(utt.tokens)
            z_off = model.joint(model.encode(utt.features, None), pred)
            z_str = model.joint(model.encode(utt.features, spec), pred)
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
    _ref_check_finite(total, step, "loss")
    grad_norm = ref_clip_global_norm(model.parameters(), cfg.clip_norm)
    lr = cosine_lr(step, cfg)
    opt.step(lr=lr)
    return {"step": step, "strategy": "dual_mode", "lr": lr,
            "spec": [spec.left, spec.chunk, spec.right],
            "loss_off": loss_off, "loss_str": loss_str, "loss_mcr": loss_mcr,
            "total": total, "grad_norm": grad_norm}


def ref_train_step(model, batch, rng, cfg, opt, step):
    """The reference step in the current report schema."""
    if cfg.strategy == "dual_mode":
        return ref_train_step_dm(model, batch, rng, cfg, opt, step)
    report = ref_train_step_sm(model, batch, rng, cfg, opt, step)
    loss = report.pop("loss")
    report["loss_off" if report.pop("mode") == "offline" else "loss_str"] = loss
    report["total"] = loss
    return report


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def setup():
    return experiments.toy_setup(steps=LOSS_STEPS)


@pytest.fixture(scope="module")
def utts(setup):
    return generate_utterances(setup.train_corpus, 48)


class Run:
    """One seeded training run: model, optimizer and rng, batches drawn as
    ``run_training`` draws them."""

    def __init__(self, setup, utts, strategy, dtype, seed=3):
        self.utts = utts
        self.cfg = experiments.strategy_train_config(setup, strategy, seed)
        self.model = TransducerModel(replace(setup.model, seed=seed, dtype=dtype))
        self.opt = AdamW(self.model.parameters(), lr=self.cfg.max_lr,
                         weight_decay=self.cfg.weight_decay)
        self.rng = np.random.default_rng(seed)
        self.step = 0

    def __call__(self, step_fn) -> dict:
        self.step += 1
        idx = self.rng.integers(0, len(self.utts), size=self.cfg.batch_size)
        batch = [self.utts[int(i)] for i in idx]
        return step_fn(self.model, batch, self.rng, self.cfg, self.opt, self.step)

    def grads(self) -> np.ndarray:
        return np.concatenate([p.grad.ravel() for p in self.model.parameters()])


def rel(a, b) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


@pytest.mark.parametrize("dtype,tol", [("float64", GRAD_RTOL), ("float32", GRAD_RTOL_FLOAT32)])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_one_step_gradients_match_the_reference(setup, utts, strategy, dtype, tol):
    ref, new = Run(setup, utts, strategy, dtype), Run(setup, utts, strategy, dtype)
    rep_ref, rep_new = ref(ref_train_step), new(train_step)
    # the same draws: batch, modes and spec
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state
    assert rep_new.keys() == rep_ref.keys()
    assert rep_new.get("spec") == rep_ref.get("spec")
    g_ref, g_new = ref.grads(), new.grads()
    assert np.linalg.norm(g_new - g_ref) <= tol * np.linalg.norm(g_ref)
    for key in LOSS_KEYS + ("grad_norm",):
        if key in rep_ref:
            assert rel(rep_new[key], rep_ref[key]) <= tol, key
    # single mode ran each mode it can draw; dual mode runs both every step
    ran = {tuple(k for k in ("loss_off", "loss_str") if k in rep_new)}
    assert ran <= SINGLE_MODE_RUNS.get(strategy, {("loss_off", "loss_str")})


def test_interleaved_dm_mcr_losses_stay_within_the_bound(setup, utts):
    ref = Run(setup, utts, "dm_mcr", "float64")
    new = Run(setup, utts, "dm_mcr", "float64")
    worst = dict.fromkeys(LOSS_KEYS, 0.0)
    totals = []
    for _ in range(LOSS_STEPS):
        rep_ref, rep_new = ref(ref_train_step), new(train_step)
        assert rep_new["spec"] == rep_ref["spec"]
        for key in LOSS_KEYS:
            worst[key] = max(worst[key], rel(rep_new[key], rep_ref[key]))
        totals.append(rep_new["total"])
    assert all(v <= LOSS_RTOL for v in worst.values()), worst
    # the models trained: the bound holds over a moving trajectory
    assert np.mean(totals[-10:]) < 0.5 * np.mean(totals[:10])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_mode_draws_each_mode(setup, utts, strategy):
    run = Run(setup, utts, strategy, "float32")
    ran = set()
    for _ in range(12):
        rep = run(train_step)
        ran.add(tuple(k for k in ("loss_off", "loss_str") if k in rep))
    assert ran == SINGLE_MODE_RUNS.get(strategy, {("loss_off", "loss_str")})


@pytest.mark.parametrize("batch_size", [1, 4])
def test_a_step_is_one_graph_of_40_records(setup, utts, batch_size, monkeypatch):
    names = []
    record = tz.Tape.record
    monkeypatch.setattr(tz.Tape, "record",
                        lambda tape, name, fn: (names.append(name), record(tape, name, fn)))
    run = Run(setup, utts, "dm_mcr", "float32")
    run.cfg = replace(run.cfg, batch_size=batch_size)
    run(train_step)
    # the stacked encode and its row gather (28), the predictor (2), the
    # joint (7), then one node per loss and their weighted sum (3); the
    # per-utterance reference recorded 76 per utterance
    assert len(names) == 40
    assert names.count("rnnt_loss") == names.count("mcr_loss") == 1
    assert names.count("masked_attention") == setup.model.blocks


def test_batched_objective_gradients_match_finite_differences(setup, utts):
    # the exact consistency gradient (full_grad): training's default treats
    # the teacher as a constant and is not the loss's derivative by design
    cfg = replace(experiments.strategy_train_config(setup, "dm_mcr", 0),
                  mcr=replace(setup.train.mcr, full_grad=True))
    model = TransducerModel(replace(setup.model, dtype="float64"))
    batch = utts[:3]
    modes = step_modes(np.random.default_rng(5), cfg)
    with tz.Tape() as tape:
        objective = batch_objective(model, batch, modes, cfg)[0]
        tape.backward(objective)
    rng = np.random.default_rng(0)
    h = 1e-6
    for name in ("in_proj.w", "block0.attn.wq", "block1.conv.kernel", "block1.ff2.b",
                 "pred.emb", "pred.uc", "joint.w_enc", "joint.b", "joint.w_out"):
        p = model.params[name]
        idx = tuple(int(rng.integers(0, d)) for d in p.shape)
        orig = p.data[idx]
        values = []
        for x in (orig + h, orig - h):
            p.data[idx] = x
            values.append(batch_objective(model, batch, modes, cfg)[0].item())
        p.data[idx] = orig
        fd = (values[0] - values[1]) / (2 * h)
        assert abs(p.grad[idx] - fd) <= 1e-7 + 1e-5 * abs(fd), (name, p.grad[idx], fd)
