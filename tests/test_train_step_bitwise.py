"""The training step against its earlier two-function form, bit for bit.

The references below are the single-mode and dual-mode steps that
``training.train_step`` replaced, kept as specifications: single mode flips
one coin for the mode and samples a spec only for a streaming mode; dual
mode samples one spec and adds the consistency loss when ``lam > 0``.  The
one step over ``step_modes`` must draw the same random numbers, record the
same tape ops in the same order and produce the same floats.
"""

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
from unify_rnnt.training import (AdamW, clip_global_norm, cosine_lr, mcr_loss_node,
                                 rnnt_loss_node, train_step)

STEPS = 12
STRATEGIES = tuple(dict.fromkeys(experiments.TREND_STRATEGIES
                                 + experiments.ABLATION_STRATEGIES))
SINGLE_MODE_RUNS = {"offline_baseline": {("loss_off",)},
                    "streaming_baseline": {("loss_str",)},
                    "sm": {("loss_off",), ("loss_str",)}}

# ---------------------------------------------------------------------------
# reference: the separate single-mode and dual-mode steps
# ---------------------------------------------------------------------------


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
    grad_norm = clip_global_norm(model.parameters(), cfg.clip_norm)
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
    grad_norm = clip_global_norm(model.parameters(), cfg.clip_norm)
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
    return experiments.toy_setup(steps=STEPS)


@pytest.fixture(scope="module")
def utts(setup):
    return generate_utterances(setup.train_corpus, 48)


def run(step_fn, setup, utts, strategy, dtype, seed=3):
    """``STEPS`` seeded steps, batches drawn as ``run_training`` draws them;
    the model, optimizer, rng, reports and the tape op names of each step."""
    cfg = experiments.strategy_train_config(setup, strategy, seed)
    model = TransducerModel(replace(setup.model, seed=seed, dtype=dtype))
    opt = AdamW(model.parameters(), lr=cfg.max_lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)
    reports, ops = [], []
    record = tz.Tape.record

    def traced(tape, name, backward_fn):
        ops[-1].append(name)
        return record(tape, name, backward_fn)
    tz.Tape.record = traced
    try:
        for step in range(1, STEPS + 1):
            idx = rng.integers(0, len(utts), size=cfg.batch_size)
            ops.append([])
            reports.append(step_fn(model, [utts[int(i)] for i in idx], rng, cfg, opt, step))
    finally:
        tz.Tape.record = record
    return model, opt, rng, reports, ops


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_train_step_matches_the_two_reference_steps(setup, utts, strategy, dtype):
    ref = run(ref_train_step, setup, utts, strategy, dtype)
    new = run(train_step, setup, utts, strategy, dtype)
    (m_ref, o_ref, rng_ref, rep_ref, ops_ref) = ref
    (m_new, o_new, rng_new, rep_new, ops_new) = new
    for (name, p_ref), (_, p_new) in zip(m_ref.param_items(), m_new.param_items()):
        np.testing.assert_array_equal(p_new.data, p_ref.data, err_msg=name)
    for a, b in zip(o_ref.m + o_ref.v, o_new.m + o_new.v):
        np.testing.assert_array_equal(b, a)
    assert o_new.t == o_ref.t == STEPS
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    # exact float equality, no tolerance
    assert rep_new == rep_ref
    assert ops_new == ops_ref
    # single mode ran each mode it can draw; dual mode runs both every step
    ran = {tuple(k for k in ("loss_off", "loss_str") if k in r) for r in rep_new}
    assert ran == SINGLE_MODE_RUNS.get(strategy, {("loss_off", "loss_str")})
    if strategy == "dm_mcr":
        # 76 tape records per utterance, four utterances per dual-mode step
        assert {len(step_ops) for step_ops in ops_new} == {304}

