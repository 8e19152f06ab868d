"""Training loops, LR schedule, optimizer, checkpointing."""

import json
import os
import struct
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from unify_rnnt.contexts import ContextSets, ContextSpec, sample_context
from unify_rnnt.corpus import CorpusConfig, generate_utterances
from unify_rnnt.errors import (BlankInTargetError, CorruptCheckpointError,
                               EmptyBatchError, InputTooShortError, NonFiniteInputError,
                               NumericalError, VersionMismatchError)
from unify_rnnt.mcr import MCRConfig
from unify_rnnt.model import ModelConfig, TransducerModel
from unify_rnnt.tensor import Tensor
from unify_rnnt.training import (AdamW, ModeWeights, TrainConfig, clip_global_norm,
                                 cosine_lr, load_checkpoint, run_training,
                                 save_checkpoint, step_modes, train_step)

MODEL_CFG = ModelConfig(feat_dim=6, model_dim=16, heads=2, blocks=1, conv_kernel=3,
                        subsample_factor=2, vocab_size=10, predictor_dim=8,
                        joint_dim=8, ff_dim=16, seed=5, dtype="float32")
CORPUS_CFG = CorpusConfig(n_symbols=8, feat_dim=6, ambiguous_pairs=2, seed=3,
                          min_symbols=3, max_symbols=6)
SETS = ContextSets.from_nested([[4], [1, 2], [0, 1, 2]])


def small_train_cfg(**over):
    base = dict(strategy="single_mode", mode_weights=ModeWeights(0.5, 0.5),
                mcr=MCRConfig(lam=0.3, tile=10), context_sets=SETS, steps=10,
                warmup_steps=2, max_lr=1e-3, min_lr=1e-4, batch_size=2, seed=0)
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture
def utts():
    return generate_utterances(CORPUS_CFG, 24)


class TestCosineSchedule:
    def test_warmup_end_hits_max(self):
        cfg = small_train_cfg(steps=100, warmup_steps=10)
        assert cosine_lr(10, cfg) == pytest.approx(cfg.max_lr)

    def test_final_step_hits_min(self):
        cfg = small_train_cfg(steps=100, warmup_steps=10)
        assert cosine_lr(100, cfg) == pytest.approx(cfg.min_lr)

    def test_midpoint_is_mean(self):
        cfg = small_train_cfg(steps=110, warmup_steps=10)
        mid = 10 + (110 - 10) // 2
        assert cosine_lr(mid, cfg) == pytest.approx((cfg.max_lr + cfg.min_lr) / 2,
                                                    abs=1e-12)

    def test_warmup_is_linear_and_clamps_past_end(self):
        cfg = small_train_cfg(steps=100, warmup_steps=10)
        assert cosine_lr(1, cfg) == pytest.approx(cfg.max_lr / 10)
        assert cosine_lr(150, cfg) == cfg.min_lr


class TestAdamW:
    def test_matches_hand_rolled_reference(self):
        # three scalar parameters, five steps, decoupled decay
        rng = np.random.default_rng(0)
        p0 = rng.standard_normal(3)
        grads = rng.standard_normal((5, 3))
        params = [Tensor(p0.copy(), requires_grad=True, dtype=np.float64)]
        opt = AdamW(params, lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.02)
        for g in grads:
            params[0].grad = g.copy()
            opt.step()
        # reference
        theta = p0.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            theta = theta - 0.01 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.02 * theta)
        np.testing.assert_allclose(params[0].data, theta, atol=1e-12)

    def test_missing_grad_treated_as_zero(self):
        p = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_allclose(p.data, np.ones(2))

    def test_flat_update_equals_the_per_parameter_loop_bitwise(self):
        """50 steps over float32 parameters of several shapes, one of which never
        gets a gradient; gradients arrive both through the tape's accumulation
        into zeroed buffers and as arrays bound to ``p.grad``."""
        rng = np.random.default_rng(7)
        shapes = [(3, 4), (5,), (2, 3, 2), (1,), (4, 4)]
        start = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        flat = [Tensor(a.copy(), requires_grad=True) for a in start]
        loop = [Tensor(a.copy(), requires_grad=True) for a in start]
        opt = AdamW(flat, lr=0.01, betas=(0.8, 0.95), eps=1e-6, weight_decay=0.05)
        ref = RefAdamW(loop, lr=0.01, betas=(0.8, 0.95), eps=1e-6, weight_decay=0.05)
        for step in range(50):
            opt.zero_grad()
            ref.zero_grad()
            for i, (a, b) in enumerate(zip(flat, loop)):
                if i == 3:
                    continue  # no gradient: the loop skips it, the buffer holds zeros
                g = rng.standard_normal(a.shape).astype(np.float32)
                if step % 2:
                    a.grad = g.copy()
                    b.grad = g.copy()
                else:
                    a.accum_grad(g)
                    b.accum_grad(g)
            lr = 0.01 * (1.0 + step) / 50
            opt.step(lr=lr)
            ref.step(lr=lr)
            for a, b, m, v, rm, rv in zip(flat, loop, opt.m, opt.v, ref.m, ref.v):
                for got, want in ((a.data, b.data), (m, rm), (v, rv)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_parameters_gradients_and_moments_view_one_buffer(self):
        params = [Tensor(np.ones((2, 3), np.float32), requires_grad=True),
                  Tensor(np.zeros(4, np.float32), requires_grad=True)]
        opt = AdamW(params)
        flat = opt.grad_buffer()
        assert flat.shape == (10,)
        for p, m, v in zip(params, opt.m, opt.v):
            for arr in (p.data, p.grad, m, v):
                assert arr.base is flat.base
        np.testing.assert_array_equal(params[0].data, np.ones((2, 3)))
        # a parameter rebound to a fresh array is copied back into the buffer
        params[1].data = np.full(4, 2.0, np.float32)
        params[1].grad = np.full(4, 3.0, np.float32)
        np.testing.assert_array_equal(opt.grad_buffer()[6:], 3.0)
        assert params[1].data.base is flat.base and params[1].grad.base is flat.base
        np.testing.assert_array_equal(params[1].data, 2.0)

    @pytest.mark.parametrize("kwargs", [dict(betas=(1.0, 0.999)), dict(betas=(0.9, 1.0)),
                                        dict(betas=(-0.1, 0.999)), dict(eps=0.0),
                                        dict(eps=-1e-8), dict(weight_decay=-1e-4),
                                        dict(eps=float("nan"))])
    def test_settings_that_corrupt_training_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdamW([Tensor(np.ones(2), requires_grad=True)], **kwargs)

    def test_parameters_of_two_dtypes_are_rejected(self):
        with pytest.raises(ValueError):
            AdamW([Tensor(np.ones(2, np.float32), requires_grad=True),
                   Tensor(np.ones(2, np.float64), requires_grad=True)])

    def test_clip_global_norm_over_the_flat_buffer(self):
        params = [Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
                  for _ in range(3)]
        opt = AdamW(params)
        params[0].grad = np.array([3.0, 0.0])
        params[1].grad = np.array([0.0, 4.0])
        params[2].grad = None
        norm = clip_global_norm(opt, 2.5)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(opt.grad_buffer(), [1.5, 0.0, 0.0, 2.0, 0.0, 0.0])
        assert clip_global_norm(opt, 0.0) == pytest.approx(2.5)
        np.testing.assert_allclose(params[1].grad, [0.0, 2.0])


class RefAdamW:
    """The per-parameter update loop, kept as the specification of ``AdamW``."""

    def __init__(self, params, lr, betas, eps, weight_decay):
        self.params, self.lr, self.betas = params, lr, betas
        self.eps, self.weight_decay, self.t = eps, weight_decay, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr):
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


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [dict(weight_decay=-1.0), dict(clip_norm=-2.0),
                                        dict(weight_decay=float("nan"))])
    def test_settings_that_corrupt_training_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            small_train_cfg(**kwargs)

    def test_zero_clip_norm_turns_clipping_off(self):
        assert small_train_cfg(clip_norm=0.0).clip_norm == 0.0


class TestStepModes:
    def test_p_off_one_always_offline(self):
        rng = np.random.default_rng(0)
        cfg = small_train_cfg(mode_weights=ModeWeights(p_off=1.0))
        assert all(step_modes(rng, cfg) == [(None, 1.0)] for _ in range(10000))

    def test_p_off_zero_never_offline(self):
        rng = np.random.default_rng(0)
        cfg = small_train_cfg(mode_weights=ModeWeights(p_off=0.0))
        for _ in range(10000):
            [(spec, weight)] = step_modes(rng, cfg)
            assert isinstance(spec, ContextSpec) and weight == 1.0

    def test_seeded_sequences_reproduce(self):
        cfg = small_train_cfg(mode_weights=ModeWeights(p_off=0.5))
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        s1 = [step_modes(rng1, cfg) for _ in range(200)]
        s2 = [step_modes(rng2, cfg) for _ in range(200)]
        assert s1 == s2

    def test_balanced_draw_counts(self):
        rng = np.random.default_rng(11)
        cfg = small_train_cfg(mode_weights=ModeWeights(p_off=0.5))
        count = sum(step_modes(rng, cfg)[0][0] is None for _ in range(10000))
        assert abs(count - 5000) <= 350

    def test_single_mode_draws_the_coin_then_the_spec(self):
        # one uniform draw decides the mode; a streaming mode then samples its spec
        cfg = small_train_cfg(mode_weights=ModeWeights(p_off=0.5))
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(200):
            modes = step_modes(rng, cfg)
            if ref.random() < 0.5:
                assert modes == [(None, 1.0)]
            else:
                assert modes == [(sample_context(SETS, ref), 1.0)]
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_dual_mode_is_offline_then_a_sampled_spec(self):
        cfg = small_train_cfg(strategy="dual_mode", mode_weights=ModeWeights(alpha=0.3))
        rng, ref = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(200):
            assert step_modes(rng, cfg) == [(None, 0.3), (sample_context(SETS, ref), 0.7)]
            assert rng.bit_generator.state == ref.bit_generator.state


class TestSteps:
    def test_empty_batch_rejected(self, utts):
        model = TransducerModel(MODEL_CFG)
        opt = AdamW(model.parameters())
        for strategy in ("single_mode", "dual_mode"):
            with pytest.raises(EmptyBatchError):
                train_step(model, [], np.random.default_rng(0),
                           small_train_cfg(strategy=strategy), opt, 1)

    @pytest.mark.parametrize("strategy", ["single_mode", "dual_mode"])
    def test_blank_in_target_rejected_before_the_update(self, utts, strategy):
        model = TransducerModel(MODEL_CFG)
        before = [p.data.copy() for p in model.parameters()]
        bad = replace(utts[0], tokens=np.array([3, 0, 5]))
        with pytest.raises(BlankInTargetError):
            train_step(model, [bad], np.random.default_rng(0),
                       small_train_cfg(strategy=strategy), AdamW(model.parameters()), 1)
        for p, p0 in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, p0)

    def test_dm_alpha_one_matches_sm_offline_update(self, utts):
        batch = utts[:2]
        cfg_dm = small_train_cfg(strategy="dual_mode",
                                 mode_weights=ModeWeights(alpha=1.0, p_off=1.0),
                                 mcr=MCRConfig(lam=0.0))
        cfg_sm = small_train_cfg(strategy="single_mode",
                                 mode_weights=ModeWeights(alpha=1.0, p_off=1.0))
        m1 = TransducerModel(MODEL_CFG)
        m2 = TransducerModel(MODEL_CFG)
        o1 = AdamW(m1.parameters(), weight_decay=cfg_dm.weight_decay)
        o2 = AdamW(m2.parameters(), weight_decay=cfg_sm.weight_decay)
        train_step(m1, batch, np.random.default_rng(0), cfg_dm, o1, 1)
        train_step(m2, batch, np.random.default_rng(0), cfg_sm, o2, 1)
        for (n1, p1), (n2, p2) in zip(m1.param_items(), m2.param_items()):
            assert np.abs(p1.data.astype(np.float64)
                          - p2.data.astype(np.float64)).max() <= 1e-7, n1

    def test_dm_lambda_zero_same_spec_losses_match(self, utts):
        # full-context streaming spec: both forwards identical
        cfg = small_train_cfg(strategy="dual_mode",
                              mode_weights=ModeWeights(alpha=0.5, p_off=0.5),
                              mcr=MCRConfig(lam=0.0),
                              context_sets=ContextSets.from_nested(
                                  [[64], [64], [64]]))
        model = TransducerModel(MODEL_CFG)
        opt = AdamW(model.parameters())
        report = train_step(model, utts[:2], np.random.default_rng(0), cfg, opt, 1)
        assert abs(report["loss_off"] - report["loss_str"]) <= 1e-9

    def test_dm_total_is_weighted_sum(self, utts):
        cfg = small_train_cfg(strategy="dual_mode",
                              mode_weights=ModeWeights(alpha=0.5, p_off=0.5),
                              mcr=MCRConfig(lam=0.3, direction="symmetric", tile=10))
        model = TransducerModel(MODEL_CFG)
        opt = AdamW(model.parameters())
        r = train_step(model, utts[:3], np.random.default_rng(1), cfg, opt, 1)
        expected = 0.5 * r["loss_off"] + 0.5 * r["loss_str"] + 0.3 * r["loss_mcr"]
        assert abs(r["total"] - expected) <= 1e-12
        assert r["loss_mcr"] > 0.0

    def test_sm_offline_only_metrics(self, utts, tmp_path):
        cfg = small_train_cfg(mode_weights=ModeWeights(p_off=1.0), steps=6)
        model = TransducerModel(MODEL_CFG)
        metrics = tmp_path / "metrics.jsonl"
        run_training(model, utts, cfg, metrics_path=metrics)
        records = [json.loads(l) for l in open(metrics)]
        assert len(records) == 6
        for r in records:
            assert {"loss_off", "loss_str", "loss_mcr", "spec"} & set(r) == {"loss_off"}
            assert r["total"] == r["loss_off"]

    def test_utterance_shorter_than_one_encoder_frame_raises_before_the_first_step(
            self, utts, tmp_path, monkeypatch):
        # it once failed whichever step first drew it
        monkeypatch.setattr("unify_rnnt.training.train_step",
                            lambda *a: pytest.fail("a step ran"))
        short = replace(utts[5], id="short", features=utts[5].features[:1])
        metrics = tmp_path / "metrics.jsonl"
        with pytest.raises(InputTooShortError,
                           match="utterance short: 1 frames < subsample factor 2"):
            run_training(TransducerModel(MODEL_CFG), utts + [short], small_train_cfg(),
                         metrics_path=metrics)
        assert not metrics.exists()

    def test_empty_corpus_raises_before_the_first_step(self, tmp_path):
        with pytest.raises(EmptyBatchError, match="training corpus is empty"):
            run_training(TransducerModel(MODEL_CFG), [], small_train_cfg())

    @pytest.mark.parametrize("strategy,p_off,lam,keys", [
        ("single_mode", 0.0, 0.3, {"loss_str", "spec"}),
        ("dual_mode", 0.5, 0.0, {"loss_off", "loss_str", "loss_mcr", "spec"}),
        ("dual_mode", 0.5, 0.3, {"loss_off", "loss_str", "loss_mcr", "spec"}),
    ])
    def test_one_report_schema(self, utts, strategy, p_off, lam, keys):
        # a loss per mode run, loss_mcr in dual mode, spec when streaming ran
        cfg = small_train_cfg(strategy=strategy, mode_weights=ModeWeights(0.5, p_off),
                              mcr=MCRConfig(lam=lam, tile=10))
        model = TransducerModel(MODEL_CFG)
        r = train_step(model, utts[:2], np.random.default_rng(0), cfg,
                       AdamW(model.parameters()), 1)
        assert set(r) == keys | {"step", "strategy", "lr", "total", "grad_norm"}
        assert r["strategy"] == strategy and len(r["spec"]) == 3
        if strategy == "dual_mode":
            assert (r["loss_mcr"] > 0.0) == (lam > 0.0)


class TestDivergence:
    """A non-finite joint weight fails the step with NumericalError for every
    strategy, whether the consistency loss or the loss total sees it first."""

    @pytest.mark.parametrize("strategy,lam,cause", [
        ("dual_mode", 0.3, NonFiniteInputError),
        ("dual_mode", 0.0, None),
        ("single_mode", 0.3, None),
    ], ids=["dm_mcr", "dm", "sm"])
    def test_non_finite_weight_is_a_numerical_error(self, utts, strategy, lam, cause):
        cfg = small_train_cfg(strategy=strategy, mcr=MCRConfig(lam=lam, tile=10))
        model = TransducerModel(MODEL_CFG)
        model.params["joint.w_out"].data[0, 0] = np.inf
        opt = AdamW(model.parameters())
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="at step 3$") as info:
            train_step(model, utts[:2], np.random.default_rng(0), cfg, opt, 3)
        if cause is None:
            assert info.value.__cause__ is None
        else:
            assert isinstance(info.value.__cause__, cause)


class TestLossDecreases:
    @pytest.mark.slow
    def test_loss_decreases_for_every_strategy(self, utts):
        # 500-step smoke property per strategy on the small corpus
        strategies = {
            "offline": small_train_cfg(steps=500, warmup_steps=50,
                                       mode_weights=ModeWeights(0.5, 1.0),
                                       max_lr=2e-3, batch_size=2),
            "streaming": small_train_cfg(steps=500, warmup_steps=50,
                                         mode_weights=ModeWeights(0.5, 0.0),
                                         max_lr=2e-3, batch_size=2),
            "sm": small_train_cfg(steps=500, warmup_steps=50,
                                  mode_weights=ModeWeights(0.5, 0.5),
                                  max_lr=2e-3, batch_size=2),
            "dm": small_train_cfg(strategy="dual_mode", steps=500, warmup_steps=50,
                                  mcr=MCRConfig(lam=0.0), max_lr=2e-3, batch_size=2),
            "dm_mcr": small_train_cfg(strategy="dual_mode", steps=500,
                                      warmup_steps=50,
                                      mcr=MCRConfig(lam=0.3, tile=10),
                                      max_lr=2e-3, batch_size=2),
        }
        for name, cfg in strategies.items():
            model = TransducerModel(MODEL_CFG)
            opt = AdamW(model.parameters(), weight_decay=cfg.weight_decay)
            rng = np.random.default_rng(cfg.seed)
            first = last = None
            for step in range(1, cfg.steps + 1):
                idx = rng.integers(0, len(utts), cfg.batch_size)
                batch = [utts[int(i)] for i in idx]
                val = train_step(model, batch, rng, cfg, opt, step)["total"]
                if first is None:
                    first = val
                last = val
            assert last < first, (name, first, last)


class TestCheckpoint:
    @staticmethod
    def assert_roundtrip_bit_exact(tmp_path, cfg):
        model = TransducerModel(cfg)
        opt = AdamW(model.parameters(), lr=3e-4, weight_decay=0.01)
        # make optimizer state nontrivial
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        rng = np.random.default_rng(11)
        rng.random(3)
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=17, optimizer=opt, rng=rng)
        loaded, step, opt2, rng2 = load_checkpoint(path)
        assert step == 17
        assert rng2.bit_generator.state == rng.bit_generator.state
        np.testing.assert_array_equal(rng2.random(4), rng.random(4))
        for (n1, p1), (n2, p2) in zip(model.param_items(), loaded.param_items()):
            assert n1 == n2
            assert p2.data.dtype == p1.data.dtype and p2.data.tobytes() == p1.data.tobytes()
        assert opt2 is not None and opt2.t == opt.t
        for a, b in zip(opt.m + opt.v, opt2.m + opt2.v):
            assert b.dtype == a.dtype and b.tobytes() == a.tobytes()

    def test_roundtrip_bit_exact(self, tmp_path):
        self.assert_roundtrip_bit_exact(tmp_path, MODEL_CFG)

    def test_float64_roundtrip_bit_exact(self, tmp_path):
        # blobs are stored in the model's dtype: float32 blobs would round
        # the float64 parameters and moments
        self.assert_roundtrip_bit_exact(tmp_path, replace(MODEL_CFG, dtype="float64"))

    def test_blobs_are_written_per_parameter(self, tmp_path):
        """After the header: each parameter's float32 bytes in declaration
        order, then each first moment, then each second moment, as a writer
        that visits the parameters one by one lays them out."""
        model = TransducerModel(MODEL_CFG)
        opt = AdamW(model.parameters(), lr=3e-4, weight_decay=0.01)
        rng = np.random.default_rng(2)
        for _ in range(2):
            for p in model.parameters():
                p.grad = rng.standard_normal(p.shape).astype(np.float32)
            opt.step()
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=2, optimizer=opt)
        raw = open(path, "rb").read()
        start = 8 + 4 + 8 + struct.unpack("<Q", raw[12:20])[0]
        want = b"".join(p.data.astype("<f4").tobytes() for _n, p in model.param_items())
        want += b"".join(buf.astype("<f4").tobytes() for buf in opt.m + opt.v)
        assert raw[start:] == want

    def test_out_of_range_stored_betas_are_corrupt(self, tmp_path, rewrite_header):
        path = tmp_path / "model.urnt"
        model = TransducerModel(MODEL_CFG)
        save_checkpoint(path, model, step=3, optimizer=AdamW(model.parameters()))
        rewrite_header(path, lambda header: header["optimizer"].update(betas=[1.0, 0.999]))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        model = TransducerModel(MODEL_CFG)
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=1)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-1])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "model.urnt"
        open(path, "wb").write(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_config_mismatch_rejected(self, tmp_path):
        model = TransducerModel(MODEL_CFG)
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=1)
        other = replace(MODEL_CFG, vocab_size=12)
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path, expected_config=other)

    def test_checkpoint_without_rng_state_loads(self, tmp_path, rewrite_header):
        model = TransducerModel(MODEL_CFG)
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=3)
        # rewrite the header as older writers did, with no rng_state field
        rewrite_header(path, lambda header: header.pop("rng_state"))
        loaded, step, _opt, rng = load_checkpoint(path)
        assert step == 3 and rng is None

    @pytest.mark.parametrize("key", ["model_config", "params", "step", "optimizer.eps"])
    def test_header_missing_field_is_corrupt(self, tmp_path, rewrite_header, key):
        path = tmp_path / "model.urnt"
        model = TransducerModel(MODEL_CFG)
        save_checkpoint(path, model, step=3, optimizer=AdamW(model.parameters()))
        section, _, field = key.partition(".")
        rewrite_header(path, lambda header: (header[section] if field else header)
                       .pop(field or section))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_unknown_model_config_key_is_version_mismatch(self, tmp_path, rewrite_header):
        path = tmp_path / "model.urnt"
        save_checkpoint(path, TransducerModel(MODEL_CFG), step=3)
        rewrite_header(path, lambda header: header["model_config"].update(pos_enc="rope"))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        model = TransducerModel(MODEL_CFG)
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=1)
        before = open(path, "rb").read()

        class FailingBlob:
            """Parameter data whose serialization fails mid-write."""
            shape = model.params["joint.b"].shape

            def astype(self, *args, **kwargs):
                raise OSError("disk full")

        model.params["joint.b"].data = FailingBlob()
        with pytest.raises(OSError):
            save_checkpoint(path, model, step=2)
        assert open(path, "rb").read() == before
        assert load_checkpoint(path)[1] == 1
        assert os.listdir(tmp_path) == ["model.urnt"]

    def test_trailing_garbage_detected(self, tmp_path):
        model = TransducerModel(MODEL_CFG)
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=1)
        with open(path, "ab") as fh:
            fh.write(b"x")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)


class TestResume:
    def test_resume_continues_at_saved_step(self, utts, tmp_path):
        cfg = small_train_cfg(steps=8, warmup_steps=2)
        model = TransducerModel(MODEL_CFG)
        ckpt = tmp_path / "ck.urnt"
        half = replace(cfg, steps=4)
        opt = AdamW(model.parameters(), weight_decay=cfg.weight_decay)
        run_training(model, utts, half, opt=opt)
        save_checkpoint(ckpt, model, step=4, optimizer=opt)
        loaded, step, opt2, _rng = load_checkpoint(ckpt, expected_config=MODEL_CFG)
        assert step == 4
        metrics = tmp_path / "metrics.jsonl"
        run_training(loaded, utts, cfg, metrics_path=metrics, start_step=step,
                     opt=opt2)
        records = [json.loads(l) for l in open(metrics)]
        assert [r["step"] for r in records] == [5, 6, 7, 8]

    def test_resume_past_the_configured_steps_raises_before_any_write(self, utts,
                                                                    tmp_path):
        model = TransducerModel(MODEL_CFG)
        before = [p.data.copy() for p in model.parameters()]
        metrics, ckpt = tmp_path / "metrics.jsonl", tmp_path / "ck.urnt"
        with pytest.raises(ValueError, match="past train.steps 3"):
            run_training(model, utts, small_train_cfg(steps=3), metrics_path=metrics,
                         checkpoint_path=ckpt, start_step=4)
        assert not metrics.exists() and not ckpt.exists()
        assert all(a.tobytes() == p.data.tobytes()
                   for a, p in zip(before, model.parameters()))
        # resuming at the last step is a no-op that still writes the checkpoint
        run_training(model, utts, small_train_cfg(steps=3), checkpoint_path=ckpt,
                     start_step=3)
        assert ckpt.exists()


# runs in a fresh interpreter with one BLAS thread: results are bit-exact only
# at a fixed thread count
RESUME_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from dataclasses import replace
    from unify_rnnt.contexts import ContextSets
    from unify_rnnt.corpus import CorpusConfig, generate_utterances
    from unify_rnnt.mcr import MCRConfig
    from unify_rnnt.model import ModelConfig, TransducerModel
    from unify_rnnt.training import (AdamW, TrainConfig, load_checkpoint, save_checkpoint,
                                     train_step)

    model_cfg = ModelConfig(feat_dim=6, model_dim=16, heads=2, blocks=1, conv_kernel=3,
                            vocab_size=10, predictor_dim=8, joint_dim=8, ff_dim=16, seed=5)
    utts = generate_utterances(CorpusConfig(n_symbols=8, feat_dim=6, ambiguous_pairs=2,
                                            seed=3, min_symbols=3, max_symbols=6), 24)
    cfg = TrainConfig(strategy="dual_mode", mcr=MCRConfig(lam=0.3, tile=10),
                      context_sets=ContextSets.from_nested([[4], [1, 2], [0, 1, 2]]),
                      steps=8, warmup_steps=2, batch_size=2, clip_norm=0.5)
    K = 5

    def steps(model, opt, rng, first, last):
        for step in range(first, last + 1):
            idx = rng.integers(0, len(utts), size=cfg.batch_size)
            train_step(model, [utts[int(i)] for i in idx], rng, cfg, opt, step)

    whole = TransducerModel(model_cfg)
    whole_opt = AdamW(whole.parameters(), lr=cfg.max_lr, weight_decay=cfg.weight_decay)
    steps(whole, whole_opt, np.random.default_rng(cfg.seed), 1, K + 1)

    first = TransducerModel(model_cfg)
    first_opt = AdamW(first.parameters(), lr=cfg.max_lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    steps(first, first_opt, rng, 1, K)
    save_checkpoint(sys.argv[1], first, step=K, optimizer=first_opt, rng=rng)
    resumed, step, opt, rng = load_checkpoint(sys.argv[1], expected_config=model_cfg)
    steps(resumed, opt, rng, step + 1, K + 1)

    assert opt.t == whole_opt.t == K + 1
    pairs = [(p.data, q.data) for p, q in zip(resumed.parameters(), whole.parameters())]
    pairs += list(zip(opt.m + opt.v, whole_opt.m + whole_opt.v))
    bad = [i for i, (a, b) in enumerate(pairs) if a.tobytes() != b.tobytes()]
    assert not bad, bad
    # the loaded moments are the optimizer's views, not replaced arrays
    assert all(buf.base is opt.grad_buffer().base for buf in opt.m + opt.v)
    print("resumed run equals the uninterrupted run")
""")


def test_resume_one_step_after_a_checkpoint_equals_the_uninterrupted_run(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", RESUME_SCRIPT, str(tmp_path / "ck.urnt")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "resumed run equals the uninterrupted run" in done.stdout
