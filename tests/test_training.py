"""Training loops, LR schedule, optimizer, checkpointing."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from unify_rnnt.contexts import ContextSets, ContextSpec, sample_context
from unify_rnnt.corpus import CorpusConfig, generate_utterances
from unify_rnnt.errors import (CorruptCheckpointError, EmptyBatchError,
                               NonFiniteInputError, NumericalError,
                               VersionMismatchError)
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

    def test_clip_global_norm(self):
        a = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        b = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([0.0, 4.0])
        norm = clip_global_norm([a, b], 2.5)
        assert norm == pytest.approx(5.0)
        total = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
        assert total == pytest.approx(2.5)


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
    def test_roundtrip_bit_exact(self, tmp_path):
        model = TransducerModel(MODEL_CFG)
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
            np.testing.assert_array_equal(p1.data, p2.data)
        assert opt2 is not None and opt2.t == opt.t
        for a, b in zip(opt.m + opt.v, opt2.m + opt2.v):
            np.testing.assert_array_equal(a, b)

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

    def test_float64_model_refused(self, tmp_path):
        model = TransducerModel(replace(MODEL_CFG, dtype="float64"))
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "m.urnt", model)

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
