"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 1 to 6 and 10 are here, each self-contained.  Criteria 7 through 9
(the strategy x seed training grid over the synthetic corpus) are not
implemented yet.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from unify_rnnt import tensor as tz
from unify_rnnt.contexts import (ContextSpec, build_attention_mask, plan_conv_chunks,
                                 right_context_rows)
from unify_rnnt.corpus import CorpusConfig, generate_corpus, generate_utterances, load_manifest
from unify_rnnt.gradcheck import finite_difference_grad, max_rel_error
from unify_rnnt.mcr import (MCRConfig, mcr_forward, mcr_loss, mcr_memory_probe,
                            mcr_naive_oracle)
from unify_rnnt.model import ModelConfig, TransducerModel
from unify_rnnt.rnnt_loss import JointLogits, rnnt_bruteforce_oracle, rnnt_loss
from unify_rnnt.training import AdamW, load_checkpoint, save_checkpoint
from unify_rnnt import experiments


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {number} ({title}): PASS ({elapsed:.1f}s)")


def test_criterion_1_rnnt_oracle_and_gradients():
    with criterion(1, "transducer loss vs enumeration oracle + gradients"):
        start = time.perf_counter()
        rng = np.random.default_rng(100)
        for i in range(200):
            T = int(rng.integers(1, 5))
            U = int(rng.integers(0, 4))
            V = int(rng.integers(2, 4))
            z = rng.standard_normal((T, U + 1, V)) * 2.0
            y = rng.integers(1, V, U)
            jl = JointLogits(z[None], [T], [U])
            losses, grads = rnnt_loss(jl, [y])
            oracle = rnnt_bruteforce_oracle(jl, [y])
            assert abs(losses[0] - oracle[0]) <= 1e-9
            if i < 40:  # full finite-difference pass on a healthy subsample
                fd = finite_difference_grad(
                    lambda x: rnnt_loss(JointLogits(x[None], [T], [U]), [y])[0][0],
                    z.copy())
                assert max_rel_error(grads[0], fd) <= 1e-5
        assert time.perf_counter() - start < 30.0


def test_criterion_2_mcr_fused_naive_and_tiles():
    with criterion(2, "fused consistency loss vs naive oracle + tile ladder"):
        start = time.perf_counter()
        rng = np.random.default_rng(200)
        directions = ("offline_teacher", "streaming_teacher", "symmetric")
        for i in range(100):
            B = int(rng.integers(1, 3))
            T = int(rng.integers(1, 9))
            U = int(rng.integers(0, 7))
            V = int(rng.integers(2, 33))
            z1 = rng.standard_normal((B, T, U + 1, V)) * 2.0
            z2 = rng.standard_normal((B, T, U + 1, V)) * 2.0
            t_len = rng.integers(1, T + 1, B)
            u_len = rng.integers(0, U + 1, B)
            a = JointLogits(z1, t_len, u_len)
            b = JointLogits(z2, t_len, u_len)
            cfg = MCRConfig(direction=directions[i % 3], tile=int(rng.integers(1, V + 2)))
            fused = mcr_loss(a, b, cfg)
            naive = mcr_naive_oracle(a, b, cfg)
            assert abs(fused.loss - naive.loss) <= 1e-9
            assert np.abs(fused.grad_offline - naive.grad_offline).max() <= 1e-9
            assert np.abs(fused.grad_streaming - naive.grad_streaming).max() <= 1e-9
            if i % 10 == 0:
                ref = mcr_loss(a, b, replace(cfg, tile=V))
                for tile in (1, 2, 8, V):
                    res = mcr_loss(a, b, replace(cfg, tile=tile))
                    assert abs(res.loss - ref.loss) <= 1e-12
                    assert np.abs(res.grad_offline - ref.grad_offline).max() <= 1e-12
                    assert np.abs(res.grad_streaming - ref.grad_streaming).max() <= 1e-12
        assert time.perf_counter() - start < 30.0


def test_criterion_3_mcr_gradient_forms():
    with criterion(3, "consistency gradient closed forms vs finite differences"):
        rng = np.random.default_rng(300)
        B, T, U, V = 1, 3, 2, 5
        z1 = rng.standard_normal((B, T, U + 1, V))
        z2 = rng.standard_normal((B, T, U + 1, V))
        a = JointLogits(z1, [T], [U])
        b = JointLogits(z2, [T], [U])
        norm = T * (U + 1)

        def softmaxes(z):
            e = np.exp(z - z.max(-1, keepdims=True))
            return e / e.sum(-1, keepdims=True)

        p = softmaxes(z1)
        q = softmaxes(z2)

        # one-directional: student gradient is (q - p) / norm
        one = mcr_loss(a, b, MCRConfig(direction="offline_teacher", tile=2))
        np.testing.assert_allclose(one.grad_streaming, (q - p) / norm, atol=1e-12)
        fd = finite_difference_grad(
            lambda x: mcr_forward(a, JointLogits(x, [T], [U]),
                                  MCRConfig(direction="offline_teacher"))[0],
            z2.copy())
        assert max_rel_error(one.grad_streaming, fd) <= 1e-5

        # symmetric detached: +-(p - q) / (2 norm); each side checked against
        # finite differences of its own frozen-teacher direction
        sym = mcr_loss(a, b, MCRConfig(direction="symmetric", tile=3))
        np.testing.assert_allclose(sym.grad_streaming, (q - p) / (2 * norm), atol=1e-12)
        np.testing.assert_allclose(sym.grad_offline, (p - q) / (2 * norm), atol=1e-12)
        fd_str = finite_difference_grad(
            lambda x: 0.5 * mcr_forward(a, JointLogits(x, [T], [U]),
                                        MCRConfig(direction="offline_teacher"))[0],
            z2.copy())
        assert max_rel_error(sym.grad_streaming, fd_str) <= 1e-5
        fd_off = finite_difference_grad(
            lambda x: 0.5 * mcr_forward(JointLogits(x, [T], [U]), b,
                                        MCRConfig(direction="streaming_teacher"))[0],
            z1.copy())
        assert max_rel_error(sym.grad_offline, fd_off) <= 1e-5


def test_criterion_4_memory_contract():
    with criterion(4, "fused path peak auxiliary bytes <= 5% of naive"):
        start = time.perf_counter()
        report = mcr_memory_probe((4, 64, 32, 1024), tile=128)
        assert report["aux_bytes_fused"] <= 0.05 * report["aux_bytes_naive"], report
        assert abs(report["loss_fused"] - report["loss_naive"]) <= 1e-9
        assert report["max_grad_diff"] <= 1e-9
        assert time.perf_counter() - start < 60.0
        print(f"\n  fused {report['aux_bytes_fused']} B vs naive "
              f"{report['aux_bytes_naive']} B (ratio {report['ratio']:.4f})")


def test_criterion_5_mode_equivalence():
    with criterion(5, "full-context streaming equals offline"):
        cfg = ModelConfig(feat_dim=8, model_dim=32, heads=4, blocks=2, conv_kernel=7,
                          subsample_factor=2, vocab_size=8, predictor_dim=16,
                          joint_dim=16, ff_dim=32, seed=50, dtype="float64")
        model = TransducerModel(cfg)
        rng = np.random.default_rng(500)
        for _ in range(20):
            feats = rng.standard_normal((int(rng.integers(4, 28)), 8))
            T = feats.shape[0] // 2
            off = model.encode(feats).data
            spec = ContextSpec(T + 1, T + 1, T + 1)
            stream = model.encode(feats, spec).data
            np.testing.assert_array_equal(off, stream)
        # the chunked conv with C >= T is bit-exact vs the offline conv: no
        # copies, and every tap reads its frame if it exists
        for _ in range(10):
            T = int(rng.integers(3, 16))  # the oracle needs k <= 2T + 1
            x = tz.constant(rng.standard_normal((T, 5)))
            k = tz.constant(rng.standard_normal((7, 5)))
            offline = tz.depthwise_conv1d(x, k).data
            taps = plan_conv_chunks(T, ContextSpec(0, T + int(rng.integers(0, 3)), 0), 7)
            chunked = tz.depthwise_conv1d_windows(x, k, tz.ConvTaps(taps)).data
            np.testing.assert_array_equal(chunked, offline)


def test_criterion_6_mask_plan_invariants():
    with criterion(6, "mask/plan property suite + causality probe, 1000 cases"):
        rng = np.random.default_rng(600)
        cases = 0
        # 400 mask cases: row non-emptiness and growth monotonicity over the
        # main rows and keys (right growth adds copy rows)
        for _ in range(400):
            T = int(rng.integers(1, 24))
            spec = ContextSpec(int(rng.integers(0, 10)), int(rng.integers(1, 8)),
                               int(rng.integers(0, 8)))
            mask = build_attention_mask(T, spec)
            assert mask.any(axis=1).all()
            grown = ContextSpec(spec.left + int(rng.integers(1, 4)), spec.chunk,
                                spec.right + int(rng.integers(1, 4)))
            bigger = build_attention_mask(T, grown)[:T, :T]
            assert (bigger | mask[:T, :T] == bigger).all()
            wider = ContextSpec(spec.left, spec.chunk * int(rng.integers(2, 4)),
                                spec.right)
            widest = build_attention_mask(T, wider)[:T, :T]
            assert (widest | mask[:T, :T] == widest).all()
            cases += 1
        # 400 tap-table cases: every row reads itself through the centre tap,
        # main rows below its chunk end, its own chunk's copies up to the
        # chunk's horizon s + C + R, and nothing else
        for _ in range(400):
            T = int(rng.integers(1, 40))
            spec = ContextSpec(int(rng.integers(0, 6)), int(rng.integers(1, 9)),
                               int(rng.integers(0, 6)))
            k = int(rng.choice([1, 3, 5, 7, 9]))
            taps = plan_conv_chunks(T, spec, k)
            frames, owner = right_context_rows(T, spec)
            np.testing.assert_array_equal(taps[k // 2], np.arange(frames.size))
            want_frame = frames + np.arange(k)[:, None] - k // 2
            read = taps >= 0
            assert (frames[taps[read]] == want_frame[read]).all()
            end = np.broadcast_to(owner + spec.chunk, taps.shape)
            is_copy = taps >= T
            assert (frames[taps[read & ~is_copy]] < end[read & ~is_copy]).all()
            assert (owner[taps[is_copy]] == np.broadcast_to(owner, taps.shape)[is_copy]).all()
            assert (frames[taps[read]] < end[read] + spec.right).all()
            cases += 1
        # 200 causality probes on the training path: perturbing input frames
        # at or past s + C + R never changes the rows of chunk [s, s + C),
        # bit for bit, through both blocks
        cfg = ModelConfig(feat_dim=4, model_dim=8, heads=2, blocks=2, conv_kernel=3,
                          subsample_factor=2, vocab_size=6, predictor_dim=4,
                          joint_dim=4, ff_dim=8, seed=60, dtype="float64")
        model = TransducerModel(cfg)
        probes = 0
        while probes < 200:
            T_in = int(rng.integers(8, 30))
            feats = rng.standard_normal((T_in, 4))
            total = T_in // 2
            spec = ContextSpec(int(rng.integers(0, 5)), int(rng.integers(1, 4)),
                               int(rng.integers(0, 4)))
            # a chunk with at least one frame past its horizon
            chunks = (total - spec.chunk - spec.right - 1) // spec.chunk + 1
            if chunks < 1:
                continue
            s = int(rng.integers(0, chunks)) * spec.chunk
            horizon = s + spec.chunk + spec.right
            base = model.encode(feats, spec).data
            perturbed = feats.copy()
            perturbed[horizon * 2:] += rng.standard_normal(perturbed[horizon * 2:].shape) * 50.0
            probe = model.encode(perturbed, spec).data
            np.testing.assert_array_equal(probe[s:s + spec.chunk], base[s:s + spec.chunk])
            probes += 1
            cases += 1
        assert cases >= 1000


def test_criterion_10_plumbing_roundtrips(tmp_path):
    with criterion(10, "checkpoint + manifest roundtrips, CLI determinism"):
        # checkpoint: bit-exact parameters and optimizer state
        cfg = ModelConfig(feat_dim=6, model_dim=16, heads=2, blocks=1, conv_kernel=3,
                          subsample_factor=2, vocab_size=8, predictor_dim=8,
                          joint_dim=8, ff_dim=16, seed=10)
        model = TransducerModel(cfg)
        opt = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
        for p in model.parameters():
            p.grad = np.full_like(p.data, 0.5)
        opt.step()
        path = tmp_path / "model.urnt"
        save_checkpoint(path, model, step=42, optimizer=opt)
        loaded, step, opt2, _rng = load_checkpoint(path, expected_config=cfg)
        assert step == 42
        for (_, p1), (_, p2) in zip(model.param_items(), loaded.param_items()):
            assert p1.data.tobytes() == p2.data.tobytes()
        for a, b in zip(opt.m + opt.v, opt2.m + opt2.v):
            np.testing.assert_array_equal(a, b)

        # manifest roundtrip is exact
        ccfg = CorpusConfig(n_symbols=8, feat_dim=6, ambiguous_pairs=2, seed=77)
        manifest = generate_corpus(ccfg, 15, tmp_path / "corpus")
        loaded_utts = list(load_manifest(manifest, ccfg.feat_dim))
        ref = generate_utterances(ccfg, 15)
        assert len(loaded_utts) == 15
        for got, want in zip(loaded_utts, ref):
            assert got.id == want.id
            np.testing.assert_array_equal(got.tokens, want.tokens)
            np.testing.assert_array_equal(got.features,
                                          want.features.astype("<f4"))

        # CLI determinism under fixed seeds
        import yaml
        from unify_rnnt.cli import main
        config = {
            "seed": 5, "out": str(tmp_path / "runA"),
            "corpus": {"n_symbols": 8, "feat_dim": 6, "ambiguous_pairs": 2,
                       "min_symbols": 3, "max_symbols": 5, "n_utterances": 8},
            "model": {"feat_dim": 6, "model_dim": 16, "heads": 2, "blocks": 1,
                      "conv_kernel": 3, "subsample_factor": 2, "vocab_size": 10,
                      "predictor_dim": 8, "joint_dim": 8, "ff_dim": 16, "seed": 5},
            "train": {"strategy": "single_mode", "p_off": 0.5,
                      "context_sets": [[4], [1, 2], [0, 1]], "steps": 4,
                      "warmup_steps": 1, "max_lr": 1e-3, "min_lr": 1e-4,
                      "batch_size": 2,
                      "manifest": str(tmp_path / "runA" / "corpus" / "manifest.jsonl")},
            "eval": {"left": 4, "specs": [[1, 0]], "frame_ms": 40.0},
        }
        cpath = tmp_path / "acc.yaml"
        cpath.write_text(yaml.safe_dump(config))
        assert main(["gen-data", "--config", str(cpath)]) == 0
        assert main(["train", "--config", str(cpath)]) == 0
        ck_a = (tmp_path / "runA" / "checkpoint.urnt").read_bytes()
        config["out"] = str(tmp_path / "runB")
        config["train"]["manifest"] = str(tmp_path / "runB" / "corpus" / "manifest.jsonl")
        cpath.write_text(yaml.safe_dump(config))
        assert main(["gen-data", "--config", str(cpath)]) == 0
        assert main(["train", "--config", str(cpath)]) == 0
        ck_b = (tmp_path / "runB" / "checkpoint.urnt").read_bytes()
        assert ck_a == ck_b
