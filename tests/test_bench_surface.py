"""The names the benchmark under ``perfbench/`` imports and patches.

Tier-1 runs only ``tests/``, so a package name that ``perfbench/bench.py``
imports or ``perfbench/spans.py`` patches, or a call shape its gates use,
could vanish or break without a failure here.  These tests import the
benchmark, install and uninstall its instrumentation and run its gates'
calls on a tiny model; they run no workload.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("bench"), importlib.import_module("spans")


def test_benchmark_imports_the_package(perfbench):
    from unify_rnnt.contexts import ContextSpec
    from unify_rnnt.training import train_step
    bench, _spans = perfbench
    # the benchmark's names for a mode and the step are the package's own
    spec = ContextSpec(4, 1, 0)
    assert bench.OFFLINE is None and bench.streaming_mode(spec) is spec
    assert bench.train_step_dm is train_step


def test_instrumentation_installs_and_uninstalls(perfbench):
    from unify_rnnt import model, training
    _bench, spans = perfbench
    before = (model.TransducerModel.encode, training.mcr_forward, training.clip_global_norm)
    instr = spans.Instrumentation(spans.Recorder()).install()
    try:
        assert training.mcr_forward is not before[1]
    finally:
        instr.uninstall()
    after = (model.TransducerModel.encode, training.mcr_forward, training.clip_global_norm)
    assert all(a is b for a, b in zip(before, after))


def test_traced_calls_record_the_spans_per_layer_reads(perfbench):
    """``bench.per_layer`` divides the loss head's transducer time by its count
    of ``rnnt_forward_single`` spans, reads a train step's ``AdamW.step``
    and ``clip_global_norm`` spans, and reads each tape op's backward time
    (``tensor.bwd_ms.<op>``) from its ``bwd.<name>`` spans: traced calls
    record each of them."""
    from test_tensor_ops import TestOpContract
    from unify_rnnt.contexts import ContextSets
    from unify_rnnt.corpus import CorpusConfig, generate_utterances
    from unify_rnnt.mcr import MCRConfig
    from unify_rnnt.model import ModelConfig, TransducerModel
    from unify_rnnt.rnnt_loss import JointLogits
    from unify_rnnt.training import AdamW, TrainConfig, train_step
    bench, spans = perfbench
    rng = np.random.default_rng(0)
    t_len, u_len = [3, 2], [2, 0]
    z = rng.standard_normal((2, 2, 3, 3, 5))
    heads = [JointLogits(zm, t_len, u_len) for zm in z]
    targets = [rng.integers(1, 5, size=u) for u in u_len]
    model = TransducerModel(ModelConfig(feat_dim=6, model_dim=8, heads=2, blocks=1,
                                        conv_kernel=3, vocab_size=10, predictor_dim=8,
                                        joint_dim=8, ff_dim=8))
    opt = AdamW(model.parameters())
    cfg = TrainConfig(mcr=MCRConfig(lam=0.3, tile=4), steps=4, warmup_steps=1,
                      batch_size=2,
                      context_sets=ContextSets.from_nested([[4], [1, 2], [0, 1]]))
    batch = generate_utterances(CorpusConfig(n_symbols=8, feat_dim=6, ambiguous_pairs=2,
                                             min_symbols=3, max_symbols=4), 2)
    rec = spans.Recorder()
    instr = spans.Instrumentation(rec).install()
    try:
        with rec.operation("head"):
            bench.loss_head(*heads, targets, MCRConfig(tile=2))
        with rec.operation("train_step"):
            train_step(model, batch, rng, cfg, opt, 1)
    finally:
        instr.uninstall()
    calls = {key: acc[0] for key, acc in rec.totals().items()}
    assert calls.get(("head", "", "rnnt_forward_single"), 0) >= 1
    assert calls.get(("train_step", "", "AdamW.step")) == 1
    assert calls.get(("train_step", "", "clip_global_norm")) == 1
    # every op's backward is registered through the patched ``Tape.record``
    ops = TestOpContract.MODEL_OPS | TestOpContract.LOSS_OPS
    assert len(ops) == 14
    assert {name for name in ops if calls.get(("train_step", "", "bwd." + name), 0) < 1} == set()


def test_gate_call_shapes_run_on_a_tiny_model(perfbench):
    """The batch-of-one call shapes of the benchmark's gates: ``dual_loss``
    under a tape with a backward (the gradient gate), ``model_heads`` (the
    loss-head positions, which the head gate checks) and offline against
    full-context streaming decoding (the token gate)."""
    from unify_rnnt.contexts import ContextSets, ContextSpec
    from unify_rnnt.corpus import CorpusConfig, generate_utterances
    from unify_rnnt.mcr import MCRConfig
    from unify_rnnt.model import ModelConfig, TransducerModel
    from unify_rnnt.tensor import Tape
    from unify_rnnt.training import TrainConfig
    bench, _spans = perfbench
    model = TransducerModel(ModelConfig(feat_dim=6, model_dim=8, heads=2, blocks=2,
                                        conv_kernel=3, vocab_size=10, predictor_dim=8,
                                        joint_dim=8, ff_dim=8, seed=1))
    cfg = TrainConfig(mcr=MCRConfig(lam=0.3, tile=4), steps=4, warmup_steps=1,
                      context_sets=ContextSets.from_nested([[4], [1, 2], [0, 1]]))
    utts = generate_utterances(CorpusConfig(n_symbols=8, feat_dim=6, ambiguous_pairs=2,
                                            min_symbols=3, max_symbols=4), 4)
    with Tape() as tape:
        loss = bench.dual_loss(model, utts[0], ContextSpec(4, 1, 1), cfg)
        tape.backward(loss)
    assert np.isfinite(loss.item())
    assert all(p.grad is not None and np.isfinite(p.grad).all() for p in model.parameters())
    state = SimpleNamespace(model=model, cfg=cfg, train_utts=utts,
                            setup=SimpleNamespace(eval_left=4))
    assert bench.grads_agree(*bench.gradcheck_entries(state, 4))
    heads = bench.model_heads(model, [utts[:2], utts[2:]], ContextSpec(4, 1, 0))
    assert len(heads) == 2
    for z_off, z_str, targets in heads:
        assert z_off.z.shape == z_str.z.shape and z_off.batch_size == 2
        assert bench.head_gate(z_off, z_str, targets, cfg.mcr) == []
        assert np.isfinite(bench.loss_head(z_off, z_str, targets, cfg.mcr)).all()
    assert bench.tokens_agree(*bench.full_context_tokens(model, utts, 40.0), 10) == []
