"""Smoke tests of the benchmark itself at a tiny size.

    python3 -m pytest perfbench -q

Covers each workload's correctness gates (and that perturbed inputs trip
them), the span recorder and its self-time arithmetic, exact repetition of
the counts, and the metric names against BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
from spans import Instrumentation, Recorder, covered  # noqa: E402

TINY = bench.Sizes(n_train=24, n_eval=5, setup_repeats=2, train_steps=4, rounds=2,
                   minor=(("train", 2, 2), ("decode", 2, 2), ("head", 2, 2)),
                   gradcheck_entries=3)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
REPEATED_COUNTS = ("tensor.ops_per_step", "model.encode_calls_per_step",
                   "model.encode_calls_per_utt")


def _workload(name):
    return replace(bench.WORKLOADS[name], positions=3)


def _run(name, seed=3, trace=False):
    return bench.run(_workload(name), seed, 1.0, trace, TINY)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_passes_gates_and_reports_every_metric(name):
    metrics, detail, out, _rec = _run(name)
    assert out.failed == 0, out.notes
    assert all(detail["gates"].values()), detail["gates"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for key, (value, unit) in metrics.items():
        assert math.isfinite(value) and value > 0, key
        assert unit == units[key]
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_repeats_counts(name):
    first, detail, out, rec = _run(name, trace=True)
    assert out.failed == 0, out.notes
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(unit == units[key] for key, (_v, unit) in first.items())
    assert "traced_end_to_end" in detail
    # measured inside the run, against untraced sweeps of the same positions
    assert set(detail["trace_overhead"]) == {"train_step", "decode", "head"}
    assert rec.best("train_step" + bench.PLAIN) and rec.best("head" + bench.PLAIN)
    assert len(rec.spans) > len(rec.ops)
    # tape records per dual-mode step: 76 per utterance
    assert first["tensor.ops_per_step"][0] == 76 * 4
    again, detail2, _out, _rec = _run(name, trace=True)
    for key in REPEATED_COUNTS + tuple(k for k in first if "encoded_frames" in k):
        assert first[key] == again[key], key
    assert detail["ter_by_spec"] == detail2["ter_by_spec"]


def test_seed_changes_inputs():
    a = bench.derive_seeds(1)
    b = bench.derive_seeds(2)
    assert all(a[k] != b[k] for k in a)
    assert bench.derive_seeds(1) == a
    sa, _ = bench.build_state(TINY, 1)
    sb, _ = bench.build_state(TINY, 2)
    again, _ = bench.build_state(TINY, 1)
    assert not np.array_equal(sa.train_utts[0].features, sb.train_utts[0].features)
    assert not np.array_equal(sa.model.params["in_proj.w"].data, sb.model.params["in_proj.w"].data)
    assert np.array_equal(sa.model.params["in_proj.w"].data, again.model.params["in_proj.w"].data)
    assert [u.tokens.tolist() for u in sa.eval_utts] == [u.tokens.tolist() for u in again.eval_utts]


def test_stratified_picks_span_the_length_range():
    rng = np.random.default_rng(0)
    lengths = np.arange(100)[::-1]
    picks = bench.stratified_picks(rng, lengths, 10, 4)
    assert picks.shape == (10, 4)
    assert (lengths[picks[:, 0]] < lengths[picks[:, 3]]).all()   # slot s draws from stratum s
    assert len(set(picks[:, 1])) == 10


def test_quantile_picks_follow_the_reference_lengths():
    rng = np.random.default_rng(0)
    lengths = np.array([4, 4, 6, 9, 9, 9, 20])
    reference = np.arange(1000) % 10          # quantiles 0.5 .. 9.5
    picks = bench.quantile_picks(rng, lengths, reference, 10)
    assert len(picks) == 10
    assert sorted(lengths[picks].tolist()) == lengths[picks].tolist()
    assert lengths[picks[0]] == 4 and lengths[picks[-1]] == 9
    assert 6 in lengths[picks]


# -- gates: the negative cases ------------------------------------------------


def test_gradcheck_gate_trips_on_perturbed_gradient():
    state, _ = bench.build_state(TINY, 5)
    tape_g, fd_g = bench.gradcheck_entries(state, 3)
    assert bench.grads_agree(tape_g, fd_g)
    bad = tape_g.copy()
    bad[1] = bad[1] * 1.01 + 1e-4
    assert not bench.grads_agree(bad, fd_g)


def test_token_gate_trips_on_perturbed_tokens():
    offline = [[3, 4, 5], [7], []]
    assert bench.tokens_agree([list(t) for t in offline], offline, vocab=18) == []
    assert bench.tokens_agree([[3, 4, 6], [7], []], offline, vocab=18) == [0]
    assert bench.tokens_agree([[3, 4, 5], [7], [2]], offline, vocab=18) == [2]
    assert bench.tokens_agree([[3, 4, 5], [18], []], [[3, 4, 5], [18], []], vocab=18) == [1]
    assert bench.tokens_agree([[3, 4, 5]], offline, vocab=18) == [1]


def test_head_gate_trips_on_perturbed_gradient(monkeypatch):
    state, _ = bench.build_state(TINY, 6)
    group = state.eval_utts[:2]
    spec = bench.ContextSpec(12, 1, 0)
    z_off, z_str, targets = bench.model_heads(state.model, [group], spec)[0]
    cfg = bench.MCRConfig(direction="symmetric", lam=1.0, tile=5)
    assert bench.head_gate(z_off, z_str, targets, cfg) == []
    # a fused gradient that disagrees with the naive oracle must be reported
    orig = bench.mcr_loss

    def perturbed(*args):
        res = orig(*args)
        res.grad_offline[0, 0, 0, 0] += 1e-3
        return res
    monkeypatch.setattr(bench, "mcr_loss", perturbed)
    problems = bench.head_gate(z_off, z_str, targets, cfg)
    assert any("offline gradient" in p for p in problems)


# -- span recorder and self time ---------------------------------------------


def test_a_failed_gate_zeroes_ok_frac():
    out = bench.Outcome()
    for _ in range(999):
        out.op(True, "op")
    out.op(False, "op")
    out.gate(True, "gate")
    assert out.ok_frac() == pytest.approx(0.999)
    out.gate(False, "gate")
    assert out.ok_frac() == 0.0
    assert (out.attempted, out.failed) == (1002, 2)


def test_covered_is_the_union_clipped_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert covered(5.0, 6.0, [(0.0, 1.0)]) == 0.0


def test_self_time_subtracts_children():
    rec = Recorder()
    rec.spans = [("step", 0.0, 10.0, -1, 0), ("encode", 1.0, 4.0, 0, 0),
                 ("joint", 5.0, 6.0, 0, 0), ("linear", 2.0, 3.0, 1, 0)]
    rec.ops = [("train_step", "")]
    rec.op_spans = [0]
    rec.op_keys = [7]
    assert rec.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0])
    totals = rec.totals()
    assert totals[("train_step", "", "encode")] == pytest.approx([1, 3.0, 2.0])
    assert rec.durations("train_step") == [10.0]
    assert rec.best("train_step") == {7: 10.0}


def test_recorder_nests_spans_and_counts_per_operation():
    rec = Recorder()
    add = rec.timed("add", lambda a, b: a + b)
    with rec.operation("decode", "C1R0"):
        with rec.span("outer"):
            assert add(1, 2) == 3
        rec.count("frames", 7)
    assert add(2, 2) == 4            # outside any operation
    # span ids follow start order; each span keeps its parent's id
    assert [s[0] for s in rec.spans] == ["decode", "outer", "add", "add"]
    assert [s[3] for s in rec.spans] == [-1, 0, 1, -1]
    assert [s[4] for s in rec.spans] == [0, 0, 0, -1]
    assert rec.op_counts() == {("decode", "C1R0", "frames"): 7}


def test_best_is_the_fastest_repeat_of_each_position():
    rec = Recorder()
    for key in (1, 2, 1, 2, 1):
        with rec.operation("head", key=key):
            pass
    durations = rec.durations("head")
    best = rec.best("head")
    assert best == {1: min(durations[0::2]), 2: min(durations[1::2])}


def test_round_schedule_spreads_repeats_over_rounds():
    parts = bench.round_schedule({"train": (4, 2), "head": (3, 3)}, rounds=4)
    train = [p for part in parts for p in part["train"]]
    head = [p for part in parts for p in part["head"]]
    assert train == [(p, sweep) for sweep in range(2) for p in range(4)]
    assert head == [(p, sweep) for sweep in range(3) for p in range(3)]
    assert [len(part["train"]) for part in parts] == [2, 2, 2, 2]


def test_instrumentation_restores_every_attribute():
    from unify_rnnt import model, tensor, training
    before = (tensor.linear, tensor.Tape.__dict__["record"], model.TransducerModel.encode,
              training.clip_global_norm, model.build_attention_mask)
    instr = Instrumentation(Recorder()).install()
    assert tensor.linear is not before[0]
    instr.set(True)
    instr.set(False)
    assert tensor.linear is before[0]
    instr.set(True)
    instr.uninstall()
    after = (tensor.linear, tensor.Tape.__dict__["record"], model.TransducerModel.encode,
             training.clip_global_norm, model.build_attention_mask)
    assert all(a is b for a, b in zip(before, after))


def test_tail_is_the_eleventh_largest():
    value, pct, n = bench.tail(list(range(101)))
    assert (value, n) == (90, 101) and pct == pytest.approx(90.0)
    assert bench.tail([5.0, 1.0])[0] == 1.0


def test_run_refuses_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_dual",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
