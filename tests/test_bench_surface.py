"""The names the benchmark under ``perfbench/`` imports and patches.

Tier-1 runs only ``tests/``, so a package name that ``perfbench/bench.py``
imports or ``perfbench/spans.py`` patches could vanish without a failure
here.  These tests import the benchmark and install and uninstall its
instrumentation; they run no workload.
"""

import importlib
from pathlib import Path

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
