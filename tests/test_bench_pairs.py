"""scripts/bench_pairs.py over fake checkouts: failed runs are kept and reported."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# a stand-in for perfbench/run.py: one metric, and a failure chosen per
# (side, workload, seed) by the FAIL table
FAKE_RUN = textwrap.dedent('''
    import argparse, json, sys
    SIDE = {side!r}
    SHIFT = {shift!r}
    FAIL = {{("change", "decode_stream", 2): "incorrect", ("parent", "train_dual", 1): "crash"}}
    p = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(flag)
    a = p.parse_args()
    how = FAIL.get((SIDE, a.workload, int(a.seed)))
    if how == "crash":
        sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: boom\\n")
        sys.exit(3)
    notes = ["decode C1R0 utt 4: tokens out of range or not repeatable"] if how else []
    print(json.dumps({{"info": {{"meta": {{"side": SIDE}}, "failures": notes}}}}))
    print(json.dumps({{"correct": not how, "attempted": 2, "failed": len(notes),
                      "metrics": {{"train_step_ms_p50": {{"value": 10.0 + int(a.seed)
                                                                  + SHIFT.get(int(a.seed), 0.0),
                                                         "unit": "ms"}}}}}}))
    sys.exit(1 if how else 0)
''')


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_tree(root: Path, side: str, shift=None) -> Path:
    """A checkout whose metric at seed s reads 10 + s, plus ``shift[s]``."""
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(side=side, shift=shift or {}))
    return root / side


def test_failed_runs_are_kept_named_and_fail_the_script(tmp_path, capsys):
    script = load_script()
    parent, change = fake_tree(tmp_path, "parent"), fake_tree(tmp_path, "change")
    code = script.main(["--parent", str(parent), "--change", str(change), "--seeds", "1-2",
                        "--trace-seeds", "", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED change decode_stream seed 2 trace 0: exit 1, correct=False" in out
    assert "  decode C1R0 utt 4: tokens out of range or not repeatable" in out
    assert "FAILED parent train_dual seed 1 trace 0: exit 3, correct=False" in out
    assert "RuntimeError: boom" in out
    assert out.count("FAILED") == 2
    # every finished pair is written; summaries use the pairs with metrics
    train = json.loads((tmp_path / "BENCH_train_dual.json").read_text())
    assert [p["seed"] for p in train["pairs"]] == [1, 2]
    assert train["pairs"][0]["parent"]["metrics"] is None
    assert train["summary"]["train_step_ms_p50"]["pairs"] == 1
    assert train["meta"] == {"parent": {"side": "parent"}, "change": {"side": "change"}}
    decode = json.loads((tmp_path / "BENCH_decode_stream.json").read_text())
    assert decode["summary"]["train_step_ms_p50"]["pairs"] == 2


def test_clean_runs_exit_zero(tmp_path, capsys):
    script = load_script()
    parent, change = fake_tree(tmp_path, "parent"), fake_tree(tmp_path, "change")
    code = script.main(["--parent", str(parent), "--change", str(change), "--seeds", "3",
                        "--trace-seeds", "", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "FAILED" not in capsys.readouterr().out


def run_claim(tmp_path, capsys, shift):
    script = load_script()
    parent = fake_tree(tmp_path, "parent")
    change = fake_tree(tmp_path, "change", shift)
    # seeds 3-12: no run fails; the parent reads 13..22, an IQR of 4.5
    code = script.main(["--parent", str(parent), "--change", str(change), "--seeds", "3-12",
                        "--trace-seeds", "", "--out-dir", str(tmp_path),
                        "--claim", "train_step_ms_p50:train_dual"])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("claim ")]
    assert len(lines) == 1
    return lines[0]


def test_claim_met_when_nine_tenths_win_by_more_than_the_parent_iqr(tmp_path, capsys):
    line = run_claim(tmp_path, capsys, {s: -6.0 for s in range(3, 13)} | {7: 1.0})
    assert line == ("claim train_step_ms_p50 on train_dual: parent median 17.5, "
                    "change median 12.5, parent IQR 4.5, gain 5, "
                    "change wins 9/10 pairs: met")


@pytest.mark.parametrize("shift", [
    {s: -4.0 for s in range(3, 13)},                   # every pair won, gap below the IQR
    {s: -5.0 for s in range(3, 13)} | {7: 1.0, 8: 0.0},  # 8/10 wins
])
def test_claim_not_met(tmp_path, capsys, shift):
    assert run_claim(tmp_path, capsys, shift).endswith(": not met")


def test_claim_names_a_metric_and_workload_of_the_benchmark(tmp_path):
    script = load_script()
    with pytest.raises(SystemExit) as exc:
        script.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                     "--claim", "train_step_ms_p50:no_such_workload"])
    assert exc.value.code == 2
