"""scripts/bench_pairs.py over fake checkouts: failed runs are kept and reported,
and the consistency-loss probe runs in the same pairs."""

import json
import textwrap
from pathlib import Path

import pytest

# a stand-in for perfbench/run.py: one metric, and a failure chosen per
# (workload, seed) by the FAIL table
FAKE_RUN = textwrap.dedent('''
    import argparse, json, sys
    SIDE, SHIFT, FAIL = {side!r}, {shift!r}, {fail!r}
    p = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(flag)
    a = p.parse_args()
    how = FAIL.get((a.workload, int(a.seed)))
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

# a stand-in for `python -m unify_rnnt.cli bench-mcr`: logs its side, BLAS
# threads and arguments, and prints a report whose fused peak is the side's
FAKE_CLI = textwrap.dedent('''
    import json, os, sys
    SIDE, FAIL = {side!r}, {fail!r}
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    with open(os.path.join(os.path.dirname(os.getcwd()), "probe.log"), "a") as fh:
        fh.write(f"{{SIDE}} {{os.environ['OPENBLAS_NUM_THREADS']}} {{' '.join(sys.argv[1:])}}\\n")
    if FAIL.get(("mcr_v1024", seed)):
        sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: boom\\n")
        sys.exit(3)
    fused = {{"parent": 500, "change": 400}}[SIDE]
    print(json.dumps({{"aux_bytes_fused": fused, "aux_bytes_naive": 1000, "ratio": fused / 1000,
                      "wall_ms_fused": 200.0 + seed, "wall_ms_naive": 300.0 + seed,
                      "loss_fused": 1.0, "loss_naive": 1.0, "max_grad_diff": 0.0}}, indent=2))
''')

PROBE_ARGS = ("bench-mcr --batch 4 --frames 64 --labels 32 --vocab 1024 --tile 128 "
              "--direction symmetric --seed")


@pytest.fixture(scope="module")
def bench_pairs(load_script):
    return load_script("bench_pairs")


def fake_tree(root: Path, side: str, shift=None, fail=None) -> Path:
    """A checkout whose metric at seed s reads 10 + s, plus ``shift[s]``, and
    whose runs fail as ``fail[(workload, seed)]`` says: "crash" or "incorrect"."""
    tree = root / side
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(side=side, shift=shift or {}, fail=fail or {}))
    (tree / "src" / "unify_rnnt").mkdir(parents=True)
    (tree / "src" / "unify_rnnt" / "__init__.py").write_text("")
    (tree / "src" / "unify_rnnt" / "cli.py").write_text(
        FAKE_CLI.format(side=side, fail=fail or {}))
    return tree


def run(bench_pairs, tmp_path, seeds, parent_fail=None, change_fail=None, shift=None,
        claims=()):
    parent = fake_tree(tmp_path, "parent", fail=parent_fail)
    change = fake_tree(tmp_path, "change", shift, change_fail)
    argv = ["--parent", str(parent), "--change", str(change), "--seeds", seeds,
            "--trace-seeds", "", "--out-dir", str(tmp_path)]
    return bench_pairs.main(argv + [a for c in claims for a in ("--claim", c)])


def read(tmp_path, workload) -> dict:
    return json.loads((tmp_path / f"BENCH_{workload}.json").read_text())


def test_failed_runs_are_kept_named_and_fail_the_script(bench_pairs, tmp_path, capsys):
    code = run(bench_pairs, tmp_path, "1-2", parent_fail={("train_dual", 1): "crash"},
               change_fail={("decode_stream", 2): "incorrect"})
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED change decode_stream seed 2 trace 0: exit 1, correct=False" in out
    assert "  decode C1R0 utt 4: tokens out of range or not repeatable" in out
    assert "FAILED parent train_dual seed 1 trace 0: exit 3, correct=False" in out
    assert "RuntimeError: boom" in out
    assert out.count("FAILED") == 2
    # every finished pair is written; summaries use the pairs with metrics
    train = read(tmp_path, "train_dual")
    assert [p["seed"] for p in train["pairs"]] == [1, 2]
    assert train["pairs"][0]["parent"]["metrics"] is None
    assert train["summary"]["train_step_ms_p50"]["pairs"] == 1
    assert train["meta"] == {"parent": {"side": "parent"}, "change": {"side": "change"}}
    decode = read(tmp_path, "decode_stream")
    assert decode["summary"]["train_step_ms_p50"]["pairs"] == 2


def test_clean_runs_exit_zero(bench_pairs, tmp_path, capsys):
    assert run(bench_pairs, tmp_path, "3") == 0
    assert "FAILED" not in capsys.readouterr().out


def test_probe_runs_in_alternating_one_thread_pairs(bench_pairs, tmp_path, capsys):
    assert run(bench_pairs, tmp_path, "1-3", claims=["aux_bytes_fused:mcr_v1024"]) == 0
    order = ["parent", "change", "change", "parent", "parent", "change"]
    seeds = [1, 1, 2, 2, 3, 3]
    log = (tmp_path / "probe.log").read_text().splitlines()
    assert log == [f"{side} 1 {PROBE_ARGS} {seed}" for side, seed in zip(order, seeds)]

    doc, train = read(tmp_path, "mcr_v1024"), read(tmp_path, "train_dual")
    assert list(doc) == list(train)
    assert doc["command"] == f"python -m unify_rnnt.cli {PROBE_ARGS} SEED"
    assert doc["seeds"] == [1, 2, 3] and doc["trace_seeds"] == []
    # each side's meta comes from its perfbench runs
    assert doc["meta"] == train["meta"] == {"parent": {"side": "parent"},
                                            "change": {"side": "change"}}
    assert set(doc["summary"]) == {"aux_bytes_fused", "aux_bytes_naive", "ratio",
                                   "wall_ms_fused", "wall_ms_naive"}
    fused = doc["summary"]["aux_bytes_fused"]
    assert (fused["unit"], fused["better"], fused["change_wins"], fused["pairs"]) == \
        ("bytes", "lower", 3, 3)
    assert fused["parent"] == {"median": 500, "q1": 500, "q3": 500}
    assert fused["ratio_of_medians"] == 0.8
    assert doc["summary"]["wall_ms_fused"]["change"] == {"median": 202.0, "q1": 201.5,
                                                         "q3": 202.5}
    assert doc["pairs"][0]["change"]["info"] == {"loss_fused": 1.0, "loss_naive": 1.0,
                                                 "max_grad_diff": 0.0}
    assert ("claim aux_bytes_fused on mcr_v1024: parent median 500, change median 400, "
            "parent IQR 0, gain 100, change wins 3/3 pairs: met") in capsys.readouterr().out


def test_a_failed_probe_run_fails_the_script(bench_pairs, tmp_path, capsys):
    code = run(bench_pairs, tmp_path, "1-2", change_fail={("mcr_v1024", 2): "crash"})
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED change mcr_v1024 seed 2 trace 0: exit 3, correct=False" in out
    assert "RuntimeError: boom" in out and out.count("FAILED") == 1
    # the failed run is kept; the summary uses the other pair
    doc = read(tmp_path, "mcr_v1024")
    assert doc["pairs"][1]["change"]["metrics"] is None
    assert doc["summary"]["aux_bytes_fused"]["pairs"] == 1


def run_claim(bench_pairs, tmp_path, capsys, shift):
    # seeds 3-12: no run fails; the parent reads 13..22, an IQR of 4.5
    assert run(bench_pairs, tmp_path, "3-12", shift=shift,
               claims=["train_step_ms_p50:train_dual"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("claim ")]
    assert len(lines) == 1
    return lines[0]


def test_claim_met_when_nine_tenths_win_by_more_than_the_parent_iqr(bench_pairs, tmp_path,
                                                                    capsys):
    line = run_claim(bench_pairs, tmp_path, capsys,
                     {s: -6.0 for s in range(3, 13)} | {7: 1.0})
    assert line == ("claim train_step_ms_p50 on train_dual: parent median 17.5, "
                    "change median 12.5, parent IQR 4.5, gain 5, "
                    "change wins 9/10 pairs: met")


@pytest.mark.parametrize("shift", [
    {s: -4.0 for s in range(3, 13)},                   # every pair won, gap below the IQR
    {s: -5.0 for s in range(3, 13)} | {7: 1.0, 8: 0.0},  # 8/10 wins
])
def test_claim_not_met(bench_pairs, tmp_path, capsys, shift):
    assert run_claim(bench_pairs, tmp_path, capsys, shift).endswith(": not met")


def test_claim_names_a_metric_and_workload_of_the_benchmark(bench_pairs, tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--claim", "train_step_ms_p50:no_such_workload"])
    assert exc.value.code == 2
