"""scripts/bench_mcr_pairs.py on fake checkouts whose probe prints a fixed report."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_mcr_pairs.py"

# a fake package's `python -m unify_rnnt.cli`: logs its side and BLAS threads,
# prints a report whose fused wall time counts the side's runs
FAKE_CLI = '''
import json, os, sys
SIDE = {side!r}
log = os.path.join(os.path.dirname(os.getcwd()), "order.log")
if SIDE == {fail!r}:
    sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: boom\\n")
    sys.exit(3)
with open(log, "a") as fh:
    fh.write(f"{{SIDE}} {{os.environ['OPENBLAS_NUM_THREADS']}} {{' '.join(sys.argv[1:])}}\\n")
done = sum(line.startswith(SIDE + " ") for line in open(log))
print(json.dumps({{"aux_bytes_fused": {fused}, "aux_bytes_naive": 1000, "ratio": 0.1,
                  "wall_ms_fused": float(done), "wall_ms_naive": 50.0 + done,
                  "loss_fused": 1.0, "loss_naive": 1.0, "max_grad_diff": 0.0}}))
'''


def load_script(out: Path):
    spec = importlib.util.spec_from_file_location("bench_mcr_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = str(out)
    return module


def fake_tree(root: Path, side: str, fused: int, fail: str = "") -> Path:
    pkg = root / side / "src" / "unify_rnnt"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(FAKE_CLI.format(side=side, fused=fused, fail=fail))
    return root / side


def test_writes_the_file_from_alternating_one_thread_runs(tmp_path, capsys):
    out = tmp_path / "BENCH_mcr_v1024.json"
    script = load_script(out)
    parent, change = fake_tree(tmp_path, "parent", 500), fake_tree(tmp_path, "change", 400)
    assert script.main(["--parent", str(parent), "--change", str(change)]) == 0
    log = (tmp_path / "order.log").read_text().splitlines()
    args = ("bench-mcr --batch 4 --frames 64 --labels 32 --vocab 1024 --tile 128 "
            "--direction symmetric")
    order = ["parent", "change", "change", "parent", "parent", "change",
             "change", "parent", "parent", "change"]
    assert log == [f"{side} 1 {args}" for side in order]

    doc = json.loads(out.read_text())
    assert list(doc) == ["command", "shape", "note", "meta", "summary", "runs"]
    assert doc["command"] == "unify-rnnt " + args
    assert doc["shape"] == {"B": 4, "T": 64, "U": 32, "V": 1024, "tile": 128,
                            "direction": "symmetric"}
    for side, fused in (("parent", 500), ("change", 400)):
        assert doc["meta"][side]["blas_threads_requested"] == 1
        assert [r["wall_ms_fused"] for r in doc["runs"][side]] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert doc["summary"][side] == {
            "wall_ms_fused": {"median": 3.0, "min": 1.0, "max": 5.0},
            "wall_ms_naive": {"median": 53.0, "min": 51.0, "max": 55.0},
            "aux_bytes_fused": {"median": fused, "min": fused, "max": fused},
            "aux_bytes_naive": {"median": 1000, "min": 1000, "max": 1000}}
    assert f"wrote {out}" in capsys.readouterr().out


def test_a_failed_run_writes_nothing_and_fails(tmp_path, capsys):
    out = tmp_path / "BENCH_mcr_v1024.json"
    script = load_script(out)
    parent = fake_tree(tmp_path, "parent", 500)
    change = fake_tree(tmp_path, "change", 400, fail="change")
    assert script.main(["--parent", str(parent), "--change", str(change)]) == 1
    text = capsys.readouterr().out
    assert "FAILED change run 0:" in text and "RuntimeError: boom" in text
    assert not out.exists()
