"""Command-line surface: exit codes, determinism, output schemas."""

import csv
import gc
import json
import os
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from unify_rnnt import cli
from unify_rnnt.cli import main, parse_config
from unify_rnnt.model import ModelConfig, TransducerModel
from unify_rnnt.training import ModeWeights, TrainConfig, load_checkpoint, save_checkpoint

GRID_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_mcr_grid.py"


def write_config(path, out_dir, **over):
    cfg = {
        "seed": 7,
        "out": str(out_dir),
        "corpus": {"n_symbols": 8, "feat_dim": 6, "ambiguous_pairs": 2,
                   "min_symbols": 3, "max_symbols": 6, "n_utterances": 12},
        "model": {"feat_dim": 6, "model_dim": 16, "heads": 2, "blocks": 1,
                  "conv_kernel": 3, "subsample_factor": 2, "vocab_size": 10,
                  "predictor_dim": 8, "joint_dim": 8, "ff_dim": 16, "seed": 7},
        "train": {"strategy": "dual_mode", "alpha": 0.5, "p_off": 0.5,
                  "mcr": {"direction": "symmetric", "lambda": 0.3, "tile": 10},
                  "context_sets": [[4], [1, 2], [0, 1, 2]],
                  "steps": 6, "warmup_steps": 2, "max_lr": 1e-3, "min_lr": 1e-4,
                  "batch_size": 2,
                  "manifest": str(out_dir / "corpus" / "manifest.jsonl")},
        "eval": {"left": 4, "specs": [[1, 0], [1, 1]], "frame_ms": 40.0,
                 "budgets": [2],
                 "manifest": str(out_dir / "heldout" / "corpus" / "manifest.jsonl")},
    }
    for key, value in over.items():
        cfg[key] = value
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


def gen_heldout(config, out):
    """Held-out eval corpus: another corpus seed, so other utterance ids."""
    return main(["gen-data", "--config", str(config), "--out", str(out / "heldout"),
                 "--seed", "8", "--n", "4"])


def manifest_ids(path):
    return {json.loads(line)["id"] for line in open(path)}


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path / "config.yaml", out)
    return config, out


class TestGenData:
    def test_writes_manifest(self, workspace):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        manifest = out / "corpus" / "manifest.jsonl"
        assert manifest.exists()
        assert len(open(manifest).read().splitlines()) == 12

    def test_seed_override_is_byte_identical(self, workspace, tmp_path):
        config, out = workspace
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", str(config), "--out", str(out_a),
                     "--seed", "7"]) == 0
        assert main(["gen-data", "--config", str(config), "--out", str(out_b),
                     "--seed", "7"]) == 0
        ma = open(out_a / "corpus" / "manifest.jsonl", "rb").read()
        mb = open(out_b / "corpus" / "manifest.jsonl", "rb").read()
        assert ma == mb

    def test_unwritable_output_is_config_error(self, workspace, tmp_path):
        # a plain file where a directory is needed: creation must fail
        config, _ = workspace
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        code = main(["gen-data", "--config", str(config), "--out",
                     str(blocked / "sub")])
        assert code == 2

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("key", ["workers", "extra_left_margin"])
    def test_unknown_eval_key_rejected(self, tmp_path, key):
        out = tmp_path / "run"
        config = write_config(tmp_path / "c.yaml", out,
                              eval={"left": 4, "specs": [[1, 0]], key: 2})
        assert main(["gen-data", "--config", str(config)]) == 2

    def test_conv_right_mode_key_rejected(self, tmp_path):
        # training and decoding share one convolution, so it is no train key
        out = tmp_path / "run"
        base = yaml.safe_load(open(write_config(tmp_path / "base.yaml", out)))
        config = write_config(tmp_path / "c.yaml", out,
                              train={**base["train"], "conv_right_mode": "zero"})
        assert main(["gen-data", "--config", str(config)]) == 2

    def test_precision_key_rejected(self, tmp_path):
        # the model's dtype decides the precision; a train key for it would
        # be silently ignored
        out = tmp_path / "run"
        base = yaml.safe_load(open(write_config(tmp_path / "base.yaml", out)))
        config = write_config(tmp_path / "c.yaml", out,
                              train={**base["train"], "precision": "float64"})
        assert main(["gen-data", "--config", str(config)]) == 2

    @pytest.mark.parametrize("section,value", [("corpus", [1, 2]),
                                               ("eval", {"specs": 3})])
    def test_wrong_type_is_config_error(self, tmp_path, section, value):
        config = write_config(tmp_path / "c.yaml", tmp_path / "run", **{section: value})
        assert main(["gen-data", "--config", str(config)]) == 2

    def test_invalid_config_value_rejected(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path / "c.yaml", out,
                              corpus={"n_symbols": 8, "feat_dim": 6,
                                      "ambiguous_pairs": 9})
        assert main(["gen-data", "--config", str(config)]) == 2

    @pytest.mark.parametrize("key", ["n_symbols", "feat_dim"])
    def test_empty_alphabet_or_feature_is_config_error(self, tmp_path, capsys, key):
        config = write_config(tmp_path / "c.yaml", tmp_path / "run",
                              corpus={"n_symbols": 8, "feat_dim": 6,
                                      "ambiguous_pairs": 0, key: 0})
        assert main(["gen-data", "--config", str(config)]) == 2
        assert "bad corpus section" in capsys.readouterr().err


class TestTrainEvalPipeline:
    def test_train_eval_sweep_report(self, workspace, capsys):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert gen_heldout(config, out) == 0
        assert main(["train", "--config", str(config)]) == 0
        ckpt = out / "checkpoint.urnt"
        assert ckpt.exists()
        metrics = [json.loads(l) for l in open(out / "metrics.jsonl")]
        assert [m["step"] for m in metrics] == list(range(1, 7))

        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(ckpt)]) == 0
        rows = list(csv.DictReader(open(out / "eval_summary.csv")))
        assert sum(r["mode"] == "offline" for r in rows) == 1
        assert rows[0]["mode"] == "offline"
        latencies = [float(r["latency_s"]) for r in rows]
        assert latencies == sorted(latencies, reverse=True)
        for r in rows[1:]:
            expected = float(r["chunk_s"]) + float(r["right_s"])
            assert float(r["latency_s"]) == pytest.approx(expected)
        assert all(float(r["chunk_compute_ms"]) > 0 for r in rows)
        per_utt = list(csv.DictReader(open(out / "eval_utterances.csv")))
        assert len(per_utt) == 4 * 3  # offline + two specs
        assert all(int(r["chunks"]) >= 1 for r in per_utt)

        assert main(["sweep-latency", "--config", str(config), "--checkpoint",
                     str(ckpt), "--budgets", "2,3"]) == 0
        sweep = list(csv.DictReader(open(out / "sweep_latency.csv")))
        by_budget = {}
        for r in sweep:
            by_budget.setdefault(r["budget_s"], []).append(r)
        assert sorted(len(v) for v in by_budget.values()) == [2, 3]
        for group in by_budget.values():
            assert len({g["budget_s"] for g in group}) == 1

        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "evaluation" in text and "sweep" in text
        report = text[text.index("evaluation"):]
        assert report.count("chunk_ms=") == len(rows)

    def test_eval_reads_heldout_utterances(self, workspace):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert gen_heldout(config, out) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(out / "checkpoint.urnt")]) == 0
        evaluated = {r["utt_id"] for r in csv.DictReader(open(out / "eval_utterances.csv"))}
        heldout = manifest_ids(out / "heldout" / "corpus" / "manifest.jsonl")
        assert evaluated == heldout
        assert evaluated.isdisjoint(manifest_ids(out / "corpus" / "manifest.jsonl"))

    @pytest.mark.parametrize("command", ["eval", "sweep-latency"])
    def test_missing_eval_manifest_is_config_error(self, tmp_path, command):
        # no fallback to the training manifest
        out = tmp_path / "run"
        config = write_config(tmp_path / "c.yaml", out,
                              eval={"left": 4, "specs": [[1, 0]], "budgets": [2]})
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main([command, "--config", str(config), "--checkpoint",
                     str(out / "checkpoint.urnt")]) == 2

    def test_resume_continues(self, workspace):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        ckpt = out / "checkpoint.urnt"
        out2 = out.parent / "resumed"
        assert main(["train", "--config", str(config), "--out", str(out2),
                     "--resume", str(ckpt)]) == 0
        # resumed run starts past the stored step count (here: nothing left)
        assert (out2 / "checkpoint.urnt").exists()

    def test_resume_continues_rng(self, workspace, tmp_path):
        # train 3 steps, resume to 6: same rng state and spec sequence as 6 straight
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        cfg = yaml.safe_load(config.read_text())
        cfg["train"]["steps"] = 3
        short = tmp_path / "short.yaml"
        with open(short, "w") as fh:
            yaml.safe_dump(cfg, fh)
        full, first, second = (tmp_path / name for name in ("full", "first", "second"))
        assert main(["train", "--config", str(config), "--out", str(full)]) == 0
        assert main(["train", "--config", str(short), "--out", str(first)]) == 0
        assert main(["train", "--config", str(config), "--out", str(second),
                     "--resume", str(first / "checkpoint.urnt")]) == 0

        def specs(*dirs):
            return [json.loads(l)["spec"] for d in dirs for l in open(d / "metrics.jsonl")]
        assert specs(first, second) == specs(full)
        rng_full = load_checkpoint(full / "checkpoint.urnt")[3]
        rng_resumed = load_checkpoint(second / "checkpoint.urnt")[3]
        assert rng_resumed.bit_generator.state == rng_full.bit_generator.state

    @pytest.mark.parametrize("strategy,lam", [("dual_mode", 0.3), ("dual_mode", 0.0),
                                              ("single_mode", 0.3)],
                             ids=["dm_mcr", "dm", "sm"])
    def test_diverged_step_is_numerical_error(self, tmp_path, capsys, strategy, lam):
        # resume from weights with one inf joint output weight: the first step
        # diverges and exits 3, whichever loss sees the inf first
        out = tmp_path / "run"
        base = yaml.safe_load(open(write_config(tmp_path / "base.yaml", out)))
        train = {**base["train"], "strategy": strategy,
                 "mcr": {**base["train"]["mcr"], "lambda": lam}}
        config = write_config(tmp_path / "c.yaml", out, train=train)
        assert main(["gen-data", "--config", str(config)]) == 0
        model = TransducerModel(ModelConfig(**base["model"]))
        model.params["joint.w_out"].data[0, 0] = float("inf")
        ckpt = tmp_path / "diverged.urnt"
        save_checkpoint(ckpt, model, step=0)
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(config), "--resume", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite" in err and "at step 1" in err

    def test_missing_manifest_is_io_error(self, workspace):
        config, out = workspace
        assert main(["train", "--config", str(config)]) == 4

    def test_corrupt_checkpoint_is_io_error(self, workspace):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        bad = out / "bad.urnt"
        bad.write_bytes(b"NOPE")
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(bad)]) == 4

    @pytest.mark.parametrize("edit,code", [
        (lambda header: header.pop("step"), 4),
        (lambda header: header["model_config"].update(pos_enc="rope"), 2),
    ], ids=["missing-step", "unknown-config-key"])
    def test_bad_checkpoint_header_exit_code(self, workspace, rewrite_header, edit, code):
        config, out = workspace
        model_cfg = ModelConfig(**yaml.safe_load(open(config))["model"])
        ckpt = out / "model.urnt"
        out.mkdir()
        save_checkpoint(ckpt, TransducerModel(model_cfg), step=1)
        rewrite_header(ckpt, edit)
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == code


def untrained_checkpoint(config, out):
    """The config's model at its initial weights: eval needs no training."""
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "init.urnt"
    save_checkpoint(ckpt, TransducerModel(ModelConfig(**yaml.safe_load(open(config))["model"])))
    return ckpt


def csv_lines(path):
    return list(csv.reader(open(path, newline="")))


def cell(value) -> str:
    return "" if value is None else str(value)


class TestEvalFiles:
    def test_each_csv_is_a_projection_of_the_evaluated_rows(self, workspace, monkeypatch):
        config, out = workspace
        assert gen_heldout(config, out) == 0
        ckpt = untrained_checkpoint(config, out)
        seen, evaluate = [], cli.evaluate

        def recorded(*args):
            seen.append(evaluate(*args))
            return seen[-1]
        monkeypatch.setattr(cli, "evaluate", recorded)
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        assert main(["sweep-latency", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        (per_utt, summary), (_, sweep) = seen
        assert [r["mode"] for r in summary] == ["offline", "streaming_C1_R1",
                                                "streaming_C1_R0"]
        assert csv_lines(out / "eval_summary.csv") == [
            ["mode", "chunk_s", "right_s", "latency_s", "chunk_compute_ms", "ter"]] + [
            ["offline" if r["spec"] is None else "streaming"]
            + [cell(r[k]) for k in ("chunk_s", "right_s", "latency_s", "chunk_compute_ms",
                                    "ter")] for r in summary]
        keys = ["utt_id", "mode", "latency_s", "ter", "ref_tokens", "chunks",
                "chunk_compute_ms"]
        assert csv_lines(out / "eval_utterances.csv") == [keys] + [
            [cell(r[k]) for k in keys] for r in per_utt]
        assert [(r["spec"].chunk, r["spec"].right) for r in sweep] == [(1, 1), (2, 0)]
        assert csv_lines(out / "sweep_latency.csv") == [
            ["budget_s", "chunk_s", "right_s", "ter"]] + [
            [cell(r["latency_s"]), cell(r["chunk_s"]), cell(r["right_s"]), f"{r['ter']:.6f}"]
            for r in sweep]

    def test_input_shorter_than_one_encoder_frame_decodes_empty(self, workspace):
        config, out = workspace
        assert gen_heldout(config, out) == 0
        corpus = out / "heldout" / "corpus"
        np.zeros((1, 6), dtype="<f4").tofile(corpus / "short.f32")
        with open(corpus / "manifest.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "short", "path": "short.f32", "frames": 1,
                                 "tokens": [1, 2]}) + "\n")
        ckpt = untrained_checkpoint(config, out)
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        short = [r for r in csv.DictReader(open(out / "eval_utterances.csv"))
                 if r["utt_id"] == "short"]
        assert [r["mode"] for r in short] == ["offline", "streaming_C1_R1",
                                              "streaming_C1_R0"]
        for r in short:
            assert (r["chunks"], r["chunk_compute_ms"], r["ter"]) == ("0", "0.0", "1.0")

    def test_failed_write_keeps_previous_summary(self, workspace, monkeypatch):
        config, out = workspace
        assert gen_heldout(config, out) == 0
        ckpt = untrained_checkpoint(config, out)
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        before = (out / "eval_summary.csv").read_bytes()
        evaluate = cli.evaluate

        def torn(*args):
            # the second summary row lacks its columns: the write fails midway
            per_utt, summary = evaluate(*args)
            return per_utt, summary[:1] + [{}]
        monkeypatch.setattr(cli, "evaluate", torn)
        with pytest.raises(KeyError):
            main(["eval", "--config", str(config), "--checkpoint", str(ckpt)])
        assert (out / "eval_summary.csv").read_bytes() == before
        assert not list(out.glob("*.tmp"))


class TestMalformedRunFiles:
    @pytest.mark.parametrize("line,what", [
        ('{"id": "a", "frames": 1, "tokens": [1]}', "missing fields ['path']"),
        ('{"id": "a", "path": ', "not JSON"),
        ('[1, 2]', "not a JSON object"),
    ], ids=["no-path", "not-json", "not-object"])
    def test_bad_manifest_line_is_io_error(self, workspace, capsys, line, what):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        manifest = out / "corpus" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
        assert main(["train", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert f"{manifest}:3: {what}" in err

    @pytest.mark.parametrize("field,value,what", [
        ("frames", 3.0, "frames 3.0 is not an integer"),
        ("frames", "3", "frames '3' is not an integer"),
        ("tokens", ["x"], "tokens ['x'] are not a list of integers"),
    ], ids=["float-frames", "string-frames", "string-token"])
    def test_mistyped_manifest_field_is_io_error(self, workspace, capsys, field, value,
                                                 what):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        manifest = out / "corpus" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        rec = json.loads(lines[1])
        rec[field] = value
        lines[1] = json.dumps(rec)
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert f"I/O error: {manifest}:2: {what}" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_feature_is_io_error(self, workspace, capsys, command):
        config, out = workspace
        if command == "train":
            assert main(["gen-data", "--config", str(config)]) == 0
            corpus = out / "corpus"
            argv = ["train", "--config", str(config)]
        else:
            assert gen_heldout(config, out) == 0
            corpus = out / "heldout" / "corpus"
            argv = ["eval", "--config", str(config),
                    "--checkpoint", str(untrained_checkpoint(config, out))]
        manifest = corpus / "manifest.jsonl"
        rec = json.loads(manifest.read_text().splitlines()[1])
        feats = np.fromfile(corpus / rec["path"], dtype="<f4")
        feats[5 * 6] = np.nan          # frame 5, first channel
        feats.tofile(corpus / rec["path"])
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"I/O error: {manifest}:2: feature file {rec['path']} holds a value " \
               "that is not finite" in err

    def test_report_on_torn_metrics_is_io_error(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text('{"step": 1, "total": 2.0}\n{"step": 2, "tot')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--out", str(tmp_path)]) == 4
            gc.collect()
        assert f"{metrics}:2: not JSON" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestConfigDefaults:
    def test_train_defaults_come_from_the_dataclasses(self, tmp_path):
        data = yaml.safe_load(open(write_config(tmp_path / "c.yaml", tmp_path / "run")))
        for key in ("context_sets", "alpha", "p_off"):
            del data["train"][key]
        train = parse_config(data)["train"]
        assert train.context_sets == TrainConfig().context_sets
        assert train.mode_weights == ModeWeights()


class TestBenchMcr:
    def test_bench_report_fields(self, capsys):
        assert main(["bench-mcr", "--batch", "1", "--frames", "8", "--labels", "4",
                     "--vocab", "64", "--tile", "16"]) == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("aux_bytes_fused", "aux_bytes_naive", "ratio",
                    "wall_ms_fused", "wall_ms_naive"):
            assert key in report
        assert report["ratio"] < 1.0

    def test_tile_changes_bytes_not_loss(self, capsys):
        assert main(["bench-mcr", "--batch", "1", "--frames", "8", "--labels", "4",
                     "--vocab", "128", "--tile", "1"]) == 0
        small = json.loads(capsys.readouterr().out)
        assert main(["bench-mcr", "--batch", "1", "--frames", "8", "--labels", "4",
                     "--vocab", "128", "--tile", "128"]) == 0
        big = json.loads(capsys.readouterr().out)
        assert small["loss_fused"] == pytest.approx(big["loss_fused"], abs=1e-12)
        assert big["aux_bytes_fused"] > small["aux_bytes_fused"]

    def test_degenerate_vocabulary(self, capsys):
        assert main(["bench-mcr", "--batch", "1", "--frames", "4", "--labels", "2",
                     "--vocab", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["loss_fused"] == 0.0
        assert report["aux_bytes_fused"] < 64 * 1024

    def test_unknown_direction_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench-mcr", "--direction", "sideways"])
        assert exc.value.code == 2

    def test_grid_script_rejects_unknown_direction(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", [str(GRID_SCRIPT), "--direction", "sideways"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(GRID_SCRIPT), run_name="__main__")
        assert exc.value.code == 2


class TestLocking:
    def test_lock_released_after_command(self, workspace):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert not (out / ".unify-rnnt.lock").exists()

    def test_live_lock_blocks(self, workspace):
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        (out / ".unify-rnnt.lock").write_text(str(os.getpid()))
        assert main(["gen-data", "--config", str(config)]) == 4
        (out / ".unify-rnnt.lock").unlink()

    def test_lock_taken_after_check_blocks(self, workspace, monkeypatch):
        # another live process creates the lock between our check and our write
        config, out = workspace
        lock = str(out / ".unify-rnnt.lock")
        real_exists, real_open = os.path.exists, os.open

        def plant():
            with open(lock, "x") as fh:
                fh.write(str(os.getpid()))

        def exists(path):
            if os.fspath(path) == lock and not real_exists(lock):
                plant()
                return False
            return real_exists(path)

        def os_open(path, *args, **kwargs):
            if os.fspath(path) == lock and not real_exists(lock):
                plant()
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os.path, "exists", exists)
        monkeypatch.setattr(os, "open", os_open)
        assert main(["gen-data", "--config", str(config)]) == 4
        assert (out / ".unify-rnnt.lock").read_text() == str(os.getpid())

    def test_stale_lock_stolen(self, workspace):
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        (out / ".unify-rnnt.lock").write_text("999999999")
        assert main(["gen-data", "--config", str(config)]) == 0
