"""Command-line surface: exit codes, determinism, output schemas."""

import csv
import dataclasses
import fcntl
import gc
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from unify_rnnt import cli
from unify_rnnt.cli import main, parse_config
from unify_rnnt.corpus import CorpusConfig
from unify_rnnt.mcr import MCRConfig
from unify_rnnt.model import ModelConfig, TransducerModel
from unify_rnnt.training import ModeWeights, TrainConfig, load_checkpoint, save_checkpoint


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

    def test_write_probe_directory_does_not_block(self, workspace):
        # creating the lock file is the writability check: no other name is taken
        config, out = workspace
        (out / ".write-probe").mkdir(parents=True)
        assert main(["gen-data", "--config", str(config)]) == 0

    def test_lock_creation_failure_is_config_error(self, workspace, monkeypatch, capsys):
        config, out = workspace
        lock, real_open = str(out / ".unify-rnnt.lock"), os.open

        def os_open(path, *args, **kwargs):
            if os.fspath(path) == lock:
                raise PermissionError(13, "Permission denied", path)
            return real_open(path, *args, **kwargs)
        monkeypatch.setattr(os, "open", os_open)
        assert main(["gen-data", "--config", str(config)]) == 2
        assert f"unwritable output directory {out}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("section,key", [("train", "log_every"),
                                             ("corpus", "embedding_seed")])
    def test_fixed_setting_key_rejected(self, tmp_path, capsys, section, key):
        # every run used one value of these, so they are constants, not keys
        out = tmp_path / "run"
        base = yaml.safe_load(open(write_config(tmp_path / "base.yaml", out)))
        config = write_config(tmp_path / "c.yaml", out, **{section: {**base[section], key: 0}})
        assert main(["gen-data", "--config", str(config)]) == 2
        assert f"bad {section} section" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("weight_decay", -1.0), ("clip_norm", -2.0),
                                           ("weight_decay", float("inf")),
                                           ("clip_norm", float("inf"))])
    def test_optimizer_setting_that_corrupts_training_rejected(self, tmp_path, capsys,
                                                               key, value):
        # a negative clip_norm once turned clipping off without a word
        out = tmp_path / "run"
        base = yaml.safe_load(open(write_config(tmp_path / "base.yaml", out)))
        config = write_config(tmp_path / "c.yaml", out, train={**base["train"], key: value})
        assert main(["train", "--config", str(config)]) == 2
        assert "bad train section" in capsys.readouterr().err
        assert not out.exists()

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

    @staticmethod
    def _set(tmp_path, section, key, value):
        """A config with ``section``'s ``key`` set; ``train.mcr`` is nested and
        ``""`` is the top level."""
        out = tmp_path / "run"
        data = yaml.safe_load(open(write_config(tmp_path / "base.yaml", out)))
        node = data
        for part in filter(None, section.split(".")):
            node = node[part]
        node[key] = value
        return write_config(tmp_path / "c.yaml", out, **data), out

    @pytest.mark.parametrize("command,section,key,value", [
        ("train", "train", "max_lr", float("nan")), ("train", "train", "max_lr", float("inf")),
        ("train", "train", "min_lr", float("nan")), ("train", "train", "warmup_steps", -5),
        ("train", "train.mcr", "lambda", float("nan")),
        ("train", "train.mcr", "lambda", float("inf")),
        ("gen-data", "corpus", "noise_sigma", float("nan")),
        ("gen-data", "corpus", "noise_sigma", float("inf")),
        ("gen-data", "corpus", "ambiguous_boost", float("nan")),
        ("gen-data", "corpus", "ambiguous_boost", float("inf")),
        ("train", "model", "heads", 0), ("train", "model", "heads", -1),
        ("train", "model", "model_dim", -4), ("train", "model", "ff_dim", 0),
        ("train", "model", "joint_dim", -1), ("train", "model", "feat_dim", 0),
        ("train", "model", "predictor_dim", 0),
    ], ids=lambda v: str(v))
    def test_non_finite_or_out_of_range_float_is_config_error(self, tmp_path, capsys,
                                                              command, section, key, value):
        # these once ran training steps into a numerical failure (exit 3),
        # wrote NaN features that train then rejected (exit 4), or, for a
        # model size, were accepted or crashed with a traceback (exit 1)
        config, out = self._set(tmp_path, section, key, value)
        assert main([command, "--config", str(config)]) == 2
        assert f"bad {section} section" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,section,key,value,what", [
        ("train", "model", "model_dim", 16.0, "model_dim must be an integer"),
        ("train", "model", "blocks", True, "blocks must be an integer"),
        ("train", "train", "steps", 3.5, "steps must be an integer"),
        ("train", "train", "batch_size", 2.0, "batch_size must be an integer"),
        ("train", "train.mcr", "tile", 10.5, "tile must be an integer"),
        ("gen-data", "corpus", "n_symbols", 8.0, "n_symbols must be an integer"),
        ("gen-data", "corpus", "seed", False, "seed must be an integer"),
        # a bool is not a number in a float setting either, nor is a string
        ("train", "train", "max_lr", True, "max_lr must be a number, got True"),
        ("train", "train", "max_lr", "1e-3", "max_lr must be a number, got '1e-3'"),
        ("train", "train", "min_lr", False, "min_lr must be a number, got False"),
        ("train", "train", "weight_decay", True, "weight_decay must be a number, got True"),
        ("train", "train", "clip_norm", True, "clip_norm must be a number, got True"),
        ("train", "train", "alpha", True, "alpha must be a number, got True"),
        ("train", "train", "p_off", False, "p_off must be a number, got False"),
        ("train", "train.mcr", "lambda", True, "lam must be a number, got True"),
        ("gen-data", "corpus", "noise_sigma", True, "noise_sigma must be a number, got True"),
        ("gen-data", "corpus", "coarticulation", False,
         "coarticulation must be a number, got False"),
        ("gen-data", "corpus", "ambiguous_boost", True,
         "ambiguous_boost must be a number, got True"),
    ], ids=lambda v: str(v))
    def test_non_integer_in_an_integer_setting_is_config_error(self, tmp_path, capsys,
                                                               command, section, key, value,
                                                               what):
        # a float here once crashed with a TypeError traceback (exit 1), or
        # was silently accepted; a bool in a float setting was accepted, so
        # max_lr: true trained at a learning rate of True, and max_lr: 1e-3
        # exited with a message that named no setting
        config, out = self._set(tmp_path, section, key, value)
        assert main([command, "--config", str(config)]) == 2
        assert f"bad {section} section: {what}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value,what", [
        ("", "seed", 1.7, "seed must be an integer, got 1.7"),
        ("corpus", "n_utterances", 3.9, "corpus.n_utterances must be an integer, got 3.9"),
        ("corpus", "n_utterances", True, "corpus.n_utterances must be an integer, got True"),
        ("eval", "left", 12.9, "eval.left must be an integer, got 12.9"),
        ("eval", "specs", [[1.5, 0]], "eval.specs must be an integer, got 1.5"),
        ("eval", "budgets", [2.5], "eval.budgets must be an integer, got 2.5"),
        ("eval", "budgets", [True], "eval.budgets must be an integer, got True"),
        ("train", "context_sets", [[12.7], [1.9], [True]],
         "candidate values [12.7, 1.9, True] are not integers"),
        ("eval", "frame_ms", True, "eval.frame_ms True is not a finite positive number"),
    ], ids=["seed", "n_utterances-float", "n_utterances-bool", "left", "specs",
            "budgets-float", "budgets-bool", "context_sets", "frame_ms-bool"])
    def test_non_integer_outside_the_dataclasses_is_config_error(self, tmp_path, capsys,
                                                                 section, key, value, what):
        # int() once truncated these, or read a bool as 0 or 1; float() read
        # frame_ms: true as 1.0
        config, out = self._set(tmp_path, section, key, value)
        assert main(["gen-data", "--config", str(config)]) == 2
        assert what in capsys.readouterr().err
        assert not out.exists()

    def test_zero_utterances_flag_is_config_error(self, workspace, capsys):
        # --n 0 once fell back to the config's utterance count
        config, out = workspace
        assert main(["gen-data", "--config", str(config), "--n", "0"]) == 2
        assert "n must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_utterances_in_the_config_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = write_config(tmp_path / "c.yaml", out)
        cfg = yaml.safe_load(config.read_text())
        cfg["corpus"]["n_utterances"] = 0
        config.write_text(yaml.safe_dump(cfg))
        assert main(["gen-data", "--config", str(config)]) == 2
        assert "n must be >= 1" in capsys.readouterr().err
        assert not out.exists()


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

    def test_float64_model_trains_and_evaluates(self, tmp_path):
        out = tmp_path / "run"
        base = yaml.safe_load(open(write_config(tmp_path / "base.yaml", out)))
        config = write_config(tmp_path / "c.yaml", out,
                              model={**base["model"], "dtype": "float64"})
        assert main(["gen-data", "--config", str(config)]) == 0
        assert gen_heldout(config, out) == 0
        assert main(["train", "--config", str(config)]) == 0
        model = load_checkpoint(out / "checkpoint.urnt")[0]
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(out / "checkpoint.urnt")]) == 0

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

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_budget_below_one_is_config_error(self, workspace, source):
        config, out = workspace
        assert gen_heldout(config, out) == 0
        argv = ["sweep-latency", "--config", str(config),
                "--checkpoint", str(untrained_checkpoint(config, out))]
        if source == "config":
            data = yaml.safe_load(open(config))
            data["eval"]["budgets"] = [0, -3]
            with open(config, "w") as fh:
                yaml.safe_dump(data, fh)
        else:
            argv += ["--budgets", "0,-3"]
        assert main(argv) == 2
        assert not (out / "sweep_latency.csv").exists()

    @pytest.mark.parametrize("budgets", ["0", "2,x", "2,,4"])
    def test_bad_budgets_flag_leaves_no_output_directory(self, workspace, tmp_path, capsys,
                                                         budgets):
        # the sweep grid is built before the output lock makes the directory
        config, out = workspace
        assert gen_heldout(config, out) == 0
        fresh = tmp_path / "fresh"
        assert main(["sweep-latency", "--config", str(config), "--checkpoint",
                     str(untrained_checkpoint(config, tmp_path / "init")),
                     "--budgets", budgets, "--out", str(fresh)]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not fresh.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_budget_below_one_fails_before_any_work(self, workspace, capsys, command):
        # every command parses eval.budgets, not only sweep-latency
        config, out = workspace
        data = yaml.safe_load(open(config))
        data["eval"]["budgets"] = [2, 0]
        with open(config, "w") as fh:
            yaml.safe_dump(data, fh)
        argv = [command, "--config", str(config)]
        if command == "eval":
            argv += ["--checkpoint", str(out / "checkpoint.urnt")]
        assert main(argv) == 2
        assert "eval.budgets [2, 0]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frame_ms", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_frame_ms_not_finite_positive_fails_before_any_work(self, workspace, capsys,
                                                               command, frame_ms):
        config, out = workspace
        data = yaml.safe_load(open(config))
        data["eval"]["frame_ms"] = frame_ms
        with open(config, "w") as fh:
            yaml.safe_dump(data, fh)
        argv = [command, "--config", str(config)]
        if command == "eval":
            argv += ["--checkpoint", str(out / "checkpoint.urnt")]
        assert main(argv) == 2
        assert f"bad eval section: eval.frame_ms {frame_ms}" in capsys.readouterr().err
        assert not out.exists()

    def test_token_past_the_vocabulary_fails_at_load(self, workspace, capsys):
        # the last record holds it: no training step has to sample it
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        manifest = out / "corpus" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        rec = json.loads(lines[-1])
        rec["tokens"] = rec["tokens"][:-1] + [99]
        lines[-1] = json.dumps(rec)
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(config)]) == 4
        assert f"I/O error: {manifest}:{len(lines)}: tokens" in capsys.readouterr().err
        assert not (out / "metrics.jsonl").exists()

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

    @pytest.mark.parametrize("command", ["eval", "sweep-latency"])
    def test_empty_eval_manifest_is_config_error(self, workspace, tmp_path, capsys, command):
        # a mean over no utterances is no TER; the check runs before the lock
        config, out = workspace
        ckpt = untrained_checkpoint(config, tmp_path / "init")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        fresh = tmp_path / "fresh"
        assert main([command, "--config", str(config), "--checkpoint", str(ckpt),
                     "--manifest", str(empty), "--out", str(fresh)]) == 2
        assert "config error: eval corpus is empty" in capsys.readouterr().err
        assert not fresh.exists()

    def test_empty_train_manifest_keeps_the_previous_run(self, workspace, tmp_path, capsys):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        metrics = out / "metrics.jsonl"
        before = metrics.read_bytes()
        assert before
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--manifest", str(empty)]) == 2
        assert "config error: training corpus is empty" in capsys.readouterr().err
        assert metrics.read_bytes() == before
        fresh = tmp_path / "fresh"
        assert main(["train", "--config", str(config), "--manifest", str(empty),
                     "--out", str(fresh)]) == 2
        assert not fresh.exists()

    def test_utterance_shorter_than_one_encoder_frame_keeps_the_previous_run(
            self, workspace, capsys):
        # it once failed the step that first drew it, after the fresh run
        # had emptied metrics.jsonl
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        files = [out / "metrics.jsonl", out / "checkpoint.urnt"]
        before = [f.read_bytes() for f in files]
        corpus = out / "corpus"
        np.zeros((1, 6), dtype="<f4").tofile(corpus / "short.f32")
        with open(corpus / "manifest.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "short", "path": "short.f32", "frames": 1,
                                 "tokens": [1, 2]}) + "\n")
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 2
        assert ("config error: utterance short: 1 frames < subsample factor 2"
                in capsys.readouterr().err)
        assert [f.read_bytes() for f in files] == before

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

    def test_resume_past_the_configured_steps_is_config_error(self, workspace, tmp_path,
                                                             capsys):
        # a 6-step checkpoint resumed with steps: 3 would store step 3 beside
        # an optimizer at step 6
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        cfg = yaml.safe_load(config.read_text())
        cfg["train"]["steps"] = 3
        short = tmp_path / "short.yaml"
        short.write_text(yaml.safe_dump(cfg))
        ckpt, metrics = out / "checkpoint.urnt", out / "metrics.jsonl"
        before = ckpt.read_bytes(), metrics.read_bytes()
        capsys.readouterr()
        assert main(["train", "--config", str(short), "--resume", str(ckpt)]) == 2
        assert "past train.steps 3" in capsys.readouterr().err
        assert (ckpt.read_bytes(), metrics.read_bytes()) == before

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
        ("tokens", [3, 0, 5], "tokens [3, 0, 5] hold an id below 1"),
        ("tokens", [3, 99], "tokens [3, 99] hold an id at or past the vocabulary size 10"),
    ], ids=["float-frames", "string-frames", "string-token", "blank-token", "token-past-vocab"])
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


    @pytest.mark.parametrize("name,lines,what", [
        ("eval_summary.csv", ["mode,chunk_s,right_s,chunk_compute_ms,ter",
                              "offline,,,1.5,0.25"], "missing fields ['latency_s']"),
        ("sweep_latency.csv", ["budget_s,chunk_s,right_s,ter", "0.08,0.04,0.04,0.5",
                               "0.08,0.08"], "missing fields ['right_s', 'ter']"),
        ("eval_summary.csv", ["mode,chunk_s,right_s,latency_s,chunk_compute_ms,ter",
                              "offline,,,inf,1.5,abc"], "ter 'abc' is not a number"),
        ("metrics.jsonl", ['{"step": 1, "total": 2.0}', '{"step": 2, "total": "abc"}'],
         "total 'abc' is not a number"),
        ("metrics.jsonl", ['{"step": 1, "total": null}'], "total None is not a number"),
        ("metrics.jsonl", ['{"step": 1, "total": 2.0}', '{"step": 2, "total": [1.5]}'],
         "total [1.5] is not a number"),
    ], ids=["no-column", "short-row", "non-numeric", "total-string", "total-null",
            "total-list"])
    def test_report_on_malformed_csv_is_io_error(self, tmp_path, capsys, name, lines, what):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--out", str(tmp_path)]) == 4
        assert f"I/O error: {path}:{len(lines)}: {what}" in capsys.readouterr().err

    def test_report_without_a_total_prints_nan(self, tmp_path, capsys):
        (tmp_path / "metrics.jsonl").write_text('{"step": 1}\n{"step": 2, "total": 0.5}\n')
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert "training: 2 logged steps, loss nan -> 0.5000" in capsys.readouterr().out


class TestConfigDefaults:
    def test_train_defaults_come_from_the_dataclasses(self, tmp_path):
        data = yaml.safe_load(open(write_config(tmp_path / "c.yaml", tmp_path / "run")))
        for key in ("context_sets", "alpha", "p_off"):
            del data["train"][key]
        train = parse_config(data)["train"]
        assert train.context_sets == TrainConfig().context_sets
        assert train.mode_weights == ModeWeights()

    def test_option_set_is_pinned(self):
        # each field is a settable value: a new one is a change to this list
        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                  for cls in (TrainConfig, ModeWeights, MCRConfig, CorpusConfig, ModelConfig)}
        assert fields == {
            "TrainConfig": ["strategy", "mode_weights", "mcr", "context_sets", "steps",
                            "warmup_steps", "max_lr", "min_lr", "batch_size", "seed",
                            "weight_decay", "clip_norm"],
            "ModeWeights": ["alpha", "p_off"],
            "MCRConfig": ["direction", "lam", "variant", "tile", "full_grad"],
            "CorpusConfig": ["n_symbols", "feat_dim", "min_duration", "max_duration",
                             "min_symbols", "max_symbols", "coarticulation", "noise_sigma",
                             "ambiguous_pairs", "ambiguous_boost", "seed"],
            "ModelConfig": ["feat_dim", "model_dim", "heads", "blocks", "conv_kernel",
                            "subsample_factor", "vocab_size", "predictor_dim", "joint_dim",
                            "ff_dim", "seed", "dtype"],
        }


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

    @pytest.mark.parametrize("batch,frames", [(0, 4), (-1, 4), (1, 0)])
    def test_sizes_below_one_are_config_error(self, capsys, batch, frames):
        # numpy's words once reached the user: "zero-size array to reduction
        # operation maximum which has no identity", "negative dimensions are
        # not allowed"
        assert main(["bench-mcr", "--batch", str(batch), "--frames", str(frames),
                     "--labels", "2", "--vocab", "8"]) == 2
        assert (f"config error: probe shape (B, T, U, V) = ({batch}, {frames}, 2, 8) needs "
                "B, T, V >= 1 and U >= 0") in capsys.readouterr().err


class TestLocking:
    def test_lock_released_after_command(self, workspace):
        config, out = workspace
        assert main(["gen-data", "--config", str(config)]) == 0
        assert not (out / ".unify-rnnt.lock").exists()

    def test_live_lock_blocks(self, workspace):
        # another holder's flock, on a descriptor of its own
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        lock = out / ".unify-rnnt.lock"
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            assert main(["gen-data", "--config", str(config)]) == 4
            assert [p.name for p in out.iterdir()] == [lock.name]
        finally:
            os.close(fd)
        assert main(["gen-data", "--config", str(config)]) == 0

    @pytest.mark.parametrize("pid", ["own", "1"])
    def test_lock_file_naming_a_live_pid_does_not_block(self, workspace, pid):
        # what a killed run leaves once its pid is reused: pid 1 is always alive
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        (out / ".unify-rnnt.lock").write_text(str(os.getpid()) if pid == "own" else pid)
        assert main(["gen-data", "--config", str(config)]) == 0
        assert not (out / ".unify-rnnt.lock").exists()

    def test_lock_on_a_replaced_file_is_taken_again(self, workspace, monkeypatch):
        # the holder before us removes the file and another run creates it
        # again, after our open and before our flock: ours is the removed
        # file, so the lock must be taken on the new one
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        lock, real_flock, locked = out / ".unify-rnnt.lock", fcntl.flock, []

        def flock(fd, op):
            if not locked:
                lock.unlink()
                lock.touch()
            locked.append(os.fstat(fd).st_ino)
            return real_flock(fd, op)
        monkeypatch.setattr(fcntl, "flock", flock)
        with cli.OutputLock(str(out)):
            assert len(locked) == 2 and locked[1] == lock.stat().st_ino
        assert not lock.exists()

    def test_killed_holder_leaves_the_directory_usable(self, workspace):
        config, out = workspace
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        holder = subprocess.Popen(
            [sys.executable, "-c", "import sys, time\n"
             "from unify_rnnt.cli import OutputLock\n"
             "with OutputLock(sys.argv[1]):\n"
             "    print('locked', flush=True)\n"
             "    time.sleep(120)\n", str(out)],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            assert main(["gen-data", "--config", str(config)]) == 4
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()
        assert holder.returncode == -signal.SIGKILL
        assert (out / ".unify-rnnt.lock").exists()
        assert main(["gen-data", "--config", str(config)]) == 0

    def test_stale_lock_stolen(self, workspace):
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        (out / ".unify-rnnt.lock").write_text("999999999")
        assert main(["gen-data", "--config", str(config)]) == 0
