"""Command-line surface: gen-data, train, eval, sweep-latency, bench-mcr, report.

Configuration lives in one YAML file with corpus/model/train/eval sections;
every training hyperparameter (alpha, lambda, teacher direction, context
sets) is a named key so ablation grids are scriptable.  All outputs land
under the configured output directory, guarded by a pid lock file.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 I/O error (a
missing, corrupt or malformed run file: ``CorruptCheckpointError``,
``ManifestMismatchError``, ``MalformedRecordError`` or an ``OSError``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import yaml

from .contexts import ContextSets, ContextSpec, latency_splits
from .corpus import CorpusConfig, generate_corpus, load_manifest, read_jsonl
from .decoding import evaluate, write_csv
from .errors import (CorruptCheckpointError, MalformedRecordError, ManifestMismatchError,
                     NumericalError)
from .mcr import DIRECTIONS, MCRConfig, mcr_memory_probe
from .model import ModelConfig, TransducerModel
from .training import ModeWeights, TrainConfig, load_checkpoint, run_training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

LOCK_NAME = ".unify-rnnt.lock"
EVAL_KEYS = ("manifest", "left", "specs", "frame_ms", "budgets")

# the eval files, as columns of decoding.evaluate's rows (see write_csv)
SUMMARY_COLUMNS = (("mode", lambda r: "offline" if r["spec"] is None else "streaming"),
                   "chunk_s", "right_s", "latency_s", "chunk_compute_ms", "ter")
UTTERANCE_COLUMNS = ("utt_id", "mode", "latency_s", "ter", "ref_tokens", "chunks",
                     "chunk_compute_ms")
SWEEP_COLUMNS = (("budget_s", lambda r: r["latency_s"]), "chunk_s", "right_s",
                 ("ter", lambda r: f"{r['ter']:.6f}"))


class ConfigError(ValueError):
    pass


def _load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _build(cls, section: dict, what: str, **renames):
    try:
        kwargs = dict(section)
        for yaml_key, attr in renames.items():
            if yaml_key in kwargs:
                kwargs[attr] = kwargs.pop(yaml_key)
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} section: {exc}") from exc


def _section(data: dict, key: str) -> dict:
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} section must be a mapping, "
                          f"not {type(section).__name__}")
    return dict(section)


def parse_config(data: dict) -> dict:
    """Validated config bundle from the raw YAML mapping.

    A section or value of the wrong type is a ``ConfigError``.
    """
    try:
        return _parse_config(data)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _parse_config(data: dict) -> dict:
    out_dir = data.get("out", "runs/out")
    seed = int(data.get("seed", 0))
    corpus_raw = _section(data, "corpus")
    n_utts = int(corpus_raw.pop("n_utterances", 200))
    corpus = _build(CorpusConfig, {**corpus_raw, "seed": corpus_raw.get("seed", seed)},
                    "corpus")
    model = _build(ModelConfig, _section(data, "model"), "model")

    train_raw = _section(data, "train")
    manifest = train_raw.pop("manifest", None)
    mw = _build(ModeWeights, {k: float(train_raw.pop(k)) for k in ("alpha", "p_off")
                              if k in train_raw}, "train")
    mcr = _build(MCRConfig, train_raw.pop("mcr", {}), "train.mcr", **{"lambda": "lam"})
    if "context_sets" in train_raw:
        try:
            train_raw["context_sets"] = ContextSets.from_nested(train_raw["context_sets"])
        except ValueError as exc:
            raise ConfigError(f"bad context_sets: {exc}") from exc
    train = _build(TrainConfig, {**train_raw, "mode_weights": mw, "mcr": mcr,
                                 "seed": train_raw.get("seed", seed)}, "train")

    eval_raw = _section(data, "eval")
    unknown = sorted(set(eval_raw) - set(EVAL_KEYS))
    if unknown:
        raise ConfigError(f"bad eval section: unknown keys {unknown}")
    left = int(eval_raw.get("left", 70))
    eval_cfg = {
        "manifest": eval_raw.get("manifest"),
        "left": left,
        "specs": [ContextSpec(left, *(int(v) for v in pair)) for pair in
                  eval_raw.get("specs", [[1, 0], [1, 1], [2, 2], [4, 4]])],
        "frame_ms": float(eval_raw.get("frame_ms", 40.0)),
        "budgets": [int(b) for b in eval_raw.get("budgets", [2, 4])],
    }
    return {"out": out_dir, "seed": seed, "corpus": corpus, "n_utterances": n_utts,
            "model": model, "train": train, "train_manifest": manifest,
            "eval": eval_cfg}


class OutputLock:
    """One process owns an output directory at a time (pid lock file).

    The lock file is created atomically (``O_CREAT | O_EXCL``).  A lock left
    by a dead or unparsable pid is removed and creation retried once; a lock
    held by a live pid raises ``OSError``.
    """

    def __init__(self, out_dir):
        self.path = os.path.join(out_dir, LOCK_NAME)

    def __enter__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        try:
            self._create()
        except FileExistsError:
            self._remove_stale()
            self._create()
        return self

    def _create(self) -> None:
        fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))

    def _remove_stale(self) -> None:
        try:
            with open(self.path) as fh:
                pid = int(fh.read().strip())
        except FileNotFoundError:
            return
        except ValueError:
            pid = -1
        if pid > 0 and _pid_alive(pid):
            raise OSError(f"output directory locked by running pid {pid}")
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass

    def __exit__(self, *exc):
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _check_writable(out_dir) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"unwritable output directory {out_dir}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    bundle = parse_config(_load_yaml(args.config))
    out_dir = args.out or bundle["out"]
    corpus = bundle["corpus"]
    if args.seed is not None:
        corpus = replace(corpus, seed=args.seed)
    n = args.n or bundle["n_utterances"]
    _check_writable(out_dir)
    with OutputLock(out_dir):
        manifest = generate_corpus(corpus, n, os.path.join(out_dir, "corpus"))
    print(f"wrote {n} utterances, manifest at {manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    bundle = parse_config(_load_yaml(args.config))
    out_dir = args.out or bundle["out"]
    _check_writable(out_dir)
    manifest = args.manifest or bundle["train_manifest"]
    if not manifest:
        raise ConfigError("train.manifest missing from config")
    utts = list(load_manifest(manifest, bundle["corpus"].feat_dim))
    cfg: TrainConfig = bundle["train"]
    with OutputLock(out_dir):
        metrics = os.path.join(out_dir, "metrics.jsonl")
        ckpt = os.path.join(out_dir, "checkpoint.urnt")
        start_step = 0
        opt = rng = None
        if args.resume:
            model, start_step, opt, rng = load_checkpoint(args.resume,
                                                          expected_config=bundle["model"])
            print(f"resumed from {args.resume} at step {start_step}")
        else:
            model = TransducerModel(bundle["model"])
            open(metrics, "w").close()
        last = run_training(model, utts, cfg, metrics_path=metrics,
                            checkpoint_path=ckpt, start_step=start_step, opt=opt,
                            rng=rng)
    print(f"trained to step {cfg.steps}; final report: {json.dumps(last)}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _evaluate_checkpoint(args, modes_of, outputs) -> int:
    """Evaluate the checkpoint on the eval utterances in the modes
    ``modes_of(bundle)``; write each ``(file name, rows, columns)`` output,
    ``rows`` 0 the per-utterance rows and 1 the summary rows, and print the
    summary rows."""
    bundle = parse_config(_load_yaml(args.config))
    out_dir = args.out or bundle["out"]
    _check_writable(out_dir)
    model = load_checkpoint(args.checkpoint, expected_config=bundle["model"])[0]
    manifest = args.manifest or bundle["eval"]["manifest"]
    if not manifest:
        raise ConfigError("no eval manifest: set eval.manifest or pass --manifest")
    utts = list(load_manifest(manifest, bundle["corpus"].feat_dim))
    with OutputLock(out_dir):
        rows = evaluate(model, utts, modes_of(bundle), bundle["eval"]["frame_ms"])
        for name, which, columns in outputs:
            write_csv(os.path.join(out_dir, name), rows[which], columns)
    for row in rows[1]:
        print(f"{row['mode']:18s} latency={row['latency_s']} "
              f"chunk_ms={row['chunk_compute_ms']:.3f} ter={row['ter']:.4f}")
    print("wrote " + ", ".join(os.path.join(out_dir, name) for name, _, _ in outputs))
    return EXIT_OK


def cmd_eval(args) -> int:
    def modes(bundle):
        # offline first, then streaming by latency descending
        return [None] + sorted(bundle["eval"]["specs"], reverse=True,
                               key=lambda s: (s.chunk + s.right, s.chunk))
    return _evaluate_checkpoint(args, modes, [("eval_summary.csv", 1, SUMMARY_COLUMNS),
                                              ("eval_utterances.csv", 0, UTTERANCE_COLUMNS)])


def cmd_sweep_latency(args) -> int:
    def modes(bundle):
        budgets = [int(b) for b in args.budgets.split(",")] if args.budgets \
            else bundle["eval"]["budgets"]
        return latency_splits(bundle["eval"]["left"], budgets)
    return _evaluate_checkpoint(args, modes, [("sweep_latency.csv", 1, SWEEP_COLUMNS)])


def cmd_bench_mcr(args) -> int:
    report = mcr_memory_probe((args.batch, args.frames, args.labels, args.vocab),
                              tile=args.tile, direction=args.direction,
                              seed=args.seed)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = args.out
    metrics = os.path.join(out_dir, "metrics.jsonl")
    if os.path.exists(metrics):
        records = [rec for _lineno, rec in read_jsonl(metrics)]
        if records:
            first, last = records[0], records[-1]
            print(f"training: {len(records)} logged steps, "
                  f"loss {first.get('total', float('nan')):.4f} -> "
                  f"{last.get('total', float('nan')):.4f}")
    summary = os.path.join(out_dir, "eval_summary.csv")
    if os.path.exists(summary):
        print("evaluation (mean TER; measured compute ms per chunk):")
        with open(summary) as fh:
            for row in csv.DictReader(fh):
                chunk_ms = row.get("chunk_compute_ms")
                chunk_ms = "n/a" if not chunk_ms else f"{float(chunk_ms):.3f}"
                print(f"  {row['mode']:10s} latency={row['latency_s']:>6s} "
                      f"chunk_ms={chunk_ms:>7s} ter={float(row['ter']):.4f}")
    sweep = os.path.join(out_dir, "sweep_latency.csv")
    if os.path.exists(sweep):
        print("latency sweep (budget_s, chunk_s, right_s, ter):")
        with open(sweep) as fh:
            for row in csv.DictReader(fh):
                print(f"  {row['budget_s']:>6s} {row['chunk_s']:>6s} "
                      f"{row['right_s']:>6s} {row['ter']}")
    if not any(os.path.exists(p) for p in (metrics, summary, sweep)):
        print(f"nothing to report under {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unify-rnnt",
        description="Unified offline+streaming transducer experiments at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus + manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override output directory")
    p.add_argument("--seed", type=int, help="override corpus seed")
    p.add_argument("--n", type=int, help="override utterance count")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train per the configured strategy")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--manifest", help="override training manifest")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="decode offline plus each latency spec; writes "
                                    "eval_summary.csv (a row per mode, latency "
                                    "descending) and eval_utterances.csv (a row per "
                                    "mode and utterance)")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", help="override eval manifest")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep-latency", help="TER for every (C, R=budget-C) split; "
                                             "writes sweep_latency.csv with columns "
                                             "budget_s, chunk_s, right_s, ter")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest")
    p.add_argument("--budgets", help="comma-separated frame budgets, e.g. 2,4,8")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep_latency)

    p = sub.add_parser("bench-mcr", help="fused vs naive consistency-loss probe "
                                         "under the instrumented allocator")
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--labels", type=int, default=32)
    p.add_argument("--vocab", type=int, default=1024)
    p.add_argument("--tile", type=int, default=128)
    p.add_argument("--direction", default="symmetric", choices=DIRECTIONS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench_mcr)

    p = sub.add_parser("report", help="summarize metrics and CSVs in an output dir")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ManifestMismatchError, MalformedRecordError, CorruptCheckpointError,
            OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
