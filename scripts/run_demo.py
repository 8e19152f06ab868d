#!/usr/bin/env python3
"""End-to-end pipeline demo driven through the CLI.

Generates a training corpus and a held-out eval corpus (another sampling
seed, a quarter of the size), trains a short dual-mode + consistency run,
evaluates the latency ladder on the held-out corpus, sweeps chunk/right-context
splits under fixed budgets, and prints the report.  Everything lands under
--out.
"""

import argparse
import os
import sys

import yaml

from unify_rnnt.cli import main as cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo")
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--n-utterances", type=int, default=200)
    args = parser.parse_args()

    out = args.out
    heldout = os.path.join(out, "heldout")
    config = {
        "seed": 7,
        "out": out,
        "corpus": {"n_symbols": 16, "feat_dim": 16, "min_duration": 2,
                   "max_duration": 4, "min_symbols": 6, "max_symbols": 16,
                   "coarticulation": 0.4, "noise_sigma": 0.3,
                   "ambiguous_pairs": 6, "n_utterances": args.n_utterances},
        "model": {"feat_dim": 16, "model_dim": 64, "heads": 4, "blocks": 2,
                  "conv_kernel": 9, "subsample_factor": 2, "vocab_size": 18,
                  "predictor_dim": 64, "joint_dim": 64, "ff_dim": 128, "seed": 7},
        "train": {"strategy": "dual_mode", "alpha": 0.5, "p_off": 0.5,
                  "mcr": {"direction": "symmetric", "lambda": 0.3, "tile": 18},
                  "context_sets": [[4], [1, 2], [1, 2, 4]],
                  "steps": args.steps, "warmup_steps": max(1, args.steps // 10),
                  "max_lr": 3e-3, "min_lr": 3e-4, "batch_size": 8,
                  "manifest": os.path.join(out, "corpus", "manifest.jsonl")},
        "eval": {"left": 4, "specs": [[1, 0], [1, 1], [2, 2], [4, 4]],
                 "frame_ms": 40.0, "budgets": [2, 4],
                 "manifest": os.path.join(heldout, "corpus", "manifest.jsonl")},
    }
    os.makedirs(out, exist_ok=True)
    config_path = os.path.join(out, "config.yaml")
    with open(config_path, "w") as fh:
        yaml.safe_dump(config, fh)
    print(f"config: {config_path}")

    steps = [
        ["gen-data", "--config", config_path],
        ["gen-data", "--config", config_path, "--out", heldout, "--seed", "8",
         "--n", str(max(1, args.n_utterances // 4))],
        ["train", "--config", config_path],
        ["eval", "--config", config_path,
         "--checkpoint", os.path.join(out, "checkpoint.urnt")],
        ["sweep-latency", "--config", config_path,
         "--checkpoint", os.path.join(out, "checkpoint.urnt")],
        ["report", "--out", out],
    ]
    for argv in steps:
        print(f"\n$ unify-rnnt {' '.join(argv)}")
        code = cli(argv)
        if code != 0:
            print(f"command failed with exit code {code}")
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
