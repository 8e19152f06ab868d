"""scripts/profile_step.py: one command prints a step's top cProfile entries."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_step.py"


@pytest.fixture(scope="module")
def profile_step():
    spec = importlib.util.spec_from_file_location("profile_step", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entries(text: str) -> list[str]:
    """The profile's table rows: ncalls, tottime, percall, cumtime, percall, place."""
    return [line for line in text.splitlines()
            if re.match(r"\s*[\d/]+\s+\d+\.\d+\s+\d+\.\d+\s+\d+\.\d+\s+\d+\.\d+\s+\S", line)]


@pytest.mark.parametrize("argv,title", [
    (["stream", "--n", "4", "--spec", "3,1,1"],
     r"\d+ chunk steps in 1 streaming decodes \(\d+\.\d tokens per utterance\) "
     r"at L=3 C=1 R=1, seed 0"),
    (["train", "--n", "1", "--seed", "2"], r"1 train_step calls at dm_mcr, seed 2"),
    (["head", "--n", "3", "--seed", "1"],
     r"3 loss-head calls on 8 batches of 4 utterances at L=12 C=1 R=0, seed 1"),
    (["setup", "--n", "1", "--seed", "3"],
     r"1 generations of the train \(3000 utterances\) and eval \(160 utterances\) "
     r"corpora, \d+ frames, seed 3"),
])
def test_prints_the_top_entries_by_self_time(profile_step, capsys, argv, title):
    assert profile_step.main(argv) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(title, out.splitlines()[0])
    assert "Ordered by: internal time" in out
    rows = entries(out)
    assert 0 < len(rows) <= 25
    tottime = [float(r.split()[1]) for r in rows]
    assert tottime == sorted(tottime, reverse=True)


def test_stream_decodes_whole_utterances_until_n_chunks(profile_step, monkeypatch):
    from unify_rnnt.contexts import ContextSpec
    steps, tokens = [], []
    original = profile_step.decode_mode

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        steps.append(res.steps)
        tokens.append(len(res.tokens))
        return res
    monkeypatch.setattr(profile_step, "decode_mode", counted)
    n = 30
    run = profile_step.stream_decodes(profile_step.experiments.toy_setup(), 0, n,
                                      ContextSpec(2, 2, 0))
    assert run() == (sum(steps), len(steps), sum(tokens))
    assert sum(steps) >= n > sum(steps[:-1])


def test_head_calls_both_transducer_losses_and_the_consistency_loss(profile_step,
                                                                   monkeypatch):
    from unify_rnnt.contexts import ContextSpec
    calls = []
    monkeypatch.setattr(profile_step, "rnnt_loss",
                        lambda z, targets: calls.append(("rnnt", z, targets)))
    monkeypatch.setattr(profile_step, "mcr_loss",
                        lambda z_off, z_str, cfg: calls.append(("mcr", z_off, z_str, cfg)))
    setup = profile_step.experiments.toy_setup()
    spec = ContextSpec(12, 1, 0)
    batches = profile_step.head_batches(setup, 0, spec)
    n = len(batches) + 1
    profile_step.head_calls(setup, 0, n, spec)()
    assert [c[0] for c in calls] == ["rnnt", "rnnt", "mcr"] * n
    V = setup.model.vocab_size
    for k in range(n):
        (_, z_off, targets), (_, z_str, _), (_, mz_off, mz_str, cfg) = calls[3 * k:3 * k + 3]
        assert mz_off is z_off and mz_str is z_str
        assert cfg.tile == V // 3 and cfg.direction == "symmetric"
        assert z_off.batch_size == 4 and z_off.z.shape[-1] == V
        assert [len(t) for t in targets] == list(z_off.u_len)
        np.testing.assert_array_equal(z_off.t_len, z_str.t_len)
    # the batches cycle, and the two lattices of a batch differ (streaming is causal)
    assert calls[0][1] is calls[3 * len(batches)][1]
    assert not np.array_equal(calls[0][1].z, calls[1][1].z)


def test_bad_spec_is_a_usage_error(profile_step):
    with pytest.raises(SystemExit):
        profile_step.main(["stream", "--spec", "1,2"])
