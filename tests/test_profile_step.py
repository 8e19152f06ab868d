"""scripts/profile_step.py: one command prints a step's top cProfile entries."""

import importlib.util
import re
from pathlib import Path

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
     r"\d+ chunk steps in 1 streaming decodes at L=3 C=1 R=1, seed 0"),
    (["train", "--n", "1", "--seed", "2"], r"1 train_step_dm calls, seed 2"),
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
    steps = []
    original = profile_step.greedy_decode_streaming

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        steps.append(res.steps)
        return res
    monkeypatch.setattr(profile_step, "greedy_decode_streaming", counted)
    n = 30
    run = profile_step.stream_decodes(profile_step.experiments.toy_setup(), 0, n,
                                      ContextSpec(2, 2, 0))
    assert run() == (sum(steps), len(steps))
    assert sum(steps) >= n > sum(steps[:-1])


def test_bad_spec_is_a_usage_error(profile_step):
    with pytest.raises(SystemExit):
        profile_step.main(["stream", "--spec", "1,2"])
