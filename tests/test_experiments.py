"""Experiment harness: the strategy x seed suite, its runs and its table."""

from dataclasses import replace

import pytest

from unify_rnnt import experiments
from unify_rnnt.contexts import ContextSpec

TIMINGS = ("wall_ms", "chunk_compute_ms")


def untimed(value):
    """``value`` without its measured timings, which vary from run to run."""
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k not in TIMINGS}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


@pytest.fixture(scope="module")
def tiny():
    setup = replace(experiments.toy_setup(steps=3), n_train=16, n_eval=4)
    return {workers: experiments.run_suite(["sm", "dm_mcr"], (0, 1), setup=setup,
                                           workers=workers)
            for workers in (1, 2)}


def test_results_do_not_depend_on_the_worker_count(tiny):
    assert untimed(tiny[1]["results"]) == untimed(tiny[2]["results"])
    assert experiments.format_suite_table(tiny[1]) == experiments.format_suite_table(tiny[2])


def test_run_keeps_the_summary_rows_of_each_mode(tiny):
    setup = tiny[1]["setup"]
    left = setup.eval_left
    for strategy, by_seed in tiny[1]["results"].items():
        assert sorted(by_seed) == [0, 1]
        for res in by_seed.values():
            assert res["final"]["step"] == 3
            assert [r["spec"] for r in res["summary"]] == [None] + [
                ContextSpec(left, c, r) for c, r in setup.eval_specs]
            # only the sweep strategies sweep every split of each budget
            assert ("sweep" in res) == (strategy == "dm_mcr")
    sweep = tiny[1]["results"]["dm_mcr"][0]["sweep"]
    assert [(r["spec"].chunk, r["spec"].right) for r in sweep] == [
        (1, 1), (2, 0), (1, 3), (2, 2), (3, 1), (4, 0)]


def test_table_has_a_line_per_run_and_a_column_per_mode(tiny):
    lines = experiments.format_suite_table(tiny[1]).splitlines()
    assert lines[0].split() == ["strategy", "seed", "offline", "streaming_C1_R0",
                                "streaming_C1_R1", "streaming_C2_R2", "streaming_C4_R4"]
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        strategy, seed, *cells = line.split()
        res = tiny[1]["results"][strategy][int(seed)]
        assert cells == [f"{r['ter']:.4f}" for r in res["summary"]]
