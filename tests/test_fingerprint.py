"""scripts/fingerprint.py over fake checkouts: equal trees pass, a last-bit
difference in one step report fails and is named."""

import shutil
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# appended to each fake checkout's experiments.py: the recipe's toy_setup
# shrinks to 2 steps on 8 training and 4 eval utterances
SHRINK = textwrap.dedent('''

    _toy_setup = toy_setup


    def toy_setup(steps=2000):
        return replace(_toy_setup(steps=2), n_train=8, n_eval=4)
''')

# appended to a copy of training.py: run_training looks train_step up at call
# time, so the sm run at seed 12 reports a total one ulp up at step 2 and
# trains exactly as before
NUDGE = textwrap.dedent('''

    _train_step = train_step


    def train_step(model, batch, rng, cfg, opt, step):
        report = _train_step(model, batch, rng, cfg, opt, step)
        if (cfg.strategy, cfg.seed, step) == ("single_mode", 12, 2):
            report["total"] = float(np.nextafter(report["total"], np.inf))
        return report
''')


def fake_tree(root: Path, name: str, patch: str = "") -> Path:
    """A checkout holding a copy of this package with the shrunk recipe, and
    ``patch`` appended to its training module."""
    pkg = root / name / "src" / "unify_rnnt"
    shutil.copytree(ROOT / "src" / "unify_rnnt", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module, text in (("experiments.py", SHRINK), ("training.py", patch)):
        with open(pkg / module, "a") as fh:
            fh.write(text)
    return root / name


@pytest.fixture(scope="module")
def fingerprint(load_script):
    return load_script("fingerprint")


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkouts")
    return fake_tree(root, "parent"), fake_tree(root, "same"), fake_tree(root, "nudged", NUDGE)


def test_equal_trees_are_bit_identical(trees, capsys, fingerprint):
    parent, same, _ = trees
    code = fingerprint.main(["--parent", str(parent), "--change", str(same)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines()[-1] == "bit-identical"
    # 3 strategies x 2 seeds x 2 steps; 5 modes x 4 utterances x 6 models
    assert "(12 records)" in out and "(120 records)" in out


def test_a_last_bit_step_difference_fails_and_names_the_step(trees, capsys, fingerprint):
    parent, _, nudged = trees
    code = fingerprint.main(["--parent", str(parent), "--change", str(nudged)])
    out = capsys.readouterr().out
    assert code == 1, out
    assert "  train first differs at sm seed 12 step 2: parent " in out
    # the nudge changes no parameter, token or head value
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  ")] == ["train"]
    assert out.splitlines()[-1] == "DIFFERENT"


def test_a_failed_recipe_fails_the_check(tmp_path, capsys, fingerprint):
    parent = fake_tree(tmp_path, "parent")
    broken = fake_tree(tmp_path, "broken", "\nraise RuntimeError('boom')\n")
    code = fingerprint.main(["--parent", str(parent), "--change", str(broken)])
    out = capsys.readouterr().out
    assert code == 1
    assert "change: recipe exited 1; stderr ends:" in out and "RuntimeError: boom" in out
