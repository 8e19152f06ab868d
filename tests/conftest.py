import importlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="session")
def load_script():
    """``load_script(name)``: the module ``scripts/<name>.py``.  ``scripts/`` goes
    on ``sys.path``, so one script imports another as it does when run."""
    if str(SCRIPTS) not in sys.path:
        sys.path.insert(0, str(SCRIPTS))
    return importlib.import_module


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def rewrite_header():
    """``rewrite(path, edit)``: apply ``edit`` to a checkpoint's JSON header in place."""
    from unify_rnnt.training import CHECKPOINT_MAGIC

    def rewrite(path, edit):
        raw = open(path, "rb").read()
        start = len(CHECKPOINT_MAGIC) + 4
        hlen = struct.unpack("<Q", raw[start:start + 8])[0]
        header = json.loads(raw[start + 8:start + 8 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        open(path, "wb").write(raw[:start] + struct.pack("<Q", len(blob)) + blob
                               + raw[start + 8 + hlen:])
    return rewrite
