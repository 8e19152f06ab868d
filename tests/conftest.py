import json
import struct

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
