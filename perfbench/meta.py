"""Run metadata: source revision, interpreter, numpy, BLAS and core count.

Numbers are comparable only between runs on the same machine; this block is
what tells two machines, or two builds of numpy, apart.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess


def source_digest(root: str) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "unify_rnnt", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect(root: str, requested_threads: str) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": int(requested_threads),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
