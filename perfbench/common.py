"""Paths and process settings shared by the benchmark's scripts.

Importing this module imports nothing heavy; call :func:`bootstrap`
before NumPy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Source tree of the program under test.
SRC = ROOT / "src"
#: Scratch area for registries and span dumps (git-ignored).
WORK = ROOT / ".perfbench"

#: Thread-pool sizes pinned to 1: the benchmark's parallelism is the
#: sweep's worker processes, never BLAS/OpenMP threads on 2 cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def bootstrap() -> None:
    """Pin thread pools and put ``src/`` first on the import path.

    Must run before NumPy is imported: the BLAS libraries read the
    variables once, at load time.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for benchmark subprocesses: this one's, ``src`` first.

    Call after :func:`bootstrap`, so the thread pins are inherited.
    """
    env = dict(os.environ)
    # A fault plan left in the environment would inject faults into the
    # sweep's workers; the benchmark measures fault-free runs.
    env.pop("REPRO_FAULT_PLAN", None)
    # Temporary directories (the sweep's socket directory) stay inside
    # the checkout, unless that would overflow the unix-socket path
    # limit of about 107 bytes.
    tmp = WORK / "tmp"
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env
