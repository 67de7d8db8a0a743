"""Host-speed probe: a fixed loop timed next to every measured iteration.

On a shared 2-vCPU host, single-core speed drifts by 20-40% for minutes
at a time, which moved run medians by as much.  The benchmark therefore
reports end-to-end times in *reference-host seconds*: each measured
wall time is divided by the probe time around it and multiplied by
:data:`REFERENCE_S`, the probe time on the reference host.  The probe
is the benchmark's own code, never the program's, so a change to the
program moves the reported numbers and a change of host speed does not.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time on the reference host (2-vCPU Intel Xeon VM, quiet phase).
REFERENCE_S = 0.006

_RNG = np.random.default_rng(0)
_ROWS = (_RNG.random((64, 16)) > 0.6).astype(np.uint8)
_WORDS = [_RNG.integers(0, 2, 16, dtype=np.uint8) for _ in range(8)]


def probe() -> float:
    """Seconds one fixed interpreter + small-NumPy loop takes now.

    The mix mirrors the program's hot paths: dict and bytes work in
    the interpreter, then small row-dedup and sort calls in NumPy.
    """
    start = time.perf_counter()
    counts: dict = {}
    for i in range(4000):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + len(_WORDS[i & 7].tobytes())
    for _ in range(40):
        np.unique(_ROWS, axis=0)
        np.argsort(_ROWS.sum(axis=1), kind="stable")
    return time.perf_counter() - start


class HostClock:
    """Converts wall times to reference-host seconds, probe by probe."""

    def __init__(self) -> None:
        self._last = probe()

    def factor(self) -> float:
        """Reference-host seconds per wall second, for the region just
        timed: from the probe before it (the previous call's) and a
        fresh probe after it.  Call right after the timed region."""
        now = probe()
        around = (self._last + now) / 2.0
        self._last = now
        return REFERENCE_S / around
