"""One fresh-interpreter set-up: import, manufacture, enroll (+ registry).

Run by ``run.py`` several times per benchmark run; prints one JSON
object of step timings, plus their total in reference-host seconds
(host-speed probes taken right after the set-up).  Usage::

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import time

from common import WORK, bootstrap


def main(argv) -> int:
    name, seed, size = argv[1], int(argv[2]), argv[3]
    bootstrap()
    start = time.perf_counter()
    import workloads
    imported = time.perf_counter() - start

    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=WORK)
    try:
        prepared = workloads.prepare(workloads.WORKLOADS[name], seed,
                                     size, registry_dir=f"{scratch}/reg")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    from hostspeed import REFERENCE_S, probe

    host = statistics.median(probe() for _ in range(3))
    total = imported + sum(prepared.timings.values())
    print(json.dumps({"import_s": imported, **prepared.timings,
                      "setup_ref_s": total * REFERENCE_S / host}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
