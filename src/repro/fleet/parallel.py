"""Fleet sweep execution: in-process, or through the worker pool.

Fleet sweeps are embarrassingly parallel across devices: each device's
Monte-Carlo outcome is a pure function of (a) the device/keygen/helper
state captured when the sweep starts and (b) a noise substream derived
from the population seed.  This module exploits that shape:

* :func:`run_collected` executes one job per device and collects its
  Python result, in payload order;
* :func:`run_scattered` is :func:`run_collected` plus one column
  array per output dtype, for jobs returning fixed-width numbers.

With ``workers=1`` and no supervision the jobs run in this process.
Everything else splits the payloads into contiguous chunks and runs
them on the long-lived worker pool of :mod:`repro.fleet.pool`, results
returned by value.

Both entry points guarantee **worker-count invariance**: results are
bitwise-identical whatever ``workers`` is, including 1.  Two mechanisms
make that hold.  First, every per-device random stream is derived in
the parent *before* dispatch, so stream identity cannot depend on which
worker runs the job or in which order.  Second, jobs always run against
*copies* of their payload — a deep copy in-process for ``workers=1``,
the pickle across the process boundary otherwise — so a sweep never
mutates parent-side device or keygen state either way.

Payloads must be picklable for ``workers > 1`` (library objects are;
user-supplied attack factories must be module-level callables, not
lambdas).  ``workers=1`` relaxes this to deep-copyability, which keeps
lambda factories working for in-process sweeps.

Both entry points also accept ``supervision=`` — a
:class:`repro.fleet.resilience.Supervisor` — which runs the chunks
under the pool's supervision (watchdog, seeded retry/backoff,
quarantine, in-process degradation) with the same bitwise results
contract.  Supervised chunks always leave the calling process, even
at ``workers=1``.  See :mod:`repro.fleet.resilience` and
``docs/resilience.md``.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.pool import Task, execute, run_tasks
from repro.fleet.resilience import payload_digest

#: A job maps one device's payload to a tuple of numeric outputs.
JobFn = Callable[[object], Tuple]


def resolve_workers(workers: Optional[int],
                    count: Optional[int] = None) -> int:
    """Normalise the ``workers`` knob to a positive worker count.

    ``None`` and ``0`` mean "one worker per available CPU"; any other
    value must be a positive integer.  When *count* (the number of
    payloads) is given, the result is additionally capped at it —
    requesting more workers than there is work never spawns idle
    processes.
    """
    if workers is None or workers == 0:
        resolved = max(1, os.cpu_count() or 1)
    else:
        resolved = int(workers)
        if resolved < 1:
            raise ValueError("workers must be a positive integer, 0 "
                             "or None (auto)")
    if count is not None:
        resolved = max(1, min(resolved, int(count)))
    return resolved


def _ensure_picklable(run_job: JobFn,
                      payloads: Sequence[object]) -> None:
    """Fail fast, and helpfully, before a pool sees a bad payload.

    A non-picklable job or payload (typically a lambda attack factory)
    would otherwise surface as a raw pickling traceback from deep
    inside the pool machinery — worse under spawn/forkserver, where
    the error appears asynchronously.  This pre-check names the
    offending payload and the fix instead.
    """
    try:
        pickle.dumps(run_job)
    except Exception as error:
        raise ValueError(
            f"job function {run_job!r} is not picklable and cannot "
            f"cross a process boundary ({error}). Use a module-level "
            f"callable instead of a lambda/closure, or run with "
            f"workers=1 and no supervision for in-process execution."
        ) from None
    for index, payload in enumerate(payloads):
        try:
            pickle.dumps(payload)
        except Exception as error:
            raise ValueError(
                f"payload {index} is not picklable and cannot cross "
                f"a process boundary ({error}). Attack/keygen "
                f"factories must be module-level callables (see "
                f"repro.fleet.campaign), or run with workers=1 and "
                f"no supervision for in-process execution."
            ) from None


def chunk_indices(count: int, chunks: int) -> List[np.ndarray]:
    """Split ``range(count)`` into at most *chunks* contiguous blocks.

    Chunks are the unit of work handed to a pool worker, and the unit
    a supervised sweep retries.  Empty blocks are dropped.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if chunks < 1:
        raise ValueError("need at least one chunk")
    return [block for block in np.array_split(np.arange(count), chunks)
            if block.size]


def run_scattered(run_job: JobFn, payloads: Sequence[object],
                  dtypes: Sequence, workers: Optional[int] = 1,
                  shared: Sequence[object] = (),
                  supervision=None) -> Tuple[np.ndarray, ...]:
    """Run one job per payload; scatter numeric outputs per device.

    *run_job* must return one scalar per entry of *dtypes* for every
    payload.  Returns one 1-D array per dtype, each of length
    ``len(payloads)``, with entry ``i`` produced by ``payloads[i]`` —
    bitwise-independent of *workers* and of how devices were chunked.
    Everything else, *supervision* included, is
    :func:`run_collected`; poisoned entries of an ``allow_partial``
    sweep stay zero.
    """
    dtypes = [np.dtype(dt) for dt in dtypes]
    results = run_collected(run_job, payloads, workers, shared,
                            supervision)
    outputs = [np.zeros(len(payloads), dtype=dt) for dt in dtypes]
    for index, values in enumerate(results):
        if values is not None:
            for output, value in zip(outputs, values):
                output[index] = value
    return tuple(outputs)


def run_collected(run_job: JobFn, payloads: Sequence[object],
                  workers: Optional[int] = 1,
                  shared: Sequence[object] = (),
                  supervision=None) -> list:
    """Run one job per payload; collect Python results in order.

    *shared* lists read-only payload constituents exempt from the
    in-process defensive copy (fleet sweeps treat device models as
    read-only, so the device physics is not duplicated per job).
    *supervision* (a :class:`repro.fleet.resilience.Supervisor`) runs
    the chunks supervised and appends the sweep's report to it;
    poisoned entries of an ``allow_partial`` sweep are ``None``.
    """
    count = len(payloads)
    resolved = resolve_workers(workers, count)
    if supervision is None and (resolved == 1 or count <= 1):
        return execute(run_job, payloads, shared=tuple(shared))[0]
    _ensure_picklable(run_job, payloads)
    blocks = chunk_indices(count, min(count, 4 * resolved)) if count \
        else []
    policy = report = None
    if supervision is not None:
        policy = supervision.policy
        report = supervision.new_report(len(blocks))
    tasks = []
    for index, block in enumerate(blocks):
        chunk = [payloads[i] for i in block]
        digest = payload_digest(chunk) if supervision is not None else ""
        tasks.append(Task(index, run_job, chunk, digest))
    results: list = [None] * count
    for done in run_tasks(tasks, resolved, policy, report,
                          shared=shared):
        if not done.poisoned:
            for index, value in zip(blocks[done.index], done.results):
                results[index] = value
    return results
