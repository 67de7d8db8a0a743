"""The service's shard adapter over the fleet worker pool.

:class:`Dispatcher` turns a :class:`~repro.service.shard.ShardPlan`
and its per-shard job lists into pool tasks — one task per shard,
calling :func:`~repro.service.shard.execute_shard` on every job — and
runs them through :func:`repro.fleet.pool.run_tasks`: the same
long-lived framed workers, watchdog, seeded backoff, quarantine and
poison handling that supervised fleet sweeps use.  The shard index is
the fault-injection coordinate and the shard digest seeds the backoff
jitter, so a ``REPRO_FAULT_PLAN`` drives shards exactly as it drives
fleet chunks, and a faulted sweep replays the same schedule run over
run.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Sequence

from repro.fleet.parallel import resolve_workers
from repro.fleet.pool import TRANSPORTS, Task, run_tasks
from repro.fleet.resilience import (
    ResilienceReport,
    RetryPolicy,
    Supervisor,
)
from repro.service.shard import (
    KINDS,
    ShardPlan,
    ShardResult,
    execute_shard,
    shard_data,
)


class Dispatcher:
    """Drives a sharded sweep over the long-lived worker pool.

    Parameters
    ----------
    workers:
        Worker process count; ``None``/``0`` resolves to the CPU
        count, and the resolved value is always capped at the shard
        count (idle workers would only burn the handshake budget).
    transport:
        ``"pipe"`` (unix-domain socket) or ``"tcp"`` (loopback).
    policy:
        :class:`~repro.fleet.resilience.RetryPolicy` governing
        watchdog timeouts, retry counts and backoff; defaults to the
        supervised pool's defaults.
    supervisor:
        Optional :class:`~repro.fleet.resilience.Supervisor` to
        collect the run's :class:`ResilienceReport` into; one is
        created on demand otherwise (exposed as :attr:`supervisor`).
    handshake_timeout:
        Seconds each spawned worker gets to check in before the pool
        raises :class:`~repro.fleet.pool.WorkerHandshakeError`.
    """

    def __init__(self, workers: Optional[int] = None,
                 transport: str = "pipe",
                 policy: Optional[RetryPolicy] = None,
                 supervisor: Optional[Supervisor] = None,
                 handshake_timeout: float = 30.0):
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {TRANSPORTS}")
        self._workers_arg = workers
        self.transport = transport
        self.supervisor = (supervisor if supervisor is not None
                           else Supervisor(policy))
        if policy is not None and supervisor is not None \
                and supervisor.policy is not policy:
            raise ValueError("pass either policy or supervisor, "
                             "not conflicting both")
        self.handshake_timeout = float(handshake_timeout)
        self.report: Optional[ResilienceReport] = None

    @property
    def policy(self) -> RetryPolicy:
        """The active retry policy."""
        return self.supervisor.policy

    def run(self, plan: ShardPlan, kind: str,
            shard_jobs: Sequence[Sequence[object]]
            ) -> Iterator[ShardResult]:
        """Execute every shard; yield results as they land.

        *shard_jobs* is the per-shard job payload list, aligned with
        ``plan.shards``.  Results arrive in completion order (not
        shard order).  The run's :class:`ResilienceReport` is on
        :attr:`report` once the iterator is exhausted.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown sweep kind {kind!r}; expected "
                             f"one of {KINDS}")
        if len(shard_jobs) != len(plan.shards):
            raise ValueError("one job list per shard required")
        self.report = self.supervisor.new_report(len(plan.shards))
        job = functools.partial(execute_shard, kind)
        tasks = [Task(spec.index, job, list(jobs), spec.digest)
                 for spec, jobs in zip(plan.shards, shard_jobs)]
        for done in run_tasks(
                tasks, resolve_workers(self._workers_arg, len(tasks)),
                self.policy, self.report, transport=self.transport,
                handshake_timeout=self.handshake_timeout):
            yield ShardResult(
                shard=plan.shards[done.index], kind=kind,
                data=(None if done.poisoned
                      else shard_data(kind, done.results)),
                seconds=done.seconds, kernel=done.kernel,
                attempt=done.attempt, worker=done.worker,
                degraded=done.degraded, poisoned=done.poisoned)
