"""Streaming sweep API: submit once, consume shard results as they land.

:func:`submit_sweep` builds and enrolls a seeded population through
:meth:`~repro.fleet.PopulationSpec.enroll` (fresh, or loaded from a
persistent registry), shards the sweep with a deterministic
:class:`~repro.service.shard.ShardPlan` and runs each shard as one
task of the fleet's worker pool (:func:`repro.fleet.pool.run_tasks`).
The returned :class:`SweepHandle` is lazy: shards only execute while
the caller iterates (or calls :meth:`SweepHandle.collect`), and
results are yielded in **completion order** — out-of-order by design.
:meth:`SweepHandle.collect` merges them into the exact single-host
result shapes: the contract (pinned by ``tests/service/``) is that
``collect()`` is bitwise-equal to the matching
:meth:`repro.fleet.Fleet.failure_rates` /
:meth:`~repro.fleet.Fleet.attack_results` call on a same-seed fleet,
for every shard count, worker count and transport.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.fleet.fleet import (
    AttackFactory,
    Fleet,
    FleetEnrollment,
    KeyGenFactory,
    PopulationSpec,
)
from repro.fleet.parallel import resolve_workers
from repro.fleet.pool import TRANSPORTS, Task, run_tasks
from repro.fleet.resilience import ResilienceReport, RetryPolicy
from repro.service.shard import (
    KIND_FAILURE,
    KINDS,
    SHARD_JOBS,
    ShardPlan,
    ShardResult,
    merge_attack_results,
    merge_failure_rates,
    shard_data,
)

__all__ = ["PopulationSpec", "SweepHandle", "submit_sweep"]


class SweepHandle:
    """Iterator surface over one streamed sharded sweep.

    Results arrive in completion order; every received
    :class:`ShardResult` is also retained on :attr:`results` so
    :meth:`collect` can merge after the stream is drained.  The run's
    :class:`ResilienceReport` is on :attr:`report` from submission
    on, and fills in as shards land.  The handle is single-use, like
    the sweep it fronts.
    """

    def __init__(self, plan: ShardPlan, kind: str,
                 report: ResilienceReport,
                 outcomes: Iterator[ShardResult],
                 fleet: Fleet, enrollment: FleetEnrollment,
                 enrollment_source: str):
        self.plan = plan
        self.kind = kind
        self.report = report
        self.fleet = fleet
        self.enrollment = enrollment
        #: ``"enrolled"`` (fresh enrollment ran) or ``"registry"``
        #: (persisted enrollment loaded; zero enroll calls).
        self.enrollment_source = enrollment_source
        self.results: List[ShardResult] = []
        self._outcomes = outcomes

    def __iter__(self) -> Iterator[ShardResult]:
        return self

    def __next__(self) -> ShardResult:
        result = next(self._outcomes)
        self.results.append(result)
        return result

    def close(self) -> None:
        """Abandon the sweep: stop the workers, release the sockets."""
        self._outcomes.close()

    def collect(self):
        """Drain and merge into the single-host result shape.

        * :data:`~repro.service.shard.KIND_FAILURE` → the
          ``(devices,)`` float64 vector of
          :meth:`repro.fleet.Fleet.failure_rates`;
        * :data:`~repro.service.shard.KIND_ATTACK` → the raw result
          list of :meth:`~repro.fleet.Fleet.attack_results`, whose
          :func:`~repro.fleet.fleet.recovery_summary` over
          :attr:`enrollment` is the
          :meth:`~repro.fleet.Fleet.attack_success` pair.

        Bitwise-equal to the matching direct sweep on a same-seed
        fleet, whatever the shard count, worker count or transport.
        """
        for _ in self:
            pass
        by_shard: List[Optional[Dict]] = [None] * len(self.plan)
        for result in self.results:
            if not result.poisoned:
                by_shard[result.shard.index] = result.data
        if self.kind == KIND_FAILURE:
            return merge_failure_rates(self.plan, by_shard)
        return merge_attack_results(self.plan, by_shard)


def submit_sweep(population: PopulationSpec,
                 keygen_factory: KeyGenFactory,
                 kind: str = KIND_FAILURE, *,
                 trials: Optional[int] = None,
                 chunk: int = 1024,
                 attack_factory: Optional[AttackFactory] = None,
                 shards: int = 2,
                 workers: Optional[int] = None,
                 transport: str = "pipe",
                 policy: Optional[RetryPolicy] = None,
                 registry=None) -> SweepHandle:
    """Submit one sharded sweep; returns a lazy :class:`SweepHandle`.

    Builds and enrolls the population through
    :meth:`PopulationSpec.enroll` — from *registry* (a
    :class:`repro.service.registry.EnrollmentRegistry` or a path to
    one; enrollment is **skipped entirely**, helpers and keys are
    digest-verified on load) or fresh with the spec's enrollment
    stream — then derives every sweep substream in this process and
    runs one pool task per shard.  Nothing about worker placement can
    influence the outputs: :meth:`SweepHandle.collect` is
    bitwise-equal to the matching single-host ``Fleet`` sweep.

    *trials* is required for failure-rate sweeps; *attack_factory*
    (a picklable module-level callable) for attack sweeps.  *chunk*
    bounds the trials per batched oracle call.  *workers* (``None``/
    ``0`` = CPU count, capped at the shard count), *transport*
    (``"pipe"`` or ``"tcp"``) and *policy* (the
    :class:`~repro.fleet.resilience.RetryPolicy` of the supervised
    pool; its defaults otherwise) only place the work.  The shard
    index is each task's fault-injection coordinate and the shard
    digest seeds its retry backoff, so a faulted sweep replays the
    same schedule run over run.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}; expected one "
                         f"of {KINDS}")
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; expected "
                         f"one of {TRANSPORTS}")
    if kind == KIND_FAILURE and trials is None:
        raise ValueError("failure-rate sweeps need trials")
    if kind != KIND_FAILURE and attack_factory is None:
        raise ValueError("attack sweeps need an attack_factory")
    if registry is not None:
        from repro.service.registry import EnrollmentRegistry

        if not isinstance(registry, EnrollmentRegistry):
            registry = EnrollmentRegistry.open(registry)
    fleet, enrollment = population.enroll(keygen_factory, registry)
    plan = ShardPlan.plan(population.seed, len(fleet), shards)
    if kind == KIND_FAILURE:
        shard_jobs = plan.slice_jobs(fleet.failure_rate_jobs(
            enrollment, trials, chunk=chunk))
    else:
        shard_jobs = [[job] for job in fleet.attack_chunk_jobs(
            enrollment, attack_factory, spans=plan.spans)]
    report = ResilienceReport(
        policy=policy if policy is not None else RetryPolicy(),
        chunks=len(plan))
    tasks = [Task(spec.index, SHARD_JOBS[kind], jobs, spec.digest)
             for spec, jobs in zip(plan.shards, shard_jobs)]
    done = run_tasks(tasks, resolve_workers(workers, len(tasks)),
                     report.policy, report, transport=transport)
    outcomes = (ShardResult(
        shard=plan.shards[task.index], kind=kind,
        data=(None if task.poisoned
              else shard_data(kind, task.results,
                              shard_jobs[task.index])),
        seconds=task.seconds, kernel=task.kernel,
        attempt=task.attempt, worker=task.worker,
        degraded=task.degraded, poisoned=task.poisoned)
        for task in done)
    return SweepHandle(plan, kind, report, outcomes, fleet, enrollment,
                       "enrolled" if registry is None else "registry")
