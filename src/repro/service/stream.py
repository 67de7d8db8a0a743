"""Streaming sweep API: submit once, consume shard results as they land.

:func:`submit_sweep` seeds a population, resolves its enrollment
(fresh, or loaded from a persistent registry), shards the sweep with a
deterministic :class:`~repro.service.shard.ShardPlan` and drives the
shards over the :class:`~repro.service.dispatcher.Dispatcher`'s
long-lived workers.  The returned :class:`SweepHandle` is lazy: shards
only execute while the caller iterates (or calls :meth:`collect`), and
results are yielded in **completion order** — out-of-order by design.
:meth:`SweepHandle.in_order` replays them in shard order, and
:meth:`SweepHandle.collect` merges them into the exact single-host
result shapes: the contract (pinned by ``tests/service/``) is that
``collect()`` is bitwise-equal to the matching
:meth:`repro.fleet.Fleet.failure_rates` /
:meth:`~repro.fleet.Fleet.attack_success` /
:meth:`~repro.fleet.Fleet.attack_results` call on a same-seed fleet,
for every shard count, worker count and transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro._rng import spawn
from repro.fleet.fleet import (
    AttackFactory,
    Fleet,
    FleetEnrollment,
    KeyGenFactory,
)
from repro.fleet.resilience import ResilienceReport, RetryPolicy
from repro.keygen.base import OperatingPoint
from repro.puf.parameters import ROArrayParams
from repro.service.dispatcher import Dispatcher
from repro.service.shard import (
    KIND_ATTACK,
    KIND_FAILURE,
    KINDS,
    ShardPlan,
    ShardResult,
    merge_attack,
    merge_attack_results,
    merge_failure_rates,
)


@dataclass(frozen=True)
class PopulationSpec:
    """A seeded device population, as pure data.

    The spec is the unit both the service and the registry key on:
    ``(params, devices, seed)`` fully determines the manufactured
    fleet *and* the enrollment streams (the seed is split exactly as
    the ``repro fleet`` CLI splits it — manufacturing children and
    enrollment children can never collide).
    """

    params: ROArrayParams
    devices: int
    seed: int

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("need at least one device")

    def build(self) -> Tuple[Fleet, object]:
        """Manufacture the fleet; returns ``(fleet, enroll_rng)``."""
        manufacture_rng, enroll_rng = spawn(self.seed, 2)
        return (Fleet(self.params, size=self.devices,
                      seed=manufacture_rng), enroll_rng)


class SweepHandle:
    """Iterator/callback surface over one streamed sharded sweep.

    Results arrive in completion order; every received
    :class:`ShardResult` is also retained on :attr:`results` so
    :meth:`in_order` and :meth:`collect` can replay/merge after the
    stream is drained.  The handle is single-use, like the sweep it
    fronts.
    """

    def __init__(self, plan: ShardPlan, kind: str,
                 dispatcher: Dispatcher,
                 outcomes: Iterator[ShardResult],
                 fleet: Fleet, enrollment: FleetEnrollment,
                 enrollment_source: str):
        self.plan = plan
        self.kind = kind
        self.fleet = fleet
        self.enrollment = enrollment
        #: ``"enrolled"`` (fresh enrollment ran) or ``"registry"``
        #: (persisted enrollment loaded; zero enroll calls).
        self.enrollment_source = enrollment_source
        self.results: List[ShardResult] = []
        self._dispatcher = dispatcher
        self._outcomes = outcomes
        self._callbacks: List = []

    # ------------------------------------------------------------------

    @property
    def report(self) -> Optional[ResilienceReport]:
        """The run's resilience report (``None`` before any pump)."""
        return self._dispatcher.report

    def on_chunk(self, callback) -> "SweepHandle":
        """Register *callback(result)* for every arriving chunk.

        Callbacks fire in arrival order while the handle is pumped
        (by iteration or :meth:`collect`); chaining returns the
        handle.
        """
        self._callbacks.append(callback)
        return self

    def __iter__(self) -> Iterator[ShardResult]:
        return self

    def __next__(self) -> ShardResult:
        result = next(self._outcomes)
        self.results.append(result)
        for callback in self._callbacks:
            callback(result)
        return result

    def close(self) -> None:
        """Abandon the sweep: stop the workers, release the sockets."""
        self._outcomes.close()

    def in_order(self) -> Iterator[ShardResult]:
        """Replay results in shard order, buffering early arrivals.

        Pumps the stream as needed: shard *i* is yielded as soon as
        every shard ``<= i`` has completed.
        """
        buffered: Dict[int, ShardResult] = {
            result.shard.index: result for result in self.results}
        emit = 0
        while emit < len(self.plan):
            if emit in buffered:
                yield buffered.pop(emit)
                emit += 1
                continue
            result = next(self)
            buffered[result.shard.index] = result

    def drain(self) -> List[ShardResult]:
        """Pump the stream to completion; returns all results."""
        for _ in self:
            pass
        return self.results

    def collect(self):
        """Drain and merge into the single-host result shape.

        * :data:`~repro.service.shard.KIND_FAILURE` → the
          ``(devices,)`` float64 vector of
          :meth:`repro.fleet.Fleet.failure_rates`;
        * :data:`~repro.service.shard.KIND_ATTACK` → the
          ``(recovered, queries)`` pair of
          :meth:`~repro.fleet.Fleet.attack_success`;
        * :data:`~repro.service.shard.KIND_ATTACK_RESULTS` → the raw
          result list of :meth:`~repro.fleet.Fleet.attack_results`.

        Bitwise-equal to the matching direct sweep on a same-seed
        fleet, whatever the shard count, worker count or transport.
        """
        self.drain()
        by_shard: List[Optional[Dict]] = [None] * len(self.plan)
        for result in self.results:
            if not result.poisoned:
                by_shard[result.shard.index] = result.data
        if self.kind == KIND_FAILURE:
            return merge_failure_rates(self.plan, by_shard)
        if self.kind == KIND_ATTACK:
            return merge_attack(self.plan, by_shard)
        return merge_attack_results(self.plan, by_shard)


def submit_sweep(population: PopulationSpec,
                 keygen_factory: KeyGenFactory,
                 kind: str = KIND_FAILURE, *,
                 trials: Optional[int] = None,
                 op: Optional[OperatingPoint] = None,
                 helpers: Optional[Sequence[object]] = None,
                 chunk: int = 1024,
                 attack_factory: Optional[AttackFactory] = None,
                 lockstep: Optional[bool] = None,
                 fused: Optional[bool] = None,
                 trajectory=None,
                 shards: int = 2,
                 workers: Optional[int] = None,
                 transport: str = "pipe",
                 policy: Optional[RetryPolicy] = None,
                 registry=None,
                 enroll_workers: Optional[int] = 1,
                 handshake_timeout: float = 30.0) -> SweepHandle:
    """Submit one sharded sweep; returns a lazy :class:`SweepHandle`.

    Builds the seeded population, resolves the enrollment — from
    *registry* (a :class:`repro.service.registry.EnrollmentRegistry`
    or a path to one; enrollment is **skipped entirely**, helpers and
    keys are digest-verified on load) or by enrolling fresh with the
    spec's enrollment stream — then derives every sweep substream in
    this process and hands per-shard payloads to the dispatcher.
    Nothing about worker placement can influence the outputs:
    :meth:`SweepHandle.collect` is bitwise-equal to the matching
    single-host ``Fleet`` sweep.

    *trials* is required for failure-rate sweeps; *attack_factory*
    (a picklable module-level callable) for the attack kinds.  The
    remaining knobs mirror the ``Fleet`` sweep methods; *shards*,
    *workers*, *transport*, *policy* and *handshake_timeout* mirror
    the :class:`~repro.service.dispatcher.Dispatcher`.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}; expected one "
                         f"of {KINDS}")
    fleet, enroll_rng = population.build()
    if registry is not None:
        from repro.service.registry import EnrollmentRegistry

        if not isinstance(registry, EnrollmentRegistry):
            registry = EnrollmentRegistry.open(registry)
        registry.verify_population(population)
        enrollment = registry.load_enrollment(keygen_factory)
        source = "registry"
    else:
        enrollment = fleet.enroll(keygen_factory, seed=enroll_rng,
                                  workers=enroll_workers)
        source = "enrolled"
    plan = ShardPlan.plan(population.seed, len(fleet), shards)
    if kind == KIND_FAILURE:
        if trials is None:
            raise ValueError("failure-rate sweeps need trials")
        jobs = fleet.failure_rate_jobs(enrollment, trials, op=op,
                                       helpers=helpers, chunk=chunk,
                                       trajectory=trajectory)
        shard_jobs = plan.slice_jobs(jobs)
    else:
        if attack_factory is None:
            raise ValueError("attack sweeps need an attack_factory")
        chunk_jobs = fleet.attack_chunk_jobs(
            enrollment, attack_factory, spans=plan.spans,
            op=op if op is not None else OperatingPoint(),
            lockstep=lockstep, fused=fused, trajectory=trajectory)
        shard_jobs = [[job] for job in chunk_jobs]
    dispatcher = Dispatcher(workers=workers, transport=transport,
                            policy=policy,
                            handshake_timeout=handshake_timeout)
    outcomes = dispatcher.run(plan, kind, shard_jobs)
    return SweepHandle(plan, kind, dispatcher, outcomes, fleet,
                       enrollment, source)
