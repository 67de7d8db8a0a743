"""Fleet simulation: population-scale Monte-Carlo over batched oracles.

Manufactures many IC samples from one seed and sweeps reliability,
entropy and attack-success statistics across the population with
chunked, vectorized execution — optionally split across a pool of
long-lived worker processes (``workers=N``, :mod:`repro.fleet.pool`)
with bitwise worker-count-invariant results (see ``docs/fleet.md``).
Attack campaigns run through the round-based lock-step engine
(:mod:`repro.fleet.campaign`): one attack advanced across a whole
device batch per distinguisher round, bitwise-identical to the
per-device scalar loop (see ``docs/attacks.md``).

Sweeps optionally run **supervised** (``supervision=Supervisor(...)``):
per-chunk watchdog timeouts, seeded retry with backoff, a structured
failure taxonomy, and quarantine with in-process degradation — while
keeping results bitwise-equal to a fault-free run.  A deterministic
fault-injection harness (:mod:`repro.fleet.faultinject`) exercises
every recovery path in tests and CI (see ``docs/resilience.md``).
"""

from repro.fleet.campaign import (
    DistillerAttackFactory,
    GroupAttackFactory,
    LockstepCampaign,
    SequentialAttackFactory,
    TempAwareAttackFactory,
    run_campaign,
    sequential_attack_factory,
)
from repro.fleet.faultinject import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
)
from repro.fleet.fleet import (
    AttackFactory,
    Fleet,
    FleetEnrollment,
    KeyGenFactory,
)
from repro.fleet.parallel import (
    chunk_indices,
    resolve_workers,
    run_collected,
    run_scattered,
)
from repro.fleet.pool import WorkerDiedError
from repro.fleet.resilience import (
    ChunkFailure,
    PoisonedSweepError,
    ResilienceReport,
    RetryPolicy,
    Supervisor,
)

__all__ = [
    "AttackFactory",
    "ChunkFailure",
    "DistillerAttackFactory",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "Fleet",
    "FleetEnrollment",
    "GroupAttackFactory",
    "InjectedFault",
    "KeyGenFactory",
    "LockstepCampaign",
    "PoisonedSweepError",
    "ResilienceReport",
    "RetryPolicy",
    "SequentialAttackFactory",
    "Supervisor",
    "TempAwareAttackFactory",
    "WorkerDiedError",
    "run_campaign",
    "sequential_attack_factory",
    "chunk_indices",
    "resolve_workers",
    "run_collected",
    "run_scattered",
]
