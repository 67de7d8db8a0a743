"""Distributed campaign service: sharded, streaming, enroll-once.

The service is a view of the fleet engine, in three pieces:

* :mod:`repro.service.shard` — a deterministic :class:`ShardPlan`
  over a seeded :class:`~repro.fleet.PopulationSpec`, each shard one
  task of the fleet's supervised worker pool
  (:mod:`repro.fleet.pool`: long-lived workers over a length-prefixed
  pipe/TCP protocol, with the
  :class:`~repro.fleet.resilience.RetryPolicy` retry/quarantine
  taxonomy for crashes, timeouts and poison shards);
* :mod:`repro.service.stream` — :func:`submit_sweep` returning a
  lazy :class:`SweepHandle` that yields typed :class:`ShardResult`
  chunks in completion order and merges them **bitwise-identically**
  to the single-host ``Fleet`` sweeps;
* :mod:`repro.service.registry` — a persistent, digest-verified
  enrollment store so a population is enrolled once and swept many
  times (``repro service enroll`` / ``repro service sweep
  --registry``).

The invariant underneath all of it: shard identity and every
per-device random substream derive from the population seed and the
sweep call order — never from worker count, shard count, transport or
completion order.
"""

from repro.fleet.pool import ServiceProtocolError, WorkerHandshakeError
from repro.service.registry import (
    EnrollmentRegistry,
    RegistryError,
    enroll_population,
)
from repro.service.shard import (
    KIND_ATTACK,
    KIND_FAILURE,
    KINDS,
    ShardPlan,
    ShardResult,
    ShardSpec,
    merge_attack_results,
    merge_failure_rates,
    shard_digest,
)
from repro.service.stream import (
    PopulationSpec,
    SweepHandle,
    submit_sweep,
)

__all__ = [
    "EnrollmentRegistry",
    "KIND_ATTACK",
    "KIND_FAILURE",
    "KINDS",
    "PopulationSpec",
    "RegistryError",
    "ServiceProtocolError",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "SweepHandle",
    "WorkerHandshakeError",
    "enroll_population",
    "merge_attack_results",
    "merge_failure_rates",
    "shard_digest",
    "submit_sweep",
]
