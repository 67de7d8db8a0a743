"""Deterministic shard plans over a seeded device population.

A :class:`ShardPlan` splits a population into contiguous device
ranges.  The plan is pure data derived from ``(population seed,
device count, shard count)`` — it never encodes *where* a shard will
execute.  Combined with the fleet's sweep-stream discipline (every
per-device substream is derived in the submitting process before any
dispatch, see :meth:`repro.fleet.Fleet.failure_rate_jobs`), any shard
can run on any worker process, in any order, and the merged outputs
are bitwise-identical to the single-host sweep.

The shard is also the service's retry unit: :func:`shard_digest`
gives each shard a stable identity that seeds the
:class:`repro.fleet.resilience.RetryPolicy` backoff jitter, so a
faulted streamed sweep replays the exact schedule run over run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.fleet import (
    _attack_chunk_job,
    _attack_results_chunk_job,
    _failure_rate_job,
)
from repro.fleet.parallel import chunk_indices

#: Sweep kinds the service can shard.
KIND_FAILURE = "failure-rates"
KIND_ATTACK = "attack-success"
KIND_ATTACK_RESULTS = "attack-results"
KINDS = (KIND_FAILURE, KIND_ATTACK, KIND_ATTACK_RESULTS)


def shard_digest(population_seed: int, index: int, start: int,
                 stop: int) -> str:
    """Stable identity of one shard of one seeded population.

    Used as the shard's substream-root label in the plan and as the
    payload digest seeding retry backoff jitter — a function of the
    population seed and the device range only, never of worker
    placement.
    """
    material = (f"{int(population_seed)}:{int(index)}:{int(start)}:"
                f"{int(stop)}").encode("ascii")
    return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous device range of a sharded sweep."""

    index: int
    start: int
    stop: int
    #: :func:`shard_digest` of this range under the plan's seed.
    digest: str

    @property
    def devices(self) -> int:
        """Number of devices in the shard."""
        return self.stop - self.start

    @property
    def span(self) -> Tuple[int, int]:
        """The ``(start, stop)`` device range, fleet order."""
        return (self.start, self.stop)


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic split of a seeded population into shards.

    ``plan(seed, devices, shards)`` is a pure function: the same
    arguments produce the same ranges and the same shard digests on
    every host, so a dispatcher and its workers (or two independent
    runs) always agree on what shard ``i`` means.
    """

    population_seed: int
    devices: int
    shards: Tuple[ShardSpec, ...]

    @classmethod
    def plan(cls, population_seed: int, devices: int,
             shards: int) -> "ShardPlan":
        """Split *devices* into at most *shards* contiguous ranges."""
        if devices < 1:
            raise ValueError("need at least one device")
        if shards < 1:
            raise ValueError("need at least one shard")
        blocks = chunk_indices(devices, min(shards, devices))
        specs = []
        for index, block in enumerate(blocks):
            start, stop = int(block[0]), int(block[-1]) + 1
            specs.append(ShardSpec(
                index, start, stop,
                shard_digest(population_seed, index, start, stop)))
        return cls(int(population_seed), int(devices), tuple(specs))

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def spans(self) -> List[Tuple[int, int]]:
        """All shard device ranges, in shard order."""
        return [spec.span for spec in self.shards]

    def slice_jobs(self, jobs: Sequence[object]) -> List[List[object]]:
        """Partition a per-device job list along the shard ranges."""
        if len(jobs) != self.devices:
            raise ValueError(
                f"plan covers {self.devices} devices but got "
                f"{len(jobs)} jobs")
        return [list(jobs[spec.start:spec.stop])
                for spec in self.shards]


# ----------------------------------------------------------------------
# shard execution: a shard is one pool task calling execute_shard on
# every job of the shard (in a pool worker, or in the dispatcher for
# the degraded quarantine pass)


def execute_shard(kind: str, job: object) -> object:
    """Run one job of a shard of sweep *kind* (the pool task function).

    For :data:`KIND_FAILURE` *job* is one entry of the per-device
    :meth:`~repro.fleet.Fleet.failure_rate_jobs` list; for the attack
    kinds it is the shard's
    :meth:`~repro.fleet.Fleet.attack_chunk_jobs` chunk.
    :func:`shard_data` types the per-job results of a shard.
    """
    if kind == KIND_FAILURE:
        return _failure_rate_job(job)
    if kind == KIND_ATTACK:
        return _attack_chunk_job(job)
    if kind == KIND_ATTACK_RESULTS:
        return _attack_results_chunk_job(job)
    raise ValueError(f"unknown sweep kind {kind!r}; expected one "
                     f"of {KINDS}")


def shard_data(kind: str, results: Sequence[object]
               ) -> Dict[str, object]:
    """The typed result payload of one shard from its job results."""
    if kind == KIND_FAILURE:
        return {"rates": np.array([result[0] for result in results],
                                  dtype=np.float64)}
    (report,) = results
    if kind == KIND_ATTACK:
        return {
            "recovered": np.array([entry[0] for entry in report],
                                  dtype=np.bool_),
            "queries": np.array([entry[1] for entry in report],
                                dtype=np.int64)}
    return {"results": list(report)}


@dataclass(frozen=True)
class ShardResult:
    """One shard's completed contribution to a streamed sweep.

    ``data`` is the kind-typed payload (``rates`` /
    ``recovered``+``queries`` / ``results``), or ``None`` for a
    poisoned shard under an ``allow_partial`` policy.  ``kernel`` is
    the ECC kernel-stats delta measured around the shard's execution
    in whatever process ran it.
    """

    shard: ShardSpec
    kind: str
    data: Optional[Dict[str, object]]
    seconds: float
    kernel: Dict[str, object]
    attempt: int
    worker: Optional[int]
    degraded: bool
    poisoned: bool

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable chunk line (the ``--stream`` NDJSON)."""
        payload: Dict[str, object] = {
            "shard": int(self.shard.index),
            "start": int(self.shard.start),
            "stop": int(self.shard.stop),
            "digest": self.shard.digest,
            "kind": self.kind,
            "attempt": int(self.attempt),
            "worker": self.worker,
            "degraded": bool(self.degraded),
            "poisoned": bool(self.poisoned),
            "seconds": float(self.seconds),
            "kernel": {
                "calls": int(self.kernel["calls"]),
                "rows": int(self.kernel["rows"]),
                "seconds": float(self.kernel["seconds"]),
            },
        }
        if self.data is None:
            return payload
        if self.kind == KIND_FAILURE:
            payload["rates"] = [float(rate)
                                for rate in self.data["rates"]]
        elif self.kind == KIND_ATTACK:
            payload["recovered"] = [bool(hit) for hit
                                    in self.data["recovered"]]
            payload["queries"] = [int(bill) for bill
                                  in self.data["queries"]]
        else:
            payload["results"] = [type(result).__name__
                                  for result in self.data["results"]]
        return payload


# ----------------------------------------------------------------------
# merging shard outputs back into the single-host result shapes


def merge_failure_rates(plan: ShardPlan,
                        datas: Sequence[object]) -> np.ndarray:
    """Concatenate per-shard rate vectors into the fleet-order vector.

    ``datas[i]`` is shard *i*'s result ``data`` dict (or ``None`` for
    a poisoned shard under ``allow_partial``, which contributes the
    supervised pool's zero fill).
    """
    parts = []
    for spec, data in zip(plan.shards, datas):
        if data is None:
            parts.append(np.zeros(spec.devices, dtype=np.float64))
        else:
            parts.append(np.asarray(data["rates"], dtype=np.float64))
    return np.concatenate(parts) if parts else np.zeros(0)


def merge_attack(plan: ShardPlan, datas: Sequence[object]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-shard attack outcomes into fleet-order arrays.

    Returns the ``(recovered, queries)`` pair with the exact dtypes of
    :meth:`repro.fleet.Fleet.attack_success`.
    """
    recovered, queries = [], []
    for spec, data in zip(plan.shards, datas):
        if data is None:
            recovered.append(np.zeros(spec.devices, dtype=np.bool_))
            queries.append(np.zeros(spec.devices, dtype=np.int64))
        else:
            recovered.append(np.asarray(data["recovered"],
                                        dtype=np.bool_))
            queries.append(np.asarray(data["queries"],
                                      dtype=np.int64))
    if not recovered:
        return (np.zeros(0, dtype=np.bool_),
                np.zeros(0, dtype=np.int64))
    return np.concatenate(recovered), np.concatenate(queries)


def merge_attack_results(plan: ShardPlan,
                         datas: Sequence[object]) -> List[object]:
    """Concatenate per-shard raw attack results, fleet order."""
    merged: List[object] = []
    for spec, data in zip(plan.shards, datas):
        if data is None:
            merged.extend([None] * spec.devices)
        else:
            merged.extend(data["results"])
    return merged
