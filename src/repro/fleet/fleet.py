"""Multi-device fleets: manufacture, enroll and sweep IC populations.

The paper's claims are population statements — failure rates, entropy
and attack cost over *manufactured devices*, not over one lucky sample.
A :class:`Fleet` manufactures many :class:`~repro.puf.ro_array.ROArray`
instances from one experiment seed (independent child RNG streams, so
device ``i`` is identical no matter how many siblings exist), enrolls a
construction on each, and runs chunked Monte-Carlo sweeps through the
batched oracle so population curves cost one vectorized pass per device
instead of nested Python loops.

Two knobs bound resources and scale the sweeps:

* ``chunk`` bounds peak memory: a sweep over ``trials`` reconstructions
  materialises at most ``chunk × n`` measurement floats at a time,
  whatever the requested trial count.
* ``workers`` splits the device population across a pool of
  long-lived worker processes (see :mod:`repro.fleet.parallel`).

Sweeps follow a strict seeding discipline — population seed → per-sweep
device substreams, all derived in the parent before any dispatch — so a
sweep's results are **bitwise-identical for every worker count and
chunk size**, and sweeps never consume the devices' own internal noise
streams.  ``docs/fleet.md`` spells out the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro._rng import RNGLike, ensure_rng, spawn
from repro.analysis.entropy import bit_bias, inter_device_distances
from repro.core.batch_oracle import BatchOracle
from repro.fleet.campaign import run_campaign
from repro.fleet.parallel import (
    resolve_workers,
    run_collected,
    run_scattered,
)
from repro.keygen.base import KeyGenerator, OperatingPoint
from repro.puf.parameters import ROArrayParams
from repro.puf.ro_array import ROArray

#: Builds one device model per IC sample.  The factory must construct
#: a fresh ``KeyGenerator`` on every call (a class or
#: ``functools.partial`` does): the resulting enrollment then holds
#: one independent keygen per device.  A factory returning a pre-built
#: shared instance is not supported — deep copy treats the factory
#: closure as atomic, so ``workers=1`` would alias that instance
#: across all devices while ``workers > 1`` would copy it per chunk.
KeyGenFactory = Callable[[], KeyGenerator]

#: Builds one attack driver per device; must be picklable (a
#: module-level callable) when sweeps run with ``workers > 1``.
AttackFactory = Callable[[BatchOracle, KeyGenerator, object], object]


@dataclass(frozen=True)
class FleetEnrollment:
    """Enrollment of one construction across a fleet.

    Key lengths are device-dependent for the selection-based schemes,
    so keys are kept as a list; :meth:`key_matrix` truncates to the
    common prefix when a rectangular view is needed for entropy
    statistics.
    """

    keygens: Tuple[KeyGenerator, ...]
    helpers: Tuple[object, ...]
    keys: Tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.helpers)

    @property
    def key_bits(self) -> np.ndarray:
        """Key length of every device."""
        return np.array([key.size for key in self.keys])

    def key_matrix(self) -> np.ndarray:
        """Keys truncated to the fleet-wide minimum length.

        Returns a ``(devices, min_bits)`` uint8 matrix.
        """
        if not self.keys:
            return np.zeros((0, 0), dtype=np.uint8)
        width = int(min(key.size for key in self.keys))
        return np.stack([key[:width] for key in self.keys]).astype(
            np.uint8)

    def uniqueness(self) -> float:
        """Mean pairwise fractional Hamming distance (ideal: 0.5)."""
        matrix = self.key_matrix()
        if matrix.shape[0] < 2 or matrix.shape[1] == 0:
            raise ValueError("need two devices with non-empty keys")
        return float(np.mean(inter_device_distances(matrix)))

    def bit_aliasing(self) -> np.ndarray:
        """Per-position mean key bit across devices (ideal: 0.5)."""
        matrix = self.key_matrix()
        if matrix.shape[0] == 0:
            raise ValueError("need at least one device")
        return bit_bias(matrix)


# ----------------------------------------------------------------------
# per-device jobs (module level so the process pool can pickle them)


@dataclass
class _EnrollJob:
    """One device's enrollment work order."""

    array: ROArray
    factory: KeyGenFactory
    stream: np.random.Generator


def _enroll_job(job: _EnrollJob) -> Tuple[KeyGenerator, object,
                                          np.ndarray]:
    """Enroll one device; returns ``(keygen, helper, key)``."""
    keygen = job.factory()
    helper, key = keygen.enroll(job.array, rng=job.stream)
    return keygen, helper, key


@dataclass
class _FailureRateJob:
    """One device's share of a failure-rate sweep."""

    array: ROArray
    keygen: KeyGenerator
    helper: object
    op: OperatingPoint
    trials: int
    chunk: int
    stream: np.random.Generator
    transient: np.random.Generator
    #: Built per-device environment trajectory (or ``None``).
    trajectory: Optional[object] = None


def _failure_rate_job(job: _FailureRateJob) -> Tuple[float]:
    """Estimate one device's failure rate over ``job.trials``."""
    job.keygen.reseed_transient_streams(job.transient)
    oracle = BatchOracle(job.array, job.keygen, op=job.op,
                         rng=job.stream,
                         trajectory=job.trajectory)
    failures = 0
    remaining = job.trials
    while remaining > 0:
        block = min(job.chunk, remaining)
        outcomes = oracle.query_block(job.helper, block)
        failures += int(np.count_nonzero(~outcomes))
        remaining -= block
    return (failures / job.trials,)


@dataclass
class _AttackChunkJob:
    """One worker's share of an attack campaign: a device chunk.

    The chunk is the lock-step unit — the devices listed here advance
    through the campaign scheduler together inside one worker; with
    ``lockstep=False`` the same chunk falls back to the per-device
    scalar loop (one ``run()`` at a time), which is the executable
    equivalence reference.
    """

    arrays: List[ROArray]
    keygens: List[KeyGenerator]
    helpers: List[object]
    keys: List[np.ndarray]
    op: OperatingPoint
    attack_factory: AttackFactory
    streams: List[Tuple[np.random.Generator, np.random.Generator]]
    lockstep: bool
    #: Built per-device environment trajectories (or ``None``).
    trajectories: Optional[List[object]] = None


def _attack_chunk_job(job: _AttackChunkJob) -> List[object]:
    """Run one chunk's attacks; the raw result object per device.

    The chunk is also the supervised pool's retry unit: because
    the job only consumes streams handed to it (derived parent-side),
    re-executing a chunk from scratch reproduces it bitwise.
    """
    oracles: List[BatchOracle] = []
    attacks: List[object] = []
    trajectories = (job.trajectories if job.trajectories is not None
                    else [None] * len(job.arrays))
    for array, keygen, helper, (stream, transient), trajectory in zip(
            job.arrays, job.keygens, job.helpers, job.streams,
            trajectories):
        keygen.reseed_transient_streams(transient)
        oracle = BatchOracle(array, keygen, op=job.op, rng=stream,
                             trajectory=trajectory)
        oracles.append(oracle)
        attacks.append(job.attack_factory(oracle, keygen, helper))
    if job.lockstep:
        return run_campaign(oracles, attacks)
    return [attack.run() for attack in attacks]


def recovery_summary(results: Sequence[object],
                     keys: Sequence[np.ndarray],
                     helpers: Sequence[object]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """``(recovered, queries)`` of per-device attack results.

    Recovery is the result's own ``recovered(key, helper)`` verdict
    against the enrolled key and helper; ``queries`` is its oracle
    bill.  A ``None`` result (a poisoned chunk of an
    ``allow_partial`` sweep) counts as not recovered, zero queries.
    Returns a boolean mask and an ``int64`` bill vector.
    """
    recovered = np.array(
        [result is not None and result.recovered(key, helper)
         for result, key, helper in zip(results, keys, helpers)],
        dtype=np.bool_)
    queries = np.array([0 if result is None else result.queries
                        for result in results], dtype=np.int64)
    return recovered, queries


class Fleet:
    """A population of manufactured IC samples.

    Parameters
    ----------
    params:
        Physical parameter set shared by the population.
    size:
        Number of manufactured devices.
    seed:
        Experiment seed.  Device streams are spawned children, so
        results are reproducible and device ``i`` does not depend on
        ``size``; sweep noise substreams are spawned from the same
        root, so successive sweeps are reproducible given the seed and
        the call order.
    """

    def __init__(self, params: ROArrayParams, size: int,
                 seed: RNGLike = None):
        if size < 1:
            raise ValueError("a fleet needs at least one device")
        self._params = params
        self._root = ensure_rng(seed)
        self._arrays = [ROArray(params, rng=child)
                        for child in self._root.spawn(size)]

    @classmethod
    def from_arrays(cls, arrays: Sequence[ROArray],
                    seed: RNGLike = None) -> "Fleet":
        """Wrap already-manufactured devices into a fleet.

        *seed* feeds the sweep-substream root; omit it for fresh
        unpredictable sweep noise (results remain worker-count
        invariant within each sweep, but are not reproducible across
        runs).
        """
        if not arrays:
            raise ValueError("a fleet needs at least one device")
        fleet = cls.__new__(cls)
        fleet._params = arrays[0].params
        fleet._root = ensure_rng(seed)
        fleet._arrays = list(arrays)
        return fleet

    @property
    def params(self) -> ROArrayParams:
        """Physical parameter set shared by the population."""
        return self._params

    @property
    def devices(self) -> List[ROArray]:
        """The manufactured device models, in fleet order."""
        return list(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self) -> Iterator[ROArray]:
        return iter(self._arrays)

    def __getitem__(self, index: int) -> ROArray:
        return self._arrays[index]

    def _sweep_streams(self) -> List[Tuple[np.random.Generator,
                                           np.random.Generator]]:
        """Fresh per-device ``(noise, transient)`` sweep substreams.

        Two substreams per device: one feeds the oracle's measurement
        noise, the other re-seeds the keygen's transient per-query
        randomness (e.g. the temperature-aware sensor stream), so
        successive sweeps draw independent sensor noise too.  All
        substreams are spawned from the population root in the parent
        process, *before* any dispatch: stream identity is therefore a
        function of (population seed, sweep call order, device index)
        only — never of worker count, chunking or scheduling.
        """
        streams = self._root.spawn(2 * len(self._arrays))
        return list(zip(streams[0::2], streams[1::2]))

    def _build_trajectories(self, spec) -> Optional[List[object]]:
        """Per-device built trajectories, in fleet order.

        *spec* is a
        :class:`~repro.scenario.trajectory.TrajectorySpec` (or
        ``None``).  Building happens in the parent before any
        dispatch, and each device's streams derive from ``(spec
        seed, device index)`` alone, so trajectory-driven sweeps
        keep the fleet's worker-count/chunk-size invariance.
        """
        if spec is None:
            return None
        return [spec.build(self._params, index)
                for index in range(len(self._arrays))]

    # ------------------------------------------------------------------
    # enrollment

    def enroll(self, keygen_factory: KeyGenFactory,
               seed: RNGLike = None,
               workers: Optional[int] = 1,
               supervision=None) -> FleetEnrollment:
        """Enroll one construction on every device.

        Enrollment randomness is spawned per device from *seed*, so a
        fleet enrollment is as reproducible as a single-device one and
        bitwise-independent of *workers*.  With ``workers > 1`` the
        factory must be picklable (module-level, not a lambda).
        *supervision* (a
        :class:`repro.fleet.resilience.Supervisor`) runs the
        enrollment under the supervised pool.
        """
        jobs = [_EnrollJob(array, keygen_factory, child)
                for array, child in zip(self._arrays,
                                        spawn(seed,
                                              len(self._arrays)))]
        results = run_collected(_enroll_job, jobs, workers=workers,
                                shared=self._arrays,
                                supervision=supervision)
        return FleetEnrollment(
            tuple(keygen for keygen, _, _ in results),
            tuple(helper for _, helper, _ in results),
            tuple(key for _, _, key in results))

    # ------------------------------------------------------------------
    # Monte-Carlo sweeps

    def failure_rates(self, enrollment: FleetEnrollment, trials: int,
                      op: Optional[OperatingPoint] = None,
                      helpers: Optional[Sequence[object]] = None,
                      chunk: int = 1024,
                      workers: Optional[int] = 1,
                      trajectory=None,
                      supervision=None) -> np.ndarray:
        """Per-device key-regeneration failure rate over *trials*.

        Parameters
        ----------
        helpers:
            Overrides the enrolled helper data (e.g. a fleet-wide
            manipulation under study).
        chunk:
            Trials are executed in blocks of at most *chunk* queries
            to bound memory.
        workers:
            Process-pool width; ``None``/``0`` uses every CPU.  The
            returned rates are bitwise-identical for every value.
        supervision:
            Optional :class:`repro.fleet.resilience.Supervisor`: the
            sweep runs under the supervised pool (watchdog,
            seeded retry, quarantine) with unchanged results.
        trajectory:
            Optional
            :class:`~repro.scenario.trajectory.TrajectorySpec`.  Each
            device runs its trials under its own built trajectory
            (ambient resolved per query index); the ambient overrides
            *op* for trajectory-driven queries.  Results stay
            bitwise-identical for every worker count and chunk size.

        Returns
        -------
        numpy.ndarray
            ``(len(fleet),)`` float64 failure-rate vector.
        """
        jobs = self.failure_rate_jobs(enrollment, trials, op=op,
                                      helpers=helpers, chunk=chunk,
                                      trajectory=trajectory)
        (rates,) = run_scattered(_failure_rate_job, jobs,
                                 (np.float64,), workers=workers,
                                 shared=self._arrays,
                                 supervision=supervision)
        return rates

    def failure_rate_jobs(self, enrollment: FleetEnrollment,
                          trials: int,
                          op: Optional[OperatingPoint] = None,
                          helpers: Optional[Sequence[object]] = None,
                          chunk: int = 1024,
                          trajectory=None) -> List[_FailureRateJob]:
        """Build the per-device job list of a failure-rate sweep.

        This is the shard-aware entry point behind
        :meth:`failure_rates`: it derives the sweep substreams (one
        ``(noise, transient)`` pair per device, advancing the
        population root exactly as the direct sweep would) and returns
        one self-contained, picklable job per device, in fleet order.
        Executing any partition of the list — locally, in a pool, or
        on distributed shard workers
        (:mod:`repro.service`) — and concatenating the per-device
        outputs in fleet order reproduces :meth:`failure_rates`
        bitwise.
        """
        if trials < 1:
            raise ValueError("need at least one trial")
        if chunk < 1:
            raise ValueError("chunk must be positive")
        if helpers is None:
            helpers = enrollment.helpers
        if len(helpers) != len(self._arrays):
            raise ValueError("one helper per device required")
        resolved = op if op is not None else OperatingPoint()
        trajectories = self._build_trajectories(trajectory)
        return [_FailureRateJob(array, keygen, helper, resolved,
                                trials, chunk, stream, transient,
                                None if trajectories is None
                                else trajectories[index])
                for index, (array, keygen, helper,
                            (stream, transient)) in enumerate(zip(
                    self._arrays, enrollment.keygens, helpers,
                    self._sweep_streams()))]

    def reliability_curve(self, enrollment: FleetEnrollment,
                          temperatures: Sequence[float], trials: int,
                          chunk: int = 1024,
                          workers: Optional[int] = 1,
                          supervision=None) -> np.ndarray:
        """Success rates over an environmental sweep.

        Returns a ``(len(temperatures), len(fleet))`` float64 matrix
        of key regeneration success rates, each entry estimated from
        *trials* batched reconstructions at that operating point.
        Each temperature row derives its own device substreams, so the
        matrix is bitwise-independent of *workers* and *chunk*; all
        ``rows × devices`` jobs run through one dispatch (one pool,
        one payload serialisation) instead of one pool per row.
        """
        devices = len(self._arrays)
        temps = [float(t) for t in temperatures]
        if not temps:
            return np.empty((0, devices))
        jobs = [job for temperature in temps
                for job in self.failure_rate_jobs(
                    enrollment, trials,
                    op=OperatingPoint(temperature=temperature),
                    chunk=chunk)]
        (rates,) = run_scattered(_failure_rate_job, jobs,
                                 (np.float64,), workers=workers,
                                 shared=self._arrays,
                                 supervision=supervision)
        return 1.0 - rates.reshape(len(temps), devices)

    def attack_success(self, enrollment: FleetEnrollment,
                       attack_factory: AttackFactory,
                       op: OperatingPoint = OperatingPoint(),
                       workers: Optional[int] = 1,
                       lockstep: bool = True,
                       trajectory=None,
                       supervision=None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Run a full helper-data attack against every device.

        The summary view of :meth:`attack_results` (same arguments,
        same campaign), condensed by :func:`recovery_summary`.
        Returns ``(recovered, queries)``: a boolean recovery mask,
        decided by each result's own ``recovered(key, helper)``, and
        the per-device ``int64`` oracle query bill.
        """
        results = self.attack_results(
            enrollment, attack_factory, op=op, lockstep=lockstep,
            trajectory=trajectory, workers=workers,
            supervision=supervision)
        return recovery_summary(results, enrollment.keys,
                                enrollment.helpers)

    def attack_chunk_jobs(self, enrollment: FleetEnrollment,
                          attack_factory: AttackFactory,
                          spans: Optional[Sequence[Tuple[int, int]]]
                          = None,
                          op: OperatingPoint = OperatingPoint(),
                          lockstep: bool = True,
                          trajectory=None,
                          workers: Optional[int] = 1
                          ) -> List[_AttackChunkJob]:
        """Build the chunked job list of an attack campaign.

        This is the shard-aware entry point behind
        :meth:`attack_results`: it derives
        the sweep substreams (advancing the population root exactly as
        a direct campaign would) and returns one self-contained,
        picklable :class:`_AttackChunkJob` per *span* — a ``(start, stop)``
        device range in fleet order.  *spans* default to the even
        split :meth:`attack_results` would use for *workers*; pass
        explicit contiguous ranges (e.g. a
        :class:`repro.service.ShardPlan`'s) to re-chunk the campaign.
        Per-device results are bitwise-invariant to the chunking, so
        any span partition merges to the same outcome.
        """
        if not isinstance(lockstep, bool):
            raise TypeError(f"lockstep must be True or False, not "
                            f"{lockstep!r}")
        count = len(self._arrays)
        streams = self._sweep_streams()
        trajectories = self._build_trajectories(trajectory)
        if spans is None:
            resolved = resolve_workers(workers, count)
            chunks = max(1, min(count,
                                resolved if lockstep else 4 * resolved))
            width = -(-count // chunks)
            spans = [(begin, min(begin + width, count))
                     for begin in range(0, count, width)]
        jobs = []
        for start, stop in spans:
            if not 0 <= start < stop <= count:
                raise ValueError(
                    f"span ({start}, {stop}) outside the fleet's "
                    f"device range")
            indices = range(start, stop)
            jobs.append(_AttackChunkJob(
                [self._arrays[i] for i in indices],
                [enrollment.keygens[i] for i in indices],
                [enrollment.helpers[i] for i in indices],
                [enrollment.keys[i] for i in indices],
                op, attack_factory,
                [streams[i] for i in indices], lockstep,
                None if trajectories is None
                else [trajectories[i] for i in indices]))
        return jobs

    def attack_results(self, enrollment: FleetEnrollment,
                       attack_factory: AttackFactory,
                       op: OperatingPoint = OperatingPoint(),
                       lockstep: bool = True,
                       trajectory=None,
                       workers: Optional[int] = 1,
                       supervision=None) -> List[object]:
        """Run a full attack per device; return the raw result objects.

        The one attack sweep: :meth:`attack_success` is its summary
        view.  Every attack's complete result — relations, comparer
        decisions, recovered keys — comes back in fleet order (the
        results warehouse fingerprints per-device decisions from
        these).  It follows the sweep-stream discipline (one
        ``(noise, transient)`` substream pair per device, derived
        before any execution), so a device's result is
        bitwise-identical whatever *workers* is, and whether or not a
        supervised run had to retry chunks; a poisoned chunk of an
        ``allow_partial`` sweep yields ``None`` per device.

        *attack_factory(oracle, keygen, helper)* builds an attack
        driver exposing the stepwise ``steps()`` protocol and
        ``run()``; its result must offer ``queries`` and
        ``recovered(key, helper)`` (read by :meth:`attack_success`).
        The default ``workers=1`` without supervision runs one
        whole-fleet chunk in this process (results built here,
        nothing copied); otherwise chunks dispatch through the worker
        pool, supervised or not, and result objects must be
        picklable.

        Parameters
        ----------
        lockstep:
            ``True`` (default) runs the round-based lock-step campaign
            engine (:mod:`repro.fleet.campaign`): each worker advances
            its whole device chunk together, one oracle round per
            distinguisher block with the ECC kernel work of every
            device sharing a code fused into one call
            (:mod:`repro.ecc.kernel`).  ``False`` keeps the per-device
            ``run()`` loop, the equivalence reference (and the only
            way to run a driver without ``steps()``).  Either way the
            per-device results are **bitwise-identical** —
            lock-stepping only reorders work across devices, never
            within one device's oracle stream.
            Chunks split the fleet evenly over the resolved worker
            count; :meth:`attack_chunk_jobs` takes explicit spans.
        trajectory:
            Optional
            :class:`~repro.scenario.trajectory.TrajectorySpec`: the
            attacked devices live under per-device environment
            trajectories (built parent-side, in fleet order).
            Attack queries without an explicit operating point see
            the trajectory ambient; explicitly-set points (attacker
            chamber control, e.g. the temp-aware attack) override
            it, aging drift excepted.
        supervision:
            Optional :class:`repro.fleet.resilience.Supervisor`: the
            campaign runs under the supervised pool with
            chunk-level retry of each :class:`_AttackChunkJob`; the
            per-device results contract is unchanged.
        """
        count = len(self._arrays)
        if resolve_workers(workers, count) == 1 and supervision is None:
            (job,) = self.attack_chunk_jobs(
                enrollment, attack_factory, spans=[(0, count)], op=op,
                lockstep=lockstep, trajectory=trajectory)
            return _attack_chunk_job(job)
        jobs = self.attack_chunk_jobs(enrollment, attack_factory,
                                      op=op, lockstep=lockstep,
                                      trajectory=trajectory,
                                      workers=workers)
        reports = run_collected(_attack_chunk_job, jobs,
                                workers=workers, shared=self._arrays,
                                supervision=supervision)
        return [result for job, report in zip(jobs, reports)
                for result in (report if report is not None
                               else [None] * len(job.arrays))]


@dataclass(frozen=True)
class PopulationSpec:
    """A seeded device population, as pure data.

    ``(params, devices, seed)`` fully determines the manufactured fleet
    *and* its enrollment streams: the seed is split once into a
    manufacturing child and an enrollment child, so the two can never
    collide.  This is the one place a seeded population is built and
    enrolled — ``repro fleet``, the warehouse cells, the service
    sweeps and the enrollment registry all go through it.
    """

    params: ROArrayParams
    devices: int
    seed: int

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("need at least one device")

    def build(self) -> Tuple[Fleet, np.random.Generator]:
        """Manufacture the fleet; returns ``(fleet, enroll_rng)``."""
        manufacture_rng, enroll_rng = spawn(self.seed, 2)
        return (Fleet(self.params, size=self.devices,
                      seed=manufacture_rng), enroll_rng)

    def enroll(self, keygen_factory: KeyGenFactory, registry=None,
               workers: Optional[int] = 1
               ) -> Tuple[Fleet, FleetEnrollment]:
        """Manufacture and enroll the population.

        Returns ``(fleet, enrollment)``.  With a *registry* (a
        :class:`repro.service.registry.EnrollmentRegistry`) no
        enrollment measurement runs: the registry must hold this very
        population, and helpers and keys load digest-verified from it.
        The enrollment stream is split off the seed independently of
        the fleet's sweep streams, so both paths leave every later
        sweep bitwise-identical.
        """
        fleet, enroll_rng = self.build()
        if registry is None:
            return fleet, fleet.enroll(keygen_factory, seed=enroll_rng,
                                       workers=workers)
        registry.verify_population(self)
        return fleet, registry.load_enrollment(keygen_factory)
