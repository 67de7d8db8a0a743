"""The benchmark's workloads: inputs, set-up and one timed iteration.

Every workload is a closed loop driven from one process: the next
campaign or sweep starts only when the previous one has returned.  The
seed feeds population generation only (``PopulationSpec``); the
program receives the manufactured devices and their enrollment.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.fleet import (
    Fleet,
    FleetEnrollment,
    GroupAttackFactory,
    SequentialAttackFactory,
)
from repro.keygen import (
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    SequentialPairingKeyGen,
)
from repro.puf import ROArrayParams
from repro.service.registry import EnrollmentRegistry
from repro.service.stream import PopulationSpec

#: Sweep geometry of the reconstruction workload (paper §VII-C).
SHARDS = 4
WORKERS = 2
TRANSPORT = "pipe"
CHUNK = 1024


@dataclass(frozen=True)
class Workload:
    """One named workload: population geometry plus what runs on it."""

    name: str
    kind: str  # "campaign" or "sweep"
    rows: int
    cols: int
    keygen: Callable[[], object]
    devices: Dict[str, int]
    attack: Optional[Callable] = None
    #: Devices per lock-step campaign (campaigns only).
    block: Optional[Dict[str, int]] = None
    trials: Optional[Dict[str, int]] = None

    def population(self, seed: int, size: str) -> PopulationSpec:
        """The seeded device population for *size* (full or tiny)."""
        return PopulationSpec(ROArrayParams(rows=self.rows,
                                            cols=self.cols),
                              self.devices[size], int(seed))


WORKLOADS: Dict[str, Workload] = {
    # §VI-C group-based attack, warehouse cell group-based/group/baseline.
    "group-campaign": Workload(
        "group-campaign", "campaign", 4, 10,
        functools.partial(GroupBasedKeyGen, group_threshold=120e3),
        {"full": 16, "tiny": 2}, attack=GroupAttackFactory(4, 10),
        block={"full": 4, "tiny": 2}),
    # §VI-A paired comparison, warehouse cell sequential/sequential/baseline.
    "pairing-campaign": Workload(
        "pairing-campaign", "campaign", 8, 16,
        functools.partial(SequentialPairingKeyGen, threshold=300e3),
        {"full": 64, "tiny": 4},
        attack=SequentialAttackFactory("paired"),
        block={"full": 32, "tiny": 4}),
    # §VII-C failure-rate sweep of the fuzzy-extractor reference design.
    "reconstruction-sweep": Workload(
        "reconstruction-sweep", "sweep", 8, 16,
        functools.partial(FuzzyExtractorKeyGen, 8, 16, out_bits=48),
        {"full": 32, "tiny": 4}, trials={"full": 2000, "tiny": 256}),
}


@dataclass
class Prepared:
    """A workload's population, enrollment and (for sweeps) registry."""

    workload: Workload
    population: PopulationSpec
    enrollment: object
    registry: Optional[Path]
    timings: Dict[str, float]
    #: Reconstruction trials per device (sweeps only).
    trials: Optional[int] = None
    #: Devices per lock-step campaign (campaigns only).
    block_size: Optional[int] = None

    @property
    def blocks(self) -> int:
        """Number of device blocks the population is attacked in."""
        return -(-self.population.devices // self.block_size)

    def block(self, index: int) -> Tuple[Fleet, FleetEnrollment]:
        """A fresh fleet and enrollment of block *index*'s devices.

        The block's sweep streams derive from ``(seed, index)``, so
        every call returns inputs that a campaign answers identically.
        """
        devices = self.population.build()[0].devices
        lo = index * self.block_size
        hi = min(lo + self.block_size, len(devices))
        rng = np.random.default_rng([self.population.seed, index])
        fleet = Fleet.from_arrays(devices[lo:hi], seed=rng)
        whole = self.enrollment
        return fleet, FleetEnrollment(whole.keygens[lo:hi],
                                      whole.helpers[lo:hi],
                                      whole.keys[lo:hi])


def prepare(workload: Workload, seed: int, size: str,
            registry_dir: Optional[Path] = None) -> Prepared:
    """Manufacture and enroll the population, timing each step.

    For the sweep the enrollment is also persisted to an
    :class:`EnrollmentRegistry` at *registry_dir*, which the sweeps
    then load instead of enrolling.
    """
    population = workload.population(seed, size)
    start = time.perf_counter()
    fleet, enroll_rng = population.build()
    built = time.perf_counter()
    enrollment = fleet.enroll(workload.keygen, seed=enroll_rng)
    enrolled = time.perf_counter()
    timings = {"manufacture_s": built - start,
               "enroll_s": enrolled - built}
    registry = None
    if workload.kind == "sweep":
        if registry_dir is None:
            raise ValueError("a sweep workload needs a registry directory")
        store = EnrollmentRegistry.create(
            registry_dir, population.seed, workload.name,
            population.params, population.devices)
        for helper, key in zip(enrollment.helpers, enrollment.keys):
            store.append(helper, key)
        registry = Path(registry_dir)
        timings["registry_s"] = time.perf_counter() - enrolled
    trials = None if workload.trials is None else workload.trials[size]
    block = None if workload.block is None else workload.block[size]
    return Prepared(workload, population, enrollment, registry, timings,
                    trials, block)
