"""Seeded per-device environment & lifecycle trajectories.

The paper's environmental story (§III-A, Fig. 3) is about *change*:
frequencies fall with temperature, rise with supply voltage, and the
per-oscillator slope spread makes pair orderings flip inside the
operating range.  The scalar ``(temperature, voltage)`` operating
point models a chamber pinned at one corner; a *trajectory* models
the ambient a deployed device actually sees — ramps, daily cycles,
supply noise — plus the lifecycle axis: an aging drift that shifts
per-oscillator offsets across the enrollment→reproduction gap.

A :class:`TrajectorySpec` is a frozen, picklable description: a base
operating point plus composable terms.  Building it for a concrete
device yields an :class:`EnvironmentTrajectory` whose
:meth:`~EnvironmentTrajectory.sample` resolves the ambient
``(T, V)`` of any set of *absolute query indices* in one vectorized
pass.  Indexing by absolute query position (not draw order) is what
lets the batched oracle speculate, slice and unwind rows freely —
the ambient a row was measured under travels with the row.

Seeding follows the ``sensor_seed`` discipline of
:mod:`repro.keygen.temp_aware` and the fleet sweep-stream contract
(``docs/fleet.md``): every stochastic term of every device draws
from a dedicated substream derived from ``(domain, spec seed,
device index)`` alone, so trajectories are bitwise-reproducible and
invariant under worker count, chunking and scheduling.  Stochastic
per-query terms materialise their draws lazily but strictly
sequentially (:class:`_StreamCache`), so the value at index ``i``
never depends on which indices were asked for first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

#: Seed-sequence domain separating trajectory streams from every other
#: stream family in the repo (device manufacture, sweep substreams,
#: sensor seeds).
STREAM_DOMAIN = 0x7261_6A65


@dataclass(frozen=True)
class EnvironmentSample:
    """Resolved ambient conditions of a batch of queries.

    Both fields are ``(B,)`` float vectors aligned with the query
    batch: entry ``i`` is the absolute temperature (°C) / supply
    voltage (V) the ``i``-th row of the batch was measured under.
    """

    temperatures: np.ndarray
    voltages: np.ndarray


class _StreamCache:
    """Lazily materialised per-index draws from one seeded stream.

    Draws are extended strictly sequentially, so ``take(i)`` returns
    the same value no matter in which order (or how often) indices
    are requested — the property that keeps speculating/unwinding
    oracle consumers bitwise-deterministic.
    """

    def __init__(self, rng: np.random.Generator, sigma: float):
        self._rng = rng
        self._sigma = float(sigma)
        self._values = np.empty(0)

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Values at *indices*, drawing forward as far as needed."""
        need = int(indices.max()) + 1 if indices.size else 0
        have = self._values.size
        if need > have:
            fresh = self._rng.normal(scale=self._sigma,
                                     size=need - have)
            self._values = np.concatenate([self._values, fresh])
        return self._values[indices]


# ----------------------------------------------------------------------
# trajectory terms


@dataclass(frozen=True)
class TemperatureRamp:
    """Linear ambient ramp over the first *queries* reconstructions.

    The ambient moves from ``start`` to ``end`` (both °C deltas
    relative to the trajectory's base temperature) across *queries*
    attempts and holds at ``end`` afterwards — the slow thermal
    transient of a device warming into (or out of) its enclosure.
    """

    start: float
    end: float
    queries: int
    stochastic = False

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError("ramp needs at least one query")

    def deltas(self, indices: np.ndarray, cache: None
               ) -> Tuple[object, object]:
        """Per-index ``(dT, dV)`` contribution of this term."""
        span = max(self.queries - 1, 1)
        frac = np.minimum(indices, self.queries - 1) / span
        return self.start + (self.end - self.start) * frac, 0.0


@dataclass(frozen=True)
class TemperatureCycle:
    """Sinusoidal ambient cycling (diurnal/HVAC temperature swing)."""

    amplitude: float
    period: float
    phase: float = 0.0
    stochastic = False

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("cycle period must be positive")

    def deltas(self, indices: np.ndarray, cache: None
               ) -> Tuple[object, object]:
        """Per-index ``(dT, dV)`` contribution of this term."""
        angle = 2.0 * math.pi * indices / self.period + self.phase
        return self.amplitude * np.sin(angle), 0.0


@dataclass(frozen=True)
class VoltageNoise:
    """Per-query Gaussian supply-voltage jitter (V).

    Each query index carries an independent draw from the device's
    dedicated trajectory substream; the draw at index ``i`` is a
    function of the index alone (see :class:`_StreamCache`).
    """

    sigma: float
    stochastic = True

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("voltage noise sigma must be >= 0")

    def bind(self, rng: np.random.Generator) -> _StreamCache:
        """Per-device state: the term's seeded draw cache."""
        return _StreamCache(rng, self.sigma)

    def deltas(self, indices: np.ndarray, cache: _StreamCache
               ) -> Tuple[object, object]:
        """Per-index ``(dT, dV)`` contribution of this term."""
        return 0.0, cache.take(indices)


@dataclass(frozen=True)
class AgingDrift:
    """Static per-oscillator offset drift across a deployment gap.

    Models NBTI/HCI-style silicon aging between enrollment and
    reproduction: after *years* in the field every oscillator's
    static frequency has shifted by an independent Gaussian offset
    whose standard deviation grows with the square root of the gap
    (``drift_sigma`` Hz per √year).  Unlike the per-query terms this
    is *device state*, not ambient state — the shift applies to every
    measurement, including attacker-controlled operating points.
    """

    years: float
    drift_sigma: float = 40e3
    stochastic = True

    def __post_init__(self) -> None:
        if self.years < 0:
            raise ValueError("aging gap must be >= 0 years")
        if self.drift_sigma < 0:
            raise ValueError("drift_sigma must be >= 0")

    def shift(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The device's aged per-oscillator offset vector (Hz)."""
        scale = self.drift_sigma * math.sqrt(self.years)
        return rng.normal(scale=scale, size=int(n))


class EnvironmentTrajectory:
    """One device's built trajectory: query index → ambient + aging.

    Built by :meth:`TrajectorySpec.build`; holds the device's bound
    term states (seeded stream caches) and answers two questions:

    * :meth:`sample` — the absolute ambient ``(T, V)`` of a batch of
      query indices, resolved vectorized;
    * :meth:`oscillator_shift` — the static aged offset of every
      oscillator, or ``None`` when the spec has no lifecycle term.

    Instances are stateful (lazy stream caches) but picklable, and
    follow the fleet copy-on-dispatch rule: a pickled copy replays
    the same draws because extension is strictly sequential from the
    seeded stream.
    """

    def __init__(self, spec: "TrajectorySpec", base_temperature: float,
                 base_voltage: float, per_query: list,
                 aging: list):
        self._spec = spec
        self._base_temperature = float(base_temperature)
        self._base_voltage = float(base_voltage)
        self._per_query = per_query
        self._aging = aging
        self._shift: Optional[np.ndarray] = None
        self._shift_n: Optional[int] = None

    @property
    def spec(self) -> "TrajectorySpec":
        """The frozen spec this trajectory was built from."""
        return self._spec

    @property
    def base_temperature(self) -> float:
        """Base ambient temperature (°C) before term contributions."""
        return self._base_temperature

    @property
    def base_voltage(self) -> float:
        """Base supply voltage (V) before term contributions."""
        return self._base_voltage

    @property
    def has_aging(self) -> bool:
        """Whether the spec carries a lifecycle (aging) term."""
        return bool(self._aging)

    def sample(self, indices: np.ndarray) -> EnvironmentSample:
        """Ambient ``(T, V)`` of the given absolute query indices.

        *indices* is any integer vector; repeated and out-of-order
        indices are fine and resolve to identical values.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and int(indices.min()) < 0:
            raise ValueError("query indices must be non-negative")
        temps = np.full(indices.shape, self._base_temperature,
                        dtype=float)
        volts = np.full(indices.shape, self._base_voltage,
                        dtype=float)
        for term, state in self._per_query:
            d_temp, d_volt = term.deltas(indices, state)
            temps = temps + d_temp
            volts = volts + d_volt
        return EnvironmentSample(temps, volts)

    def oscillator_shift(self, n: int) -> Optional[np.ndarray]:
        """Aged static offset (Hz) of each of *n* oscillators.

        Drawn once per device from the aging term's substream and
        cached; ``None`` when the spec has no aging term, so callers
        can skip the add entirely (keeping the no-aging path bitwise
        identical to the scalar one).
        """
        if not self._aging:
            return None
        if self._shift is None:
            total = np.zeros(int(n))
            for term, rng in self._aging:
                total = total + term.shift(n, rng)
            self._shift = total
            self._shift_n = int(n)
        elif self._shift_n != int(n):
            raise ValueError(
                f"trajectory already aged for n={self._shift_n}, "
                f"asked for n={n}")
        return self._shift


@dataclass(frozen=True)
class TrajectorySpec:
    """Frozen, picklable description of an environment trajectory.

    Parameters
    ----------
    temperature, voltage:
        Base operating point; ``None`` resolves to the device
        parameters' nominal values at build time, so a bare
        ``TrajectorySpec()`` is the constant-nominal trajectory.
    terms:
        Composable term tuple (ramps, cycles, noise, aging); per-query
        deltas add on top of the base point in term order.
    seed:
        Root of the spec's stream family.  Device *i*'s substreams
        derive from ``(STREAM_DOMAIN, seed, i)`` only — independent
        of fleet size, worker count and call order.
    """

    temperature: Optional[float] = None
    voltage: Optional[float] = None
    terms: Tuple[object, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def constant(cls, temperature: Optional[float] = None,
                 voltage: Optional[float] = None,
                 seed: int = 0) -> "TrajectorySpec":
        """A term-free trajectory pinned at one operating point."""
        return cls(temperature=temperature, voltage=voltage,
                   terms=(), seed=seed)

    def build(self, params, device_index: int) -> EnvironmentTrajectory:
        """Bind the spec to one device of a population.

        *params* supplies the nominal operating point (any object
        with ``temp_nominal`` / ``v_nominal``, i.e.
        :class:`~repro.puf.parameters.ROArrayParams`).  Stochastic
        terms receive substreams spawned — in term order — from the
        device's own root, so a device's trajectory is identical no
        matter how many siblings are built or in which order.
        """
        root = np.random.default_rng(np.random.SeedSequence(
            [STREAM_DOMAIN, int(self.seed), int(device_index)]))
        stochastic = [term for term in self.terms if term.stochastic]
        streams = list(root.spawn(len(stochastic))) if stochastic \
            else []
        per_query = []
        aging = []
        for term in self.terms:
            rng = streams.pop(0) if term.stochastic else None
            if isinstance(term, AgingDrift):
                aging.append((term, rng))
            else:
                state = term.bind(rng) if term.stochastic else None
                per_query.append((term, state))
        base_temp = (self.temperature if self.temperature is not None
                     else params.temp_nominal)
        base_volt = (self.voltage if self.voltage is not None
                     else params.v_nominal)
        return EnvironmentTrajectory(self, base_temp, base_volt,
                                     per_query, aging)

    def describe(self) -> str:
        """One-line human summary (CLI and conformance reports)."""
        parts = []
        if self.temperature is not None:
            parts.append(f"T={self.temperature:g}C")
        if self.voltage is not None:
            parts.append(f"V={self.voltage:g}V")
        for term in self.terms:
            parts.append(type(term).__name__)
        return "+".join(parts) if parts else "constant-nominal"


#: The named trajectory families of the scenario corpus: each builds
#: its terms for a cell whose ramp spans *queries* reconstructions.
FAMILIES = {
    "constant": lambda queries: (),
    "ramp": lambda queries: (
        TemperatureRamp(0.0, 40.0, queries=max(queries, 2)),),
    "cycle": lambda queries: (
        TemperatureCycle(amplitude=15.0, period=48.0),),
    "vnoise": lambda queries: (VoltageNoise(sigma=0.04),),
    "aging": lambda queries: (AgingDrift(years=5.0, drift_sigma=40e3),),
}
