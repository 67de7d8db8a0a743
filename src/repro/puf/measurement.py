"""Counter-based frequency measurement and enrollment averaging.

The multiplexer/counter/comparator periphery of paper Fig. 1 measures an
oscillator by counting rising edges during a fixed gate window, so the
device never sees real-valued frequencies — only quantised counts.  The
paper notes (§III-B) that the resulting discrete ``Δf = 0`` ties are a
bias source; :func:`compare_counts` makes that tie-breaking policy
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.puf.ro_array import ROArray


@dataclass(frozen=True)
class CounterParams:
    """Gate window of the edge counter.

    A window of 100 µs at 200 MHz yields counts near 20 000, i.e. a
    quantisation step of 10 kHz — comparable to measurement noise, as on
    real FPGA implementations.
    """

    window: float = 100e-6

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("counter window must be positive")


class FrequencyCounter:
    """Quantises frequencies into edge counts and back."""

    def __init__(self, params: CounterParams = CounterParams()):
        self._params = params

    @property
    def params(self) -> CounterParams:
        """The counter's gate-window parameters."""
        return self._params

    def counts(self, frequencies: np.ndarray) -> np.ndarray:
        """Edge counts for the given instantaneous frequencies (Hz)."""
        freqs = np.asarray(frequencies, dtype=float)
        if np.any(freqs < 0):
            raise ValueError("frequencies must be non-negative")
        return np.floor(freqs * self._params.window).astype(np.int64)

    def estimate(self, counts: np.ndarray) -> np.ndarray:
        """Frequency estimate (Hz) from edge counts."""
        return np.asarray(counts, dtype=float) / self._params.window

    def measure(self, array: ROArray,
                temperature: Optional[float] = None,
                voltage: Optional[float] = None,
                rng: RNGLike = None) -> np.ndarray:
        """One quantised, noisy measurement of every oscillator (counts)."""
        return self.counts(array.measure_frequencies(
            temperature, voltage, rng=rng))

    def measure_batch(self, array: ROArray, samples: int,
                      temperature: Optional[float] = None,
                      voltage: Optional[float] = None,
                      rng: RNGLike = None) -> np.ndarray:
        """*samples* quantised measurements, ``(samples, n)`` counts."""
        return self.counts(array.measure_frequencies_batch(
            samples, temperature, voltage, rng=rng))


def compare_counts(count_a: int, count_b: int,
                   tie_value: int = 1) -> int:
    """Comparator response bit for a measured pair (paper Fig. 1).

    Returns ``1`` when ``count_a > count_b``, ``0`` when smaller, and
    *tie_value* on the discrete tie ``Δf = 0`` whose forced 0/1 outcome
    the paper identifies as a bias source (§III-B).
    """
    if count_a > count_b:
        return 1
    if count_a < count_b:
        return 0
    return int(tie_value)


def enroll_frequencies(array: ROArray, samples: int = 9,
                       temperature: Optional[float] = None,
                       voltage: Optional[float] = None,
                       counter: Optional[FrequencyCounter] = None,
                       rng: RNGLike = None) -> np.ndarray:
    """Averaged enrollment frequency estimate (Hz) per oscillator.

    Enrollment is the one-time post-manufacturing phase (paper §III); it
    averages *samples* independent measurements to suppress noise before
    helper data is derived.  When a *counter* is supplied, each sample is
    quantised before averaging, as on the real periphery.
    """
    if samples < 1:
        raise ValueError("need at least one enrollment sample")
    gen = ensure_rng(rng) if rng is not None else None
    freqs = array.measure_frequencies_batch(samples, temperature,
                                            voltage, rng=gen)
    if counter is not None:
        freqs = counter.estimate(counter.counts(freqs))
    # Accumulate row by row: pairwise (np.sum) rounding would perturb
    # enrollment relative to the historical per-sample loop.
    acc = np.zeros(array.n)
    for row in freqs:
        acc += row
    return acc / samples


@dataclass(frozen=True)
class TemperatureSensor:
    """On-chip temperature sensor (required by the HOST 2009 scheme).

    The temperature-aware cooperative construction assumes the device can
    read its own temperature; we model a sensor with a fixed calibration
    bias and per-read Gaussian noise.
    """

    bias: float = 0.0
    sigma: float = 0.25

    def noiseless(self, true_temperature):
        """The noise-free read-out (°C): the ambient plus the bias.

        Every read-out is ``noiseless(T) + draw`` for one noise draw
        (:meth:`draw`); the batched oracle forms its rows' sensed
        temperatures the same way, so they match :meth:`read` bitwise.
        *true_temperature* may be a vector of per-query ambients.
        """
        return true_temperature + self.bias

    def draw(self, rng: RNGLike = None, count: Optional[int] = None):
        """Raw read noise: one draw, or *count* draws consumed from the
        stream like *count* successive reads."""
        return ensure_rng(rng).normal(scale=self.sigma, size=count)

    def read(self, true_temperature: float, rng: RNGLike = None) -> float:
        """One sensor read-out (°C) at the given ambient temperature."""
        return self.noiseless(true_temperature) + self.draw(rng)

    def read_batch(self, true_temperature, count: int,
                   rng: RNGLike = None) -> np.ndarray:
        """*count* independent sensor read-outs (°C), one per query.

        *true_temperature* is a scalar ambient or a ``(count,)``
        vector of per-query ambients (trajectory-driven blocks); the
        noise stream is consumed identically either way, so constant
        trajectories stay bitwise-equal to the scalar path.
        """
        if count < 1:
            raise ValueError("need at least one sensor read")
        return self.noiseless(true_temperature) + self.draw(rng, count)
