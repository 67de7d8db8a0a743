"""Behavioural model of a ring-oscillator array (paper §II, Fig. 1).

An :class:`ROArray` instance represents one manufactured IC sample.  Its
static randomness — per-oscillator process offsets and temperature slopes,
plus the systematic spatial trend — is drawn once at construction time.
Frequency *measurements* add fresh Gaussian noise on every call, modelling
CMOS noise and environmental jitter (paper §III-A).

Frequency model for oscillator ``i`` at column ``x_i``, row ``y_i``::

    f_i(T, V) = (f_nominal + systematic(x_i, y_i) + process_i)
                * (1 + voltage_coeff * (V - v_nominal))
                - slope_i * (T - temp_nominal)          [+ noise]

which captures the two environmental facts the paper relies on:
frequencies increase with supply voltage and decrease with temperature,
and the temperature dependence is (approximately) linear with a
per-oscillator slope, so the Δf(T) of a pair is itself linear in T and may
cross zero inside the operating range (Fig. 3).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.puf.parameters import ROArrayParams
from repro.puf.variation import (
    Polynomial2D,
    default_systematic_surface,
    grid_layout,
)


class ROArray:
    """One manufactured sample of an RO-PUF array."""

    def __init__(self, params: ROArrayParams, rng: RNGLike = None,
                 systematic: Optional[Polynomial2D] = None):
        """Manufacture a device.

        Parameters
        ----------
        params:
            Physical parameter set (layout, nominal frequency, variation
            magnitudes).
        rng:
            Seed or generator for the device's static randomness and for
            its default measurement-noise stream.
        systematic:
            Explicit systematic trend surface in Hz.  When omitted, a
            random smooth trend of amplitude
            ``params.systematic_amplitude`` is drawn (paper Fig. 2).
        """
        self._params = params
        gen = ensure_rng(rng)
        # Independent child streams: one consumed at manufacture time,
        # one reserved for measurement noise, so that taking extra
        # measurements never changes which device was "manufactured".
        self._static_rng, self._noise_rng = gen.spawn(2)

        self._x, self._y = grid_layout(params.rows, params.cols)

        if systematic is None:
            systematic = default_systematic_surface(
                params.rows, params.cols, params.systematic_amplitude,
                self._static_rng)
        self._systematic = systematic

        self._process = self._static_rng.normal(
            scale=params.sigma_process, size=params.n)
        self._slopes = self._static_rng.normal(
            loc=params.temp_slope_mean, scale=params.temp_slope_sigma,
            size=params.n)

    # ------------------------------------------------------------------
    # geometry

    @property
    def params(self) -> ROArrayParams:
        """Physical parameter set of the device."""
        return self._params

    @property
    def n(self) -> int:
        """Number of oscillators."""
        return self._params.n

    @property
    def x(self) -> np.ndarray:
        """Column coordinate of each oscillator (length-``n`` vector)."""
        return self._x

    @property
    def y(self) -> np.ndarray:
        """Row coordinate of each oscillator (length-``n`` vector)."""
        return self._y

    @property
    def systematic(self) -> Polynomial2D:
        """The device's systematic trend surface (Hz)."""
        return self._systematic

    @property
    def process_variation(self) -> np.ndarray:
        """Static random frequency offsets (Hz) — the entropy source."""
        return self._process

    def index_to_xy(self, index: int) -> Tuple[int, int]:
        """Map a univariate oscillator index to ``(x, y)`` layout cells."""
        if not 0 <= index < self.n:
            raise IndexError(f"oscillator index {index} out of range")
        return index % self._params.cols, index // self._params.cols

    def xy_to_index(self, x: int, y: int) -> int:
        """Map layout cell ``(x, y)`` to the univariate oscillator index."""
        if not (0 <= x < self._params.cols and 0 <= y < self._params.rows):
            raise IndexError(f"cell ({x}, {y}) outside the array")
        return y * self._params.cols + x

    # ------------------------------------------------------------------
    # frequencies

    def true_frequencies(self, temperature: Optional[float] = None,
                         voltage: Optional[float] = None) -> np.ndarray:
        """Noise-free frequencies (Hz) at the given operating point.

        Defaults to the nominal temperature and supply voltage.
        """
        p = self._params
        if temperature is None:
            temperature = p.temp_nominal
        if voltage is None:
            voltage = p.v_nominal
        base = p.f_nominal + self._systematic(self._x, self._y) \
            + self._process
        base = base * (1.0 + p.voltage_coeff * (voltage - p.v_nominal))
        return base - self._slopes * (temperature - p.temp_nominal)

    def true_frequencies_batch(self, temperatures: np.ndarray,
                               voltages: np.ndarray) -> np.ndarray:
        """Noise-free frequencies at per-measurement operating points.

        *temperatures* and *voltages* are equal-length ``(B,)``
        vectors; returns the ``(B, n)`` noise-free frequency matrix.
        The operation order matches :meth:`true_frequencies` exactly
        (voltage scaling multiplies *before* the temperature slope
        subtracts), so a constant vector reproduces the scalar path
        bitwise — the equivalence the trajectory engine pins in
        ``tests/scenario/``.
        """
        p = self._params
        temps = np.asarray(temperatures, dtype=float).ravel()
        volts = np.asarray(voltages, dtype=float).ravel()
        if temps.shape != volts.shape:
            raise ValueError("temperature and voltage vectors must "
                             "have equal length")
        base = p.f_nominal + self._systematic(self._x, self._y) \
            + self._process
        scale = 1.0 + p.voltage_coeff * (volts - p.v_nominal)
        return base[None, :] * scale[:, None] \
            - self._slopes[None, :] * (temps - p.temp_nominal)[:, None]

    def measurement_noise(self, count: Optional[int] = None,
                          rng: RNGLike = None) -> np.ndarray:
        """Measurement-noise draws from the device's noise stream (Hz).

        Returns a length-``n`` vector when *count* is ``None``, else a
        ``(count, n)`` matrix of independent rows.  Because NumPy fills
        any output shape element-by-element from the same bit stream, a
        single ``(count, n)`` draw consumes the stream exactly like
        *count* successive per-measurement draws — the property the
        batched oracle relies on for query-for-query equivalence with
        sequential simulation.  Noise is additive and operating-point
        independent, so rows drawn ahead of time remain valid for any
        later choice of temperature and voltage.
        """
        gen = self._noise_rng if rng is None else ensure_rng(rng)
        size = self.n if count is None else (int(count), self.n)
        return gen.normal(scale=self._params.sigma_noise, size=size)

    def measure_frequencies(self, temperature: Optional[float] = None,
                            voltage: Optional[float] = None,
                            rng: RNGLike = None) -> np.ndarray:
        """One noisy frequency measurement of every oscillator (Hz).

        Noise is drawn from *rng* when given, otherwise from the device's
        internal noise stream — fresh on every call.
        """
        noise = self.measurement_noise(rng=rng)
        return self.true_frequencies(temperature, voltage) + noise

    def measure_frequencies_batch(self, count: int,
                                  temperature: Optional[float] = None,
                                  voltage: Optional[float] = None,
                                  rng: RNGLike = None) -> np.ndarray:
        """*count* noisy measurements of every oscillator, ``(count, n)``.

        Row ``i`` is bitwise-identical to what the ``i``-th sequential
        :meth:`measure_frequencies` call would have returned from the
        same stream state — one vectorized draw instead of a Python
        loop.
        """
        if count < 1:
            raise ValueError("need at least one measurement")
        return (self.true_frequencies(temperature, voltage)[None, :]
                + self.measurement_noise(count, rng=rng))

    def frequency_map(self, temperature: Optional[float] = None,
                      voltage: Optional[float] = None) -> np.ndarray:
        """Noise-free frequency map reshaped to ``(rows, cols)``.

        This is the ``f(x, y)`` topology of paper Fig. 2.
        """
        return self.true_frequencies(temperature, voltage).reshape(
            self._params.shape)

    def pair_delta(self, i: int, j: int,
                   temperature: Optional[float] = None,
                   voltage: Optional[float] = None) -> float:
        """Noise-free ``f_i - f_j`` at the operating point."""
        f = self.true_frequencies(temperature, voltage)
        return float(f[i] - f[j])

    def crossover_temperature(self, i: int, j: int) -> Optional[float]:
        """Temperature at which ``f_i(T) = f_j(T)``, or ``None``.

        With the linear temperature model, ``Δf(T)`` is affine in ``T``;
        the crossover exists whenever the pair's slopes differ.  Used by
        the temperature-aware cooperative construction to locate the
        unstable interval of Fig. 3.
        """
        p = self._params
        delta_at_nominal = self.pair_delta(i, j)
        slope_diff = float(self._slopes[i] - self._slopes[j])
        if slope_diff == 0.0:
            return None
        # delta(T) = delta_at_nominal - slope_diff * (T - temp_nominal)
        return p.temp_nominal + delta_at_nominal / slope_diff

    def __repr__(self) -> str:
        p = self._params
        return f"ROArray({p.rows}x{p.cols}, f_nom={p.f_nominal:.3g} Hz)"
