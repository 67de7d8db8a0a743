"""End-to-end key generator over the temperature-aware cooperative PUF.

Pipeline (paper §IV-D + generic ECC): classify neighbour pairs over the
operating range → good bits + cooperating reference bits → code-offset
sketch → helper data {pair classification & cooperation records, ECC
redundancy, key check}.  Reconstruction reads the on-chip temperature
sensor to interpret the crossover intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.ecc.sketch import SketchData
from repro.keygen.base import (
    CodeProvider,
    KeyGenerator,
    OperatingPoint,
    ReconstructionFailure,
    bch_provider,
    key_check_digest,
)
from repro.keygen.batch import (
    ConstantEvaluator,
    ResponseBitEvaluator,
    SketchCompletion,
)
from repro.pairing.temp_aware import TempAwareCooperative, TempAwareHelper
from repro.puf.measurement import TemperatureSensor
from repro.puf.ro_array import ROArray


@dataclass(frozen=True)
class SensedCooperation:
    """The device's extraction of temperature-aware readings rows.

    A row holds the measured frequencies, then the sensed temperature
    the device interprets the crossover intervals with.  Rows whose
    scalar reconstruction refuses the helper data — an assistant that
    is not a cooperating pair, or an assistance cycle — are not
    accepted (:meth:`TempAwareCooperative.evaluate_batch`).
    """

    scheme: TempAwareCooperative
    helper: TempAwareHelper

    def checked(self, readings: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bits, accepted)`` of a ``(B, n + 1)`` readings block."""
        return self.scheme.evaluate_batch(readings[:, :-1], self.helper,
                                          readings[:, -1])


@dataclass(frozen=True)
class TempAwareKeyHelper:
    """Complete public helper data of the construction."""

    scheme: TempAwareHelper
    sketch: SketchData
    key_check: bytes

    def with_scheme(self, scheme: TempAwareHelper) -> "TempAwareKeyHelper":
        """Manipulated copy with replaced cooperation records (§VI-B)."""
        return replace(self, scheme=scheme)


class TempAwareKeyGen(KeyGenerator):
    """Device model: temperature-aware cooperative pairs + ECC + check.

    The device reads its on-chip temperature sensor once per
    reconstruction attempt, before it looks at the helper data.
    Sensor noise is drawn from a per-device stream seeded by
    *sensor_seed*.  The batched oracle takes each query's read from
    that stream together with its noise row (:meth:`sensor_draws`),
    and an unwound row returns its read with it — so with a seeded
    sensor, batched and scalar simulation of twin devices stay
    bitwise-equivalent query for query, and one keygen's stream
    serves one device.  The default (``None``) keeps the historical
    behaviour of unpredictable fresh sensor noise.
    """

    def __init__(self, t_min: float, t_max: float, threshold: float,
                 code_provider: CodeProvider = None,
                 selection: str = "randomized",
                 enrollment_samples: int = 9,
                 sensor: TemperatureSensor = TemperatureSensor(),
                 sensor_seed: RNGLike = None):
        self._scheme = TempAwareCooperative(
            t_min, t_max, threshold, selection=selection,
            enrollment_samples=enrollment_samples)
        self._code_provider = code_provider or bch_provider(3)
        self._sensor = sensor
        self._sensor_rng = ensure_rng(sensor_seed)

    @property
    def scheme(self) -> TempAwareCooperative:
        """The temperature-aware cooperative pairing scheme."""
        return self._scheme

    @property
    def sensor(self) -> TemperatureSensor:
        """The on-chip temperature sensor."""
        return self._sensor

    def sensor_draws(self, count: int) -> np.ndarray:
        """The next *count* raw reads of the sensor stream, one per
        query in query order."""
        return self._sensor.draw(self._sensor_rng, count)

    def reseed_transient_streams(self, rng: RNGLike = None) -> None:
        """Replace the sensor noise stream (fleet sweep substreams).

        Subsequent scalar *and* batched reconstructions read the
        sensor from the new stream; the bitwise scalar/batch
        equivalence is unaffected as long as both paths share it.
        """
        self._sensor_rng = ensure_rng(rng)

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[TempAwareKeyHelper, np.ndarray]:
        """One-time enrollment; returns ``(helper, key_bits)``."""
        gen = ensure_rng(rng)
        scheme_helper, key = self._scheme.enroll(array, gen)
        if key.size == 0:
            raise ValueError("no usable pairs; relax the threshold")
        sketch = self.sketch_for(key.size)
        sketch_data = sketch.generate(key, gen)
        helper = TempAwareKeyHelper(scheme_helper, sketch_data,
                                    key_check_digest(key))
        return helper, key

    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray,
            helper: TempAwareKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from one ``(n,)`` measurement row."""
        temperature = (op.temperature if op.temperature is not None
                       else array.params.temp_nominal)
        sensed = self._sensor.read(temperature, rng=self._sensor_rng)
        return self.reconstruct_sensed(freqs, sensed, helper)

    def reconstruct_sensed(self, freqs: np.ndarray, sensed: float,
                           helper: TempAwareKeyHelper) -> np.ndarray:
        """Regenerate the key from one measurement row read with the
        sensed temperature *sensed*."""
        try:
            bits = self._scheme.evaluate(freqs, helper.scheme, sensed)
        except ValueError as exc:
            raise ReconstructionFailure(str(exc)) from exc
        sketch = self.sketch_for(bits.size)
        recovered = self._decode_or_fail(
            lambda: sketch.recover(bits, helper.sketch))
        return self._finish(recovered, helper.key_check)

    def batch_evaluator(self, array: ROArray,
                        helper: TempAwareKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized success evaluator for *helper*.

        A block's rows are readings: the measured frequencies, then
        the sensed temperature the batched oracle formed from the
        row's own sensor read, so a row's outcome depends on the row
        alone and *op* is already in it.  Interval interpretation,
        cooperative assistance and the refusals are evaluated in one
        NumPy pass per block (:class:`SensedCooperation`); the sketch
        recovery runs once per distinct response pattern.
        """
        try:
            sketch = self.sketch_for(helper.scheme.bits)
        except ValueError:
            return ConstantEvaluator(False)
        return ResponseBitEvaluator(
            SensedCooperation(self._scheme, helper.scheme),
            SketchCompletion(sketch, helper.sketch, helper.key_check))
