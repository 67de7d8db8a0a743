"""End-to-end key generator over the sequential pairing algorithm.

Pipeline (paper §IV-C with the generic ECC assumption of §VI): enroll
averaged frequencies → Algorithm 1 pair selection → response bits →
code-offset sketch → public helper data {pair list, ECC redundancy,
key check}.  The key is the vector of enrolled response bits.
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
    PairColumns,
    ResponseBitEvaluator,
    SketchCompletion,
)
from repro.pairing.sequential import (
    SequentialPairing,
    SequentialPairingHelper,
)
from repro.puf.measurement import enroll_frequencies
from repro.puf.ro_array import ROArray


@dataclass(frozen=True)
class SequentialKeyHelper:
    """Complete public helper data of the construction."""

    pairing: SequentialPairingHelper
    sketch: SketchData
    key_check: bytes

    def with_pairing(self, pairing: SequentialPairingHelper
                     ) -> "SequentialKeyHelper":
        """Manipulated copy with replaced pair list (§VI-A attacks)."""
        return replace(self, pairing=pairing)

    def with_sketch(self, sketch: SketchData) -> "SequentialKeyHelper":
        """Manipulated copy with replaced ECC redundancy."""
        return replace(self, sketch=sketch)


class SequentialPairingKeyGen(KeyGenerator):
    """Device model: sequential pairing + ECC + key check."""

    def __init__(self, threshold: float,
                 code_provider: CodeProvider = None,
                 storage_order: str = "randomized",
                 enrollment_samples: int = 9):
        self._pairing = SequentialPairing(threshold,
                                          storage_order=storage_order)
        self._code_provider = code_provider or bch_provider(3)
        self._samples = int(enrollment_samples)

    @property
    def pairing(self) -> SequentialPairing:
        """The sequential pairing scheme (paper Algorithm 1)."""
        return self._pairing

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[SequentialKeyHelper, np.ndarray]:
        """One-time enrollment; returns ``(helper, key_bits)``."""
        gen = ensure_rng(rng)
        freqs = enroll_frequencies(array, self._samples, rng=gen)
        pairing_helper, key = self._pairing.enroll(freqs, gen)
        if key.size == 0:
            raise ValueError(
                "sequential pairing selected no pairs; lower the "
                "threshold")
        sketch = self.sketch_for(key.size)
        sketch_data = sketch.generate(key, gen)
        helper = SequentialKeyHelper(pairing_helper, sketch_data,
                                     key_check_digest(key))
        return helper, key

    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray,
            helper: SequentialKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from one ``(n,)`` measurement row."""
        try:
            bits = self._pairing.evaluate(freqs, helper.pairing)
        except ValueError as exc:
            # Helper-data sanity check rejected the pair list.
            raise ReconstructionFailure(str(exc)) from exc
        sketch = self.sketch_for(bits.size)
        recovered = self._decode_or_fail(
            lambda: sketch.recover(bits, helper.sketch))
        return self._finish(recovered, helper.key_check)

    def batch_evaluator(self, array: ROArray,
                        helper: SequentialKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized evaluator: one decode per distinct pattern.

        The completion is a two-phase :class:`SketchCompletion`, so a
        lock-step campaign can fuse this device's decode workload with
        every other device sharing the code (``docs/evaluators.md``).
        """
        pairing = helper.pairing
        try:
            pairing.check(array.n,
                          allow_reuse=not self._pairing.enforce_disjoint)
        except ValueError:
            # Rejected pair list: every query fails observably.
            return ConstantEvaluator(False)
        sketch = self.sketch_for(pairing.bits)
        return ResponseBitEvaluator(
            PairColumns(pairing.index),
            SketchCompletion(sketch, helper.sketch, helper.key_check))
