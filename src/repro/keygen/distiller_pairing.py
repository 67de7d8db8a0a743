"""Entropy distiller composed with RO pairing schemes (paper §V-A/§VI-D).

The DAC 2013 distiller is not tied to the group-based construction; the
paper's §VI-D attacks target its composition with the §IV pairing
schemes.  Pipeline: RO array → distillation → pair responses →
(optionally 1-out-of-k selection) → ECC → key.  Helper data: polynomial
coefficients, selection indices (masking mode), ECC redundancy, key
check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.distiller.distiller import DistillerHelper, EntropyDistiller
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
from repro.pairing.base import Pair, response_bits, response_bits_batch
from repro.pairing.masking import MaskingHelper, OneOutOfKMasking
from repro.pairing.neighbor import neighbor_chain_pairs
from repro.puf.measurement import enroll_frequencies
from repro.puf.ro_array import ROArray

#: Supported pairing modes.
PAIRING_MODES = ("neighbor-disjoint", "neighbor-overlap", "masking")


@dataclass(frozen=True)
class DistillerPairingHelper:
    """Complete public helper data of the composed construction."""

    distiller: DistillerHelper
    masking: Optional[MaskingHelper]
    sketch: SketchData
    key_check: bytes

    def with_sketch(self, sketch: SketchData) -> "DistillerPairingHelper":
        """Manipulated copy with replaced ECC redundancy."""
        return replace(self, sketch=sketch)


class DistillerPairingKeyGen(KeyGenerator):
    """Device model: distiller + pairing scheme + ECC + key check."""

    def __init__(self, rows: int, cols: int,
                 distiller_degree: int = 2,
                 pairing_mode: str = "neighbor-disjoint",
                 k: int = 5,
                 code_provider: CodeProvider = None,
                 enrollment_samples: int = 9):
        if pairing_mode not in PAIRING_MODES:
            raise ValueError(f"pairing_mode must be one of {PAIRING_MODES}")
        self._rows = int(rows)
        self._cols = int(cols)
        self._distiller = EntropyDistiller(distiller_degree)
        self._mode = pairing_mode
        self._code_provider = code_provider or bch_provider(3)
        self._samples = int(enrollment_samples)

        if pairing_mode == "masking":
            base = neighbor_chain_pairs(rows, cols, overlap=False)
            self._masking: Optional[OneOutOfKMasking] = \
                OneOutOfKMasking(base, k)
            self._pairs: List[Pair] = base
        else:
            overlap = pairing_mode == "neighbor-overlap"
            self._masking = None
            self._pairs = neighbor_chain_pairs(rows, cols, overlap=overlap)

    @property
    def pairing_mode(self) -> str:
        """Active pairing mode (one of :data:`PAIRING_MODES`)."""
        return self._mode

    @property
    def pairs(self) -> List[Pair]:
        """The fixed geometric pair set (pre-selection in masking mode)."""
        return list(self._pairs)

    @property
    def masking(self) -> Optional[OneOutOfKMasking]:
        """The masking pairing scheme, when the mode uses one."""
        return self._masking

    @property
    def distiller(self) -> EntropyDistiller:
        """The entropy distiller removing systematic variation."""
        return self._distiller

    @property
    def bits(self) -> int:
        """Response length in bits."""
        if self._masking is not None:
            return self._masking.groups
        return len(self._pairs)

    # ------------------------------------------------------------------

    def _responses(self, residuals: np.ndarray,
                   masking_helper: Optional[MaskingHelper]) -> np.ndarray:
        if self._masking is not None:
            if masking_helper is None:
                raise ValueError("masking mode requires masking helper")
            return self._masking.evaluate(residuals, masking_helper)
        return response_bits(residuals, self._pairs)

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[DistillerPairingHelper, np.ndarray]:
        """One-time enrollment; returns ``(helper, key_bits)``."""
        if (array.params.rows, array.params.cols) != (self._rows,
                                                      self._cols):
            raise ValueError("array layout does not match the key "
                             "generator geometry")
        gen = ensure_rng(rng)
        freqs = enroll_frequencies(array, self._samples, rng=gen)
        distiller_helper, residuals = self._distiller.enroll(
            array.x, array.y, freqs)
        masking_helper = None
        if self._masking is not None:
            masking_helper, key = self._masking.enroll(residuals)
        else:
            key = response_bits(residuals, self._pairs)
        sketch = self.sketch_for(key.size)
        sketch_data = sketch.generate(key, gen)
        helper = DistillerPairingHelper(distiller_helper, masking_helper,
                                        sketch_data,
                                        key_check_digest(key))
        return helper, key

    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray,
            helper: DistillerPairingHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from one ``(n,)`` measurement row."""
        residuals = self._distiller.residuals(array.x, array.y, freqs,
                                              helper.distiller)
        try:
            bits = self._responses(residuals, helper.masking)
            sketch = self.sketch_for(bits.size)
            recovered = self._decode_or_fail(
                lambda: sketch.recover(bits, helper.sketch))
        except ValueError as exc:
            raise ReconstructionFailure(str(exc)) from exc
        return self._finish(recovered, helper.key_check)

    def batch_evaluator(self, array: ROArray,
                        helper: DistillerPairingHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized evaluator: one decode per distinct pattern."""
        x, y = array.x, array.y
        try:
            if self._masking is not None:
                if helper.masking is None:
                    raise ValueError("masking mode requires masking "
                                     "helper")
                pairs = self._masking.selected_pairs(helper.masking)
            else:
                pairs = self._pairs
            sketch = self.sketch_for(len(pairs))
        except ValueError:
            # Mismatched selection helper or unprovisionable length:
            # every reconstruction fails observably.
            return ConstantEvaluator(False)
        distiller = self._distiller
        distiller_helper = helper.distiller

        def extract(freqs: np.ndarray) -> np.ndarray:
            residuals = distiller.residuals_batch(x, y, freqs,
                                                  distiller_helper)
            return response_bits_batch(residuals, pairs)

        return ResponseBitEvaluator(
            extract, SketchCompletion(sketch, helper.sketch,
                                      helper.key_check))
