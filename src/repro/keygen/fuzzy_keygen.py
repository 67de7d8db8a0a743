"""Key generator built on the fuzzy extractor (paper Fig. 7).

The reference architecture the paper advocates: RO array → response bits
(disjoint neighbour chain) → secure sketch (ECC) → universal hash →
key.  Contrary to the attacked constructions, the entropy problem is
handled *after* error correction by the hash, so no response bit is ever
exposed through a structural helper-data channel of the §VI kind: every
helper bit flip either is absorbed by the ECC/hash pipeline uniformly or
fails the whole reconstruction, independent of individual key bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.ecc.sketch import CodeOffsetSketch
from repro.fuzzy.extractor import FuzzyExtractor, FuzzyExtractorHelper
from repro.fuzzy.toeplitz import ToeplitzHash
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
from repro.pairing.base import pair_index_arrays, response_bits
from repro.pairing.neighbor import neighbor_chain_pairs
from repro.puf.measurement import enroll_frequencies
from repro.puf.ro_array import ROArray


@dataclass(frozen=True)
class FuzzyKeyHelper:
    """Public helper data: extractor helper plus key-check commitment."""

    extractor: FuzzyExtractorHelper
    key_check: bytes

    def with_extractor(self, extractor: FuzzyExtractorHelper
                       ) -> "FuzzyKeyHelper":
        """Manipulated copy with replaced extractor helper data."""
        return replace(self, extractor=extractor)


@dataclass(frozen=True)
class _ToeplitzAssembler:
    """Picklable key assembly: recovered response → hashed key bits."""

    hasher: ToeplitzHash

    def __call__(self, recovered: np.ndarray) -> np.ndarray:
        """Hash a recovered response down to the extracted key."""
        return self.hasher(recovered)

    def batch(self, recovered: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Hash a ``(U, bits)`` block: ``(keys, valid)``, all valid."""
        return (self.hasher.hash_batch(recovered),
                np.ones(recovered.shape[0], dtype=bool))


class FuzzyExtractorKeyGen(KeyGenerator):
    """Device model of the Fig. 7 reference solution."""

    def __init__(self, rows: int, cols: int, out_bits: int = 128,
                 code_provider: CodeProvider = None,
                 enrollment_samples: int = 9):
        self._rows = int(rows)
        self._cols = int(cols)
        self._pairs = neighbor_chain_pairs(rows, cols, overlap=False)
        self._out_bits = int(out_bits)
        self._code_provider = code_provider or bch_provider(5)
        self._samples = int(enrollment_samples)
        bits = len(self._pairs)
        if self._out_bits > bits:
            raise ValueError(
                f"cannot extract {out_bits} bits from {bits} response "
                f"bits")
        self._extractor = FuzzyExtractor(
            CodeOffsetSketch(self._code_provider(bits), bits),
            self._out_bits)

    @property
    def extractor(self) -> FuzzyExtractor:
        """The underlying fuzzy extractor."""
        return self._extractor

    @property
    def bits(self) -> int:
        """Raw response length in bits."""
        return len(self._pairs)

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[FuzzyKeyHelper, np.ndarray]:
        """One-time enrollment; returns ``(helper, key_bits)``."""
        if (array.params.rows, array.params.cols) != (self._rows,
                                                      self._cols):
            raise ValueError("array layout does not match the key "
                             "generator geometry")
        gen = ensure_rng(rng)
        freqs = enroll_frequencies(array, self._samples, rng=gen)
        response = response_bits(freqs, self._pairs)
        key, extractor_helper = self._extractor.generate(response, gen)
        return FuzzyKeyHelper(extractor_helper,
                              key_check_digest(key)), key

    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray,
            helper: FuzzyKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from one ``(n,)`` measurement row."""
        response = response_bits(freqs, self._pairs)
        try:
            key = self._decode_or_fail(
                lambda: self._extractor.reproduce(response,
                                                  helper.extractor))
        except ValueError as exc:
            raise ReconstructionFailure(str(exc)) from exc
        return self._finish(key, helper.key_check)

    def batch_evaluator(self, array: ROArray, helper: FuzzyKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized evaluator: one decode per distinct pattern.

        The completion recovers the raw response through the code-offset
        sketch (the fusable decode kernel) and assembles the key with
        the helper's Toeplitz hash; a malformed hash seed fails every
        reconstruction observably, as on the scalar path.
        """
        sketch = self._extractor.sketch
        extractor_helper = helper.extractor
        try:
            hasher = ToeplitzHash(extractor_helper.hash_seed,
                                  sketch.response_length,
                                  extractor_helper.out_bits)
        except ValueError:
            return ConstantEvaluator(False)
        completion = SketchCompletion(
            sketch, extractor_helper.sketch, helper.key_check,
            assemble=_ToeplitzAssembler(hasher))
        return ResponseBitEvaluator(
            PairColumns(np.stack(pair_index_arrays(self._pairs), axis=1)),
            completion)
