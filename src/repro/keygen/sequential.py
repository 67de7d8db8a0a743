"""End-to-end key generator over the sequential pairing algorithm.

Pipeline (paper §IV-C with the generic ECC assumption of §VI): enroll
averaged frequencies → Algorithm 1 pair selection → response bits →
code-offset sketch → public helper data {pair list, ECC redundancy,
key check}.  The key is the vector of enrolled response bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

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
    DescribedHelper,
    PairBlock,
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


class PairingHypotheses:
    """An enrolled helper and the state its manipulations share.

    Orientation flips and position swaps keep the enrolled pair set,
    sketch payload and key check, so every manipulation of one
    enrolled helper completes exactly like the enrolled helper: the
    manipulations share its parsed payload, key check and one memo of
    finalized patterns, resolved once per ``(keygen, array)``.  Create
    one per attack, so the memo lives as long as the attack.
    """

    def __init__(self, helper: SequentialKeyHelper) -> None:
        self.helper = helper
        self._indices: Dict[Tuple[int, ...], np.ndarray] = {}
        self._enrolled: Optional[tuple] = None

    def enrolled_block(self, keygen: "SequentialPairingKeyGen",
                       array: ROArray) -> Optional[PairBlock]:
        """The enrolled helper's stackable block on *array*, or ``None``.

        Built by *keygen*'s own evaluator, with a memo of its own for
        the manipulations.  A hardened device's block carries its
        measured-threshold check, which flips and swaps cannot change:
        they keep the set of unordered pairs.
        """
        hit = self._enrolled
        if hit is None or hit[0] is not keygen or hit[1] is not array:
            block = keygen.batch_evaluator(array, self.helper).block
            if block is not None:
                block = block._replace(memo={})
            hit = self._enrolled = (keygen, array, block)
            self._indices = {}
        return hit[2]

    def index(self, enrolled: np.ndarray, flips: Tuple[int, ...],
              swap: Optional[Tuple[int, int]]) -> np.ndarray:
        """The pair index after *flips* and *swap*.

        Rearranged as ``SequentialPairingHelper`` flips and swaps its
        own index.  The flipped index is kept per position tuple: the
        attack's reference helper has the same flips for every target
        past the injected positions.
        """
        index = self._indices.get(flips)
        if index is None:
            index = enrolled.copy()
            for position in flips:
                index[position] = index[position, ::-1]
            index.flags.writeable = False
            self._indices[flips] = index
        if swap is not None:
            first, second = swap
            index = index.copy()
            row = index[first].copy()
            index[first] = index[second]
            index[second] = row
            index.flags.writeable = False
        return index


class PairingManipulation(DescribedHelper):
    """Orientation flips, then an optional position swap (§VI-A).

    The described form of ``helper.with_pairing(helper.pairing
    .with_flipped_orientations(flips).with_swapped_positions(*swap))``
    for the enrolled helper of its :class:`PairingHypotheses`.
    """

    __slots__ = ("hypotheses", "flips", "swap")

    def __init__(self, hypotheses: PairingHypotheses,
                 flips: Sequence[int],
                 swap: Optional[Tuple[int, int]] = None) -> None:
        super().__init__()
        self.hypotheses = hypotheses
        self.flips = tuple(flips)
        self.swap = None if swap is None else tuple(swap)

    @property
    def enrolled(self) -> SequentialKeyHelper:
        """The enrolled helper of the attack."""
        return self.hypotheses.helper

    def apply(self, helper: SequentialKeyHelper) -> SequentialKeyHelper:
        """*helper* with the flips and the swap applied."""
        pairing = helper.pairing.with_flipped_orientations(self.flips)
        if self.swap is not None:
            pairing = pairing.with_swapped_positions(*self.swap)
        return helper.with_pairing(pairing)


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

        The evaluator's block is planned by a frontier round, so a
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
            self._device_extraction(array, PairColumns(pairing.index)),
            SketchCompletion(sketch, helper.sketch, helper.key_check))

    def describe(self, array: ROArray, described) -> Optional[PairBlock]:
        """A :class:`PairingManipulation` as the enrolled block with its
        pair index rearranged.

        Flips and swaps keep the pair set, so the manipulated helper
        passes the pair check, and completes, exactly as the enrolled
        one does.  Positions outside ``[0, bits)`` are left to the
        materialised helper.
        """
        if not isinstance(described, PairingManipulation):
            return None
        hypotheses = described.hypotheses
        block = hypotheses.enrolled_block(self, array)
        if block is None:
            return None
        moved = described.flips + (described.swap or ())
        if moved and not 0 <= min(moved) <= max(moved) < len(block.index):
            return None
        return block._make((hypotheses.index(
            block.index, described.flips, described.swap),) + block[1:])
