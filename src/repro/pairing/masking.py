"""1-out-of-k masking over a fixed pair set (paper §IV-B, Suh & Devadas).

A fixed set of candidate pairs is partitioned into groups of ``k``
consecutive pairs.  During enrollment the pair maximising ``|Δf|`` is
selected within each group — trading ``k``-fold efficiency for
reliability — and the winning index is stored as public helper data.
The *selection indices* are the manipulable helper data exploited in
paper §VI-D / Fig. 6b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.pairing.base import Pair, pair_deltas, response_bits


@dataclass(frozen=True)
class MaskingHelper:
    """Public helper data of a 1-out-of-k masking scheme.

    ``selected[g]`` is the index *within group g* (``0 .. k-1``) of the
    enrolled pair.  Groups partition the base pair list in order.
    """

    k: int
    selected: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        for index in self.selected:
            if not 0 <= index < self.k:
                raise ValueError(
                    f"selection index {index} outside [0, {self.k})")

    @property
    def bits(self) -> int:
        """Number of response bits the scheme produces."""
        return len(self.selected)

    def with_selection(self, group: int, index: int) -> "MaskingHelper":
        """A manipulated copy with one group's selection replaced."""
        if not 0 <= group < len(self.selected):
            raise IndexError(f"group {group} out of range")
        selected = list(self.selected)
        selected[group] = int(index)
        return MaskingHelper(self.k, tuple(selected))


class OneOutOfKMasking:
    """Enrollment and reconstruction of the 1-out-of-k masking scheme."""

    def __init__(self, base_pairs: Sequence[Pair], k: int):
        if k < 1:
            raise ValueError("k must be positive")
        if len(base_pairs) < k:
            raise ValueError("need at least one full group of pairs")
        self._base_pairs = [(int(a), int(b)) for a, b in base_pairs]
        self._k = k
        # Trailing pairs that do not fill a whole group are discarded,
        # mirroring a fixed-geometry hardware implementation.
        self._groups = len(self._base_pairs) // k

    @property
    def k(self) -> int:
        """Number of candidate pairs per response bit."""
        return self._k

    @property
    def groups(self) -> int:
        """Number of k-pair groups (= number of response bits)."""
        return self._groups

    @property
    def base_pairs(self) -> List[Pair]:
        """The underlying neighbour pairs, in layout order."""
        return list(self._base_pairs)

    def group_pairs(self, group: int) -> List[Pair]:
        """The ``k`` candidate pairs of one group."""
        if not 0 <= group < self._groups:
            raise IndexError(f"group {group} out of range")
        start = group * self._k
        return self._base_pairs[start:start + self._k]

    def enroll(self, frequencies: np.ndarray
               ) -> Tuple[MaskingHelper, np.ndarray]:
        """Select the most reliable pair per group.

        Returns the helper data and the enrolled response bits.
        """
        deltas = pair_deltas(frequencies, self._base_pairs)
        selected = []
        for group in range(self._groups):
            start = group * self._k
            magnitudes = np.abs(deltas[start:start + self._k])
            selected.append(int(np.argmax(magnitudes)))
        helper = MaskingHelper(self._k, tuple(selected))
        return helper, self.evaluate(frequencies, helper)

    def selected_pairs(self, helper: MaskingHelper) -> List[Pair]:
        """The pair each group contributes under the given helper data."""
        if helper.bits != self._groups:
            raise ValueError("helper data does not match the group count")
        return [self._base_pairs[group * self._k + index]
                for group, index in enumerate(helper.selected)]

    def evaluate(self, frequencies: np.ndarray,
                 helper: MaskingHelper) -> np.ndarray:
        """Response bits under (possibly manipulated) helper data."""
        return response_bits(frequencies, self.selected_pairs(helper))
