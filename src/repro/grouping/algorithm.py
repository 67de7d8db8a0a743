"""The grouping algorithm of the group-based RO PUF (paper §V-B, Alg. 2).

Oscillators are partitioned strictly into groups such that *every* pair
within a group exceeds the discrepancy threshold ``Δf_th``.  The greedy
construction walks the oscillators in descending frequency order and
drops each one into the first group whose most-recently-added member is
more than ``Δf_th`` faster; because insertions are monotonically
decreasing, this guarantees the all-pairs property per group.

The available entropy is ``Σ_j log2(|G_j|!)`` bits — few large groups
beat many small groups, which is what the greedy first-fit achieves.

Helper-data storage order matters (paper §VII-C): members are added in
descending frequency order, so storing groups in *construction order*
hands the attacker the complete intra-group frequency ranking (i.e. the
key) for free.  :class:`GroupingScheme` therefore supports both the
secure ``"sorted"`` (by oscillator index) policy and the leaky
``"construction"`` policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma
from typing import List, Sequence, Tuple

import numpy as np


def group_ros(frequencies: np.ndarray,
              threshold: float) -> List[List[int]]:
    """Algorithm 2 verbatim (0-based indices).

    Returns groups as lists of oscillator indices in construction order,
    i.e. descending enrollment frequency within each group.
    """
    freqs = np.asarray(frequencies, dtype=float)
    n = freqs.shape[0]
    if n < 1:
        raise ValueError("need at least one oscillator")
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    pi = np.argsort(-freqs, kind="stable")
    groups: List[List[int]] = []
    last_freq: List[float] = []  # frequency of each group's last member
    for index in pi:
        f = freqs[index]
        placed = False
        for j in range(len(groups)):
            if last_freq[j] - f > threshold:
                groups[j].append(int(index))
                last_freq[j] = f
                placed = True
                break
        if not placed:
            # The sentinel RO0.f = ∞ of the pseudocode: open a new group.
            groups.append([int(index)])
            last_freq.append(f)
    return groups


def verify_grouping(frequencies: np.ndarray,
                    groups: Sequence[Sequence[int]],
                    threshold: float) -> bool:
    """Check the all-pairs property: every intra-group pair exceeds
    *threshold*, and the partition is strict (each RO exactly once)."""
    freqs = np.asarray(frequencies, dtype=float)
    seen = set()
    for group in groups:
        for member in group:
            if member in seen:
                return False
            seen.add(member)
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if abs(freqs[a] - freqs[b]) <= threshold:
                    return False
    return len(seen) == freqs.shape[0]


def grouping_entropy(groups: Sequence[Sequence[int]]) -> float:
    """Available entropy ``Σ_j log2(|G_j|!)`` in bits (paper §V-B)."""
    return sum(lgamma(len(group) + 1) for group in groups) / np.log(2)


@dataclass(frozen=True)
class GroupingHelper:
    """Public helper data: the group partition.

    ``groups[j]`` lists the member oscillator indices of group ``j``.
    Member order within each stored group follows the scheme's storage
    policy; the *canonical labelling* used by Kendall coding is always
    the stored order.
    """

    groups: Tuple[Tuple[int, ...], ...]
    threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups",
            tuple(tuple(map(int, group)) for group in self.groups))

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Size of every stored group, in storage order."""
        return tuple(len(group) for group in self.groups)

    def with_groups(self, groups: Sequence[Sequence[int]]
                    ) -> "GroupingHelper":
        """Manipulated copy with a replaced partition (the §VI-C
        repartitioning tool)."""
        return GroupingHelper(groups, self.threshold)


class GroupingScheme:
    """Enrollment wrapper applying a storage-order policy to Alg. 2."""

    def __init__(self, threshold: float, storage_order: str = "sorted",
                 min_group_size: int = 2):
        """
        Parameters
        ----------
        threshold:
            Frequency discrepancy threshold ``Δf_th`` in Hz.
        storage_order:
            ``"sorted"`` (member indices ascending — secure) or
            ``"construction"`` (descending enrollment frequency — leaks
            the full intra-group ranking, §VII-C).
        min_group_size:
            Groups smaller than this are dropped from the key material;
            singleton groups carry ``log2(1!) = 0`` bits.
        """
        if storage_order not in ("sorted", "construction"):
            raise ValueError(
                "storage_order must be 'sorted' or 'construction'")
        if min_group_size < 1:
            raise ValueError("min_group_size must be positive")
        self._threshold = float(threshold)
        self._storage_order = storage_order
        self._min_size = int(min_group_size)

    @property
    def threshold(self) -> float:
        """Intra-group reliability threshold in Hz."""
        return self._threshold

    @property
    def storage_order(self) -> str:
        """Helper-data storage-order policy."""
        return self._storage_order

    def enroll(self, frequencies: np.ndarray) -> GroupingHelper:
        """Partition the enrollment frequencies into stored groups."""
        raw = group_ros(frequencies, self._threshold)
        kept = [group for group in raw if len(group) >= self._min_size]
        if self._storage_order == "sorted":
            stored = [sorted(group) for group in kept]
        else:
            stored = kept
        return GroupingHelper(tuple(tuple(g) for g in stored),
                              self._threshold)
