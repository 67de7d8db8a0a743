"""The sequential pairing algorithm ("LISA", paper §IV-C, Algorithm 1).

The algorithm sorts enrollment frequencies in descending order and pairs
entries from the top half with entries from the bottom half whenever
their discrepancy exceeds a threshold ``Δf_th``, producing up to
``floor(N / 2)`` disjoint, reliable pairs.  The resulting pair list is
stored in public helper NVM.

Two storage-format policies are implemented because the paper's §VII-C
shows the choice is security-critical:

* ``"randomized"`` — each pair's index order is randomised at enrollment,
  so the response bit (``f_first > f_second``) is a uniform secret;
* ``"sorted"`` — the higher-frequency oscillator is stored first; every
  response bit is then 1 by construction and a *read-only* attacker
  learns the full key without a single device query.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError
from typing import Iterable, List, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.pairing.base import (
    Pair,
    orient_pairs,
    response_bits,
    response_bits_batch,
    validate_pairs,
)


def run_sequential_pairing(frequencies: np.ndarray,
                           threshold: float) -> List[Pair]:
    """Algorithm 1 verbatim (0-based indices).

    Returns pairs oriented ``(faster, slower)``; every returned pair has
    ``f_a - f_b > threshold``.  Orientation/storage policy is applied
    separately by :class:`SequentialPairing`.
    """
    freqs = np.asarray(frequencies, dtype=float)
    n = freqs.shape[0]
    if n < 2:
        raise ValueError("need at least two oscillators")
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    # pi: indices sorted by descending frequency.
    pi = np.argsort(-freqs, kind="stable")
    pairs: List[Pair] = []
    i = 0
    for j in range(math.ceil(n / 2), n):
        if freqs[pi[i]] - freqs[pi[j]] > threshold:
            pairs.append((int(pi[i]), int(pi[j])))
            i += 1
    return pairs


class SequentialPairingHelper:
    """Public helper data: the stored pair list, in stored order.

    Both the *order of the list* (which key-bit position each pair feeds)
    and the *orientation within each pair* (which oscillator is "first")
    are attacker-writable, which is precisely what the §VI-A attack
    manipulates.

    The pairs live in a read-only ``(P, 2)`` ``intp`` array
    (:attr:`index`).  The facts :meth:`check` needs (lowest and highest
    endpoint, any self-pair, any reused oscillator) are computed once,
    at construction.  A flip or a swap only moves pairs and the two
    endpoints within a pair, so a derived helper inherits its parent's
    facts unchanged: helper data is validated once per lineage, not once
    per query.  Equality, hashing, ``repr`` and pickling go through
    :attr:`pairs` and keep the value semantics of a frozen dataclass
    with that one field.
    """

    __slots__ = ("_index", "_facts", "_pairs")

    def __init__(self, pairs: Iterable[Pair]) -> None:
        coerced = tuple((int(a), int(b)) for a, b in pairs)
        index = np.array(coerced, dtype=np.intp).reshape(-1, 2)
        index.flags.writeable = False
        flat = np.sort(index, axis=None)
        # (lowest endpoint or 0, highest endpoint or -1, any self-pair,
        #  any oscillator in two places)
        facts = (int(flat.min(initial=0)), int(flat.max(initial=-1)),
                 bool(np.any(index[:, 0] == index[:, 1])),
                 bool(np.any(flat[1:] == flat[:-1])))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_facts", facts)
        object.__setattr__(self, "_pairs", coerced)

    def _derive(self, index: np.ndarray) -> "SequentialPairingHelper":
        """Helper over *index*, a flip/swap rearrangement of ours."""
        index.flags.writeable = False
        child = object.__new__(SequentialPairingHelper)
        object.__setattr__(child, "_index", index)
        object.__setattr__(child, "_facts", self._facts)
        object.__setattr__(child, "_pairs", None)
        return child

    @property
    def pairs(self) -> Tuple[Pair, ...]:
        """The pair list as ``int`` tuples (built on first use)."""
        if self._pairs is None:
            object.__setattr__(self, "_pairs",
                               tuple(map(tuple, self._index.tolist())))
        return self._pairs

    @property
    def index(self) -> np.ndarray:
        """Read-only ``(bits, 2)`` ``intp`` array of the stored pairs."""
        return self._index

    @property
    def bits(self) -> int:
        """Number of response bits (= number of pairs)."""
        return self._index.shape[0]

    def check(self, n: int, allow_reuse: bool = False) -> None:
        """Raise ``ValueError`` iff ``validate_pairs(pairs, n, ...)`` does.

        Constant time on clean helper data.  Otherwise the scalar
        validator runs on :attr:`pairs`, so the rejection message is
        exactly its message.
        """
        low, high, self_paired, reused = self._facts
        if (low < 0 or high >= n or self_paired
                or (reused and not allow_reuse)):
            validate_pairs(self.pairs, n, allow_reuse=allow_reuse)

    def with_swapped_positions(self, i: int, j: int
                               ) -> "SequentialPairingHelper":
        """Swap the *list positions* of pairs ``i`` and ``j``.

        This is the §VI-A manipulation: response bits swap key positions,
        introducing two bit errors iff ``r_i != r_j``.
        """
        return self.with_swaps(((i, j),))

    def with_swaps(self, swaps: Iterable[Tuple[int, int]]
                   ) -> "SequentialPairingHelper":
        """Apply position swaps in list order, on one copy."""
        swaps = [(operator.index(i), operator.index(j)) for i, j in swaps]
        if not swaps:
            return self
        index = self._index.copy()
        for i, j in swaps:
            index[[i, j]] = index[[j, i]]
        return self._derive(index)

    def with_flipped_orientation(self, i: int) -> "SequentialPairingHelper":
        """Reverse the stored index order of pair ``i``.

        Deterministically inverts that pair's response bit — the
        attacker's precision error-injection tool once some bit
        relations are known.
        """
        return self.with_flipped_orientations((i,))

    def with_flipped_orientations(self, positions: Iterable[int]
                                  ) -> "SequentialPairingHelper":
        """Flip the pairs at *positions* in turn, on one copy.

        A position listed twice is flipped back.
        """
        positions = [operator.index(p) for p in positions]
        if not positions:
            return self
        index = self._index.copy()
        for i in positions:
            index[i] = index[i, ::-1]
        return self._derive(index)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._index, other._index)

    def __hash__(self) -> int:
        return hash((self.pairs,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(pairs={self.pairs!r})"

    def __getstate__(self) -> dict:
        return {"pairs": self.pairs}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["pairs"])


class SequentialPairing:
    """Enrollment/reconstruction of the sequential pairing construction."""

    def __init__(self, threshold: float,
                 storage_order: str = "randomized",
                 enforce_disjoint: bool = True):
        """
        Parameters
        ----------
        threshold:
            Frequency discrepancy threshold ``Δf_th`` in Hz.
        storage_order:
            ``"randomized"`` (secure) or ``"sorted"`` (the §VII-C leak).
        enforce_disjoint:
            Whether reconstruction validates that helper pairs do not
            re-use oscillators — the sanity check the paper recommends.
        """
        if storage_order not in ("randomized", "sorted"):
            raise ValueError("storage_order must be 'randomized' or "
                             "'sorted'")
        self._threshold = float(threshold)
        self._storage_order = storage_order
        self._enforce_disjoint = enforce_disjoint

    @property
    def threshold(self) -> float:
        """Pair-selection reliability threshold in Hz."""
        return self._threshold

    @property
    def storage_order(self) -> str:
        """Pair-list storage-order policy."""
        return self._storage_order

    @property
    def enforce_disjoint(self) -> bool:
        """Whether evaluation rejects reused oscillators."""
        return self._enforce_disjoint

    def enroll(self, frequencies: np.ndarray, rng: RNGLike = None
               ) -> Tuple[SequentialPairingHelper, np.ndarray]:
        """Run Algorithm 1 and store pairs under the configured policy.

        Returns the helper data and the enrolled response bits
        (all ones when ``storage_order == "sorted"``).
        """
        oriented = run_sequential_pairing(frequencies, self._threshold)
        gen = ensure_rng(rng)
        stored = orient_pairs(oriented, frequencies,
                              "randomized" if
                              self._storage_order == "randomized"
                              else "sorted", gen)
        helper = SequentialPairingHelper(stored)
        return helper, response_bits(frequencies, helper.index)

    def evaluate(self, frequencies: np.ndarray,
                 helper: SequentialPairingHelper) -> np.ndarray:
        """Device-side response bits under (possibly modified) helper data."""
        helper.check(np.asarray(frequencies).shape[0],
                     allow_reuse=not self._enforce_disjoint)
        return response_bits(frequencies, helper.index)

    def evaluate_batch(self, frequencies: np.ndarray,
                       helper: SequentialPairingHelper) -> np.ndarray:
        """Response bits for a ``(B, n)`` measurement batch.

        Helper-data validation runs once for the whole batch; row ``i``
        of the result equals ``evaluate(frequencies[i], helper)``.
        """
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.ndim != 2:
            raise ValueError("batch evaluation needs a (B, n) matrix")
        helper.check(freqs.shape[1],
                     allow_reuse=not self._enforce_disjoint)
        return response_bits_batch(freqs, helper.index)
