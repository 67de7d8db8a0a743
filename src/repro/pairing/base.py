"""Shared primitives for RO pair selection schemes (paper §IV).

A *pair* is an ordered tuple ``(a, b)`` of oscillator indices; its
response bit is ``r = 1`` iff ``f_a > f_b`` at measurement time (the
comparator of paper Fig. 1).  The *orientation* of a stored pair is
security-relevant: §VII-C points out that storing indices sorted by
enrollment frequency leaks every response bit outright.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

Pair = Tuple[int, int]


def validate_pairs(pairs: Sequence[Pair], n: int,
                   allow_reuse: bool = False) -> List[Pair]:
    """Validate a pair list against an array of *n* oscillators.

    Checks index range, self-pairing, and — unless *allow_reuse* — that
    no oscillator appears in two pairs.  The re-use check is exactly the
    sanity check the paper says devices should (but typically do not)
    perform on incoming helper data (§VII-C).
    """
    seen = set()
    result: List[Pair] = []
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"pair {pair!r} must have two elements")
        a, b = int(pair[0]), int(pair[1])
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a}, {b}) out of range [0, {n})")
        if a == b:
            raise ValueError(f"oscillator {a} paired with itself")
        if not allow_reuse:
            if a in seen or b in seen:
                raise ValueError(
                    f"oscillator re-used across pairs: ({a}, {b})")
            seen.add(a)
            seen.add(b)
        result.append((a, b))
    return result


def pair_index_arrays(pairs: Sequence[Pair]) -> Tuple[np.ndarray,
                                                      np.ndarray]:
    """Split a pair list into fancy-index vectors ``(a, b)``.

    The vectors drive batched comparator evaluation: for a frequency
    matrix ``F`` of shape ``(B, n)``, ``F[:, a] >= F[:, b]`` yields all
    ``B`` response-bit vectors in one NumPy pass.  A ``(P, 2)`` ``intp``
    array (e.g. :attr:`SequentialPairingHelper.index`) is split into
    column views without a copy.
    """
    if (isinstance(pairs, np.ndarray) and pairs.dtype == np.intp
            and pairs.ndim == 2 and pairs.shape[1] == 2):
        return pairs[:, 0], pairs[:, 1]
    if len(pairs) == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty.copy()
    arr = np.asarray([(int(a), int(b)) for a, b in pairs],
                     dtype=np.intp)
    return arr[:, 0], arr[:, 1]


def response_bits(frequencies: np.ndarray,
                  pairs: Sequence[Pair]) -> np.ndarray:
    """Comparator response bit of every pair: ``1`` iff ``f_a > f_b``.

    Discrete ties (possible with quantised counter values, §III-B)
    resolve to ``1``, matching :func:`repro.puf.compare_counts`.
    """
    freqs = np.asarray(frequencies, dtype=float)
    a, b = pair_index_arrays(pairs)
    return (freqs[a] >= freqs[b]).astype(np.uint8)


def response_bits_batch(frequencies: np.ndarray,
                        pairs: Sequence[Pair]) -> np.ndarray:
    """Response bits of every pair for a ``(B, n)`` measurement batch.

    Row ``i`` equals ``response_bits(frequencies[i], pairs)``; the whole
    ``(B, len(pairs))`` matrix is produced by one vectorized comparison.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 2:
        raise ValueError("batch evaluation needs a (B, n) matrix")
    a, b = pair_index_arrays(pairs)
    return (freqs[:, a] >= freqs[:, b]).astype(np.uint8)


def pair_deltas(frequencies: np.ndarray,
                pairs: Sequence[Pair]) -> np.ndarray:
    """Signed frequency discrepancies ``f_a - f_b`` of every pair."""
    freqs = np.asarray(frequencies, dtype=float)
    a, b = pair_index_arrays(pairs)
    return freqs[a] - freqs[b]


def orient_pairs(pairs: Iterable[Pair], frequencies: np.ndarray,
                 policy: str, rng=None) -> List[Pair]:
    """Fix the stored orientation of each pair.

    ``policy`` is one of:

    * ``"randomized"`` — each pair's element order is drawn from *rng*;
      the resulting response bits are uniform secrets (correct practice).
    * ``"sorted"`` — the higher-frequency oscillator is stored first, so
      every enrolled response bit equals 1: the full-key leak of §VII-C.
    * ``"as-is"`` — keep the caller's orientation (e.g. fixed geometric
      order for neighbour chains).
    """
    freqs = np.asarray(frequencies, dtype=float)
    if policy == "as-is":
        return [(int(a), int(b)) for a, b in pairs]
    if policy == "sorted":
        return [(int(a), int(b)) if freqs[a] >= freqs[b]
                else (int(b), int(a)) for a, b in pairs]
    if policy == "randomized":
        if rng is None:
            raise ValueError("randomized orientation needs an rng")
        return [(int(a), int(b)) if rng.integers(0, 2) == 0
                else (int(b), int(a)) for a, b in pairs]
    raise ValueError(f"unknown orientation policy {policy!r}")
