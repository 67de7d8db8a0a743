"""Row-deduplication shared by every batch evaluation path.

Failure-rate workloads concentrate on few distinct discrete patterns
(response bits, received words, noisy readings, BCH syndromes), so each
batch layer applies its expensive scalar completion once per *distinct*
row and broadcasts the result.  This module holds the grouping
primitives they all share.

Row identity is byte equality: two rows are the same pattern iff their
raw bytes are equal (so float ``0.0`` and ``-0.0`` are distinct
patterns).  Two regimes share that one definition.  Large blocks
(Monte-Carlo sweeps, the decode-engine benches) view each row as one
opaque ``np.void`` key and group with a 1-D ``np.unique`` over those
keys, with no structured-dtype sort (0/1 rows of ``uint8`` or ``bool``
are bit-packed first, in an order-preserving way, and rows of up to 64
bits sort as one integer); small blocks — the
adaptive-distinguisher rounds of the attack engine, typically 8 rows —
hash ``tobytes`` keys instead, which beats the fixed cost of the
vectorised calls.  Group *contents* (pattern → ascending row indices)
are identical either way; the group order is unspecified, and no
consumer depends on it: every caller computes a per-pattern result and
scatters it back to the pattern's row indices.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Blocks of at most this many rows take the hashed grouping.  The
#: "dedup crossover" table of ``benchmarks/bench_ecc_decode.py``
#: (one ``row_groups`` call on 127-bit 0/1 rows, 2-vCPU x86 host) has
#: hashed ahead up to 32 rows (8 rows: 4-8 µs vs 14-16 µs keyed), the
#: two within noise at 64, and keyed ahead from 128 rows on (1024
#: rows: 0.16-0.22 ms vs 0.28-0.59 ms).
SMALL_BLOCK = 64

#: Row dtypes whose 0/1 rows the keyed grouping bit-packs first.
_BIT_DTYPES = (np.dtype(np.uint8), np.dtype(np.bool_))


def _keyed_groups(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence row per distinct pattern and the row → group map.

    Each row is viewed as one opaque byte key, so the grouping is a
    1-D ``np.unique`` over ``matrix.shape[0]`` keys whatever the dtype.
    Groups come in the keys' byte order.
    """
    data = np.ascontiguousarray(matrix)
    count = data.shape[0]
    width = data.dtype.itemsize * data.shape[1]
    if width == 0:
        # Zero-byte rows are all the same (empty) pattern.
        return np.zeros(min(count, 1), dtype=np.intp), \
            np.zeros(count, dtype=np.intp)
    keys = None
    if data.dtype in _BIT_DTYPES and count and data.max() <= 1:
        # Bit rows pack eight to a byte, first bit highest: that keeps
        # the rows' byte order, so groups and their order are the
        # same, and rows of up to 64 bits sort as one integer.
        data = np.packbits(data, axis=1)
        width = data.shape[1]
        if width <= 8:
            words = np.zeros((count, 8), dtype=np.uint8)
            words[:, :width] = data
            keys = words.view(">u8").reshape(-1)
    if keys is None:
        keys = data.view(np.dtype((np.void, width))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)


def row_groups(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence row of each distinct row, and the row → group map.

    ``matrix[first][inverse]`` reproduces *matrix* byte for byte.  Rows
    are grouped by byte identity; groups come in unspecified order.
    """
    count = matrix.shape[0]
    if count <= SMALL_BLOCK:
        data = np.ascontiguousarray(matrix)
        width = data.dtype.itemsize * data.shape[1]
        # One C call turns every row into its bytes key.
        keys = (data.view(np.dtype((np.void, width))).ravel().tolist()
                if width else [b""] * count)
        slots: dict = {}
        inverse: List[int] = []
        first: List[int] = []
        for position, key in enumerate(keys):
            slot = slots.setdefault(key, len(slots))
            if slot == len(first):
                first.append(position)
            inverse.append(slot)
        return (np.array(first, dtype=np.intp),
                np.array(inverse, dtype=np.intp))
    return _keyed_groups(matrix)


def unique_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array plus the row → distinct map.

    :func:`row_groups` with the rows gathered, for callers that solve
    all distinct rows at once and scatter with
    ``distinct_result[inverse]``: ``distinct[inverse]`` reproduces
    *matrix* byte for byte.  Rows are grouped by byte identity and the
    distinct rows come back in unspecified order.
    """
    first, inverse = row_groups(matrix)
    return matrix[first], inverse
