"""Row-deduplication shared by every batch evaluation path.

Failure-rate workloads concentrate on few distinct discrete patterns
(response bits, received words, noisy readings, BCH syndromes), so each
batch layer applies its expensive scalar completion once per *distinct*
row and broadcasts the result.  This module holds the grouping
primitives they all share.

Row identity is byte equality: two rows are the same pattern iff their
raw bytes are equal (so float ``0.0`` and ``-0.0`` are distinct
patterns).  Two regimes share that one definition.  Large blocks
(Monte-Carlo sweeps, the decode-engine benches) sort once: 0/1 rows of
``uint8`` or ``bool`` are bit-packed, first bit highest, into 64-bit
integer words, and any other rows are viewed as one opaque ``np.void``
key each and grouped with a 1-D ``np.unique``, with no
structured-dtype sort.  Small blocks — the adaptive-distinguisher
rounds of the attack engine, typically 8 rows — hash ``tobytes`` keys
instead, which beats the fixed cost of the vectorised calls.  Group
*contents* (pattern → ascending row indices) are identical either way;
the group order is unspecified, and no consumer depends on it: every
caller computes a per-pattern result and scatters it back to the
pattern's row indices.

A stacked frontier group dedups per block: ``row_groups(bits,
owner)`` keeps equal rows of different owners apart.  Its large
blocks key each row on integers (the packed row or its bytes in
64-bit words, the owner beside it) and sort once, with no ``np.void``
keys.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Blocks of at most this many rows take the hashed grouping.  The
#: "dedup crossover" table of ``benchmarks/bench_ecc_decode.py``
#: (one ``row_groups`` call on 127-bit 0/1 rows, 2-vCPU x86 host) has
#: hashed ahead up to 64 rows (8 rows: 5-10 µs vs 19-34 µs keyed; 64
#: rows: 19-35 µs vs 22-41 µs) and keyed ahead from 128 rows on (128
#: rows: 26-48 µs vs 33-61 µs; 1024: 0.10-0.15 ms vs 0.23-0.36 ms).
SMALL_BLOCK = 64

#: Row dtypes whose 0/1 rows the integer-keyed grouping bit-packs.
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
    keys = data.view(np.dtype((np.void, width))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)


def _owner_groups(matrix: np.ndarray, owner: np.ndarray, bits: bool
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_keyed_groups` per owner, on integer keys.

    Each row's bytes (*bits*: 0/1 rows, bit-packed, first bit highest)
    fill big-endian 64-bit words, zero-padded.  An owner that fits the
    last word's spare low bytes is OR-ed in for one stable argsort;
    else one ``np.lexsort`` sorts by the owner, then the words.
    """
    data = np.ascontiguousarray(matrix)
    count = data.shape[0]
    if bits:
        width = -(-data.shape[1] // 8)
        spare = -width % 8
        # Packing rows padded to whole words is one flat packbits.
        padded = np.zeros((count, 8 * (width + spare)), dtype=np.uint8)
        padded[:, :data.shape[1]] = data
        padded = np.packbits(padded.reshape(-1)).reshape(count, -1)
    else:
        data = data.view(np.uint8).reshape(count, -1)
        width = data.shape[1]
        spare = -width % 8
        padded = np.zeros((count, width + spare), dtype=np.uint8)
        padded[:, :width] = data
    words = padded.view(">u8").astype(np.uint64)
    owner = owner.astype(np.uint64)
    if words.shape[1] == 1 and int(owner.max()) >> (8 * spare) == 0:
        return _sorted_groups((words[:, 0] | owner,))
    return _sorted_groups(tuple(words.T[::-1]) + (owner,))


def _sorted_groups(keys: Tuple[np.ndarray, ...]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Groups of rows with equal values in every 1-D key array.

    One stable sort, so each group's first sorted row is its first
    occurrence.  Groups come in sorted order, the last key first.
    """
    order = (np.argsort(keys[0], kind="stable") if len(keys) == 1
             else np.lexsort(keys))
    start = np.zeros(order.size, dtype=np.uint8)
    start[:1] = 1
    for key in keys:
        ranked = key[order]
        start[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.add.accumulate(start, dtype=np.intp) - 1
    return order[start.view(bool)], inverse


def row_groups(matrix: np.ndarray, owner: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence row of each distinct row, and the row → group map.

    ``matrix[first][inverse]`` reproduces *matrix* byte for byte.  Rows
    are grouped by byte identity; groups come in unspecified order.
    With *owner* (one non-negative integer per row), rows group by
    ``(owner, row bytes)``: equal rows of different owners stay apart.
    """
    count = matrix.shape[0]
    if count <= SMALL_BLOCK:
        if owner is not None:
            matrix = np.concatenate(
                [owner.astype(">u4").view(np.uint8).reshape(-1, 4),
                 np.ascontiguousarray(matrix).view(np.uint8)], axis=1)
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
    # 0/1 rows key on packed words, with no owner the owner zero.
    bits = bool(matrix.dtype in _BIT_DTYPES and matrix.size
                and matrix.max() <= 1)
    if owner is None:
        if not bits:
            return _keyed_groups(matrix)
        owner = np.zeros(count, dtype=np.intp)
    return _owner_groups(matrix, owner, bits)


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
