"""Entropy packing: Kendall → compact re-encoding (paper §V-E).

Kendall coding is deliberately redundant — only ``g!`` of the
``2^{g(g-1)/2}`` bit vectors are valid — so after error correction the
group-based construction converts each group's Kendall word to the
compact representation "to maintain entropy".  As the paper notes, the
fix is partial: ``g!`` is not a power of two for ``g > 2``, so residual
non-uniformity remains; :func:`packing_loss_bits` quantifies it.

:func:`pack_key` is the scalar reference, one group at a time.
:func:`pack_key_batch` packs a whole ``(B, bits)`` block of streams at
once and is pinned bitwise to it: groups are handled per *size class*
(every group of one size in one gather), size-2 groups are the identity,
small sizes go through a Kendall-word lookup table and larger ones
through a vectorised Lehmer rank.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, log2
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.grouping.kendall import (
    compact_bit_count,
    compact_encode,
    kendall_bit_count,
    kendall_decode,
    kendall_encode,
    pair_table,
)

#: Largest group size packed through a Kendall-word lookup table
#: (``2^10`` entries for ``g = 5``); larger sizes rank arithmetically.
TABLE_MAX_SIZE = 5
#: Largest group size whose compact rank fits ``int64`` (``20! < 2^63``).
_INT64_MAX_SIZE = 20


def pack_group(kendall_bits: np.ndarray, size: int) -> np.ndarray:
    """Convert one group's (error-corrected) Kendall word to compact bits."""
    return compact_encode(kendall_decode(kendall_bits, size))


def unpack_group(compact_bits: np.ndarray, size: int) -> np.ndarray:
    """Convert one group's compact word back to Kendall bits."""
    from repro.grouping.kendall import compact_decode

    return kendall_encode(compact_decode(compact_bits, size))


def split_blocks(bits: np.ndarray,
                 sizes: Sequence[int]) -> List[np.ndarray]:
    """Split a concatenated Kendall bitstream into per-group words."""
    bits = np.asarray(bits)
    lengths = [kendall_bit_count(size) for size in sizes]
    if bits.shape != (sum(lengths),):
        raise ValueError(
            f"expected {sum(lengths)} bits for sizes {tuple(sizes)}")
    chunks = []
    offset = 0
    for length in lengths:
        chunks.append(bits[offset:offset + length])
        offset += length
    return chunks


def pack_key(kendall_bits: np.ndarray,
             sizes: Sequence[int]) -> np.ndarray:
    """Entropy-pack a concatenated Kendall stream into the final key bits.

    Each group contributes ``ceil(log2 g!)`` compact bits, concatenated
    in group order.
    """
    packed = [pack_group(chunk, size)
              for chunk, size in zip(split_blocks(kendall_bits, sizes),
                                     sizes)]
    if not packed:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(packed)


class SizeClass(NamedTuple):
    """Every group of one size: where its bits sit in stream and key."""

    size: int
    #: Positions of each group's members in the concatenated member
    #: list of all groups, ``(m, g)``.
    member_cols: np.ndarray
    #: Kendall-stream columns of each group, ``(m, g(g-1)/2)``.
    kendall_cols: np.ndarray
    #: Packed-key columns of each group, ``(m, ceil(log2 g!))``.
    compact_cols: np.ndarray


class PackLayout(NamedTuple):
    """Stream and key layout of a group-size sequence, by size class."""

    stream_bits: int
    key_bits: int
    classes: Tuple[SizeClass, ...]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=256)
def pack_layout(sizes: Tuple[int, ...]) -> PackLayout:
    """Cached :class:`PackLayout` of *sizes* (classes in ascending size).

    Arrays are read-only; copy before mutating.
    """
    sizes = tuple(int(size) for size in sizes)
    stream = np.array([kendall_bit_count(s) for s in sizes], dtype=np.intp)
    key = np.array([compact_bit_count(s) for s in sizes], dtype=np.intp)
    by_size = np.array(sizes, dtype=np.intp)
    member_at = np.cumsum(by_size) - by_size
    stream_at = np.cumsum(stream) - stream
    key_at = np.cumsum(key) - key
    classes = []
    for size in sorted(set(sizes)):
        groups = np.flatnonzero(by_size == size)
        classes.append(SizeClass(
            size,
            _frozen(member_at[groups, None] + np.arange(size)),
            _frozen(stream_at[groups, None]
                    + np.arange(kendall_bit_count(size))),
            _frozen(key_at[groups, None]
                    + np.arange(compact_bit_count(size)))))
    return PackLayout(int(stream.sum()), int(key.sum()), tuple(classes))


def _rank_words(words: np.ndarray, size: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Compact bits and validity of an ``(N, g(g-1)/2)`` word matrix.

    Row-wise equal to ``pack_group`` wherever that succeeds.  A label's
    position is the number of pairs it is preceded in (``x`` when the
    pair bit is set, else ``y``), taken as a summed one-hot; the word is
    valid iff the positions are a permutation.  The label's Lehmer digit
    is the number of smaller labels it precedes, i.e. the set bits of
    the pairs in which it is ``y``, and the lexicographic rank is
    ``Σ digit · (g − 1 − position)!``.
    """
    xs, ys = pair_table(size)
    labels = np.arange(size)
    into_x = (xs[:, None] == labels).astype(np.int64)
    into_y = (ys[:, None] == labels).astype(np.int64)
    words = words.astype(np.int64)
    position = words @ into_x + (1 - words) @ into_y
    valid = (np.sort(position, axis=1) == labels).all(axis=1)
    exact = np.int64 if size <= _INT64_MAX_SIZE else object
    weights = np.array([factorial(k) for k in range(size)],
                       dtype=exact)[size - 1 - position]
    rank = ((words @ into_y).astype(exact) * weights).sum(axis=1)
    shifts = np.arange(compact_bit_count(size) - 1, -1, -1)
    bits = ((rank[:, None] >> shifts) & 1).astype(np.uint8)
    bits[~valid] = 0
    return bits, valid


@lru_cache(maxsize=None)
def _word_table(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(bits, valid)`` of every Kendall word, indexed MSB-first."""
    width = kendall_bit_count(size)
    shifts = np.arange(width - 1, -1, -1)
    words = (np.arange(1 << width)[:, None] >> shifts) & 1
    bits, valid = _rank_words(words, size)
    return _frozen(bits), _frozen(valid)


def pack_key_batch(kendall_bits: np.ndarray, sizes: Sequence[int]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Entropy-pack a ``(B, bits)`` block of Kendall streams at once.

    Returns ``(keys, valid)``.  Where ``valid[i]``, ``keys[i]`` equals
    ``pack_key(kendall_bits[i], sizes)``; rows on which that raises (a
    non-0/1 bit, or a group word that is not a Kendall codeword) have
    ``valid[i] = False`` and hold zeros.  A block whose width does not
    match *sizes* raises ``ValueError``, as the scalar path does.
    """
    bits = np.asarray(kendall_bits)
    layout = pack_layout(tuple(sizes))
    if bits.ndim != 2 or bits.shape[1] != layout.stream_bits:
        raise ValueError(f"expected a (B, {layout.stream_bits}) block "
                         f"for sizes {tuple(sizes)}")
    valid = ((bits == 0) | (bits == 1)).all(axis=1)
    bits = (bits == 1).view(np.uint8)
    keys = np.zeros((bits.shape[0], layout.key_bits), dtype=np.uint8)
    for group_class in layout.classes:
        size = group_class.size
        words = bits[:, group_class.kendall_cols]
        if size == 2:
            # A 2-group's single Kendall bit is its compact bit.
            keys[:, group_class.compact_cols] = words
            continue
        if size <= TABLE_MAX_SIZE:
            table_bits, table_valid = _word_table(size)
            index = words @ (1 << np.arange(words.shape[2] - 1, -1, -1))
            packed, ok = table_bits[index], table_valid[index]
        else:
            packed, ok = _rank_words(words.reshape(-1, words.shape[2]),
                                     size)
            packed = packed.reshape(words.shape[:2] + (-1,))
            ok = ok.reshape(words.shape[:2])
        keys[:, group_class.compact_cols] = packed
        valid &= ok.all(axis=1)
    keys[~valid] = 0
    return keys, valid


def packed_length(sizes: Sequence[int]) -> int:
    """Key length in bits after entropy packing."""
    return sum(compact_bit_count(size) for size in sizes)


def packing_loss_bits(sizes: Sequence[int]) -> float:
    """Residual non-uniformity after packing, in bits.

    ``Σ_j (ceil(log2 g_j!) − log2 g_j!)`` — zero only when every group
    size has a factorial that is a power of two (``g <= 2``).
    """
    return float(sum(compact_bit_count(size) - log2(factorial(size))
                     for size in sizes))
