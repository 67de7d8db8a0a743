"""Tests for entropy packing (paper §V-E)."""

from itertools import permutations
from math import log2

import numpy as np
import pytest

from repro.grouping import (
    compact_encode,
    kendall_bit_count,
    kendall_encode,
    pack_group,
    pack_key,
    pack_key_batch,
    pack_layout,
    packed_length,
    packing_loss_bits,
    split_blocks,
    unpack_group,
)


class TestPackGroup:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_pack_equals_compact_of_decoded_order(self, size):
        for order in permutations(range(size)):
            packed = pack_group(kendall_encode(order), size)
            np.testing.assert_array_equal(packed, compact_encode(order))

    def test_unpack_inverts_pack(self):
        for order in permutations(range(4)):
            kendall = kendall_encode(order)
            np.testing.assert_array_equal(
                unpack_group(pack_group(kendall, 4), 4), kendall)

    def test_invalid_kendall_word_rejected(self):
        with pytest.raises(ValueError):
            pack_group(np.array([0, 1, 0], dtype=np.uint8), 3)


class TestSplitBlocks:
    def test_chunks_follow_group_sizes(self):
        sizes = [2, 3, 4]
        total = 1 + 3 + 6
        bits = np.arange(total) % 2
        chunks = split_blocks(bits.astype(np.uint8), sizes)
        assert [c.shape[0] for c in chunks] == [1, 3, 6]

    def test_wrong_total_length_rejected(self):
        with pytest.raises(ValueError):
            split_blocks(np.zeros(5, dtype=np.uint8), [2, 3])


class TestPackKey:
    def test_multi_group_concatenation(self):
        orders = [(1, 0), (2, 0, 1)]
        kendall = np.concatenate([kendall_encode(o) for o in orders])
        key = pack_key(kendall, [2, 3])
        expected = np.concatenate([compact_encode(o) for o in orders])
        np.testing.assert_array_equal(key, expected)

    def test_packed_length_accounting(self):
        assert packed_length([2, 3, 4]) == 1 + 3 + 5

    def test_empty_input(self):
        assert pack_key(np.zeros(0, dtype=np.uint8), []).shape == (0,)


def _scalar_or_none(stream, sizes):
    try:
        return pack_key(stream, sizes)
    except ValueError:
        return None


def assert_pinned_to_scalar(block, sizes):
    """Every row of ``pack_key_batch`` equals the scalar reference."""
    keys, valid = pack_key_batch(block, sizes)
    assert keys.dtype == np.uint8
    assert keys.shape == (block.shape[0], packed_length(sizes))
    for row, key, ok in zip(block, keys, valid):
        expected = _scalar_or_none(row, sizes)
        assert ok == (expected is not None)
        np.testing.assert_array_equal(key, expected if ok else 0)


def all_words(size):
    width = kendall_bit_count(size)
    shifts = np.arange(width)
    return ((np.arange(1 << width)[:, None] >> shifts) & 1).astype(np.uint8)


def streams_for(sizes, rows, rng):
    """Valid streams of random orders, a third of rows with flipped bits."""
    block = np.stack([
        np.concatenate([kendall_encode(rng.permutation(size))
                        for size in sizes])
        for _ in range(rows)])
    flips = rng.random(block.shape) < 0.05
    flips[: 2 * rows // 3] = False
    return block ^ flips


class TestPackKeyBatch:
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5])
    def test_every_word_of_a_table_size(self, size):
        # Sizes up to 5 go through the lookup table; every Kendall word,
        # valid or not, must match the scalar path.
        assert_pinned_to_scalar(all_words(size), [size])

    @pytest.mark.parametrize("size", [6, 7, 9])
    def test_arithmetic_rank_sizes(self, size):
        rng = np.random.default_rng(size)
        assert_pinned_to_scalar(streams_for([size], 60, rng), [size])

    def test_rank_beyond_int64(self):
        # 21! > 2^63: ranks fall back to exact Python integers.
        rng = np.random.default_rng(21)
        assert_pinned_to_scalar(streams_for([21, 2], 6, rng), [21, 2])

    def test_mixed_size_classes_keep_group_order(self):
        sizes = [3, 2, 7, 2, 5, 1, 4, 12, 3, 2]
        rng = np.random.default_rng(5)
        assert_pinned_to_scalar(streams_for(sizes, 90, rng), sizes)

    def test_size_two_is_the_identity(self):
        block = np.random.default_rng(0).integers(0, 2, (8, 6),
                                                  dtype=np.uint8)
        keys, valid = pack_key_batch(block, [2] * 6)
        assert valid.all()
        np.testing.assert_array_equal(keys, block)

    def test_non_binary_entries_invalidate_the_row(self):
        block = np.array([[0, 1, 1, 0], [0, 2, 1, 0], [1, 0, 0, 1]])
        assert_pinned_to_scalar(block, [2, 3])
        keys, valid = pack_key_batch(block, [2, 3])
        assert valid.tolist() == [True, False, True]

    def test_bool_and_float_blocks(self):
        block = all_words(4)
        expected = pack_key_batch(block, [4])
        for kind in (bool, float):
            got = pack_key_batch(block.astype(kind), [4])
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_key_batch(np.zeros((2, 5), dtype=np.uint8), [2, 3])
        with pytest.raises(ValueError):
            pack_key_batch(np.zeros(4, dtype=np.uint8), [2, 3])

    def test_empty_layout(self):
        keys, valid = pack_key_batch(np.zeros((3, 0), dtype=np.uint8), [])
        assert keys.shape == (3, 0) and valid.all()

    def test_layout_covers_every_column_once(self):
        sizes = (4, 2, 6, 2, 3)
        layout = pack_layout(sizes)
        assert [c.size for c in layout.classes] == [2, 3, 4, 6]
        for name, total in (("member_cols", sum(sizes)),
                            ("kendall_cols", layout.stream_bits),
                            ("compact_cols", layout.key_bits)):
            columns = np.concatenate([getattr(c, name).ravel()
                                      for c in layout.classes])
            assert sorted(columns.tolist()) == list(range(total))


class TestPackingLoss:
    def test_size_two_is_lossless(self):
        assert packing_loss_bits([2, 2, 2]) == pytest.approx(0.0)

    def test_larger_groups_lose_fraction(self):
        # ceil(log2 g!) - log2 g! > 0 for g = 3, 4 (paper §V-E: the fix
        # is partial since g! is not a power of two).
        loss3 = packing_loss_bits([3])
        loss4 = packing_loss_bits([4])
        assert loss3 == pytest.approx(3 - log2(6))
        assert loss4 == pytest.approx(5 - log2(24))
        assert loss3 > 0 and loss4 > 0

    def test_losses_accumulate(self):
        assert packing_loss_bits([3, 4]) == pytest.approx(
            packing_loss_bits([3]) + packing_loss_bits([4]))
