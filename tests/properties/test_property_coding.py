"""Property-based tests for Kendall coding, packing and parity graphs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.temp_aware_attack import ParityUnionFind
from repro.grouping import (
    adjacent_swap_distance,
    compact_decode,
    compact_encode,
    grouping_entropy,
    group_ros,
    kendall_decode,
    kendall_encode,
    order_from_frequencies,
    pack_key,
    pack_key_batch,
    packed_length,
    verify_grouping,
)
from repro.fuzzy import ToeplitzHash


def permutations_of(size):
    return st.permutations(list(range(size)))


class TestKendallProperties:
    @given(order=permutations_of(5))
    def test_roundtrip(self, order):
        assert kendall_decode(kendall_encode(order), 5) == tuple(order)

    @given(order=permutations_of(5))
    def test_compact_roundtrip(self, order):
        assert compact_decode(compact_encode(order), 5) == tuple(order)

    @given(a=permutations_of(5), b=permutations_of(5))
    def test_kendall_distance_is_metric(self, a, b):
        d = adjacent_swap_distance(a, b)
        assert d == adjacent_swap_distance(b, a)
        assert (d == 0) == (tuple(a) == tuple(b))
        assert d <= 10  # max = 5*4/2

    @given(a=permutations_of(4), b=permutations_of(4),
           c=permutations_of(4))
    def test_kendall_triangle_inequality(self, a, b, c):
        assert adjacent_swap_distance(a, c) <= \
            adjacent_swap_distance(a, b) + adjacent_swap_distance(b, c)

    @given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=2, max_size=8, unique=True))
    def test_order_from_frequencies_sorts_descending(self, values):
        order = order_from_frequencies(values)
        sorted_values = [values[i] for i in order]
        assert sorted_values == sorted(values, reverse=True)


class TestGroupingProperties:
    @given(freqs=st.lists(st.floats(0, 1e6, allow_nan=False),
                          min_size=1, max_size=60),
           threshold=st.floats(0, 1e5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_grouping_invariants(self, freqs, threshold):
        freqs = np.array(freqs)
        groups = group_ros(freqs, threshold)
        assert verify_grouping(freqs, groups, threshold)
        assert grouping_entropy(groups) >= 0.0

    @given(orders=st.lists(permutations_of(3), min_size=1, max_size=5))
    def test_pack_key_length(self, orders):
        stream = np.concatenate([kendall_encode(o) for o in orders])
        sizes = [3] * len(orders)
        key = pack_key(stream, sizes)
        assert key.shape == (packed_length(sizes),)

    @given(sizes=st.lists(st.integers(1, 8), max_size=6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pack_key_batch_pinned_to_scalar(self, sizes, data):
        # Rows mix valid streams with arbitrary (mostly invalid) words.
        width = sum(size * (size - 1) // 2 for size in sizes)
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                rows.append(np.concatenate(
                    [kendall_encode(data.draw(permutations_of(size)))
                     for size in sizes] + [np.zeros(0, np.uint8)]))
            else:
                rows.append(np.array(data.draw(st.lists(
                    st.integers(0, 1), min_size=width, max_size=width)),
                    dtype=np.uint8))
        block = np.stack(rows)
        keys, valid = pack_key_batch(block, sizes)
        for row, key, ok in zip(block, keys, valid):
            try:
                expected = pack_key(row, sizes)
            except ValueError:
                assert not ok
                continue
            assert ok
            np.testing.assert_array_equal(key, expected)


class TestParityUnionFindProperties:
    @given(assignment=st.lists(st.integers(0, 1), min_size=2,
                               max_size=12),
           edges=st.data())
    @settings(max_examples=60, deadline=None)
    def test_relations_consistent_with_assignment(self, assignment,
                                                  edges):
        size = len(assignment)
        graph = ParityUnionFind(size)
        for _ in range(size * 2):
            a = edges.draw(st.integers(0, size - 1))
            b = edges.draw(st.integers(0, size - 1))
            if a == b:
                continue
            parity = assignment[a] ^ assignment[b]
            assert graph.union(a, b, parity)
        for a in range(size):
            for b in range(size):
                relation = graph.relation(a, b)
                if relation is not None:
                    assert relation == assignment[a] ^ assignment[b]

    @given(size=st.integers(2, 10))
    def test_conflicting_edge_detected(self, size):
        graph = ParityUnionFind(size)
        assert graph.union(0, 1, 0)
        assert not graph.union(1, 0, 1)


class TestToeplitzProperties:
    @given(word_a=st.lists(st.integers(0, 1), min_size=12, max_size=12),
           word_b=st.lists(st.integers(0, 1), min_size=12, max_size=12),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_gf2_linearity(self, word_a, word_b, seed):
        hasher = ToeplitzHash.random(12, 5, rng=seed)
        a = np.array(word_a, dtype=np.uint8)
        b = np.array(word_b, dtype=np.uint8)
        assert np.array_equal(hasher(a) ^ hasher(b), hasher(a ^ b))
