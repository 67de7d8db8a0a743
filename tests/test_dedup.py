"""Row-dedup primitives: edge cases, regime equality, byte identity.

``_dedup`` switches between hashed ``tobytes`` grouping (blocks of at
most ``SMALL_BLOCK`` rows) and keyed grouping (one sort over packed
64-bit words for 0/1 rows, one 1-D ``np.unique`` over ``np.void`` row
keys otherwise) above it.  Consumers scatter per-pattern
results back by index, so the two regimes must agree on group
*contents* (patterns and ascending index sets) even though their
iteration order differs.  Pinned here: both regimes against each other
and against a ``np.unique(axis=0)`` reference grouping on randomized
inputs of every dtype the program feeds them, memory layouts and row
subsets, together with the degenerate shapes (empty input, single row,
zero-width rows) and byte identity of float rows.
"""

import numpy as np
import pytest

import repro._dedup as dedup
from repro._dedup import SMALL_BLOCK, row_groups, unique_rows


def as_indices(indices):
    return [int(i) for i in indices]


def group_list(matrix, rows=None):
    """``(pattern, indices)`` per distinct row, from ``row_groups``.

    *rows* restricts the grouping to a subset; ``indices`` are positions
    in *matrix*, in the order they appear in *rows*.
    """
    if rows is None:
        rows = np.arange(matrix.shape[0])
    subset = matrix[rows]
    first, inverse = row_groups(subset)
    return [(subset[row], rows[inverse == group])
            for group, row in enumerate(first)]


def groups_as_dict(matrix, rows=None):
    """Map pattern bytes -> sorted original indices for one iteration."""
    out = {}
    for pattern, indices in group_list(matrix, rows):
        key = pattern.tobytes()
        assert key not in out, "pattern yielded twice"
        out[key] = sorted(as_indices(indices))
    return out


class TestEdgeCases:
    def test_empty_matrix(self):
        matrix = np.zeros((0, 5), dtype=np.uint8)
        assert group_list(matrix) == []
        distinct, inverse = unique_rows(matrix)
        assert distinct.shape == (0, 5)
        assert inverse.shape == (0,)

    def test_empty_row_subset(self):
        matrix = np.ones((4, 3), dtype=np.uint8)
        assert group_list(matrix, np.array([], dtype=np.intp)) == []

    def test_single_row(self):
        matrix = np.array([[1, 0, 1]], dtype=np.uint8)
        ((pattern, indices),) = group_list(matrix)
        np.testing.assert_array_equal(pattern, matrix[0])
        np.testing.assert_array_equal(indices, [0])
        distinct, inverse = unique_rows(matrix)
        np.testing.assert_array_equal(distinct, matrix)
        np.testing.assert_array_equal(inverse, [0])

    def test_row_subset_indices_refer_to_original_matrix(self):
        matrix = np.array([[1, 1], [0, 0], [1, 1], [0, 1]],
                          dtype=np.uint8)
        rows = np.array([0, 2, 3])
        observed = groups_as_dict(matrix, rows)
        assert observed[matrix[0].tobytes()] == [0, 2]
        assert observed[matrix[3].tobytes()] == [3]
        assert matrix[1].tobytes() not in observed


class TestStrategyCrossover:
    """Hashed vs keyed grouping of the same block, regime forced."""

    @pytest.mark.parametrize("count", [127, 128, 129, 256])
    def test_unique_rows_strategies_bitwise_equal(self, count,
                                                  monkeypatch):
        rng = np.random.default_rng(1000 + count)
        # Few distinct patterns, as in real completion workloads.
        patterns = rng.integers(0, 2, size=(5, 16)).astype(np.uint8)
        matrix = patterns[rng.integers(0, 5, size=count)]

        monkeypatch.setattr(dedup, "SMALL_BLOCK", matrix.shape[0])
        hashed_distinct, hashed_inverse = unique_rows(matrix)
        monkeypatch.setattr(dedup, "SMALL_BLOCK", 0)
        sorted_distinct, sorted_inverse = unique_rows(matrix)

        # Orders differ (first-occurrence vs sorted keys); the
        # scatter-back reconstruction must be bitwise-identical.
        np.testing.assert_array_equal(
            hashed_distinct[hashed_inverse],
            sorted_distinct[sorted_inverse])
        np.testing.assert_array_equal(hashed_distinct[hashed_inverse],
                                      matrix)
        assert sorted(d.tobytes() for d in hashed_distinct) \
            == sorted(d.tobytes() for d in sorted_distinct)

    @pytest.mark.parametrize("count", [128, 129])
    def test_row_groups_strategies_group_identically(
            self, count, monkeypatch):
        rng = np.random.default_rng(2000 + count)
        patterns = rng.integers(0, 2, size=(7, 9)).astype(np.uint8)
        matrix = patterns[rng.integers(0, 7, size=count)]

        monkeypatch.setattr(dedup, "SMALL_BLOCK", matrix.shape[0])
        hashed = groups_as_dict(matrix)
        monkeypatch.setattr(dedup, "SMALL_BLOCK", 0)
        structured = groups_as_dict(matrix)
        assert hashed == structured
        # Groups partition the row indices exactly once.
        assert sorted(i for idx in hashed.values() for i in idx) \
            == list(range(count))


def reference_groups(matrix, rows=None):
    """Pattern bytes -> row indices via ``np.unique(axis=0)``."""
    if rows is None:
        rows = np.arange(matrix.shape[0])
    subset = matrix[rows]
    unique, inverse = np.unique(subset, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return {unique[g].tobytes(): as_indices(rows[inverse == g])
            for g in range(unique.shape[0])}


def pooled(dtype, count, seed, cols=127, pool=40):
    """*count* rows drawn from a pool of few distinct *dtype* rows."""
    rng = np.random.default_rng(seed)
    if dtype == np.int64:
        # Syndrome-like values spanning several bytes, with negatives.
        patterns = rng.integers(-2 ** 40, 2 ** 40, size=(pool, 10))
    else:
        patterns = rng.integers(0, 2, size=(pool, cols)).astype(dtype)
    return patterns[rng.integers(0, pool, size=count)]


@pytest.fixture(params=["hashed", "keyed"])
def regime(request, monkeypatch):
    """Force every block onto one grouping regime."""
    monkeypatch.setattr(dedup, "SMALL_BLOCK",
                        10 ** 9 if request.param == "hashed" else 0)
    return request.param


class TestKeyedRegime:
    """The large-block regime against a ``np.unique(axis=0)`` reference."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64],
                             ids=["uint8", "bool", "int64"])
    @pytest.mark.parametrize("count", [129, 1000, 4096])
    def test_groups_match_reference(self, dtype, count):
        assert count > SMALL_BLOCK
        matrix = pooled(dtype, count, seed=count)
        assert groups_as_dict(matrix) == reference_groups(matrix)

    @pytest.mark.parametrize("layout", ["column-slice", "fortran"])
    def test_non_contiguous_input(self, layout):
        wide = pooled(np.uint8, 1000, seed=11, cols=200)
        matrix = (wide[:, 3:130] if layout == "column-slice"
                  else np.asfortranarray(wide[:, :127]))
        assert not matrix.flags.c_contiguous
        assert groups_as_dict(matrix) == reference_groups(matrix)
        distinct, inverse = unique_rows(matrix)
        np.testing.assert_array_equal(distinct[inverse], matrix)

    def test_row_subset(self):
        matrix = pooled(np.uint8, 1000, seed=12)
        mask = np.random.default_rng(13).random(1000) < 0.6
        rows = np.flatnonzero(mask)
        assert rows.size > SMALL_BLOCK
        observed = groups_as_dict(matrix, rows)
        assert observed == reference_groups(matrix, rows)
        # Groups partition exactly the selected rows.
        assert sorted(i for idx in observed.values() for i in idx) \
            == as_indices(rows)

    @pytest.mark.parametrize("count", [129, 1000])
    def test_indices_ascending_within_groups(self, count):
        matrix = pooled(np.uint8, count, seed=20 + count)
        for pattern, indices in group_list(matrix):
            assert np.all(np.diff(indices) > 0)
            assert np.all(matrix[indices] == pattern)

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64],
                             ids=["uint8", "bool", "int64"])
    @pytest.mark.parametrize("count", [129, 1000, 4096])
    def test_unique_rows_scatter_back(self, dtype, count):
        matrix = pooled(dtype, count, seed=30 + count)
        distinct, inverse = unique_rows(matrix)
        np.testing.assert_array_equal(distinct[inverse], matrix)
        assert len({row.tobytes() for row in distinct}) \
            == distinct.shape[0] == len(reference_groups(matrix))


class TestPackedBitRows:
    """Large blocks of 0/1 rows group bit-packed, exactly as their byte
    keys would; other rows group on the byte keys themselves."""

    @staticmethod
    def byte_key_groups(matrix):
        data = np.ascontiguousarray(matrix)
        keys = data.view(np.dtype(
            (np.void, data.dtype.itemsize * data.shape[1]))).reshape(-1)
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        return first, inverse.reshape(-1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_],
                             ids=["uint8", "bool"])
    @pytest.mark.parametrize("cols", [1, 8, 9, 63, 64, 65, 127])
    def test_same_groups_in_the_same_order(self, dtype, cols):
        matrix = pooled(dtype, 300, seed=cols, cols=cols)
        first, inverse = row_groups(matrix)
        expected_first, expected_inverse = self.byte_key_groups(matrix)
        np.testing.assert_array_equal(first, expected_first)
        np.testing.assert_array_equal(inverse, expected_inverse)

    def test_non_bit_values_keep_byte_keys(self):
        matrix = pooled(np.uint8, 300, seed=5, cols=16)
        matrix[::7, 3] = 2
        first, inverse = row_groups(matrix)
        expected_first, expected_inverse = self.byte_key_groups(matrix)
        np.testing.assert_array_equal(first, expected_first)
        np.testing.assert_array_equal(inverse, expected_inverse)
        assert groups_as_dict(matrix) == reference_groups(matrix)


class TestByteIdentity:
    """Both regimes share one row identity: raw byte equality."""

    def test_zero_width_rows_form_one_group(self, regime):
        matrix = np.zeros((300, 0), dtype=np.uint8)
        ((pattern, indices),) = group_list(matrix)
        assert pattern.shape == (0,)
        np.testing.assert_array_equal(indices, np.arange(300))
        distinct, inverse = unique_rows(matrix)
        assert distinct.shape == (1, 0)
        np.testing.assert_array_equal(inverse, np.zeros(300))

    def test_signed_zero_floats_are_distinct_patterns(self, regime):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0]])
        matrix = rows[np.arange(300) % 2]
        groups = groups_as_dict(matrix)
        assert sorted(groups.values()) == [list(range(0, 300, 2)),
                                           list(range(1, 300, 2))]
        distinct, inverse = unique_rows(matrix)
        assert distinct.shape == (2, 2)
        assert distinct[inverse].tobytes() == matrix.tobytes()


class TestOwnerKeys:
    """``row_groups(matrix, owner)`` groups by ``(owner, row bytes)``.

    Large blocks key each row on integers (its packed bits or bytes in
    64-bit words, with the owner OR-ed into spare low bytes or sorted
    as one more key); small blocks hash the owner's four bytes
    followed by the row's bytes.  Both must give the groups of that
    byte key.
    """

    @staticmethod
    def byte_key_groups(matrix, owner):
        data = np.concatenate(
            [owner.astype(">u4").view(np.uint8).reshape(-1, 4),
             np.ascontiguousarray(matrix).view(np.uint8)], axis=1)
        first, inverse = TestPackedBitRows.byte_key_groups(data)
        return first, inverse

    @staticmethod
    def contents(first, inverse):
        groups = [tuple(np.flatnonzero(inverse == group).tolist())
                  for group in range(first.size)]
        # Each group's first row is its first occurrence.
        assert [group[0] for group in groups] == first.tolist()
        return sorted(groups)

    @pytest.mark.parametrize("dtype,cols", [
        (np.uint8, 0), (np.uint8, 1), (np.uint8, 9), (np.uint8, 56),
        (np.uint8, 57), (np.uint8, 64), (np.bool_, 63), (np.bool_, 127),
        (np.int64, 10)])
    # Owners below 256 fit a one-word row's spare byte; 300 does not.
    @pytest.mark.parametrize("owners", [2, 300])
    def test_same_groups_as_byte_keys(self, dtype, cols, owners,
                                      regime):
        count = 600
        matrix = pooled(dtype, count, seed=cols + owners, cols=cols,
                        pool=6)
        owner = np.random.default_rng(owners).integers(0, owners,
                                                       size=count)
        first, inverse = row_groups(matrix, owner)
        assert first.dtype == inverse.dtype == np.intp
        assert self.contents(first, inverse) == self.contents(
            *self.byte_key_groups(matrix, owner))
        np.testing.assert_array_equal(matrix[first][inverse], matrix)
        np.testing.assert_array_equal(owner[first][inverse], owner)

    def test_equal_rows_of_different_owners_stay_apart(self):
        matrix = np.ones((200, 12), dtype=np.uint8)
        owner = np.arange(200) % 3
        first, inverse = row_groups(matrix, owner)
        assert first.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(inverse, owner)

    def test_non_bit_values_keep_byte_keys(self):
        matrix = pooled(np.uint8, 300, seed=5, cols=16)
        matrix[::7, 3] = 2
        owner = np.arange(300) % 5
        assert self.contents(*row_groups(matrix, owner)) \
            == self.contents(*self.byte_key_groups(matrix, owner))
