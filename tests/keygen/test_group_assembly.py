"""Batched Kendall extraction and key assembly, pinned to the scalar path."""

from dataclasses import replace

import numpy as np
import pytest

from repro.grouping import GroupingHelper, kendall_encode, pack_key
from repro.keygen import GroupBasedKeyGen, kendall_stream
from repro.keygen.base import key_check_digest, key_check_digests
from repro.keygen.batch import FrontierPlan, SketchCompletion, pair_block
from repro.keygen.group_based import KendallPairs, _PackKeyAssembler

GROUPS = ((0, 1), (2, 3, 4), (9, 5, 7, 6), (8, 10), (11,),
          (12, 13, 14, 15, 16, 17))
SIZES = (2, 3, 4, 3)


class TestKendallPairs:
    def test_matches_scalar_stream_on_special_values(self):
        residuals = np.random.default_rng(1).normal(size=(60, 18))
        # Ties, signed zeros, infinities and NaN exercise the stable
        # descending-sort convention of the scalar path.
        residuals[::3, 2] = residuals[::3, 3]
        residuals[1::4, 0], residuals[1::4, 1] = 0.0, -0.0
        residuals[2::5, 5], residuals[3::5, 6] = np.inf, -np.inf
        residuals[::7, 9] = np.nan
        residuals[::6, 13] = np.nan
        residuals[::12, 15] = np.nan
        residuals[::9, 7] = np.nan
        grouping = GroupingHelper(GROUPS, 1.0)
        batch = KendallPairs(grouping.groups)(residuals)
        assert batch.dtype == np.uint8
        for row, bits in zip(residuals, batch):
            np.testing.assert_array_equal(bits,
                                          kendall_stream(row, grouping))

    def test_repeated_members_tie(self):
        grouping = GroupingHelper(((3, 3, 1), (0, 2)), 1.0)
        residuals = np.random.default_rng(2).normal(size=(10, 4))
        for row, bits in zip(residuals,
                             KendallPairs(grouping.groups)(residuals)):
            np.testing.assert_array_equal(bits,
                                          kendall_stream(row, grouping))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            KendallPairs(((0, 1), ()))

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError):
            KendallPairs(GROUPS)(np.zeros(18))


class TestKeyCheckDigests:
    @pytest.mark.parametrize("width", [0, 1, 7, 8, 13, 64])
    def test_rows_match_scalar_digest(self, width):
        keys = np.random.default_rng(width).integers(0, 2, (5, width),
                                                     dtype=np.uint8)
        assert key_check_digests(keys) == [key_check_digest(k)
                                           for k in keys]

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError):
            key_check_digests(np.zeros(8, dtype=np.uint8))


def enrolled_completion(identity):
    """An enrolled stream and its group-based completion.

    With *identity* every group is in label order, so the key packs to
    all zeros -- what an invalid row's zeroed key holds -- and only the
    validity mask keeps invalid recoveries failing.
    """
    rng = np.random.default_rng(7)
    pick = np.arange if identity else rng.permutation
    stream = np.concatenate([kendall_encode(pick(size)) for size in SIZES])
    sketch = GroupBasedKeyGen().sketch_for(stream.size)
    key = pack_key(stream, SIZES)
    return stream, SketchCompletion(
        sketch, sketch.generate(stream, rng), key_check_digest(key),
        assemble=_PackKeyAssembler(SIZES))


class GivenPatterns:
    """An extraction whose readings are the response bits themselves."""

    @staticmethod
    def checked(readings):
        return readings.astype(np.uint8), None


def lone_outcomes(completion, patterns, memo=None):
    """*patterns* completed by *completion*, as one block planned alone."""
    block = pair_block(GivenPatterns(), completion.sketch,
                       completion.parsed, completion.key_check,
                       {} if memo is None else memo, completion.assemble)
    (outcomes,) = FrontierPlan([(block, patterns.astype(float),
                                 np.zeros((1, patterns.shape[1])))
                                ]).execute()
    return outcomes


class RefusingAssembler:
    """Key assembly that refuses every recovery, alone and in blocks."""

    def __call__(self, recovered):
        raise ValueError("refused")

    def batch(self, recovered):
        raise ValueError("refused")


def patterns_around(stream):
    rng = np.random.default_rng(8)
    noisy = stream ^ (rng.random((40, stream.size)) < 0.1)
    arbitrary = rng.integers(0, 2, (80, stream.size))
    return np.vstack([stream[None], noisy, arbitrary]).astype(np.uint8)


@pytest.mark.parametrize("identity", [False, True])
class TestPackKeyCompletion:
    def test_block_assembly_matches_scalar_completion(self, identity):
        stream, completion = enrolled_completion(identity)
        patterns = patterns_around(stream)
        expected = [completion.complete(row) for row in patterns]
        assert lone_outcomes(completion, patterns).tolist() == expected
        assert expected[0] and not all(expected)

    def test_assembly_error_fails_every_fresh_row(self, identity):
        stream, completion = enrolled_completion(identity)
        refusing = replace(completion, assemble=RefusingAssembler())
        patterns = patterns_around(stream)
        assert not any(refusing.complete(row) for row in patterns)
        memo = {}
        assert not lone_outcomes(refusing, patterns, memo).any()
        assert memo and not any(memo.values())

    def test_block_includes_invalid_kendall_recoveries(self, identity):
        # Mis-corrections that decode to non-Kendall words must fail
        # the row (as the scalar ValueError does), not the block.
        stream, completion = enrolled_completion(identity)
        recovered, ok = completion.sketch.recover_batch(
            patterns_around(stream), completion.helper)
        keys, valid = completion.assemble.batch(recovered[ok])
        assert not valid.all() and valid.any()
        for row, key, good in zip(recovered[ok], keys, valid):
            try:
                expected = pack_key(row, SIZES)
            except ValueError:
                assert not good
                continue
            assert good
            np.testing.assert_array_equal(key, expected)
