"""One-pass lone-block planning ≡ scalar completion.

A frontier group of one block extracts the rows its extraction accepts,
groups them with one ``row_groups`` call, keys and looks up every
distinct pattern in one memo pass (``_memo_groups``), and ``finalize``
scatters the fresh outcomes back in one pass.  Whatever the row subset,
duplication or memo state, every accepted row must equal the scalar
``SketchCompletion.complete`` of its pattern, refused rows must stay
``False``, memo keys must be the patterns' ``tobytes()``, and only the
patterns the memo has not seen may reach the kernel.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.ecc.sketch import SketchData
from repro.keygen import FuzzyExtractorKeyGen, HardenedSequentialKeyGen
from repro.keygen.batch import (
    FrontierPlan,
    SketchCompletion,
    _memo_groups,
    pair_block,
)
from repro.puf import ROArray, ROArrayParams

PARAMS = ROArrayParams(rows=8, cols=16)


def block_case(keygen, array_seed, enroll_seed):
    """Four extracted rows and the scalar completion of the enrolled
    helper's block."""
    array = ROArray(PARAMS, rng=array_seed)
    helper, _ = keygen.enroll(array, rng=enroll_seed)
    block = keygen.batch_evaluator(array, helper).block
    bits, _ = block.checked(array.measure_frequencies_batch(4))
    return bits, SketchCompletion(block.sketch, SketchData(block.parsed),
                                  block.key_check, block.assemble)


def fuzzy_case():
    return block_case(FuzzyExtractorKeyGen(8, 16, 64), 5, 1)


def hardened_case():
    return block_case(HardenedSequentialKeyGen(threshold=250e3), 7, 2)


CASES = {"fuzzy": fuzzy_case, "hardened": hardened_case}


@dataclass(frozen=True)
class GivenBits:
    """An extraction whose readings are the response bits themselves;
    only *rows* are accepted (every row when ``None``)."""

    rows: Optional[np.ndarray] = None

    def checked(self, readings):
        accepted = None
        if self.rows is not None:
            accepted = np.zeros(readings.shape[0], dtype=bool)
            accepted[self.rows] = True
        return readings.astype(np.uint8), accepted


def noisy_block(bits, t, count, seed, pool=12):
    """*count* rows drawn from *pool* patterns of 0..2t flips each."""
    rng = np.random.default_rng(seed)
    patterns = np.repeat(bits[:1], pool, axis=0)
    for row in patterns[1:]:
        flips = rng.choice(row.size, size=int(rng.integers(0, 2 * t + 1)),
                           replace=False)
        row[flips] ^= 1
    return patterns[rng.integers(0, pool, size=count)]


def check_plan(bits, rows, completion, memo):
    """Plan, execute and compare one lone block; returns its outcomes."""
    planned = range(bits.shape[0]) if rows is None else rows
    # The scalar reference, once per distinct pattern.
    truth = {}
    for row in planned:
        key = bits[row].tobytes()
        if key not in truth:
            truth[key] = completion.complete(bits[row])
    expected = np.zeros(bits.shape[0], dtype=bool)
    for row in planned:
        expected[row] = truth[bits[row].tobytes()]
    seen = set(truth)
    unseen = seen - set(memo)
    block = pair_block(GivenBits(rows), completion.sketch,
                       completion.parsed, completion.key_check, memo,
                       completion.assemble)
    frontier = FrontierPlan([(block, bits.astype(float),
                              np.zeros((1, bits.shape[1])))])
    (workload,) = frontier.workloads
    if unseen:
        assert workload.rows == len(unseen)
    else:
        assert workload is None
    (outcomes,) = frontier.execute()
    np.testing.assert_array_equal(outcomes, expected)
    assert all(memo[key] == value for key, value in truth.items())
    return outcomes


@pytest.mark.parametrize("case", sorted(CASES))
class TestBuildPlanMatchesScalar:
    @pytest.mark.parametrize("count", [1, 9, 64, 65, 300])
    def test_cold_memo(self, case, count):
        bits, completion = CASES[case]()
        t = completion.sketch.code.t
        block = noisy_block(bits, t, count, seed=count)
        outcomes = check_plan(block, None, completion, {})
        if count > 64:
            assert 0 < outcomes.sum() < count

    @pytest.mark.parametrize("count", [9, 300])
    def test_partly_and_fully_warm_memo(self, case, count):
        bits, completion = CASES[case]()
        t = completion.sketch.code.t
        block = noisy_block(bits, t, count, seed=100 + count)
        memo = {}
        check_plan(block[: count // 3], None, completion, memo)
        warm = dict(memo)
        check_plan(block, None, completion, memo)
        assert set(warm) <= set(memo)
        assert all(memo[key] == value for key, value in warm.items())
        # Fully warm: nothing reaches the kernel.
        check_plan(block[::-1].copy(), None, completion, memo)

    @pytest.mark.parametrize("count", [9, 300])
    def test_row_subsets(self, case, count):
        bits, completion = CASES[case]()
        t = completion.sketch.code.t
        block = noisy_block(bits, t, count, seed=200 + count)
        rng = np.random.default_rng(count)
        memo = {}
        for rows in (np.flatnonzero(rng.random(count) < 0.5),
                     np.array([count - 1]),
                     np.arange(count)):
            check_plan(block, rows, completion, memo)

    def test_empty_row_subset(self, case):
        bits, completion = CASES[case]()
        block = np.repeat(bits[:1], 5, axis=0)
        memo = {}
        outcomes = check_plan(block, np.array([], dtype=np.intp),
                              completion, memo)
        assert not outcomes.any() and memo == {}

    @pytest.mark.parametrize("count", [7, 200])
    def test_all_duplicate_block(self, case, count):
        bits, completion = CASES[case]()
        t = completion.sketch.code.t
        pattern = noisy_block(bits, t, 1, seed=count)
        block = np.repeat(pattern, count, axis=0)
        memo = {}
        check_plan(block, None, completion, memo)
        assert len(memo) == 1
        check_plan(block, np.arange(0, count, 2), completion, memo)


class TestDegenerateWidths:
    """The one memo pass every group takes, on degenerate rows."""

    def test_zero_width_patterns(self):
        block = np.zeros((70, 0), dtype=np.uint8)
        first, inverse, keys, known = _memo_groups(block, ({},))
        assert first.tolist() == [0] and keys == [b""]
        assert known.tolist() == [-1] and not inverse.any()
        _, inverse, keys, known = _memo_groups(block[::3],
                                               ({b"": True},))
        assert keys == [b""] and known.tolist() == [1]
        assert inverse.shape == (24,) and not inverse.any()

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
    def test_memo_keys_are_row_bytes(self, dtype):
        rng = np.random.default_rng(3)
        block = rng.integers(0, 2, size=(100, 5)).astype(dtype)
        memo = {block[0].tobytes(): True}
        first, inverse, keys, known = _memo_groups(block, (memo,))
        assert set(keys) == {row.tobytes() for row in block}
        assert [keys[group] for group in inverse] \
            == [row.tobytes() for row in block]
        assert [block[row].tobytes() for row in first] == keys
        assert known.tolist() == [1 if key in memo else -1
                                  for key in keys]
