"""One-pass evaluator planning: ``_build_plan`` ≡ scalar completion.

``_build_plan`` groups a block's rows with one ``row_groups`` call, keys
and looks up every distinct pattern in one memo pass, and ``finalize``
scatters the fresh outcomes back in one pass.  Whatever the row subset,
duplication or memo state, every planned row must equal the scalar
``SketchCompletion.complete`` of its pattern, unplanned rows must stay
``False``, memo keys must be the patterns' ``tobytes()``, and only the
patterns the memo has not seen may reach the kernel.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.keygen import FuzzyExtractorKeyGen, HardenedSequentialKeyGen
from repro.keygen.batch import _build_plan
from repro.puf import ROArray, ROArrayParams

PARAMS = ROArrayParams(rows=8, cols=16)


def fuzzy_case():
    array = ROArray(PARAMS, rng=5)
    keygen = FuzzyExtractorKeyGen(8, 16, 64)
    helper, _ = keygen.enroll(array, rng=1)
    evaluator = keygen.batch_evaluator(array, helper)
    bits = evaluator._extract(array.measure_frequencies_batch(4))
    return bits, evaluator._completion


def hardened_case():
    array = ROArray(PARAMS, rng=7)
    keygen = HardenedSequentialKeyGen(threshold=250e3)
    helper, _ = keygen.enroll(array, rng=2)
    evaluator = keygen.batch_evaluator(array, helper)
    bits = evaluator._extract(array.measure_frequencies_batch(4))
    return bits, evaluator._completion


CASES = {"fuzzy": fuzzy_case, "hardened": hardened_case}


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
    """Plan, execute and compare one block; returns the plan."""
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
    plan = _build_plan(bits, rows, completion, memo, bits.shape[0])
    if unseen:
        assert plan.pending is not None
        assert plan.workload.rows == len(unseen)
    else:
        assert plan.pending is None and plan.workload is None
    outcomes = plan.execute() if unseen else plan.finalize()
    np.testing.assert_array_equal(outcomes, expected)
    assert all(memo[key] == value for key, value in truth.items())
    assert plan.pending is None
    np.testing.assert_array_equal(plan.finalize(), outcomes)
    return plan


@pytest.mark.parametrize("case", sorted(CASES))
class TestBuildPlanMatchesScalar:
    @pytest.mark.parametrize("count", [1, 9, 64, 65, 300])
    def test_cold_memo(self, case, count):
        bits, completion = CASES[case]()
        t = completion.sketch.code.t
        block = noisy_block(bits, t, count, seed=count)
        outcomes = check_plan(block, None, completion, {}).outcomes
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
        plan = check_plan(block, np.array([], dtype=np.intp),
                          completion, memo)
        assert not plan.outcomes.any() and memo == {}

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


@dataclass(frozen=True)
class ParityCompletion:
    """A stand-in completion: a pattern succeeds iff its parity is even."""

    def prepare(self, patterns):
        return None, patterns

    def finish(self, state, outputs):
        return state.sum(axis=1) % 2 == 0

    def complete(self, bits_row):
        return bool(bits_row.sum() % 2 == 0)


class TestDegenerateWidths:
    def test_zero_width_patterns(self):
        block = np.zeros((70, 0), dtype=np.uint8)
        memo = {}
        plan = _build_plan(block, None, ParityCompletion(), memo, 70)
        assert plan.pending is not None
        assert plan.finalize().all()
        assert memo == {b"": True}
        again = _build_plan(block, np.arange(0, 70, 3),
                            ParityCompletion(), memo, 70)
        assert again.pending is None
        np.testing.assert_array_equal(again.finalize(),
                                      np.arange(70) % 3 == 0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
    def test_memo_keys_are_row_bytes(self, dtype):
        rng = np.random.default_rng(3)
        block = rng.integers(0, 2, size=(100, 5)).astype(dtype)
        memo = {}
        plan = _build_plan(block, None, ParityCompletion(), memo, 100)
        np.testing.assert_array_equal(
            plan.finalize(), block.astype(int).sum(axis=1) % 2 == 0)
        assert set(memo) == {row.tobytes() for row in block}
