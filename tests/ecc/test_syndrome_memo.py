"""The per-code syndrome memo of ``BCHCode.solve_syndromes_batch``.

A memo hit must be indistinguishable from a fresh solve: every batch —
cold, warm or mixed, inside or beyond the correction radius, under any
``max_position`` bound — equals the uncached solve core and the scalar
decoders bit for bit.  The memo is also invisible from outside the
process: it never leaks storage to callers, never reaches a pickle and
never changes the kernel identity.
"""

import pickle

import numpy as np
import pytest

from repro.ecc import bch
from repro.ecc.base import DecodingFailure
from repro.ecc.bch import BCHCode, design_bch
from repro.ecc.sketch import SyndromeSketch

CODES = [BCHCode(5, 2), BCHCode(6, 3), design_bch(60, 3)]


def error_words(code, rng, count, max_errors):
    """Random error patterns of weight 0..max_errors."""
    words = np.zeros((count, code.n), dtype=np.uint8)
    for row in words:
        weight = int(rng.integers(0, max_errors + 1))
        row[rng.choice(code.n, size=weight, replace=False)] = 1
    return words


def uncached(code, syndromes, max_position=None):
    """Row-by-row solve through the memo-free core."""
    if max_position is None:
        max_position = code.n
    errors = np.zeros((syndromes.shape[0], code.n), dtype=np.uint8)
    ok = np.zeros(syndromes.shape[0], dtype=bool)
    for i, row in enumerate(syndromes):
        solved, flag = code._solve_distinct_syndromes(
            np.asarray(row, dtype=np.int64)[None, :], max_position)
        errors[i], ok[i] = solved[0], flag[0]
    return errors, ok


def assert_decode_matches_scalar(code, words):
    decoded, ok = code.decode_batch(words)
    for i, word in enumerate(words):
        try:
            expected = code.decode(word)
        except DecodingFailure:
            assert not ok[i]
            assert not decoded[i].any()
        else:
            assert ok[i]
            np.testing.assert_array_equal(decoded[i], expected)


def assert_solve_matches(code, syndromes, max_position=None):
    errors, ok = code.solve_syndromes_batch(syndromes, max_position)
    ref_errors, ref_ok = uncached(code, syndromes, max_position)
    np.testing.assert_array_equal(errors, ref_errors)
    np.testing.assert_array_equal(ok, ref_ok)


@pytest.mark.parametrize("code", CODES, ids=repr)
class TestMemoEquivalence:
    def test_cold_warm_and_mixed_batches(self, code):
        rng = np.random.default_rng(0)
        # Within and beyond t: locator-degree, split and verification
        # failures all get memoised.
        first = error_words(code, rng, 40, 2 * code.t + 1)
        second = error_words(code, rng, 40, 2 * code.t + 1)
        mixed = np.concatenate([second, first[::2], second[::3]])
        rng.shuffle(mixed)
        code = pickle.loads(pickle.dumps(code))  # empty memo
        assert not code._solved
        for batch in (first, first, mixed, second):
            assert_solve_matches(code, code.syndromes_batch(batch))
            assert_decode_matches_scalar(code, batch)
        assert code._solved

    def test_beyond_t_rows_stay_failures_when_warm(self, code):
        rng = np.random.default_rng(1)
        words = error_words(code, rng, 60, 3 * code.t)
        words = words[words.sum(axis=1) > code.t]
        syndromes = code.syndromes_batch(words)
        cold_errors, cold_ok = code.solve_syndromes_batch(syndromes)
        warm_errors, warm_ok = code.solve_syndromes_batch(syndromes)
        np.testing.assert_array_equal(cold_errors, warm_errors)
        np.testing.assert_array_equal(cold_ok, warm_ok)
        assert_solve_matches(code, syndromes)
        assert not warm_errors[~warm_ok].any()

    def test_returned_rows_do_not_alias_the_memo(self, code):
        rng = np.random.default_rng(2)
        words = error_words(code, rng, 10, code.t)
        words[0] = 0
        words[0, :code.t] = 1
        syndromes = code.syndromes_batch(words)
        errors, _ = code.solve_syndromes_batch(syndromes)
        expected = errors.copy()
        errors ^= 1
        again, _ = code.solve_syndromes_batch(syndromes)
        np.testing.assert_array_equal(again, expected)
        again[:] = 7
        decoded, ok = code.decode_batch(words)
        assert ok.all()
        assert not decoded.any()


class TestBoundedPositions:
    def test_same_syndrome_under_different_bounds(self):
        code = design_bch(60, 3)
        error = np.zeros((1, code.n), dtype=np.uint8)
        error[0, [3, 40]] = 1
        syndromes = code.syndromes_batch(error)
        for bound in (code.n, 41, 40, 4, 41, 40, code.n, None):
            errors, ok = code.solve_syndromes_batch(syndromes, bound)
            assert ok[0] == (bound is None or bound > 40)
            np.testing.assert_array_equal(
                errors[0], error[0] if ok[0] else 0)
            assert_solve_matches(code, syndromes, bound)

    @pytest.mark.parametrize("length", [20, 45, 60])
    def test_syndrome_sketch_matches_scalar_recover(self, length):
        code = design_bch(60, 3)
        sketch = SyndromeSketch(code, length)
        rng = np.random.default_rng(length)
        response = rng.integers(0, 2, size=length).astype(np.uint8)
        helper = sketch.generate(response)
        readings = np.tile(response, (60, 1))
        for row in readings:
            flips = rng.choice(length, size=int(rng.integers(0, 6)),
                               replace=False)
            row[flips] ^= 1
        full = np.zeros((readings.shape[0], code.n), dtype=np.uint8)
        full[:, :length] = readings ^ response
        syndromes = code.syndromes_batch(full)
        # Warm the memo under the unbounded code length first, so the
        # sketch's bounded solves meet the same syndromes cached under
        # another bound.
        assert_solve_matches(code, syndromes, code.n)
        for _ in range(2):
            recovered, ok = sketch.recover_batch(readings, helper)
            for i, reading in enumerate(readings):
                try:
                    expected = sketch.recover(reading, helper)
                except DecodingFailure:
                    assert not ok[i]
                    assert not recovered[i].any()
                else:
                    assert ok[i]
                    np.testing.assert_array_equal(recovered[i], expected)
        for bound in (length, code.n, length):
            assert_solve_matches(code, syndromes, bound)


class TestMemoScope:
    def test_pickle_identical_warm_and_empty(self):
        code = design_bch(60, 3)
        code.syndromes_batch(np.zeros((1, code.n), dtype=np.uint8))
        empty = pickle.dumps(code)
        words = error_words(code, np.random.default_rng(3), 30, code.t)
        code.decode_batch(words)
        assert code._solved
        assert pickle.dumps(code) == empty
        clone = pickle.loads(empty)
        assert clone._solved == {}
        assert_decode_matches_scalar(clone, words)

    def test_kernel_key_ignores_memo(self):
        code = design_bch(60, 3)
        before = code.kernel_key()
        code.decode_batch(
            error_words(code, np.random.default_rng(4), 20, code.t))
        assert code._solved
        assert code.kernel_key() == before == \
            design_bch(60, 3).kernel_key()

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(bch, "_MEMO_ROWS", 8)
        code = design_bch(60, 3)
        rng = np.random.default_rng(5)
        for _ in range(4):
            words = error_words(code, rng, 30, code.t)
            assert_solve_matches(code, code.syndromes_batch(words))
            assert len(code._solved) <= 8
        assert len(code._solved) == 8

    def test_default_bound_holds(self):
        code = BCHCode(5, 2)
        words = error_words(code, np.random.default_rng(6), 400,
                            2 * code.t)
        code.decode_batch(words)
        assert 0 < len(code._solved) <= bch._MEMO_ROWS
