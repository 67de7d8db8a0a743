"""BCH parents are derived once per process and codes pickle as params.

Every ``BCHCode`` of one ``(m, t)`` reads the process-wide parent table
(field, generator polynomial, ``full_k``) instead of re-deriving it, and
a pickled or deep-copied code carries ``(m, t, shorten)`` alone.  A code
rebuilt from an empty table must decode exactly like one built from a
shared entry, within and beyond ``t``.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.ecc import bch
from repro.ecc.base import DecodingFailure
from repro.ecc.bch import BCHCode, design_bch
from repro.keygen import FuzzyExtractorKeyGen


def error_words(code, rng, count, max_errors):
    words = np.zeros((count, code.n), dtype=np.uint8)
    for row in words:
        weight = int(rng.integers(0, max_errors + 1))
        row[rng.choice(code.n, size=weight, replace=False)] = 1
    return words


class TestSharedParent:
    def test_codes_of_one_parent_share_field_and_generator(self):
        full = BCHCode(7, 5)
        shortened = BCHCode(7, 5, shorten=28)
        assert shortened.field is full.field
        assert shortened._generator is full._generator
        assert design_bch(64, 5).field is full.field
        assert BCHCode(7, 3).field is not full.field

    @pytest.mark.parametrize("params", [(5, 2, 0), (7, 5, 28), (6, 3, 5)])
    def test_rebuilt_parent_decodes_bitwise_equal(self, params,
                                                  monkeypatch):
        shared = BCHCode(*params)
        monkeypatch.setattr(bch, "_PARENTS", {})
        rebuilt = BCHCode(*params)
        assert rebuilt.field is not shared.field
        assert bch._PARENTS.keys() == {params[:2]}
        np.testing.assert_array_equal(rebuilt.generator_polynomial,
                                      shared.generator_polynomial)
        rng = np.random.default_rng(sum(params))
        # Within and beyond t, so every failure mode is exercised.
        words = error_words(shared, rng, 60, 3 * shared.t)
        decoded, ok = rebuilt.decode_batch(words)
        expected, expected_ok = shared.decode_batch(words)
        np.testing.assert_array_equal(decoded, expected)
        np.testing.assert_array_equal(ok, expected_ok)
        assert not ok.all() and ok.any()
        for word, row, flag in zip(words, decoded, ok):
            try:
                np.testing.assert_array_equal(rebuilt.decode(word), row)
                assert flag
            except DecodingFailure:
                assert not flag

    def test_invalid_parameters_still_raise(self):
        with pytest.raises(ValueError):
            BCHCode(3, 4)
        with pytest.raises(ValueError):
            BCHCode(7, 5, shorten=92)
        with pytest.raises(ValueError):
            BCHCode(7, 0)


class TestPickledAsParameters:
    def test_pickle_is_small_and_round_trips(self):
        code = design_bch(64, 5)
        code.decode_batch(error_words(code, np.random.default_rng(1),
                                      30, code.t))
        assert code._solved
        data = pickle.dumps(code)
        assert len(data) < 200
        clone = pickle.loads(data)
        assert clone._solved == {}
        assert clone.kernel_key() == code.kernel_key()
        assert clone.field is code.field
        np.testing.assert_array_equal(clone.generator_polynomial,
                                      code.generator_polynomial)

    def test_deep_copied_keygen_reuses_the_parent(self):
        keygen = FuzzyExtractorKeyGen(8, 16, 64)
        clone = copy.deepcopy(keygen)
        code = keygen.extractor.sketch.code
        copied = clone.extractor.sketch.code
        assert copied is not code
        assert copied.field is code.field
        assert copied.kernel_key() == code.kernel_key()
