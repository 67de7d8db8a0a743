"""The vectorized decode engine must mirror the scalar paths bitwise.

Every batch entry point — ``decode_batch`` on each code family, the
lock-step Berlekamp–Massey / Chien kernel underneath BCH, sketch
``recover_batch`` and fuzzy ``reproduce_batch`` — is compared row for
row against its scalar reference on randomized workloads spanning error
weights from zero through beyond-``t`` failure rows.
"""

import numpy as np
import pytest

from repro._dedup import row_groups
from repro.ecc import (
    BlockwiseCode,
    HammingCode,
    ReedMullerCode,
    RepetitionCode,
    TrivialCode,
)
from repro.ecc.base import DecodingFailure
from repro.ecc.bch import BCHCode, design_bch
from repro.ecc.sketch import CodeOffsetSketch, SyndromeSketch
from repro.fuzzy.extractor import FuzzyExtractor


def corrupted_batch(code, rng, count=60, max_errors=None):
    """Codewords carrying 0..max_errors random bit errors each."""
    if max_errors is None:
        max_errors = code.t + 2
    words = np.empty((count, code.n), dtype=np.uint8)
    for i in range(count):
        codeword = code.encode(
            rng.integers(0, 2, size=code.k).astype(np.uint8))
        flips = rng.choice(code.n, size=int(rng.integers(
            0, max_errors + 1)), replace=False)
        codeword[flips] ^= 1
        words[i] = codeword
    return words


def assert_matches_scalar(code, words):
    """Row-for-row equivalence of ``decode_batch`` with ``decode``."""
    decoded, ok = code.decode_batch(words)
    for i, word in enumerate(words):
        try:
            expected = code.decode(word)
        except DecodingFailure:
            assert not ok[i]
            assert not decoded[i].any()
        else:
            assert ok[i]
            np.testing.assert_array_equal(expected, decoded[i])


BCH_CODES = [
    BCHCode(5, 2),                # unshortened, small field
    BCHCode(6, 3),                # unshortened, medium field
    design_bch(60, 3),            # shortened
    design_bch(32, 5),            # shortened, high t
]


class TestBCHDecodeBatch:
    @pytest.fixture
    def code(self):
        return design_bch(60, 3)

    @pytest.mark.parametrize("code", BCH_CODES, ids=repr)
    def test_matches_scalar_decode(self, code):
        rng = np.random.default_rng(0)
        words = corrupted_batch(code, rng)
        assert_matches_scalar(code, words)

    @pytest.mark.parametrize("code", BCH_CODES, ids=repr)
    def test_beyond_t_and_random_words(self, code):
        # Far beyond the radius: random words, weight-2t patterns —
        # exercising locator-degree, root-count and verification
        # failures in the batch kernel.
        rng = np.random.default_rng(10)
        words = corrupted_batch(code, rng, count=40,
                                max_errors=2 * code.t)
        words[:10] = rng.integers(0, 2, size=(10, code.n))
        assert_matches_scalar(code, words)

    def test_batch_syndromes_match_scalar(self, code):
        rng = np.random.default_rng(1)
        words = corrupted_batch(code, rng, count=20)
        batch = code.syndromes_batch(words)
        for i, word in enumerate(words):
            full = np.zeros(code._full_n, dtype=np.uint8)
            full[:code.n] = word
            assert batch[i].tolist() == code._syndromes(full)

    @pytest.mark.parametrize("code", BCH_CODES, ids=repr)
    def test_batch_berlekamp_massey_coefficients(self, code):
        # The lock-step BM must reproduce the scalar locator exactly,
        # including for beyond-t rows where the degree exceeds t.
        rng = np.random.default_rng(2)
        words = corrupted_batch(code, rng, count=40,
                                max_errors=2 * code.t)
        syndromes = code.syndromes_batch(words)
        sigma = code._berlekamp_massey_batch(syndromes)
        for i in range(words.shape[0]):
            expected = code._berlekamp_massey(
                [int(s) for s in syndromes[i]])
            observed = [int(c) for c in sigma[i]]
            while len(observed) > 1 and observed[-1] == 0:
                observed.pop()
            assert observed == expected

    def test_solve_syndromes_batch_shape_validation(self, code):
        with pytest.raises(ValueError):
            code.solve_syndromes_batch(
                np.zeros((4, 2 * code.t + 1), dtype=np.int64))

    def test_zero_syndrome_rows_resolve_clean(self, code):
        errors, ok = code.solve_syndromes_batch(
            np.zeros((3, 2 * code.t), dtype=np.int64))
        assert ok.all()
        assert not errors.any()

    def test_shape_validation(self, code):
        with pytest.raises(ValueError):
            code.decode_batch(np.zeros((4, code.n + 1), dtype=np.uint8))

    def test_unshortened_code(self):
        code = BCHCode(5, 2)
        rng = np.random.default_rng(2)
        words = corrupted_batch(code, rng, count=30)
        decoded, ok = code.decode_batch(words)
        assert ok.any() and (~ok).any()


class TestReedMullerDecodeBatch:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_scalar_decode(self, m):
        code = ReedMullerCode(m)
        rng = np.random.default_rng(m)
        words = corrupted_batch(code, rng, count=50)
        assert_matches_scalar(code, words)

    @pytest.mark.parametrize("m", [3, 4])
    def test_random_words_tie_handling(self, m):
        # Pure-random words hit spectral ties; argmax order must match.
        code = ReedMullerCode(m)
        rng = np.random.default_rng(20 + m)
        words = rng.integers(0, 2,
                             size=(64, code.n)).astype(np.uint8)
        assert_matches_scalar(code, words)


class TestSimpleCodesDecodeBatch:
    @pytest.mark.parametrize("code", [
        TrivialCode(9),
        RepetitionCode(7),
        HammingCode(3),
        BlockwiseCode(BCHCode(5, 2), 3),
        BlockwiseCode(ReedMullerCode(4), 2),
    ], ids=repr)
    def test_matches_scalar_decode(self, code):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2,
                             size=(40, code.n)).astype(np.uint8)
        assert_matches_scalar(code, words)

    def test_blockwise_partial_failure_zeroes_row(self):
        # One overflowing block fails the whole word, matching scalar.
        inner = BCHCode(5, 2)
        code = BlockwiseCode(inner, 2)
        rng = np.random.default_rng(6)
        words = corrupted_batch(code, rng, count=30,
                                max_errors=2 * inner.t)
        decoded, ok = code.decode_batch(words)
        assert (~ok).any()
        assert not decoded[~ok].any()


class TestSketchRecoverBatch:
    def test_code_offset_matches_scalar(self):
        code = design_bch(40, 2)
        sketch = CodeOffsetSketch(code, 40)
        rng = np.random.default_rng(3)
        response = rng.integers(0, 2, size=40).astype(np.uint8)
        helper = sketch.generate(response, rng)
        batch = np.tile(response, (50, 1))
        for i in range(50):
            flips = rng.choice(40, size=int(rng.integers(0, 5)),
                               replace=False)
            batch[i, flips] ^= 1
        recovered, ok = sketch.recover_batch(batch, helper)
        for i in range(50):
            try:
                expected = sketch.recover(batch[i], helper)
            except DecodingFailure:
                assert not ok[i]
            else:
                assert ok[i]
                np.testing.assert_array_equal(expected, recovered[i])

    @pytest.mark.parametrize("length", [30, 63])
    def test_syndrome_sketch_matches_scalar(self, length):
        # Vectorized syndrome-difference recovery, including rows past
        # the radius and corrections the scalar path rejects for
        # landing outside the response bits.
        code = BCHCode(6, 3)
        sketch = SyndromeSketch(code, length)
        rng = np.random.default_rng(4)
        response = rng.integers(0, 2, size=length).astype(np.uint8)
        helper = sketch.generate(response)
        batch = np.tile(response, (60, 1))
        for i in range(60):
            flips = rng.choice(length,
                               size=int(rng.integers(0, code.t + 3)),
                               replace=False)
            batch[i, flips] ^= 1
        recovered, ok = sketch.recover_batch(batch, helper)
        assert ok.any()
        for i in range(60):
            try:
                expected = sketch.recover(batch[i], helper)
            except DecodingFailure:
                assert not ok[i]
                assert not recovered[i].any()
            else:
                assert ok[i]
                np.testing.assert_array_equal(expected, recovered[i])


class TestFuzzyReproduceBatch:
    def test_matches_scalar_reproduce(self):
        code = design_bch(40, 3)
        sketch = CodeOffsetSketch(code, 40)
        extractor = FuzzyExtractor(sketch, 16)
        rng = np.random.default_rng(5)
        response = rng.integers(0, 2, size=40).astype(np.uint8)
        key, helper = extractor.generate(response, rng)
        batch = np.tile(response, (40, 1))
        for i in range(40):
            flips = rng.choice(40, size=int(rng.integers(0, 6)),
                               replace=False)
            batch[i, flips] ^= 1
        keys, ok = extractor.reproduce_batch(batch, helper)
        for i in range(40):
            try:
                expected = extractor.reproduce(batch[i], helper)
            except DecodingFailure:
                assert not ok[i]
            else:
                assert ok[i]
                np.testing.assert_array_equal(expected, keys[i])

    def test_high_noise_round_trip(self):
        # Every reading distinct, error weights straddling t: the
        # round-trip key must come back exactly on the correctable rows
        # and the failure mask must match the scalar path on the rest.
        code = design_bch(64, 5)
        extractor = FuzzyExtractor(CodeOffsetSketch(code, 64), 32)
        rng = np.random.default_rng(6)
        response = rng.integers(0, 2, size=64).astype(np.uint8)
        key, helper = extractor.generate(response, rng)
        batch = np.tile(response, (80, 1))
        weights = rng.integers(1, code.t + 3, size=80)
        for i in range(80):
            flips = rng.choice(64, size=int(weights[i]), replace=False)
            batch[i, flips] ^= 1
        keys, ok = extractor.reproduce_batch(batch, helper)
        assert ok.any() and (~ok).any()
        np.testing.assert_array_equal(
            keys[ok], np.tile(key, (int(ok.sum()), 1)))
        assert not keys[~ok].any()
        for i in range(80):
            try:
                extractor.reproduce(batch[i], helper)
            except DecodingFailure:
                assert not ok[i]
            else:
                assert ok[i]


class TestDecodeBatchAgainstDedupFallback:
    """The engine must agree with the pre-engine dedup+scalar strategy."""

    @pytest.mark.parametrize("code", BCH_CODES[:2], ids=repr)
    def test_same_results_as_dedup_strategy(self, code):
        rng = np.random.default_rng(8)
        words = corrupted_batch(code, rng, count=50)
        reference = np.zeros_like(words)
        reference_ok = np.zeros(words.shape[0], dtype=bool)
        first, inverse = row_groups(words)
        for group, row in enumerate(first):
            rows = inverse == group
            try:
                reference[rows] = code.decode(words[row])
            except DecodingFailure:
                continue
            reference_ok[rows] = True
        decoded, ok = code.decode_batch(words)
        np.testing.assert_array_equal(reference, decoded)
        np.testing.assert_array_equal(reference_ok, ok)
