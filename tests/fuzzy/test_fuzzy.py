"""Tests for Toeplitz hashing and the fuzzy extractor (paper §VII-A)."""

import numpy as np
import pytest

from repro.ecc import CodeOffsetSketch, DecodingFailure, design_bch
from repro.fuzzy import FuzzyExtractor, ToeplitzHash


class TestToeplitzHash:
    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            ToeplitzHash(np.zeros(10, dtype=np.uint8), 8, 4)

    def test_matrix_is_toeplitz(self):
        hasher = ToeplitzHash.random(12, 6, rng=1)
        matrix = hasher.matrix
        for i in range(1, 6):
            np.testing.assert_array_equal(matrix[i, 1:], matrix[i - 1,
                                                                :-1])

    def test_linearity_over_gf2(self, rng):
        hasher = ToeplitzHash.random(16, 8, rng=2)
        a = rng.integers(0, 2, 16).astype(np.uint8)
        b = rng.integers(0, 2, 16).astype(np.uint8)
        np.testing.assert_array_equal(hasher(a) ^ hasher(b),
                                      hasher(a ^ b))

    def test_output_length(self, rng):
        hasher = ToeplitzHash.random(20, 7, rng=3)
        word = rng.integers(0, 2, 20).astype(np.uint8)
        assert hasher(word).shape == (7,)

    def test_universality_collision_rate(self, rng):
        # Pr[h(a) = h(b)] over the family is about 2^-out for a != b.
        out_bits = 4
        a = rng.integers(0, 2, 12).astype(np.uint8)
        b = a.copy()
        b[0] ^= 1
        collisions = 0
        trials = 800
        for seed in range(trials):
            hasher = ToeplitzHash.random(12, out_bits, rng=seed)
            collisions += int(np.array_equal(hasher(a), hasher(b)))
        assert collisions / trials == pytest.approx(2 ** -out_bits,
                                                    abs=0.03)

    @pytest.mark.parametrize("in_bits, out_bits",
                             [(12, 8), (64, 64), (300, 128)])
    def test_hash_batch_matches_rows(self, rng, in_bits, out_bits):
        hasher = ToeplitzHash.random(in_bits, out_bits, rng=rng)
        words = rng.integers(0, 2, (50, in_bits)).astype(np.uint8)
        words[0] = 1  # the largest product counts
        words[1] = 0
        hashed = hasher.hash_batch(words)
        assert hashed.dtype == np.uint8
        for word, row in zip(words, hashed):
            np.testing.assert_array_equal(row, hasher(word))

    def test_seed_reproducibility(self, rng):
        seed_bits = rng.integers(0, 2, 19).astype(np.uint8)
        word = rng.integers(0, 2, 12).astype(np.uint8)
        a = ToeplitzHash(seed_bits, 12, 8)
        b = ToeplitzHash(seed_bits, 12, 8)
        np.testing.assert_array_equal(a(word), b(word))


class TestFuzzyExtractor:
    @pytest.fixture
    def extractor(self):
        code = design_bch(48, 4)
        return FuzzyExtractor(CodeOffsetSketch(code, 48), out_bits=32)

    @pytest.fixture
    def response(self, rng):
        return rng.integers(0, 2, 48).astype(np.uint8)

    def test_reproduce_within_radius(self, extractor, response, rng):
        key, helper = extractor.generate(response, rng)
        assert key.shape == (32,)
        for errors in range(5):
            noisy = response.copy()
            noisy[rng.choice(48, errors, replace=False)] ^= 1
            np.testing.assert_array_equal(
                extractor.reproduce(noisy, helper), key)

    def test_failure_beyond_radius(self, extractor, response, rng):
        key, helper = extractor.generate(response, rng)
        wrong = 0
        for _ in range(20):
            noisy = response.copy()
            noisy[rng.choice(48, 8, replace=False)] ^= 1
            try:
                other = extractor.reproduce(noisy, helper)
                wrong += int(not np.array_equal(other, key))
            except DecodingFailure:
                wrong += 1
        assert wrong > 0

    def test_keys_differ_across_devices(self, extractor, rng):
        keys = []
        for _ in range(10):
            response = rng.integers(0, 2, 48).astype(np.uint8)
            key, _ = extractor.generate(response, rng)
            keys.append(key)
        distinct = {tuple(k) for k in keys}
        assert len(distinct) == 10

    def test_out_bits_bounded_by_response(self):
        code = design_bch(16, 2)
        with pytest.raises(ValueError):
            FuzzyExtractor(CodeOffsetSketch(code, 16), out_bits=17)

    def test_helper_manipulation_shifts_key_uniformly(self, extractor,
                                                      response, rng):
        # Flipping one bit of the code-offset payload either keeps the
        # recovered response identical (absorbed by ECC) or moves it to
        # a *different* response entirely; it never exposes a single
        # targeted key bit the way the §VI constructions do.
        key, helper = extractor.generate(response, rng)
        payload = helper.sketch.payload.copy()
        payload[0] ^= 1
        manipulated = helper.with_sketch(
            helper.sketch.with_payload(payload))
        outcome = extractor.reproduce(response, manipulated)
        assert np.array_equal(outcome, key) or \
            np.sum(outcome != key) > 1
