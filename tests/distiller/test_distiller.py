"""Tests for the regression-based entropy distiller (paper §V-A)."""

import pickle

import numpy as np
import pytest

from repro.distiller import (
    DistillerHelper,
    EntropyDistiller,
    Polynomial2D,
    quadratic_ridge_x,
    tilted_plane,
)
from repro.puf import ROArray, ROArrayParams
from repro.puf.variation import design_matrix


class TestHelper:
    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError):
            DistillerHelper(2, np.zeros(5))

    def test_coefficients_read_only(self):
        helper = DistillerHelper(1, np.zeros(3))
        with pytest.raises(ValueError):
            helper.coefficients[0] = 1.0

    def test_with_added_superimposes(self):
        helper = DistillerHelper(2, np.zeros(6))
        ridge = quadratic_ridge_x(1.0, 0.0)
        added = helper.with_added(ridge)
        assert added.polynomial == ridge

    def test_with_added_raises_degree(self):
        helper = DistillerHelper(1, np.array([1.0, 0.0, 0.0]))
        added = helper.with_added(quadratic_ridge_x(1.0, 0.0))
        assert added.degree == 2
        assert added.polynomial(0.0, 0.0) == pytest.approx(1.0)


class TestPolynomialCache:
    def test_polynomial_built_once(self):
        helper = DistillerHelper(2, np.arange(6.0))
        assert helper.polynomial is helper.polynomial
        np.testing.assert_array_equal(helper.polynomial.coefficients,
                                      helper.coefficients)

    def test_polynomial_read_only(self):
        polynomial = DistillerHelper(2, np.arange(6.0)).polynomial
        assert not polynomial.coefficients.flags.writeable
        with pytest.raises(ValueError):
            polynomial.coefficients[0] = 1.0

    def test_pickle_round_trip_ignores_the_cache(self):
        helper = DistillerHelper(2, np.arange(6.0))
        fresh = pickle.dumps(helper)
        helper.polynomial
        assert pickle.dumps(helper) == fresh
        restored = pickle.loads(fresh)
        assert restored.degree == helper.degree
        np.testing.assert_array_equal(restored.coefficients,
                                      helper.coefficients)
        assert "_polynomial" not in restored.__dict__
        assert restored.polynomial(1.0, 2.0) == helper.polynomial(1.0, 2.0)
        assert repr(restored) == repr(helper)

    @pytest.mark.parametrize("seed", range(4))
    def test_with_added_equals_polynomial_sum(self, seed):
        rng = np.random.default_rng(seed)
        helper = DistillerHelper(2, rng.normal(scale=1e6, size=6))
        payload = Polynomial2D(2, rng.normal(scale=1e12, size=6))
        added = helper.with_added(payload)
        old = helper.with_polynomial(helper.polynomial + payload)
        assert added.degree == old.degree
        assert added.coefficients.tobytes() == old.coefficients.tobytes()
        assert not added.coefficients.flags.writeable


class TestEnrollment:
    def test_removes_synthetic_trend_exactly(self, rng):
        # Pure degree-2 trend, no randomness: residuals must vanish.
        params = ROArrayParams(rows=8, cols=16, sigma_process=0.0,
                               sigma_noise=0.0)
        trend = Polynomial2D(2, [0.0, 2e4, -1e4, 300.0, 150.0, -200.0])
        array = ROArray(params, rng=1, systematic=trend)
        distiller = EntropyDistiller(2)
        freqs = array.true_frequencies()
        _, residuals = distiller.enroll(array.x, array.y, freqs)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-6)

    def test_preserves_random_variation(self, rng):
        params = ROArrayParams(rows=16, cols=32, sigma_process=4e5,
                               sigma_noise=0.0)
        array = ROArray(params, rng=2)
        distiller = EntropyDistiller(2)
        freqs = array.true_frequencies()
        _, residuals = distiller.enroll(array.x, array.y, freqs)
        # Residual std close to the process-variation std: the trend is
        # gone, the entropy source survives (paper Fig. 2).
        assert residuals.std() == pytest.approx(
            array.process_variation.std(), rel=0.1)

    def test_variance_explained_ordering(self):
        params = ROArrayParams(rows=16, cols=32,
                               systematic_amplitude=3e6)
        array = ROArray(params, rng=3)
        freqs = array.true_frequencies()
        distiller = EntropyDistiller(2)
        explained = distiller.variance_explained(array.x, array.y, freqs)
        assert explained > 0.5
        flat_params = ROArrayParams(rows=16, cols=32,
                                    systematic_amplitude=0.0)
        flat = ROArray(flat_params, rng=3)
        flat_explained = distiller.variance_explained(
            flat.x, flat.y, flat.true_frequencies())
        assert flat_explained < 0.2
        assert explained > flat_explained

    def test_higher_degree_explains_no_less(self):
        array = ROArray(ROArrayParams(rows=16, cols=32), rng=4)
        freqs = array.true_frequencies()
        explained = [EntropyDistiller(p).variance_explained(
            array.x, array.y, freqs) for p in (1, 2, 3)]
        assert explained[0] <= explained[1] + 1e-9
        assert explained[1] <= explained[2] + 1e-9


class TestReconstruction:
    def test_residuals_follow_manipulated_coefficients(self):
        array = ROArray(ROArrayParams(rows=4, cols=10), rng=5)
        distiller = EntropyDistiller(2)
        freqs = array.true_frequencies()
        helper, residuals = distiller.enroll(array.x, array.y, freqs)
        ridge = quadratic_ridge_x(1e9, 4.5)
        manipulated = helper.with_added(ridge)
        new_residuals = distiller.residuals(array.x, array.y, freqs,
                                            manipulated)
        np.testing.assert_allclose(
            new_residuals - residuals,
            -ridge(array.x, array.y), rtol=1e-9)

    def test_injection_overshadows_randomness(self):
        # The §VI-C premise: a steep injected gradient fully determines
        # pairwise comparisons across columns.
        array = ROArray(ROArrayParams(rows=4, cols=10), rng=6)
        distiller = EntropyDistiller(2)
        freqs = array.true_frequencies()
        helper, _ = distiller.enroll(array.x, array.y, freqs)
        steep = helper.with_added(tilted_plane(1e9, 0.0))
        residuals = distiller.residuals(array.x, array.y, freqs, steep)
        by_column = residuals.reshape(4, 10)
        # higher column index -> much smaller residual, every row
        assert np.all(np.diff(by_column, axis=1) < 0)


class TestResidualsBatch:
    """Residuals of a batch's rows through the cached trend layout stay
    bit-exact."""

    def test_matches_uncached_formula(self):
        array = ROArray(ROArrayParams(rows=4, cols=10), rng=3)
        distiller = EntropyDistiller(2)
        helper, _ = distiller.enroll(array.x, array.y,
                                     array.true_frequencies())
        rng = np.random.default_rng(4)
        freqs = (array.true_frequencies()[None, :]
                 + rng.normal(scale=1e4, size=(6, array.n)))
        wide_x = np.repeat(array.x, 2)
        wide_y = np.repeat(array.y, 2)
        layouts = {
            "contiguous": (array.x, array.y),
            "strided": (wide_x[::2], wide_y[::2]),
            "broadcast": (array.x, np.broadcast_to(1.0, array.x.shape)),
        }
        for name, (x, y) in layouts.items():
            trend = design_matrix(np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float),
                                  helper.degree) @ helper.coefficients
            expected = freqs - trend[None, :]
            for row in range(freqs.shape[0]):
                single = distiller.residuals(x, y, freqs[row], helper)
                assert single.tobytes() == expected[row].tobytes(), name
