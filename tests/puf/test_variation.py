"""Tests for the 2-D polynomial family and variation surfaces."""

import numpy as np
import pytest

from repro.puf import variation
from repro.puf.variation import (
    Polynomial2D,
    correlated_roughness,
    default_systematic_surface,
    design_matrix,
    n_terms,
    polynomial_terms,
    quadratic_ridge_x,
    tilted_plane,
)


class TestTermOrdering:
    def test_degree_zero_single_term(self):
        assert polynomial_terms(0) == [(0, 0)]

    def test_degree_two_matches_paper_expansion(self):
        # f(x, y) = sum_{i<=p} sum_{j<=i} beta_{ij} x^{i-j} y^j
        assert polynomial_terms(2) == [(0, 0), (1, 0), (1, 1),
                                       (2, 0), (2, 1), (2, 2)]

    def test_term_count_is_triangular(self):
        for degree in range(6):
            assert n_terms(degree) == (degree + 1) * (degree + 2) // 2
            assert len(polynomial_terms(degree)) == n_terms(degree)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            polynomial_terms(-1)


class TestDesignMatrix:
    def test_shape(self):
        x = np.arange(12.0)
        y = np.arange(12.0)
        assert design_matrix(x, y, 3).shape == (12, n_terms(3))

    def test_columns_are_monomials(self):
        x = np.array([2.0])
        y = np.array([3.0])
        row = design_matrix(x, y, 2)[0]
        # terms: 1, x, y, x^2, xy, y^2
        assert row.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            design_matrix(np.arange(3.0), np.arange(4.0), 1)


class TestPolynomial2D:
    def test_evaluation_matches_manual_expansion(self):
        poly = Polynomial2D(2, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        x, y = 1.5, -0.5
        expected = (1.0 + 2.0 * x + 3.0 * y + 4.0 * x * x
                    + 5.0 * x * y + 6.0 * y * y)
        assert poly(x, y) == pytest.approx(expected)

    def test_broadcast_shape_preserved(self):
        poly = tilted_plane(1.0, 2.0)
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(3.0))
        assert poly(xs, ys).shape == (3, 4)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError):
            Polynomial2D(2, [1.0, 2.0])

    def test_coefficients_read_only(self):
        poly = Polynomial2D.zero(1)
        with pytest.raises(ValueError):
            poly.coefficients[0] = 1.0

    def test_fit_recovers_exact_polynomial(self, rng):
        truth = Polynomial2D(2, rng.normal(size=6))
        xs = rng.uniform(0, 10, 50)
        ys = rng.uniform(0, 10, 50)
        fitted = Polynomial2D.fit(xs, ys, truth(xs, ys), 2)
        np.testing.assert_allclose(fitted.coefficients,
                                   truth.coefficients, atol=1e-8)

    def test_fit_is_least_squares_on_noise(self, rng):
        xs = rng.uniform(0, 10, 200)
        ys = rng.uniform(0, 10, 200)
        values = 5.0 + rng.normal(size=200)
        fitted = Polynomial2D.fit(xs, ys, values, 0)
        assert fitted.coefficients[0] == pytest.approx(values.mean())

    def test_addition_aligns_mixed_degrees(self):
        low = tilted_plane(1.0, 0.0, offset=2.0)
        high = Polynomial2D(2, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        total = low + high
        assert total.degree == 2
        assert total(2.0, 0.0) == pytest.approx(2.0 + 2.0 + 4.0)

    def test_subtraction_and_negation(self):
        poly = Polynomial2D(1, [1.0, 2.0, 3.0])
        zero = poly - poly
        assert np.all(zero.coefficients == 0)
        assert (-poly)(1.0, 1.0) == pytest.approx(-poly(1.0, 1.0))

    def test_equality_semantics(self):
        a = Polynomial2D(1, [1.0, 2.0, 3.0])
        b = Polynomial2D(1, [1.0, 2.0, 3.0])
        c = Polynomial2D(1, [1.0, 2.0, 4.0])
        assert a == b
        assert a != c


def uncached(poly, x, y):
    """The evaluation formula with a freshly built design matrix."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(x, y).shape
    flat = design_matrix(np.broadcast_to(x, shape).ravel(),
                         np.broadcast_to(y, shape).ravel(),
                         poly.degree) @ poly.coefficients
    return flat.reshape(shape)


class TestLayoutCache:
    """Evaluation through the cached design matrix is bit-exact."""

    @pytest.fixture
    def poly(self):
        return Polynomial2D(3, np.linspace(-2.5, 3.5, n_terms(3)) * 1e3)

    def coordinates(self):
        cells = np.arange(40)
        xs = (cells % 10).astype(float)
        ys = (cells // 10).astype(float)
        grid_x, grid_y = np.meshgrid(np.arange(10.0), np.arange(4.0))
        wide = np.arange(80.0).reshape(4, 20)
        return {
            "contiguous": (xs, ys),
            "strided": (np.arange(80.0)[::2], np.arange(120.0)[::3]),
            "column-view": (wide[:, 3], wide[:, 7]),
            "broadcast": (np.arange(10.0)[None, :],
                          np.arange(4.0)[:, None]),
            "meshgrid": (grid_x, grid_y),
            "scalar": (1.5, np.arange(5.0)),
        }

    def test_evaluation_matches_uncached_formula(self, poly):
        for name, (x, y) in self.coordinates().items():
            for _ in range(2):  # cold, then cached
                observed = poly(x, y)
                expected = uncached(poly, x, y)
                assert observed.shape == expected.shape, name
                assert observed.tobytes() == expected.tobytes(), name

    def test_cached_matrix_is_read_only(self):
        x = np.arange(6.0).tobytes()
        y = np.arange(6.0)[::-1].tobytes()
        matrix = variation._layout_matrix(x, y, 2)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        assert variation._layout_matrix(x, y, 2) is matrix

    def test_design_matrix_stays_fresh_and_writable(self, poly):
        x = np.arange(12.0)
        y = x % 3
        before = poly(x, y)
        matrix = design_matrix(x, y, poly.degree)
        assert matrix.flags.writeable
        matrix[:] = 0.0
        assert design_matrix(x, y, poly.degree).any()
        assert poly(x, y).tobytes() == before.tobytes()

    def test_cache_is_bounded(self):
        poly = tilted_plane(1.0, 2.0)
        bound = variation._layout_matrix.cache_info().maxsize
        for offset in range(3 * bound):
            x = np.arange(4.0) + offset
            assert poly(x, x).tobytes() == uncached(poly, x, x).tobytes()
        assert variation._layout_matrix.cache_info().currsize <= bound


class TestFactorySurfaces:
    def test_tilted_plane_gradients(self):
        plane = tilted_plane(10.0, -5.0, offset=1.0)
        assert plane(0.0, 0.0) == pytest.approx(1.0)
        assert plane(1.0, 0.0) - plane(0.0, 0.0) == pytest.approx(10.0)
        assert plane(0.0, 1.0) - plane(0.0, 0.0) == pytest.approx(-5.0)

    def test_quadratic_ridge_extremum_location(self):
        ridge = quadratic_ridge_x(2.0, x_extremum=3.5, offset=7.0)
        assert ridge(3.5, 0.0) == pytest.approx(7.0)
        # symmetric about the extremum, independent of y
        assert ridge(2.0, 1.0) == pytest.approx(ridge(5.0, 9.0))
        assert ridge(4.5, 0.0) > ridge(3.5, 0.0)

    def test_default_surface_amplitude_normalised(self):
        surface = default_systematic_surface(16, 32, amplitude=1e6,
                                             rng=5)
        xs, ys = np.meshgrid(np.arange(32.0), np.arange(16.0))
        values = surface(xs, ys)
        peak = np.max(np.abs(values - values.mean()))
        assert peak == pytest.approx(1e6, rel=1e-6)

    def test_default_surface_deterministic_per_seed(self):
        a = default_systematic_surface(4, 4, 1.0, rng=9)
        b = default_systematic_surface(4, 4, 1.0, rng=9)
        assert a == b

    def test_zero_amplitude_surface_is_zero(self):
        surface = default_systematic_surface(4, 4, 0.0, rng=1)
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        np.testing.assert_allclose(surface(xs, ys), 0.0)


class TestCorrelatedRoughness:
    def test_shape_and_marginal_std(self):
        surface = correlated_roughness(16, 32, sigma=2.0, rng=3)
        assert surface.shape == (16, 32)
        assert surface.std() == pytest.approx(2.0, rel=1e-6)

    def test_zero_sigma_gives_zero_surface(self):
        surface = correlated_roughness(8, 8, sigma=0.0, rng=3)
        np.testing.assert_allclose(surface, 0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            correlated_roughness(4, 4, sigma=-1.0)

    def test_smoothing_raises_neighbour_correlation(self, rng):
        rough = correlated_roughness(32, 32, 1.0,
                                     correlation_length=0.0, rng=1)
        smooth = correlated_roughness(32, 32, 1.0,
                                      correlation_length=3.0, rng=1)

        def neighbour_corr(surface):
            a = surface[:, :-1].ravel()
            b = surface[:, 1:].ravel()
            return np.corrcoef(a, b)[0, 1]

        assert neighbour_corr(smooth) > neighbour_corr(rough) + 0.3
