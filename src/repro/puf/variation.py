"""Spatial variation models for the RO frequency map.

Paper Fig. 2 decomposes the frequency topology ``f(x, y)`` of an RO array
into a *systematic* component (a smooth trend caused by correlated
manufacturing variation — undesired, removable) and *random* surface
roughness (the desired entropy source).  This module provides:

* :class:`Polynomial2D` — the bivariate polynomial family used both to
  *synthesise* systematic trends and, by the entropy distiller of
  paper §V-A, to *remove* them through least-squares regression.  The
  parametrisation follows the paper exactly:

  .. math::  f(x, y) = \\sum_{i=0}^{p} \\sum_{j=0}^{i} \\beta_{i,j}
             \\, x^{i-j} y^{j}

* factory helpers that build typical systematic surfaces (tilted planes,
  quadratic bowls, steep attack gradients) and correlated roughness.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng


def polynomial_terms(degree: int) -> List[Tuple[int, int]]:
    """Canonical ``(i, j)`` term ordering of the paper's polynomial.

    Term ``(i, j)`` denotes the monomial ``x**(i - j) * y**j``.  The
    ordering — ``i`` ascending, then ``j`` ascending — fixes the layout of
    coefficient vectors everywhere in the library (distiller helper data,
    attack payloads, regression design matrices).
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return [(i, j) for i in range(degree + 1) for j in range(i + 1)]


def n_terms(degree: int) -> int:
    """Number of coefficients of a degree-*degree* bivariate polynomial."""
    return (degree + 1) * (degree + 2) // 2


def design_matrix(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Regression design matrix with one column per canonical term.

    ``design_matrix(x, y, p) @ beta`` evaluates the paper's polynomial at
    every coordinate pair.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    columns = [x ** (i - j) * y ** j for i, j in polynomial_terms(degree)]
    return np.stack(columns, axis=1)


@functools.lru_cache(maxsize=16)
def _layout_matrix(x: bytes, y: bytes, degree: int) -> np.ndarray:
    """Read-only :func:`design_matrix` of float64 coordinate bytes.

    A device evaluates its stored trend over one fixed layout on every
    reconstruction, so the matrix is built once per
    ``(x bytes, y bytes, degree)`` and reused.
    """
    matrix = design_matrix(np.frombuffer(x), np.frombuffer(y), degree)
    matrix.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=16)
def grid_layout(rows: int, cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(x, y)`` coordinates of a *rows* x *cols* grid.

    Cell ``i`` sits at column ``x = i % cols`` and row ``y = i // cols``
    (the oscillator order of :class:`~repro.puf.ro_array.ROArray`, and
    the C order of ``np.meshgrid`` over the grid).  Built once per
    geometry and shared by every device of it.
    """
    cells = np.arange(rows * cols)
    x = (cells % cols).astype(float)
    y = (cells // cols).astype(float)
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y


def layout_matrix(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """The cached read-only design matrix of 1-D coordinates *x*, *y*.

    ``layout_matrix(x, y, p) @ beta`` is, bit for bit, what a degree-*p*
    :class:`Polynomial2D` with coefficients ``beta`` returns at *x*,
    *y*; callers evaluating many polynomials over one layout fetch the
    matrix once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("layout coordinates must be 1-D of one shape")
    return _layout_matrix(x.tobytes(), y.tobytes(), degree)


class Polynomial2D:
    """Bivariate polynomial ``f(x, y) = Σ β_{i,j} x^{i-j} y^{j}``.

    Instances are immutable value objects; the coefficient vector follows
    the :func:`polynomial_terms` ordering.
    """

    def __init__(self, degree: int, coefficients: Sequence[float]):
        coeffs = np.asarray(coefficients, dtype=float)
        expected = n_terms(degree)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"degree {degree} needs {expected} coefficients, "
                f"got shape {coeffs.shape}"
            )
        self._degree = int(degree)
        self._coeffs = coeffs.copy()
        self._coeffs.flags.writeable = False

    @property
    def degree(self) -> int:
        """Total degree of the polynomial."""
        return self._degree

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only coefficient vector in canonical term order."""
        return self._coeffs

    @classmethod
    def zero(cls, degree: int) -> "Polynomial2D":
        """The all-zero polynomial of the given degree."""
        return cls(degree, np.zeros(n_terms(degree)))

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray, values: np.ndarray,
            degree: int) -> "Polynomial2D":
        """Least-squares fit of *values* sampled at ``(x, y)``.

        This is the regression the entropy distiller performs during
        enrollment (paper §V-A, "coefficients may be determined in a least
        mean squares manner").
        """
        matrix = design_matrix(x, y, degree)
        values = np.asarray(values, dtype=float).ravel()
        if values.shape[0] != matrix.shape[0]:
            raise ValueError("values length must match coordinate count")
        beta, *_ = np.linalg.lstsq(matrix, values, rcond=None)
        return cls(degree, beta)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate at coordinates, preserving the broadcast shape."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1 and x.shape == y.shape:
            return layout_matrix(x, y, self._degree) @ self._coeffs
        shape = np.broadcast(x, y).shape
        flat = _layout_matrix(np.broadcast_to(x, shape).tobytes(),
                              np.broadcast_to(y, shape).tobytes(),
                              self._degree) @ self._coeffs
        return flat.reshape(shape)

    def __add__(self, other: "Polynomial2D") -> "Polynomial2D":
        if not isinstance(other, Polynomial2D):
            return NotImplemented
        if self.degree == other.degree:
            return Polynomial2D(self._degree, self._coeffs + other._coeffs)
        hi, lo = ((self, other) if self.degree >= other.degree
                  else (other, self))
        coeffs = hi.coefficients.copy()
        # Align the lower-degree polynomial's terms onto the canonical
        # ordering of the higher degree.
        index = {term: k for k, term in
                 enumerate(polynomial_terms(hi.degree))}
        for term, value in zip(polynomial_terms(lo.degree),
                               lo.coefficients):
            coeffs[index[term]] += value
        return Polynomial2D(hi.degree, coeffs)

    def __neg__(self) -> "Polynomial2D":
        return Polynomial2D(self._degree, -self._coeffs)

    def __sub__(self, other: "Polynomial2D") -> "Polynomial2D":
        if not isinstance(other, Polynomial2D):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial2D)
                and self._degree == other._degree
                and np.array_equal(self._coeffs, other._coeffs))

    def __repr__(self) -> str:
        return f"Polynomial2D(degree={self._degree}, coeffs={self._coeffs})"


def tilted_plane(gx: float, gy: float, offset: float = 0.0) -> Polynomial2D:
    """Degree-1 surface with gradients *gx*, *gy* (Hz per cell)."""
    return Polynomial2D(1, [offset, gx, gy])


def quadratic_ridge_x(curvature: float, x_extremum: float,
                      offset: float = 0.0) -> Polynomial2D:
    """Quadratic surface varying only along x with extremum at *x_extremum*.

    This is the shape of the attack payloads in paper Fig. 6: a steep
    one-dimensional parabola (the triangle marker in the figure denotes
    the extremum column) whose horizontal gradients overshadow the random
    frequency variation everywhere except along iso-frequency columns.
    ``curvature > 0`` opens upwards.
    """
    # curvature * (x - x0)^2 + offset, expanded onto canonical terms
    # (1, x, y, x^2, xy, y^2).
    return Polynomial2D(2, [
        offset + curvature * x_extremum ** 2,   # 1
        -2.0 * curvature * x_extremum,          # x
        0.0,                                    # y
        curvature,                              # x^2
        0.0,                                    # x y
        0.0,                                    # y^2
    ])


def default_systematic_surface(rows: int, cols: int, amplitude: float,
                               rng: RNGLike = None) -> Polynomial2D:
    """Random smooth degree-2 trend spanning roughly ±*amplitude* Hz.

    Models the linear-plus-bowed wafer gradient of paper Fig. 2.  The
    trend is dominated by the linear part, with a weaker random quadratic
    bow, and is normalised so that its peak-to-peak span across the array
    is approximately ``2 * amplitude``.
    """
    gen = ensure_rng(rng)
    span_x = max(cols - 1, 1)
    span_y = max(rows - 1, 1)
    direction = gen.normal(size=2)
    direction /= np.linalg.norm(direction)
    bow = gen.normal(scale=0.25, size=3)
    # The linear part plus the bow, with the degree-1 terms added onto
    # the canonical degree-2 ones exactly as ``Polynomial2D.__add__``
    # aligns them, evaluated over the grid's cached design matrix.
    coefficients = np.array([0.0, 0.0, 0.0,
                             bow[0] / span_x ** 2,
                             bow[1] / (span_x * span_y),
                             bow[2] / span_y ** 2])
    coefficients[:3] += (0.0, direction[0] / span_x,
                         direction[1] / span_y)
    values = (layout_matrix(*grid_layout(rows, cols), 2)
              @ coefficients).reshape(rows, cols)
    peak = np.max(np.abs(values - values.mean()))
    if peak == 0:
        return Polynomial2D.zero(2)
    scale = amplitude / peak
    return Polynomial2D(2, coefficients * scale)


def correlated_roughness(rows: int, cols: int, sigma: float,
                         correlation_length: float = 1.5,
                         rng: RNGLike = None) -> np.ndarray:
    """Spatially correlated random surface (Hz), shape ``(rows, cols)``.

    White process variation passed through a truncated Gaussian kernel;
    used by analysis experiments to study how short-range correlation
    (intermediate between the trend and white roughness of Fig. 2) leaks
    into response-bit correlations.  The output is renormalised to the
    requested marginal standard deviation.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    gen = ensure_rng(rng)
    white = gen.normal(size=(rows, cols))
    if correlation_length <= 0 or sigma == 0:
        return sigma * white
    radius = max(1, int(np.ceil(3 * correlation_length)))
    offsets = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (offsets / correlation_length) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(white, radius, mode="wrap")
    smooth = np.apply_along_axis(
        lambda row: np.convolve(row, kernel, mode="same"), 1, padded)
    smooth = np.apply_along_axis(
        lambda col: np.convolve(col, kernel, mode="same"), 0, smooth)
    smooth = smooth[radius:radius + rows, radius:radius + cols]
    std = smooth.std()
    if std == 0:
        return np.zeros((rows, cols))
    return sigma * smooth / std
