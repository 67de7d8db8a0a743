"""The regression-based entropy distiller (paper §V-A, Yin & Qu DAC 2013).

Systematic manufacturing variation is spatially correlated and therefore
predictable: it reduces response entropy (paper §III-B, Fig. 2).  The
distiller models it by fitting a degree-``p`` bivariate polynomial to the
enrollment frequency map ``f(x, y)`` in a least-squares sense; the fitted
coefficients ``β_{i,j}`` are stored as *public helper data* and the
subtraction is repeated on every key regeneration, leaving the residual
(random) variation as the entropy source.

The DAC 2013 experiments indicate ``p = 2`` and ``p = 3`` as good values
for a 16×32 array; both are defaults in the benches.

The security problem reproduced by the §VI-C/D attacks: the coefficients
are attacker-*writable*.  Injecting a steep polynomial makes the
"residual" equal to an attacker-chosen pattern plus a comparatively tiny
random term, fully determining most response bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.puf.variation import Polynomial2D, n_terms


@dataclass(frozen=True)
class DistillerHelper:
    """Public helper data: the polynomial degree and coefficient vector.

    Coefficients follow the canonical term ordering of
    :func:`repro.puf.variation.polynomial_terms`.
    """

    degree: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float).copy()
        if coeffs.shape != (n_terms(self.degree),):
            raise ValueError(
                f"degree {self.degree} needs {n_terms(self.degree)} "
                f"coefficients")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def polynomial(self) -> Polynomial2D:
        """The stored coefficients as a callable 2-D polynomial.

        Built on first use and kept: the polynomial is immutable, like
        the helper.
        """
        polynomial = self.__dict__.get("_polynomial")
        if polynomial is None:
            polynomial = Polynomial2D(self.degree, self.coefficients)
            object.__setattr__(self, "_polynomial", polynomial)
        return polynomial

    def __getstate__(self) -> dict:
        # Pickles carry the two fields only, as before the cache.
        return {"degree": self.degree, "coefficients": self.coefficients}

    def with_polynomial(self, polynomial: Polynomial2D
                        ) -> "DistillerHelper":
        """Manipulated helper data carrying an arbitrary polynomial."""
        return DistillerHelper(polynomial.degree,
                               polynomial.coefficients)

    def with_added(self, polynomial: Polynomial2D) -> "DistillerHelper":
        """Helper data with *polynomial* added onto the stored trend.

        Adding ``q`` to the stored coefficients makes the device subtract
        an extra ``q(x, y)``, i.e. superimposes ``-q`` onto the residual
        map — the attacker's injection primitive of paper §VI-C.  Equal
        degrees add the coefficient vectors directly.
        """
        if polynomial.degree != self.degree:
            return self.with_polynomial(self.polynomial + polynomial)
        return DistillerHelper(self.degree,
                               self.coefficients + polynomial.coefficients)


class EntropyDistiller:
    """Least-squares enrollment and on-device subtraction."""

    def __init__(self, degree: int = 2):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self._degree = int(degree)

    @property
    def degree(self) -> int:
        """Degree of the fitted 2-D polynomial surface."""
        return self._degree

    def enroll(self, x: np.ndarray, y: np.ndarray,
               frequencies: np.ndarray
               ) -> Tuple[DistillerHelper, np.ndarray]:
        """Fit the systematic trend; return helper data and residuals."""
        poly = Polynomial2D.fit(x, y, frequencies, self._degree)
        helper = DistillerHelper(self._degree, poly.coefficients)
        return helper, self.residuals(x, y, frequencies, helper)

    def residuals(self, x: np.ndarray, y: np.ndarray,
                  frequencies: np.ndarray,
                  helper: DistillerHelper) -> np.ndarray:
        """On-device subtraction under (possibly manipulated) helper data."""
        freqs = np.asarray(frequencies, dtype=float)
        return freqs - self.trend(x, y, helper)

    @staticmethod
    def trend(x: np.ndarray, y: np.ndarray,
              helper: DistillerHelper) -> np.ndarray:
        """The stored polynomial evaluated over the ``(x, y)`` layout."""
        return helper.polynomial(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))

    def residuals_batch(self, x: np.ndarray, y: np.ndarray,
                        frequencies: np.ndarray,
                        helper: DistillerHelper) -> np.ndarray:
        """Residuals for a ``(B, n)`` measurement batch.

        The stored polynomial is evaluated once over the layout and
        broadcast-subtracted from every row; row ``i`` equals
        ``residuals(x, y, frequencies[i], helper)``.
        """
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.ndim != 2:
            raise ValueError("batch evaluation needs a (B, n) matrix")
        return freqs - self.trend(x, y, helper)[None, :]

    def variance_explained(self, x: np.ndarray, y: np.ndarray,
                           frequencies: np.ndarray) -> float:
        """Fraction of frequency variance captured by the fitted trend.

        The Fig. 2 decomposition in one number: close to 1 when the map
        is dominated by the systematic trend, close to 0 when random
        roughness dominates.
        """
        freqs = np.asarray(frequencies, dtype=float)
        total = float(np.var(freqs))
        if total == 0:
            return 0.0
        _, residual = self.enroll(x, y, freqs)
        return 1.0 - float(np.var(residual)) / total
