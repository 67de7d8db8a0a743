"""Binary-extension-field arithmetic GF(2^m) and GF(2) polynomials.

Everything the BCH machinery needs, built from scratch:

* :class:`GF2m` — log/antilog-table arithmetic in GF(2^m) for
  ``2 <= m <= 16``, with the usual primitive polynomials.  Scalar
  operations are complemented by array-native ones (``mul_array``,
  ``alpha_eval_batch``, …) that apply the same log/antilog tables as
  NumPy gathers across whole element matrices — the foundation of the
  vectorized decode engine (see ``docs/ecc.md``).
* GF(2)[x] polynomial helpers operating on Python integers used as
  coefficient bitmasks (bit ``i`` is the coefficient of ``x^i``), which
  keeps carry-less multiplication and long division simple and fast.
* Cyclotomic cosets and minimal polynomials, from which BCH generator
  polynomials are assembled.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: Default primitive polynomials (coefficient bitmasks, degree = m) for
#: GF(2^m).  E.g. m=4 -> 0b10011 = x^4 + x + 1.
PRIMITIVE_POLYNOMIALS: Dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


# ----------------------------------------------------------------------
# GF(2)[x] polynomials as integer bitmasks


def poly_degree(poly: int) -> int:
    """Degree of a GF(2) polynomial; the zero polynomial has degree -1."""
    return poly.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def poly_divmod(dividend: int, divisor: int) -> Tuple[int, int]:
    """Quotient and remainder of GF(2) polynomial long division."""
    if divisor == 0:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = 0
    deg_divisor = poly_degree(divisor)
    remainder = dividend
    while poly_degree(remainder) >= deg_divisor:
        shift = poly_degree(remainder) - deg_divisor
        quotient ^= 1 << shift
        remainder ^= divisor << shift
    return quotient, remainder


def poly_mod(dividend: int, divisor: int) -> int:
    """Remainder of GF(2) polynomial long division."""
    return poly_divmod(dividend, divisor)[1]


def poly_to_bits(poly: int, length: int) -> np.ndarray:
    """Coefficient vector (LSB first) of a GF(2) polynomial."""
    if poly_degree(poly) >= length:
        raise ValueError("polynomial does not fit in the requested length")
    return np.array([(poly >> i) & 1 for i in range(length)],
                    dtype=np.uint8)


def bits_to_poly(bits: np.ndarray) -> int:
    """Integer bitmask from a coefficient vector (LSB first)."""
    poly = 0
    for i, bit in enumerate(np.asarray(bits).astype(int)):
        if bit not in (0, 1):
            raise ValueError("bits must be 0/1")
        if bit:
            poly |= 1 << i
    return poly


# ----------------------------------------------------------------------
# GF(2^m)


class GF2m:
    """The finite field GF(2^m) with log/antilog-table arithmetic.

    Elements are integers in ``[0, 2^m)`` interpreted as GF(2)
    polynomials modulo the primitive polynomial; ``alpha = 2`` (the class
    checks the chosen modulus is primitive, i.e. that ``alpha`` generates
    the multiplicative group).
    """

    def __init__(self, m: int, primitive_poly: int = None):
        if m < 2 or m > 16:
            raise ValueError("supported field sizes: 2 <= m <= 16")
        if primitive_poly is None:
            primitive_poly = PRIMITIVE_POLYNOMIALS[m]
        if poly_degree(primitive_poly) != m:
            raise ValueError("primitive polynomial must have degree m")
        self._m = m
        self._modulus = primitive_poly
        self._order = (1 << m) - 1

        exp = np.zeros(2 * self._order, dtype=np.int64)
        log = np.full(1 << m, -1, dtype=np.int64)
        value = 1
        for power in range(self._order):
            exp[power] = value
            if log[value] != -1:
                raise ValueError("polynomial is not primitive over GF(2)")
            log[value] = power
            value <<= 1
            if value & (1 << m):
                value ^= primitive_poly
        if value != 1:
            raise ValueError("polynomial is not primitive over GF(2)")
        # Duplicate the table so exponent sums need no modulo reduction.
        exp[self._order:] = exp[:self._order]
        self._exp = exp
        self._log = log
        # The array ops' tables fold zero in: its log is a sentinel
        # past any sum of two real logs, where the antilog table reads
        # 0, so a product is three gathers and an add, with no masks.
        self._zero_log = 2 * self._order
        self._array_log = np.where(log < 0, self._zero_log, log)
        self._array_exp = np.concatenate(
            [exp, np.zeros(2 * self._order + 1, dtype=np.int64)])

    @property
    def m(self) -> int:
        """Extension degree: the field has ``2^m`` elements."""
        return self._m

    @property
    def order(self) -> int:
        """Size of the multiplicative group, ``2^m - 1``."""
        return self._order

    @property
    def size(self) -> int:
        """Number of field elements, ``2^m``."""
        return self._order + 1

    @property
    def modulus(self) -> int:
        """The defining primitive polynomial (bitmask)."""
        return self._modulus

    def _check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise ValueError(f"{a} is not an element of GF(2^{self._m})")
        return a

    def add(self, a: int, b: int) -> int:
        """Field addition (= subtraction = XOR in characteristic 2)."""
        return self._check(a) ^ self._check(b)

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self._exp[self._order - self._log[a]])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, exponent: int) -> int:
        """Field exponentiation ``a ** exponent`` (any integer exponent)."""
        self._check(a)
        if a == 0:
            if exponent < 0:
                raise ZeroDivisionError("zero has no negative powers")
            return 0 if exponent else 1
        reduced = (self._log[a] * exponent) % self._order
        return int(self._exp[reduced])

    def alpha_pow(self, exponent: int) -> int:
        """``alpha ** exponent`` for the generator ``alpha = 2``."""
        return int(self._exp[exponent % self._order])

    def alpha_pow_array(self, exponents: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`alpha_pow` over an integer exponent array."""
        exps = np.asarray(exponents, dtype=np.int64)
        return self._exp[np.mod(exps, self._order)]

    def log_alpha(self, a: int) -> int:
        """Discrete log base ``alpha`` of a non-zero element."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no discrete logarithm")
        return int(self._log[a])

    # ------------------------------------------------------------------
    # array-native field operations (the vectorized decode engine)

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of two element arrays.

        Broadcasting follows NumPy rules.  Every lane is one log-table
        gather per operand, an exponent add, and one antilog gather —
        the exp table is stored doubled, so the exponent sum needs no
        modulo reduction, and zero's log is a sentinel whose sums all
        land on antilog entries that read 0.
        """
        logs = self._array_log
        return self._array_exp[logs[np.asarray(a, dtype=np.int64)]
                               + logs[np.asarray(b, dtype=np.int64)]]

    def inv_array(self, a: np.ndarray) -> np.ndarray:
        """Elementwise multiplicative inverse of a non-zero array.

        Raises :class:`ZeroDivisionError` if any lane is zero; batch
        callers must mask zero lanes away first (the Berlekamp–Massey
        step only ever inverts previous discrepancies, which are
        non-zero by construction).
        """
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[self._order - self._log[a]]

    def div_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field quotient ``a / b`` (*b* must be non-zero)."""
        return self.mul_array(a, self.inv_array(b))

    def log_array(self, a: np.ndarray) -> np.ndarray:
        """Elementwise discrete log; zero lanes map to the ``-1`` sentinel.

        The sentinel convention lets callers gather logs of sparse
        coefficient matrices in one pass and mask the zero lanes out
        afterwards, instead of branching per element.
        """
        return self._log[np.asarray(a, dtype=np.int64)]

    def alpha_eval_batch(self, coeffs: np.ndarray,
                         point_exponents: np.ndarray) -> np.ndarray:
        """Evaluate field polynomials on an ``alpha``-power grid, batched.

        *coeffs* is a ``(B, D)`` matrix of GF(2^m) coefficients (degree
        0 first); *point_exponents* is a length-``P`` integer array of
        exponents ``e`` (negative allowed).  Returns the ``(B, P)``
        value matrix ``V[b, p] = sum_d coeffs[b, d] * alpha^(e_p * d)``
        — the workhorse of the batched Chien search, where the grid is
        ``e_p = -p`` over all codeword positions.

        The evaluation runs one degree at a time (``D`` passes over a
        ``(B, P)`` XOR accumulator), keeping peak memory at one
        batch-by-grid matrix instead of materialising a ``(B, D, P)``
        cube.  All-zero coefficient columns are skipped outright.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        exps = np.asarray(point_exponents, dtype=np.int64)
        # Zero coefficients read as the sentinel, so their terms are 0.
        coeff_logs = self._array_log[coeffs]
        values = np.zeros((coeffs.shape[0], exps.shape[0]),
                          dtype=np.int64)
        for degree in range(coeffs.shape[1]):
            logs = coeff_logs[:, degree]
            if (logs == self._zero_log).all():
                continue
            grid = np.mod(exps * degree, self._order)
            values ^= self._array_exp[logs[:, None] + grid[None, :]]
        return values

    # ------------------------------------------------------------------
    # structures built on the field

    def cyclotomic_coset(self, exponent: int) -> List[int]:
        """Cyclotomic coset of *exponent* modulo ``2^m - 1``.

        The coset ``{e, 2e, 4e, ...}`` indexes the conjugates
        ``alpha^e, alpha^{2e}, ...`` sharing one minimal polynomial.
        """
        exponent %= self._order
        coset = [exponent]
        current = (exponent * 2) % self._order
        while current != exponent:
            coset.append(current)
            current = (current * 2) % self._order
        return coset

    def minimal_polynomial(self, exponent: int) -> int:
        """Minimal polynomial over GF(2) of ``alpha**exponent`` (bitmask).

        Computed as ``prod (x - alpha^{e'})`` over the cyclotomic coset;
        the product necessarily has 0/1 coefficients.
        """
        coset = self.cyclotomic_coset(exponent)
        # Coefficients over GF(2^m), lowest degree first; start with 1.
        coeffs = [1]
        for element_exp in coset:
            root = self.alpha_pow(element_exp)
            # Multiply coeffs by (x + root).
            new = [0] * (len(coeffs) + 1)
            for degree, coeff in enumerate(coeffs):
                new[degree + 1] ^= coeff            # x * coeff
                new[degree] ^= self.mul(coeff, root)  # root * coeff
            coeffs = new
        mask = 0
        for degree, coeff in enumerate(coeffs):
            if coeff not in (0, 1):
                raise AssertionError(
                    "minimal polynomial must have binary coefficients")
            if coeff:
                mask |= 1 << degree
        return mask

    def poly_eval(self, coeff_bits: np.ndarray, point: int) -> int:
        """Evaluate a GF(2)-coefficient polynomial at a field *point*.

        *coeff_bits* is an LSB-first 0/1 vector; Horner evaluation in
        GF(2^m).  This is how BCH syndromes ``r(alpha^j)`` are computed.
        """
        result = 0
        for coeff in reversed(np.asarray(coeff_bits).astype(int)):
            result = self.mul(result, point) ^ (1 if coeff else 0)
        return result

    def __repr__(self) -> str:
        return f"GF2m(m={self._m}, modulus={bin(self._modulus)})"
