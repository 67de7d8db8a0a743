"""Toeplitz universal hashing over GF(2).

The strong-extractor half of a fuzzy extractor (paper §VII-A): a family
of 2-universal hash functions indexed by a public random seed.  A
Toeplitz matrix ``T`` of shape ``(out_bits, in_bits)`` is described by
its first column and first row — ``out_bits + in_bits - 1`` seed bits —
and the hash is ``T @ w mod 2``.  By the leftover-hash lemma the output
is near-uniform given sufficient input min-entropy, which is what
compensates the sketch's entropy leakage and the PUF's initial
non-uniformity.
"""

from __future__ import annotations

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.ecc.base import as_bit_matrix, as_bits


class ToeplitzHash:
    """A GF(2) Toeplitz hash ``{0,1}^in_bits -> {0,1}^out_bits``."""

    def __init__(self, seed_bits: np.ndarray, in_bits: int,
                 out_bits: int):
        if in_bits < 1 or out_bits < 1:
            raise ValueError("dimensions must be positive")
        expected = in_bits + out_bits - 1
        self._seed = as_bits(seed_bits, expected).copy()
        self._in = int(in_bits)
        self._out = int(out_bits)
        # diag(i, j) = seed[out_bits - 1 + j - i]: constant along
        # diagonals, first column = seed[out-1 .. 0] reversed, first row
        # = seed[out-1 ..].
        rows = np.arange(self._out)[:, None]
        cols = np.arange(self._in)[None, :]
        self._matrix = self._seed[self._out - 1 + cols - rows]

    @classmethod
    def random(cls, in_bits: int, out_bits: int,
               rng: RNGLike = None) -> "ToeplitzHash":
        """Draw a hash from the family with a fresh public seed."""
        gen = ensure_rng(rng)
        seed = gen.integers(0, 2, size=in_bits + out_bits - 1)
        return cls(seed.astype(np.uint8), in_bits, out_bits)

    @property
    def seed_bits(self) -> np.ndarray:
        """The public seed (part of the helper data)."""
        return self._seed

    @property
    def in_bits(self) -> int:
        """Input length in bits."""
        return self._in

    @property
    def out_bits(self) -> int:
        """Hashed output length in bits."""
        return self._out

    @property
    def matrix(self) -> np.ndarray:
        """The full Toeplitz matrix (for tests and analysis)."""
        return self._matrix

    def __call__(self, word: np.ndarray) -> np.ndarray:
        """Hash an ``in_bits``-long word to ``out_bits`` bits."""
        word = as_bits(word, self._in)
        return ((self._matrix @ word) % 2).astype(np.uint8)

    def hash_batch(self, words: np.ndarray) -> np.ndarray:
        """Hash a ``(B, in_bits)`` matrix of words in one GF(2) matmul.

        Row ``i`` equals ``self(words[i])`` bit-for-bit: each product
        entry counts at most ``in_bits`` ones, which float64 holds
        exactly, and a float matmul runs in BLAS where an integer one
        does not; this is how the batched fuzzy-extractor path hashes
        every recovered response without a per-row Python loop.
        """
        words = as_bit_matrix(words, self._in)
        counts = words @ self._matrix.T.astype(np.float64)
        return (counts.astype(np.int64) & 1).astype(np.uint8)
