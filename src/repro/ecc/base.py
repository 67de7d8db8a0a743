"""Common interface for the block codes used as PUF reliability layers.

Paper §VI treats the ECC abstractly: a block code correcting ``t`` errors
per block, with the no-ECC case as the degenerate ``t = 0``.  Every code
in this package implements :class:`BlockCode`; key generators and attacks
only ever see this interface, so any code can back any construction.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro._dedup import unique_rows


class DecodingFailure(Exception):
    """Raised when a received word lies beyond the code's correction radius.

    A decoding failure during key reconstruction is exactly the externally
    observable event the paper's attacks measure (Fig. 5): the device
    cannot regenerate its key and the application misbehaves.
    """


def as_bits(bits: np.ndarray, length: int = None) -> np.ndarray:
    """Validate and normalise a 0/1 vector to ``uint8``."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit vectors must be one-dimensional")
    if (arr.size and arr.max() > 1 if arr.dtype == np.uint8
            else not ((arr == 0) | (arr == 1)).all()):
        raise ValueError("bit vectors must contain only 0 and 1")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"expected {length} bits, got {arr.shape[0]}")
    return arr.astype(np.uint8)


def as_bit_matrix(bits: np.ndarray, length: int) -> np.ndarray:
    """Validate and normalise a ``(B, length)`` bit matrix to ``uint8``.

    The batch-shape counterpart of :func:`as_bits`, shared by every
    ``decode_batch`` / ``recover_batch`` entry point.  Only the shape is
    checked — batch producers are internal NumPy pipelines already
    emitting 0/1 matrices, so the per-element value scan that guards
    the scalar public API is skipped on the hot path.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[1] != length:
        raise ValueError(f"batch shape must be (B, {length})")
    return arr


class BlockCode(abc.ABC):
    """An ``[n, k]`` binary block code correcting ``t`` errors."""

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Codeword length in bits."""

    @property
    @abc.abstractmethod
    def k(self) -> int:
        """Message length in bits."""

    @property
    @abc.abstractmethod
    def t(self) -> int:
        """Guaranteed number of correctable errors per block."""

    @abc.abstractmethod
    def encode(self, message: np.ndarray) -> np.ndarray:
        """Encode a ``k``-bit message into an ``n``-bit codeword."""

    @abc.abstractmethod
    def decode(self, received: np.ndarray) -> np.ndarray:
        """Correct a received ``n``-bit word to the nearest codeword.

        Raises
        ------
        DecodingFailure
            If more than ``t`` errors are detected (or correction is
            otherwise impossible).
        """

    @abc.abstractmethod
    def extract(self, codeword: np.ndarray) -> np.ndarray:
        """Recover the ``k``-bit message from a (corrected) codeword."""

    def decode_batch(self, received: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode a ``(B, n)`` batch of received words.

        Returns ``(codewords, ok)``: a ``(B, n)`` uint8 matrix and a
        boolean success mask.  Rows whose decode raises
        :class:`DecodingFailure` are all-zero with ``ok = False`` —
        batch consumers observe failures as data instead of control
        flow, which is what the failure-rate oracles need.

        **Batch contract** — every implementation, overridden or not,
        must be bitwise-equivalent to calling :meth:`decode` row by
        row: same corrected bits on success, same rows failing.  The
        engine's query-for-query equivalence guarantee (see
        ``docs/ecc.md``) rests on this; ``tests/ecc/test_batch_decode``
        and ``benchmarks/bench_ecc_decode.py`` assert it.

        Every shipped code overrides this with a vectorized decoder
        (BCH: batched Berlekamp–Massey + Chien; Reed–Muller: batched
        Hadamard transform; repetition/Hamming: closed-form).  The base
        implementation is the fallback for external codes without a
        vectorizable decoder: it deduplicates identical received words
        and decodes each distinct word once through the scalar path, so
        the contract holds by construction.
        """
        distinct, inverse = unique_rows(as_bit_matrix(received, self.n))
        codewords = np.zeros_like(distinct)
        ok = np.zeros(distinct.shape[0], dtype=bool)
        for slot, word in enumerate(distinct):
            try:
                codewords[slot] = self.decode(word)
            except DecodingFailure:
                continue
            ok[slot] = True
        return codewords[inverse], ok[inverse]

    def kernel_key(self) -> "tuple | None":
        """Structural identity of this code's batch-decode kernel.

        Two codes returning the same (non-``None``) key must be
        *interchangeable* as decoders: their :meth:`decode_batch`
        results must be bitwise-identical on any input.  The two-phase
        evaluator protocol uses the key to fuse the decode workloads of
        many devices sharing a code geometry into one kernel call
        (:mod:`repro.ecc.kernel`).  The base implementation returns
        ``None`` — unknown external codes never fuse — and every
        shipped code overrides it with its defining parameters.
        """
        return None

    def parent_key(self) -> "tuple | None":
        """Kernel identity shared by every shortening of this code.

        Codes with equal parent keys decode each other's words padded
        with zeros to the longer length exactly as their own decoders
        would, once ``decode_batch(words, bounds)`` bounds each row's
        corrections by its own length; that lets a code-offset kernel
        call stack words of several shortenings
        (:func:`repro.ecc.kernel.run_kernels`).  The default is
        :meth:`kernel_key`: a code without a shortening family fuses
        only with codes of its own geometry.
        """
        return self.kernel_key()

    @property
    def bounded_distance(self) -> bool:
        """Whether the decoder is a bounded-distance decoder.

        Bounded-distance decoders (BCH, repetition) correct up to ``t``
        and *fail* beyond, which is what the simple Fig. 5 injection
        calculus assumes.  Maximum-likelihood decoders (first-order
        Reed–Muller) always return the nearest codeword; words at
        exactly half the minimum distance resolve deterministically but
        data-dependently, and attackers must pick injection patterns by
        offline search instead (see
        ``SequentialPairingAttack._injection_positions``).
        """
        return True

    def is_codeword(self, word: np.ndarray) -> bool:
        """Whether *word* is exactly a codeword of this code."""
        word = as_bits(word, self.n)
        try:
            corrected = self.decode(word)
        except DecodingFailure:
            return False
        return bool(np.array_equal(corrected, word))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n={self.n}, k={self.k}, "
                f"t={self.t})")
