"""Secure sketches: the helper-data layer above a block code.

A secure sketch turns a noisy PUF response ``w`` into public helper data
that allows later exact recovery of ``w`` from any close-enough reading
``w'``.  Two standard constructions (Dodis et al., the paper's reference
[2]) are provided:

* :class:`CodeOffsetSketch` — helper ``h = w XOR C(s)`` for a random
  seed ``s``; recovery decodes ``w' XOR h``.
* :class:`SyndromeSketch` — helper is the BCH syndrome vector of ``w``;
  recovery decodes the syndrome *difference*, which depends only on the
  error pattern.  Smaller helper data, BCH-specific.

Both expose the same ``generate`` / ``recover`` interface and both raise
:class:`~repro.ecc.base.DecodingFailure` when the error pattern exceeds
the code's correction radius — the externally observable failure event of
paper Fig. 5.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.ecc.base import (
    BlockCode,
    DecodingFailure,
    as_bit_matrix,
    as_bits,
)
from repro.ecc.bch import BCHCode
from repro.ecc.kernel import KernelWorkload, run_kernels


@dataclass(frozen=True)
class SketchData:
    """Public helper data produced by a secure sketch.

    ``payload`` is an opaque bit vector (its meaning depends on the
    sketch construction).  Helper data is *public and writable* — the
    whole premise of the paper — so attacks freely construct modified
    instances.
    """

    payload: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload",
                           as_bits(self.payload).copy())

    @classmethod
    def of_bits(cls, payload: np.ndarray) -> "SketchData":
        """Helper data over a fresh 0/1 ``uint8`` vector, unvalidated.

        For payloads a sketch has just computed from validated bits;
        the caller hands over *payload* and keeps no reference.
        """
        data = object.__new__(cls)
        object.__setattr__(data, "payload", payload)
        return data

    def with_payload(self, payload: np.ndarray) -> "SketchData":
        """A new helper-data object with a replaced payload."""
        return SketchData(payload)


@dataclass(frozen=True)
class DecodeKernel:
    """Picklable stateless wrapper around a code's ``decode_batch``.

    The kernel half of :meth:`CodeOffsetSketch.plan_recover`: workloads
    built over structurally identical codes carry equal keys and are
    interchangeable, so the fused executor may answer them all through
    any one member's kernel.
    """

    code: BlockCode

    def __call__(self, words: np.ndarray,
                 bounds: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode a stacked ``(R, n)`` word matrix.

        *bounds* are per-row position bounds (words of shorter codes
        of the same parent, zero-padded); only codes with a shortening
        family (:meth:`~repro.ecc.base.BlockCode.parent_key`) get them.
        """
        if bounds is None:
            return self.code.decode_batch(words)
        return self.code.decode_batch(words, bounds)


@dataclass(frozen=True)
class SolveSyndromesKernel:
    """Picklable wrapper around ``BCHCode.solve_syndromes_batch``.

    The kernel half of :meth:`SyndromeSketch.plan_recover`; the
    position bound travels with the kernel (and in the workload key)
    because it is part of the computation's identity.
    """

    code: BCHCode
    max_position: int

    def __call__(self, syndromes: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Locate error patterns for a stacked ``(R, 2t)`` batch."""
        return self.code.solve_syndromes_batch(
            syndromes, max_position=self.max_position)


class SecureSketch(abc.ABC):
    """Interface of a secure sketch over ``response_length`` bits."""

    @property
    @abc.abstractmethod
    def response_length(self) -> int:
        """Length of the response vector the sketch protects."""

    @property
    @abc.abstractmethod
    def helper_length(self) -> int:
        """Length of the public helper payload in bits."""

    @abc.abstractmethod
    def generate(self, response: np.ndarray,
                 rng: RNGLike = None) -> SketchData:
        """Enrollment: derive helper data from the reference response."""

    @abc.abstractmethod
    def recover(self, noisy_response: np.ndarray,
                helper: SketchData) -> np.ndarray:
        """Reconstruction: recover the reference response, or raise
        :class:`DecodingFailure`."""

    def recover_batch(self, noisy_responses: np.ndarray,
                      helper: SketchData
                      ) -> "tuple[np.ndarray, np.ndarray]":
        """Recover a batch of noisy readings; failures become data.

        Returns ``(recovered, ok)`` where failed rows are all-zero with
        ``ok = False``; successful rows match :meth:`recover` bit for
        bit (the batch contract of ``docs/ecc.md``).  This is one
        device's run of the two-phase route: :meth:`plan_recover`,
        the declared kernel alone through
        :func:`~repro.ecc.kernel.run_kernels`, then
        :meth:`finish_recover`.
        """
        workload, state = self.plan_recover(noisy_responses, helper)
        (outputs,) = run_kernels([workload])
        return self.finish_recover(state, outputs)

    # -- two-phase recovery (plan → fused kernel → finish) -------------

    def kernel_key(self) -> "tuple | None":
        """Structural identity of this sketch's recovery kernel.

        Recovery workloads of sketches with equal (non-``None``) keys
        may be fused into one kernel call across devices (see
        :mod:`repro.ecc.kernel` and ``docs/evaluators.md``); ``None``
        (the default) makes every workload run alone.
        """
        return None

    def plan_recover(self, noisy_responses: np.ndarray,
                     helper: SketchData
                     ) -> "tuple[Optional[KernelWorkload], object]":
        """Phase 1 of a recovery: declare kernel work, keep the rest.

        Returns ``(workload, state)``.  The workload (or ``None`` when
        no kernel work is needed) is handed to
        :func:`repro.ecc.kernel.run_kernels` — possibly stacked with
        same-key workloads of other devices — and the opaque *state*
        plus the kernel outputs reproduce the full result through
        :meth:`finish_recover`, row for row equal to :meth:`recover`.
        Raises ``ValueError`` for a malformed helper payload.
        """
        return self.plan_parsed(noisy_responses,
                                self.parse_helper(helper))

    @abc.abstractmethod
    def parse_helper(self, helper: SketchData) -> np.ndarray:
        """Validate *helper* once into the form :meth:`plan_parsed` takes.

        Raises ``ValueError`` for a malformed payload.  Callers that
        plan many blocks under one helper parse it once and keep the
        result (:class:`repro.keygen.batch.SketchCompletion` does).
        """

    @abc.abstractmethod
    def plan_parsed(self, noisy_responses: np.ndarray,
                    parsed: np.ndarray
                    ) -> "tuple[Optional[KernelWorkload], object]":
        """:meth:`plan_recover` over an already parsed helper."""

    @abc.abstractmethod
    def finish_recover(self, state: object,
                       outputs: "Optional[tuple]"
                       ) -> "tuple[np.ndarray, np.ndarray]":
        """Phase 3 of a recovery: combine kernel outputs with *state*.

        See :meth:`plan_recover`; returns ``(recovered, ok)`` exactly
        like :meth:`recover_batch`.
        """


class CodeOffsetSketch(SecureSketch):
    """Code-offset construction over any :class:`BlockCode`.

    The response is padded with implicit zeros up to the code length, so
    any response length up to ``code.n`` is supported; padding bits are
    noiseless and never consume correction capability.
    """

    def __init__(self, code: BlockCode, response_length: int = None):
        if response_length is None:
            response_length = code.n
        if not 1 <= response_length <= code.n:
            raise ValueError(
                f"response length must be in [1, {code.n}]")
        self._code = code
        self._length = response_length

    @property
    def code(self) -> BlockCode:
        """The underlying block code."""
        return self._code

    @property
    def response_length(self) -> int:
        """Length of the protected response in bits."""
        return self._length

    @property
    def helper_length(self) -> int:
        """Helper payload length: the full code length ``n``."""
        return self._code.n

    def _pad(self, response: np.ndarray) -> np.ndarray:
        response = as_bits(response, self._length)
        padded = np.zeros(self._code.n, dtype=np.uint8)
        padded[:self._length] = response
        return padded

    def generate(self, response: np.ndarray,
                 rng: RNGLike = None) -> SketchData:
        """Helper ``pad(w) XOR C(s)`` for a random seed ``s``."""
        gen = ensure_rng(rng)
        seed = gen.integers(0, 2, size=self._code.k).astype(np.uint8)
        codeword = self._code.encode(seed)
        return SketchData(self._pad(response) ^ codeword)

    def recover(self, noisy_response: np.ndarray,
                helper: SketchData) -> np.ndarray:
        """Decode ``pad(w') XOR h`` back to the response."""
        payload = self.parse_helper(helper)
        shifted = self._pad(noisy_response) ^ payload
        codeword = self._code.decode(shifted)
        recovered = payload ^ codeword
        return recovered[:self._length]

    def kernel_key(self) -> "tuple | None":
        """Recovery-kernel identity: the parent of the decode kernel.

        The payload XOR happens in the plan/finish phases, so two
        code-offset sketches fuse whenever their codes share a parent
        (:meth:`~repro.ecc.base.BlockCode.parent_key`) — across
        response lengths (padding is per-device plan work) and across
        shortenings: the fused call pads every word to the longest
        code and bounds each row's corrections by its own code length.
        """
        code_key = self._code.parent_key()
        if code_key is None:
            return None
        return ("code-offset", code_key)

    def parse_helper(self, helper: SketchData) -> np.ndarray:
        """The payload as ``uint8`` bits of the full code length."""
        return as_bits(helper.payload, self._code.n)

    def plan_parsed(self, noisy_responses: np.ndarray,
                    parsed: np.ndarray
                    ) -> "tuple[Optional[KernelWorkload], object]":
        """Declare the decode workload; keep the payload as state.

        The kernel input is the payload-shifted word matrix, decoded
        by the code's vectorized ``decode_batch`` (for BCH, the
        batched Berlekamp–Massey + Chien engine); the payload itself
        rides in the state so :meth:`finish_recover` can XOR the
        decoded codewords back and truncate.
        """
        batch = as_bit_matrix(noisy_responses, self._length)
        return self.offset_workload(batch, parsed[None, :]), parsed

    def offset_workload(self, responses: np.ndarray,
                        payloads: np.ndarray,
                        bounds: Optional[np.ndarray] = None
                        ) -> KernelWorkload:
        """The decode workload of responses under per-row payloads.

        *responses* is a ``(U, w)`` 0/1 ``uint8`` matrix with
        ``w <= code.n`` (row ``u`` zero past its own response
        length); *payloads* holds one parsed code-length payload per
        row, or a single ``(1, n)`` row for all.  Each row is padded
        to the code length and XORed with its payload, so rows of
        many helpers over one code stack into one workload; XORing a
        decoded row with its payload again undoes the shift.  Rows of
        shorter codes of the same parent carry their code length in
        *bounds* (their payloads zero-padded to ``n``).
        """
        shifted = np.zeros((responses.shape[0], self._code.n),
                           dtype=np.uint8)
        shifted[:, :responses.shape[1]] = responses
        shifted ^= payloads
        return KernelWorkload(self.kernel_key(), shifted,
                              DecodeKernel(self._code), bounds)

    def finish_recover(self, state: object,
                       outputs: "Optional[tuple]"
                       ) -> "tuple[np.ndarray, np.ndarray]":
        """Unwind the payload shift from the fused decode outputs."""
        payload = state
        if outputs is None:
            return (np.zeros((0, self._length), dtype=np.uint8),
                    np.zeros(0, dtype=bool))
        codewords, ok = outputs
        recovered = (payload[None, :] ^ codewords)[:, :self._length]
        recovered[~ok] = 0
        return recovered, ok

    def helper_for_response(self, response: np.ndarray,
                            seed: np.ndarray) -> SketchData:
        """Helper data binding *response* through an explicit *seed*.

        This is the attacker's tool for key *reprogramming* (paper
        §VI-C): anyone who knows (or hypothesises) the full response can
        compute a perfectly consistent helper payload for it.
        """
        codeword = self._code.encode(as_bits(seed, self._code.k))
        (payload,) = self.payloads_for_codeword(
            as_bits(response, self._length)[None, :], codeword)
        return SketchData.of_bits(payload)

    def payloads_for_codeword(self, responses: np.ndarray,
                              codeword: np.ndarray) -> np.ndarray:
        """Payloads binding each 0/1 ``uint8`` row through *codeword*.

        *codeword* is an already encoded seed, so a caller binding
        many batches through one seed encodes it once.  Returns the
        ``(rows, n)`` payload matrix; the payloads are XORs of
        validated bits and are not validated again.
        """
        payloads = np.zeros((responses.shape[0], self._code.n),
                            dtype=np.uint8)
        payloads[:, :self._length] = responses
        payloads ^= codeword
        return payloads


class SyndromeSketch(SecureSketch):
    """Syndrome construction specialised to BCH codes.

    The helper stores the ``2t`` GF(2^m) syndromes of the (zero-padded)
    response, serialised to bits.  On recovery, the syndromes of the new
    reading are XOR-subtracted — in characteristic 2 the difference is
    exactly the syndrome vector of the error pattern — and the standard
    Berlekamp–Massey / Chien machinery locates the errors.
    """

    def __init__(self, code: BCHCode, response_length: int = None):
        if not isinstance(code, BCHCode):
            raise TypeError("SyndromeSketch requires a BCHCode")
        if response_length is None:
            response_length = code.n
        if not 1 <= response_length <= code.n:
            raise ValueError(
                f"response length must be in [1, {code.n}]")
        self._code = code
        self._length = response_length

    @property
    def code(self) -> BCHCode:
        """The underlying BCH code."""
        return self._code

    @property
    def response_length(self) -> int:
        """Length of the protected response in bits."""
        return self._length

    @property
    def helper_length(self) -> int:
        """Helper payload length: ``2 t m`` syndrome bits."""
        return 2 * self._code.t * self._code.m

    # -- serialisation ---------------------------------------------------

    def _syndromes(self, response: np.ndarray) -> List[int]:
        padded = np.zeros(self._code.n, dtype=np.uint8)
        padded[:self._length] = as_bits(response, self._length)
        full = np.zeros(self._code._full_n, dtype=np.uint8)
        full[:self._code.n] = padded
        return self._code._syndromes(full)

    def _serialise(self, syndromes: List[int]) -> np.ndarray:
        m = self._code.m
        bits = np.zeros(self.helper_length, dtype=np.uint8)
        for idx, value in enumerate(syndromes):
            for bit in range(m):
                bits[idx * m + bit] = (value >> bit) & 1
        return bits

    def _deserialise(self, bits: np.ndarray) -> List[int]:
        bits = as_bits(bits, self.helper_length)
        m = self._code.m
        values = []
        for idx in range(2 * self._code.t):
            value = 0
            for bit in range(m):
                value |= int(bits[idx * m + bit]) << bit
            values.append(value)
        return values

    # -- sketch interface --------------------------------------------------

    def generate(self, response: np.ndarray,
                 rng: RNGLike = None) -> SketchData:
        # The construction is deterministic; *rng* accepted for interface
        # uniformity.
        """Helper data: the serialised response syndromes."""
        return SketchData(self._serialise(self._syndromes(response)))

    def kernel_key(self) -> "tuple | None":
        """Recovery-kernel identity: solve kernel plus position bound.

        The response length is part of the key because it bounds where
        a correction may land (``max_position``); two syndrome
        sketches fuse only when both the BCH geometry and that bound
        agree.  A code without a kernel identity opts the sketch out
        of fusion entirely.
        """
        code_key = self._code.kernel_key()
        if code_key is None:
            return None
        return ("syndrome", code_key, self._length)

    def parse_helper(self, helper: SketchData) -> np.ndarray:
        """The reference syndromes, as an ``int64`` vector."""
        return np.array(self._deserialise(helper.payload),
                        dtype=np.int64)

    def plan_parsed(self, noisy_responses: np.ndarray,
                    parsed: np.ndarray
                    ) -> "tuple[Optional[KernelWorkload], object]":
        """Declare the syndrome-solve workload for the dirty rows.

        The syndrome differences are computed per device (they depend
        on this helper's reference syndromes); only rows with a
        non-zero difference contribute kernel work, solved with
        ``max_position`` bound to the response length — the same
        constraint the scalar :meth:`recover` enforces ("correction
        lands outside the response bits").  Clean rows resolve in the
        finish phase without touching the kernel.
        """
        batch = as_bit_matrix(noisy_responses, self._length)
        padded = np.zeros((batch.shape[0], self._code.n),
                          dtype=np.uint8)
        padded[:, :self._length] = batch
        difference = self._code.syndromes_batch(padded) \
            ^ parsed[None, :]
        clean = ~difference.any(axis=1)
        dirty = np.flatnonzero(~clean)
        state = (batch, clean, dirty)
        if dirty.size == 0:
            return None, state
        workload = KernelWorkload(
            self.kernel_key(), difference[dirty],
            SolveSyndromesKernel(self._code, self._length))
        return workload, state

    def finish_recover(self, state: object,
                       outputs: "Optional[tuple]"
                       ) -> "tuple[np.ndarray, np.ndarray]":
        """Scatter solved error patterns back over the dirty rows."""
        batch, clean, dirty = state
        recovered = np.zeros_like(batch)
        recovered[clean] = batch[clean]
        ok = clean.copy()
        if dirty.size:
            errors, solved = outputs
            good = dirty[solved]
            recovered[good] = batch[good] \
                ^ errors[solved][:, :self._length]
            ok[good] = True
        return recovered, ok

    def recover(self, noisy_response: np.ndarray,
                helper: SketchData) -> np.ndarray:
        """Decode the syndrome difference to recover the response."""
        reference = self._deserialise(helper.payload)
        observed = self._syndromes(noisy_response)
        difference = [a ^ b for a, b in zip(observed, reference)]
        padded = np.zeros(self._code.n, dtype=np.uint8)
        padded[:self._length] = as_bits(noisy_response, self._length)

        if any(difference):
            sigma = self._code._berlekamp_massey(difference)
            n_errors = len(sigma) - 1
            if n_errors > self._code.t:
                raise DecodingFailure(
                    f"error locator degree {n_errors} exceeds "
                    f"t={self._code.t}")
            positions = self._code._chien_search(sigma)
            if len(positions) != n_errors:
                raise DecodingFailure(
                    "error locator does not split over the field")
            for position in positions:
                if position >= self._length:
                    raise DecodingFailure(
                        "correction lands outside the response bits")
                padded[position] ^= 1
            if self._syndromes(padded[:self._length]) != reference:
                raise DecodingFailure(
                    "correction does not match the reference syndromes")
        return padded[:self._length]
