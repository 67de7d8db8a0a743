"""Common machinery for end-to-end key generators.

A *key generator* bundles one of the paper's helper-data constructions
with an ECC reliability layer and an application-level key check into a
complete enroll/reconstruct device model.  The key check models the
paper's observability assumption — *"an inability to reconstruct the key
should affect the observable behavior of any useful application"* — as a
public hash commitment: reconstruction succeeds iff the regenerated key
matches the committed one, exactly like a MAC verification or a
decryption of known-format data would behave.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro._rng import RNGLike
from repro.ecc.base import BlockCode, DecodingFailure, as_bits
from repro.ecc.bch import design_bch
from repro.ecc.sketch import CodeOffsetSketch
from repro.puf.ro_array import ROArray


class ReconstructionFailure(Exception):
    """Key regeneration failed observably.

    Raised on an ECC decoding failure *or* on a key-check mismatch
    (silent mis-correction).  Both are externally indistinguishable to
    the attacker and both count as "failure" in the Fig. 5 statistics.
    """


@dataclass(frozen=True)
class OperatingPoint:
    """Environmental conditions of one reconstruction."""

    temperature: Optional[float] = None
    voltage: Optional[float] = None


#: A provider maps a response length to the block code protecting it.
CodeProvider = Callable[[int], BlockCode]


@dataclass(frozen=True)
class _TrivialProvider:
    """Provider of rate-1 codes (no error correction)."""

    def __call__(self, bits: int) -> BlockCode:
        from repro.ecc.simple import TrivialCode

        return TrivialCode(bits)


@dataclass(frozen=True)
class _BCHProvider:
    """Provider of the smallest shortened BCH with a fixed ``t``."""

    t: int
    max_m: int = 12

    def __call__(self, bits: int) -> BlockCode:
        return design_bch(bits, self.t, max_m=self.max_m)


@dataclass(frozen=True)
class _BlockwiseProvider:
    """Provider splitting the response across independent BCH blocks."""

    t: int
    block_data_bits: int
    max_m: int = 12

    def __call__(self, bits: int) -> BlockCode:
        from repro.ecc.simple import BlockwiseCode

        blocks = max(1, -(-bits // self.block_data_bits))
        inner = bch_provider(self.t, max_m=self.max_m)(
            self.block_data_bits)
        if blocks == 1:
            return inner
        return BlockwiseCode(inner, blocks)


@dataclass(frozen=True)
class _FixedCodeProvider:
    """Provider returning one pre-built code regardless of length."""

    code: BlockCode

    def __call__(self, bits: int) -> BlockCode:
        if bits > self.code.n:
            raise ValueError(
                f"response of {bits} bits exceeds code length "
                f"{self.code.n}")
        return self.code


def bch_provider(t: int, max_m: int = 12) -> CodeProvider:
    """Provider returning the smallest shortened BCH with the given t.

    Providers are plain picklable objects (not closures) so that key
    generators holding them can cross process boundaries — the parallel
    fleet engine ships enrolled devices to worker processes.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return _TrivialProvider()
    return _BCHProvider(int(t), int(max_m))


def blockwise_provider(t: int, block_data_bits: int,
                       max_m: int = 12) -> CodeProvider:
    """Provider that splits the response across independent ECC blocks.

    Paper §VI assumes all bits fit one block "for ease of explanation"
    and notes the multi-block extension is straightforward; this
    provider builds that extension: the response is covered by
    ``ceil(bits / block_data_bits)`` copies of a shortened BCH, each
    correcting *t* errors independently.
    """
    if block_data_bits < 1:
        raise ValueError("block_data_bits must be positive")
    return _BlockwiseProvider(int(t), int(block_data_bits), int(max_m))


def fixed_code(code: BlockCode) -> CodeProvider:
    """Provider returning one pre-built code regardless of length."""
    return _FixedCodeProvider(code)


def key_check_digest(key_bits: np.ndarray) -> bytes:
    """Public commitment to a key: truncated SHA-256 over the bit string.

    Stored in helper data so the device (application) can detect a wrong
    key; attackers recompute it freely when reprogramming keys (§VI-C).
    """
    bits = as_bits(key_bits)
    payload = np.packbits(bits).tobytes() + len(bits).to_bytes(4, "big")
    return hashlib.sha256(payload).digest()[:16]


def key_check_digests(keys: np.ndarray,
                      lengths: Optional[Sequence[int]] = None
                      ) -> List[bytes]:
    """Row-wise :func:`key_check_digest` of a ``(U, K)`` 0/1 key block.

    The bits are packed for the whole block at once; only the hash runs
    per row.  Like :func:`~repro.ecc.base.as_bit_matrix`, the batch form
    trusts its internal producers and skips the per-element 0/1 scan.
    With *lengths*, row ``u`` is the key of its first ``lengths[u]``
    bits and must be zero past them, so keys of different lengths
    share one block.
    """
    keys = np.asarray(keys, dtype=np.uint8)
    if keys.ndim != 2:
        raise ValueError("key blocks must be two-dimensional")
    packed = np.packbits(keys, axis=1)
    if lengths is None:
        suffix = keys.shape[1].to_bytes(4, "big")
        return [hashlib.sha256(row.tobytes() + suffix).digest()[:16]
                for row in packed]
    return [hashlib.sha256(row[:-(-length // 8)].tobytes()
                           + int(length).to_bytes(4, "big")
                           ).digest()[:16]
            for row, length in zip(packed, lengths)]


class KeyGenerator(abc.ABC):
    """Enroll/reconstruct interface shared by all constructions."""

    #: Measurements one reconstruction takes.  :meth:`reconstruct`
    #: hands their concatenation, ``(readouts * n,)``, to
    #: :meth:`reconstruct_from_frequencies`, and the batched oracle
    #: draws ``readouts`` noise rows per query to match.
    readouts = 1

    #: The on-chip temperature sensor a reconstruction reads once
    #: (:class:`~repro.puf.measurement.TemperatureSensor`), or
    #: ``None``.  A keygen with a sensor also defines
    #: ``sensor_draws(count)``, the next *count* raw reads of its sensor
    #: stream, which the batched oracle stores beside each query's
    #: noise row.
    sensor = None

    @abc.abstractmethod
    def enroll(self, array: ROArray, rng: RNGLike = None):
        """One-time enrollment; returns ``(helper, key_bits)``."""

    def sketch_for(self, bits: int):
        """The secure sketch protecting a *bits*-long response.

        Built through the construction's code provider and cached per
        response length: code design (field tables, generator
        polynomial) is deterministic and was previously repeated on
        every reconstruction, dominating the scalar hot path.
        """
        cache = self.__dict__.setdefault("_sketch_cache", {})
        sketch = cache.get(bits)
        if sketch is None:
            sketch = CodeOffsetSketch(self._code_provider(bits), bits)
            cache[bits] = sketch
        return sketch

    def reconstruct(self, array: ROArray, helper,
                    op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from fresh noisy measurements.

        Takes :attr:`readouts` measurements in a row.  Raises
        :class:`ReconstructionFailure` when the device observably
        fails (ECC failure or key-check mismatch).
        """
        freqs = np.concatenate([
            array.measure_frequencies(op.temperature, op.voltage)
            for _ in range(self.readouts)])
        return self.reconstruct_from_frequencies(array, freqs, helper,
                                                 op)

    @abc.abstractmethod
    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray, helper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from already-taken measurements.

        This is the measurement-free tail of :meth:`reconstruct`:
        *freqs* holds :attr:`readouts` concatenated measurement
        vectors.  :meth:`batch_evaluator` is its vectorized twin.
        """

    def reseed_transient_streams(self, rng: RNGLike = None) -> None:
        """Re-seed per-query transient noise streams (no-op default).

        Measurement noise always comes from the caller (the device's
        stream or an explicit oracle stream), but some schemes consume
        *additional* per-query randomness — e.g. the temperature-aware
        on-chip sensor.  Fleet sweeps re-seed those streams from sweep
        substreams derived from the population seed, so successive
        sweeps draw independent transient noise while staying
        reproducible and worker-count invariant.
        """

    @abc.abstractmethod
    def batch_evaluator(self, array: ROArray, helper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized success evaluator for this helper.

        Returns a :class:`repro.keygen.batch.BatchEvaluator` mapping a
        ``(B, readouts * n)`` measurement batch — with one more column,
        the sensed temperature, on a keygen with a :attr:`sensor` — to
        ``B`` success booleans, matching what *B* sequential
        :meth:`reconstruct` calls on the same readings would observe.

        Evaluators speak one protocol (see ``docs/evaluators.md``):
        ``plan(freqs)`` → kernel → ``EvalPlan.finalize(outputs)``, a
        split that lets a lock-step campaign stack the ECC kernel
        work of every device sharing a code into one call.  Every
        shipped evaluator completes patterns through
        :class:`repro.keygen.batch.SketchCompletion`.
        """

    def describe(self, array: ROArray, described):
        """A described hypothesis helper as a frontier block, or ``None``.

        *described* is a :class:`~repro.keygen.batch.DescribedHelper`
        of a helper for this construction.  A construction that can
        evaluate it without materialising returns the
        :class:`~repro.keygen.batch.PairBlock` that
        :meth:`batch_evaluator` would stack for ``described.
        materialise()``; the default ``None`` makes every route
        materialise the helper.
        """
        return None

    def _device_extraction(self, array: ROArray, extract):
        """The device's extraction for the one-readout
        :class:`~repro.keygen.batch.PairColumns` *extract*: itself, or
        mapped to a multi-readout row and checked (hardened devices)."""
        return extract

    def _finish(self, recovered_key: np.ndarray,
                key_check: bytes) -> np.ndarray:
        """Apply the application-level key check."""
        if key_check_digest(recovered_key) != key_check:
            raise ReconstructionFailure("key check mismatch")
        return recovered_key

    @staticmethod
    def _decode_or_fail(action: Callable[[], np.ndarray]) -> np.ndarray:
        """Translate ECC failures into observable reconstruction failures."""
        try:
            return action()
        except DecodingFailure as exc:
            raise ReconstructionFailure(str(exc)) from exc
