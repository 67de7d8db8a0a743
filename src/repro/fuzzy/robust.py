"""Robust fuzzy extractor: helper-data manipulation detection.

Paper §VII-B cites Boyen et al. [1] for *"an extension of the
architecture to counter manipulation attacks"*.  The idea: bind the
helper data to the (secret) PUF response with an authentication tag, so
that any rewrite of the public helper is detected before a key is ever
released.  An attacker cannot forge the tag for modified helper data
because computing it requires the response itself.

This implementation follows the standard hash-based instantiation: the
tag is a truncated SHA-256 over the reference response and every public
helper field.  ``reproduce`` first recovers the response through the
sketch, then recomputes the tag over the *received* helper fields and
compares; a mismatch raises :class:`ManipulationDetected` and no key
material leaves the device.

Security consequence demonstrated in the tests and benches: the §VI
attack pattern — rewrite helper data, learn from the failure behaviour —
still only observes value-independent failures (as with the plain fuzzy
extractor), and additionally the *reprogramming* avenue of §VI-C is
closed: an attacker cannot install helper data the device will accept
without knowing the response.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro._dedup import row_groups
from repro._rng import RNGLike, ensure_rng
from repro.ecc.base import as_bits
from repro.ecc.sketch import SecureSketch, SketchData
from repro.fuzzy.toeplitz import ToeplitzHash


class ManipulationDetected(Exception):
    """The helper-data authentication tag did not verify."""


@dataclass(frozen=True)
class RobustHelper:
    """Public helper data: sketch payload, hash seed, and the tag."""

    sketch: SketchData
    hash_seed: np.ndarray
    out_bits: int
    tag: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "hash_seed",
                           as_bits(self.hash_seed).copy())

    def with_sketch(self, sketch: SketchData) -> "RobustHelper":
        """Manipulated copy with a replaced sketch payload."""
        return replace(self, sketch=sketch)


def _authentication_tag(response: np.ndarray, payload: np.ndarray,
                        hash_seed: np.ndarray, out_bits: int) -> bytes:
    """Tag binding the secret response to every public helper field."""
    hasher = hashlib.sha256()
    hasher.update(b"repro-robust-fe-v1")
    for part in (response, payload, hash_seed):
        bits = as_bits(part)
        hasher.update(len(bits).to_bytes(4, "big"))
        hasher.update(np.packbits(bits).tobytes())
    hasher.update(int(out_bits).to_bytes(4, "big"))
    return hasher.digest()[:16]


class RobustFuzzyExtractor:
    """``Gen`` / ``Rep`` with helper-data authentication."""

    def __init__(self, sketch: SecureSketch, out_bits: int):
        if out_bits < 1:
            raise ValueError("out_bits must be positive")
        if out_bits > sketch.response_length:
            raise ValueError(
                "cannot extract more bits than the response carries")
        self._sketch = sketch
        self._out_bits = int(out_bits)

    @property
    def sketch(self) -> SecureSketch:
        """The secure sketch recovering the raw response."""
        return self._sketch

    @property
    def out_bits(self) -> int:
        """Extracted key length in bits."""
        return self._out_bits

    def generate(self, response: np.ndarray, rng: RNGLike = None
                 ) -> Tuple[np.ndarray, RobustHelper]:
        """Enrollment: derive ``(key, authenticated helper)``."""
        gen = ensure_rng(rng)
        response = as_bits(response, self._sketch.response_length)
        sketch_data = self._sketch.generate(response, gen)
        hasher = ToeplitzHash.random(self._sketch.response_length,
                                     self._out_bits, gen)
        tag = _authentication_tag(response, sketch_data.payload,
                                  hasher.seed_bits, self._out_bits)
        helper = RobustHelper(sketch_data, hasher.seed_bits,
                              self._out_bits, tag)
        return hasher(response), helper

    def reproduce(self, noisy_response: np.ndarray,
                  helper: RobustHelper) -> np.ndarray:
        """Reconstruction with mandatory helper authentication.

        Raises
        ------
        ManipulationDetected
            The tag over the *received* helper fields and the recovered
            response does not verify — the helper was rewritten (or the
            recovery was steered).  No key is released.
        repro.ecc.DecodingFailure
            The sketch could not recover any response at all.
        """
        recovered = self._sketch.recover(noisy_response, helper.sketch)
        expected = _authentication_tag(recovered, helper.sketch.payload,
                                       helper.hash_seed,
                                       helper.out_bits)
        if expected != helper.tag:
            raise ManipulationDetected(
                "helper-data authentication tag mismatch")
        hasher = ToeplitzHash(helper.hash_seed,
                              self._sketch.response_length,
                              helper.out_bits)
        return hasher(recovered)

    def reproduce_batch(self, noisy_responses: np.ndarray,
                        helper: RobustHelper
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Reproduce a batch of noisy readings with tag verification.

        Returns ``(keys, ok)``; a row fails (all-zero key,
        ``ok = False``) when the sketch cannot recover it *or* when the
        authentication tag over the recovered response does not verify
        — the batch counterpart of :meth:`reproduce`'s
        ``DecodingFailure`` / :class:`ManipulationDetected` outcomes,
        collapsed into the mask.  Sketch recovery and hashing are
        vectorized; the SHA-256 tag is recomputed once per *distinct*
        recovered response (typically one: the reference).
        """
        batch = np.asarray(noisy_responses, dtype=np.uint8)
        recovered, ok = self._sketch.recover_batch(batch, helper.sketch)
        authentic = np.zeros(batch.shape[0], dtype=bool)
        rows = np.flatnonzero(ok)
        first, inverse = row_groups(recovered[rows])
        tags = [_authentication_tag(recovered[row], helper.sketch.payload,
                                    helper.hash_seed,
                                    helper.out_bits) == helper.tag
                for row in rows[first].tolist()]
        authentic[rows] = np.array(tags, dtype=bool)[inverse]
        hasher = ToeplitzHash(helper.hash_seed,
                              self._sketch.response_length,
                              helper.out_bits)
        keys = hasher.hash_batch(recovered)
        keys[~authentic] = 0
        return keys, authentic
