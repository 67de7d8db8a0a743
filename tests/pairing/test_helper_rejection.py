"""Rejection pins for invalid sequential-pairing helper data.

Helper data is validated once per lineage (the facts are cached on the
immutable helper and inherited by flip/swap children), so these tests
pin, for every invalid-pair class and on every device entry point, the
exception type and message or the constant-failure verdict.  A helper
derived from an invalid parent must be rejected with exactly the message
:func:`validate_pairs` gives on its own pair list.
"""

import numpy as np
import pytest

from repro.keygen import ReconstructionFailure, SequentialPairingKeyGen
from repro.keygen.batch import ConstantEvaluator
from repro.keygen.validation import (
    HardenedSequentialKeyGen,
    HelperDataRejected,
)
from repro.pairing import (
    SequentialPairing,
    SequentialPairingHelper,
    validate_pairs,
)

THRESHOLD = 300e3


@pytest.fixture
def enrolled(medium_array):
    """An honest 128-oscillator enrollment to corrupt."""
    helper, _ = SequentialPairingKeyGen(THRESHOLD).enroll(medium_array,
                                                          rng=2)
    return helper


def corrupt(pairs, n):
    """The four rejected classes: ``name -> (pair list, message)``.

    Each replaces pair 1 of an honest list; the message is the one
    :func:`validate_pairs` has always given for it.
    """
    (a0, _), (a1, b1) = pairs[0], pairs[1]
    rest = pairs[2:]
    return {
        "index-too-large": ((pairs[0], (a1, n)) + rest,
                            f"pair ({a1}, {n}) out of range [0, {n})"),
        "negative-index": ((pairs[0], (-1, b1)) + rest,
                           f"pair (-1, {b1}) out of range [0, {n})"),
        "self-pair": ((pairs[0], (a1, a1)) + rest,
                      f"oscillator {a1} paired with itself"),
        "reuse": ((pairs[0], (a0, b1)) + rest,
                  f"oscillator re-used across pairs: ({a0}, {b1})"),
    }


CLASSES = ["index-too-large", "negative-index", "self-pair", "reuse"]


def derived(helper: SequentialPairingHelper) -> SequentialPairingHelper:
    """A flip/swap child that moves the bad pair to another position."""
    last = helper.bits - 1
    return (helper.with_flipped_orientation(1)
            .with_swapped_positions(1, last)
            .with_flipped_orientations([0, 2, 2]))


def scalar_message(pairs, n, allow_reuse=False) -> str:
    with pytest.raises(ValueError) as info:
        validate_pairs(pairs, n, allow_reuse=allow_reuse)
    return str(info.value)


def bad_helper(enrolled, n, name, lineage):
    pairs, message = corrupt(enrolled.pairing.pairs, n)[name]
    pairing = SequentialPairingHelper(pairs)
    if lineage == "derived":
        pairing = derived(pairing)
        message = scalar_message(pairing.pairs, n)
    else:
        assert scalar_message(pairs, n) == message
    return enrolled.with_pairing(pairing), message


@pytest.mark.parametrize("lineage", ["fresh", "derived"])
@pytest.mark.parametrize("name", CLASSES)
class TestRejectedEverywhere:
    def test_check(self, enrolled, medium_array, name, lineage):
        helper, message = bad_helper(enrolled, medium_array.n, name,
                                     lineage)
        with pytest.raises(ValueError) as info:
            helper.pairing.check(medium_array.n)
        assert str(info.value) == message

    def test_pairing_evaluate(self, enrolled, medium_array, name,
                              lineage):
        helper, message = bad_helper(enrolled, medium_array.n, name,
                                     lineage)
        scheme = SequentialPairing(THRESHOLD)
        freqs = medium_array.true_frequencies()
        with pytest.raises(ValueError) as info:
            scheme.evaluate(freqs, helper.pairing)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            scheme.evaluate_batch(np.stack([freqs, freqs]),
                                  helper.pairing)
        assert str(info.value) == message

    @pytest.mark.parametrize("hardened", [False, True])
    def test_keygen_scalar(self, enrolled, medium_array, name, lineage,
                           hardened):
        helper, message = bad_helper(enrolled, medium_array.n, name,
                                     lineage)
        keygen = (HardenedSequentialKeyGen(THRESHOLD) if hardened
                  else SequentialPairingKeyGen(THRESHOLD))
        expected = HelperDataRejected if hardened else ReconstructionFailure
        for _ in range(2):  # every query, not just the first
            with pytest.raises(expected) as info:
                keygen.reconstruct_from_frequencies(
                    medium_array, medium_array.true_frequencies(), helper)
            assert type(info.value) is expected
            assert str(info.value) == message

    @pytest.mark.parametrize("hardened", [False, True])
    def test_keygen_batch(self, enrolled, medium_array, name, lineage,
                          hardened):
        helper, _ = bad_helper(enrolled, medium_array.n, name, lineage)
        keygen = (HardenedSequentialKeyGen(THRESHOLD) if hardened
                  else SequentialPairingKeyGen(THRESHOLD))
        evaluator = keygen.batch_evaluator(medium_array, helper)
        assert isinstance(evaluator, ConstantEvaluator)
        rows = np.tile(medium_array.true_frequencies(), (3, 1))
        assert not evaluator.plan(rows).finalize().any()


class TestLaxReuse:
    """With ``enforce_disjoint=False`` a reused oscillator is accepted."""

    @pytest.mark.parametrize("lineage", ["fresh", "derived"])
    def test_accepted_on_every_path(self, enrolled, medium_array,
                                    lineage, monkeypatch):
        n = medium_array.n
        pairs, _ = corrupt(enrolled.pairing.pairs, n)["reuse"]
        pairing = SequentialPairingHelper(pairs)
        if lineage == "derived":
            pairing = derived(pairing)
        validate_pairs(pairing.pairs, n, allow_reuse=True)
        pairing.check(n, allow_reuse=True)
        lax = SequentialPairing(THRESHOLD, enforce_disjoint=False)
        freqs = medium_array.true_frequencies()
        bits = lax.evaluate(freqs, pairing)
        a, b = np.array(pairing.pairs).T
        np.testing.assert_array_equal(bits, freqs[a] >= freqs[b])
        np.testing.assert_array_equal(
            lax.evaluate_batch(np.stack([freqs, freqs]), pairing),
            [bits, bits])

        keygen = SequentialPairingKeyGen(THRESHOLD)
        monkeypatch.setattr(keygen, "_pairing", lax)
        helper = enrolled.with_pairing(pairing)
        evaluator = keygen.batch_evaluator(medium_array, helper)
        assert not isinstance(evaluator, ConstantEvaluator)
        try:
            keygen.reconstruct_from_frequencies(medium_array, freqs,
                                                helper)
            scalar = True
        except ReconstructionFailure as exc:
            assert "re-used" not in str(exc)
            scalar = False
        assert evaluator.plan(freqs[None, :]).execute().tolist() == \
            [scalar]


class TestWrongArity:
    @pytest.mark.parametrize("pairs", [((0, 1), (2, 3, 4)), ((0, 1), (2,))])
    def test_raises_at_construction(self, pairs):
        with pytest.raises(ValueError) as info:
            SequentialPairingHelper(pairs)
        # The message of the tuple-unpacking coercion, as ever.
        with pytest.raises(ValueError) as reference:
            [(int(a), int(b)) for a, b in pairs]
        assert str(info.value) == str(reference.value)
