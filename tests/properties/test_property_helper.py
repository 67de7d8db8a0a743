"""Properties of the array-native sequential-pairing helper.

The helper caches its validation facts and hands them to every flip/swap
child, so :meth:`SequentialPairingHelper.check` must agree with the
scalar :func:`validate_pairs` on any lineage, valid or not.  The value
semantics (equality, hash, ``repr``, pickle, storage format) are pinned
to those of the plain frozen dataclass the helper used to be.
"""

import functools
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.injection import flip_orientations, swap_positions
from repro.fleet import Fleet
from repro.keygen import SequentialPairingKeyGen
from repro.pairing import (
    SequentialPairingHelper,
    pair_index_arrays,
    validate_pairs,
)
from repro.puf import ROArray, ROArrayParams
from repro.serialization import dump_sequential

N = 12


@st.composite
def lineages(draw):
    """A pair list (indices may be out of range, repeated or self-paired)
    and a sequence of flip/swap steps on it."""
    count = draw(st.integers(1, 8))
    endpoint = st.integers(-2, N + 1)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), min_size=count,
                          max_size=count))
    position = st.integers(-count, count - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("flip"), st.lists(position, max_size=4)),
        st.tuples(st.just("swap"),
                  st.lists(st.tuples(position, position), max_size=3))),
        max_size=5))
    return pairs, steps


def apply(helper, steps):
    for kind, args in steps:
        helper = (flip_orientations(helper, args) if kind == "flip"
                  else swap_positions(helper, args))
    return helper


def scalar_verdict(pairs, n, allow_reuse):
    try:
        validate_pairs(pairs, n, allow_reuse=allow_reuse)
    except ValueError as exc:
        return str(exc)
    return None


def check_verdict(helper, n, allow_reuse):
    try:
        helper.check(n, allow_reuse=allow_reuse)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckMatchesScalar:
    @given(lineage=lineages(), allow_reuse=st.booleans(),
           n=st.integers(0, N + 2))
    @settings(max_examples=300, deadline=None)
    def test_every_lineage(self, lineage, allow_reuse, n):
        pairs, steps = lineage
        helper = SequentialPairingHelper(pairs)
        for depth in range(len(steps) + 1):
            child = apply(helper, steps[:depth])
            assert check_verdict(child, n, allow_reuse) == \
                scalar_verdict(child.pairs, n, allow_reuse)
            a, b = child.index.T
            ref_a, ref_b = pair_index_arrays(child.pairs)
            np.testing.assert_array_equal(a, ref_a)
            np.testing.assert_array_equal(b, ref_b)
            assert child.bits == len(child.pairs)


def fold_flips(pairs, positions):
    pairs = list(pairs)
    for p in positions:
        pairs[p] = pairs[p][::-1]
    return tuple(pairs)


def fold_swaps(pairs, swaps):
    pairs = list(pairs)
    for i, j in swaps:
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return tuple(pairs)


class TestOneCopyInjection:
    """``flip_orientations`` / ``swap_positions`` equal the step folds."""

    @given(count=st.integers(1, 10), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_flips_fold(self, count, data):
        helper = SequentialPairingHelper(
            [(2 * i, 2 * i + 1) for i in range(count)])
        positions = data.draw(st.lists(st.integers(-count, count - 1),
                                       max_size=2 * count))
        # Duplicates are the interesting case: they must flip back.
        positions += data.draw(st.lists(st.sampled_from(positions),
                                        max_size=3)) if positions else []
        injected = flip_orientations(helper, positions)
        assert injected.pairs == fold_flips(helper.pairs, positions)
        assert injected == functools.reduce(
            lambda h, p: h.with_flipped_orientation(p), positions, helper)

    @given(count=st.integers(1, 10), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_swaps_fold(self, count, data):
        helper = SequentialPairingHelper(
            [(2 * i, 2 * i + 1) for i in range(count)])
        position = st.integers(-count, count - 1)
        swaps = data.draw(st.lists(st.tuples(position, position),
                                   max_size=2 * count))
        swaps += swaps[:1]
        injected = swap_positions(helper, swaps)
        assert injected.pairs == fold_swaps(helper.pairs, swaps)
        assert injected == functools.reduce(
            lambda h, s: h.with_swapped_positions(*s), swaps, helper)

    def test_out_of_range_position_raises(self):
        helper = SequentialPairingHelper(((0, 1), (2, 3)))
        with pytest.raises(IndexError):
            flip_orientations(helper, [0, 2])
        with pytest.raises(IndexError):
            swap_positions(helper, [(0, -3)])

    def test_empty_injection_is_identity(self):
        helper = SequentialPairingHelper(((0, 1), (2, 3)))
        assert flip_orientations(helper, []) is helper
        assert swap_positions(helper, []) is helper


class TestValueSemantics:
    """Unchanged from the frozen dataclass with one ``pairs`` field."""

    PAIRS = ((0, 1), (3, 2), (5, 4))
    #: ``pickle.dumps(helper, protocol=4)`` of the dataclass version.
    PICKLE = bytes.fromhex(
        "8004955b000000000000008c18726570726f2e70616972696e672e7365717565"
        "6e7469616c948c1753657175656e7469616c50616972696e6748656c70657294"
        "93942981947d948c057061697273944b004b0186944b034b0286944b054b0486"
        "94879473622e")

    def test_eq_hash_repr(self):
        helper = SequentialPairingHelper(self.PAIRS)
        derived = SequentialPairingHelper(((1, 0), (3, 2), (5, 4))
                                          ).with_flipped_orientation(0)
        assert helper == derived and hash(helper) == hash(derived)
        assert hash(helper) == hash((self.PAIRS,))
        assert helper != helper.with_swapped_positions(0, 1)
        assert helper != SequentialPairingHelper(self.PAIRS[:2])
        assert helper != self.PAIRS
        assert repr(derived) == (
            "SequentialPairingHelper(pairs=((0, 1), (3, 2), (5, 4)))")

    def test_pickle(self):
        helper = SequentialPairingHelper(self.PAIRS)
        derived = SequentialPairingHelper(((3, 2), (0, 1), (5, 4))
                                          ).with_swapped_positions(0, 1)
        for value in (helper, derived):
            assert pickle.dumps(value, protocol=4) == self.PICKLE
            restored = pickle.loads(pickle.dumps(value))
            assert restored == value and restored.pairs == self.PAIRS
            restored.check(6)

    def test_dump_sequential_bytes(self):
        arrays = [ROArray(ROArrayParams(rows=8, cols=16), rng=s)
                  for s in range(3)]
        enrollment = Fleet.from_arrays(arrays, seed=0).enroll(
            functools.partial(SequentialPairingKeyGen, threshold=300e3),
            seed=5)
        digest = hashlib.sha256()
        for helper in enrollment.helpers:
            digest.update(dump_sequential(helper))
        assert digest.hexdigest() == (
            "7cae55a79ca693a0959c280e7405b2611cd5ee057cb0e7805a58a027a4dca859")

    def test_index_is_read_only(self):
        helper = SequentialPairingHelper(self.PAIRS)
        for value in (helper, flip_orientations(helper, [1]),
                      swap_positions(helper, [(0, 2)])):
            assert value.index.dtype == np.intp
            assert value.index.shape == (3, 2)
            with pytest.raises(ValueError):
                value.index[0, 0] = 7
            with pytest.raises(AttributeError):
                value.pairs = ()
        assert helper.pairs == self.PAIRS
