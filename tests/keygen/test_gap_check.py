"""The measured-threshold check, carried by the pair description.

A hardened device refuses a row when one of its pairs' measured gaps
sits at or below the floor (``repro.keygen.batch._gap_violations``).
The batch path carries that check as ``PairColumns.gap`` and
``PairBlock.gap``: an evaluator's own plans plan only the rows the
check accepts, and a stacked frontier group refuses rows from the
columns it gathers.  Both must equal the scalar
``reconstruct_from_frequencies`` reference row by row — on natural
noise through ``HelperDataOracle`` on twin devices, in ragged groups
whose padded pairs must not count, and on rows built so that one gap
equals the floor exactly, sits just above it, or is NaN.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core.batch_oracle import BatchOracle, plan_frontier
from repro.core.group_attack import GroupBasedAttack
from repro.core.injection import flip_orientations
from repro.core.oracle import HelperDataOracle
from repro.ecc import design_bch
from repro.keygen import (
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    ReconstructionFailure,
    fixed_code,
)
from repro.keygen.batch import FrontierPlan, ResponseBitEvaluator
from repro.keygen.group_based import KendallPairs
from repro.keygen.sequential import PairingHypotheses, PairingManipulation
from repro.puf import ROArray, ROArrayParams

PAIRING = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
GROUP = ROArrayParams(rows=4, cols=10, sigma_noise=300e3)
#: Quiet enough that an enrolled grouping's check accepts some rows.
QUIET_GROUP = ROArrayParams(rows=4, cols=10)
#: One code for every pair count up to 64: devices with different pair
#: counts share a stack key (a ragged group).
SHARED = fixed_code(design_bch(64, 3))


def hardened_sequential():
    # Devices 3 and 4 select 51 and 64 pairs at this threshold.
    return HardenedSequentialKeyGen(threshold=1e6, threshold_tolerance=0.25,
                                    code_provider=SHARED)


def hardened_group(span=np.inf):
    # An unbounded span lets the §VI-C hypotheses pass the structure
    # checks, so only the measured-threshold check refuses rows.
    return HardenedGroupBasedKeyGen(GROUP.rows, GROUP.cols,
                                    max_polynomial_span=span,
                                    group_threshold=120e3)


def device(params, make_keygen, seed):
    array = ROArray(params, rng=seed)
    keygen = make_keygen()
    helper, _ = keygen.enroll(array, rng=seed)
    return array, keygen, helper


def scalar_outcomes(keygen, array, helper, freqs):
    """The scalar reference, one ``reconstruct_from_frequencies`` a row."""
    outcomes = []
    for row in freqs:
        try:
            keygen.reconstruct_from_frequencies(array, row, helper)
        except ReconstructionFailure:
            outcomes.append(False)
        else:
            outcomes.append(True)
    return np.array(outcomes)


def three_routes(params, make_keygen, seeds, subjects, count=24):
    """Outcomes of *count* queries per subject on three twin fleets.

    ``subjects(keygen, helper)`` lists each device's helpers
    (described or finished).  The scalar oracle, the evaluators' own
    plans and one stacked frontier round each see the same noise rows;
    returns ``(outcomes per route, the frontier)``.
    """
    routes = {}
    for route in ("scalar", "own", "stacked"):
        items = []
        for seed in seeds:
            array, keygen, helper = device(params, make_keygen, seed)
            items += [(array, keygen, subject)
                      for subject in subjects(keygen, helper)]
        oracles = {}
        for array, keygen, _ in items:
            cls = HelperDataOracle if route == "scalar" else BatchOracle
            oracles.setdefault(id(array), cls(array, keygen))
        if route == "scalar":
            outcomes = [np.array([oracles[id(array)].query(subject)
                                  for _ in range(count)])
                        for array, _, subject in items]
        elif route == "own":
            outcomes = []
            for array, _, subject in items:
                oracle = oracles[id(array)]
                outcomes.append(oracle.plan_rows(
                    subject, oracle.take_rows(count)).execute())
        else:
            frontier = plan_frontier(
                [(oracles[id(array)], subject,
                  oracles[id(array)].take_rows(count), None)
                 for array, _, subject in items])
            outcomes = frontier.execute()
        routes[route] = outcomes
    for scalar, own, stacked in zip(*routes.values()):
        np.testing.assert_array_equal(own, scalar)
        np.testing.assert_array_equal(stacked, scalar)
    return routes["scalar"], frontier


def assert_one_ragged_group(frontier):
    """Every item stacked into one group of blocks of unequal widths,
    whose gap check accepted some rows and refused others."""
    assert not frontier._plans
    (group,) = frontier._groups
    assert len(set(group._widths.tolist())) > 1
    assert group._mask is not None
    assert 0 < group._rows.size < group._count * len(group.slots)


class TestKendallPairs:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_index_is_every_pair_of_every_group(self, size):
        rng = np.random.default_rng(size)
        members = rng.permutation(40).tolist()
        # One group of *size* among groups of every size 2-5.
        sizes = [size, 2, 3, 4, 5]
        groups, start = [], 0
        for width in sizes:
            groups.append(tuple(members[start:start + width]))
            start += width
        index = KendallPairs(groups).index
        got = sorted(tuple(sorted(pair)) for pair in index.tolist())
        want = sorted(tuple(sorted(pair)) for group in groups
                      for pair in combinations(group, 2))
        assert got == want


class TestNaturalNoise:
    def test_hardened_sequential_helpers(self):
        def subjects(keygen, helper):
            pairing = helper.pairing
            return [
                helper,
                helper.with_pairing(flip_orientations(pairing, [1, 2, 3])),
                helper.with_pairing(pairing.with_swapped_positions(0, 5)),
                PairingManipulation(PairingHypotheses(helper), (1, 2),
                                    (0, 4)),
            ]

        outcomes, frontier = three_routes(PAIRING, hardened_sequential,
                                          (3, 4), subjects)
        assert_one_ragged_group(frontier)
        flat = np.concatenate(outcomes)
        assert 0 < flat.sum() < flat.size
        # The check both accepts and refuses rows here.
        array, keygen, helper = device(PAIRING, hardened_sequential, 3)
        evaluator = keygen.batch_evaluator(array, helper)
        freqs = array.measure_frequencies_batch(64, rng=1)
        accepted = evaluator._extract.accepted(freqs)
        assert 0 < accepted.sum() < accepted.size

    def test_hardened_group_hypotheses_stack(self):
        def subjects(keygen, helper):
            attack = GroupBasedAttack(None, keygen, helper, GROUP.rows,
                                      GROUP.cols)
            return [member for u, v in ((0, 1), (0, 2))
                    for member in attack._hypotheses(u, v).members]

        outcomes, frontier = three_routes(GROUP, hardened_group, (41, 42),
                                          subjects)
        assert_one_ragged_group(frontier)
        flat = np.concatenate(outcomes)
        assert 0 < flat.sum() < flat.size

    def test_group_of_three_or_more_plans_alone(self):
        def make_keygen():
            return hardened_group(20e6)

        array, keygen, helper = device(QUIET_GROUP, make_keygen, 77)
        assert max(helper.grouping.sizes) >= 3
        evaluator = keygen.batch_evaluator(array, helper)
        assert isinstance(evaluator, ResponseBitEvaluator)
        assert evaluator.block is None
        assert evaluator._extract.gap is not None
        outcomes, frontier = three_routes(
            QUIET_GROUP, make_keygen, (77,),
            lambda keygen, helper: [helper], count=120)
        assert len(frontier._plans) == 1 and not frontier._groups
        assert 0 < outcomes[0].sum() < outcomes[0].size


def gap_rows(check, trend, pair, floor):
    """Four copies of the *check* readout: as measured, then with
    *pair*'s gap (of ``check - trend``, as the scalar check computes
    it) exactly at *floor*, just above it, and NaN."""
    a, b = pair

    def gap(row):
        return abs((row[a] - trend[a]) - (row[b] - trend[b]))

    rows = np.repeat(check[None], 4, axis=0)
    sign = 1.0 if check[a] - trend[a] >= check[b] - trend[b] else -1.0
    # Put b about the floor away from a, then step a one float at a
    # time (a larger gap towards sign * inf) onto the floor exactly.
    row = rows[1]
    row[b] = trend[b] + ((row[a] - trend[a]) - sign * floor)
    for _ in range(20000):
        if gap(row) == floor:
            break
        row[a] = np.nextafter(row[a], sign * np.inf if gap(row) < floor
                              else -sign * np.inf)
    assert gap(row) == floor
    rows[2] = row
    while gap(rows[2]) <= floor:
        rows[2, a] = np.nextafter(rows[2, a], sign * np.inf)
    assert gap(rows[2]) < floor + 1.0
    rows[3, a] = np.nan
    return rows


def own_and_stacked(entries):
    """Per ``(keygen, array, helper, block, freqs)``: own-plan and one
    stacked group's outcomes."""
    own = [keygen.batch_evaluator(array, helper).plan(freqs).execute()
           for keygen, array, helper, _, freqs in entries]
    frontier = FrontierPlan([
        (block, freqs, np.zeros((1, freqs.shape[1])))
        for _, _, _, block, freqs in entries])
    assert not frontier._plans and len(frontier._groups) == 1
    return own, frontier.execute()


class TestBuiltRows:
    def test_sequential_gap_at_floor_and_nan(self):
        entries = []
        for seed in (3, 4):
            array, keygen, helper = device(PAIRING, hardened_sequential,
                                           seed)
            floor = keygen.pairing.threshold * keygen._tolerance
            check = array.true_frequencies()
            freqs = gap_rows(check, np.zeros_like(check),
                             helper.pairing.index[2], floor)
            block = keygen.batch_evaluator(array, helper).block
            entries.append((keygen, array, helper, block, freqs))
        own, stacked = own_and_stacked(entries)
        for (keygen, array, helper, _, freqs), mine, group in zip(
                entries, own, stacked):
            expected = scalar_outcomes(keygen, array, helper, freqs)
            # At the floor is a violation; just above it and NaN are
            # not (a NaN bit is one error, corrected).
            np.testing.assert_array_equal(expected,
                                          [True, False, True, True])
            np.testing.assert_array_equal(mine, expected)
            np.testing.assert_array_equal(group, expected)
        # Ragged: the narrower block's padded pairs do not refuse.
        assert entries[0][3].index.shape != entries[1][3].index.shape

    def test_group_hypotheses_gap_at_floor_and_nan(self):
        array, keygen, helper = device(GROUP, hardened_group, 41)
        attack = GroupBasedAttack(None, keygen, helper, GROUP.rows,
                                  GROUP.cols)
        floor = keygen.grouping.threshold * keygen._tolerance
        regen = array.true_frequencies()
        entries = []
        for u, v in ((0, 1), (0, 2)):
            for member in attack._hypotheses(u, v).members:
                materialised = member.materialise()
                trend = keygen.distiller.trend(array.x, array.y,
                                               materialised.distiller)
                # The check readout: measured, with the gap of the
                # target pair built on its residuals.
                checks = gap_rows(regen, trend, (u, v), floor)
                freqs = np.hstack([checks, np.tile(regen, (4, 1))])
                entries.append((keygen, array, materialised,
                                member.block(keygen, array), freqs))
        assert len({entry[3].index.shape for entry in entries}) == 2
        own, stacked = own_and_stacked(entries)
        clean = []
        for (keygen, array, helper, _, freqs), mine, group in zip(
                entries, own, stacked):
            expected = scalar_outcomes(keygen, array, helper, freqs)
            assert not expected[1]
            np.testing.assert_array_equal(expected[[2, 3]],
                                          [expected[0]] * 2)
            np.testing.assert_array_equal(mine, expected)
            np.testing.assert_array_equal(group, expected)
            clean.append(expected[0])
        # The right hypothesis of each target pair reproduces its key.
        assert clean[0] != clean[1] and clean[2] != clean[3]

    def test_group_of_three_or_more_gap_at_floor_and_nan(self):
        array, keygen, helper = device(QUIET_GROUP,
                                       lambda: hardened_group(20e6), 77)
        floor = keygen.grouping.threshold * keygen._tolerance
        trend = keygen.distiller.trend(array.x, array.y, helper.distiller)
        regen = array.true_frequencies()
        group = next(g for g in helper.grouping.groups if len(g) >= 3)
        checks = gap_rows(regen, trend, (group[2], group[0]), floor)
        freqs = np.hstack([checks, np.tile(regen, (4, 1))])
        expected = scalar_outcomes(keygen, array, helper, freqs)
        np.testing.assert_array_equal(expected, [True, False, True, True])
        evaluator = keygen.batch_evaluator(array, helper)
        assert evaluator.block is None
        np.testing.assert_array_equal(evaluator.plan(freqs).execute(),
                                      expected)
