"""Described hypothesis helpers against the helpers they describe.

The §VI-A and §VI-C attacks send each hypothesis helper as a described
manipulation of the enrolled helper
(:class:`~repro.keygen.batch.DescribedHelper`).  A lock-step round
stacks the description's arrays; the scalar drive and every route that
cannot use them evaluate ``descriptor.apply(enrolled)``.  These tests
pin the two to each other: equal block arrays, equal outcomes for
malformed descriptions, equal outcomes for rounds that mix both forms,
and a pattern memo that lives exactly as long as one attack.
"""

import numpy as np
import pytest

from repro.core.batch_oracle import BatchOracle, plan_frontier
from repro.core.group_attack import GroupBasedAttack
from repro.core.lockstep import ComparisonRequest
from repro.core.sequential_attack import SequentialPairingAttack
from repro.ecc.kernel import kernel_stats
from repro.fleet.campaign import run_campaign
from repro.keygen import (
    GroupBasedKeyGen,
    HardenedSequentialKeyGen,
    SequentialPairingKeyGen,
    blockwise_provider,
)
from repro.keygen.batch import ConstantEvaluator
from repro.keygen.group_based import HypothesisPair
from repro.keygen.sequential import PairingHypotheses, PairingManipulation
from repro.pairing import SequentialPairingHelper
from repro.puf import ROArray, ROArrayParams
from repro.puf.variation import Polynomial2D

PAIRING = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
GROUP = ROArrayParams(rows=4, cols=10, sigma_noise=300e3)

#: An infinite trend coefficient meets a zero coordinate in the
#: NaN-trend pair's matmul.
NAN_TREND = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul:RuntimeWarning")


def sequential_device(seed, keygen=None):
    keygen = keygen or SequentialPairingKeyGen(threshold=250e3)
    array = ROArray(PAIRING, rng=seed)
    helper, _ = keygen.enroll(array, rng=seed)
    return array, keygen, helper


def group_device(seed):
    keygen = GroupBasedKeyGen(group_threshold=120e3)
    array = ROArray(GROUP, rng=seed)
    helper, _ = keygen.enroll(array, rng=seed)
    return array, keygen, helper


def manipulation(helper, flips, swap):
    """A §VI-A manipulation of *helper* with a fresh attack state."""
    return PairingManipulation(PairingHypotheses(helper), flips, swap)


def relation_request(attack, target):
    """The comparison request the §VI-A attack sends for *target*."""
    request = next(attack._relation_steps(target))
    assert isinstance(request, ComparisonRequest)
    return request


def assert_block_matches_evaluator(described, keygen, array):
    block = described.block(keygen, array)
    evaluator = keygen.batch_evaluator(array, described.apply(
        described.enrolled))
    assert evaluator.block is not None and block is not None
    expected = evaluator.block
    np.testing.assert_array_equal(block.index, expected.index)
    assert block.index.dtype == expected.index.dtype
    if expected.trend is None:
        assert block.trend is None
    else:
        np.testing.assert_array_equal(block.trend, expected.trend)
    assert block.kind == expected.kind
    assert block.sketch is expected.sketch
    np.testing.assert_array_equal(block.parsed, expected.parsed)
    assert block.parsed.dtype == expected.parsed.dtype
    assert block.key_check == expected.key_check
    assert block.stack_key == expected.stack_key


class TestBlocksEqualTheirHelpers:
    @pytest.mark.parametrize("provider", [None, blockwise_provider(2, 16)])
    def test_sequential_flips_and_swap(self, provider):
        keygen = SequentialPairingKeyGen(threshold=250e3,
                                         code_provider=provider)
        array, keygen, helper = sequential_device(5, keygen)
        attack = SequentialPairingAttack(None, keygen, helper)
        injected = attack.injected_errors
        bits = helper.pairing.bits
        # Targets inside the injected positions move the injection.
        for target in sorted({1, 2, injected, injected + 1, bits - 1}):
            request = relation_request(attack, target)
            for described in (request.helper_a, request.helper_b):
                assert_block_matches_evaluator(described, keygen, array)
        # Past the injected positions the reference index is one array.
        assert (relation_request(attack, bits - 1).helper_a.block(
            keygen, array).index is relation_request(
                attack, bits - 2).helper_a.block(keygen, array).index)

    def test_group_hypothesis_pair(self):
        array, keygen, helper = group_device(8)
        attack = GroupBasedAttack(None, keygen, helper, GROUP.rows,
                                  GROUP.cols)
        for u, v in ((0, 1), (4, 9), (17, 3)):
            for described in attack._hypotheses(u, v).members:
                assert_block_matches_evaluator(described, keygen, array)

    def test_scalar_helpers_are_the_applied_descriptions(self):
        array, keygen, helper = group_device(8)
        attack = GroupBasedAttack(None, keygen, helper, GROUP.rows,
                                  GROUP.cols)
        helper0, helper1 = attack._attack_helpers(4, 9)
        pair = attack._hypotheses(4, 9)
        for described, built in zip(pair.members, (helper0, helper1)):
            applied = described.apply(helper)
            assert applied.grouping == built.grouping
            np.testing.assert_array_equal(
                applied.distiller.coefficients,
                built.distiller.coefficients)
            np.testing.assert_array_equal(applied.sketch.payload,
                                          built.sketch.payload)
            assert applied.key_check == built.key_check


def twin_outcomes(make_device, build, rows=24):
    """Outcomes of a description and of its applied helper on twins."""
    outcomes = []
    for materialise in (False, True):
        array, keygen, helper = make_device()
        described = build(helper)
        oracle = BatchOracle(array, keygen)
        subject = described.apply(helper) if materialise else described
        outcomes.append(oracle.evaluate_rows(subject,
                                             oracle.take_rows(rows)))
    return described, keygen, array, outcomes


class TestMalformedDescriptions:
    def test_negative_swap_falls_back_to_the_helper(self):
        described, keygen, array, (got, want) = twin_outcomes(
            lambda: sequential_device(6),
            lambda helper: manipulation(helper, (1, 2), (0, -1)))
        assert described.block(keygen, array) is None
        np.testing.assert_array_equal(got, want)

    def test_out_of_range_swap_fails_like_the_helper(self):
        array, keygen, helper = sequential_device(6)
        bits = helper.pairing.bits
        described = manipulation(helper, (1,), (0, bits))
        assert described.block(keygen, array) is None
        oracle = BatchOracle(array, keygen)
        with pytest.raises(IndexError):
            described.apply(helper)
        with pytest.raises(IndexError):
            oracle.evaluate_rows(described, oracle.take_rows(4))

    def test_reused_oscillator_reaches_the_constant_evaluator(self):
        def device():
            array, keygen, helper = sequential_device(7)
            pairs = list(helper.pairing.pairs)
            pairs[1] = (pairs[0][0], pairs[1][1])
            return array, keygen, helper.with_pairing(
                SequentialPairingHelper(pairs))

        described, keygen, array, (got, want) = twin_outcomes(
            device, lambda helper: manipulation(helper, (2, 3), (0, 4)))
        assert described.block(keygen, array) is None
        assert isinstance(keygen.batch_evaluator(
            array, described.materialise()), ConstantEvaluator)
        assert not got.any()
        np.testing.assert_array_equal(got, want)

    def test_hardened_device_materialises(self):
        described, keygen, array, (got, want) = twin_outcomes(
            lambda: sequential_device(
                9, HardenedSequentialKeyGen(threshold=250e3)),
            lambda helper: manipulation(helper, (1, 2), (0, 5)))
        assert described.block(keygen, array) is None
        np.testing.assert_array_equal(got, want)

    @NAN_TREND
    def test_nan_trend_matches_the_helper(self):
        def build(helper):
            attack = GroupBasedAttack(None, GroupBasedKeyGen(
                group_threshold=120e3), helper, GROUP.rows, GROUP.cols)
            pair = attack._hypotheses(0, 2)
            coefficients = pair.payload.coefficients.copy()
            coefficients[1] = np.inf
            return HypothesisPair(
                helper, Polynomial2D(pair.payload.degree, coefficients),
                pair.groups, pair.payloads, pair.key_checks).members[1]

        described, keygen, array, (got, want) = twin_outcomes(
            lambda: group_device(11), build)
        assert np.isnan(described.block(keygen, array).trend).any()
        np.testing.assert_array_equal(got, want)


def lanes(seed):
    """Twin-buildable lanes: ``(oracle, [described helpers])``."""
    built = []
    for index in range(3):
        array, keygen, helper = sequential_device(seed + index)
        hypotheses = PairingHypotheses(helper)
        bits = helper.pairing.bits
        built.append((BatchOracle(array, keygen), [
            PairingManipulation(hypotheses, (1, 2)),
            PairingManipulation(hypotheses, (1, 2), (0, bits - 1)),
            PairingManipulation(hypotheses, (2, 3), (0, 1))]))
    for index in range(2):
        array, keygen, helper = group_device(seed + index)
        attack = GroupBasedAttack(None, keygen, helper, GROUP.rows,
                                  GROUP.cols)
        built.append((BatchOracle(array, keygen),
                      list(attack._hypotheses(0, 5).members)
                      + list(attack._hypotheses(7, 2).members)))
    return built


class TestMixedRounds:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_described_and_materialised_items_equal_per_item(self, seed):
        rng = np.random.default_rng(seed)
        mixed, reference = lanes(10 * seed), lanes(10 * seed)
        for _ in range(3):
            spec = [(int(rng.integers(len(mixed))), int(rng.integers(3)),
                     int(rng.choice([8, 8, 5])), bool(rng.integers(2)))
                    for _ in range(int(rng.integers(4, 10)))]
            items = []
            for lane, which, count, materialise in spec:
                oracle, helpers = mixed[lane]
                described = helpers[which % len(helpers)]
                items.append((oracle, described.materialise()
                              if materialise else described,
                              oracle.take_rows(count), None))
            got = plan_frontier(items).execute()
            for (lane, which, count, _), observed in zip(spec, got):
                oracle, helpers = reference[lane]
                want = oracle.evaluate_rows(
                    helpers[which % len(helpers)].materialise(),
                    oracle.take_rows(count))
                assert observed.dtype == np.bool_
                np.testing.assert_array_equal(observed, want)


def campaign_rows(seeds):
    """Kernel rows of one lock-step §VI-A campaign on fresh devices."""
    oracles, attacks = [], []
    for seed in seeds:
        array, keygen, helper = sequential_device(seed)
        oracle = BatchOracle(array, keygen)
        oracles.append(oracle)
        attacks.append(SequentialPairingAttack(oracle, keygen, helper))
    before = kernel_stats.rows
    results = run_campaign(oracles, attacks)
    return kernel_stats.rows - before, results


class TestMemoScope:
    def test_two_identical_campaigns_do_the_same_kernel_work(self):
        first, results = campaign_rows([20, 21])
        second, again = campaign_rows([20, 21])
        assert first == second
        for one, other in zip(results, again):
            np.testing.assert_array_equal(one.relations, other.relations)
            assert one.queries == other.queries

    def test_the_memo_belongs_to_the_attack(self):
        array, keygen, helper = sequential_device(4)
        one, other = PairingHypotheses(helper), PairingHypotheses(helper)
        memo = one.enrolled_block(keygen, array).memo
        assert memo is PairingManipulation(one, (1,), (0, 3)).block(
            keygen, array).memo
        assert memo is not other.enrolled_block(keygen, array).memo
