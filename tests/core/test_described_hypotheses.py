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

import pickle

import numpy as np
import pytest

from repro.core.batch_oracle import BatchOracle, plan_frontier
from repro.core.group_attack import GroupBasedAttack
from repro.core.injection import (
    pair_cells_by_value,
    predicted_pair_bits,
    symmetric_quadratic,
)
from repro.core.framework import FailureRateComparer
from repro.core.lockstep import (
    ComparisonRequest,
    QueryBlockRequest,
    SelectionRequest,
    SPRTRequest,
    execute_request,
)
from repro.core.oracle import HelperDataOracle
from repro.core.sprt import SPRTDistinguisher
from repro.core.sequential_attack import SequentialPairingAttack
from repro.ecc.kernel import kernel_stats
from repro.fleet.campaign import run_campaign
from repro.keygen import (
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    SequentialPairingKeyGen,
    blockwise_provider,
)
from repro.keygen.base import key_check_digests
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

    def test_hardened_device_describes_its_manipulations(self):
        described, keygen, array, (got, want) = twin_outcomes(
            lambda: sequential_device(
                9, HardenedSequentialKeyGen(threshold=250e3)),
            lambda helper: manipulation(helper, (1, 2), (0, 5)))
        assert_block_matches_evaluator(described, keygen, array)
        assert described.block(keygen, array).gap is not None
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


def every_request(helper, materialise):
    """One request of each protocol type, over §VI-A descriptions of
    *helper* (or the helpers they describe)."""
    hypotheses = PairingHypotheses(helper)
    one = PairingManipulation(hypotheses, (1, 2, 3), (0, 4))
    other = PairingManipulation(hypotheses, (1, 2, 3))
    if materialise:
        one, other = one.materialise(), other.materialise()
    return [
        QueryBlockRequest(one, 5),
        QueryBlockRequest(other, 9, stop_on_success=True),
        ComparisonRequest(one, other, FailureRateComparer(
            max_queries_per_side=12)),
        SPRTRequest(SPRTDistinguisher(0.05, 0.6, max_queries=30), one),
        SelectionRequest({"one": one, "other": other, "again": one}, 4,
                         early_stop=False),
    ]


class TestEveryRequestType:
    @pytest.mark.parametrize("seed", [12, 14])
    def test_scalar_and_batch_oracles_accept_descriptions(self, seed):
        answers = []
        for make_oracle, materialise in ((HelperDataOracle, False),
                                         (BatchOracle, False),
                                         (HelperDataOracle, True)):
            array, keygen, helper = sequential_device(seed)
            oracle = make_oracle(array, keygen)
            replies = [execute_request(request, oracle)
                       for request in every_request(helper, materialise)]
            answers.append((replies, oracle.queries))
        (want, queries), *others = answers
        for got, got_queries in others:
            assert got_queries == queries
            for observed, expected in zip(got, want):
                if isinstance(expected, np.ndarray):
                    np.testing.assert_array_equal(observed, expected)
                else:
                    assert observed == expected


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


class TestReferenceReuse:
    """The §VI-A attack sends one reference description per injected
    flip tuple; its block is described once and results still equal
    the scalar drive."""

    def test_reused_reference_equals_the_scalar_drive(self, monkeypatch):
        described = []
        original = SequentialPairingKeyGen.describe

        def spy(self, array, manipulation):
            described.append(manipulation)
            return original(self, array, manipulation)

        monkeypatch.setattr(SequentialPairingKeyGen, "describe", spy)
        # 33 pairs: a short scalar drive.
        array, keygen, helper = sequential_device(
            3, SequentialPairingKeyGen(threshold=1.5e6))
        scalar = SequentialPairingAttack(HelperDataOracle(array, keygen),
                                         keygen, helper).run()
        assert not described and scalar.key is not None
        twin, twin_keygen, twin_helper = sequential_device(
            3, SequentialPairingKeyGen(threshold=1.5e6))
        attack = SequentialPairingAttack(
            BatchOracle(twin, twin_keygen), twin_keygen, twin_helper)
        references = []
        steps = attack._relation_steps
        monkeypatch.setattr(attack, "_relation_steps", lambda target: (
            references.append(attack._references.get(tuple(
                attack._injection_positions(target)))) or steps(target)))
        result = attack.run()
        np.testing.assert_array_equal(result.relations, scalar.relations)
        np.testing.assert_array_equal(result.key, scalar.key)
        assert result.queries == scalar.queries
        assert result.comparisons == scalar.comparisons
        # Every target past the first of its flips reuses the reference.
        bits = twin_helper.pairing.bits
        assert len(references) == bits - 1
        assert len(attack._references) < bits - 1
        reused = [ref for ref in references if ref is not None]
        assert len(reused) == bits - 1 - len(attack._references)
        # One description per reference, one per test helper.
        swaps = [m for m in described if m.swap is not None]
        assert len(swaps) == bits - 1
        assert len(described) - len(swaps) == len(attack._references)


# ----------------------------------------------------------------------
# the one-pass hypothesis builder against the per-step construction


#: Zero-seed codeword per sketch (encoding is the reference's slowest
#: step and does not depend on the target pair).
ZERO_SEED = {}


def reference_hypotheses(attack, u, v):
    """The step-by-step construction: payload polynomial, pairing,
    predicted bits, streams and payloads, then each member's block as
    the keygen's ``describe`` built it from the applied distiller."""
    rows, cols = attack._rows, attack._cols
    cells = np.arange(rows * cols)
    xs, ys = (cells % cols).astype(float), (cells // cols).astype(float)
    payload = symmetric_quadratic((float(u % cols), float(u // cols)),
                                  (float(v % cols), float(v // cols)),
                                  rows, attack._steepness)
    values = -payload(xs, ys)
    forced = pair_cells_by_value(values, (u, v), attack._margin)
    groups = [(u, v)] + forced
    responses = predicted_pair_bits(values, forced, attack._margin)
    assert all(bit >= 0 for bit in responses)
    forced_bits = [1 - bit for bit in responses]
    sketch = attack._keygen.sketch_for(len(groups))
    codeword = ZERO_SEED.get(sketch)
    if codeword is None:
        codeword = ZERO_SEED[sketch] = sketch.code.encode(
            np.zeros(sketch.code.k, dtype=np.uint8))
    injected = sketch.code.t
    streams = np.array([[0] + forced_bits, [1] + forced_bits],
                       dtype=np.uint8)
    streams[:, 1:1 + injected] ^= 1
    payloads = sketch.payloads_for_codeword(streams, codeword)
    return payload, groups, payloads, key_check_digests(streams), sketch


def assert_pair_matches_reference(attack, keygen, array, u, v):
    payload, groups, payloads, checks, sketch = reference_hypotheses(
        attack, u, v)
    pair = attack._hypotheses(u, v)
    assert pair.groups == groups
    assert pair.index.tolist() == [list(group) for group in groups]
    assert pair.index.dtype == np.intp
    assert pair.payload.degree == payload.degree
    assert pair.payload.coefficients.tobytes() \
        == payload.coefficients.tobytes()
    assert pair.payloads.tobytes() == payloads.tobytes()
    assert pair.payloads.dtype == np.uint8
    # Shared by every pair of the attack with the same streams.
    assert not pair.payloads.flags.writeable
    assert pair.key_checks == tuple(checks)
    trend = keygen.distiller.trend(
        array.x, array.y, attack._helper.distiller.with_added(payload))
    first, second = pair.members
    # Nothing is attached when the pair is built; describing one
    # member describes both.
    assert first._described is None and second._described is None
    first.block(keygen, array)
    assert second._described[:2] == (keygen, array)
    for member in pair.members:
        block = member.block(keygen, array)
        assert block.trend.tobytes() == trend.tobytes()
        assert block.index is pair.index
        assert block.sketch is sketch
        assert block.key_check == checks[member.member]
        assert block.parsed.tobytes() == payloads[member.member].tobytes()
        assert block.stack_key == ("kendall", True, sketch.kernel_key(),
                                   None)
    return len(groups)


class TestOnePassBuilder:
    @pytest.mark.parametrize("params,threshold,ordered", [
        (GROUP, 120e3, True), (PAIRING, 150e3, False)])
    def test_every_target_pair_equals_the_reference(self, params,
                                                    threshold, ordered):
        # Every ordered target pair on 4x10; on 8x16 every unordered
        # one, u < v (the ordered sweep there alone takes seconds).
        keygen = GroupBasedKeyGen(group_threshold=threshold)
        array = ROArray(params, rng=4)
        helper, _ = keygen.enroll(array, rng=4)
        attack = GroupBasedAttack(BatchOracle(array, keygen), keygen,
                                  helper, params.rows, params.cols)
        cells = params.rows * params.cols
        lengths = {assert_pair_matches_reference(attack, keygen, array,
                                                 u, v)
                   for u in range(cells) for v in range(cells)
                   if u != v and (ordered or u < v)}
        # Both stream lengths of the geometry occur.
        assert len(lengths) == 2
        # One geometry served every pair, and copies of the keygen
        # (pool dispatch) leave it behind.
        geometry = keygen._geometry
        attack._hypotheses(0, 1).members[0].block(keygen, array)
        assert keygen._geometry is geometry
        assert "_geometry" not in pickle.loads(
            pickle.dumps(keygen)).__dict__

    def test_hardened_and_scalar_oracles_attach_nothing(self):
        array, _, helper = group_device(8)
        hardened = HardenedGroupBasedKeyGen(
            GROUP.rows, GROUP.cols, max_polynomial_span=20e6,
            group_threshold=120e3)
        for oracle, keygen in ((BatchOracle(array, hardened), hardened),
                               (None, GroupBasedKeyGen(
                                   group_threshold=120e3))):
            attack = GroupBasedAttack(oracle, keygen, helper, GROUP.rows,
                                      GROUP.cols)
            for member in attack._hypotheses(4, 9).members:
                assert member._described is None
        # The injected surface fails the amplitude bound: the member
        # materialises and is refused.
        assert member.block(hardened, array) is None
        assert isinstance(hardened.batch_evaluator(
            array, member.materialise()), ConstantEvaluator)
        # Where the structure passes, the hardened device describes
        # the member as the block of the helper it describes.
        open_device = HardenedGroupBasedKeyGen(
            GROUP.rows, GROUP.cols, max_polynomial_span=np.inf,
            group_threshold=120e3)
        attack = GroupBasedAttack(None, open_device, helper, GROUP.rows,
                                  GROUP.cols)
        for member in attack._hypotheses(4, 9).members:
            assert_block_matches_evaluator(member, open_device, array)
            assert member.block(open_device, array).gap == (
                60e3, array.n)
