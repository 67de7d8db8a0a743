"""Frontier plans against per-item plans, bitwise.

A lock-step round evaluates ``(oracle, helper, rows, op)`` items through
:func:`repro.core.batch_oracle.plan_frontier`: blocks of pair-column
evaluators (sequential ``>=``, distiller residual ``>=``, group-based
residual Kendall) with a bare code-offset completion are planned and
finalized stacked, every other block keeps its own ``plan_rows``.  Every test
builds each lane twice (twin devices, twin keygens), runs one copy
through the frontier and the other through per-item ``plan_rows`` with
the kernel fused across the round, and asserts equal outcomes, equal
kernel call and row counts, and equal memo state in later rounds.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batch_oracle import BatchOracle, plan_frontier
from repro.core.group_attack import GroupBasedAttack
from repro.core.injection import flip_orientations
from repro.core.lockstep import LaneEngine
from repro.ecc import design_bch, run_kernels
from repro.ecc.kernel import kernel_stats
from repro.ecc.sketch import SketchData
from repro.distiller import DistillerHelper
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    OperatingPoint,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
    fixed_code,
)
from repro.keygen.base import key_check_digest, key_check_digests
from repro.keygen.batch import ConstantEvaluator, PairColumns
from repro.pairing import SequentialPairingHelper
from repro.puf import ROArray, ROArrayParams
from repro.scenario.trajectory import TemperatureRamp, TrajectorySpec

NOISY = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
#: One code for every response length up to 64 bits: lanes with
#: different pair counts share a kernel key (a ragged stacked group).
SHARED = fixed_code(design_bch(64, 3))
HOT = OperatingPoint(temperature=70.0)


def _flipped(count):
    def manipulate(helper):
        return helper.with_pairing(
            flip_orientations(helper.pairing, range(1, 1 + count)))
    return manipulate


def _rejected(helper):
    # An oscillator used twice: the pair list fails its sanity check.
    pairs = list(helper.pairing.pairs)
    pairs[1] = (pairs[0][0], pairs[1][1])
    return helper.with_pairing(SequentialPairingHelper(pairs))


def _padding_payload(helper):
    # Flip the payload bit just past the response: the decoder corrects
    # it away and the recovered response is unchanged, but the bit
    # shares the key's last byte.
    payload = helper.sketch.payload.copy()
    payload[helper.pairing.bits] ^= 1
    return _flipped(2)(helper.with_sketch(SketchData(payload)))


def _short_payload(helper):
    return helper.with_sketch(SketchData(np.zeros(3, dtype=np.uint8)))


def _non_binary_payload(helper):
    bad = SketchData(helper.sketch.payload)
    payload = helper.sketch.payload.astype(np.uint8)
    payload[0] = 2
    object.__setattr__(bad, "payload", payload)
    return helper.with_sketch(bad)


#: Lane kinds: ``(params, keygen factory, helper manipulations,
#: trajectory spec)``.  Each kind's helper list is indexed by the
#: round specs below.
LANES = {
    "sequential": (NOISY, lambda: SequentialPairingKeyGen(
        threshold=250e3), (_flipped(2), _flipped(3), _flipped(4)), None),
    # Thresholds picked so the two shared-code lanes select different
    # pair counts.
    "shared-wide": (NOISY, lambda: SequentialPairingKeyGen(
        threshold=250e3, code_provider=SHARED),
        (_flipped(3), _flipped(4)), None),
    "shared-narrow": (NOISY, lambda: SequentialPairingKeyGen(
        threshold=2e6, code_provider=SHARED),
        (_flipped(3), _flipped(2), _padding_payload), None),
    "rejected": (NOISY, lambda: SequentialPairingKeyGen(
        threshold=250e3), (_rejected, _flipped(3)), None),
    "malformed": (NOISY, lambda: SequentialPairingKeyGen(
        threshold=250e3), (_short_payload, _non_binary_payload), None),
    "hardened": (NOISY, lambda: HardenedSequentialKeyGen(
        threshold=250e3), (_flipped(3), _flipped(2)), None),
    "trajectory": (NOISY, lambda: SequentialPairingKeyGen(
        threshold=250e3), (_flipped(3), _flipped(2)),
        TrajectorySpec(terms=(TemperatureRamp(0.0, 40.0, 200),))),
    "temp-aware": (NOISY, lambda: TempAwareKeyGen(
        t_min=-10, t_max=80, threshold=150e3, sensor_seed=4),
        (None, None), None),
    "fuzzy": (NOISY, lambda: FuzzyExtractorKeyGen(8, 16, 48),
              (None, None), None),
}


#: 4x10 lanes of three comparison kinds over one code: sequential
#: (raw ``>=``), distiller (residual ``>=``) and group-based (residual
#: Kendall) blocks share a row shape and a kernel key, so only the
#: kind keeps them apart.
SMALL = ROArrayParams(rows=4, cols=10, sigma_noise=300e3)
#: Long enough for any enrolled 4x10 Kendall stream.
SMALL_CODE = fixed_code(design_bch(160, 3))


def _group_keygen():
    return GroupBasedKeyGen(group_threshold=120e3,
                            code_provider=SMALL_CODE)


def _hypothesis(u, v, bit):
    """The §VI-C hypothesis helper "residual(u) > residual(v)" = *bit*.

    Every group is a pair; targets (0, 1) give 19 groups and (0, 2)
    give 20 on these devices (a ragged Kendall group).
    """
    def manipulate(helper):
        attack = GroupBasedAttack(None, _group_keygen(), helper,
                                  SMALL.rows, SMALL.cols)
        return attack._attack_helpers(u, v)[bit]
    return manipulate


def _payload_flips(count):
    def manipulate(helper):
        payload = helper.sketch.payload.copy()
        payload[:count] ^= 1
        return helper.with_sketch(SketchData(payload))
    return manipulate


def _nan_trend(helper):
    # An infinite x coefficient: the trend is NaN on the x = 0 column
    # and infinite elsewhere, so the Kendall NaN rule decides bits.
    hypothesis = _hypothesis(0, 2, 0)(helper)
    coefficients = hypothesis.distiller.coefficients.copy()
    coefficients[1] = np.inf
    return replace(hypothesis, distiller=DistillerHelper(
        hypothesis.distiller.degree, coefficients))


def _group_short_payload(helper):
    return _hypothesis(0, 2, 1)(helper).with_sketch(
        SketchData(np.zeros(3, dtype=np.uint8)))


LANES.update({
    "group": (SMALL, _group_keygen,
              (_hypothesis(0, 2, 0), _hypothesis(0, 2, 1),
               _hypothesis(5, 17, 0), _hypothesis(5, 17, 1)), None),
    "group-ragged": (SMALL, _group_keygen,
                     (_hypothesis(0, 1, 0), _hypothesis(0, 1, 1),
                      _hypothesis(3, 30, 1)), None),
    # The enrolled helper groups 3 or more oscillators (assembled);
    # the others fall back or reject.
    "group-fallback": (SMALL, _group_keygen,
                       (None, _group_short_payload, _nan_trend), None),
    "group-hardened": (SMALL, lambda: HardenedGroupBasedKeyGen(
        SMALL.rows, SMALL.cols, max_polynomial_span=20e6,
        group_threshold=120e3, code_provider=SMALL_CODE),
        (None, _hypothesis(0, 2, 0)), None),
    "small-sequential": (SMALL, lambda: SequentialPairingKeyGen(
        threshold=250e3, code_provider=SMALL_CODE),
        (_flipped(2), _flipped(3)), None),
    "distiller": (SMALL, lambda: DistillerPairingKeyGen(
        SMALL.rows, SMALL.cols, code_provider=SMALL_CODE),
        (_payload_flips(3), _payload_flips(2)), None),
})


def build_lane(kind, seed):
    """A fresh ``(oracle, helpers)`` lane; equal calls build twins."""
    params, make_keygen, manipulations, spec = LANES[kind]
    array = ROArray(params, rng=seed)
    keygen = make_keygen()
    helper, _ = keygen.enroll(array, rng=seed)
    helpers = [helper if fn is None else fn(helper)
               for fn in manipulations]
    trajectory = None if spec is None else spec.build(params, seed)
    return BatchOracle(array, keygen, trajectory=trajectory), helpers


def build_lanes(kinds):
    return [build_lane(kind, 40 + index)
            for index, kind in enumerate(kinds)]


def per_item(items):
    """The per-item route: one plan per item, the kernel fused."""
    plans = [oracle.plan_rows(helper, rows, op)
             for oracle, helper, rows, op in items]
    outputs = run_kernels([plan.workload for plan in plans])
    return [plan.finalize(out) for plan, out in zip(plans, outputs)]


def stacked(items):
    frontier = plan_frontier(items)
    return frontier.finalize(run_kernels(frontier.workloads))


def run_round(lanes, spec, route):
    """Take rows in spec order, evaluate, count the kernel work."""
    items = [(lanes[lane][0], lanes[lane][1][which],
              lanes[lane][0].take_rows(count), op)
             for lane, which, count, op in spec]
    calls, rows = kernel_stats.calls, kernel_stats.rows
    outcomes = route(items)
    return outcomes, (kernel_stats.calls - calls,
                      kernel_stats.rows - rows)


def assert_routes_agree(kinds, rounds):
    reference, frontier = build_lanes(kinds), build_lanes(kinds)
    for spec in rounds:
        want, want_work = run_round(reference, spec, per_item)
        got, got_work = run_round(frontier, spec, stacked)
        assert len(got) == len(want)
        for expected, observed in zip(want, got):
            assert observed.dtype == np.bool_
            np.testing.assert_array_equal(observed, expected)
        assert got_work == want_work
    for (ref_oracle, _), (oracle, _) in zip(reference, frontier):
        assert ref_oracle.queries == oracle.queries


class TestMixedRounds:
    def test_lanes_with_different_pair_counts(self):
        lanes = build_lanes(["shared-wide", "shared-narrow"])
        keys = {oracle.keygen.batch_evaluator(
            oracle.array, helpers[0]).stack_key for oracle, helpers in lanes}
        widths = {helpers[0].pairing.bits for _, helpers in lanes}
        # One kernel key, two pair counts: a ragged stacked group.
        assert len(keys) == 1 and None not in keys
        assert len(widths) == 2
        assert_routes_agree(
            ["shared-wide", "shared-narrow", "sequential"],
            [[(0, 0, 8, None), (1, 0, 8, None), (2, 0, 8, None),
              (0, 1, 8, None), (1, 1, 8, None), (2, 1, 5, None),
              (1, 2, 8, None)]])

    def test_rejected_pairs_and_malformed_payloads_in_one_round(self):
        assert_routes_agree(
            ["rejected", "malformed", "sequential"],
            [[(0, 0, 8, None), (1, 0, 8, None), (2, 0, 8, None),
              (1, 1, 6, None), (0, 1, 8, None), (2, 1, 8, None)]])

    def test_trajectory_and_explicit_op_items(self):
        assert_routes_agree(
            ["trajectory", "sequential", "shared-wide"],
            [[(0, 0, 8, None), (1, 0, 8, HOT), (0, 1, 8, HOT),
              (1, 1, 8, None), (2, 0, 8, HOT), (2, 1, 8, None)]])

    def test_stream_consuming_and_assembled_items(self):
        # Temp-aware blocks draw sensor reads while planning; hardened
        # blocks are masked; fuzzy blocks assemble their key.  All
        # keep their own plans, in item order.
        assert_routes_agree(
            ["temp-aware", "hardened", "sequential", "fuzzy"],
            [[(0, 0, 8, None), (2, 0, 8, None), (1, 0, 8, None),
              (0, 1, 8, None), (3, 0, 8, None), (2, 1, 8, None)],
             [(2, 2, 8, None), (0, 0, 8, None), (3, 1, 8, None)]])

    def test_same_helper_across_rounds_hits_the_memo(self):
        spec = [(0, 1, 16, None), (1, 0, 16, None), (0, 1, 16, None)]
        assert_routes_agree(["sequential", "shared-wide"],
                            [spec, spec, spec])
        lanes = build_lanes(["sequential", "shared-wide"])
        _, (_, first) = run_round(lanes, spec, stacked)
        _, (_, second) = run_round(lanes, spec, stacked)
        assert second < first

    def test_memo_is_shared_with_the_evaluators_own_plans(self):
        # Round one plans per item, round two stacks: the stacked
        # round must hit the patterns the own plans memoized, also in
        # a ragged group.
        kinds = ["shared-wide", "shared-narrow"]
        spec = [(0, 0, 16, None), (1, 0, 16, None)]
        reference, mixed = build_lanes(kinds), build_lanes(kinds)
        for route in (per_item, stacked):
            want, want_work = run_round(reference, spec, per_item)
            got, got_work = run_round(mixed, spec, route)
            for expected, observed in zip(want, got):
                np.testing.assert_array_equal(observed, expected)
            assert got_work == want_work

    def test_engine_and_single_item_driver_use_the_frontier(self):
        spec = [(0, 0, 8, None), (1, 0, 8, None), (0, 2, 8, None)]
        engine_lanes = build_lanes(["sequential", "rejected"])
        reference = build_lanes(["sequential", "rejected"])
        got, _ = run_round(engine_lanes, spec, LaneEngine().evaluate_many)
        want, _ = run_round(reference, spec, per_item)
        for expected, observed in zip(want, got):
            np.testing.assert_array_equal(observed, expected)
        oracle, helpers = build_lane("sequential", 7)
        twin, twin_helpers = build_lane("sequential", 7)
        np.testing.assert_array_equal(
            oracle.evaluate_rows(helpers[1], oracle.take_rows(40)),
            twin.plan_rows(twin_helpers[1],
                           twin.take_rows(40)).execute())


class TestStacking:
    def test_only_fallback_items_are_planned_alone(self, monkeypatch):
        lanes = build_lanes(["sequential", "shared-wide", "rejected",
                             "malformed", "trajectory", "hardened"])
        planned = []
        original = BatchOracle.plan_rows

        def spy(self, helper, rows, op=None):
            planned.append(helper)
            return original(self, helper, rows, op)

        monkeypatch.setattr(BatchOracle, "plan_rows", spy)
        spec = [(lane, 0, 8, None) for lane in range(6)] \
            + [(0, 1, 8, HOT)]
        run_round(lanes, spec, stacked)
        assert planned == [lanes[lane][1][0] for lane in (2, 3, 4, 5)]

    @pytest.mark.parametrize("kind,which,stacks", [
        ("sequential", 0, True),
        ("rejected", 0, False),
        ("malformed", 0, False),
        ("malformed", 1, False),
        ("hardened", 0, False),
        ("fuzzy", 0, False),
    ])
    def test_stack_condition(self, kind, which, stacks):
        oracle, helpers = build_lane(kind, 3)
        evaluator = oracle.keygen.batch_evaluator(oracle.array,
                                                  helpers[which])
        assert (evaluator.stack_key is not None) is stacks

    def test_malformed_payload_rejects_every_row(self):
        for which in (0, 1):
            oracle, helpers = build_lane("malformed", 5)
            evaluator = oracle.keygen.batch_evaluator(oracle.array,
                                                      helpers[which])
            assert not isinstance(evaluator, ConstantEvaluator)
            assert evaluator._completion.parsed is None
            outcomes = oracle.evaluate_rows(helpers[which],
                                            oracle.take_rows(30))
            assert outcomes.shape == (30,) and not outcomes.any()

    def test_payload_parsed_once_per_completion(self, monkeypatch):
        oracle, helpers = build_lane("hardened", 9)
        sketch = oracle.keygen.sketch_for(helpers[0].pairing.bits)
        calls = []
        original = type(sketch).parse_helper

        def spy(self, helper):
            calls.append(helper)
            return original(self, helper)

        monkeypatch.setattr(type(sketch), "parse_helper", spy)
        for _ in range(4):
            oracle.query_block(helpers[0], 8)
        assert len(calls) == 1

    def test_pair_columns_match_response_bits(self):
        freqs = np.random.default_rng(0).normal(size=(6, 10))
        index = np.array([[0, 3], [5, 2], [9, 1]], dtype=np.intp)
        expected = (freqs[:, index[:, 0]]
                    >= freqs[:, index[:, 1]]).astype(np.uint8)
        np.testing.assert_array_equal(PairColumns(index)(freqs),
                                      expected)

    def test_ragged_key_digests_match_scalar_digests(self):
        rng = np.random.default_rng(1)
        lengths = [5, 8, 9, 16, 1]
        keys = np.zeros((len(lengths), 16), dtype=np.uint8)
        for row, length in enumerate(lengths):
            keys[row, :length] = rng.integers(0, 2, size=length)
        assert key_check_digests(keys, lengths) == [
            key_check_digest(keys[row, :length])
            for row, length in enumerate(lengths)]


ITEM_KINDS = ["sequential", "shared-wide", "shared-narrow", "rejected",
              "malformed", "trajectory", "hardened"]


@st.composite
def frontier_rounds(draw):
    kinds = draw(st.lists(st.sampled_from(ITEM_KINDS), min_size=1,
                          max_size=4))
    item = st.tuples(st.integers(0, len(kinds) - 1), st.integers(0, 1),
                     st.integers(1, 12),
                     st.sampled_from([None, HOT]))
    rounds = draw(st.lists(st.lists(item, min_size=1, max_size=6),
                           min_size=1, max_size=3))
    return kinds, rounds


class TestRandomFrontiers:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(frontier_rounds())
    def test_stacked_equals_per_item(self, case):
        kinds, rounds = case
        assert_routes_agree(kinds, rounds)


#: An infinite trend coefficient meets a zero coordinate in the
#: NaN-trend helper's matmul.
NAN_TREND = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul:RuntimeWarning")


@NAN_TREND
class TestKendallRounds:
    """Group-based (Kendall) and distiller (residual) blocks."""

    def test_hypothesis_pairs_stack_across_devices(self):
        spec = [(0, 0, 8, None), (0, 1, 8, None), (1, 0, 8, None),
                (1, 1, 8, None), (0, 2, 8, None), (1, 2, 5, None),
                (0, 3, 8, HOT)]
        assert_routes_agree(["group", "group-ragged"], [spec, spec])
        lanes = build_lanes(["group", "group-ragged"])
        items = [(lanes[lane][0], lanes[lane][1][which],
                  lanes[lane][0].take_rows(count), op)
                 for lane, which, count, op in spec]
        frontier = plan_frontier(items)
        # Every 8-row block stacks whatever its op (ragged: 20 and 19
        # groups); the 5-row block is planned alone.
        assert len(frontier._groups) == 1
        assert len(frontier._groups[0].slots) == 6
        assert set(frontier._groups[0]._widths.tolist()) == {19, 20}
        assert [slot for slot, _ in frontier._plans] == [5]
        frontier.execute()

    def test_residual_rows_with_nan(self):
        kinds = ["group", "group-ragged", "distiller", "group"]
        spec = [(0, 0, 12, None), (1, 1, 12, None), (2, 0, 12, None),
                (3, 1, 12, None), (0, 1, 12, None), (2, 1, 12, None)]

        def nan_round(lanes, route):
            items = []
            for lane, which, count, op in spec:
                oracle, helpers = lanes[lane]
                rows = oracle.take_rows(count)
                rows[::3, 0] = np.nan
                rows[1::4, 2] = np.nan
                rows[2::5, :4] = np.nan
                items.append((oracle, helpers[which], rows, op))
            calls, kernel_rows = kernel_stats.calls, kernel_stats.rows
            outcomes = route(items)
            return outcomes, (kernel_stats.calls - calls,
                              kernel_stats.rows - kernel_rows)

        want, want_work = nan_round(build_lanes(kinds), per_item)
        got, got_work = nan_round(build_lanes(kinds), stacked)
        for expected, observed in zip(want, got):
            np.testing.assert_array_equal(observed, expected)
        assert got_work == want_work

    def test_nan_trend_and_rows_match_the_scalar_reference(self):
        oracle, helpers = build_lane("group-fallback", 11)
        rows = oracle.take_rows(24)
        rows[::2, 1] = np.nan
        helper = helpers[2]
        evaluator = oracle.keygen.batch_evaluator(oracle.array, helper)
        assert evaluator.stack_key is not None
        freqs = oracle.array.true_frequencies() + rows
        expected = []
        for row in freqs:
            try:
                oracle.keygen.reconstruct_from_frequencies(
                    oracle.array, row, helper)
                expected.append(True)
            except Exception:
                expected.append(False)
        np.testing.assert_array_equal(
            oracle.evaluate_rows(helper, rows), expected)

    def test_three_kinds_in_one_round_never_merge(self):
        kinds = ["small-sequential", "distiller", "group",
                 "small-sequential", "distiller", "group"]
        spec = [(lane, 0, 8, None) for lane in range(6)] \
            + [(lane, 1, 8, None) for lane in range(6)]
        assert_routes_agree(kinds, [spec, spec])
        lanes = build_lanes(kinds)
        keys = [oracle.keygen.batch_evaluator(oracle.array,
                                              helpers[0]).stack_key
                for oracle, helpers in lanes[:3]]
        assert None not in keys and len(set(keys)) == 3
        assert len({key[-1] for key in keys}) == 1
        items = [(lanes[lane][0], lanes[lane][1][which],
                  lanes[lane][0].take_rows(count), op)
                 for lane, which, count, op in spec]
        frontier = plan_frontier(items)
        assert len(frontier._groups) == 3
        kinds_per_group = [
            {(extract.kind, extract.trend is not None)
             for extract in (items[slot][0]._evaluator_for(
                 items[slot][1], OperatingPoint())._extract
                 for slot in group.slots)}
            for group in frontier._groups]
        assert all(len(group) == 1 for group in kinds_per_group)
        frontier.execute()

    def test_fallbacks_and_rejections(self):
        assert_routes_agree(
            ["group-fallback", "group-hardened", "group"],
            [[(0, 0, 8, None), (2, 0, 8, None), (1, 0, 8, None),
              (0, 1, 8, None), (2, 1, 8, None), (1, 1, 8, None),
              (0, 2, 8, None)]])

    @pytest.mark.parametrize("kind,which,stacks", [
        ("group", 0, True),
        ("group-ragged", 2, True),
        ("distiller", 0, True),
        ("group-fallback", 0, False),   # a group of 3 or more
        ("group-fallback", 1, False),   # malformed payload
        ("group-fallback", 2, True),    # NaN trend, all pairs
        ("group-hardened", 0, False),   # masked
        ("group-hardened", 1, False),   # rejected amplitude
    ])
    def test_group_stack_condition(self, kind, which, stacks):
        oracle, helpers = build_lane(kind, 3)
        if kind == "group-fallback" and which == 0:
            assert max(helpers[0].grouping.sizes) >= 3
        evaluator = oracle.keygen.batch_evaluator(oracle.array,
                                                  helpers[which])
        assert (evaluator.stack_key is not None) is stacks
        if kind == "group-hardened" and which == 1:
            assert isinstance(evaluator, ConstantEvaluator)

    def test_malformed_group_payload_rejects_every_row(self):
        oracle, helpers = build_lane("group-fallback", 5)
        outcomes = oracle.evaluate_rows(helpers[1], oracle.take_rows(30))
        assert outcomes.shape == (30,) and not outcomes.any()

    def test_hypothesis_helper_repeated_across_rounds_hits_the_memo(self):
        spec = [(0, 1, 16, None), (1, 0, 16, None), (0, 0, 16, None)]
        assert_routes_agree(["group", "group-ragged"], [spec, spec, spec])
        lanes = build_lanes(["group", "group-ragged"])
        _, (_, first) = run_round(lanes, spec, stacked)
        _, (_, second) = run_round(lanes, spec, stacked)
        assert second < first

    def test_hypothesis_pair_shares_one_index_and_trend(self):
        oracle, helpers = build_lane("group", 8)
        keygen = oracle.keygen
        attack = GroupBasedAttack(oracle, keygen, helpers[0],
                                  SMALL.rows, SMALL.cols)
        member0, member1 = attack._hypotheses(4, 9).members
        first = member0.block(keygen, oracle.array)
        second = member1.block(keygen, oracle.array)
        assert first.index is second.index
        assert first.trend is second.trend
        assert first.memo is not second.memo
        assert first.key_check != second.key_check
        other = attack._hypotheses(4, 9).members[0].block(
            keygen, oracle.array)
        assert other.index is not first.index
        np.testing.assert_array_equal(other.index, first.index)
        np.testing.assert_array_equal(other.trend, first.trend)
        evaluator = keygen.batch_evaluator(oracle.array,
                                           member1.materialise())
        np.testing.assert_array_equal(evaluator._extract.index,
                                      first.index)
        np.testing.assert_array_equal(evaluator._extract.trend,
                                      first.trend)


GROUP_ITEM_KINDS = ITEM_KINDS + ["group", "group-ragged", "group-fallback",
                                 "group-hardened", "small-sequential",
                                 "distiller"]


@st.composite
def group_frontier_rounds(draw):
    kinds = draw(st.lists(st.sampled_from(GROUP_ITEM_KINDS), min_size=1,
                          max_size=4))
    item = st.tuples(st.integers(0, len(kinds) - 1), st.integers(0, 1),
                     st.integers(1, 12),
                     st.sampled_from([None, HOT]))
    rounds = draw(st.lists(st.lists(item, min_size=1, max_size=6),
                           min_size=1, max_size=3))
    return kinds, rounds


@NAN_TREND
class TestRandomKendallFrontiers:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(group_frontier_rounds())
    def test_stacked_equals_per_item(self, case):
        kinds, rounds = case
        assert_routes_agree(kinds, rounds)
