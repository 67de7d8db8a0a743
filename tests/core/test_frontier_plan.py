"""Stacked frontier groups against lone blocks, bitwise.

A lock-step round evaluates ``(oracle, helper, rows, op)`` items through
:func:`repro.core.batch_oracle.plan_frontier`: blocks of pair-column
evaluators (sequential ``>=``, distiller residual ``>=``, group-based
residual Kendall) with a bare code-offset completion are planned and
finalized stacked, every other block is a group of one, and a refusal
fails every row.  Every test builds each lane twice (twin devices, twin
keygens), runs one copy through the round's frontier and the other
through one-item frontiers with the kernel fused across the round —
the stacked gather against each block's own ``checked``, two different
extraction codes — and asserts equal outcomes, equal kernel call and
row counts, and equal memo state in later rounds.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batch_oracle import BatchOracle, plan_frontier
from repro.core.group_attack import GroupBasedAttack
from repro.core.injection import flip_orientations
from repro.core.oracle import HelperDataOracle
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
from repro.keygen.batch import ConstantEvaluator, FrontierPlan, PairColumns
from repro.pairing import SequentialPairingHelper
from repro.puf import ROArray, ROArrayParams
from repro.scenario.trajectory import (
    AgingDrift,
    TemperatureRamp,
    TrajectorySpec,
)

NOISY = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
#: One code for every response length up to 64 bits: lanes with
#: different pair counts share a kernel key (a ragged stacked group).
SHARED = fixed_code(design_bch(64, 3))
HOT = OperatingPoint(temperature=70.0)

#: An infinite trend coefficient meets a zero coordinate in the
#: NaN-trend helper's matmul.
NAN_TREND = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul:RuntimeWarning")


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
    # Hypotheses pass the structure checks: the gap check stays.
    "group-hardened-pairs": (SMALL, lambda: HardenedGroupBasedKeyGen(
        SMALL.rows, SMALL.cols, max_polynomial_span=np.inf,
        group_threshold=120e3, code_provider=SMALL_CODE),
        (_hypothesis(0, 2, 0), _hypothesis(0, 2, 1),
         _hypothesis(0, 1, 0)), None),
    "small-sequential": (SMALL, lambda: SequentialPairingKeyGen(
        threshold=250e3, code_provider=SMALL_CODE),
        (_flipped(2), _flipped(3)), None),
    "distiller": (SMALL, lambda: DistillerPairingKeyGen(
        SMALL.rows, SMALL.cols, code_provider=SMALL_CODE),
        (_payload_flips(3), _payload_flips(2)), None),
})

#: A ramp plus aging: items without an op get a per-row ``(B, n)``
#: base, items at an explicit op the ``(1, n)`` row plus the aging
#: shift.
AGED_RAMP = TrajectorySpec(terms=(TemperatureRamp(-40.0, 110.0, 48),
                                  AgingDrift(years=2.0,
                                             drift_sigma=50e3)))
LANES.update({
    "shared-aged": (NOISY, lambda: SequentialPairingKeyGen(
        threshold=1.3e6, code_provider=SHARED),
        (_flipped(3), _flipped(2)), AGED_RAMP),
    "aged": (NOISY, lambda: SequentialPairingKeyGen(threshold=250e3),
             (_flipped(3), _flipped(2)), AGED_RAMP),
    "group-aged": (SMALL, _group_keygen,
                   (_hypothesis(0, 2, 0), _hypothesis(0, 1, 1)),
                   AGED_RAMP),
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
    """The lone route: a one-item frontier per item, the round's
    kernels fused."""
    frontiers = [plan_frontier([item]) for item in items]
    loads = [frontier.workloads for frontier in frontiers]
    outputs = iter(run_kernels([load for own in loads for load in own]))
    return [frontier.finalize([next(outputs) for _ in own])[0]
            for frontier, own in zip(frontiers, loads)]


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
        # Temp-aware blocks read their sensed column and fuzzy blocks
        # assemble their key: both are groups of one.  Hardened blocks
        # stack with their gap check.
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
        # Round one plans each block alone, round two stacks: the
        # stacked round must hit the patterns the lone blocks
        # memoized, also in a ragged group.
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
        got, _ = run_round(engine_lanes, spec,
                           lambda items: plan_frontier(items).execute())
        want, _ = run_round(reference, spec, per_item)
        for expected, observed in zip(want, got):
            np.testing.assert_array_equal(observed, expected)
        oracle, helpers = build_lane("sequential", 7)
        twin, twin_helpers = build_lane("sequential", 7)
        scalar = HelperDataOracle(twin.array, twin.keygen)
        np.testing.assert_array_equal(
            oracle.evaluate_rows(helpers[1], oracle.take_rows(40)),
            [scalar.query(twin_helpers[1]) for _ in range(40)])

    @NAN_TREND
    def test_every_kind_plans_in_a_group_and_matches_the_scalar_oracle(
            self):
        # One round holds a fuzzy (Toeplitz) item, a grouping with a
        # group of 3 or more, temp-aware items, stacked sequential and
        # Kendall hypothesis items and a refusal.
        kinds = ["fuzzy", "group-fallback", "temp-aware", "sequential",
                 "shared-wide", "group", "group-ragged", "rejected"]
        lanes = build_lanes(kinds)
        assert max(lanes[1][1][0].grouping.sizes) >= 3
        twins = [(HelperDataOracle(oracle.array, oracle.keygen), helpers)
                 for oracle, helpers in build_lanes(kinds)]
        spec = [(0, 0, 8, None), (1, 0, 8, None), (2, 0, 8, None),
                (3, 0, 8, None), (4, 0, 8, None), (5, 0, 8, None),
                (6, 1, 8, None), (2, 1, 8, None), (3, 1, 8, HOT),
                (0, 1, 8, None), (7, 0, 8, None), (5, 1, 8, None)]
        for _ in range(2):
            items = [(lanes[lane][0], lanes[lane][1][which],
                      lanes[lane][0].take_rows(count), op)
                     for lane, which, count, op in spec]
            frontier = plan_frontier(items)
            grouped = sorted(slot for group in frontier._groups
                             for slot in group.slots)
            # Only the refusal is planned outside a group.
            assert grouped == [slot for slot in range(len(spec))
                               if slot != 10]
            assert [slot for slot, _ in frontier._refused] == [10]
            # The stacked items share groups; the rest are alone.
            assert any(len(group.slots) > 1 for group in frontier._groups)
            got = frontier.execute()
            want = [[twins[lane][0].query(twins[lane][1][which], op)
                     for _ in range(count)]
                    for lane, which, count, op in spec]
            for observed, expected in zip(got, want):
                assert observed.dtype == np.bool_
                np.testing.assert_array_equal(observed, expected)
        flat = np.concatenate(got)
        assert 0 < flat.sum() < flat.size
        for (oracle, _), (scalar, _) in zip(lanes, twins):
            assert oracle.queries == scalar.queries


class TestStacking:
    def test_every_item_plans_in_a_group(self):
        lanes = build_lanes(["sequential", "shared-wide", "rejected",
                             "malformed", "trajectory", "hardened",
                             "temp-aware", "fuzzy"])
        spec = [(lane, 0, 8, None) for lane in range(8)] \
            + [(0, 1, 8, HOT)]
        items = [(lanes[lane][0], lanes[lane][1][which],
                  lanes[lane][0].take_rows(count), op)
                 for lane, which, count, op in spec]
        frontier = plan_frontier(items)
        # Rejected pairs and a malformed payload are refusals.  Every
        # other item is planned in a group: the trajectory lane's
        # blocks stack like the plain ones, and the hardened (its gap
        # check), temp-aware and fuzzy blocks are groups of one.
        assert [slot for slot, _ in frontier._refused] == [2, 3]
        assert sorted(group.slots for group in frontier._groups) == [
            [0, 1, 4, 8], [5], [6], [7]]
        got = frontier.execute()
        assert not got[2].any() and not got[3].any()

    def test_trajectory_blocks_share_a_group_with_plain_blocks(self):
        kinds = ["trajectory", "sequential", "trajectory"]
        spec = [(0, 0, 8, None), (1, 0, 8, None), (2, 1, 8, None),
                (0, 1, 8, HOT), (1, 1, 8, HOT)]
        lanes, twins = build_lanes(kinds), build_lanes(kinds)
        keys = {oracle.keygen.batch_evaluator(oracle.array,
                                              helpers[0]).stack_key
                for oracle, helpers in lanes}
        assert len(keys) == 1 and None not in keys
        for _ in range(3):
            items = [(lanes[lane][0], lanes[lane][1][which],
                      lanes[lane][0].take_rows(count), op)
                     for lane, which, count, op in spec]
            frontier = plan_frontier(items)
            assert not frontier._refused
            assert [group.slots for group in frontier._groups] \
                == [list(range(len(spec)))]
            rows = kernel_stats.rows
            got = frontier.execute()
            stacked_rows = kernel_stats.rows - rows
            rows = kernel_stats.rows
            want = [twins[lane][0].evaluate_rows(
                        twins[lane][1][which],
                        twins[lane][0].take_rows(count), op)
                    for lane, which, count, op in spec]
            assert kernel_stats.rows - rows == stacked_rows
            for observed, expected in zip(got, want):
                assert observed.dtype == np.bool_
                np.testing.assert_array_equal(observed, expected)
        for (oracle, helpers), (twin, twin_helpers) in zip(lanes, twins):
            for helper, twin_helper in zip(helpers, twin_helpers):
                for op in (OperatingPoint(), HOT):
                    assert (oracle._evaluator_for(helper, op)._memo
                            == twin._evaluator_for(twin_helper, op)._memo)

    def test_lone_evaluator_block_is_a_group_of_one(self):
        (oracle, helpers), = build_lanes(["sequential"])
        (twin, twin_helpers), = build_lanes(["sequential"])
        evaluator = twin.keygen.batch_evaluator(twin.array,
                                                twin_helpers[1])
        base = twin.array.true_frequencies()[None, :]
        for _ in range(3):
            frontier = plan_frontier([(oracle, helpers[1],
                                       oracle.take_rows(16), None)])
            assert not frontier._refused
            assert [group.slots for group in frontier._groups] == [[0]]
            rows = kernel_stats.rows
            (got,) = frontier.execute()
            stacked_rows = kernel_stats.rows - rows
            rows = kernel_stats.rows
            (want,) = FrontierPlan([(evaluator.block, twin.take_rows(16),
                                     base)]).execute()
            assert kernel_stats.rows - rows == stacked_rows
            np.testing.assert_array_equal(got, want)
        memo = oracle._evaluator_for(helpers[1], OperatingPoint())._memo
        assert memo and memo == evaluator._memo

    @pytest.mark.parametrize("kind,which,stacks", [
        ("sequential", 0, True),
        ("rejected", 0, False),
        ("malformed", 0, False),
        ("malformed", 1, False),
        ("hardened", 0, True),
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
            # A malformed payload makes the evaluator a refusal.
            assert evaluator.block is None
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


def _with_nan_columns(rows):
    rows = rows.copy()
    rows[::3, 0] = np.nan
    rows[1::4, 2] = np.nan
    return rows


class TestBaseOncePerGroup:
    """A stacked group adds every block's base to its noise in one
    operation, whatever the base's shape: each block's bits are still
    ``PairColumns(index, trend, kind)(base + noise)``."""

    def assert_group_arithmetic(self, kinds, spec, groups, nan=False):
        lanes, twins = build_lanes(kinds), build_lanes(kinds)
        patterns = {}
        memos = {}
        for _ in range(3):
            items, twin_items = [], []
            for lane, which, count, op in spec:
                for built, out in ((lanes, items), (twins, twin_items)):
                    oracle, helpers = built[lane]
                    rows = oracle.take_rows(count)
                    if nan:
                        rows = _with_nan_columns(rows)
                    out.append((oracle, helpers[which], rows, op))
            frontier = plan_frontier(items)
            assert not frontier._refused
            assert sorted(len(group.slots)
                          for group in frontier._groups) == groups
            bases = set()
            for oracle, helper, rows, op in items:
                noise, base = oracle._split(rows, op)
                bases.add(base.shape[0] == 1)
                block = oracle._evaluator_for(
                    helper, op if op is not None else oracle.default_op
                ).block
                bits = PairColumns(block.index, block.trend,
                                   block.kind)(base + noise)
                patterns.setdefault(id(block.memo), set()).update(
                    row.tobytes() for row in bits)
                memos[id(block.memo)] = block.memo
            # Explicit-op (1, n) rows and per-row (B, n) bases alike.
            assert bases == {True, False}
            rows = kernel_stats.rows
            got = frontier.execute()
            stacked_rows = kernel_stats.rows - rows
            rows = kernel_stats.rows
            want = [oracle.evaluate_rows(helper, rows, op)
                    for oracle, helper, rows, op in twin_items]
            assert kernel_stats.rows - rows == stacked_rows
            for observed, expected in zip(got, want):
                assert observed.dtype == np.bool_
                np.testing.assert_array_equal(observed, expected)
        # Every pattern is memoized under exactly its extracted bytes,
        # as the per-item route memoizes it.
        for key, memo in memos.items():
            assert set(memo) == patterns[key]
        for lane, which, _, op in spec:
            op = op if op is not None else OperatingPoint()
            (oracle, helpers), (twin, twin_helpers) = lanes[lane], \
                twins[lane]
            assert (oracle._evaluator_for(helpers[which], op)._memo
                    == twin._evaluator_for(twin_helpers[which], op)._memo)

    def test_pair_blocks_with_mixed_bases_and_widths(self):
        kinds = ["shared-aged", "shared-wide", "shared-narrow"]
        widths = {helpers[0].pairing.bits
                  for _, helpers in build_lanes(kinds)}
        assert len(widths) == 3
        self.assert_group_arithmetic(
            kinds, [(0, 0, 8, None), (1, 0, 8, None), (0, 1, 8, HOT),
                    (2, 1, 8, None), (2, 2, 8, HOT), (1, 1, 8, HOT)],
            groups=[6])

    def test_trend_and_kendall_blocks_with_nan_columns(self):
        kinds = ["group-aged", "group-ragged", "distiller", "group"]
        self.assert_group_arithmetic(
            kinds, [(0, 0, 8, None), (1, 1, 8, None), (2, 0, 8, None),
                    (0, 1, 8, HOT), (3, 0, 8, HOT), (2, 1, 8, None),
                    (1, 0, 8, None)],
            groups=[2, 5], nan=True)

    def test_lone_block_with_a_trajectory_base(self):
        self.assert_group_arithmetic(
            ["aged"], [(0, 0, 16, None), (0, 1, 12, HOT)],
            groups=[1, 1])


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
        # groups); the 5-row block is a group of one.
        assert len(frontier._groups) == 2 and not frontier._refused
        assert len(frontier._groups[0].slots) == 6
        assert set(frontier._groups[0]._widths.tolist()) == {19, 20}
        assert frontier._groups[1].slots == [5]
        frontier.execute()

    def test_residual_rows_with_nan(self):
        kinds = ["group", "group-ragged", "distiller", "group"]
        spec = [(0, 0, 12, None), (1, 1, 12, None), (2, 0, 12, None),
                (3, 1, 12, None), (0, 1, 12, None), (2, 1, 12, None)]

        def nan_round(lanes, route):
            items = []
            for lane, which, count, op in spec:
                oracle, helpers = lanes[lane]
                # Taken rows are read-only views of the oracle's draw.
                rows = oracle.take_rows(count).copy()
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
        rows = oracle.take_rows(24).copy()
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
            {(block.kind, block.trend is not None)
             for block in (items[slot][0]._evaluator_for(
                 items[slot][1], OperatingPoint()).block
                 for slot in group.slots)}
            for group in frontier._groups]
        assert all(len(group) == 1 for group in kinds_per_group)
        frontier.execute()

    def test_fallbacks_and_rejections(self):
        assert_routes_agree(
            ["group-fallback", "group-hardened", "group",
             "group-hardened-pairs"],
            [[(0, 0, 8, None), (2, 0, 8, None), (1, 0, 8, None),
              (0, 1, 8, None), (2, 1, 8, None), (1, 1, 8, None),
              (0, 2, 8, None), (3, 0, 8, None), (3, 2, 8, None),
              (3, 1, 8, None)]])

    @pytest.mark.parametrize("kind,which,stacks", [
        ("group", 0, True),
        ("group-ragged", 2, True),
        ("distiller", 0, True),
        ("group-fallback", 0, False),   # a group of 3 or more
        ("group-fallback", 1, False),   # malformed payload
        ("group-fallback", 2, True),    # NaN trend, all pairs
        ("group-hardened", 0, False),   # a group of 3 or more
        ("group-hardened", 1, False),   # rejected amplitude
        ("group-hardened-pairs", 0, True),
        ("group-hardened-pairs", 2, True),
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
        np.testing.assert_array_equal(evaluator.block.index,
                                      first.index)
        np.testing.assert_array_equal(evaluator.block.trend,
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


class TestShortenedHypothesisRounds:
    """§VI-C rounds whose hypothesis streams get different shortenings.

    On 4x10 devices the target pairs (0, 1) and (5, 17) leave 19 pairs
    and (0, 2) leaves 20; the default provider gives them BCH
    ``(6, 3)`` shortened by 26 and by 25.
    """

    TARGETS = ((0, 1), (0, 2), (5, 17))

    def lanes(self):
        built = []
        for seed in (40, 41, 42):
            array = ROArray(SMALL, rng=seed)
            keygen = GroupBasedKeyGen(group_threshold=120e3)
            helper, _ = keygen.enroll(array, rng=seed)
            oracle = BatchOracle(array, keygen)
            attack = GroupBasedAttack(oracle, keygen, helper, SMALL.rows,
                                      SMALL.cols)
            built.append((oracle, [
                member for u, v in self.TARGETS
                for member in attack._hypotheses(u, v).members]))
        return built

    def items(self, lanes, spec, materialise=False):
        return [(lanes[lane][0], lanes[lane][1][which].materialise()
                 if materialise else lanes[lane][1][which],
                 lanes[lane][0].take_rows(8), None)
                for lane, which in spec]

    def test_one_group_one_call_equal_outcomes_and_memos(self):
        spec = [(lane, which) for lane in range(3) for which in range(6)]
        stacked_lanes = self.lanes()
        single, materialised = self.lanes(), self.lanes()
        codes = {member.block(oracle.keygen, oracle.array).sketch.code.n
                 for oracle, members in stacked_lanes
                 for member in members}
        assert len(codes) == 2
        for round_ in range(3):
            items = self.items(stacked_lanes, spec)
            frontier = plan_frontier(items)
            assert len(frontier._groups) == 1 and not frontier._refused
            work = [load for load in frontier.workloads if load is not None]
            # One workload while fresh patterns remain; the first round
            # has some.
            assert len(work) <= 1 and (work or round_)
            calls, rows = kernel_stats.calls, kernel_stats.rows
            got = frontier.execute()
            assert kernel_stats.calls - calls == len(work)
            fused_rows = kernel_stats.rows - rows
            # Per item: one-item frontiers, and the materialised
            # helpers' own evaluators, each with its own kernel call.
            rows = kernel_stats.rows
            want = [oracle.evaluate_rows(helper, taken)
                    for oracle, helper, taken, _
                    in self.items(single, spec)]
            assert kernel_stats.rows - rows == fused_rows
            plain = [oracle.evaluate_rows(helper, taken)
                     for oracle, helper, taken, _
                     in self.items(materialised, spec, True)]
            for observed, expected, reference in zip(got, want, plain):
                assert observed.dtype == np.bool_
                np.testing.assert_array_equal(observed, expected)
                np.testing.assert_array_equal(observed, reference)
        for ours, theirs, lone in zip(stacked_lanes, materialised, single):
            for member, twin, alone in zip(ours[1], theirs[1], lone[1]):
                memo = member.block(ours[0].keygen, ours[0].array).memo
                evaluator = theirs[0]._evaluator_for(twin.materialise(),
                                                     OperatingPoint())
                assert memo == evaluator._memo
                assert memo == alone.block(lone[0].keygen,
                                           lone[0].array).memo

    def test_per_item_plans_fuse_across_shortenings(self):
        spec = [(0, 0), (1, 2), (2, 3), (0, 5)]
        lanes, twins = self.lanes(), self.lanes()
        want, want_work = run_round(twins, [(lane, which, 8, None)
                                            for lane, which in spec],
                                    per_item)
        got, got_work = run_round(lanes, [(lane, which, 8, None)
                                          for lane, which in spec],
                                  stacked)
        for observed, expected in zip(got, want):
            np.testing.assert_array_equal(observed, expected)
        assert got_work == want_work and got_work[0] == 1
