"""Equivalence tests: the vectorized temperature-aware batch path.

Mirrors ``tests/core/test_batch_oracle.py``: twin devices — identical
static randomness and noise streams — plus twin key generators sharing
a *sensor_seed*, so scalar and batched simulation consume identical
measurement and sensor noise.  The batched outcomes must then match the
scalar evaluator query for query at every temperature sweep point,
under nominal and manipulated helper data alike.
"""

import numpy as np
import pytest

from repro.core import BatchOracle, HelperDataOracle
from repro.core.framework import FailureRateComparer
from repro.core.injection import break_inversions
from repro.core.lockstep import ComparisonRequest, run_lane
from repro.keygen import OperatingPoint, TempAwareKeyGen
from repro.puf import ROArray, ROArrayParams

PARAMS = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)
SWEEP_POINTS = (-10.0, 0.0, 20.0, 35.0, 50.0, 65.0, 80.0)


def twin_setup(device_seed=7, enroll_seed=0, sensor_seed=11):
    seq_array = ROArray(PARAMS, rng=device_seed)
    batch_array = ROArray(PARAMS, rng=device_seed)
    seq_keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3,
                                 sensor_seed=sensor_seed)
    batch_keygen = TempAwareKeyGen(t_min=-10, t_max=80,
                                   threshold=150e3,
                                   sensor_seed=sensor_seed)
    helper_seq, key = seq_keygen.enroll(seq_array, rng=enroll_seed)
    helper_batch, key_batch = batch_keygen.enroll(batch_array,
                                                  rng=enroll_seed)
    np.testing.assert_array_equal(key, key_batch)
    return (seq_array, batch_array, seq_keygen, batch_keygen,
            helper_seq, helper_batch)


def assert_twin_equivalence(seq_array, batch_array, seq_keygen,
                            batch_keygen, helper_seq, helper_batch,
                            op, queries=120):
    sequential = HelperDataOracle(seq_array, seq_keygen)
    batched = BatchOracle(batch_array, batch_keygen)
    expected = np.array([sequential.query(helper_seq, op)
                         for _ in range(queries)])
    observed = batched.query_block(helper_batch, queries, op)
    np.testing.assert_array_equal(expected, observed)
    assert sequential.queries == batched.queries == queries
    return expected


class TestTemperatureSweepEquivalence:
    def test_query_for_query_across_sweep_points(self):
        setup = twin_setup()
        for temperature in SWEEP_POINTS:
            assert_twin_equivalence(
                *setup, OperatingPoint(temperature=temperature),
                queries=60)

    def test_nominal_operating_point(self):
        assert_twin_equivalence(*twin_setup(), OperatingPoint())

    def test_interval_boundary_sensor_noise(self):
        # Right at a crossover-interval boundary the ±0.25 °C sensor
        # noise flips the interval interpretation query by query; the
        # batch path must track the scalar sensor stream exactly.
        setup = twin_setup()
        entry = setup[4].scheme.cooperation[0]
        for temperature in (entry.t_low, entry.t_high):
            assert_twin_equivalence(
                *setup, OperatingPoint(temperature=temperature),
                queries=150)


class TestManipulatedHelperEquivalence:
    def check_injection(self, errors):
        (seq_array, batch_array, seq_keygen, batch_keygen,
         helper_seq, helper_batch) = twin_setup()
        temperature = 25.0
        manipulated_seq = helper_seq.with_scheme(
            break_inversions(helper_seq.scheme, temperature, errors))
        manipulated_batch = helper_batch.with_scheme(
            break_inversions(helper_batch.scheme, temperature, errors))
        outcomes = assert_twin_equivalence(
            seq_array, batch_array, seq_keygen, batch_keygen,
            manipulated_seq, manipulated_batch,
            OperatingPoint(temperature=temperature))
        return outcomes

    def test_injection_below_boundary(self):
        # BCH t=3: three injected errors stay correctable.
        assert self.check_injection(3).all()

    def test_injection_past_boundary(self):
        assert not self.check_injection(4).any()

    def test_assistant_rewrite(self):
        # The §VI-B manipulation itself: rewrite an assistant index and
        # bake the device inside the target's crossover interval.
        (seq_array, batch_array, seq_keygen, batch_keygen,
         helper_seq, helper_batch) = twin_setup()
        entries = helper_seq.scheme.cooperation
        target, candidate = 0, 1
        rewritten_seq = helper_seq.with_scheme(
            helper_seq.scheme.replace_entry(
                target, entries[target].with_assist(
                    entries[candidate].pair_index)))
        entries_b = helper_batch.scheme.cooperation
        rewritten_batch = helper_batch.with_scheme(
            helper_batch.scheme.replace_entry(
                target, entries_b[target].with_assist(
                    entries_b[candidate].pair_index)))
        temperature = 0.5 * (entries[target].t_low
                             + entries[target].t_high)
        assert_twin_equivalence(
            seq_array, batch_array, seq_keygen, batch_keygen,
            rewritten_seq, rewritten_batch,
            OperatingPoint(temperature=temperature))

    def test_assistance_cycle_refusal(self):
        # Pointing the assistant at a pair whose interval intersects
        # the target's forms an assistance cycle: rows sensed inside
        # both intervals must fail observably on both paths.
        (seq_array, batch_array, seq_keygen, batch_keygen,
         helper_seq, helper_batch) = twin_setup()
        entries = helper_seq.scheme.cooperation
        intersecting = None
        for i, first in enumerate(entries):
            for j, second in enumerate(entries):
                if i != j and not (first.t_high < second.t_low
                                   or second.t_high < first.t_low):
                    intersecting = (i, j)
                    break
            if intersecting:
                break
        if intersecting is None:
            pytest.skip("device has no intersecting intervals")
        i, j = intersecting
        looped_seq = helper_seq.with_scheme(
            helper_seq.scheme.replace_entry(
                i, entries[i].with_assist(entries[j].pair_index)))
        entries_b = helper_batch.scheme.cooperation
        looped_batch = helper_batch.with_scheme(
            helper_batch.scheme.replace_entry(
                i, entries_b[i].with_assist(entries_b[j].pair_index)))
        temperature = 0.5 * (entries[i].t_low + entries[i].t_high)
        outcomes = assert_twin_equivalence(
            seq_array, batch_array, seq_keygen, batch_keygen,
            looped_seq, looped_batch,
            OperatingPoint(temperature=temperature))
        assert not outcomes.all()

    def test_non_cooperating_assistant_refusal(self):
        (seq_array, batch_array, seq_keygen, batch_keygen,
         helper_seq, helper_batch) = twin_setup()
        good_pair = helper_seq.scheme.good_indices[0]
        entry = helper_seq.scheme.cooperation[0]
        broken_seq = helper_seq.with_scheme(
            helper_seq.scheme.replace_entry(
                0, entry.with_assist(good_pair)))
        broken_batch = helper_batch.with_scheme(
            helper_batch.scheme.replace_entry(
                0, helper_batch.scheme.cooperation[0].with_assist(
                    good_pair)))
        temperature = 0.5 * (entry.t_low + entry.t_high)
        outcomes = assert_twin_equivalence(
            seq_array, batch_array, seq_keygen, batch_keygen,
            broken_seq, broken_batch,
            OperatingPoint(temperature=temperature))
        assert not outcomes.any()


class TestUnwoundComparison:
    def test_lane_comparison_matches_scalar_compare(self):
        # A comparison interleaves its helpers' rows (a even, b odd)
        # and unwinds the rows past its stopping point.  At the
        # boundary of entry 0's crossover interval every query's
        # outcome hinges on its own sensor read (inside: the rewritten
        # assistant adds the (t+1)-th error), so each row must carry
        # its read through the interleave and the unwind.
        (seq_array, batch_array, seq_keygen, batch_keygen,
         helper_seq, helper_batch) = twin_setup(sensor_seed=5)
        _, key = seq_keygen.enroll(ROArray(PARAMS, rng=7), rng=0)

        def boundary_rewrite(helper):
            entries = helper.scheme.cooperation
            entry = entries[0]
            n_good = len(helper.scheme.good_indices)
            coop_bits = {e.pair_index: key[n_good + i]
                         for i, e in enumerate(entries)}
            wrong = next(e.pair_index for e in entries[1:]
                         if coop_bits[e.pair_index]
                         != coop_bits[entry.assist_index])
            scheme = break_inversions(
                helper.scheme.replace_entry(0, entry.with_assist(wrong)),
                entry.t_low, seq_keygen.sketch_for(key.size).code.t,
                exclude=[entry.pair_index, wrong, entry.assist_index])
            return helper.with_scheme(scheme)

        op = OperatingPoint(
            temperature=helper_seq.scheme.cooperation[0].t_low)
        comparer = FailureRateComparer(confidence=0.9)
        sequential = HelperDataOracle(seq_array, seq_keygen)
        batched = BatchOracle(batch_array, batch_keygen)
        rewritten_seq = boundary_rewrite(helper_seq)
        rewritten_batch = boundary_rewrite(helper_batch)
        expected = comparer.compare(sequential, rewritten_seq,
                                    helper_seq, op)
        observed = run_lane(batched, ComparisonRequest(
            rewritten_batch, helper_batch, comparer, op))
        assert observed == expected
        assert 0 < expected.failures_a < expected.samples
        assert expected.samples < comparer.max_queries_per_side
        unwound = batched._buffer.shape[0]
        assert unwound > 0
        assert sequential.queries == batched.queries
        # The unwound rows keep their reads: the next queries match.
        more = np.array([sequential.query(rewritten_seq, op)
                         for _ in range(unwound + 4)])
        assert 0 < more.sum() < more.size
        np.testing.assert_array_equal(
            more, batched.query_block(rewritten_batch, unwound + 4, op))
        np.testing.assert_array_equal(seq_keygen.sensor_draws(3),
                                      batch_keygen.sensor_draws(3))


class TestDuplicatePairIndexEquivalence:
    def test_duplicate_entries_resolve_like_the_scalar_path(self):
        # Cooperation records are attacker-writable, including
        # duplicated pair indices; the scalar path resolves every
        # record through a last-wins dict, and the batch path must
        # replicate that resolution bit for bit.
        from repro.pairing.temp_aware import CooperationEntry

        array = ROArray(PARAMS, rng=7)
        keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3)
        helper, _ = keygen.enroll(array, rng=0)
        scheme = keygen.scheme
        first, second = helper.scheme.cooperation[:2]
        duplicate = CooperationEntry(
            first.pair_index, second.t_low, second.t_high,
            second.good_index, second.assist_index)
        manipulated = helper.scheme.replace_entry(1, duplicate)

        rng = np.random.default_rng(5)
        freqs = array.measure_frequencies_batch(60, rng=rng)
        temps = rng.uniform(-10, 80, size=60)
        bits, valid = scheme.evaluate_batch(freqs, manipulated, temps)
        for row in range(60):
            try:
                expected = scheme.evaluate(freqs[row], manipulated,
                                           temps[row])
            except ValueError:
                assert not valid[row]
                continue
            assert valid[row]
            np.testing.assert_array_equal(bits[row], expected)


class TestEvaluateBatchDirect:
    def test_matches_scalar_evaluate_rowwise(self):
        array = ROArray(PARAMS, rng=3)
        keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3)
        helper, _ = keygen.enroll(array, rng=1)
        scheme = keygen.scheme
        rng = np.random.default_rng(42)
        freqs = array.measure_frequencies_batch(40, rng=rng)
        temps = rng.uniform(-10, 80, size=40)
        bits, valid = scheme.evaluate_batch(freqs, helper.scheme, temps)
        assert valid.all()
        for row in range(40):
            np.testing.assert_array_equal(
                bits[row],
                scheme.evaluate(freqs[row], helper.scheme,
                                temps[row]))

    def test_shape_validation(self):
        array = ROArray(PARAMS, rng=3)
        keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3)
        helper, _ = keygen.enroll(array, rng=1)
        scheme = keygen.scheme
        with pytest.raises(ValueError):
            scheme.evaluate_batch(np.zeros(PARAMS.n), helper.scheme,
                                  np.zeros(1))
        with pytest.raises(ValueError):
            scheme.evaluate_batch(np.zeros((4, PARAMS.n)),
                                  helper.scheme, np.zeros(3))
