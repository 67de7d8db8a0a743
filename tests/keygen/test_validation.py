"""Tests for device-side helper-data validation (hardening)."""

import numpy as np
import pytest

from repro.core import BatchOracle, HelperDataOracle, symmetric_quadratic
from repro.core.group_attack import GroupBasedAttack
from repro.keygen import (
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    HardenedTempAwareKeyGen,
    HelperDataRejected,
    ReconstructionFailure,
    TempAwareKeyGen,
    validate_cooperation_records,
    validate_distiller_amplitude,
    validate_group_membership,
    validate_group_thresholds,
)
from repro.grouping import GroupingHelper
from repro.pairing import SequentialPairingHelper


class TestDistillerAmplitudeCheck:
    def test_honest_helper_accepted(self, small_array):
        keygen = GroupBasedKeyGen(group_threshold=120e3)
        helper, _ = keygen.enroll(small_array, rng=2)
        validate_distiller_amplitude(helper.distiller, 4, 10,
                                     max_span=20e6)

    def test_steep_injection_rejected(self, small_array):
        keygen = GroupBasedKeyGen(group_threshold=120e3)
        helper, _ = keygen.enroll(small_array, rng=2)
        payload = symmetric_quadratic((2.0, 1.0), (5.0, 1.0), 4,
                                      steepness=1e12)
        with pytest.raises(HelperDataRejected):
            validate_distiller_amplitude(
                helper.distiller.with_added(payload), 4, 10,
                max_span=20e6)


class TestGroupChecks:
    def test_membership_rejects_reuse_and_range(self):
        grouping = GroupingHelper(((0, 1), (1, 2)), threshold=1.0)
        with pytest.raises(HelperDataRejected):
            validate_group_membership(grouping, 10)
        grouping = GroupingHelper(((0, 99),), threshold=1.0)
        with pytest.raises(HelperDataRejected):
            validate_group_membership(grouping, 10)

    def test_threshold_check_on_measurements(self):
        residuals = np.array([0.0, 1e6, 1.05e6])
        good = GroupingHelper(((0, 1),), threshold=120e3)
        validate_group_thresholds(residuals, good, 120e3)
        bad = GroupingHelper(((1, 2),), threshold=120e3)
        with pytest.raises(HelperDataRejected):
            validate_group_thresholds(residuals, bad, 120e3)


class TestCooperationChecks:
    @pytest.fixture
    def helper(self, thermal_array):
        keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3)
        helper, _ = keygen.enroll(thermal_array, rng=6)
        return helper

    def test_honest_records_accepted(self, helper):
        validate_cooperation_records(helper.scheme)

    def test_out_of_range_interval_rejected(self, helper):
        entry = helper.scheme.cooperation[0]
        broken = helper.scheme.replace_entry(
            0, entry.with_interval(200.0, 300.0))
        with pytest.raises(HelperDataRejected):
            validate_cooperation_records(broken)

    def test_intersecting_assistant_rejected(self, helper):
        scheme = helper.scheme
        entry = scheme.cooperation[0]
        # Point the assistant at a pair whose interval overlaps ours by
        # rewriting our own interval around the assistant's.
        assistant = next(e for e in scheme.cooperation
                         if e.pair_index == entry.assist_index)
        overlapping = scheme.replace_entry(0, entry.with_interval(
            assistant.t_low - 1.0, assistant.t_high + 1.0))
        with pytest.raises(HelperDataRejected):
            validate_cooperation_records(overlapping)

    def test_dangling_assistant_rejected(self, helper):
        entry = helper.scheme.cooperation[0]
        broken = helper.scheme.replace_entry(
            0, entry.with_assist(helper.scheme.good_indices[0]))
        with pytest.raises(HelperDataRejected):
            validate_cooperation_records(broken)


class TestHardenedDevices:
    def test_hardened_group_device_still_works(self, small_array):
        keygen = HardenedGroupBasedKeyGen(
            rows=4, cols=10, max_polynomial_span=20e6,
            group_threshold=120e3)
        helper, key = keygen.enroll(small_array, rng=2)
        successes = 0
        for _ in range(10):
            try:
                successes += int(np.array_equal(
                    keygen.reconstruct(small_array, helper), key))
            except ReconstructionFailure:
                pass
        assert successes >= 9

    def test_hardened_group_device_defeats_injection(self, small_array):
        keygen = HardenedGroupBasedKeyGen(
            rows=4, cols=10, max_polynomial_span=20e6,
            group_threshold=120e3)
        helper, key = keygen.enroll(small_array, rng=2)
        oracle = HelperDataOracle(small_array, keygen)
        attack = GroupBasedAttack(oracle, keygen, helper, 4, 10)
        # Every attack helper is rejected, so both hypotheses fail
        # identically: the comparison carries no information.
        helper0, helper1 = attack._attack_helpers(0, 1)
        assert oracle.failure_rate(helper0, 5) == 1.0
        assert oracle.failure_rate(helper1, 5) == 1.0

    def test_hardened_sequential_refuses_out_of_range_pairs(
            self, medium_array):
        # The structural pair check runs before the measured-threshold
        # check, so an out-of-range index is an observable refusal on
        # both oracles, as on the unhardened scheme, not an IndexError.
        keygen = HardenedSequentialKeyGen(threshold=300e3)
        helper, _ = keygen.enroll(medium_array, rng=2)
        pairs = helper.pairing.pairs
        broken = helper.with_pairing(SequentialPairingHelper(
            ((pairs[0][0], 500),) + pairs[1:]))
        assert HelperDataOracle(medium_array, keygen).query(broken) \
            is False
        assert BatchOracle(medium_array, keygen).query(broken) is False

    def test_hardened_temp_aware_blocks_interval_injection(
            self, thermal_array):
        from repro.core.injection import break_inversions

        keygen = HardenedTempAwareKeyGen(t_min=-10, t_max=80,
                                         threshold=150e3)
        helper, key = keygen.enroll(thermal_array, rng=6)
        # Honest helper still reconstructs.
        recovered = keygen.reconstruct(thermal_array, helper)
        np.testing.assert_array_equal(recovered, key)
        # The §VI-B error injection rewrites intervals out of range and
        # is rejected wholesale.
        injected = break_inversions(helper.scheme, 45.0, 2)
        with pytest.raises(HelperDataRejected):
            keygen.reconstruct(thermal_array,
                               helper.with_scheme(injected))
