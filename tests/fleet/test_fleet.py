"""Fleet manufacture, enrollment and Monte-Carlo sweep tests."""

import numpy as np
import pytest

import repro._dedup as dedup
from repro.core import SequentialPairingAttack
from repro.ecc.kernel import kernel_stats
from repro.fleet import Fleet
from repro.keygen import (
    FuzzyExtractorKeyGen,
    SequentialPairingKeyGen,
    bch_provider,
)
from repro.puf import ROArray, ROArrayParams

PARAMS = ROArrayParams(rows=8, cols=16)


def sequential_factory():
    return SequentialPairingKeyGen(threshold=300e3)


class TestManufacture:
    def test_devices_independent_of_fleet_size(self):
        large = Fleet(PARAMS, size=8, seed=42)
        small = Fleet(PARAMS, size=3, seed=42)
        for i in range(3):
            np.testing.assert_array_equal(
                large[i].process_variation,
                small[i].process_variation)

    def test_devices_distinct(self):
        fleet = Fleet(PARAMS, size=4, seed=1)
        assert not np.array_equal(fleet[0].process_variation,
                                  fleet[1].process_variation)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Fleet(PARAMS, size=0, seed=1)
        with pytest.raises(ValueError):
            Fleet.from_arrays([])

    def test_from_arrays(self):
        arrays = [ROArray(PARAMS, rng=i) for i in range(3)]
        fleet = Fleet.from_arrays(arrays)
        assert len(fleet) == 3
        assert list(fleet) == arrays


class TestEnrollment:
    @pytest.fixture
    def fleet(self):
        return Fleet(PARAMS, size=6, seed=42)

    def test_enrollment_reproducible(self, fleet):
        first = fleet.enroll(sequential_factory, seed=7)
        second = Fleet(PARAMS, size=6, seed=42).enroll(
            sequential_factory, seed=7)
        for a, b in zip(first.keys, second.keys):
            np.testing.assert_array_equal(a, b)

    def test_population_statistics(self, fleet):
        enrollment = fleet.enroll(sequential_factory, seed=7)
        assert len(enrollment) == 6
        assert enrollment.key_bits.min() > 0
        # Randomized storage: keys should look uniform across devices.
        assert 0.4 < enrollment.uniqueness() < 0.6
        aliasing = enrollment.bit_aliasing()
        assert aliasing.shape == (enrollment.key_matrix().shape[1],)
        assert 0.2 < aliasing.mean() < 0.8


class TestSweeps:
    @pytest.fixture
    def enrolled(self):
        fleet = Fleet(PARAMS, size=5, seed=9)
        return fleet, fleet.enroll(sequential_factory, seed=3)

    def test_nominal_failure_rates_low(self, enrolled):
        fleet, enrollment = enrolled
        rates = fleet.failure_rates(enrollment, trials=60)
        assert rates.shape == (5,)
        assert rates.max() <= 0.1

    def test_chunking_does_not_change_results(self):
        results = []
        for chunk in (7, 64, 1000):
            fleet = Fleet(PARAMS, size=3, seed=9)
            enrollment = fleet.enroll(sequential_factory, seed=3)
            results.append(fleet.failure_rates(enrollment, trials=50,
                                               chunk=chunk))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_helper_override(self, enrolled):
        fleet, enrollment = enrolled
        from repro.core.injection import flip_orientations

        corrupted = [h.with_pairing(flip_orientations(
            h.pairing, range(10))) for h in enrollment.helpers]
        rates = fleet.failure_rates(enrollment, trials=30,
                                    helpers=corrupted)
        assert rates.min() >= 0.9

    def test_validation(self, enrolled):
        fleet, enrollment = enrolled
        with pytest.raises(ValueError):
            fleet.failure_rates(enrollment, trials=0)
        with pytest.raises(ValueError):
            fleet.failure_rates(enrollment, trials=5, chunk=0)
        with pytest.raises(ValueError):
            fleet.failure_rates(enrollment, trials=5,
                                helpers=enrollment.helpers[:-1])

    def test_reliability_curve_degrades_with_weak_ecc(self):
        params = ROArrayParams(rows=8, cols=16, temp_slope_sigma=10e3)
        fleet = Fleet(params, size=3, seed=11)
        enrollment = fleet.enroll(
            lambda: SequentialPairingKeyGen(
                threshold=400e3, code_provider=bch_provider(1)),
            seed=0)
        curve = fleet.reliability_curve(enrollment, [25.0, 85.0],
                                        trials=30)
        assert curve.shape == (2, 3)
        assert curve[0].mean() >= curve[1].mean()
        assert curve[0].mean() >= 0.9

    def test_dedup_regimes_give_identical_sweeps(self, monkeypatch):
        # Chunks above SMALL_BLOCK take the keyed grouping; forcing the
        # hashed one instead must change neither the rates nor the
        # kernel work (one row per distinct pattern either way).
        chunk = 300
        observed = []
        for small_block in (0, chunk + 1):
            monkeypatch.setattr(dedup, "SMALL_BLOCK", small_block)
            fleet = Fleet(PARAMS, size=3, seed=5)
            enrollment = fleet.enroll(
                lambda: FuzzyExtractorKeyGen(8, 16, out_bits=48), seed=2)
            calls, rows = kernel_stats.calls, kernel_stats.rows
            rates = fleet.failure_rates(enrollment, trials=600,
                                        chunk=chunk)
            observed.append((rates.tobytes(), kernel_stats.calls - calls,
                             kernel_stats.rows - rows))
        assert observed[0] == observed[1]
        assert observed[0][2] > 0


class TestAttackCampaign:
    def test_fleet_wide_key_recovery(self):
        fleet = Fleet(PARAMS, size=3, seed=21)
        enrollment = fleet.enroll(sequential_factory, seed=5)

        def factory(oracle, keygen, helper):
            return SequentialPairingAttack(oracle, keygen, helper)

        recovered, queries = fleet.attack_success(enrollment, factory)
        assert recovered.all()
        assert (queries > 0).all()
