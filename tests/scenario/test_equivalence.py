"""Constant trajectories are bitwise-identical to the scalar path.

Satellite of the scenario-engine PR: for all five keygen
constructions, a ``BatchOracle`` driven by a constant
:class:`TrajectorySpec` pinned at ``(T, V)`` must produce outcomes
byte-for-byte equal to a twin device queried the historical way at
``OperatingPoint(T, V)`` — through the two-phase plan/finalize
driver — and the fleet sweeps must preserve the same identity.
"""

import numpy as np
import pytest

from repro.core import BatchOracle
from repro.fleet import Fleet
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    OperatingPoint,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import ROArray, ROArrayParams
from repro.scenario import AgingDrift, TrajectorySpec

NOISY = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
SMALL = ROArrayParams(rows=4, cols=10, sigma_noise=120e3)

TEMP, VOLT = 45.0, 1.26

SCHEMES = {
    "sequential": (NOISY,
                   lambda: SequentialPairingKeyGen(threshold=250e3)),
    "temp-aware": (NOISY,
                   lambda: TempAwareKeyGen(t_min=-10, t_max=80,
                                           threshold=150e3,
                                           sensor_seed=71)),
    "group-based": (SMALL,
                    lambda: GroupBasedKeyGen(group_threshold=120e3)),
    "distiller": (SMALL,
                  lambda: DistillerPairingKeyGen(
                      4, 10, pairing_mode="neighbor-disjoint", k=5)),
    "fuzzy": (SMALL, lambda: FuzzyExtractorKeyGen(4, 10,
                                                  out_bits=16)),
}


def oracle_pair(params, make_keygen, trajectory_spec,
                device_seed=77, enroll_seed=5,
                op=OperatingPoint()):
    """Twin devices: a trajectory-driven oracle and a scalar one.

    Separate keygen instances (from the same factory and seeds) keep
    per-instance transient streams — the temp-aware sensor — from
    interleaving between the two oracles.
    """
    scalar_array = ROArray(params, rng=device_seed)
    traj_array = ROArray(params, rng=device_seed)
    scalar_keygen, traj_keygen = make_keygen(), make_keygen()
    helper_s, key_s = scalar_keygen.enroll(scalar_array,
                                           rng=enroll_seed)
    helper_t, key_t = traj_keygen.enroll(traj_array, rng=enroll_seed)
    np.testing.assert_array_equal(key_s, key_t)
    trajectory = trajectory_spec.build(params, 0)
    return (BatchOracle(scalar_array, scalar_keygen, op=op),
            helper_s,
            BatchOracle(traj_array, traj_keygen, op=op,
                        trajectory=trajectory),
            helper_t)


class TestConstantTrajectoryEquivalence:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_two_phase_driver_bitwise_equal(self, scheme):
        params, make_keygen = SCHEMES[scheme]
        spec = TrajectorySpec.constant(temperature=TEMP, voltage=VOLT)
        scalar, h_s, trajectory, h_t = oracle_pair(
            params, make_keygen, spec,
            op=OperatingPoint(TEMP, VOLT))
        expected = scalar.evaluate_rows(h_s, scalar.take_rows(96))
        observed = trajectory.evaluate_rows(
            h_t, trajectory.take_rows(96))
        np.testing.assert_array_equal(expected, observed)

    def test_nominal_constant_equals_default_op(self):
        params, make_keygen = SCHEMES["sequential"]
        scalar, h_s, trajectory, h_t = oracle_pair(
            params, make_keygen, TrajectorySpec())
        np.testing.assert_array_equal(
            scalar.evaluate_rows(h_s, scalar.take_rows(64)),
            trajectory.evaluate_rows(h_t, trajectory.take_rows(64)))

    def test_blocking_invariance_under_trajectory(self):
        params, make_keygen = SCHEMES["sequential"]
        spec = TrajectorySpec.constant(temperature=TEMP)
        outcomes = []
        for blocks in ([90], [13, 51, 26], [1] * 90):
            _, _, oracle, helper = oracle_pair(params, make_keygen,
                                               spec)
            outcomes.append(np.concatenate(
                [oracle.evaluate_rows(helper, oracle.take_rows(block))
                 for block in blocks]))
        for observed in outcomes[1:]:
            np.testing.assert_array_equal(outcomes[0], observed)


class TestExplicitOpOverride:
    def test_explicit_op_bypasses_ambient_trajectory(self):
        """Attacker-chamber queries ignore the device's ambient."""
        params, make_keygen = SCHEMES["sequential"]
        hot = TrajectorySpec.constant(temperature=80.0)
        scalar, h_s, trajectory, h_t = oracle_pair(
            params, make_keygen, hot)
        chamber = OperatingPoint(temperature=25.0)
        expected = scalar.evaluate_rows(h_s, scalar.take_rows(64),
                                        op=chamber)
        observed = trajectory.evaluate_rows(
            h_t, trajectory.take_rows(64), op=chamber)
        np.testing.assert_array_equal(expected, observed)

    def test_aging_applies_even_under_explicit_op(self):
        """Aging is device state: no chamber can undo it."""
        params, make_keygen = SCHEMES["sequential"]
        aged_spec = TrajectorySpec(
            terms=(AgingDrift(years=25.0, drift_sigma=400e3),),
            seed=11)
        scalar, h_s, aged, h_t = oracle_pair(params, make_keygen,
                                             aged_spec)
        chamber = OperatingPoint(temperature=25.0)
        fresh = scalar.evaluate_rows(h_s, scalar.take_rows(64),
                                     op=chamber)
        drifted = aged.evaluate_rows(h_t, aged.take_rows(64),
                                     op=chamber)
        assert fresh.mean() > drifted.mean()


class TestFleetSweepEquivalence:
    def test_failure_rates_constant_trajectory_bitwise(self):
        spec = TrajectorySpec.constant(temperature=TEMP, voltage=VOLT)
        op = OperatingPoint(TEMP, VOLT)
        rates = []
        for trajectory, point in ((None, op), (spec, None)):
            fleet = Fleet(NOISY, size=3,
                          seed=np.random.default_rng(31))
            enrollment = fleet.enroll(
                SCHEMES["sequential"][1],
                seed=np.random.default_rng(7))
            rates.append(fleet.failure_rates(
                enrollment, trials=50, op=point,
                trajectory=trajectory))
        np.testing.assert_array_equal(rates[0], rates[1])

    def test_failure_rates_worker_invariant_under_trajectory(self):
        from repro.scenario import TemperatureRamp, VoltageNoise
        spec = TrajectorySpec(terms=(TemperatureRamp(0, 30, 40),
                                     VoltageNoise(0.03),
                                     AgingDrift(years=2.0)), seed=5)
        rates = []
        for workers, chunk in ((1, 1024), (2, 16)):
            fleet = Fleet(NOISY, size=4,
                          seed=np.random.default_rng(13))
            enrollment = fleet.enroll(
                SCHEMES["sequential"][1],
                seed=np.random.default_rng(3))
            rates.append(fleet.failure_rates(
                enrollment, trials=60, chunk=chunk, workers=workers,
                trajectory=spec))
        np.testing.assert_array_equal(rates[0], rates[1])
