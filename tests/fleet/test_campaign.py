"""Lock-step campaign engine: bitwise equivalence with the scalar loop.

The contract under test (``docs/attacks.md``): executing one attack
across many devices in lock-step rounds must reproduce, per device, the
exact decisions, query counts, comparer outcomes and recovered keys of
driving that device's attack alone — for every batch composition and
worker count.
"""

import functools

import numpy as np
import pytest

from repro.core import (
    BatchOracle,
    DistillerPairingAttack,
    GroupBasedAttack,
    HelperDataOracle,
    SequentialPairingAttack,
    TempAwareAttack,
)
from repro.fleet import (
    Fleet,
    GroupAttackFactory,
    LockstepCampaign,
    SequentialAttackFactory,
    Supervisor,
    recovery_summary,
    run_campaign,
    run_collected,
)
from repro.fleet.fleet import _attack_chunk_job
from repro.keygen import (
    DistillerPairingKeyGen,
    GroupBasedKeyGen,
    HardenedSequentialKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import FIG6_PARAMS, ROArray, ROArrayParams
from repro.service.cli import _identical

# Small geometries keep the scalar reference loops cheap; the engine
# paths exercised are identical to the full-size arrays'.
PARAMS = ROArrayParams(rows=4, cols=12)
THERMAL_PARAMS = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)


def sequential_factory():
    return SequentialPairingKeyGen(threshold=300e3)


def build_sequential(seed):
    """One enrolled sequential-pairing device (fresh twin per call)."""
    array = ROArray(PARAMS, rng=700 + seed)
    keygen = SequentialPairingKeyGen(threshold=300e3)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def build_group(seed):
    """One enrolled group-based device (fresh twin per call)."""
    array = ROArray(FIG6_PARAMS, rng=800 + seed)
    keygen = GroupBasedKeyGen(distiller_degree=2,
                              group_threshold=120e3)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def build_sequential_hardened(seed):
    """One enrolled hardened sequential-pairing device."""
    array = ROArray(PARAMS, rng=700 + seed)
    keygen = HardenedSequentialKeyGen(threshold=300e3,
                                      threshold_tolerance=0.25)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def build_temp_aware(seed):
    """One enrolled temperature-aware device with a seeded sensor."""
    array = ROArray(THERMAL_PARAMS, rng=7 + seed)
    keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3,
                             sensor_seed=seed)
    helper, key = keygen.enroll(array, rng=6)
    return array, keygen, helper, key


def build_distiller(seed, mode):
    """One enrolled distiller + pairing device (fresh twin per call)."""
    array = ROArray(FIG6_PARAMS, rng=900 + seed)
    kwargs = dict(k=5) if mode == "masking" else {}
    keygen = DistillerPairingKeyGen(4, 10, pairing_mode=mode, **kwargs)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


class TestCampaignEquivalence:
    """run_campaign vs the per-device scalar loop, per attack family."""

    def test_sequential_paired_matches_scalar_loop(self):
        devices = 5
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_sequential(seed)
            scalar.append(SequentialPairingAttack(
                HelperDataOracle(array, keygen), keygen, helper).run())
        oracles, attacks, keys = [], [], []
        for seed in range(devices):
            array, keygen, helper, key = build_sequential(seed)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(SequentialPairingAttack(oracle, keygen,
                                                   helper))
            keys.append(key)
        lock = run_campaign(oracles, attacks)
        for reference, observed, key in zip(scalar, lock, keys):
            np.testing.assert_array_equal(reference.relations,
                                          observed.relations)
            np.testing.assert_array_equal(reference.key, observed.key)
            np.testing.assert_array_equal(observed.key, key)
            assert reference.queries == observed.queries
            # Comparer decisions, failure counts and per-comparison
            # budgets must match one for one.
            assert reference.comparisons == observed.comparisons

    def test_sequential_sprt_matches_scalar_loop(self):
        devices = 4
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_sequential(seed)
            scalar.append(SequentialPairingAttack(
                HelperDataOracle(array, keygen), keygen,
                helper).run(method="sprt"))
        lanes = []
        for seed in range(devices):
            array, keygen, helper, _ = build_sequential(seed)
            oracle = BatchOracle(array, keygen)
            attack = SequentialPairingAttack(oracle, keygen, helper)
            lanes.append((oracle, attack.steps(method="sprt")))
        lock = LockstepCampaign(lanes).run()
        for reference, observed in zip(scalar, lock):
            np.testing.assert_array_equal(reference.relations,
                                          observed.relations)
            np.testing.assert_array_equal(reference.key, observed.key)
            assert reference.queries == observed.queries

    def test_group_based_matches_scalar_loop(self):
        devices = 3
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_group(seed)
            scalar.append(GroupBasedAttack(
                HelperDataOracle(array, keygen), keygen, helper, 4,
                10).run())
        oracles, attacks = [], []
        for seed in range(devices):
            array, keygen, helper, _ = build_group(seed)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(GroupBasedAttack(oracle, keygen, helper, 4,
                                            10))
        lock = run_campaign(oracles, attacks)
        for reference, observed in zip(scalar, lock):
            assert reference.orders == observed.orders
            assert reference.comparisons == observed.comparisons
            assert reference.queries == observed.queries
            np.testing.assert_array_equal(reference.key, observed.key)
            assert reference.confirmed and observed.confirmed

    @pytest.mark.parametrize("mode", ["masking", "neighbor-overlap"])
    def test_distiller_matches_scalar_loop(self, mode):
        devices = 2
        scalar = []
        for seed in range(devices):
            array, keygen, helper, _ = build_distiller(seed, mode)
            scalar.append(DistillerPairingAttack(
                HelperDataOracle(array, keygen), keygen, helper, 4, 10,
                max_joint_bits=8).run())
        oracles, attacks = [], []
        for seed in range(devices):
            array, keygen, helper, _ = build_distiller(seed, mode)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(DistillerPairingAttack(
                oracle, keygen, helper, 4, 10, max_joint_bits=8))
        lock = run_campaign(oracles, attacks)
        for reference, observed in zip(scalar, lock):
            np.testing.assert_array_equal(reference.key, observed.key)
            assert reference.queries == observed.queries
            assert (reference.hypothesis_rounds
                    == observed.hypothesis_rounds)

    def test_single_device_campaign(self):
        # batch size 1: the lock-step scheduler degenerates to the
        # blocked scalar walk and must still match it bitwise.
        array, keygen, helper, key = build_sequential(11)
        reference = SequentialPairingAttack(
            HelperDataOracle(array, keygen), keygen, helper).run()
        array, keygen, helper, _ = build_sequential(11)
        oracle = BatchOracle(array, keygen)
        (observed,) = run_campaign(
            [oracle],
            [SequentialPairingAttack(oracle, keygen, helper)])
        np.testing.assert_array_equal(reference.key, observed.key)
        np.testing.assert_array_equal(observed.key, key)
        assert reference.queries == observed.queries
        assert reference.comparisons == observed.comparisons

    @pytest.mark.parametrize("family,build,attack", [
        ("sequential", build_sequential,
         lambda oracle, keygen, helper: SequentialPairingAttack(
             oracle, keygen, helper)),
        ("group", build_group,
         lambda oracle, keygen, helper: GroupBasedAttack(
             oracle, keygen, helper, 4, 10)),
        ("temp-aware", build_temp_aware, TempAwareAttack),
        ("sequential-hardened", build_sequential_hardened,
         SequentialPairingAttack),
    ])
    def test_fused_rounds_match_per_device_rounds(self, family, build,
                                                  attack):
        # Cross-device completion fusion is an execution regrouping
        # only: keys, query bills and comparer outcomes of fused
        # lock-step rounds must be bitwise-identical to the per-device
        # run() loop on twin devices.  The temp-aware reference is the
        # scalar HelperDataOracle drive: its sensor reads are drawn
        # one per query, in query order, which the batched rows must
        # reproduce through the a/b interleave and every unwind.
        scalar = family == "temp-aware"
        seeds = ((4, 5) if scalar
                 else range(3 if family == "sequential" else 2))
        outcomes, devices, oracles = {}, {}, {}
        for lockstep in (False, True):
            devices[lockstep] = [build(seed) for seed in seeds]
            oracles[lockstep] = [
                (HelperDataOracle if scalar and not lockstep
                 else BatchOracle)(array, keygen)
                for array, keygen, _, _ in devices[lockstep]]
            attacks = [attack(oracle, keygen, helper)
                       for oracle, (_, keygen, helper, _)
                       in zip(oracles[lockstep], devices[lockstep])]
            outcomes[lockstep] = (run_campaign(oracles[lockstep], attacks)
                                  if lockstep else
                                  [a.run() for a in attacks])
        for reference, observed in zip(outcomes[False],
                                       outcomes[True]):
            for name in ("key", "coop_relations", "good_bits"):
                np.testing.assert_equal(getattr(reference, name, None),
                                        getattr(observed, name, None))
            assert reference.queries == observed.queries
            assert (getattr(reference, "comparisons", None)
                    == getattr(observed, "comparisons", None))
        if not scalar:
            return
        for (array, keygen, _, _), (twin_array, twin_keygen, _, _), \
                oracle in zip(devices[False], devices[True],
                              oracles[True]):
            # Each batched stream is the scalar twin's, advanced by the
            # rows left unwound in the oracle buffer.
            unwound = oracle._buffer.shape[0]
            if unwound:
                array.measurement_noise(unwound)
                keygen.sensor_draws(unwound)
            np.testing.assert_array_equal(array.measurement_noise(),
                                          twin_array.measurement_noise())
            np.testing.assert_array_equal(keygen.sensor_draws(3),
                                          twin_keygen.sensor_draws(3))

    def test_non_stepwise_driver_rejected(self):
        array, keygen, helper, _ = build_sequential(0)
        oracle = BatchOracle(array, keygen)
        with pytest.raises(TypeError):
            run_campaign([oracle], [object()])

    def test_repeated_oracle_rejected(self):
        array, keygen, helper, _ = build_sequential(0)
        oracle = BatchOracle(array, keygen)
        attacks = [SequentialPairingAttack(oracle, keygen, helper)
                   for _ in range(2)]
        with pytest.raises(ValueError, match="share an oracle"):
            run_campaign([oracle, oracle], attacks)
        with pytest.raises(ValueError, match="share an oracle"):
            LockstepCampaign([(oracle, attack.steps())
                              for attack in attacks])

    def test_shared_sensor_keygen_rejected(self):
        # Two oracles over one temp-aware keygen draw from one sensor
        # stream, in round order rather than per-device request order.
        array, keygen, helper, _ = build_temp_aware(0)
        twin_array, _, _, _ = build_temp_aware(0)
        oracles = [BatchOracle(array, keygen),
                   BatchOracle(twin_array, keygen)]
        attacks = [TempAwareAttack(oracle, keygen, helper)
                   for oracle in oracles]
        with pytest.raises(ValueError, match="sensor stream"):
            run_campaign(oracles, attacks)
        with pytest.raises(ValueError, match="sensor stream"):
            LockstepCampaign([(oracle, attack.steps())
                              for oracle, attack in zip(oracles, attacks)])

    def test_shared_sensorless_keygen_runs(self):
        # Without a sensor a keygen holds no per-query stream, so two
        # devices may share it: the campaign runs and matches one
        # keygen per device.
        observed = {}
        for shared in (False, True):
            keygen = SequentialPairingKeyGen(threshold=300e3)
            oracles, attacks = [], []
            for seed in range(2):
                array, own, helper, _ = build_sequential(seed)
                if shared:
                    own = keygen
                    helper, _ = keygen.enroll(array, rng=seed)
                oracles.append(BatchOracle(array, own))
                attacks.append(SequentialPairingAttack(oracles[-1], own,
                                                       helper))
            observed[shared] = run_campaign(oracles, attacks)
        for expected, got in zip(observed[False], observed[True]):
            np.testing.assert_array_equal(expected.key, got.key)
            assert expected.queries == got.queries
            assert expected.comparisons == got.comparisons

    def test_lane_count_mismatch_rejected(self):
        array, keygen, helper, _ = build_sequential(0)
        oracle = BatchOracle(array, keygen)
        with pytest.raises(ValueError):
            run_campaign([oracle], [])


class TestFleetLockstep:
    """attack_success: lock-step x chunk composition x workers x
    supervision invariance."""

    @pytest.fixture(scope="class")
    def reference(self):
        fleet = Fleet(PARAMS, size=8, seed=31)
        enrollment = fleet.enroll(sequential_factory, seed=6)
        return fleet.attack_success(enrollment,
                                    SequentialAttackFactory(),
                                    workers=1, lockstep=False)

    @pytest.mark.parametrize("supervised", [True, False])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_lockstep_invariance(self, reference, batch, workers,
                                 supervised):
        # Fused lock-step rounds over chunks of *batch* devices must
        # reproduce the scalar-loop reference for every chunk
        # composition and worker count, supervised pool or not.
        fleet = Fleet(PARAMS, size=8, seed=31)
        enrollment = fleet.enroll(sequential_factory, seed=6)
        spans = [(start, min(start + batch, 8))
                 for start in range(0, 8, batch)]
        jobs = fleet.attack_chunk_jobs(enrollment,
                                       SequentialAttackFactory(),
                                       spans=spans, lockstep=True)
        assert all(job.lockstep for job in jobs)
        reports = run_collected(
            _attack_chunk_job, jobs, workers=workers,
            supervision=Supervisor() if supervised else None)
        recovered, queries = recovery_summary(
            [result for report in reports for result in report],
            enrollment.keys, enrollment.helpers)
        np.testing.assert_array_equal(recovered, reference[0])
        np.testing.assert_array_equal(queries, reference[1])
        assert recovered.all()

    def test_attack_success_matches_reference(self, reference):
        # The default chunking of attack_success at two workers.
        fleet = Fleet(PARAMS, size=8, seed=31)
        enrollment = fleet.enroll(sequential_factory, seed=6)
        recovered, queries = fleet.attack_success(
            enrollment, SequentialAttackFactory(), workers=2,
            lockstep=True)
        np.testing.assert_array_equal(recovered, reference[0])
        np.testing.assert_array_equal(queries, reference[1])

    def test_auto_detection_uses_lockstep(self):
        # The default is the lock-step campaign, bitwise equal to the
        # per-device run() reference; only booleans select the engine.
        fleet = Fleet(PARAMS, size=3, seed=32)
        enrollment = fleet.enroll(sequential_factory, seed=7)
        default = fleet.attack_success(enrollment,
                                       SequentialAttackFactory())
        fleet = Fleet(PARAMS, size=3, seed=32)
        enrollment = fleet.enroll(sequential_factory, seed=7)
        reference = fleet.attack_success(enrollment,
                                         SequentialAttackFactory(),
                                         lockstep=False)
        np.testing.assert_array_equal(default[0], reference[0])
        np.testing.assert_array_equal(default[1], reference[1])
        with pytest.raises(TypeError):
            fleet.attack_success(enrollment, SequentialAttackFactory(),
                                 lockstep=None)

    def test_legacy_run_only_driver_falls_back(self):
        # A driver without steps() runs only on the per-device run()
        # loop; the lock-step default refuses it.
        class RunOnly:
            def __init__(self, attack):
                self._attack = attack

            def run(self):
                return self._attack.run()

        def factory(oracle, keygen, helper):
            return RunOnly(SequentialPairingAttack(oracle, keygen,
                                                   helper))

        fleet = Fleet(PARAMS, size=2, seed=33)
        enrollment = fleet.enroll(sequential_factory, seed=8)
        recovered, queries = fleet.attack_success(enrollment, factory,
                                                  lockstep=False)
        assert recovered.all()
        assert (queries > 0).all()
        with pytest.raises(TypeError):
            fleet.attack_success(enrollment, factory)

    def test_group_campaign_on_warm_memo(self):
        # A second lock-step run on the same enrollment meets its own
        # solved syndromes in each code's memo; every result field must
        # still equal the cold run and the per-device run() reference.
        keygen = functools.partial(GroupBasedKeyGen, distiller_degree=2,
                                   group_threshold=120e3)

        def enroll():
            return Fleet(FIG6_PARAMS, size=3, seed=35).enroll(keygen,
                                                              seed=10)

        def attack(enrollment, lockstep):
            return Fleet(FIG6_PARAMS, size=3, seed=35).attack_results(
                enrollment, GroupAttackFactory(4, 10), lockstep=lockstep)

        enrollment = enroll()
        cold = attack(enrollment, True)
        # Fused kernels run on one member's code, so at least one memo
        # is warm.
        codes = [sketch.code for keygen in enrollment.keygens
                 for sketch in keygen._sketch_cache.values()]
        assert any(code._solved for code in codes)
        warm = attack(enrollment, True)
        scalar = attack(enroll(), False)
        assert _identical(warm, cold)
        assert _identical(warm, scalar)
        assert all(result.recovered(key, helper) for result, key, helper
                   in zip(warm, enrollment.keys, enrollment.helpers))

    def test_group_attack_factory_through_fleet(self):
        fleet = Fleet(FIG6_PARAMS, size=2, seed=34)
        enrollment = fleet.enroll(
            functools.partial(GroupBasedKeyGen, distiller_degree=2,
                              group_threshold=120e3), seed=9)
        recovered, queries = fleet.attack_success(
            enrollment, GroupAttackFactory(4, 10), workers=2,
            lockstep=True)
        assert recovered.all()
        assert (queries > 0).all()
