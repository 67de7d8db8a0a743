"""Equivalence tests: the batched oracle against sequential simulation.

Every test manufactures *twin devices* — two ``ROArray`` instances from
the same seed, hence identical static randomness and identical noise
streams — drives one through the scalar ``HelperDataOracle`` and the
other through ``BatchOracle``, and asserts the outcomes match
query-for-query, not merely in distribution.
"""

import numpy as np
import pytest

from repro.core import BatchOracle, GroupBasedAttack, HelperDataOracle
from repro.core.injection import flip_orientations
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    HelperDataRejected,
    OperatingPoint,
    ReconstructionFailure,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.keygen.sequential import SequentialKeyHelper
from repro.pairing import SequentialPairingHelper
from repro.puf import ROArray, ROArrayParams

NOISY = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
SMALL = ROArrayParams(rows=4, cols=10)


def twins(params, seed):
    return ROArray(params, rng=seed), ROArray(params, rng=seed)


def enroll_twins(make_keygen, params, device_seed, enroll_seed):
    seq_array, batch_array = twins(params, device_seed)
    keygen = make_keygen()
    helper_seq, key = keygen.enroll(seq_array, rng=enroll_seed)
    helper_batch, key_batch = keygen.enroll(batch_array, rng=enroll_seed)
    np.testing.assert_array_equal(key, key_batch)
    return seq_array, batch_array, keygen, helper_seq, helper_batch, key


class TestQueryForQueryEquivalence:
    def check(self, make_keygen, params=NOISY, manipulate=None,
              queries=200):
        seq_array, batch_array, keygen, h_seq, h_batch, _ = \
            enroll_twins(make_keygen, params, device_seed=77,
                         enroll_seed=5)
        if manipulate is not None:
            h_seq, h_batch = manipulate(h_seq), manipulate(h_batch)
        sequential = HelperDataOracle(seq_array, keygen)
        batched = BatchOracle(batch_array, keygen)
        expected = np.array([sequential.query(h_seq)
                             for _ in range(queries)])
        observed = np.concatenate([batched.query_block(h_batch, 7),
                                   batched.query_block(h_batch,
                                                       queries - 7)])
        np.testing.assert_array_equal(expected, observed)
        assert sequential.queries == batched.queries == queries
        # Both devices end at the same noise-stream position.
        np.testing.assert_array_equal(seq_array.measurement_noise(),
                                      batch_array.measurement_noise())

    def test_sequential_scheme_nominal(self):
        self.check(lambda: SequentialPairingKeyGen(threshold=250e3))

    def test_sequential_scheme_boundary_regimes(self):
        # At, below and above the correction radius the failure rate
        # moves from ~0 to ~1; equivalence must hold in every regime.
        for flips in (2, 3, 4):
            self.check(
                lambda: SequentialPairingKeyGen(threshold=250e3),
                manipulate=lambda h, flips=flips: h.with_pairing(
                    flip_orientations(h.pairing,
                                      list(range(1, 1 + flips)))))

    def test_group_based_scheme(self):
        self.check(lambda: GroupBasedKeyGen(distiller_degree=2,
                                            group_threshold=120e3),
                   params=SMALL)

    def test_distiller_masking_scheme(self):
        self.check(lambda: DistillerPairingKeyGen(
            4, 10, pairing_mode="masking", k=5), params=SMALL)

    def test_distiller_neighbor_scheme(self):
        self.check(lambda: DistillerPairingKeyGen(
            4, 10, pairing_mode="neighbor-overlap"), params=SMALL)

    def test_fuzzy_extractor_scheme(self):
        self.check(lambda: FuzzyExtractorKeyGen(8, 16, out_bits=48))

    def test_hardened_scheme_falls_back_row_wise(self):
        # The hardened schemes evaluate through masked batch
        # evaluators, with no row-wise fallback left: query for query
        # equal to the scalar device (the group variant takes two
        # readouts per query), for nominal and manipulated helpers,
        # in regimes where the device-side check both accepts and
        # rejects rows.
        def group():
            return HardenedGroupBasedKeyGen(
                rows=4, cols=10, max_polynomial_span=20e6,
                group_threshold=120e3)

        def sequential():
            return HardenedSequentialKeyGen(threshold=250e3)

        def attack_helper(helper):
            attack = GroupBasedAttack(None, group(), helper, 4, 10)
            return attack._attack_helpers(0, 1)[0]

        def flipped(helper):
            return helper.with_pairing(
                flip_orientations(helper.pairing, [1, 2, 3]))

        for make, params in ((group, SMALL), (sequential, NOISY)):
            self.check(make, params=params)
            assert 0 < self.rejections(make, params, None) < 200
        self.check(group, params=SMALL, manipulate=attack_helper)
        assert self.rejections(group, SMALL, attack_helper) == 200
        self.check(sequential, params=NOISY, manipulate=flipped,
                   queries=100)

    @staticmethod
    def rejections(make_keygen, params, manipulate, queries=200):
        """Device-side rejections over *queries* on a third twin."""
        array = ROArray(params, rng=77)
        keygen = make_keygen()
        helper, _ = keygen.enroll(array, rng=5)
        if manipulate is not None:
            helper = manipulate(helper)
        rejected = 0
        for _ in range(queries):
            try:
                keygen.reconstruct(array, helper)
            except HelperDataRejected:
                rejected += 1
            except ReconstructionFailure:
                pass
        return rejected

    def test_scalar_and_block_queries_interleave(self):
        seq_array, batch_array, keygen, h_seq, h_batch, _ = \
            enroll_twins(lambda: SequentialPairingKeyGen(
                threshold=250e3), NOISY, device_seed=3, enroll_seed=9)
        corrupted_seq = h_seq.with_pairing(
            flip_orientations(h_seq.pairing, [1, 2, 3, 4]))
        corrupted_batch = h_batch.with_pairing(
            flip_orientations(h_batch.pairing, [1, 2, 3, 4]))
        sequential = HelperDataOracle(seq_array, keygen)
        batched = BatchOracle(batch_array, keygen)
        expected = [sequential.query(h_seq) for _ in range(5)]
        expected += [sequential.query(corrupted_seq)
                     for _ in range(40)]
        expected += [sequential.query(h_seq) for _ in range(5)]
        observed = [batched.query(h_batch) for _ in range(5)]
        observed += list(batched.query_block(corrupted_batch, 40))
        observed += [batched.query(h_batch) for _ in range(5)]
        assert expected == [bool(o) for o in observed]

    def test_operating_point_batches(self):
        seq_array, batch_array, keygen, h_seq, h_batch, _ = \
            enroll_twins(lambda: SequentialPairingKeyGen(
                threshold=250e3), NOISY, device_seed=13,
                enroll_seed=2)
        op = OperatingPoint(temperature=60.0)
        sequential = HelperDataOracle(seq_array, keygen)
        batched = BatchOracle(batch_array, keygen)
        expected = np.array([sequential.query(h_seq, op)
                             for _ in range(60)])
        observed = batched.query_block(h_batch, 60, op)
        np.testing.assert_array_equal(expected, observed)


class TestBatchOracleBehaviour:
    @pytest.fixture
    def device(self):
        array = ROArray(NOISY, rng=21)
        keygen = SequentialPairingKeyGen(threshold=250e3)
        helper, key = keygen.enroll(array, rng=1)
        return array, keygen, helper

    def test_failure_rate_counts_queries(self, device):
        array, keygen, helper = device
        oracle = BatchOracle(array, keygen)
        rate = oracle.failure_rate(helper, 50)
        assert 0.0 <= rate <= 1.0
        assert oracle.queries == 50
        oracle.reset_query_count()
        assert oracle.queries == 0

    def test_invalid_counts_rejected(self, device):
        array, keygen, helper = device
        oracle = BatchOracle(array, keygen)
        with pytest.raises(ValueError):
            oracle.query_block(helper, 0)
        with pytest.raises(ValueError):
            oracle.failure_rate(helper, 0)

    def test_unwind_restores_stream_and_counter(self, device):
        array, keygen, helper = device
        oracle = BatchOracle(array, keygen)
        rows = oracle.take_rows(6)
        oracle.untake_rows(rows[2:])
        assert oracle.queries == 2
        # The returned rows must be consumed again, in order.
        again = oracle.take_rows(4)
        np.testing.assert_array_equal(rows[2:], again)

    def test_invalid_pair_list_fails_every_query(self, device):
        array, keygen, helper = device
        reused = helper.pairing.pairs[0]
        corrupt = SequentialKeyHelper(
            SequentialPairingHelper((reused, reused)),
            helper.sketch, helper.key_check)
        oracle = BatchOracle(array, keygen)
        assert not oracle.query_block(corrupt, 10).any()

    def test_stream_position_independent_of_blocking(self, device):
        # Fully-consumed oracles must leave the device stream exactly
        # where sequential queries would, so a *second* oracle (or any
        # later consumer of the device) sees identical noise whatever
        # the earlier blocking pattern was.
        results = []
        for first_blocks in ([40], [7, 13, 20], [1] * 40):
            array = ROArray(NOISY, rng=77)
            keygen = SequentialPairingKeyGen(threshold=250e3)
            helper, _ = keygen.enroll(array, rng=1)
            first = BatchOracle(array, keygen)
            for block in first_blocks:
                first.query_block(helper, block)
            follow_up = BatchOracle(array, keygen)
            results.append(follow_up.query_block(helper, 25))
        for observed in results[1:]:
            np.testing.assert_array_equal(results[0], observed)

    def test_query_blocking_does_not_change_outcomes(self):
        outcomes = []
        for blocks in ([120], [1] * 120, [7, 13, 100], [64, 56]):
            array = ROArray(NOISY, rng=55)
            keygen = SequentialPairingKeyGen(threshold=250e3)
            helper, _ = keygen.enroll(array, rng=4)
            corrupted = helper.with_pairing(
                flip_orientations(helper.pairing, [1, 2, 3]))
            oracle = BatchOracle(array, keygen)
            outcomes.append(np.concatenate(
                [oracle.query_block(corrupted, block)
                 for block in blocks]))
        for observed in outcomes[1:]:
            np.testing.assert_array_equal(outcomes[0], observed)


class TestTempAwareBatch:
    def test_statistical_agreement(self):
        # The sensor read is inherently non-reproducible (fresh
        # entropy per query, as on the scalar path), so temp-aware
        # equivalence is statistical rather than bitwise.
        params = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)
        seq_array, batch_array = twins(params, 7)
        keygen = TempAwareKeyGen(t_min=15, t_max=95, threshold=150e3)
        helper, key = keygen.enroll(seq_array, rng=0)
        helper_b, _ = keygen.enroll(batch_array, rng=0)
        sequential = HelperDataOracle(seq_array, keygen)
        batched = BatchOracle(batch_array, keygen)
        rate_seq = sequential.failure_rate(helper, 80)
        rate_batch = batched.failure_rate(helper_b, 80)
        assert abs(rate_seq - rate_batch) < 0.25


class TestTwoPhaseProtocol:
    """plan → kernel → finalize vs the scalar reference oracle."""

    def drive_paths(self, make_keygen, params=NOISY, manipulate=None,
                    queries=120):
        """Twin devices: per-row scalar queries vs the two-phase driver."""
        seq_array, batch_array, keygen, h_seq, h_batch, _ = \
            enroll_twins(make_keygen, params, device_seed=91,
                         enroll_seed=3)
        if manipulate is not None:
            h_seq, h_batch = manipulate(h_seq), manipulate(h_batch)
        reference = HelperDataOracle(seq_array, keygen)
        two_phase = BatchOracle(batch_array, keygen)
        expected = np.array([reference.query(h_seq)
                             for _ in range(queries)])
        observed = two_phase.evaluate_rows(
            h_batch, two_phase.take_rows(queries))
        np.testing.assert_array_equal(expected, observed)
        return expected

    def test_sequential_scheme(self):
        def manipulate(helper):
            return helper.with_pairing(
                flip_orientations(helper.pairing, [1, 2, 3, 4]))

        self.drive_paths(
            lambda: SequentialPairingKeyGen(threshold=250e3),
            manipulate=manipulate)

    def test_group_based_scheme(self):
        self.drive_paths(
            lambda: GroupBasedKeyGen(group_threshold=60e3),
            params=SMALL)

    def test_fuzzy_extractor_scheme(self):
        self.drive_paths(lambda: FuzzyExtractorKeyGen(8, 16, 64))

    def test_plan_declares_kernel_workload(self):
        array = ROArray(NOISY, rng=13)
        keygen = SequentialPairingKeyGen(threshold=250e3)
        helper, _ = keygen.enroll(array, rng=2)
        corrupted = helper.with_pairing(
            flip_orientations(helper.pairing, [1, 2, 3, 4]))
        oracle = BatchOracle(array, keygen)
        plan = oracle.plan_rows(corrupted, oracle.take_rows(60))
        assert plan.pending, "fresh patterns expected on first block"
        assert plan.workload is not None
        assert plan.kernel_key is not None
        outcomes = plan.execute()
        assert outcomes.shape == (60,)
        # Finalize is idempotent and the memo now resolves everything.
        np.testing.assert_array_equal(plan.finalize(None), outcomes)
        follow_up = oracle.plan_rows(corrupted, oracle.take_rows(1))
        assert follow_up.workload is None or not follow_up.pending \
            or follow_up.workload.rows <= 1

    def test_fused_cross_device_matches_per_device(self):
        # Two devices sharing one code geometry: fusing both kernel
        # workloads into one call must match each device's own
        # evaluate_rows bitwise.
        from repro.ecc import design_bch, run_kernels
        from repro.keygen import fixed_code

        provider = fixed_code(design_bch(64, 3))

        def build(seed):
            solo_array, fused_array = twins(NOISY, seed)
            keygen = SequentialPairingKeyGen(threshold=250e3,
                                             code_provider=provider)
            helper, _ = keygen.enroll(solo_array, rng=seed)
            corrupted = helper.with_pairing(
                flip_orientations(helper.pairing, [1, 2, 3, 4]))
            return (BatchOracle(solo_array, keygen),
                    BatchOracle(fused_array, keygen), corrupted)

        devices = [build(seed) for seed in (31, 32, 33)]
        expected = [solo.evaluate_rows(helper, solo.take_rows(40))
                    for solo, _, helper in devices]
        plans = [fused.plan_rows(helper, fused.take_rows(40))
                 for _, fused, helper in devices]
        keys = {plan.kernel_key for plan in plans
                if plan.kernel_key is not None}
        assert len(keys) == 1, "shared code must share the kernel key"
        outputs = run_kernels([plan.workload for plan in plans])
        for plan, output, want in zip(plans, outputs, expected):
            np.testing.assert_array_equal(plan.finalize(output), want)
