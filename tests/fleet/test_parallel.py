"""Parallel fleet execution: worker-count invariance and pool plumbing.

The engine's contract is that ``workers=N`` is purely an execution
knob: every sweep result — failure rates, reliability curves, attack
outcomes, enrollment — must be bitwise-identical for every worker
count and chunking, because all per-device randomness is derived in
the parent before dispatch.  These tests pin that contract (the CI
fleet-parallel smoke job runs this module on its own).
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.core import BatchOracle, SequentialPairingAttack
from repro.core.batch_oracle import plan_frontier
from repro.core.injection import flip_orientations
from repro.ecc import run_kernels
from repro.fleet import Fleet, chunk_indices, resolve_workers
from repro.keygen import SequentialPairingKeyGen, TempAwareKeyGen
from repro.puf import ROArray, ROArrayParams

PARAMS = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
TEMP_PARAMS = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)


def sequential_factory():
    return SequentialPairingKeyGen(threshold=250e3)


def temp_aware_factory():
    return TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3,
                           sensor_seed=17)


def attack_factory(oracle, keygen, helper):
    return SequentialPairingAttack(oracle, keygen, helper)


def boundary_helpers(enrollment):
    helpers = []
    for keygen, helper, key in zip(enrollment.keygens,
                                   enrollment.helpers,
                                   enrollment.keys):
        t = keygen.sketch_for(key.size).code.t
        helpers.append(helper.with_pairing(
            flip_orientations(helper.pairing, range(1, 2 + t))))
    return helpers


def fresh_fleet(size=4, seed=4242):
    fleet = Fleet(PARAMS, size=size, seed=seed)
    enrollment = fleet.enroll(sequential_factory, seed=7)
    return fleet, enrollment


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()
                          ).hexdigest()


class TestWorkerCountInvariance:
    def sweep(self, workers):
        fleet, enrollment = fresh_fleet()
        return fleet.failure_rates(
            enrollment, trials=150, chunk=64,
            helpers=boundary_helpers(enrollment), workers=workers)

    def test_failure_rates_hash_equal_across_workers(self):
        reference = digest(self.sweep(1))
        for workers in (2, 4):
            assert digest(self.sweep(workers)) == reference

    def test_chunking_and_workers_orthogonal(self):
        results = []
        for chunk, workers in ((7, 1), (64, 2), (1000, 4), (33, 3)):
            fleet, enrollment = fresh_fleet()
            results.append(fleet.failure_rates(
                enrollment, trials=60, chunk=chunk,
                helpers=boundary_helpers(enrollment),
                workers=workers))
        for observed in results[1:]:
            np.testing.assert_array_equal(results[0], observed)

    def test_reliability_curve_across_workers(self):
        curves = []
        for workers in (1, 2):
            fleet, enrollment = fresh_fleet(size=3)
            curves.append(fleet.reliability_curve(
                enrollment, [25.0, 70.0], trials=40, workers=workers))
        np.testing.assert_array_equal(curves[0], curves[1])
        assert curves[0].shape == (2, 3)

    def test_attack_campaign_across_workers(self):
        outcomes = []
        for workers in (1, 2):
            fleet, enrollment = fresh_fleet(size=3, seed=21)
            outcomes.append(fleet.attack_success(
                enrollment, attack_factory, workers=workers))
        recovered_seq, queries_seq = outcomes[0]
        recovered_par, queries_par = outcomes[1]
        np.testing.assert_array_equal(recovered_seq, recovered_par)
        np.testing.assert_array_equal(queries_seq, queries_par)
        assert recovered_seq.all()

    def test_enrollment_across_workers(self):
        keys = []
        for workers in (1, 3):
            fleet = Fleet(PARAMS, size=5, seed=11)
            enrollment = fleet.enroll(sequential_factory, seed=2,
                                      workers=workers)
            keys.append(enrollment.key_matrix())
        np.testing.assert_array_equal(keys[0], keys[1])

    def test_temp_aware_sweep_across_workers(self):
        # The temp-aware keygen carries a sensor noise stream; the
        # copy-on-dispatch rule must keep it worker-count invariant
        # too.
        rates = []
        for workers in (1, 2):
            fleet = Fleet(TEMP_PARAMS, size=2, seed=3)
            enrollment = fleet.enroll(temp_aware_factory, seed=1,
                                      workers=workers)
            rates.append(fleet.failure_rates(
                enrollment, trials=40,
                op=None, workers=workers))
        np.testing.assert_array_equal(rates[0], rates[1])


class TestTransientStreams:
    @staticmethod
    def boundary_rewrite(enrollment):
        """Helpers whose outcome hinges on each query's sensor read.

        Rewrites entry 0's assistant to a wrong-bit candidate and
        injects ``t`` errors: at the interval boundary the sensed
        temperature decides whether the (t+1)-th error appears.
        """
        from repro.core.injection import break_inversions

        helpers = []
        for keygen, helper, key in zip(enrollment.keygens,
                                       enrollment.helpers,
                                       enrollment.keys):
            entries = helper.scheme.cooperation
            entry = entries[0]
            t = keygen.sketch_for(key.size).code.t
            n_good = len(helper.scheme.good_indices)
            coop_bits = {e.pair_index: key[n_good + i]
                         for i, e in enumerate(entries)}
            assist_bit = coop_bits[entry.assist_index]
            wrong = next(e.pair_index for e in entries[1:]
                         if coop_bits[e.pair_index] != assist_bit
                         and e.pair_index != entry.assist_index)
            scheme = helper.scheme.replace_entry(
                0, entry.with_assist(wrong))
            scheme = break_inversions(
                scheme, entry.t_low, t,
                exclude=[entry.pair_index, wrong,
                         entry.assist_index])
            helpers.append(helper.with_scheme(scheme))
        return helpers

    def test_successive_sweeps_draw_independent_sensor_noise(self):
        # Each sweep re-seeds the keygens' transient sensor streams
        # from fresh population-root substreams: repeated sweeps must
        # be independent Monte-Carlo replicates, not replays of the
        # enrollment-time sensor stream state.
        from repro.keygen import OperatingPoint

        fleet = Fleet(TEMP_PARAMS, size=2, seed=3)
        enrollment = fleet.enroll(temp_aware_factory, seed=1)
        helpers = self.boundary_rewrite(enrollment)
        op = OperatingPoint(
            temperature=enrollment.helpers[0].scheme.cooperation[0]
            .t_low)
        sweeps = [tuple(fleet.failure_rates(enrollment, trials=150,
                                            op=op, helpers=helpers,
                                            workers=1))
                  for _ in range(4)]
        assert len(set(sweeps)) > 1

    def test_sensor_decisive_sweep_worker_invariant(self):
        from repro.keygen import OperatingPoint

        results = []
        for workers in (1, 2):
            fleet = Fleet(TEMP_PARAMS, size=2, seed=3)
            enrollment = fleet.enroll(temp_aware_factory, seed=1)
            helpers = self.boundary_rewrite(enrollment)
            op = OperatingPoint(
                temperature=enrollment.helpers[0].scheme
                .cooperation[0].t_low)
            results.append(fleet.failure_rates(
                enrollment, trials=100, op=op, helpers=helpers,
                workers=workers))
        np.testing.assert_array_equal(results[0], results[1])

    def test_parent_keygen_sensor_streams_untouched(self):
        fleet = Fleet(TEMP_PARAMS, size=2, seed=3)
        enrollment = fleet.enroll(temp_aware_factory, seed=1)
        states = [keygen._sensor_rng.bit_generator.state
                  for keygen in enrollment.keygens]
        fleet.failure_rates(enrollment, trials=20, workers=1)
        fleet.failure_rates(enrollment, trials=20, workers=2)
        for keygen, state in zip(enrollment.keygens, states):
            assert keygen._sensor_rng.bit_generator.state == state


class TestSweepDeterminism:
    def test_back_to_back_sweeps_reproducible(self):
        # Successive sweeps consume fresh substreams; two fleets with
        # the same seed must replay the same sweep sequence whatever
        # worker counts each sweep used.
        first_fleet, first_enrollment = fresh_fleet(size=3, seed=5)
        second_fleet, second_enrollment = fresh_fleet(size=3, seed=5)
        first = [first_fleet.failure_rates(first_enrollment, 40,
                                           workers=1),
                 first_fleet.failure_rates(first_enrollment, 40,
                                           workers=2)]
        second = [second_fleet.failure_rates(second_enrollment, 40,
                                             workers=4),
                  second_fleet.failure_rates(second_enrollment, 40,
                                             workers=1)]
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_sweeps_do_not_touch_device_streams(self):
        # A sweep draws from derived substreams only: the devices'
        # internal noise streams must be exactly where they started,
        # whatever the worker count.
        fleet, enrollment = fresh_fleet(size=2)
        before = [array.measurement_noise(2) for array in fleet]
        control_fleet, control_enrollment = fresh_fleet(size=2)
        control_fleet.failure_rates(control_enrollment, 30, workers=1)
        control_fleet.failure_rates(control_enrollment, 30, workers=2)
        after = [array.measurement_noise(2)
                 for array in control_fleet]
        for expected, observed in zip(before, after):
            np.testing.assert_array_equal(expected, observed)


class TestTwoPhasePickling:
    """Frontier kernel workloads must survive a process boundary.

    Fused campaign rounds run inside pool workers; like every fleet
    dispatch, anything they carry follows the copy-on-dispatch rule —
    pickling copies state.  A frontier's declared
    :class:`~repro.ecc.kernel.KernelWorkload` holds only arrays, plain
    values and a picklable kernel, and the outputs of a copy's kernel
    must finalize to the outcomes of the frontier's own kernel.
    """

    def build_frontier(self):
        array = ROArray(PARAMS, rng=61)
        keygen = SequentialPairingKeyGen(threshold=250e3)
        helper, key = keygen.enroll(array, rng=3)
        t = keygen.sketch_for(key.size).code.t
        corrupted = helper.with_pairing(
            flip_orientations(helper.pairing, range(1, 2 + t)))
        oracle = BatchOracle(array, keygen)
        return plan_frontier([(oracle, corrupted, oracle.take_rows(50),
                               None)])

    def test_frontier_workload_pickle_round_trip(self):
        frontier, twin = self.build_frontier(), self.build_frontier()
        (workload,) = frontier.workloads
        assert workload is not None and workload.rows
        clone = pickle.loads(pickle.dumps(workload))
        np.testing.assert_array_equal(clone.words, workload.words)
        assert clone.key == workload.key
        (outputs,) = run_kernels([clone])
        np.testing.assert_array_equal(frontier.finalize([outputs])[0],
                                      twin.execute()[0])

    def test_workload_pickle_round_trip(self):
        (workload,) = self.build_frontier().workloads
        clone = pickle.loads(pickle.dumps(workload))
        expected = workload.kernel(workload.words)
        observed = clone.kernel(clone.words)
        for want, got in zip(expected, observed):
            np.testing.assert_array_equal(want, got)

    def test_fused_attack_campaign_across_workers(self):
        # Fused rounds inside each worker chunk: results must stay
        # bitwise worker-count invariant.
        outcomes = []
        for workers in (1, 2):
            fleet, enrollment = fresh_fleet(size=4, seed=23)
            outcomes.append(fleet.attack_success(
                enrollment, attack_factory, workers=workers,
                lockstep=True))
        np.testing.assert_array_equal(outcomes[0][0], outcomes[1][0])
        np.testing.assert_array_equal(outcomes[0][1], outcomes[1][1])
        assert outcomes[0][0].all()


class TestPoolPlumbing:
    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_chunk_indices_cover_range_once(self):
        blocks = chunk_indices(10, 4)
        flattened = np.concatenate(blocks)
        np.testing.assert_array_equal(flattened, np.arange(10))
        assert len(blocks) <= 4
        assert chunk_indices(2, 8) and len(chunk_indices(2, 8)) == 2
        with pytest.raises(ValueError):
            chunk_indices(4, 0)

    def test_lambda_factory_requires_single_worker(self):
        # Lambdas cannot cross the process boundary; in-process sweeps
        # keep accepting them.
        fleet, enrollment = fresh_fleet(size=2, seed=21)
        recovered, _ = fleet.attack_success(
            enrollment,
            lambda oracle, keygen, helper: SequentialPairingAttack(
                oracle, keygen, helper),
            workers=1)
        assert recovered.all()
