"""Dispatcher resilience: handshake failures, retries, quarantine.

Fault injection reuses the ``REPRO_FAULT_PLAN`` tripwires: service
workers evaluate the plan against their shard index and attempt
number, so a fault-free rerun of a faulted sweep must match bitwise
(the shard payloads are derived before dispatch, faults only affect
placement and retries).
"""

import os

import numpy as np
import pytest

from repro._rng import spawn
from repro.fleet import Fleet, faultinject
from repro.fleet.faultinject import FaultPlan, FaultSpec
from repro.fleet.resilience import PoisonedSweepError, RetryPolicy
from repro.keygen import SequentialPairingKeyGen
from repro.puf import ROArrayParams
from repro.service import (
    KIND_FAILURE,
    Dispatcher,
    PopulationSpec,
    ShardPlan,
    WorkerHandshakeError,
    submit_sweep,
)
from repro.fleet import pool as pool_module

PARAMS = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
SEED = 9
DEVICES = 4
TRIALS = 80


def keygen_factory():
    return SequentialPairingKeyGen(threshold=250e3)


def _exit_before_handshake(address, worker_id):
    os._exit(3)


@pytest.fixture()
def population():
    return PopulationSpec(params=PARAMS, devices=DEVICES, seed=SEED)


@pytest.fixture(scope="module")
def reference():
    manufacture_rng, enroll_rng = spawn(SEED, 2)
    fleet = Fleet(PARAMS, size=DEVICES, seed=manufacture_rng)
    enrollment = fleet.enroll(keygen_factory, seed=enroll_rng)
    return fleet.failure_rates(enrollment, trials=TRIALS)


def _policy(**kwargs):
    kwargs.setdefault("max_retries", 2)
    kwargs.setdefault("backoff_base", 0.01)
    return RetryPolicy(**kwargs)


class TestHandshake:
    def test_worker_death_before_handshake_is_an_error(
            self, monkeypatch):
        """A worker dying pre-handshake must raise, never hang."""
        monkeypatch.setattr(pool_module, "worker_main",
                            _exit_before_handshake)
        dispatcher = Dispatcher(workers=2, handshake_timeout=10.0)
        plan = ShardPlan.plan(0, 4, 2)
        with pytest.raises(WorkerHandshakeError,
                           match="exited with code 3 before "
                                 "completing the handshake"):
            list(dispatcher.run(plan, KIND_FAILURE, [[], []]))

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            Dispatcher(transport="carrier-pigeon")


class TestFaultRecovery:
    def test_crash_is_retried_and_bitwise_equal(self, population,
                                                reference):
        plan = FaultPlan(faults=(
            FaultSpec(chunk=1, mode="crash", attempts=(0,)),))
        with faultinject.activated(plan):
            handle = submit_sweep(population, keygen_factory,
                                  KIND_FAILURE, trials=TRIALS,
                                  shards=2, workers=2,
                                  policy=_policy())
            merged = handle.collect()
        np.testing.assert_array_equal(merged, reference)
        assert handle.report.verdict == "recovered"
        assert handle.report.retried == 1
        assert handle.report.failures[0].kind == "crash"

    def test_raise_is_retried_and_bitwise_equal(self, population,
                                                reference):
        plan = FaultPlan(faults=(
            FaultSpec(chunk=0, mode="raise", attempts=(0,)),))
        with faultinject.activated(plan):
            handle = submit_sweep(population, keygen_factory,
                                  KIND_FAILURE, trials=TRIALS,
                                  shards=2, workers=2,
                                  policy=_policy())
            merged = handle.collect()
        np.testing.assert_array_equal(merged, reference)
        assert handle.report.verdict == "recovered"
        assert handle.report.failures[0].kind == "exception"

    def test_hang_times_out_and_recovers(self, population,
                                         reference):
        plan = FaultPlan(faults=(
            FaultSpec(chunk=0, mode="hang", attempts=(0,)),))
        with faultinject.activated(plan):
            handle = submit_sweep(population, keygen_factory,
                                  KIND_FAILURE, trials=TRIALS,
                                  shards=2, workers=2,
                                  policy=_policy(chunk_timeout=3.0))
            merged = handle.collect()
        np.testing.assert_array_equal(merged, reference)
        assert handle.report.verdict == "recovered"
        assert handle.report.failures[0].kind == "timeout"

    def test_persistent_fault_degrades_in_dispatcher(
            self, population, reference):
        """Retries exhausted -> quarantine pass runs in-process."""
        plan = FaultPlan(faults=(
            FaultSpec(chunk=1, mode="raise", attempts=(0, 1, 2)),))
        with faultinject.activated(plan):
            handle = submit_sweep(population, keygen_factory,
                                  KIND_FAILURE, trials=TRIALS,
                                  shards=2, workers=2,
                                  policy=_policy())
            merged = handle.collect()
        np.testing.assert_array_equal(merged, reference)
        assert handle.report.verdict == "degraded"
        assert handle.report.degraded == [1]
        degraded = [r for r in handle.results if r.degraded]
        assert len(degraded) == 1
        assert degraded[0].shard.index == 1

    def test_poison_raises_unless_partial_allowed(self, population):
        # attempts cover the quarantine pass too: a true poison shard
        plan = FaultPlan(faults=(
            FaultSpec(chunk=0, mode="raise",
                      attempts=(0, 1, 2, 3)),))
        with faultinject.activated(plan):
            handle = submit_sweep(population, keygen_factory,
                                  KIND_FAILURE, trials=TRIALS,
                                  shards=2, workers=2,
                                  policy=_policy())
            with pytest.raises(PoisonedSweepError):
                handle.collect()

    def test_poison_zero_fills_with_allow_partial(self, population,
                                                  reference):
        plan = FaultPlan(faults=(
            FaultSpec(chunk=0, mode="raise",
                      attempts=(0, 1, 2, 3)),))
        with faultinject.activated(plan):
            handle = submit_sweep(population, keygen_factory,
                                  KIND_FAILURE, trials=TRIALS,
                                  shards=2, workers=2,
                                  policy=_policy(allow_partial=True))
            merged = handle.collect()
        assert handle.report.verdict == "partial"
        assert handle.report.poisoned == [0]
        plan_spec = handle.plan.shards[0]
        np.testing.assert_array_equal(
            merged[plan_spec.start:plan_spec.stop], 0.0)
        np.testing.assert_array_equal(
            merged[plan_spec.stop:], reference[plan_spec.stop:])
