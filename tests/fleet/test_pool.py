"""The worker pool: long-lived workers, dead workers, kernel counters.

Every parallel or supervised fleet sweep and every service shard runs
through :func:`repro.fleet.pool.run_tasks`.  These tests pin what is
specific to that design: workers are reused across chunks (a crash
replaces exactly one), an unsupervised worker death is a structured
error rather than a hang, and kernel work done in workers is counted
in the parent's ``kernel_stats``.
"""

import os

import pytest

from repro.core import SequentialPairingAttack
from repro.core.injection import flip_orientations
from repro.ecc.kernel import kernel_stats
from repro.fleet import (
    FaultPlan,
    FaultSpec,
    Fleet,
    RetryPolicy,
    Supervisor,
    WorkerDiedError,
    faultinject,
)
from repro.fleet import pool as pool_module
from repro.fleet.parallel import run_collected
from repro.keygen import SequentialPairingKeyGen
from repro.puf import ROArrayParams

PARAMS = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)


def sequential_factory():
    return SequentialPairingKeyGen(threshold=250e3)


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


def pid_job(payload):
    return os.getpid()


def exit_job(payload):
    if payload == 5:
        os._exit(3)
    return payload


@pytest.fixture()
def spawn_count(monkeypatch):
    """Count every worker the pool starts (first spawn and
    replacements)."""
    started = []
    original = pool_module._Pool.spawn

    def counting(pool, count):
        started.append(count)
        return original(pool, count)

    monkeypatch.setattr(pool_module._Pool, "spawn", counting)
    return started


class TestWorkerReuse:
    def test_more_chunks_than_workers_reuse_two_processes(
            self, spawn_count):
        # 16 payloads at workers=2 dispatch as 8 chunks.
        with faultinject.activated(None):
            pids = run_collected(pid_job, list(range(16)), workers=2)
        assert len(set(pids)) <= 2
        assert os.getpid() not in pids
        assert sum(spawn_count) == 2

    def test_supervised_crash_replaces_exactly_one_worker(
            self, spawn_count):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="crash", attempts=(0,)),))
        supervisor = Supervisor(RetryPolicy(max_retries=1,
                                            backoff_base=0.01))
        with faultinject.activated(plan):
            pids = run_collected(pid_job, list(range(16)), workers=2,
                                 supervision=supervisor)
        report = supervisor.last_report
        assert report.verdict == "recovered"
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert sum(spawn_count) == 3
        assert failure.pid not in pids
        assert len(set(pids) | {failure.pid}) <= 3


class TestDeadWorker:
    def test_unsupervised_worker_death_is_a_structured_error(self):
        # 8 payloads at workers=2 dispatch as 8 one-item chunks, so
        # payload 5 is chunk 5.
        with faultinject.activated(None), \
                pytest.raises(WorkerDiedError) as excinfo:
            run_collected(exit_job, list(range(8)), workers=2)
        failure = excinfo.value.failure
        assert failure.kind == "crash"
        assert failure.chunk == 5
        assert "exit code 3" in failure.detail
        assert "chunk 5" in str(excinfo.value)


class TestKernelCounters:
    """Kernel work done in pool workers lands in the parent's
    ``kernel_stats``.  Rows are equal across worker counts; calls are
    equal for failure-rate sweeps, while lock-step campaigns fuse
    kernel calls per chunk and so make more, smaller calls when split
    across workers."""

    @staticmethod
    def delta(sweep):
        before = (kernel_stats.calls, kernel_stats.rows)
        sweep()
        return (kernel_stats.calls - before[0],
                kernel_stats.rows - before[1])

    def deltas(self, run, plan=None):
        observed = {}
        for workers in (1, 2):
            fleet = Fleet(PARAMS, size=4, seed=4242)
            enrollment = fleet.enroll(sequential_factory, seed=7)
            with faultinject.activated(plan if workers > 1 else None):
                observed[workers] = self.delta(
                    lambda: run(fleet, enrollment, workers))
        return observed

    def test_attack_results(self):
        observed = self.deltas(
            lambda fleet, enrollment, workers: fleet.attack_results(
                enrollment, attack_factory, workers=workers))
        assert observed[2][1] == observed[1][1]
        assert observed[1][0] > 0 and observed[2][0] > 0

    def test_failure_rates(self):
        observed = self.deltas(
            lambda fleet, enrollment, workers: fleet.failure_rates(
                enrollment, trials=40,
                helpers=boundary_helpers(enrollment),
                workers=workers))
        assert observed[2] == observed[1]
        assert observed[1][0] > 0

    def test_quarantined_chunk_counted_once(self):
        # Chunk 0 crashes on every worker attempt and is finished by
        # the in-process quarantine pass, whose kernel work is already
        # in this process's counters.
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="crash", attempts=None),))
        supervisor = Supervisor(RetryPolicy(max_retries=0,
                                            backoff_base=0.01))
        observed = self.deltas(
            lambda fleet, enrollment, workers: fleet.failure_rates(
                enrollment, trials=40,
                helpers=boundary_helpers(enrollment), workers=workers,
                supervision=supervisor if workers > 1 else None),
            plan=plan)
        assert supervisor.last_report.degraded == [0]
        assert observed[2] == observed[1]
