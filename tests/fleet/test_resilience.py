"""Fault-tolerant supervised execution: retry equivalence and hygiene.

The supervised executor's contract (``docs/resilience.md``) is that
recovery is invisible in the results: a sweep that survived injected
crashes, hangs and in-band exceptions returns arrays bitwise-equal to
the fault-free run, for every worker count and retry budget.  These
tests pin that equivalence matrix, the failure taxonomy and verdicts,
the quarantine/poison paths, the deterministic fault plans and backoff
schedules, and the shared-memory hygiene of every failure path (the CI
``chaos-smoke`` job runs this module on its own).
"""

import json
import os

import numpy as np
import pytest

from repro.core import SequentialPairingAttack
from repro.core.injection import flip_orientations
from repro.fleet import (
    ChunkFailure,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    Fleet,
    InjectedFault,
    PoisonedSweepError,
    RetryPolicy,
    Supervisor,
    faultinject,
)
from repro.fleet.parallel import (
    resolve_workers,
    run_collected,
    run_scattered,
)
from repro.keygen import SequentialPairingKeyGen
from repro.puf import ROArrayParams

PARAMS = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
TRIALS = 40
#: Watchdog generous enough for a loaded CI box, small enough that the
#: nine hang cases of the matrix stay cheap.
TIMEOUT = 1.5

#: Injection mode -> the taxonomy kind the supervisor must record.
KIND_FOR_MODE = {"crash": "crash", "hang": "timeout",
                 "raise": "exception"}


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


def fresh_fleet(size=4, seed=4242):
    fleet = Fleet(PARAMS, size=size, seed=seed)
    enrollment = fleet.enroll(sequential_factory, seed=7)
    return fleet, enrollment


def policy_for(mode, retries, **kwargs):
    """A matrix policy: tight backoff, watchdog only when hangs can
    occur (crash/raise cases must recover without one)."""
    timeout = TIMEOUT if mode == "hang" else None
    return RetryPolicy(max_retries=retries, chunk_timeout=timeout,
                       backoff_base=0.01, backoff_cap=0.05, **kwargs)


# ----------------------------------------------------------------------
# module-level jobs for the executor-level tests (picklable)


def square_job(payload):
    return (float(payload) ** 2,)


def object_job(payload):
    return {"value": payload * 3}


def failing_job(payload):
    if payload >= 90:
        raise ValueError(f"bad payload {payload}")
    return (float(payload),)


def shm_listing():
    """The host's shared-memory directory entries (leak tripwire)."""
    try:
        return sorted(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux host
        pytest.skip("/dev/shm not available on this platform")


# ----------------------------------------------------------------------
# the retry-equivalence matrix


@pytest.fixture(scope="module")
def sweep_reference():
    fleet, enrollment = fresh_fleet()
    with faultinject.activated(None):
        return fleet.failure_rates(
            enrollment, trials=TRIALS,
            helpers=boundary_helpers(enrollment), workers=1)


@pytest.fixture(scope="module")
def campaign_reference():
    fleet, enrollment = fresh_fleet()
    with faultinject.activated(None):
        return fleet.attack_success(enrollment, attack_factory,
                                    workers=1)


class TestRetryEquivalenceMatrix:
    """Faulted supervised sweeps == fault-free sweeps, bitwise."""

    @pytest.mark.parametrize("retries", (0, 1, 2))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("mode", ("crash", "hang", "raise"))
    def test_sweep_bitwise_equal(self, mode, workers, retries,
                                 sweep_reference):
        # A size-4 sweep always dispatches as 4 single-device chunks,
        # so chunk 0 exists for every worker count.
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode=mode, attempts=(0,)),))
        supervisor = Supervisor(policy_for(mode, retries))
        fleet, enrollment = fresh_fleet()
        with faultinject.activated(plan):
            rates = fleet.failure_rates(
                enrollment, trials=TRIALS,
                helpers=boundary_helpers(enrollment),
                workers=workers, supervision=supervisor)
        np.testing.assert_array_equal(rates, sweep_reference)
        report = supervisor.last_report
        assert report.chunks == 4
        if retries == 0:
            # No retry budget: the chunk is quarantined and recovered
            # by the in-process degradation pass.
            assert report.verdict == "degraded"
            assert report.degraded == [0]
        else:
            assert report.verdict == "recovered"
            assert report.retried == 1
        assert report.failures[0].kind == KIND_FOR_MODE[mode]
        assert report.failures[0].chunk == 0

    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("mode", ("crash", "hang", "raise"))
    def test_campaign_bitwise_equal(self, mode, workers,
                                    campaign_reference):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode=mode, attempts=(0,)),))
        supervisor = Supervisor(policy_for(mode, 1))
        fleet, enrollment = fresh_fleet()
        with faultinject.activated(plan):
            recovered, queries = fleet.attack_success(
                enrollment, attack_factory, workers=workers,
                supervision=supervisor)
        np.testing.assert_array_equal(recovered,
                                      campaign_reference[0])
        np.testing.assert_array_equal(queries, campaign_reference[1])
        report = supervisor.last_report
        assert report.verdict == "recovered"
        assert report.failures[0].kind == KIND_FOR_MODE[mode]

    def test_campaign_quarantine_recovers(self, campaign_reference):
        # Crash on every child attempt: only the in-process pass can
        # finish the chunk, and the numbers still match bitwise.
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="crash", attempts=None),))
        supervisor = Supervisor(policy_for("crash", 1))
        fleet, enrollment = fresh_fleet()
        with faultinject.activated(plan):
            recovered, queries = fleet.attack_success(
                enrollment, attack_factory, workers=2,
                supervision=supervisor)
        np.testing.assert_array_equal(recovered,
                                      campaign_reference[0])
        np.testing.assert_array_equal(queries, campaign_reference[1])
        assert supervisor.last_report.verdict == "degraded"

    def test_multi_chunk_fault_mix(self, sweep_reference):
        # Three chunks failing three different ways in one sweep.
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="crash", attempts=(0,)),
            FaultSpec(chunk=1, mode="raise", attempts=(0, 1)),
            FaultSpec(chunk=3, mode="hang", attempts=(0,))))
        supervisor = Supervisor(RetryPolicy(
            max_retries=2, chunk_timeout=TIMEOUT, backoff_base=0.01,
            backoff_cap=0.05))
        fleet, enrollment = fresh_fleet()
        with faultinject.activated(plan):
            rates = fleet.failure_rates(
                enrollment, trials=TRIALS,
                helpers=boundary_helpers(enrollment), workers=2,
                supervision=supervisor)
        np.testing.assert_array_equal(rates, sweep_reference)
        report = supervisor.last_report
        assert report.verdict == "recovered"
        assert report.counts_by_kind() == {
            "crash": 1, "exception": 2, "timeout": 1}
        assert report.retried == 4

    def test_plain_pool_ignores_fault_plan(self, sweep_reference):
        # The environment hook lives in the supervised entrypoints
        # only: an unsupervised sweep under an activated plan must run
        # fault-free (nothing would catch the fault).
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="raise", attempts=None),))
        fleet, enrollment = fresh_fleet()
        with faultinject.activated(plan):
            rates = fleet.failure_rates(
                enrollment, trials=TRIALS,
                helpers=boundary_helpers(enrollment), workers=2)
        np.testing.assert_array_equal(rates, sweep_reference)

    def test_after_items_retry_rewrites_chunk(self):
        # Eight payloads dispatch as four 2-item chunks; chunk 0 dies
        # mid-chunk after writing its first item, so the retry must
        # hand back a fully-rewritten chunk.
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="crash", attempts=(0,),
                      after_items=1),))
        supervisor = Supervisor(RetryPolicy(max_retries=1,
                                            backoff_base=0.01))
        payloads = list(range(3, 11))
        expected = run_scattered(square_job, payloads, (np.float64,),
                                 workers=1)
        with faultinject.activated(plan):
            observed = run_scattered(square_job, payloads,
                                     (np.float64,), workers=1,
                                     supervision=supervisor)
        np.testing.assert_array_equal(observed[0], expected[0])
        assert supervisor.last_report.verdict == "recovered"


# ----------------------------------------------------------------------
# verdicts, poison and partial results


class TestVerdicts:
    def test_clean_sweep(self):
        supervisor = Supervisor(RetryPolicy())
        with faultinject.activated(None):
            (values,) = run_scattered(square_job, [1, 2, 3, 4],
                                      (np.float64,), workers=2,
                                      supervision=supervisor)
        np.testing.assert_array_equal(values, [1.0, 4.0, 9.0, 16.0])
        report = supervisor.last_report
        assert report.verdict == "clean"
        assert not report.failures and not report.retried

    def test_poisoned_sweep_raises_structured_verdict(self):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="raise", attempts=None),))
        supervisor = Supervisor(RetryPolicy(max_retries=1,
                                            backoff_base=0.01))
        with faultinject.activated(plan), \
                pytest.raises(PoisonedSweepError) as excinfo:
            run_scattered(square_job, [1, 2, 3, 4], (np.float64,),
                          workers=2, supervision=supervisor)
        message = str(excinfo.value)
        assert "sweep poisoned: 1 of 4 chunk(s)" in message
        assert "quarantine" in message
        report = excinfo.value.report
        assert report.verdict == "partial"
        assert report.poisoned == [0]
        assert report.poison_failures[0].kind == "poison"
        assert "InjectedFault" in report.poison_failures[0].detail

    def test_allow_partial_scattered_fills_zeros(self):
        # Eight payloads at workers=1 -> four 2-item chunks;
        # poisoning chunk 0 zeroes exactly its two entries.
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="raise", attempts=None),))
        supervisor = Supervisor(RetryPolicy(
            max_retries=0, backoff_base=0.01, allow_partial=True))
        payloads = list(range(1, 9))
        with faultinject.activated(plan):
            (values,) = run_scattered(square_job, payloads,
                                      (np.float64,), workers=1,
                                      supervision=supervisor)
        np.testing.assert_array_equal(values[:2], [0.0, 0.0])
        np.testing.assert_array_equal(
            values[2:], [float(p) ** 2 for p in payloads[2:]])
        assert supervisor.last_report.verdict == "partial"

    def test_allow_partial_collected_fills_none(self):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="raise", attempts=None),))
        supervisor = Supervisor(RetryPolicy(
            max_retries=0, backoff_base=0.01, allow_partial=True))
        payloads = list(range(1, 9))
        with faultinject.activated(plan):
            results = run_collected(object_job, payloads, workers=1,
                                    supervision=supervisor)
        assert results[:2] == [None, None]
        assert results[2:] == [{"value": p * 3}
                               for p in payloads[2:]]

    def test_allow_partial_campaign_fills_unrecovered(
            self, campaign_reference):
        # Four devices at workers=2 -> two 2-device chunks; poisoning
        # chunk 0 leaves None results for its devices, which the
        # summary reports as not recovered at zero queries.
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="raise", attempts=None),))
        supervisor = Supervisor(RetryPolicy(
            max_retries=0, backoff_base=0.01, allow_partial=True))
        fleet, enrollment = fresh_fleet()
        with faultinject.activated(plan):
            recovered, queries = fleet.attack_success(
                enrollment, attack_factory, workers=2,
                supervision=supervisor)
        np.testing.assert_array_equal(
            recovered, [False, False, *campaign_reference[0][2:]])
        np.testing.assert_array_equal(
            queries, [0, 0, *campaign_reference[1][2:]])
        assert supervisor.last_report.verdict == "partial"

    def test_timeout_failure_names_watchdog(self):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="hang", attempts=(0,)),))
        supervisor = Supervisor(RetryPolicy(
            max_retries=1, chunk_timeout=0.5, backoff_base=0.01))
        with faultinject.activated(plan):
            run_scattered(square_job, [1, 2, 3, 4], (np.float64,),
                          workers=2, supervision=supervisor)
        failure = supervisor.last_report.failures[0]
        assert failure.kind == "timeout"
        assert "watchdog" in failure.detail
        assert failure.pid is not None

    def test_supervisor_accounts_multiple_sweeps(self, tmp_path):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="raise", attempts=(0,)),))
        supervisor = Supervisor(RetryPolicy(max_retries=1,
                                            backoff_base=0.01))
        with faultinject.activated(plan):
            run_scattered(square_job, [1, 2, 3, 4], (np.float64,),
                          workers=2, supervision=supervisor)
        with faultinject.activated(None):
            run_collected(object_job, [1, 2], workers=2,
                          supervision=supervisor)
        assert len(supervisor.reports) == 2
        assert [r.verdict for r in supervisor.reports] == [
            "recovered", "clean"]
        assert len(supervisor.failures) == 1
        lines = supervisor.summary_lines()
        assert lines[0].startswith("sweep 0: recovered")
        target = supervisor.write_report(tmp_path / "failures.json")
        payload = json.loads(target.read_text())
        assert payload["sweeps"] == 2
        assert payload["counts"] == {"exception": 1}
        assert payload["reports"][0]["failures"][0]["chunk"] == 0

    def test_chunk_failure_round_trips_to_dict(self):
        failure = ChunkFailure(kind="crash", chunk=3, attempt=1,
                               pid=1234, payload_digest="abcd",
                               detail="exit code -9")
        assert failure.to_dict() == {
            "kind": "crash", "chunk": 3, "attempt": 1, "pid": 1234,
            "payload_digest": "abcd", "detail": "exit code -9"}


# ----------------------------------------------------------------------
# fault plans


class TestFaultPlan:
    def test_spec_rejects_unknown_mode(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(chunk=0, mode="meltdown")

    def test_fires_on_every_attempt_when_attempts_none(self):
        spec = FaultSpec(chunk=0, mode="raise", attempts=None)
        assert all(spec.fires_on(attempt) for attempt in range(5))
        scoped = FaultSpec(chunk=0, mode="raise", attempts=(1,))
        assert scoped.fires_on(1) and not scoped.fires_on(0)

    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, faults=(
            FaultSpec(chunk=0, mode="crash", attempts=(0, 2)),
            FaultSpec(chunk=5, mode="raise", attempts=None,
                      after_items=3)))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_plan_inline_and_file(self, tmp_path):
        plan = FaultPlan(seed=2, faults=(
            FaultSpec(chunk=1, mode="hang"),))
        assert faultinject.load_plan(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert faultinject.load_plan(str(path)) == plan

    def test_malformed_plans_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("not json at all")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"faults": [{"mode": "crash"}]}')

    def test_seeded_plan_deterministic_and_prefix_stable(self):
        plan = FaultPlan.seeded(3, 16, rate=0.5)
        assert plan == FaultPlan.seeded(3, 16, rate=0.5)
        assert plan.faults  # rate 0.5 over 16 chunks: ~impossible to
        # draw zero faults from a fixed seed without us noticing here
        shorter = FaultPlan.seeded(3, 8, rate=0.5)
        assert shorter.faults == tuple(
            spec for spec in plan.faults if spec.chunk < 8)
        for spec in plan.faults:
            assert spec.attempts == (0,)

    def test_activated_installs_and_restores_hook(self):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=2, mode="raise"),))
        before = os.environ.get(faultinject.ENV_VAR)
        with faultinject.activated(plan):
            assert faultinject.active_plan() == plan
            assert faultinject.active_spec(2, 0) == plan.faults[0]
            assert faultinject.active_spec(2, 1) is None
            assert faultinject.active_spec(0, 0) is None
            with faultinject.activated(None):
                assert faultinject.active_plan() is None
        assert os.environ.get(faultinject.ENV_VAR) == before

    def test_fire_raise_and_inprocess_semantics(self):
        with pytest.raises(InjectedFault):
            faultinject.fire(FaultSpec(chunk=0, mode="raise"))
        with pytest.raises(InjectedFault):
            faultinject.fire(FaultSpec(chunk=0, mode="raise"),
                             inprocess=True)
        # crash/hang are skipped in-process (they would take the
        # supervisor down); a no-spec fire is a no-op.
        faultinject.fire(FaultSpec(chunk=0, mode="crash"),
                         inprocess=True)
        faultinject.fire(FaultSpec(chunk=0, mode="hang"),
                         inprocess=True)
        faultinject.fire(None)


# ----------------------------------------------------------------------
# retry policy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(chunk_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)

    def test_backoff_schedule_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=4, backoff_base=0.05,
                             backoff_cap=0.4, jitter_seed=11)
        twin = RetryPolicy(max_retries=4, backoff_base=0.05,
                           backoff_cap=0.4, jitter_seed=11)
        schedule = policy.schedule("feedc0de")
        assert schedule == twin.schedule("feedc0de")
        assert len(schedule) == 4
        for attempt, delay in enumerate(schedule):
            nominal = min(0.4, 0.05 * 2 ** attempt)
            assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_jitter_desynchronises_chunks(self):
        policy = RetryPolicy(max_retries=1)
        assert (policy.backoff_delay("aaaa", 0)
                != policy.backoff_delay("bbbb", 0))
        other_seed = RetryPolicy(max_retries=1, jitter_seed=1)
        assert (policy.backoff_delay("aaaa", 0)
                != other_seed.backoff_delay("aaaa", 0))


# ----------------------------------------------------------------------
# pool hygiene: shared-memory leaks, picklability, worker caps


class TestPoolHygiene:
    def test_worker_exception_leaves_no_shm_segments(self):
        before = shm_listing()
        with pytest.raises(ValueError, match="bad payload"):
            run_scattered(failing_job, list(range(85, 95)),
                          (np.float64,), workers=2)
        assert shm_listing() == before

    def test_allocation_failure_disposes_earlier_buffers(self):
        # The second dtype is invalid: buffer 0 is already allocated
        # when its construction fails, and must still be unlinked.
        before = shm_listing()
        with pytest.raises(TypeError):
            run_scattered(square_job, [1, 2, 3, 4],
                          (np.float64, "no-such-dtype"), workers=2)
        assert shm_listing() == before

    def test_poisoned_supervised_sweep_leaves_no_shm_segments(self):
        plan = FaultPlan(seed=1, faults=(
            FaultSpec(chunk=0, mode="raise", attempts=None),))
        supervisor = Supervisor(RetryPolicy(max_retries=0,
                                            backoff_base=0.01))
        before = shm_listing()
        with faultinject.activated(plan), \
                pytest.raises(PoisonedSweepError):
            run_scattered(square_job, [1, 2, 3, 4], (np.float64,),
                          workers=2, supervision=supervisor)
        assert shm_listing() == before

    def test_lambda_job_rejected_with_actionable_error(self):
        with pytest.raises(ValueError,
                           match="module-level callable"):
            run_scattered(lambda payload: (payload,), [1, 2, 3, 4],
                          (np.float64,), workers=2)

    def test_supervised_single_worker_requires_picklable(self):
        # Supervision always isolates chunks in child processes, so
        # even workers=1 needs picklable jobs.
        with pytest.raises(ValueError,
                           match="module-level callable"):
            run_scattered(lambda payload: (payload,), [1, 2],
                          (np.float64,), workers=1,
                          supervision=Supervisor())

    def test_unpicklable_payload_named_by_index(self):
        payloads = [1, 2, lambda: None, 4]
        with pytest.raises(ValueError, match="payload 2"):
            run_collected(object_job, payloads, workers=2)

    def test_resolve_workers_caps_at_payload_count(self):
        assert resolve_workers(8, count=3) == 3
        assert resolve_workers(None, count=1) == 1
        assert resolve_workers(2, count=0) == 1
        assert resolve_workers(2, count=100) == 2
