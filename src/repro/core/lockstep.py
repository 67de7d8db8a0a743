"""Stepwise attack protocol and lock-step distinguisher rounds.

The adaptive §VI attacks are, at heart, state machines: build a pair
(or set) of hypothesis helpers, ask a distinguisher which one the
device likes best, branch on the answer, repeat.  This module makes
that structure explicit so one attack can be executed two ways:

* **Scalar drive** — :func:`drive` feeds one attack generator from one
  oracle, executing each yielded request through exactly the calls the
  pre-stepwise drivers made (``FailureRateComparer.compare``,
  :func:`~repro.core.framework.select_hypothesis`,
  ``SPRTDistinguisher.test``, single queries).  This is the executable
  equivalence reference.
* **Lock-step rounds** — the campaign scheduler
  (:class:`repro.fleet.campaign.LockstepCampaign`) gathers the pending
  request of every active device each round and advances them together
  through the :class:`LaneEngine` subclasses below: one noise block per
  device per round, with the Hoeffding/Wald/arg-min bookkeeping
  evaluated for the whole batch in a handful of NumPy passes
  (per-device accept/reject/continue masks, exactly like the per-row
  discrepancy masks of the batched Berlekamp–Massey decoder).  Each
  round's blocks are evaluated through one frontier plan
  (:func:`~repro.core.batch_oracle.plan_frontier`): blocks whose
  extraction is a described pair-column index — raw ``>=`` pairs
  (sequential), residual ``>=`` pairs (distiller) or residual Kendall
  pairs (group-based helpers made of pairs, every §VI-C hypothesis) —
  and whose completion is a bare code-offset sketch, on oracles
  without a trajectory, are stacked: one gather, trend subtraction,
  compare, dedup, payload shift and key check per stack key.  Every
  other block keeps its own ``plan_rows`` in round order.

**Described hypotheses.**  The §VI-A and §VI-C attacks send their
comparisons as described manipulations of the enrolled helper
(:class:`~repro.keygen.batch.DescribedHelper`): flips plus a swap, or
one member of a §VI-C hypothesis pair.  On the lock-step path the
keygen turns each into the arrays a stacked group reads
(:class:`~repro.keygen.batch.PairBlock`), so no helper, evaluator or
completion object is built per comparison; the scalar drive, and any
item the keygen cannot describe, evaluates ``descriptor.apply`` of
the enrolled helper instead.

**Equivalence contract.**  Each device owns its oracle and noise
stream, and a lane only ever consumes rows from its own oracle in
request order, unwinding speculative tails; all stopping rules are
evaluated at every sample index with the same IEEE operation sequence
as the scalar walk.  Decisions, per-comparison query counts, recovered
keys and final stream positions are therefore **bitwise-identical** to
the scalar per-device loop for every batch composition — asserted in
``tests/fleet/test_campaign.py`` and in
``benchmarks/bench_attack_lockstep.py``.

An attack participates by exposing ``steps()``: a generator yielding
:class:`ComparisonRequest`, :class:`SelectionRequest`,
:class:`SPRTRequest` or :class:`QueryBlockRequest` objects, receiving
the matching outcome back at each ``yield``, and returning its result
object.  ``run()`` keeps working on any oracle via :func:`drive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    Generator,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.batch_oracle import BatchOracle, plan_frontier
from repro.ecc.kernel import run_kernels
from repro.core.framework import (
    ComparisonOutcome,
    FailureRateComparer,
    SelectionOutcome,
    select_hypothesis,
)
from repro.core.oracle import HelperDataOracle
from repro.core.sprt import SPRTDistinguisher, SPRTOutcome
from repro.keygen.base import OperatingPoint
from repro.keygen.batch import DescribedHelper

#: A stepwise attack: yields requests, receives outcomes, returns its
#: result object.
AttackSteps = Generator


# ----------------------------------------------------------------------
# request protocol


@dataclass(frozen=True)
class ComparisonRequest:
    """Ask which of two helpers fails less often (paired Hoeffding).

    Answered with a :class:`~repro.core.framework.ComparisonOutcome`.
    ``comparer`` carries the stopping-rule configuration; the scalar
    drive calls it directly, the lock-step engine reads its budgets and
    confidence and replays the same rules batch-wide.  The §VI-A and
    §VI-C attacks send each helper as a described manipulation of the
    enrolled one (:class:`~repro.keygen.batch.DescribedHelper`): the
    lock-step engine stacks its arrays, the scalar drive materialises
    it.
    """

    helper_a: object
    helper_b: object
    comparer: FailureRateComparer = field(
        default_factory=FailureRateComparer)
    op: Optional[OperatingPoint] = None


@dataclass(frozen=True)
class SelectionRequest:
    """Ask which of many labelled helpers fails least (arg-min scan).

    Answered with a :class:`~repro.core.framework.SelectionOutcome`.
    Hypotheses are scanned in dict order with the fixed per-hypothesis
    budget; with *early_stop* a zero-failure hypothesis ends the scan.
    """

    helpers: Dict[Hashable, object]
    queries_per_hypothesis: int = 8
    op: Optional[OperatingPoint] = None
    early_stop: bool = True


@dataclass(frozen=True)
class SPRTRequest:
    """Ask for a Wald sequential test of one manipulated helper.

    Answered with a :class:`~repro.core.sprt.SPRTOutcome`.  The
    calibrated :class:`~repro.core.sprt.SPRTDistinguisher` travels with
    the request (calibration itself is two
    :class:`QueryBlockRequest`\\ s).
    """

    distinguisher: SPRTDistinguisher
    helper: object
    op: Optional[OperatingPoint] = None


@dataclass(frozen=True)
class QueryBlockRequest:
    """Ask for raw reconstruction outcomes under one helper.

    Answered with a boolean success vector.  With *stop_on_success*
    the walk ends at the first success (the §VI-A candidate-resolution
    probe), so the reply may be shorter than *count*; its length is the
    number of queries consumed either way.
    """

    helper: object
    count: int
    op: Optional[OperatingPoint] = None
    stop_on_success: bool = False


# ----------------------------------------------------------------------
# scalar reference executor


def _materialised(helper):
    """The real helper behind a described one (else *helper* itself)."""
    if isinstance(helper, DescribedHelper):
        return helper.materialise()
    return helper


def execute_request(request, oracle) -> object:
    """Execute one protocol request against one oracle, scalar-style.

    Dispatches to exactly the calls the pre-stepwise attack drivers
    made, so a generator driven through this function reproduces the
    legacy behaviour query for query on both oracle types.  Described
    helpers are materialised first.
    """
    if isinstance(request, ComparisonRequest):
        return request.comparer.compare(
            oracle, _materialised(request.helper_a),
            _materialised(request.helper_b), request.op)
    if isinstance(request, SelectionRequest):
        return select_hypothesis(
            oracle, request.helpers,
            queries_per_hypothesis=request.queries_per_hypothesis,
            op=request.op, early_stop=request.early_stop)
    if isinstance(request, SPRTRequest):
        return request.distinguisher.test(oracle, request.helper,
                                          request.op)
    if isinstance(request, QueryBlockRequest):
        if request.stop_on_success:
            outcomes: List[bool] = []
            for _ in range(request.count):
                outcomes.append(bool(oracle.query(request.helper,
                                                  request.op)))
                if outcomes[-1]:
                    break
            return np.array(outcomes, dtype=bool)
        if isinstance(oracle, BatchOracle):
            return oracle.query_block(request.helper, request.count,
                                      request.op)
        return np.array([oracle.query(request.helper, request.op)
                         for _ in range(request.count)], dtype=bool)
    raise TypeError(f"not a lock-step protocol request: {request!r}")


def outcome_queries(reply) -> int:
    """Oracle queries consumed by one answered protocol request.

    Lets a stepwise attack account its query bill from the outcomes it
    receives instead of peeking at an oracle counter (which a lock-step
    campaign shares per device, not per attack phase).
    """
    if isinstance(reply, (ComparisonOutcome, SelectionOutcome,
                          SPRTOutcome)):
        return int(reply.queries)
    if isinstance(reply, np.ndarray):
        return int(reply.shape[0])
    raise TypeError(f"not a protocol outcome: {reply!r}")


def drive(steps: AttackSteps, oracle: HelperDataOracle) -> object:
    """Run a stepwise attack generator to completion on one oracle.

    The scalar reference executor: each yielded request is answered
    via :func:`execute_request` and the generator's return value is
    handed back.  Works with both the scalar
    :class:`~repro.core.oracle.HelperDataOracle` and the
    :class:`~repro.core.batch_oracle.BatchOracle`.
    """
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = execute_request(request, oracle)


# ----------------------------------------------------------------------
# lock-step lane engines


class Lane:
    """One device's seat in a lock-step round: oracle + pending work.

    ``state`` is engine-private decision state carried between rounds
    (cumulative failure counts, a running log-likelihood, a scan
    position); it lives on the lane so an abandoned campaign cannot
    leak stale state into a recycled object id.  ``constants`` holds
    the request's engine-private stopping-rule settings, read once
    when an engine first steps the lane.
    """

    def __init__(self, oracle: BatchOracle, request) -> None:
        self.oracle = oracle
        self.request = request
        self.outcome: Optional[object] = None
        self.state: Optional[object] = None
        self.constants: Optional[tuple] = None

    @property
    def finished(self) -> bool:
        """Whether the pending request has produced its outcome."""
        return self.outcome is not None


class LaneEngine:
    """Advances a batch of same-type requests one block per round.

    Subclasses hold whatever per-lane decision state their
    distinguisher needs and must deliver, for every lane, an outcome
    bitwise-identical to :func:`execute_request` on the same oracle
    stream.

    Every round evaluates through one frontier plan
    (:func:`~repro.core.batch_oracle.plan_frontier`).  Blocks that
    reduce to a :class:`~repro.keygen.batch.PairBlock` — described
    hypothesis helpers the keygen can describe, and pair-column
    evaluators completed by a bare code-offset sketch — on oracles
    without a trajectory, are stacked per (row count, width, stack
    key), the stack key holding the comparison kind (``>=`` or
    Kendall), whether a trend is subtracted, and the kernel key: one
    gather, trend subtraction and compare over the stacked pair
    indices, one dedup keyed by (block, pattern), one pass of memo
    lookups, one payload shift and one vectorised key check.
    Sequential, distiller and group-based blocks of pairs stack this
    way; every other block — constant, masked (hardened, temp-aware),
    assembled (groups of three or more, fuzzy extractor), malformed
    or trajectory-driven, a described helper materialised first — is
    planned alone via
    :meth:`~repro.core.batch_oracle.BatchOracle.plan_rows` at its
    place in the round, so transient streams are consumed in request
    order.  Then **one fused kernel call per distinct kernel key
    across the whole frontier** (:func:`repro.ecc.kernel.run_kernels`)
    and one finalize per stacked group or own plan.  With a single
    item this is exactly
    :meth:`~repro.core.batch_oracle.BatchOracle.evaluate_rows`;
    stacking keeps dedup and memo lookups per item and fusion only
    regroups row-local kernel work, so outcomes are bitwise-identical
    for every frontier composition.
    """

    #: request type handled by the engine
    request_type: type = object

    def evaluate_many(self, items: Sequence[Tuple[BatchOracle, object,
                                                  np.ndarray,
                                                  Optional[OperatingPoint]]]
                      ) -> List[np.ndarray]:
        """Evaluate ``(oracle, helper, rows, op)`` items in one round.

        Items are planned in order (so transient streams like the
        temp-aware sensor are consumed as per-device evaluation would),
        stackable blocks as one pass per group, the kernel phase is
        fused across all items sharing a kernel key, and each item's
        outcomes come back in order.
        """
        frontier = plan_frontier(items)
        return frontier.finalize(run_kernels(frontier.workloads))

    def step(self, lanes: Sequence[Lane]) -> None:
        """Advance every lane by one round; set ``lane.outcome`` when
        a lane's request completes."""
        raise NotImplementedError


class ComparisonEngine(LaneEngine):
    """Lock-step paired Hoeffding comparisons across devices.

    Per round each active lane contributes one block of paired samples
    (even noise rows feed helper *a*, odd rows *b* — the sequential
    interleave); the three stopping rules are then evaluated for the
    whole batch on cumulative-count matrices, and lanes that triggered
    unwind their unused rows and deliver their outcome.  The bound is
    computed with the same IEEE operation sequence as
    ``FailureRateComparer._bound``, so decisions round identically.
    Each lane's comparer settings are read once, when the engine first
    steps it (:attr:`Lane.constants`).
    """

    request_type = ComparisonRequest

    #: paired samples granted to every lane per round
    block = 8

    @staticmethod
    def _constants(comparer: FailureRateComparer) -> tuple:
        """``(max, min, identical stop or -1, log(2 / delta))``."""
        ident = comparer.identical_stop
        # math.log, not np.log: the scalar walk derives its Hoeffding
        # bound from math.log and the two need not round identically.
        return (comparer.max_queries_per_side,
                comparer.min_queries_per_side,
                -1 if ident is None else ident,
                math.log(2.0 / (1.0 - comparer.confidence)))

    def step(self, lanes: Sequence[Lane]) -> None:
        """Advance each pending comparison by one paired-sample block."""
        count = len(lanes)
        if not count:
            return
        for lane in lanes:
            if lane.constants is None:
                lane.constants = self._constants(lane.request.comparer)
        maxima, minima, ident, delta_log = map(
            np.array, zip(*[lane.constants for lane in lanes]))
        prior_a, prior_b, prior_n = np.array(
            [lane.state or (0, 0, 0) for lane in lanes],
            dtype=np.int64).T
        sizes = np.minimum(self.block, maxima - prior_n)
        width = int(sizes.max())

        taken: List[np.ndarray] = []
        items = []
        for lane, size in zip(lanes, sizes.tolist()):
            rows = lane.oracle.take_rows(2 * size)
            taken.append(rows)
            request = lane.request
            items.append((lane.oracle, request.helper_a, rows[0::2],
                          request.op))
            items.append((lane.oracle, request.helper_b, rows[1::2],
                          request.op))
        results = self.evaluate_many(items)
        if (sizes == width).all():
            out_a = np.array(results[0::2])
            out_b = np.array(results[1::2])
        else:
            out_a = np.ones((count, width), dtype=bool)
            out_b = np.ones((count, width), dtype=bool)
            for i, size in enumerate(sizes.tolist()):
                out_a[i, :size] = results[2 * i]
                out_b[i, :size] = results[2 * i + 1]

        cum_a = prior_a[:, None] + np.cumsum(~out_a, axis=1)
        cum_b = prior_b[:, None] + np.cumsum(~out_b, axis=1)
        counts = prior_n[:, None] + np.arange(1, width + 1)
        low = np.minimum(cum_a, cum_b)
        high = np.maximum(cum_a, cum_b)
        stop_separated = ((low == 0) & (high == counts)
                          & (cum_a != cum_b))
        # Same IEEE operation sequence as FailureRateComparer._bound so
        # lock-step and scalar comparisons round identically.
        bounds = 2.0 * np.sqrt(delta_log[:, None] / (2.0 * counts))
        stop_gap = np.abs(cum_a - cum_b) / counts > bounds
        stop_identical = ((ident[:, None] >= 0)
                          & (counts >= ident[:, None])
                          & (cum_a == cum_b)
                          & ((cum_a == 0) | (cum_a == counts)))
        valid = np.arange(width)[None, :] < sizes[:, None]
        trigger = (valid & (counts >= minima[:, None])
                   & (stop_separated | stop_identical | stop_gap))
        fired = trigger.any(axis=1).tolist()
        first = np.argmax(trigger, axis=1).tolist()

        for i, lane in enumerate(lanes):
            size = int(sizes[i])
            if fired[i]:
                idx = first[i]
                lane.oracle.untake_rows(taken[i][2 * (idx + 1):])
                failures_a = int(cum_a[i, idx])
                failures_b = int(cum_b[i, idx])
                samples = int(counts[i, idx])
                separated = bool(stop_separated[i, idx]
                                 or stop_gap[i, idx])
            else:
                failures_a = int(cum_a[i, size - 1])
                failures_b = int(cum_b[i, size - 1])
                samples = int(counts[i, size - 1])
                if samples < int(maxima[i]):
                    lane.state = (failures_a, failures_b, samples)
                    continue
                separated = False
            lane.state = None
            if not separated:
                separated = FailureRateComparer._significant(
                    failures_a, failures_b, samples)
            if not separated or failures_a == failures_b:
                decision = "tie"
            elif failures_a < failures_b:
                decision = "a"
            else:
                decision = "b"
            lane.outcome = ComparisonOutcome(
                decision, 2 * samples, failures_a, failures_b, samples)


class SPRTEngine(LaneEngine):
    """Lock-step Wald walks across devices.

    Each lane's running log-likelihood is extended by one outcome block
    per round; carries are prepended before the cumulative sum so the
    floating-point accumulation order matches the scalar walk, and the
    first boundary crossing decides with the tail rows unwound.  The
    distinguisher's budget, boundaries and steps are read once per
    lane (:attr:`Lane.constants`).
    """

    request_type = SPRTRequest

    #: observations granted to every lane per round
    block = 16

    def step(self, lanes: Sequence[Lane]) -> None:
        """Advance each pending Wald walk by one observation block."""
        count = len(lanes)
        if not count:
            return
        prior_llr = np.zeros(count)
        prior_fail = np.zeros(count, dtype=np.int64)
        prior_q = np.zeros(count, dtype=np.int64)
        for i, lane in enumerate(lanes):
            prior_llr[i], prior_fail[i], prior_q[i] = (lane.state
                                                       or (0.0, 0, 0))
            if lane.constants is None:
                sprt = lane.request.distinguisher
                lane.constants = (sprt.max_queries, sprt.boundaries,
                                  sprt.llr_steps)
        maxima, bounds, steps_sf = map(
            np.array, zip(*[lane.constants for lane in lanes]))
        sizes = np.minimum(self.block, maxima - prior_q)
        width = int(sizes.max())

        outcomes = np.ones((count, width), dtype=bool)
        taken: List[np.ndarray] = []
        items = []
        for i, lane in enumerate(lanes):
            size = int(sizes[i])
            rows = lane.oracle.take_rows(size)
            taken.append(rows)
            items.append((lane.oracle, lane.request.helper, rows,
                          lane.request.op))
        results = self.evaluate_many(items)
        for i in range(count):
            outcomes[i, :int(sizes[i])] = results[i]

        increments = np.where(outcomes, steps_sf[:, 0:1],
                              steps_sf[:, 1:2])
        # Prepending the carry keeps each row's additions in scalar
        # order: ((llr + s1) + s2) + ..., not llr + (s1 + s2 + ...).
        walk = np.cumsum(
            np.concatenate([prior_llr[:, None], increments], axis=1),
            axis=1)[:, 1:]
        valid = np.arange(width)[None, :] < sizes[:, None]
        crossed = valid & ((walk >= bounds[:, 1:2])
                           | (walk <= bounds[:, 0:1]))
        fired = crossed.any(axis=1)
        first = np.argmax(crossed, axis=1)

        for i, lane in enumerate(lanes):
            size = int(sizes[i])
            if fired[i]:
                idx = int(first[i])
                lane.oracle.untake_rows(taken[i][idx + 1:])
                queries = int(prior_q[i]) + idx + 1
                failures = int(prior_fail[i]) + int(
                    np.count_nonzero(~outcomes[i, :idx + 1]))
                llr = float(walk[i, idx])
                decision = "neq" if llr >= bounds[i, 1] else "eq"
            else:
                queries = int(prior_q[i]) + size
                failures = int(prior_fail[i]) + int(
                    np.count_nonzero(~outcomes[i, :size]))
                llr = float(walk[i, size - 1])
                if queries < int(maxima[i]):
                    lane.state = (llr, failures, queries)
                    continue
                decision = "neq" if llr > 0 else "eq"
            lane.state = None
            lane.outcome = SPRTOutcome(decision, queries, failures,
                                       llr)


class SelectionEngine(LaneEngine):
    """Lock-step arg-min hypothesis scans across devices.

    Every lane evaluates its *current* hypothesis's full fixed budget
    in one vectorized block per round, then either stops (zero
    failures with early stopping, or scan exhausted) or moves to the
    next hypothesis — so a batch of ``2^u``-hypothesis scans advances
    together without any lane waiting for the slowest scan.
    """

    request_type = SelectionRequest

    def step(self, lanes: Sequence[Lane]) -> None:
        """Advance each pending scan by one full-budget hypothesis."""
        items = []
        labels_per_lane: List[List[Hashable]] = []
        for lane in lanes:
            request = lane.request
            if not request.helpers:
                raise ValueError("need at least one hypothesis")
            # lane state: [hypothesis index, queries, rates, best]
            if lane.state is None:
                lane.state = [0, 0, {}, (math.inf, None)]
            labels = list(request.helpers)
            labels_per_lane.append(labels)
            label = labels[lane.state[0]]
            rows = lane.oracle.take_rows(
                request.queries_per_hypothesis)
            items.append((lane.oracle, request.helpers[label], rows,
                          request.op))
        results = self.evaluate_many(items)
        for lane, labels, outcomes in zip(lanes, labels_per_lane,
                                          results):
            request = lane.request
            index, queries, rates, best = lane.state
            label = labels[index]
            budget = request.queries_per_hypothesis
            failures = int(np.count_nonzero(~outcomes))
            queries += budget
            rate = failures / budget
            rates[label] = rate
            if rate < best[0]:
                best = (rate, label)
            if ((request.early_stop and failures == 0)
                    or index + 1 >= len(labels)):
                lane.state = None
                lane.outcome = SelectionOutcome(best[1], queries,
                                                rates)
            else:
                lane.state = [index + 1, queries, rates, best]


class QueryBlockEngine(LaneEngine):
    """Lock-step raw query blocks (always complete in one round).

    Plain blocks evaluate in a single vectorized pass.  A
    *stop_on_success* probe speculatively evaluates the full block,
    truncates at the first success and unwinds the tail — landing the
    stream and counter exactly where the scalar single-query walk
    stops.
    """

    request_type = QueryBlockRequest

    def step(self, lanes: Sequence[Lane]) -> None:
        """Answer every pending block request in this round."""
        taken: List[np.ndarray] = []
        items = []
        for lane in lanes:
            rows = lane.oracle.take_rows(lane.request.count)
            taken.append(rows)
            items.append((lane.oracle, lane.request.helper, rows,
                          lane.request.op))
        results = self.evaluate_many(items)
        for lane, rows, outcomes in zip(lanes, taken, results):
            if lane.request.stop_on_success and outcomes.any():
                idx = int(np.argmax(outcomes))
                lane.oracle.untake_rows(rows[idx + 1:])
                outcomes = outcomes[:idx + 1]
            lane.outcome = outcomes


def lane_engines() -> Tuple[LaneEngine, ...]:
    """Fresh engine set covering every protocol request type."""
    return (ComparisonEngine(), SPRTEngine(), SelectionEngine(),
            QueryBlockEngine())
