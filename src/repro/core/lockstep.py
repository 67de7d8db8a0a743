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
  device per round, evaluated for the whole batch, after which each
  lane walks its block through its distinguisher's own per-sample
  rule (``FailureRateComparer.walk``, ``SPRTDistinguisher.walk``) —
  the function the scalar drive runs too.  Each round's blocks are
  evaluated through one frontier plan
  (:func:`~repro.core.batch_oracle.plan_frontier`) over two routes:
  blocks whose extraction is a described pair-column index — raw
  ``>=`` pairs (sequential), residual ``>=`` pairs (distiller) or
  residual Kendall pairs (group-based helpers made of pairs, every
  §VI-C hypothesis) — and whose completion is a bare code-offset
  sketch are stacked, with or without a trajectory and a lone block
  as a group of one: one gather, trend subtraction, compare, dedup,
  payload shift and key check per stack key.  Every other block
  keeps its own ``plan_rows`` in round order.

**Described hypotheses.**  The §VI-A and §VI-C attacks send their
comparisons as described manipulations of the enrolled helper
(:class:`~repro.keygen.batch.DescribedHelper`): flips plus a swap, or
one member of a §VI-C hypothesis pair.  On the lock-step path the
keygen turns each into the arrays a stacked group reads
(:class:`~repro.keygen.batch.PairBlock`), so no helper, evaluator or
completion object is built per comparison; the scalar oracle, and any
item the keygen cannot describe, evaluates ``descriptor.apply`` of
the enrolled helper instead, in every request type.

**Equivalence contract.**  Each device owns its oracle and noise
stream, and a lane only ever consumes rows from its own oracle in
request order, unwinding speculative tails, and walks every sample
through the one stopping-rule function the scalar walk uses, carrying
its counts between rounds.  Decisions, per-comparison query counts,
recovered keys and final stream positions are therefore
**bitwise-identical** to the scalar per-device loop for every batch
composition — asserted in ``tests/fleet/test_campaign.py``,
``tests/core/test_lane_walks.py`` and
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

#: A stepwise attack: yields requests, receives outcomes, returns its
#: result object.
AttackSteps = Generator


# ----------------------------------------------------------------------
# request protocol


@dataclass(frozen=True)
class ComparisonRequest:
    """Ask which of two helpers fails less often (paired Hoeffding).

    Answered with a :class:`~repro.core.framework.ComparisonOutcome`.
    ``comparer`` carries the stopping rules; the scalar drive calls it
    directly, the lock-step engine walks each lane's blocks through
    :meth:`~repro.core.framework.FailureRateComparer.walk`.  The
    §VI-A and §VI-C attacks send each helper as a described
    manipulation of the enrolled one
    (:class:`~repro.keygen.batch.DescribedHelper`): the lock-step
    engine stacks its arrays, the scalar oracle materialises it.
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


def execute_request(request, oracle) -> object:
    """Execute one protocol request against one oracle, scalar-style.

    Dispatches to exactly the calls the pre-stepwise attack drivers
    made, so a generator driven through this function reproduces the
    legacy behaviour query for query on both oracle types.  Both
    oracles accept described helpers in every request type.
    """
    if isinstance(request, ComparisonRequest):
        return request.comparer.compare(oracle, request.helper_a,
                                        request.helper_b, request.op)
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
    (a distinguisher walk's carry, a scan position); it lives on the
    lane so an abandoned campaign cannot leak stale state into a
    recycled object id.
    """

    def __init__(self, oracle: BatchOracle, request) -> None:
        self.oracle = oracle
        self.request = request
        self.outcome: Optional[object] = None
        self.state: Optional[object] = None

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
    evaluators completed by a bare code-offset sketch, with or
    without a trajectory — are stacked per (row count, width, stack
    key), a lone block as a group of one, the stack key holding the
    comparison kind (``>=`` or Kendall), whether a trend is
    subtracted, the kernel key and the gap check: one gather, trend
    subtraction and compare over the stacked pair indices, one dedup
    keyed by (block, pattern), one pass of memo lookups, one payload
    shift and one vectorised key check.  Sequential, distiller and
    group-based blocks of pairs stack this way, hardened ones too;
    every other block — constant, masked (temp-aware), assembled
    (groups of three or more, fuzzy extractor) or malformed, a
    described helper materialised first — is planned alone via
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
    interleave), evaluated for the whole batch through one frontier.
    Each lane then walks its block through its comparer's own
    per-sample rule (:meth:`FailureRateComparer.walk`), carrying
    ``(failures_a, failures_b, samples)`` between rounds; a lane that
    stopped unwinds its unused rows and delivers its outcome.
    """

    request_type = ComparisonRequest

    #: paired samples granted to every lane per round
    block = 8

    def step(self, lanes: Sequence[Lane]) -> None:
        """Advance each pending comparison by one paired-sample block."""
        taken: List[np.ndarray] = []
        items = []
        for lane in lanes:
            request = lane.request
            samples = lane.state[2] if lane.state else 0
            rows = lane.oracle.take_rows(2 * min(
                self.block,
                request.comparer.max_queries_per_side - samples))
            taken.append(rows)
            items.append((lane.oracle, request.helper_a, rows[0::2],
                          request.op))
            items.append((lane.oracle, request.helper_b, rows[1::2],
                          request.op))
        results = self.evaluate_many(items)
        for lane, rows, out_a, out_b in zip(lanes, taken, results[0::2],
                                            results[1::2]):
            comparer = lane.request.comparer
            prior = lane.state or (0, 0, 0)
            carry, stopped, separated = comparer.walk(
                prior, out_a.tolist(), out_b.tolist())
            if stopped:
                lane.oracle.untake_rows(rows[2 * (carry[2] - prior[2]):])
            elif carry[2] < comparer.max_queries_per_side:
                lane.state = carry
                continue
            lane.state = None
            lane.outcome = comparer.outcome(carry, separated)


class SPRTEngine(LaneEngine):
    """Lock-step Wald walks across devices.

    Each lane's walk is extended by one observation block per round,
    evaluated for the whole batch through one frontier and walked
    through the distinguisher's own per-sample rule
    (:meth:`SPRTDistinguisher.walk`), carrying ``(llr, failures,
    queries)`` between rounds; the first boundary crossing decides
    with the tail rows unwound.
    """

    request_type = SPRTRequest

    #: observations granted to every lane per round
    block = 16

    def step(self, lanes: Sequence[Lane]) -> None:
        """Advance each pending Wald walk by one observation block."""
        taken: List[np.ndarray] = []
        items = []
        for lane in lanes:
            request = lane.request
            queries = lane.state[2] if lane.state else 0
            rows = lane.oracle.take_rows(min(
                self.block, request.distinguisher.max_queries - queries))
            taken.append(rows)
            items.append((lane.oracle, request.helper, rows, request.op))
        results = self.evaluate_many(items)
        for lane, rows, outcomes in zip(lanes, taken, results):
            sprt = lane.request.distinguisher
            prior = lane.state or (0.0, 0, 0)
            carry, decision = sprt.walk(prior, outcomes.tolist())
            if decision is not None:
                lane.oracle.untake_rows(rows[carry[2] - prior[2]:])
            elif carry[2] < sprt.max_queries:
                lane.state = carry
                continue
            lane.state = None
            lane.outcome = sprt.outcome(carry, decision)


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
        for lane in lanes:
            request = lane.request
            if lane.state is None:
                if not request.helpers:
                    raise ValueError("need at least one hypothesis")
                # lane state: [labels, hypothesis index, queries,
                # rates, best]
                lane.state = [list(request.helpers), 0, 0, {},
                              (math.inf, None)]
            labels, index = lane.state[:2]
            rows = lane.oracle.take_rows(
                request.queries_per_hypothesis)
            items.append((lane.oracle, request.helpers[labels[index]],
                          rows, request.op))
        results = self.evaluate_many(items)
        for lane, outcomes in zip(lanes, results):
            request = lane.request
            labels, index, queries, rates, best = lane.state
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
                lane.state = [labels, index + 1, queries, rates, best]


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
