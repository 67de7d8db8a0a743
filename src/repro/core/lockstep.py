"""Stepwise attack protocol and lock-step distinguisher rounds.

The adaptive §VI attacks are, at heart, state machines: build a pair
(or set) of hypothesis helpers, ask a distinguisher which one the
device likes best, branch on the answer, repeat.  This module makes
that structure explicit so one attack can be executed two ways:

* **Scalar drive** — :func:`drive` on a
  :class:`~repro.core.oracle.HelperDataOracle` answers each yielded
  request through the distinguishers' single-query walks
  (``FailureRateComparer.compare``,
  :func:`~repro.core.framework.select_hypothesis`,
  ``SPRTDistinguisher.test``, single queries).  This is the executable
  equivalence reference.
* **Lock-step rounds** — on a
  :class:`~repro.core.batch_oracle.BatchOracle` a request is a
  :class:`Lane` advanced by :func:`step`.  Each request type states
  its round once: ``take`` names the noise rows it takes and the
  ``(oracle, helper, rows, op)`` items it evaluates, ``walk`` runs the
  results through its distinguisher's own rule — the function the
  scalar drive runs too (``FailureRateComparer.walk``,
  ``SPRTDistinguisher.walk``,
  :func:`~repro.core.framework.scan_hypotheses`,
  :func:`until_success`).  One :func:`step` takes every lane's rows,
  evaluates the whole round through one frontier plan
  (:func:`~repro.core.batch_oracle.plan_frontier`), whatever the
  request types, walks each lane and unwinds the rows its walk did
  not use.  The campaign scheduler
  (:class:`repro.fleet.campaign.LockstepCampaign`) steps the pending
  request of every active device together; :func:`run_lane` steps one
  lane alone, which is how ``compare``, ``test``,
  ``select_hypothesis`` and :func:`execute_request` answer on a
  batched oracle.

A round's frontier has two routes.  Blocks whose extraction is a
described pair-column index — raw ``>=`` pairs (sequential), residual
``>=`` pairs (distiller) or residual Kendall pairs (group-based
helpers made of pairs, every §VI-C hypothesis), hardened ones with
their gap check — and whose completion is a bare code-offset sketch
are stacked per stack key, with or without a trajectory and a lone
block as a group of one: one gather, trend subtraction, compare,
dedup, payload shift and key check per group.  Every other block
keeps its own ``plan_rows``.  Planning draws from no stream: a
query's sensor read (temp-aware) is taken with its noise row, so the
order in which a round evaluates its items cannot matter.  The
kernel phase then makes one fused call per distinct kernel key across
the whole frontier.

**Described hypotheses.**  The §VI-A and §VI-C attacks send their
comparisons as described manipulations of the enrolled helper
(:class:`~repro.keygen.batch.DescribedHelper`): flips plus a swap, or
one member of a §VI-C hypothesis pair.  On the lock-step path the
keygen turns each into the arrays a stacked group reads
(:class:`~repro.keygen.batch.PairBlock`), so no helper, evaluator or
completion object is built per comparison; the scalar oracle, and any
item the keygen cannot describe, evaluates ``descriptor.apply`` of
the enrolled helper instead, in every request type.

**Equivalence contract.**  Each device owns its oracle, its noise
stream and any sensor stream, and has one lane per round; a lane only ever consumes rows
from its own oracle in request order, unwinding speculative tails,
and walks every result through the one rule function the scalar walk
uses, carrying its state between rounds.  Memos are per device, so no
item sees another lane's memo update from the same round, and the
frontier plan is bitwise-identical for every composition: merging
request types into one round changes only the order *across*
devices.  Decisions, per-request query counts, recovered keys and
final stream positions are therefore **bitwise-identical** to the
scalar per-device loop for every batch composition — asserted in
``tests/fleet/test_campaign.py``, ``tests/core/test_lane_walks.py``,
``tests/core/test_lockstep_rounds.py`` and
``benchmarks/bench_attack_lockstep.py``.  The one observable
difference is the device stream itself, which advances by the
speculated rows (a ``stop_on_success`` probe speculates its whole
block); the oracle's counter and every later reply do not.

An attack participates by exposing ``steps()``: a generator yielding
:class:`ComparisonRequest`, :class:`SelectionRequest`,
:class:`SPRTRequest` or :class:`QueryBlockRequest` objects, receiving
the matching outcome back at each ``yield``, and returning its result
object.  ``run()`` keeps working on any oracle via :func:`drive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
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
from repro.core.framework import (
    ComparisonOutcome,
    FailureRateComparer,
    SelectionOutcome,
    scan_hypotheses,
    select_hypothesis,
)
from repro.core.oracle import HelperDataOracle
from repro.core.sprt import SPRTDistinguisher, SPRTOutcome
from repro.keygen.base import OperatingPoint

#: A stepwise attack: yields requests, receives outcomes, returns its
#: result object.
AttackSteps = Generator

#: One evaluation of a round: ``(oracle, helper, rows, op)``.
Item = Tuple[BatchOracle, object, np.ndarray, Optional[OperatingPoint]]

#: What a request takes in one round: its rows and the items they feed.
Round = Tuple[np.ndarray, List[Item]]

#: What a lane's walk leaves: rows used, carry, outcome (``None`` while
#: the request is still pending).
Walked = Tuple[int, object, Optional[object]]


def _one_block(oracle: BatchOracle, helper, count: int,
               op: Optional[OperatingPoint]) -> Round:
    """Take *count* rows, all evaluated under *helper*."""
    rows = oracle.take_rows(count)
    return rows, [(oracle, helper, rows, op)]


def until_success(outcomes) -> np.ndarray:
    """The stop-on-success rule: *outcomes* up to and including the
    first success, or all of them.  The scalar probe feeds it lazy
    single queries, a probe lane its speculated block."""
    walked: List[bool] = []
    for ok in outcomes:
        walked.append(bool(ok))
        if ok:
            break
    return np.array(walked, dtype=bool)


# ----------------------------------------------------------------------
# request protocol


@dataclass(frozen=True)
class ComparisonRequest:
    """Ask which of two helpers fails less often (paired Hoeffding).

    Answered with a :class:`~repro.core.framework.ComparisonOutcome`.
    ``comparer`` carries the stopping rules; the scalar drive calls it
    directly, a lane walks its blocks through
    :meth:`~repro.core.framework.FailureRateComparer.walk`.  The
    §VI-A and §VI-C attacks send each helper as a described
    manipulation of the enrolled one
    (:class:`~repro.keygen.batch.DescribedHelper`): a lane stacks its
    arrays, the scalar oracle materialises it.
    """

    helper_a: object
    helper_b: object
    comparer: FailureRateComparer = field(
        default_factory=FailureRateComparer)
    op: Optional[OperatingPoint] = None

    #: paired samples a lane takes per round
    block = 8

    def take(self, oracle: BatchOracle, carry) -> Round:
        """One block of paired samples: even rows feed helper *a*, odd
        rows *b* (the sequential interleave)."""
        samples = carry[2] if carry else 0
        rows = oracle.take_rows(2 * min(
            self.block, self.comparer.max_queries_per_side - samples))
        return rows, [(oracle, self.helper_a, rows[0::2], self.op),
                      (oracle, self.helper_b, rows[1::2], self.op)]

    def walk(self, carry, results: Sequence[np.ndarray]) -> Walked:
        """Walk the block through the comparer's rule, carrying
        ``(failures_a, failures_b, samples)``."""
        comparer = self.comparer
        prior = carry or (0, 0, 0)
        out_a, out_b = results
        carry, stopped, separated = comparer.walk(
            prior, out_a.tolist(), out_b.tolist())
        used = 2 * (carry[2] - prior[2])
        if stopped or carry[2] >= comparer.max_queries_per_side:
            return used, carry, comparer.outcome(carry, separated)
        return used, carry, None


@dataclass(frozen=True)
class SelectionRequest:
    """Ask which of many labelled helpers fails least (arg-min scan).

    Answered with a :class:`~repro.core.framework.SelectionOutcome`.
    Hypotheses are scanned in dict order with the fixed per-hypothesis
    budget; with *early_stop* a zero-failure hypothesis ends the scan.
    A lane evaluates one hypothesis's full budget per round.
    """

    helpers: Dict[Hashable, object]
    queries_per_hypothesis: int = 8
    op: Optional[OperatingPoint] = None
    early_stop: bool = True

    def __post_init__(self) -> None:
        if not self.helpers:
            raise ValueError("need at least one hypothesis")
        if self.queries_per_hypothesis < 1:
            raise ValueError("need at least one query per hypothesis")

    def _label(self, carry) -> Hashable:
        """The next label in dict order: the first without a rate."""
        scanned = len(carry[0]) if carry else 0
        return next(islice(self.helpers, scanned, None))

    def take(self, oracle: BatchOracle, carry) -> Round:
        """The next hypothesis's full budget."""
        return _one_block(oracle, self.helpers[self._label(carry)],
                          self.queries_per_hypothesis, self.op)

    def walk(self, carry, results: Sequence[np.ndarray]) -> Walked:
        """Feed the hypothesis's failure count to the scan."""
        (outcomes,) = results
        counts = [(self._label(carry),
                   int(np.count_nonzero(~outcomes)))]
        carry, outcome = scan_hypotheses(
            carry, counts, self.queries_per_hypothesis,
            len(self.helpers), self.early_stop)
        return len(outcomes), carry, outcome


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

    #: observations a lane takes per round
    block = 16

    def take(self, oracle: BatchOracle, carry) -> Round:
        """The next block of observations, within the budget."""
        queries = carry[2] if carry else 0
        return _one_block(oracle, self.helper, min(
            self.block, self.distinguisher.max_queries - queries),
            self.op)

    def walk(self, carry, results: Sequence[np.ndarray]) -> Walked:
        """Walk the block through the Wald rule, carrying ``(llr,
        failures, queries)``."""
        sprt = self.distinguisher
        prior = carry or (0.0, 0, 0)
        (outcomes,) = results
        carry, decision = sprt.walk(prior, outcomes.tolist())
        used = carry[2] - prior[2]
        if decision is not None or carry[2] >= sprt.max_queries:
            return used, carry, sprt.outcome(carry, decision)
        return used, carry, None


@dataclass(frozen=True)
class QueryBlockRequest:
    """Ask for raw reconstruction outcomes under one helper.

    Answered with a boolean success vector.  With *stop_on_success*
    the walk ends at the first success (the §VI-A candidate-resolution
    probe, :func:`until_success`), so the reply may be shorter than
    *count*; its length is the number of queries consumed either way.
    A lane answers in one round, a probe by speculating the whole
    block and unwinding the tail.
    """

    helper: object
    count: int
    op: Optional[OperatingPoint] = None
    stop_on_success: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one query")

    def take(self, oracle: BatchOracle, carry) -> Round:
        """The whole block."""
        return _one_block(oracle, self.helper, self.count, self.op)

    def walk(self, carry, results: Sequence[np.ndarray]) -> Walked:
        """The block, cut after its first success for a probe."""
        (outcomes,) = results
        if self.stop_on_success:
            outcomes = until_success(outcomes.tolist())
        return len(outcomes), carry, outcomes


#: Every protocol request type.
REQUEST_TYPES = (ComparisonRequest, SelectionRequest, SPRTRequest,
                 QueryBlockRequest)


# ----------------------------------------------------------------------
# executors


def execute_request(request, oracle) -> object:
    """Execute one protocol request against one oracle.

    A :class:`~repro.core.batch_oracle.BatchOracle` answers through
    :func:`run_lane`.  Any other oracle answers through the scalar
    single-query walks — the reference, reproducing the pre-stepwise
    attack drivers query for query.  Both accept described helpers in
    every request type.
    """
    if isinstance(oracle, BatchOracle):
        return run_lane(oracle, request)
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
        outcomes = (oracle.query(request.helper, request.op)
                    for _ in range(request.count))
        if request.stop_on_success:
            return until_success(outcomes)
        return np.array(list(outcomes), dtype=bool)
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

    Each yielded request is answered via :func:`execute_request` and
    the generator's return value is handed back.  Works with both the
    scalar :class:`~repro.core.oracle.HelperDataOracle` (the reference
    executor) and the :class:`~repro.core.batch_oracle.BatchOracle`.
    """
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = execute_request(request, oracle)


# ----------------------------------------------------------------------
# lock-step rounds


class Lane:
    """One device's seat in a lock-step round: oracle + pending request.

    ``state`` is the request's walk carry between rounds (a
    comparison's or Wald walk's counts, a scan's rates); it lives on
    the lane, so an abandoned campaign cannot leak stale state into a
    recycled object id.  ``outcome`` is set by the round in which the
    request completes.
    """

    def __init__(self, oracle: BatchOracle, request) -> None:
        if not isinstance(request, REQUEST_TYPES):
            raise TypeError(
                f"not a lock-step protocol request: {request!r}")
        self.oracle = oracle
        self.request = request
        self.outcome: Optional[object] = None
        self.state: Optional[object] = None

    @property
    def finished(self) -> bool:
        """Whether the pending request has produced its outcome."""
        return self.outcome is not None


def step(lanes: Sequence[Lane]) -> None:
    """Advance every lane by one round; set ``lane.outcome`` when a
    lane's request completes.

    Every lane takes its round's rows from its own oracle, the items
    of all lanes — whatever their request types — are evaluated
    through one frontier plan, and each lane walks its results and
    unwinds the rows its walk did not use.  Lanes must hold distinct
    oracles over distinct sensor streams, as
    :class:`~repro.fleet.campaign.LockstepCampaign` checks.
    """
    rounds = [lane.request.take(lane.oracle, lane.state)
              for lane in lanes]
    results = plan_frontier(
        [item for _, items in rounds for item in items]).execute()
    end = 0
    for lane, (rows, items) in zip(lanes, rounds):
        start, end = end, end + len(items)
        used, lane.state, lane.outcome = lane.request.walk(
            lane.state, results[start:end])
        if used < len(rows):
            lane.oracle.untake_rows(rows[used:])


def run_lane(oracle: BatchOracle, request) -> object:
    """Answer one request on one batched oracle: :func:`step` looped
    over a single lane."""
    lane = Lane(oracle, request)
    while not lane.finished:
        step([lane])
    return lane.outcome
