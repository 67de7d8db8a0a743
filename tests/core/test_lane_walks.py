"""Lock-step lanes walk their samples exactly as the scalar rule does.

Lanes of every request type are stepped over many heterogeneous
lanes at once, with the round's frontier evaluation replaced by
scripted outcomes: each lane's oracle holds one boolean stream, and
noise row ``r`` of that lane reconstructs iff ``stream[r]``.  Every
lane's outcome, untaken row count and query counter is compared with
a literal per-sample reference loop kept here (paired interleave:
sample ``i`` reads rows ``2i`` / ``2i + 1``), and with the scalar path
(the distinguisher's own, ``select_hypothesis`` or
``execute_request``) on an oracle replaying the same stream.
"""

import math

import numpy as np
import pytest

from repro.core import SPRTDistinguisher, lockstep
from repro.core.framework import (
    ComparisonOutcome,
    FailureRateComparer,
    SelectionOutcome,
    select_hypothesis,
)
from repro.core.lockstep import (
    ComparisonRequest,
    Lane,
    QueryBlockRequest,
    SelectionRequest,
    SPRTRequest,
    execute_request,
    step,
)
from repro.core.sprt import SPRTOutcome


class ScriptedOracle:
    """Lane oracle over a scripted stream; counts taken/untaken rows."""

    def __init__(self, stream):
        self.stream = np.asarray(stream, dtype=bool)
        self.queries = 0
        self.untaken = 0

    def take_rows(self, count):
        rows = np.arange(self.queries, self.queries + count)
        self.queries += count
        return rows

    def untake_rows(self, rows):
        self.queries -= len(rows)
        self.untaken += len(rows)


class ScalarScriptOracle:
    """Single-query oracle replaying the same scripted stream."""

    def __init__(self, stream):
        self.stream = stream
        self.queries = 0

    def query(self, helper, op=None):
        self.queries += 1
        return bool(self.stream[self.queries - 1])


class ScriptedFrontier:
    """A round's frontier whose evaluation reads the lanes' scripts."""

    def __init__(self, items):
        self.items = items

    def execute(self):
        return [oracle.stream[rows] for oracle, _, rows, _ in self.items]


@pytest.fixture(autouse=True)
def scripted(monkeypatch):
    """Every round evaluates through :class:`ScriptedFrontier`."""
    monkeypatch.setattr(lockstep, "plan_frontier", ScriptedFrontier)


def run_lanes(lanes, entries, rounds=32):
    """Step *lanes* together for *rounds* rounds, lane ``i`` joining
    at round ``entries[i]``; every lane must have finished."""
    for round_ in range(rounds):
        active = [lane for lane, entry in zip(lanes, entries)
                  if entry <= round_ and not lane.finished]
        if active:
            step(active)
    assert all(lane.finished for lane in lanes)


def last_take_end(consumed, block, budget):
    """Rows a lane has taken when its walk stops after *consumed*."""
    rounds = max(1, -(-consumed // block))
    return min(rounds * block, budget)


# ----------------------------------------------------------------------
# paired comparisons


def reference_comparison(max_side, min_side, confidence, identical,
                         stream):
    """The paired Hoeffding walk, one sample at a time."""
    failures_a = failures_b = samples = 0
    separated = False
    for index in range(max_side):
        failures_a += 0 if stream[2 * index] else 1
        failures_b += 0 if stream[2 * index + 1] else 1
        samples += 1
        if samples < min_side:
            continue
        if ((failures_a == 0 and failures_b == samples)
                or (failures_b == 0 and failures_a == samples)):
            separated = True
            break
        if (identical is not None and samples >= identical
                and failures_a == failures_b
                and failures_a in (0, samples)):
            break
        bound = 2.0 * math.sqrt(math.log(2.0 / (1.0 - confidence))
                                / (2.0 * samples))
        if abs(failures_a - failures_b) / samples > bound:
            separated = True
            break
    if not separated:
        p_a = failures_a / samples
        p_b = failures_b / samples
        variance = (p_a * (1 - p_a) + p_b * (1 - p_b)) / samples
        separated = (p_a != p_b if variance == 0.0
                     else abs(p_a - p_b) / math.sqrt(variance) > 3.0)
    if not separated or failures_a == failures_b:
        decision = "tie"
    elif failures_a < failures_b:
        decision = "a"
    else:
        decision = "b"
    return ComparisonOutcome(decision, 2 * samples, failures_a,
                             failures_b, samples)


#: (max per side, min per side, confidence, identical stop)
COMPARERS = [
    (13, 3, 0.999, 6),
    (13, 3, 0.999999, None),
    (40, 10, 0.999, 6),
    (40, 10, 0.6, None),
    (40, 3, 0.6, 6),
    (24, 3, 0.999999, 6),
    (40, 12, 0.999999, None),
    (9, 9, 0.6, 6),
]

#: (failure rate of a, failure rate of b)
RATES = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.1, 0.6),
         (0.5, 0.5), (0.3, 0.4), (0.05, 0.0), (0.9, 0.2)]


#: (confidence, n, k): ``k / n`` lies within 0.7% of the Hoeffding
#: bound at ``n`` samples — above it for the first of each pair (the
#: walk stops at sample ``n``), below it for the second (it stops at
#: ``n + 1``).
KNIFE_EDGES = [(0.999, 29, 21), (0.999, 38, 24), (0.6, 31, 10),
               (0.6, 5, 4), (0.999999, 31, 30), (0.999999, 38, 33)]


def comparison_lanes(seed):
    """``(settings, stream, entry round, expected samples or None)``.

    Heterogeneous comparer settings × failure rates on random streams,
    plus knife-edge lanes (helper *a* never fails, helper *b* succeeds
    ``n - k`` times and then always fails, so its gap creeps up to the
    bound and crosses it at one known sample) and one lane that
    exhausts its budget.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for settings in COMPARERS:
        for rate_a, rate_b in RATES:
            max_side = settings[0]
            draws = rng.random((max_side, 2))
            stream = (draws >= (rate_a, rate_b)).reshape(-1)
            cases.append((settings, stream, int(rng.integers(0, 4)),
                          None))
    for index, (confidence, n, k) in enumerate(KNIFE_EDGES):
        stream = np.ones((40, 2), dtype=bool)
        stream[n - k:, 1] = False
        cases.append(((40, 3, confidence, None), stream.reshape(-1),
                      index % 3, n + index % 2))
    # a fails every other sample, b always: no rule stops before the
    # budget of 13, which is not a multiple of the block
    stream = np.zeros((13, 2), dtype=bool)
    stream[1::2, 0] = True
    cases.append(((13, 3, 0.999999, None), stream.reshape(-1), 1, 13))
    return cases


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_comparison_lanes_match_the_scalar_walk(seed):
    cases = comparison_lanes(seed)
    lanes, oracles = [], []
    for (max_side, min_side, confidence, identical), stream, _, _ in (
            cases):
        comparer = FailureRateComparer(max_side, min_side, confidence,
                                       identical)
        oracle = ScriptedOracle(stream)
        oracles.append(oracle)
        lanes.append(Lane(oracle, ComparisonRequest("a", "b",
                                                    comparer)))
    run_lanes(lanes, [entry for _, _, entry, _ in cases])

    decisions = set()
    for lane, oracle, (settings, stream, _, samples) in zip(
            lanes, oracles, cases):
        expected = reference_comparison(*settings, stream)
        if samples is not None:
            assert expected.samples == samples
        decisions.add(expected.decision)
        assert lane.outcome == expected, settings
        assert lane.request.comparer.compare(
            ScalarScriptOracle(stream), "a", "b") == expected
        assert oracle.queries == expected.queries
        taken = 2 * last_take_end(expected.samples, ComparisonRequest.block,
                                  settings[0])
        assert oracle.untaken == taken - expected.queries
    assert decisions == {"a", "b", "tie"}


# ----------------------------------------------------------------------
# Wald walks


def reference_sprt(p_low, p_high, alpha, beta, max_queries, stream):
    """Wald's walk, one observation at a time."""
    sprt = SPRTDistinguisher(p_low, p_high, alpha, beta, max_queries)
    p_low, p_high = sprt.p_low, sprt.p_high
    upper = math.log((1.0 - beta) / alpha)
    lower = math.log(beta / (1.0 - alpha))
    llr = 0.0
    failures = queries = 0
    for index in range(max_queries):
        queries += 1
        if stream[index]:
            llr += math.log((1.0 - p_high) / (1.0 - p_low))
        else:
            failures += 1
            llr += math.log(p_high / p_low)
        if llr >= upper:
            return SPRTOutcome("neq", queries, failures, llr)
        if llr <= lower:
            return SPRTOutcome("eq", queries, failures, llr)
    return SPRTOutcome("neq" if llr > 0 else "eq", queries, failures,
                       llr)


def block_edge_stream(length):
    """Alternating failure/success for 12 observations, then failures:
    with ``(0.2, 0.8, 0.01, 0.01)`` the walk crosses at observation 16,
    the last of the first block."""
    stream = np.ones(length, dtype=bool)
    stream[0:12:2] = False
    stream[12:] = False
    return stream


def sprt_lanes(seed):
    """``((p_low, p_high, alpha, beta, max), stream, entry, decided)``;
    *decided* is the observation the reference must decide at, or
    ``None`` when the case is random."""
    rng = np.random.default_rng(seed)
    alternating = np.tile([False, True], 20)
    cases = [
        # crosses on the first observation, either way
        ((0.01, 0.99, 0.1, 0.1, 40), np.zeros(40, bool), 0, 1),
        ((0.01, 0.99, 0.1, 0.1, 40), np.ones(40, bool), 1, 1),
        # crosses on the last observation of a block
        ((0.2, 0.8, 0.01, 0.01, 40), block_edge_stream(40), 0, 16),
        ((0.2, 0.8, 0.01, 0.01, 40), block_edge_stream(40), 2, 16),
        # exhausts a budget that is not a multiple of the block
        ((0.2, 0.8, 0.01, 0.01, 13), alternating[:13], 1, 13),
        ((0.2, 0.8, 0.01, 0.01, 40), alternating, 0, 40),
    ]
    for settings in [(0.05, 0.6, 1e-3, 1e-3, 200),
                     (0.3, 0.4, 0.01, 0.05, 37),
                     (0.1, 0.9, 0.2, 0.2, 16)]:
        for rate in (0.0, 0.05, 0.35, 0.6, 1.0):
            stream = rng.random(settings[-1]) >= rate
            cases.append((settings, stream, int(rng.integers(0, 4)),
                          None))
    return cases


@pytest.mark.parametrize("seed", [0, 1])
def test_sprt_lanes_match_the_scalar_walk(seed):
    cases = sprt_lanes(seed)
    lanes, oracles = [], []
    for settings, stream, _, _ in cases:
        oracle = ScriptedOracle(stream)
        oracles.append(oracle)
        lanes.append(Lane(oracle, SPRTRequest(
            SPRTDistinguisher(*settings), "h")))
    run_lanes(lanes, [entry for _, _, entry, _ in cases])

    for lane, oracle, (settings, stream, _, decided) in zip(
            lanes, oracles, cases):
        expected = reference_sprt(*settings, stream)
        if decided is not None:
            assert expected.queries == decided
        assert lane.outcome == expected, settings
        assert lane.request.distinguisher.test(
            ScalarScriptOracle(stream), "h") == expected
        assert oracle.queries == expected.queries
        taken = last_take_end(expected.queries, SPRTRequest.block,
                              settings[-1])
        assert oracle.untaken == taken - expected.queries


# ----------------------------------------------------------------------
# arg-min scans


def reference_selection(labels, budget, early_stop, stream):
    """The arg-min scan, one hypothesis at a time: hypothesis ``i``
    reads rows ``i * budget`` to ``(i + 1) * budget``."""
    rates = {}
    best_rate, best_label = math.inf, None
    for index, label in enumerate(labels):
        window = stream[index * budget:(index + 1) * budget]
        failures = sum(0 if ok else 1 for ok in window)
        rates[label] = failures / budget
        if failures / budget < best_rate:
            best_rate, best_label = failures / budget, label
        if early_stop and failures == 0:
            break
    return SelectionOutcome(best_label, len(rates) * budget, rates)


def failure_stream(failures, budget):
    """A stream whose hypothesis ``i`` fails ``failures[i]`` times."""
    return np.concatenate([np.arange(budget) >= count
                           for count in failures])


#: (labels, budget, early stop, per-hypothesis failures, entry round,
#: hypotheses the reference scans)
SELECTIONS = [
    # zero failures on the first, a middle and the last label
    ("abcd", 4, True, (0, 2, 1, 3), 0, 1),
    ("abcd", 4, True, (3, 2, 0, 1), 1, 3),
    ("abcd", 4, True, (3, 2, 1, 0), 2, 4),
    # no zero: the scan ends at the last label; a tie keeps the first
    ("abcd", 4, True, (3, 1, 2, 1), 3, 4),
    ((7, 3, 5), 5, True, (5, 5, 5), 0, 3),
    # early stop off: a zero does not end the scan
    ("abcd", 4, False, (2, 0, 1, 0), 1, 4),
    ("ab", 1, False, (0, 0), 3, 2),
    # one hypothesis
    ("a", 3, True, (2,), 2, 1),
    ("a", 3, False, (0,), 0, 1),
]


def test_selection_lanes_match_the_scan():
    lanes, oracles = [], []
    for labels, budget, early_stop, failures, _, _ in SELECTIONS:
        oracle = ScriptedOracle(failure_stream(failures, budget))
        oracles.append(oracle)
        lanes.append(Lane(oracle, SelectionRequest(
            {label: label for label in labels}, budget,
            early_stop=early_stop)))
    run_lanes(lanes, [case[4] for case in SELECTIONS])

    for lane, oracle, case in zip(lanes, oracles, SELECTIONS):
        labels, budget, early_stop, failures, _, scanned = case
        stream = failure_stream(failures, budget)
        expected = reference_selection(labels, budget, early_stop,
                                       stream)
        assert len(expected.rates) == scanned
        assert lane.outcome == expected, case
        assert list(lane.outcome.rates) == list(labels)[:scanned]
        assert select_hypothesis(
            ScalarScriptOracle(stream), {label: label for label in labels},
            budget, early_stop=early_stop) == expected
        assert oracle.queries == expected.queries
        assert oracle.untaken == 0


# ----------------------------------------------------------------------
# stop-on-success probes


def reference_probe(count, stream):
    """The probe, one query at a time up to the first success."""
    walked = []
    for index in range(count):
        walked.append(bool(stream[index]))
        if stream[index]:
            break
    return walked


#: (count, stream, entry round)
PROBES = [
    (3, [True, True, True], 0),      # success at the first row
    (3, [False, False, True], 1),    # ... at the last row
    (3, [False, False, False], 2),   # never
    (1, [True], 0),
    (1, [False], 3),
    (6, [False, True, False, True, True, True], 1),
]


@pytest.mark.parametrize("stop", [True, False])
def test_query_block_lanes_match_the_scalar_probe(stop):
    lanes, oracles = [], []
    for count, stream, _ in PROBES:
        oracle = ScriptedOracle(stream)
        oracles.append(oracle)
        lanes.append(Lane(oracle, QueryBlockRequest(
            "h", count, stop_on_success=stop)))
    run_lanes(lanes, [entry for _, _, entry in PROBES])

    for lane, oracle, (count, stream, _) in zip(lanes, oracles,
                                                 PROBES):
        expected = (reference_probe(count, stream) if stop
                    else list(stream))
        assert lane.outcome.dtype == bool
        assert lane.outcome.tolist() == expected
        scalar = execute_request(
            QueryBlockRequest("h", count, stop_on_success=stop),
            ScalarScriptOracle(stream))
        assert scalar.dtype == bool
        assert scalar.tolist() == expected
        assert oracle.queries == len(expected)
        assert oracle.untaken == count - len(expected)


# ----------------------------------------------------------------------
# every request type in one round


def test_mixed_lanes_share_one_frontier_per_round(monkeypatch):
    """Lanes of all four request types step together; every round
    evaluates one frontier and each lane ends as it does alone."""
    stream = np.tile([True, False, True, True, False, True], 20)
    requests = [
        ComparisonRequest("a", "b", FailureRateComparer(20, 3, 0.999999,
                                                        None)),
        SPRTRequest(SPRTDistinguisher(0.3, 0.4, 0.01, 0.05, 37), "h"),
        SelectionRequest({"x": 1, "y": 2, "z": 3}, 3, early_stop=False),
        QueryBlockRequest("h", 5, stop_on_success=True),
    ]
    alone = []
    for request in requests:
        lane = Lane(ScriptedOracle(stream), request)
        run_lanes([lane], [0])
        alone.append(lane.outcome)

    frontiers = []

    def counted(items):
        frontiers.append(len(items))
        return ScriptedFrontier(items)

    monkeypatch.setattr(lockstep, "plan_frontier", counted)
    lanes = [Lane(ScriptedOracle(stream), request)
             for request in requests]
    rounds = 0
    while not all(lane.finished for lane in lanes):
        step([lane for lane in lanes if not lane.finished])
        rounds += 1
    assert len(frontiers) == rounds > 1
    # round one: two comparison items, one each for the rest
    assert frontiers[0] == 5
    for lane, expected in zip(lanes, alone):
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(lane.outcome, expected)
        else:
            assert lane.outcome == expected
