"""Statistical framework of the helper-data manipulation attacks
(paper §VI, Fig. 5).

Response bits are attacked one by one (or in small groups).  Each
hypothesis about the bits corresponds to a specific helper-data
manipulation; the hypotheses are distinguished by their key-regeneration
*failure rates*: the correct hypothesis leaves the error count at the
ECC input lower, hence fails less often.  Error injection shifts all
hypotheses' error PDFs toward the correction boundary ``t`` so that the
rate gap becomes observable with few queries (the "common offset" of
Fig. 5).

Two distinguishers are provided:

* :class:`FailureRateComparer` — paired adaptive comparison of two
  helpers with Hoeffding early stopping; used when hypotheses form a
  binary choice (equal/unequal, 0/1).
* :func:`select_hypothesis` — fixed-budget arg-min selection over many
  labelled helpers; used for the multi-bit ``2^u``-hypothesis variants
  (paper Fig. 6c).

Each rule is one walk function (:meth:`FailureRateComparer.walk`,
:func:`scan_hypotheses`) that the single-query path feeds lazily and a
lock-step lane (:mod:`repro.core.lockstep`) feeds one evaluated block
per round — alone on a :class:`~repro.core.batch_oracle.BatchOracle`,
or beside whole device batches in a campaign — so decisions, query
counts and stream positions match the single-query walk bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.core.batch_oracle import BatchOracle
from repro.core.oracle import HelperDataOracle
from repro.keygen.base import OperatingPoint, key_check_digest


@dataclass(frozen=True)
class ComparisonOutcome:
    """Result of a paired failure-rate comparison.

    ``decision`` is ``"a"`` or ``"b"`` for the helper with the *lower*
    estimated failure rate, or ``"tie"`` when the budget ran out without
    statistically meaningful separation.
    """

    decision: str
    queries: int
    failures_a: int
    failures_b: int
    samples: int

    @property
    def rate_a(self) -> float:
        """Empirical failure rate of helper ``a``."""
        return self.failures_a / self.samples if self.samples else 0.0

    @property
    def rate_b(self) -> float:
        """Empirical failure rate of helper ``b``."""
        return self.failures_b / self.samples if self.samples else 0.0


class FailureRateComparer:
    """Adaptive paired comparison of two helpers' failure rates.

    Samples the two helpers in paired a/b order and stops as soon as
    the empirical rate difference exceeds a two-sided Hoeffding bound
    at the configured confidence, or when the per-side budget is
    exhausted (then resolving by a two-proportion z-test, with
    ``"tie"`` on insignificance).  Despite the sequential decision
    rule, queries are *not* issued one at a time on a batched oracle:
    a scalar oracle is walked query by query, while a lock-step lane
    (:mod:`repro.core.lockstep`) takes speculative vectorized blocks,
    walks them through the same rule and unwinds the unused rows —
    alone, or in rounds shared with many devices.  Every path lands on
    bitwise-identical decisions and query counts.
    """

    def __init__(self, max_queries_per_side: int = 40,
                 min_queries_per_side: int = 3,
                 confidence: float = 0.999,
                 identical_stop: Optional[int] = 6):
        """
        Parameters
        ----------
        identical_stop:
            When both helpers show *identical extreme* behaviour (both
            zero failures, or both all failures) after this many paired
            samples, stop and report a tie.  In the engineered Fig. 5
            regime — injection placing the correct hypothesis just below
            the ECC boundary and a wrong one just above — "both never
            fail" already refutes the unequal hypothesis, so waiting for
            the full budget is wasted queries.  Set ``None`` to disable
            for un-engineered comparisons.
        """
        if not 0.5 < confidence < 1.0:
            raise ValueError("confidence must be in (0.5, 1)")
        if min_queries_per_side < 1:
            raise ValueError("min_queries_per_side must be positive")
        if max_queries_per_side < min_queries_per_side:
            raise ValueError("max budget below minimum budget")
        self._max = int(max_queries_per_side)
        self._min = int(min_queries_per_side)
        self._confidence = float(confidence)
        self._identical_stop = (None if identical_stop is None
                                else int(identical_stop))
        self._bounds: Dict[int, float] = {}

    @property
    def max_queries_per_side(self) -> int:
        """Per-helper query budget of one comparison."""
        return self._max

    @property
    def min_queries_per_side(self) -> int:
        """Paired samples required before any stopping rule applies."""
        return self._min

    @property
    def confidence(self) -> float:
        """Two-sided confidence level of the Hoeffding stopping rule."""
        return self._confidence

    @property
    def identical_stop(self) -> Optional[int]:
        """Identical-extremes early-stop threshold (``None`` = off)."""
        return self._identical_stop

    def _bound(self, samples: int) -> float:
        """Hoeffding bound on the difference of two Bernoulli means.

        Memoised per sample count: every walk asks for it at each of
        its samples, and a comparer serves a whole attack.
        """
        bound = self._bounds.get(samples)
        if bound is None:
            delta = 1.0 - self._confidence
            bound = self._bounds[samples] = 2.0 * math.sqrt(
                math.log(2.0 / delta) / (2.0 * samples))
        return bound

    @staticmethod
    def _significant(failures_a: int, failures_b: int,
                     samples: int, z_threshold: float = 3.0) -> bool:
        """Two-proportion z-test at budget exhaustion.

        A raw-majority decision on exhaustion would turn two *equal*
        moderate failure rates into a coin flip; insignificant
        differences must resolve to a tie instead.
        """
        p_a = failures_a / samples
        p_b = failures_b / samples
        variance = (p_a * (1 - p_a) + p_b * (1 - p_b)) / samples
        if variance == 0.0:
            return p_a != p_b
        return abs(p_a - p_b) / math.sqrt(variance) > z_threshold

    def walk(self, carry: Tuple[int, int, int], outcomes_a,
             outcomes_b) -> Tuple[Tuple[int, int, int], bool, bool]:
        """Advance the stopping rules over paired outcomes.

        *carry* is ``(failures_a, failures_b, samples)`` so far;
        *outcomes_a* / *outcomes_b* yield the next paired successes
        (``True`` = reconstructed).  Returns the new carry, whether a
        rule stopped the walk (at the carry's last sample) and whether
        that stop separated the helpers.  Every path — the scalar
        oracle and each lock-step lane, a lone one on a
        :class:`~repro.core.batch_oracle.BatchOracle` too — walks its
        samples through this one function, so they decide identically
        by construction.
        """
        failures_a, failures_b, samples = carry
        for ok_a, ok_b in zip(outcomes_a, outcomes_b):
            failures_a += 0 if ok_a else 1
            failures_b += 0 if ok_b else 1
            samples += 1
            if samples < self._min:
                continue
            carry = (failures_a, failures_b, samples)
            # Fast path: perfectly separated outcomes.  If one helper
            # never failed while the other always did, the posterior odds
            # of the rates being equal decay as 2^-samples; a handful of
            # samples already beats the Hoeffding criterion by orders of
            # magnitude (the near-deterministic regime the error
            # injection engineers on purpose).
            if {failures_a, failures_b} == {0, samples}:
                return carry, True, True
            if (self._identical_stop is not None
                    and samples >= self._identical_stop
                    and failures_a == failures_b
                    and failures_a in (0, samples)):
                return carry, True, False
            gap = abs(failures_a - failures_b) / samples
            if gap > self._bound(samples):
                return carry, True, True
        return (failures_a, failures_b, samples), False, False

    def outcome(self, carry: Tuple[int, int, int],
                separated: bool) -> ComparisonOutcome:
        """Turn a finished :meth:`walk` into the comparison's outcome.

        A walk that ended without a separating stop (identical
        extremes or budget exhaustion) falls back to
        :meth:`_significant`.
        """
        failures_a, failures_b, samples = carry
        if not separated:
            separated = self._significant(failures_a, failures_b,
                                          samples)
        if not separated or failures_a == failures_b:
            decision = "tie"
        elif failures_a < failures_b:
            decision = "a"
        else:
            decision = "b"
        return ComparisonOutcome(decision, 2 * samples, failures_a,
                                 failures_b, samples)

    def compare(self, oracle: HelperDataOracle, helper_a, helper_b,
                op: Optional[OperatingPoint] = None) -> ComparisonOutcome:
        """Decide which helper fails less often.

        A scalar oracle is walked query by query.  A
        :class:`~repro.core.batch_oracle.BatchOracle` answers through
        one lock-step lane (:func:`repro.core.lockstep.run_lane`):
        blocks of paired samples, each walked through :meth:`walk`,
        unused rows unwound, so decisions, per-comparison query counts
        and the oracle's stream position match the scalar walk
        bitwise.
        """
        if isinstance(oracle, BatchOracle):
            # Imported here: lockstep depends on this module at import
            # time for the outcome vocabulary and the walks.
            from repro.core.lockstep import ComparisonRequest, run_lane
            return run_lane(oracle, ComparisonRequest(helper_a, helper_b,
                                                      self, op))
        # zip pulls a, then b: the paired query order of one sample.
        budget = range(self._max)
        carry, _, separated = self.walk(
            (0, 0, 0), (oracle.query(helper_a, op) for _ in budget),
            (oracle.query(helper_b, op) for _ in budget))
        return self.outcome(carry, separated)


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of an arg-min hypothesis selection."""

    label: Hashable
    queries: int
    rates: Dict[Hashable, float]


#: An arg-min scan's carry: the failure rate of every scanned
#: hypothesis, in scan order, and the lowest ``(rate, label)``.
ScanCarry = Tuple[Dict[Hashable, float], Tuple[float, Hashable]]


def scan_hypotheses(carry: Optional[ScanCarry],
                    counts: Iterable[Tuple[Hashable, int]],
                    budget: int, size: int, early_stop: bool
                    ) -> Tuple[ScanCarry, Optional[SelectionOutcome]]:
    """Advance the arg-min scan over per-hypothesis failure counts.

    *carry* is the scan so far (``None`` before the first hypothesis;
    its rates are extended in place); *counts* yields the next
    hypotheses' ``(label, failures)`` over *budget* queries each.  The
    first lowest rate wins ties.  The scan ends after a zero-failure
    hypothesis with *early_stop*, or after the last of *size*
    hypotheses; returns the new carry and then the outcome, else
    ``None``.  :func:`select_hypothesis` feeds it lazily from scalar
    queries and a lock-step selection lane one count per round, so
    both decide identically by construction.
    """
    rates, best = carry or ({}, (math.inf, None))
    for label, failures in counts:
        rate = failures / budget
        rates[label] = rate
        if rate < best[0]:
            best = (rate, label)
        if (early_stop and failures == 0) or len(rates) == size:
            return (rates, best), SelectionOutcome(
                best[1], len(rates) * budget, rates)
    return (rates, best), None


def select_hypothesis(oracle: HelperDataOracle,
                      helpers: Dict[Hashable, object],
                      queries_per_hypothesis: int = 8,
                      op: Optional[OperatingPoint] = None,
                      early_stop: bool = True) -> SelectionOutcome:
    """Pick the hypothesis whose helper data fails least often.

    With *early_stop*, a hypothesis that records zero failures over its
    full budget short-circuits the scan — with well-chosen error
    injection only the correct hypothesis behaves that way, which is
    what keeps the ``2^u`` multi-bit variants affordable.  A scalar
    oracle feeds :func:`scan_hypotheses` one hypothesis at a time; a
    :class:`~repro.core.batch_oracle.BatchOracle` answers through one
    lock-step lane (:func:`repro.core.lockstep.run_lane`), one
    hypothesis's budget per round.
    """
    # Imported here: lockstep depends on this module at import time
    # for the outcome vocabulary and the walks.
    from repro.core.lockstep import SelectionRequest, run_lane

    request = SelectionRequest(helpers, queries_per_hypothesis, op,
                               early_stop)
    if isinstance(oracle, BatchOracle):
        return run_lane(oracle, request)
    budget = range(queries_per_hypothesis)
    counts = ((label, sum(0 if oracle.query(helper, op) else 1
                          for _ in budget))
              for label, helper in helpers.items())
    return scan_hypotheses(None, counts, queries_per_hypothesis,
                           len(helpers), early_stop)[1]


def repair_with_commitment(key: np.ndarray, commitment: bytes,
                           max_flips: int = 2) -> Optional[np.ndarray]:
    """Offline low-weight repair of a recovered key against the public
    key-check commitment.

    Marginal response bits (|Δf| comparable to the noise floor) are
    genuine coin flips at reconstruction time, so a statistical attack
    can land on the opposite side of the value frozen at enrollment.
    Because the commitment digest is itself *public helper data*, the
    attacker fixes such bits for free: enumerate all flip patterns up to
    weight *max_flips* and test digests offline — zero device queries.

    Returns the corrected key, the unmodified key when it already
    matches, or ``None`` if no candidate within the radius matches.
    """
    key = np.asarray(key, dtype=np.uint8)
    if key_check_digest(key) == commitment:
        return key.copy()
    positions = range(key.shape[0])
    for weight in range(1, max_flips + 1):
        for flips in combinations(positions, weight):
            candidate = key.copy()
            candidate[list(flips)] ^= 1
            if key_check_digest(candidate) == commitment:
                return candidate
    return None
