"""Sequential probability ratio test (SPRT) distinguisher.

An efficiency extension over the Hoeffding-based
:class:`~repro.core.framework.FailureRateComparer`: when the attacker
can calibrate the two failure rates a hypothesis pair produces (which
the Fig. 5 engineering makes predictable — ``p_low`` just below the ECC
boundary, ``p_high`` just above), Wald's SPRT reaches a decision with
close to the information-theoretic minimum number of queries.

The test here distinguishes, for a *single* manipulated helper, between

* ``H_eq``  — the manipulation introduced no extra errors; failures
  occur with probability ``p_low``;
* ``H_neq`` — the manipulation introduced extra errors; failures occur
  with probability ``p_high``.

It therefore needs only *one* helper (no paired reference), halving the
per-decision query count in the near-deterministic regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.batch_oracle import BatchOracle
from repro.core.oracle import HelperDataOracle
from repro.keygen.base import OperatingPoint


@dataclass(frozen=True)
class SPRTOutcome:
    """Decision of one sequential test.

    ``decision`` is ``"eq"``, ``"neq"`` or ``"undecided"`` (budget
    exhausted between the Wald boundaries — resolved by proximity).
    """

    decision: str
    queries: int
    failures: int
    log_likelihood_ratio: float


class SPRTDistinguisher:
    """Wald's SPRT over Bernoulli failure observations.

    Parameters
    ----------
    p_low, p_high:
        Calibrated failure probabilities under the equal / unequal
        hypotheses.  The attacker estimates them once per device from a
        handful of calibration queries (see :meth:`calibrate`).
    alpha, beta:
        Tolerated false-accept probabilities for ``H_neq`` and
        ``H_eq`` respectively.
    max_queries:
        Hard budget; on exhaustion the sign of the likelihood ratio
        decides.
    """

    def __init__(self, p_low: float, p_high: float,
                 alpha: float = 1e-3, beta: float = 1e-3,
                 max_queries: int = 200):
        if not 0.0 <= p_low < p_high <= 1.0:
            raise ValueError("need 0 <= p_low < p_high <= 1")
        if not (0.0 < alpha < 0.5 and 0.0 < beta < 0.5):
            raise ValueError("alpha and beta must be in (0, 0.5)")
        if max_queries < 1:
            raise ValueError("max_queries must be positive")
        # Clamp away from {0, 1} so the log-likelihood stays finite.
        self._p_low = min(max(p_low, 1e-6), 1 - 1e-6)
        self._p_high = min(max(p_high, 1e-6), 1 - 1e-6)
        self._upper = math.log((1.0 - beta) / alpha)
        self._lower = math.log(beta / (1.0 - alpha))
        self._llr_fail = math.log(self._p_high / self._p_low)
        self._llr_success = math.log((1.0 - self._p_high)
                                     / (1.0 - self._p_low))
        self._max = int(max_queries)

    @property
    def p_low(self) -> float:
        """Hypothesised failure rate of the lower-rate model."""
        return self._p_low

    @property
    def p_high(self) -> float:
        """Hypothesised failure rate of the higher-rate model."""
        return self._p_high

    @property
    def max_queries(self) -> int:
        """Hard per-test query budget."""
        return self._max

    @classmethod
    def from_counts(cls, fails_eq: int, fails_neq: int, queries: int,
                    **kwargs) -> "SPRTDistinguisher":
        """Build from two calibration failure counts.

        The one place the Laplace-smoothed rate estimates and the
        separation guard live: :meth:`calibrate` and the stepwise
        attack calibration
        (``SequentialPairingAttack._sprt_relations_steps``) both feed
        their observed counts through here, so the two paths cannot
        drift apart.
        """
        p_low = (fails_eq + 1) / (queries + 2)
        p_high = (fails_neq + 1) / (queries + 2)
        if p_high <= p_low:
            raise ValueError(
                "calibration helpers are not separated; increase the "
                "injected error count")
        return cls(p_low, p_high, **kwargs)

    @classmethod
    def calibrate(cls, oracle: HelperDataOracle, helper_eq, helper_neq,
                  queries: int = 30,
                  op: Optional[OperatingPoint] = None,
                  **kwargs) -> "SPRTDistinguisher":
        """Estimate ``p_low`` / ``p_high`` from two reference helpers.

        *helper_eq* should carry the injected offset only;
        *helper_neq* the offset plus a known extra error (e.g. a known
        orientation flip).  A Laplace-smoothed estimate keeps the
        probabilities off the boundary.
        """
        # Imported here: lockstep depends on this module at import
        # time.
        from repro.core.lockstep import QueryBlockRequest, execute_request
        fails_eq, fails_neq = (
            int(np.count_nonzero(~execute_request(
                QueryBlockRequest(helper, queries, op), oracle)))
            for helper in (helper_eq, helper_neq))
        return cls.from_counts(fails_eq, fails_neq, queries, **kwargs)

    def walk(self, carry: Tuple[float, int, int], outcomes
             ) -> Tuple[Tuple[float, int, int], Optional[str]]:
        """Extend a Wald walk by the next observations.

        *carry* is ``(llr, failures, queries)`` so far; *outcomes*
        yields the next reconstruction successes.  Returns the new
        carry and ``"neq"`` / ``"eq"`` at the first boundary crossing
        (the carry's last observation), else ``None``.  The scalar
        oracle and every lock-step lane (a lone one on a
        :class:`~repro.core.batch_oracle.BatchOracle` too) walk their
        observations through this one function.
        """
        llr, failures, queries = carry
        for ok in outcomes:
            queries += 1
            if ok:
                llr += self._llr_success
            else:
                failures += 1
                llr += self._llr_fail
            if llr >= self._upper:
                return (llr, failures, queries), "neq"
            if llr <= self._lower:
                return (llr, failures, queries), "eq"
        return (llr, failures, queries), None

    @staticmethod
    def outcome(carry: Tuple[float, int, int],
                decision: Optional[str]) -> SPRTOutcome:
        """Turn a finished :meth:`walk` into the test's outcome; an
        exhausted budget is decided by the likelihood ratio's sign."""
        llr, failures, queries = carry
        if decision is None:
            decision = "neq" if llr > 0 else "eq"
        return SPRTOutcome(decision, queries, failures, llr)

    def test(self, oracle: HelperDataOracle, helper,
             op: Optional[OperatingPoint] = None) -> SPRTOutcome:
        """Run the sequential test against one manipulated helper.

        A scalar oracle is walked query by query.  A
        :class:`~repro.core.batch_oracle.BatchOracle` answers through
        one lock-step lane (:func:`repro.core.lockstep.run_lane`):
        observation blocks walked through :meth:`walk`, tail rows past
        the first boundary crossing unwound, so outcome, query count
        and oracle state match the scalar walk bitwise.
        """
        if isinstance(oracle, BatchOracle):
            # Imported here: lockstep depends on this module at import
            # time for the outcome vocabulary and the walk.
            from repro.core.lockstep import SPRTRequest, run_lane
            return run_lane(oracle, SPRTRequest(self, helper, op))
        return self.outcome(*self.walk(
            (0.0, 0, 0),
            (oracle.query(helper, op) for _ in range(self._max))))

    def expected_queries(self, true_p: float) -> float:
        """Wald's approximation of E[queries] at failure rate *true_p*.

        Useful for planning: in the engineered near-deterministic regime
        this evaluates to a small single-digit number.
        """
        true_p = min(max(true_p, 1e-9), 1 - 1e-9)
        drift = (true_p * self._llr_fail
                 + (1 - true_p) * self._llr_success)
        if drift == 0.0:
            return float(self._max)
        target = self._upper if drift > 0 else self._lower
        return min(abs(target / drift), float(self._max))
