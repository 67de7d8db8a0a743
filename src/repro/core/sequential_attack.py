"""Key-recovery attack on the sequential pairing construction
(paper §VI-A).

For every pair position ``j``, the attacker swaps helper-data positions
``0`` and ``j``: the swap is invisible iff ``r_0 = r_j`` and introduces
two bit errors otherwise.  With the error count pre-loaded to the ECC
boundary by deterministic injection, the two hypotheses separate
cleanly in the failure rate.  Matching ``r_0`` against every other bit
leaves two candidate keys (the vector and its complement); the final
decision writes candidate-consistent ECC redundancy plus key-check and
observes which candidate the application accepts.

Reproduction note (recorded in EXPERIMENTS.md): for *narrow-sense BCH*
codes the all-ones word is a codeword, so complement candidates are
*indistinguishable* through ECC-redundancy manipulation alone — the
code-offset sketch recovers the true response either way.  The final
decision therefore goes through the application commitment (key check),
which is itself writable helper data; with a non-complement-closed code
the paper's pure-ECC comparison works as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.framework import (
    ComparisonOutcome,
    FailureRateComparer,
    repair_with_commitment,
)
from repro.core.injection import flip_orientations
from repro.core.lockstep import (
    AttackSteps,
    ComparisonRequest,
    QueryBlockRequest,
    SPRTRequest,
    drive,
    outcome_queries,
)
from repro.core.oracle import HelperDataOracle
from repro.keygen.base import OperatingPoint, key_check_digest
from repro.keygen.sequential import (
    PairingHypotheses,
    PairingManipulation,
    SequentialKeyHelper,
    SequentialPairingKeyGen,
)


@dataclass(frozen=True)
class SequentialAttackResult:
    """Outcome of the §VI-A attack.

    ``relations[j]`` is the recovered value of ``r_0 XOR r_j`` (index 0
    is 0 by definition).  ``key`` is the fully resolved key when the
    final decision step ran, else ``None``.
    """

    relations: np.ndarray
    key: Optional[np.ndarray]
    queries: int
    comparisons: Tuple[ComparisonOutcome, ...]

    @property
    def candidates(self) -> Tuple[np.ndarray, np.ndarray]:
        """The two candidate keys implied by the relations."""
        first = self.relations.astype(np.uint8)
        return first, (first ^ 1).astype(np.uint8)

    def recovered(self, key: np.ndarray, helper: object) -> bool:
        """Whether the resolved key equals the enrolled *key*."""
        return self.key is not None and bool(
            np.array_equal(self.key, key))


class SequentialPairingAttack:
    """Drives the §VI-A attack against an oracle-wrapped device."""

    def __init__(self, oracle: HelperDataOracle,
                 keygen: SequentialPairingKeyGen,
                 helper: SequentialKeyHelper,
                 comparer: Optional[FailureRateComparer] = None,
                 injected_errors: Optional[int] = None,
                 op: Optional[OperatingPoint] = None):
        """
        Parameters
        ----------
        oracle:
            Failure oracle of the device under attack.
        keygen:
            The (public) construction parameters of the device.
        helper:
            The original public helper data, as read from NVM.
        injected_errors:
            Deterministic error count pre-loaded via orientation flips.
            Defaults to ``t - 1`` of the construction's ECC: a correct
            hypothesis then fails only when noise adds two or more
            errors, while a wrong hypothesis (+2 errors) almost always
            fails — maximum Fig. 5 separation.
        """
        self._oracle = oracle
        self._keygen = keygen
        self._helper = helper
        self._comparer = comparer or FailureRateComparer()
        self._op = op
        bits = helper.pairing.bits
        if bits < 2:
            raise ValueError("need at least two pairs to attack")
        code = keygen.sketch_for(bits).code
        from repro.ecc.simple import BlockwiseCode

        if isinstance(code, BlockwiseCode):
            # Multi-block ECC (the paper's "fairly straightforward"
            # extension): a swap drops one error into block(0) and one
            # into block(target), so pre-loading block(0) to its inner
            # boundary t suffices — the H1 swap then overflows it.
            self._block_size: Optional[int] = code.inner.n
            self._inner_code = code.inner
            default = code.inner.t
        else:
            self._block_size = None
            self._inner_code = code
            default = max(code.t - 1, 0)
        self._injected = (injected_errors if injected_errors is not None
                          else default)
        self._ml_decoder = not code.bounded_distance
        self._hypotheses = PairingHypotheses(helper)
        # One reference helper per injected flip tuple: nearly every
        # target shares one, and its cached block is described once.
        self._references: Dict[Tuple[int, ...], PairingManipulation] = {}

    @property
    def injected_errors(self) -> int:
        """Deterministic error count injected per comparison."""
        return self._injected

    def _injection_positions(self, target: int) -> List[int]:
        """Positions to orientation-flip, avoiding pair 0 and the target.

        With a blockwise ECC the injected errors must share position
        0's block, otherwise they load the wrong decoder.
        """
        bits = self._helper.pairing.bits
        if self._block_size is not None:
            bits = min(self._block_size, bits)
        # Only the target is skipped past 0, so the first injected + 1
        # candidates hold every position taken.
        positions = [p for p in range(1, min(bits, self._injected + 2))
                     if p != target][:self._injected]
        if len(positions) < self._injected:
            raise ValueError("not enough pairs to carry the injection")
        return positions

    def _relation_steps(self, target: int) -> AttackSteps:
        """Stepwise :meth:`test_relation`; returns the same pair.

        Both helpers travel as described manipulations of the enrolled
        helper (:class:`~repro.keygen.sequential.PairingHypotheses`):
        the injected reference, and the reference plus the swap.  The
        reference is reused by every target with the same flips.
        """
        if not 1 <= target < self._helper.pairing.bits:
            raise ValueError("target must be a non-zero pair position")
        flips = tuple(self._injection_positions(target))
        reference = self._references.get(flips)
        if reference is None:
            reference = self._references[flips] = PairingManipulation(
                self._hypotheses, flips)
        test = PairingManipulation(self._hypotheses, flips, (0, target))
        outcome = yield ComparisonRequest(reference, test,
                                          self._comparer, self._op)
        # Lower failure rate for the swapped helper would mean the swap
        # *removed* errors, which the construction cannot produce; treat
        # tie as "equal" (no extra errors observed).
        relation = 1 if outcome.decision == "a" else 0
        return relation, outcome

    def test_relation(self, target: int) -> Tuple[int, ComparisonOutcome]:
        """Recover ``r_0 XOR r_target`` with one paired comparison.

        Builds a *reference* helper carrying only the injected errors
        and a *test* helper additionally swapping positions 0 and
        *target*; the test helper fails more iff the bits differ.
        """
        return drive(self._relation_steps(target), self._oracle)

    def _paired_relations_steps(self) -> AttackSteps:
        """Stepwise paired-comparer relation recovery."""
        bits = self._helper.pairing.bits
        relations = np.zeros(bits, dtype=np.uint8)
        outcomes: List[ComparisonOutcome] = []
        for target in range(1, bits):
            relation, outcome = yield from self._relation_steps(target)
            relations[target] = relation
            outcomes.append(outcome)
        return relations, outcomes

    def recover_relations(self) -> Tuple[np.ndarray,
                                         List[ComparisonOutcome]]:
        """Match ``r_0`` against every other response bit."""
        if self._ml_decoder:
            return self._recover_relations_ml(), []
        return drive(self._paired_relations_steps(), self._oracle)

    # ------------------------------------------------------------------
    # maximum-likelihood (non-bounded-distance) decoders

    def _ml_rate_steps(self, helper, samples: int) -> AttackSteps:
        """Stepwise empirical failure rate over *samples* queries."""
        outcomes = yield QueryBlockRequest(helper, samples, self._op)
        return np.count_nonzero(~outcomes) / samples

    def _ml_calibrate_steps(self, anchor: int,
                            samples: int = 4) -> AttackSteps:
        """Find an injection whose failure signature *moves* when one
        extra error lands on *anchor*.

        ML decoders (e.g. first-order Reed–Muller) have no failure
        radius: a pattern at exactly half the minimum distance resolves
        deterministically but *codeword-dependently*, so no offline
        search can guarantee separation.  Instead the attacker
        calibrates online: flip a candidate injection set, then
        additionally flip the anchor itself (a guaranteed extra error,
        independent of any secret), and keep the first set whose two
        failure signatures differ.  Returns the injection positions and
        the failure signature (0/1) of the anchor-error case.
        """
        pairing = self._helper.pairing
        bits = pairing.bits
        block = self._block_size or self._inner_code.n
        block_start = (anchor // block) * block
        block_end = min(block_start + block, bits)
        candidates = [p for p in range(block_start, block_end)
                      if p != anchor]
        rng = np.random.default_rng(anchor)
        inner_t = self._inner_code.t
        for trial in range(60):
            size = inner_t + (trial % 2)
            if size > len(candidates):
                size = len(candidates)
            subset = sorted(rng.choice(candidates, size=size,
                                       replace=False).tolist())
            base = flip_orientations(pairing, subset)
            rate_eq = yield from self._ml_rate_steps(
                self._helper.with_pairing(base), samples)
            rate_neq = yield from self._ml_rate_steps(
                self._helper.with_pairing(
                    base.with_flipped_orientation(anchor)), samples)
            if rate_eq <= 0.25 and rate_neq >= 0.75:
                return [int(p) for p in subset], 1
            if rate_eq >= 0.75 and rate_neq <= 0.25:
                return [int(p) for p in subset], 0
        raise ValueError(
            f"no separating injection found for anchor {anchor}")

    def _ml_calibrate_anchor(self, anchor: int,
                             samples: int = 4) -> Tuple[List[int], int]:
        """Scalar drive of :meth:`_ml_calibrate_steps`."""
        return drive(self._ml_calibrate_steps(anchor, samples),
                     self._oracle)

    def _ml_test_steps(self, anchor: int, positions: List[int],
                       neq_signature: int, target: int,
                       samples: int = 4) -> AttackSteps:
        """One relation test against a calibrated anchor signature."""
        injected = flip_orientations(self._helper.pairing, positions)
        test = self._helper.with_pairing(
            injected.with_swapped_positions(anchor, target))
        rate = yield from self._ml_rate_steps(test, samples)
        observed = 1 if rate >= 0.5 else 0
        return 1 if observed == neq_signature else 0

    def _ml_relations_steps(self) -> AttackSteps:
        """Stepwise relation recovery against an ML-decoded layer.

        Anchor A (position 0) handles every target outside its block;
        targets sharing block 0 are compared against a second anchor in
        the next block and chained through ``rel(0, B)``.
        """
        bits = self._helper.pairing.bits
        block = self._block_size or self._inner_code.n
        relations = np.zeros(bits, dtype=np.uint8)
        positions_a, signature_a = yield from self._ml_calibrate_steps(
            0)
        in_block0 = [t for t in range(1, bits) if t < block]
        outside = [t for t in range(1, bits) if t >= block]
        for target in outside:
            relations[target] = yield from self._ml_test_steps(
                0, positions_a, signature_a, target)
        if in_block0:
            if not outside:
                raise ValueError(
                    "single-block ML code: swap targets always share "
                    "the anchor block; brute-force the (tiny) key "
                    "against the public commitment instead")
            anchor_b = outside[0]
            positions_b, signature_b = \
                yield from self._ml_calibrate_steps(anchor_b)
            rel_0_b = relations[anchor_b]
            for target in in_block0:
                rel_b_t = yield from self._ml_test_steps(
                    anchor_b, positions_b, signature_b, target)
                relations[target] = rel_0_b ^ rel_b_t
        return relations

    def _recover_relations_ml(self) -> np.ndarray:
        """Relation recovery against an ML-decoded reliability layer."""
        return drive(self._ml_relations_steps(), self._oracle)

    def _sprt_relations_steps(self, calibration_queries: int = 25
                              ) -> AttackSteps:
        """Stepwise SPRT relation recovery (calibration + tests).

        Calibration is expressed as two fixed query blocks whose
        failure counts feed ``SPRTDistinguisher.from_counts`` — the
        same constructor ``calibrate`` uses, so the stepwise and
        direct calibrations share one implementation.
        """
        from repro.core.sprt import SPRTDistinguisher

        bits = self._helper.pairing.bits
        if self._injected + 3 > bits - 1:
            raise ValueError("not enough pairs for SPRT calibration")
        # Injection drawn from the tail of the pair list; the unequal
        # calibration adds TWO extra errors, mirroring what a swap of
        # unequal bits produces.
        tail = list(range(bits - self._injected, bits))
        extras = [bits - self._injected - 2, bits - self._injected - 1]
        base = flip_orientations(self._helper.pairing, tail)
        helper_eq = self._helper.with_pairing(base)
        helper_neq = self._helper.with_pairing(
            flip_orientations(base, extras))
        outcomes_eq = yield QueryBlockRequest(
            helper_eq, calibration_queries, self._op)
        outcomes_neq = yield QueryBlockRequest(
            helper_neq, calibration_queries, self._op)
        sprt = SPRTDistinguisher.from_counts(
            int(np.count_nonzero(~outcomes_eq)),
            int(np.count_nonzero(~outcomes_neq)), calibration_queries)

        relations = np.zeros(bits, dtype=np.uint8)
        occupied = set(tail)
        for target in range(1, bits):
            if target in occupied:
                # Move the injection away from this target.
                positions = [p for p in range(1, bits)
                             if p != target][:self._injected]
                injected = flip_orientations(self._helper.pairing,
                                             positions)
            else:
                injected = base
            test = self._helper.with_pairing(
                injected.with_swapped_positions(0, target))
            outcome = yield SPRTRequest(sprt, test, self._op)
            relations[target] = 1 if outcome.decision == "neq" else 0
        return relations

    def _resolve_steps(self, relations: np.ndarray) -> AttackSteps:
        """Stepwise two-candidate resolution (§VI-A final decision)."""
        bits = relations.shape[0]
        sketch = self._keygen.sketch_for(bits)
        seed = np.zeros(sketch.code.k, dtype=np.uint8)
        for candidate in (relations.astype(np.uint8),
                          (relations ^ 1).astype(np.uint8)):
            programmed = SequentialKeyHelper(
                self._helper.pairing,
                sketch.helper_for_response(candidate, seed),
                key_check_digest(candidate))
            # A handful of retries guards against a noise burst failing
            # the correct candidate's reconstruction.
            outcomes = yield QueryBlockRequest(programmed, 3, self._op,
                                               stop_on_success=True)
            if outcomes.any():
                return candidate
        # Neither candidate was accepted: a few relations were called
        # wrong (marginal bits in a noisy regime).  The key-check digest
        # is public helper data, so low-weight mistakes are repaired
        # offline at zero query cost.
        for candidate in (relations.astype(np.uint8),
                          (relations ^ 1).astype(np.uint8)):
            repaired = repair_with_commitment(
                candidate, self._helper.key_check, max_flips=2)
            if repaired is not None:
                return repaired
        return None

    def _attack_body_steps(self, method: str) -> AttackSteps:
        """Relations plus candidate resolution, without accounting."""
        if method == "paired":
            if self._ml_decoder:
                relations = yield from self._ml_relations_steps()
                outcomes: List[ComparisonOutcome] = []
            else:
                relations, outcomes = \
                    yield from self._paired_relations_steps()
        elif method == "sprt":
            relations = yield from self._sprt_relations_steps()
            outcomes = []
        else:
            raise ValueError("method must be 'paired' or 'sprt'")
        key = yield from self._resolve_steps(relations)
        return relations, key, outcomes

    def steps(self, method: str = "paired") -> AttackSteps:
        """Stepwise protocol of the full attack (lock-step entry).

        Yields comparison / SPRT / query-block requests and returns
        the :class:`SequentialAttackResult`; the query bill is summed
        from the delivered outcomes, so scalar and lock-step execution
        report identical totals.
        """
        inner = self._attack_body_steps(method)
        queries = 0
        reply = None
        while True:
            try:
                request = inner.send(reply)
            except StopIteration as stop:
                relations, key, outcomes = stop.value
                return SequentialAttackResult(
                    relations=relations, key=key, queries=queries,
                    comparisons=tuple(outcomes))
            reply = yield request
            queries += outcome_queries(reply)

    def run(self, method: str = "paired") -> SequentialAttackResult:
        """Full attack: relations, then the two-candidate resolution.

        ``method`` selects the distinguisher: ``"paired"`` (adaptive
        reference/test comparison, no calibration) or ``"sprt"``
        (Wald's sequential test after a one-time calibration).  Drives
        :meth:`steps` against the attack's own oracle — the scalar
        per-device reference for the lock-step campaign engine.
        """
        return drive(self.steps(method), self._oracle)
