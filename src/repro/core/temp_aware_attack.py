"""Attack on the temperature-aware cooperative RO PUF (paper §VI-B).

The attacker bakes the device to a temperature inside a target
cooperating pair's crossover interval, so that its key bit is
reconstructed through assistance, then rewrites the stored assistant
index to point at another cooperating pair ``c``: reconstruction is
unaffected iff ``r_c = r_assist`` and gains one bit error otherwise.
Deterministic error injection via interval rewrites
(:func:`repro.core.injection.break_inversions`) pushes the error count
to the ECC boundary so the two hypotheses separate.

Walking all targets merges the pairwise relations into connected
components (tracked with a parity union-find), recovering the response
bit of *every cooperating pair* up to one global unknown per component —
the partial key recovery the paper claims.  As a bonus, every
cooperation record publicly asserts ``r_c ⊕ r_good ⊕ r_assist = 0``, so
the masking good pairs' bits fall into the same components for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.batch_oracle import BatchOracle
from repro.core.framework import ComparisonOutcome, FailureRateComparer
from repro.core.injection import break_inversions
from repro.core.lockstep import AttackSteps, ComparisonRequest, drive
from repro.core.oracle import HelperDataOracle
from repro.keygen.base import OperatingPoint
from repro.keygen.temp_aware import TempAwareKeyGen, TempAwareKeyHelper


class ParityUnionFind:
    """Union-find over bit variables with XOR edge weights.

    ``relation(a, b)`` returns ``r_a XOR r_b`` when both variables are
    in the same component, else ``None``.
    """

    def __init__(self, size: int):
        self._parent = list(range(size))
        self._parity = [0] * size  # parity to parent

    def find(self, node: int) -> Tuple[int, int]:
        """Root of *node* and parity of ``r_node XOR r_root``."""
        if self._parent[node] == node:
            return node, 0
        root, parity = self.find(self._parent[node])
        self._parent[node] = root
        self._parity[node] ^= parity
        return root, self._parity[node]

    def union(self, a: int, b: int, parity: int) -> bool:
        """Assert ``r_a XOR r_b = parity``; returns False on conflict."""
        root_a, par_a = self.find(a)
        root_b, par_b = self.find(b)
        if root_a == root_b:
            return (par_a ^ par_b) == parity
        self._parent[root_a] = root_b
        self._parity[root_a] = par_a ^ par_b ^ parity
        return True

    def relation(self, a: int, b: int) -> Optional[int]:
        """``r_a XOR r_b`` when linked, else ``None``."""
        root_a, par_a = self.find(a)
        root_b, par_b = self.find(b)
        if root_a != root_b:
            return None
        return par_a ^ par_b


def coop_bits(key: np.ndarray,
              helper: TempAwareKeyHelper) -> np.ndarray:
    """The cooperating-pair bits of *key*, the part §VI-B targets."""
    return key[len(helper.scheme.good_indices):]


@dataclass(frozen=True)
class TempAwareAttackResult:
    """Outcome of the §VI-B attack.

    ``coop_relations[i]`` is the recovered ``r_i XOR r_0`` over the
    cooperating-pair reference bits (entry order), ``-1`` where the
    relation graph stayed disconnected.  ``good_bits`` maps a masking
    good pair's *pair index* to its recovered **absolute** bit value:
    the public constraint asserts ``r_good = r_coop XOR r_assist`` and
    the XOR of two same-component variables cancels the component's
    global unknown — so the good-pair bits fall out exactly, for free.
    """

    coop_relations: np.ndarray
    good_bits: Dict[int, int]
    queries: int
    comparisons: Tuple[ComparisonOutcome, ...]

    @property
    def resolved_fraction(self) -> float:
        """Fraction of cooperating pairs with a recovered relation."""
        total = self.coop_relations.shape[0]
        if total == 0:
            return 1.0
        return float(np.sum(self.coop_relations >= 0)) / total

    def recovered(self, key: np.ndarray,
                  helper: TempAwareKeyHelper) -> bool:
        """Whether every relation of the enrolled cooperating-pair
        bits (:func:`coop_bits`) was recovered correctly."""
        truth = coop_bits(key, helper)
        if truth.size == 0 or self.resolved_fraction != 1.0:
            return False
        return bool(np.array_equal(self.coop_relations,
                                   truth ^ truth[0]))


class TempAwareAttack:
    """Drives the §VI-B attack against an oracle-wrapped device.

    The canonical oracle is a :class:`~repro.core.batch_oracle.
    BatchOracle`: every failure-rate comparison then evaluates its
    paired queries in vectorized blocks (with the temperature-aware
    batch evaluator doing sensor reads, interval interpretation and
    assistance in NumPy), while decisions and query counts stay
    bitwise-identical to scalar simulation.  A scalar
    :class:`~repro.core.oracle.HelperDataOracle` is still accepted and
    drives the same comparisons one query at a time.  :meth:`steps`
    exposes the attack to lock-step fleet campaigns.
    """

    def __init__(self, oracle: Union[BatchOracle, HelperDataOracle],
                 keygen: TempAwareKeyGen,
                 helper: TempAwareKeyHelper,
                 comparer: Optional[FailureRateComparer] = None,
                 injected_errors: Optional[int] = None,
                 stability_margin: float = 2.0):
        """
        Parameters
        ----------
        stability_margin:
            Minimum distance (°C) the attack temperature keeps from the
            interval boundaries of every pair whose stability the test
            relies on.  The device reads its temperature through a noisy
            sensor; an attack temperature within sensor noise of a
            candidate's boundary makes reconstruction flake *regardless*
            of the hypothesis, fabricating a spurious failure-rate gap.
        """
        self._oracle = oracle
        self._keygen = keygen
        self._helper = helper
        self._comparer = comparer or FailureRateComparer()
        self._margin = float(stability_margin)
        bits = helper.scheme.bits
        code_t = keygen.sketch_for(bits).code.t
        self._injected = (injected_errors if injected_errors is not None
                          else code_t)

    # ------------------------------------------------------------------

    def _stable_at(self, position: int, temperature: float) -> bool:
        entry = self._helper.scheme.cooperation[position]
        return (temperature < entry.t_low - self._margin
                or temperature > entry.t_high + self._margin)

    def _protected_pairs(self, target: int, candidate: int,
                         temperature: float) -> set:
        """Pair indices the injection must not touch at this temperature."""
        scheme = self._helper.scheme
        entry = scheme.cooperation[target]
        cand_entry = scheme.cooperation[candidate]
        protected = {entry.pair_index, cand_entry.pair_index,
                     entry.assist_index}
        for other in scheme.cooperation:
            if other.t_low <= temperature <= other.t_high:
                protected.add(other.pair_index)
                protected.add(other.assist_index)
        return protected

    def _injectable_count(self, temperature: float,
                          protected: set) -> int:
        """How many deterministic errors are available at *temperature*."""
        count = 0
        for entry in self._helper.scheme.cooperation:
            if entry.pair_index in protected:
                continue
            if entry.t_high < temperature or entry.t_low > temperature:
                count += 1
        return count

    def _attack_temperature(self, target: int,
                            candidate: int) -> Optional[float]:
        """A temperature inside the target's crossover interval at which
        the candidate and original assistant are stable with margin and
        enough injection capacity remains, or ``None``."""
        scheme = self._helper.scheme
        entry = scheme.cooperation[target]
        pair_to_position = {e.pair_index: i
                            for i, e in enumerate(scheme.cooperation)}
        assist_position = pair_to_position.get(entry.assist_index)
        span = entry.t_high - entry.t_low
        candidates_t = [entry.t_low + span * fraction
                        for fraction in (0.5, 0.25, 0.75, 0.1, 0.9)]
        for temperature in candidates_t:
            if not self._stable_at(candidate, temperature):
                continue
            if assist_position is not None and \
                    not self._stable_at(assist_position, temperature):
                continue
            protected = self._protected_pairs(target, candidate,
                                              temperature)
            if self._injectable_count(temperature,
                                      protected) < self._injected:
                continue
            return temperature
        return None

    def _candidate_steps(self, target: int, candidate: int,
                         temperature: Optional[float]) -> AttackSteps:
        """Stepwise :meth:`test_candidate`: one comparison request."""
        scheme = self._helper.scheme
        entry = scheme.cooperation[target]
        cand_entry = scheme.cooperation[candidate]
        if temperature is None:
            temperature = self._attack_temperature(target, candidate)
            if temperature is None:
                raise ValueError("no margin-safe attack temperature in "
                                 "the target's interval")
        if not self._stable_at(candidate, temperature):
            raise ValueError("candidate is unstable at the attack "
                             "temperature")
        op = OperatingPoint(temperature=temperature)

        # Pairs assisting any entry active at this temperature must not
        # carry injected errors, or the assisted bits break too.
        protected = self._protected_pairs(target, candidate, temperature)
        injected_scheme = break_inversions(scheme, temperature,
                                           self._injected,
                                           exclude=sorted(protected))
        reference = self._helper.with_scheme(injected_scheme)
        test = self._helper.with_scheme(injected_scheme.replace_entry(
            target, entry.with_assist(cand_entry.pair_index)))
        outcome = yield ComparisonRequest(reference, test,
                                          self._comparer, op)
        relation = 1 if outcome.decision == "a" else 0
        return relation, outcome

    def test_candidate(self, target: int, candidate: int,
                       temperature: Optional[float] = None
                       ) -> Tuple[int, ComparisonOutcome]:
        """Recover ``r_candidate XOR r_assist(target)``.

        Bakes the device into the target's crossover interval, rewrites
        the assistant index, and compares failure rates against the
        injection-only reference.
        """
        return drive(self._candidate_steps(target, candidate,
                                           temperature), self._oracle)

    # ------------------------------------------------------------------

    def steps(self) -> AttackSteps:
        """Stepwise protocol of the full attack (lock-step entry).

        Iterates over target entries, testing only candidates whose
        relation to the target's assistant is not already implied by the
        union-find — no redundant oracle queries.  Each test yields one
        :class:`ComparisonRequest` at the attack temperature; returns
        the :class:`TempAwareAttackResult`.
        """
        scheme = self._helper.scheme
        entries = scheme.cooperation
        count = len(entries)
        outcomes: List[ComparisonOutcome] = []
        if count == 0:
            return TempAwareAttackResult(np.zeros(0, dtype=np.int8), {},
                                         0, ())

        pair_to_position = {e.pair_index: i
                            for i, e in enumerate(entries)}
        graph = ParityUnionFind(count)
        for target in range(count):
            assist_position = pair_to_position.get(
                entries[target].assist_index)
            if assist_position is None:
                continue
            for candidate in range(count):
                if candidate in (target, assist_position):
                    continue
                if graph.relation(candidate, assist_position) is not None:
                    continue
                temperature = self._attack_temperature(target, candidate)
                if temperature is None:
                    continue
                relation, outcome = yield from self._candidate_steps(
                    target, candidate, temperature)
                outcomes.append(outcome)
                graph.union(candidate, assist_position, relation)

        relations = np.full(count, -1, dtype=np.int8)
        relations[0] = 0
        for i in range(count):
            rel = graph.relation(i, 0)
            if rel is not None:
                relations[i] = rel

        # Free absolute bits from the public masking constraints:
        # r_good = r_coop ⊕ r_assist, and the XOR of two variables in
        # the same component cancels the global unknown.
        good_bits: Dict[int, int] = {}
        for position, entry in enumerate(entries):
            assist_position = pair_to_position.get(entry.assist_index)
            if assist_position is None:
                continue
            parity = graph.relation(position, assist_position)
            if parity is None:
                continue
            good_bits[entry.good_index] = parity

        return TempAwareAttackResult(
            coop_relations=relations,
            good_bits=good_bits,
            queries=sum(outcome.queries for outcome in outcomes),
            comparisons=tuple(outcomes))

    def run(self) -> TempAwareAttackResult:
        """Recover all cooperating-pair bit relations.

        Drives :meth:`steps` against the attack's own oracle — the
        scalar per-device reference the lock-step campaign engine is
        asserted bitwise-equal against.
        """
        return drive(self.steps(), self._oracle)
