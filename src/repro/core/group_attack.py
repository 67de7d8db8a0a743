"""Full key recovery on the group-based RO PUF (paper §VI-C, Fig. 6a).

The attacker controls every helper component of Fig. 4 and uses that to
*reprogram* the device key:

1. **Polynomial injection** — a steep quadratic added to the stored
   distiller coefficients overshadows the random frequency variation
   everywhere except at one attacker-chosen target pair of oscillators,
   whose injected values cancel by symmetry (the triangle-marked
   extremum of Fig. 6a).
2. **Repartitioning** — the group helper data is rewritten into pairs
   whose injected discrepancies are enormous, so every response bit
   except the target's is attacker-determined.
3. **ECC/key-check reprogramming** — redundancy and commitment are
   recomputed for each hypothesis about the target bit, with extra
   reference-bit inversions as deterministic error injection.

One paired failure-rate comparison then reveals whether the target
oscillator's residual exceeds its partner's.  Driving a comparison sort
with this oracle recovers the full frequency order of every *original*
group — i.e. the complete device key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.framework import (
    FailureRateComparer,
    repair_with_commitment,
)
from repro.core.lockstep import AttackSteps, ComparisonRequest, drive
from repro.core.injection import (
    pair_cells_by_value,
    predicted_pair_bits,
    symmetric_quadratic,
)
from repro.core.oracle import HelperDataOracle
from repro.keygen.base import key_check_digest, key_check_digests
from repro.keygen.group_based import (
    GroupBasedKeyGen,
    GroupBasedKeyHelper,
    HypothesisPair,
)
from repro.grouping.kendall import kendall_encode
from repro.grouping.packing import pack_key
from repro.puf.variation import grid_layout, layout_matrix


@dataclass(frozen=True)
class GroupAttackResult:
    """Outcome of the §VI-C attack.

    ``orders[j]`` is the recovered descending-residual order of stored
    group ``j`` (as label positions into the stored member tuple);
    ``key`` is the reassembled packed key and ``confirmed`` records
    whether its digest matches the device's public commitment.
    """

    orders: Tuple[Tuple[int, ...], ...]
    key: np.ndarray
    confirmed: bool
    queries: int
    comparisons: int

    def recovered(self, key: np.ndarray, helper: object) -> bool:
        """Whether the reassembled key equals the enrolled *key*."""
        return bool(np.array_equal(self.key, key))


class GroupBasedAttack:
    """Drives the §VI-C attack against an oracle-wrapped device."""

    def __init__(self, oracle: HelperDataOracle, keygen: GroupBasedKeyGen,
                 helper: GroupBasedKeyHelper, rows: int, cols: int,
                 comparer: Optional[FailureRateComparer] = None,
                 steepness: float = 1e12,
                 injected_errors: Optional[int] = None):
        self._oracle = oracle
        self._keygen = keygen
        self._helper = helper
        self._rows = int(rows)
        self._cols = int(cols)
        self._comparer = comparer or FailureRateComparer()
        self._steepness = float(steepness)
        self._injected = injected_errors
        self._comparisons = 0
        # Injected-value collisions are exact by construction; any two
        # distinct values differ by at least steepness / (rows + 1)^2.
        self._margin = steepness / (2.0 * (rows + 1) ** 2)
        # Injected values are payload polynomials over the cell grid.
        self._layout = layout_matrix(
            *grid_layout(self._rows, self._cols), 2)
        self._bindings: Dict[Tuple[int, ...], tuple] = {}

    # ------------------------------------------------------------------

    def _cell_xy(self, index: int) -> Tuple[float, float]:
        return float(index % self._cols), float(index // self._cols)

    def _hypotheses(self, u: int, v: int) -> HypothesisPair:
        """Hypotheses "residual(u) > residual(v)" ∈ {0, 1}, as arrays."""
        payload = symmetric_quadratic(self._cell_xy(u), self._cell_xy(v),
                                      self._rows, self._steepness)
        values = -(self._layout @ payload.coefficients)

        forced = pair_cells_by_value(values, exclude=(u, v),
                                     min_gap=self._margin)
        groups = [(u, v)] + forced

        # Kendall bit of a stored 2-group (a, b) is 1 iff b's residual
        # exceeds a's, i.e. the inverse of the response-bit convention.
        responses = predicted_pair_bits(values, forced, self._margin)
        if any(bit < 0 for bit in responses):
            raise AssertionError("forced pair left undetermined")
        payloads, key_checks = self._binding(tuple(responses))
        return HypothesisPair(
            self._helper, payload, groups, payloads, key_checks,
            np.array([u, v, *chain.from_iterable(forced)],
                     dtype=np.intp).reshape(-1, 2))

    def _binding(self, responses: Tuple[int, ...]
                 ) -> Tuple[np.ndarray, Tuple[bytes, bytes]]:
        """Payloads and key checks of both hypothesis streams.

        The streams are the target bit (0, then 1) followed by the
        forced bits ``1 - response``, and depend on nothing else, so
        they are bound once per forced-response tuple (the greedy
        pairing keeps the lower value first, so in practice once per
        stream length).  Every hypothesis helper binds its stream
        through the all-zero seed.  The payloads are read-only: pairs
        share them.
        """
        hit = self._bindings.get(responses)
        if hit is not None:
            return hit
        sketch = self._keygen.sketch_for(len(responses) + 1)
        injected = (self._injected if self._injected is not None
                    else sketch.code.t)
        if injected > len(responses):
            raise ValueError("not enough forced groups to carry the "
                             "error injection")
        # Deterministic injection: invert reference bits of the first
        # `injected` forced groups ("we just compute the ECC redundancy
        # given some inverted bit values").
        forced_bits = [bit if position < injected else 1 - bit
                       for position, bit in enumerate(responses)]
        # One stream per hypothesis about the target bit.
        streams = np.array([[0] + forced_bits, [1] + forced_bits],
                           dtype=np.uint8)
        payloads = sketch.payloads_for_codeword(
            streams, sketch.code.encode(
                np.zeros(sketch.code.k, dtype=np.uint8)))
        payloads.flags.writeable = False
        # Every group is a pair, so each packed key is its stream.
        hit = self._bindings[responses] = (
            payloads, tuple(key_check_digests(streams)))
        return hit

    def _attack_helpers(self, u: int, v: int
                        ) -> Tuple[GroupBasedKeyHelper,
                                   GroupBasedKeyHelper]:
        """Hypothesis helpers for "residual(u) > residual(v)" ∈ {0, 1}."""
        member0, member1 = self._hypotheses(u, v).members
        return member0.materialise(), member1.materialise()

    def compare_ros(self, u: int, v: int) -> bool:
        """Oracle-driven comparison: is ``residual(u) > residual(v)``?

        The Kendall bit of the target group ``(u, v)`` is 0 when u's
        residual is larger; hypothesis helpers carry 0 and 1 and the one
        matching the device's secret fails less.
        """
        helper0, helper1 = self._attack_helpers(u, v)
        outcome = self._comparer.compare(self._oracle, helper0, helper1)
        self._comparisons += 1
        return outcome.decision != "b"  # hypothesis 0 won (or tie)

    # ------------------------------------------------------------------

    def _order_steps(self, members: Sequence[int]) -> AttackSteps:
        """Stepwise comparison-sort of one stored group's members.

        Binary-insertion sort: ``O(g log g)`` oracle comparisons per
        group instead of the naive ``g^2`` pairwise matrix.  Each
        comparison is yielded as a :class:`ComparisonRequest`; returns
        ``(order, queries)``.
        """
        members = [int(m) for m in members]
        queries = 0
        sorted_desc: List[int] = []
        for member in members:
            lo, hi = 0, len(sorted_desc)
            while lo < hi:
                mid = (lo + hi) // 2
                helper0, helper1 = self._hypotheses(
                    sorted_desc[mid], member).members
                outcome = yield ComparisonRequest(
                    helper0, helper1, self._comparer)
                self._comparisons += 1
                queries += outcome.queries
                if outcome.decision != "b":  # hypothesis 0 (or tie)
                    lo = mid + 1
                else:
                    hi = mid
            sorted_desc.insert(lo, member)
        label_of = {member: position
                    for position, member in enumerate(members)}
        return tuple(label_of[m] for m in sorted_desc), queries

    def recover_group_order(self, members: Sequence[int]
                            ) -> Tuple[int, ...]:
        """Comparison-sort one stored group's members by residual."""
        order, _ = drive(self._order_steps(members), self._oracle)
        return order

    def steps(self) -> AttackSteps:
        """Stepwise protocol of the full attack (lock-step entry).

        Yields one :class:`ComparisonRequest` at a time — the
        binary-insertion sort makes each comparison depend on the
        previous decision, so the per-device frontier is exactly one
        request — and returns the :class:`GroupAttackResult`.
        """
        self._comparisons = 0
        queries = 0
        orders = []
        for group in self._helper.grouping.groups:
            order, group_queries = yield from self._order_steps(group)
            orders.append(order)
            queries += group_queries
        orders = tuple(orders)
        stream = np.concatenate([kendall_encode(order)
                                 for order in orders]) \
            if orders else np.zeros(0, dtype=np.uint8)
        key = pack_key(stream, self._helper.grouping.sizes)
        # A wrong call on a marginal comparison perturbs a few packed
        # bits; the public commitment repairs those offline.
        repaired = repair_with_commitment(key, self._helper.key_check,
                                          max_flips=2)
        if repaired is not None:
            key = repaired
        confirmed = key_check_digest(key) == self._helper.key_check
        return GroupAttackResult(
            orders=orders, key=key, confirmed=confirmed,
            queries=queries, comparisons=self._comparisons)

    def run(self) -> GroupAttackResult:
        """Recover every original group's order and reassemble the key.

        Drives :meth:`steps` against the attack's own oracle — the
        scalar per-device reference the lock-step campaign engine is
        asserted bitwise-equal against.
        """
        return drive(self.steps(), self._oracle)
