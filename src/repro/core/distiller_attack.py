"""Attacks on entropy-distiller + RO-pairing constructions
(paper §VI-D, Fig. 6b/6c).

Same methodology as the group-based attack: a steep symmetric quadratic
injected into the distiller coefficients pins every response bit except
those of pairs whose injected values collide — the *isolated* bits left
to the device's true random variation.  For disjoint pairings (Fig. 6b,
1-out-of-k masking) a single bit is isolated per placement; for
overlapping neighbour chains (Fig. 6c) the geometry can leave several
bits undetermined at once, and the attack enumerates all ``2^u`` joint
hypotheses (the paper's ``2^4`` example) — each hypothesis is a full
reprogrammed helper set (coefficients + ECC redundancy + commitment)
and the arg-min failure rate wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.framework import repair_with_commitment
from repro.core.lockstep import (
    AttackSteps,
    SelectionRequest,
    drive,
)
from repro.core.injection import (
    predicted_pair_bits,
    symmetric_quadratic,
)
from repro.core.oracle import HelperDataOracle
from repro.keygen.base import key_check_digest
from repro.keygen.distiller_pairing import (
    DistillerPairingHelper,
    DistillerPairingKeyGen,
)


@dataclass(frozen=True)
class DistillerAttackResult:
    """Outcome of a §VI-D attack.

    ``key`` holds the recovered response bits in key order;
    ``hypothesis_rounds`` lists, per placement, how many joint
    hypotheses were enumerated (1 bit → 2, Fig. 6c style 4 bits → 16).
    """

    key: np.ndarray
    confirmed: bool
    queries: int
    hypothesis_rounds: Tuple[int, ...]

    def recovered(self, key: np.ndarray, helper: object) -> bool:
        """Whether the recovered bits equal the enrolled *key*."""
        return bool(np.array_equal(self.key, key))


class DistillerPairingAttack:
    """Drives the §VI-D attacks against an oracle-wrapped device."""

    def __init__(self, oracle: HelperDataOracle,
                 keygen: DistillerPairingKeyGen,
                 helper: DistillerPairingHelper,
                 rows: int, cols: int,
                 steepness: float = 1e12,
                 queries_per_hypothesis: int = 6,
                 max_joint_bits: int = 8,
                 injected_errors: Optional[int] = None):
        self._oracle = oracle
        self._keygen = keygen
        self._helper = helper
        self._rows = int(rows)
        self._cols = int(cols)
        self._steepness = float(steepness)
        self._queries_per_hypothesis = int(queries_per_hypothesis)
        self._max_joint = int(max_joint_bits)
        self._injected = injected_errors
        self._margin = steepness / (2.0 * (rows + 1) ** 2)

    # ------------------------------------------------------------------

    def _cell_xy(self, index: int) -> Tuple[float, float]:
        return float(index % self._cols), float(index // self._cols)

    def _key_pairs(self) -> List[Tuple[int, int]]:
        """The pairs feeding key bits, in key order.

        For masking mode these are the *enrolled selections* read from
        the public helper data; for neighbour modes the fixed chain.
        """
        if self._keygen.masking is not None:
            return self._keygen.masking.selected_pairs(
                self._helper.masking)
        return self._keygen.pairs

    def _predicted(self, payload) -> List[int]:
        cells = self._rows * self._cols
        xs = (np.arange(cells) % self._cols).astype(float)
        ys = (np.arange(cells) // self._cols).astype(float)
        values = -payload(xs, ys)
        return predicted_pair_bits(values, self._key_pairs(),
                                   self._margin)

    def _isolate_steps(self, target: int) -> AttackSteps:
        """Stepwise :meth:`isolate`; returns ``(learned, count, queries)``.

        Builds the full reprogrammed helper set per joint hypothesis
        and yields one :class:`SelectionRequest` for the arg-min scan.
        """
        pairs = self._key_pairs()
        if not 0 <= target < len(pairs):
            raise ValueError(f"target position {target} out of range")
        u, v = pairs[target]
        payload = symmetric_quadratic(self._cell_xy(u), self._cell_xy(v),
                                      self._rows, self._steepness)
        predicted = self._predicted(payload)
        isolated = [pos for pos, bit in enumerate(predicted) if bit < 0]
        if target not in isolated:
            raise AssertionError("target bit was not isolated")
        if len(isolated) > self._max_joint:
            raise ValueError(
                f"{len(isolated)} bits isolated at once exceeds the "
                f"joint-hypothesis cap {self._max_joint}")

        sketch = self._keygen.sketch_for(len(pairs))
        injected = (self._injected if self._injected is not None
                    else sketch.code.t)
        determined = [pos for pos, bit in enumerate(predicted)
                      if bit >= 0]
        if injected > len(determined):
            raise ValueError("not enough determined bits to carry the "
                             "error injection")
        seed = np.zeros(sketch.code.k, dtype=np.uint8)

        helpers = {}
        for assignment in product((0, 1), repeat=len(isolated)):
            reference = np.array(
                [bit if bit >= 0 else 0 for bit in predicted],
                dtype=np.uint8)
            for position, bit in zip(isolated, assignment):
                reference[position] = bit
            for position in determined[:injected]:
                reference[position] ^= 1
            helpers[assignment] = DistillerPairingHelper(
                distiller=self._helper.distiller.with_added(payload),
                masking=self._helper.masking,
                sketch=sketch.helper_for_response(reference, seed),
                key_check=key_check_digest(reference))
        outcome = yield SelectionRequest(
            helpers,
            queries_per_hypothesis=self._queries_per_hypothesis)
        learned = dict(zip(isolated, outcome.label))
        return learned, len(helpers), outcome.queries

    def isolate(self, target: int) -> Tuple[Dict[int, int], int]:
        """Learn the true bits of every pair isolated by one placement.

        Centres the quadratic on the *target* key position's pair; all
        positions whose injected discrepancy collapses (the target plus
        geometric mirror pairs, cf. Fig. 6c) become joint hypothesis
        bits.  Returns ``{position: bit}`` for every isolated position
        and the number of hypotheses enumerated.
        """
        learned, count, _ = drive(self._isolate_steps(target),
                                  self._oracle)
        return learned, count

    # ------------------------------------------------------------------

    def steps(self) -> AttackSteps:
        """Stepwise protocol of the full attack (lock-step entry).

        One :class:`SelectionRequest` per quadratic placement; returns
        the :class:`DistillerAttackResult` with the query bill summed
        from the selection outcomes.
        """
        pairs = self._key_pairs()
        queries = 0
        known: Dict[int, int] = {}
        rounds: List[int] = []
        for target in range(len(pairs)):
            if target in known:
                continue
            learned, hypotheses, spent = \
                yield from self._isolate_steps(target)
            known.update(learned)
            rounds.append(hypotheses)
            queries += spent
        key = np.array([known[pos] for pos in range(len(pairs))],
                       dtype=np.uint8)
        # Marginal (near-tie) pairs may have been frozen on the other
        # side at enrollment; the public commitment fixes them offline.
        repaired = repair_with_commitment(key, self._helper.key_check,
                                          max_flips=2)
        if repaired is not None:
            key = repaired
        confirmed = key_check_digest(key) == self._helper.key_check
        return DistillerAttackResult(
            key=key, confirmed=confirmed, queries=queries,
            hypothesis_rounds=tuple(rounds))

    def run(self) -> DistillerAttackResult:
        """Recover every key bit, sliding the isolation pattern.

        Drives :meth:`steps` against the attack's own oracle — the
        scalar per-device reference for the lock-step campaign engine.
        """
        return drive(self.steps(), self._oracle)
