"""Attacker-side error injection and polynomial payload construction.

Every §VI attack "injects additional errors, intentionally and
symmetrically" to move the device's error count next to the ECC
correction boundary ``t`` (the common PDF offset of Fig. 5).  This
module collects the deterministic injection primitives:

* orientation flips / position swaps of stored pairs (sequential
  pairing, §VI-A);
* crossover-interval rewrites (temperature-aware, §VI-B);
* reference-bit inversions inside recomputed ECC redundancy
  (group-based / distiller, §VI-C: *"we just compute the ECC redundancy
  given some inverted bit values"*);
* the steep symmetric quadratic surfaces that overshadow random
  variation everywhere except at an attacker-chosen target pair
  (§VI-C/D, Fig. 6).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.pairing.sequential import SequentialPairingHelper
from repro.pairing.temp_aware import TempAwareHelper
from repro.puf.variation import Polynomial2D


# ----------------------------------------------------------------------
# sequential pairing (§VI-A)


def flip_orientations(helper: SequentialPairingHelper,
                      positions: Sequence[int]) -> SequentialPairingHelper:
    """Reverse the stored index order of the given pairs.

    Each flip inverts exactly one response bit, deterministically and
    regardless of its secret value: *k* flips put exactly *k* errors at
    the ECC input (plus noise).  This is the attacker's precision
    throttle for the Fig. 5 offset.  All flips land on one copy of the
    pair array; a position listed twice is flipped back.
    """
    return helper.with_flipped_orientations(positions)


def swap_positions(helper: SequentialPairingHelper,
                   swaps: Sequence[Tuple[int, int]]
                   ) -> SequentialPairingHelper:
    """Swap stored list positions of pair index tuples.

    A swap introduces two errors iff the two pairs' response bits
    differ — the paper's original accelerator ("initially, the
    additional pairs can be chosen at random; after revealing some
    response bit relations, one can select these pairs which will
    introduce a pair of erroneous bits for sure").  The swaps apply in
    list order, on one copy of the pair array.
    """
    return helper.with_swaps(swaps)


# ----------------------------------------------------------------------
# temperature-aware cooperative (§VI-B)


def break_inversions(helper: TempAwareHelper, temperature: float,
                     count: int,
                     exclude: Sequence[int] = ()) -> TempAwareHelper:
    """Inject up to *count* deterministic errors via interval rewrites.

    For a cooperating pair whose crossover interval lies *below* the
    attack temperature, the device compensates the crossover by
    inverting the measured bit (``T > T_h``).  Rewriting the stored
    interval to sit above the attack temperature silently drops that
    inversion — one guaranteed bit error.  Symmetrically, a pair with
    its interval above the temperature can be forced *into* an
    inversion.  Entries whose *pair index* appears in *exclude* (the
    attack's target, assistant, candidate) are left untouched.  Pairs
    assisting an entry
    whose interval covers the attack temperature are protected
    automatically: corrupting their stored interval would corrupt the
    assisted bit too, and the injected error count would no longer be
    exact.

    Returns the modified helper; raises ``ValueError`` if fewer than
    *count* injectable entries exist.
    """
    protected = set(exclude)
    for entry in helper.cooperation:
        if entry.t_low <= temperature <= entry.t_high:
            protected.add(entry.pair_index)
            protected.add(entry.assist_index)

    result = helper
    injected = 0
    span = max(helper.t_max - helper.t_min, 1.0)
    for position, entry in enumerate(helper.cooperation):
        if injected >= count:
            break
        if entry.pair_index in protected:
            continue
        if entry.t_high < temperature:
            # Device would invert; move the interval above T to stop it.
            result = result.replace_entry(position, entry.with_interval(
                temperature + span, temperature + 2 * span))
            injected += 1
        elif entry.t_low > temperature:
            # Device would not invert; move the interval below T to
            # force a spurious inversion.
            result = result.replace_entry(position, entry.with_interval(
                temperature - 2 * span, temperature - span))
            injected += 1
    if injected < count:
        raise ValueError(
            f"only {injected} of {count} requested errors are injectable "
            f"at T={temperature}")
    return result


# ----------------------------------------------------------------------
# distiller payloads (§VI-C/D, Fig. 6)


def symmetric_quadratic(point_a: Tuple[float, float],
                        point_b: Tuple[float, float],
                        rows: int,
                        steepness: float = 1e9) -> Polynomial2D:
    """Steep quadratic surface equal at two chosen cells.

    Constructs ``Q(x, y) = steepness * s(x, y)^2`` with the linear form
    ``s(x, y) = (x - m_x) + (y - m_y) / (rows + 1)`` centred on the
    midpoint ``m`` of the two target cells.  Properties:

    * ``Q(a) = Q(b)`` — the target pair's injected values cancel, so its
      response bit stays determined by the *device's own* random
      variation (the triangle-marked extremum of Fig. 6);
    * ``s`` is injective over the integer grid (the ``1/(rows+1)``
      y-weight cannot be cancelled by integer column offsets), so
      ``Q`` collides only on cells exactly symmetric about ``m``;
    * the gradient magnitude is ``O(steepness)``, overshadowing random
      frequency variation everywhere else.
    """
    ax, ay = point_a
    bx, by = point_b
    if (ax, ay) == (bx, by):
        raise ValueError("target cells must differ")
    mx = (ax + bx) / 2.0
    my = (ay + by) / 2.0
    w = 1.0 / (rows + 1)
    # s^2 = (x - mx)^2 + 2 w (x - mx)(y - my) + w^2 (y - my)^2, expanded
    # onto canonical degree-2 terms (1, x, y, x^2, xy, y^2).
    c0 = mx * mx + 2 * w * mx * my + w * w * my * my
    cx = -2 * mx - 2 * w * my
    cy = -2 * w * mx - 2 * w * w * my
    cxx = 1.0
    cxy = 2 * w
    cyy = w * w
    coeffs = steepness * np.array([c0, cx, cy, cxx, cxy, cyy])
    return Polynomial2D(2, coeffs)


def injected_values(payload: Polynomial2D, x: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """Injected *residual* contribution ``-Q`` at every oscillator.

    The device subtracts the stored polynomial, so adding ``Q`` to the
    stored coefficients superimposes ``-Q(x, y)`` onto the residual map.
    """
    return -payload(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def predicted_pair_bits(values: np.ndarray,
                        pairs: Sequence[Tuple[int, int]],
                        margin: float) -> List[int]:
    """Predict each pair's response bit under an injected value map.

    Returns ``1``/``0`` for pairs whose injected discrepancy exceeds
    *margin* (attacker-determined bits) and ``-1`` for pairs left to
    random variation (undetermined — hypothesis targets).
    """
    vals = np.asarray(values, dtype=float)
    bits: List[int] = []
    for a, b in pairs:
        delta = vals[a] - vals[b]
        if delta > margin:
            bits.append(1)
        elif delta < -margin:
            bits.append(0)
        else:
            bits.append(-1)
    return bits


def pair_cells_by_value(values: np.ndarray, exclude: Sequence[int],
                        min_gap: float) -> List[Tuple[int, int]]:
    """Greedy disjoint pairing of cells with well-separated values.

    Used by the §VI-C repartitioning: every produced pair's injected
    values differ by at least *min_gap*, so its response bit is fully
    attacker-determined.  Cells in *exclude* (the isolation target) are
    skipped; at most one trailing cell may remain unpaired and is
    dropped (it would form a singleton group with zero entropy anyway).
    """
    vals = np.asarray(values, dtype=float)
    order = [int(i) for i in np.argsort(vals, kind="stable")
             if int(i) not in set(exclude)]
    pairs: List[Tuple[int, int]] = []
    pending: List[int] = []
    for cell in order:
        if not pending:
            pending.append(cell)
            continue
        if abs(vals[cell] - vals[pending[0]]) >= min_gap:
            pairs.append((pending.pop(0), cell))
            # Any cells skipped because they tied with the previous
            # anchor can now pair with later, larger values.
            continue
        pending.append(cell)
    while len(pending) >= 2:
        a = pending.pop(0)
        partner = next((c for c in pending
                        if abs(vals[c] - vals[a]) >= min_gap), None)
        if partner is None:
            break
        pending.remove(partner)
        pairs.append((a, partner))
    return pairs
