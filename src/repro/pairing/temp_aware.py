"""Temperature-aware cooperative RO PUF (paper §IV-D, Yin & Qu HOST 2009).

Neighbouring oscillators are paired disjointly.  With the linear
temperature model, each pair's discrepancy ``Δf(T)`` is affine in ``T``;
over the operating range ``[T_min, T_max]`` a pair is classified
(paper Fig. 3) as:

* **good** — ``|Δf(T)| > Δf_th`` throughout: one reliable bit;
* **bad** — ``|Δf(T)| <= Δf_th`` throughout: discarded;
* **cooperating** — reliable except inside a crossover interval
  ``[T_l, T_h]`` around the temperature where ``Δf = 0``.

Helper data per cooperating pair stores ``T_l``, ``T_h``, the index of an
assisting cooperating pair with a non-intersecting crossover interval,
and the index of an assigned masking good pair.  At enrollment the
assistant is chosen so that ``r_c ⊕ r_g = r_a`` (all bits in *reference*
orientation, i.e. normalised to the low-temperature side); inside its
crossover interval the device then reconstructs ``r_c = r_g ⊕ r_a``.

Security-relevant subtlety reproduced here (paper §IV-D): the assistant
must be selected *at random* among the satisfying candidates.  A
deterministic scan that skips non-satisfying candidates leaks
``r_skipped != r_selected`` to anyone who can re-run the public
procedure — see :func:`deterministic_selection_leakage`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.pairing.base import Pair, pair_index_arrays
from repro.pairing.neighbor import neighbor_chain_pairs
from repro.puf.ro_array import ROArray
from repro.puf.measurement import enroll_frequencies


class PairClass(enum.Enum):
    """Fig. 3 classification of a neighbour pair."""

    GOOD = "good"
    BAD = "bad"
    COOPERATING = "cooperating"
    #: Unreliable near a range edge without an in-range crossover; the
    #: paper's three-way classification has no slot for these, so they
    #: are discarded like bad pairs (documented deviation).
    MARGINAL = "marginal"


@dataclass(frozen=True)
class PairProfile:
    """Affine Δf(T) model of one pair plus its classification.

    ``delta_at(T) = delta_ref + slope * (T - t_ref)``; the reference bit
    is the pair's response on the low-temperature side of its crossover
    (or throughout the range for good pairs).
    """

    pair: Pair
    kind: PairClass
    delta_ref: float
    slope: float
    t_ref: float
    t_low: Optional[float] = None
    t_high: Optional[float] = None
    crossover: Optional[float] = None

    def delta_at(self, temperature: float) -> float:
        """Modelled ``Δf`` (Hz) at the given temperature."""
        return self.delta_ref + self.slope * (temperature - self.t_ref)

    def reference_bit(self, t_min: float) -> int:
        """Response bit on the low-temperature side of the range."""
        return 1 if self.delta_at(t_min) >= 0 else 0


def classify_pair(pair: Pair, delta_min: float, delta_max: float,
                  t_min: float, t_max: float,
                  threshold: float) -> PairProfile:
    """Classify a pair from its measured discrepancies at the two
    environmental extremes (the original proposal's enrollment procedure).

    Parameters
    ----------
    delta_min, delta_max:
        ``f_a - f_b`` measured at ``t_min`` and ``t_max``.
    """
    if t_max <= t_min:
        raise ValueError("t_max must exceed t_min")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    slope = (delta_max - delta_min) / (t_max - t_min)

    def profile(kind, t_low=None, t_high=None, crossover=None):
        return PairProfile(pair=pair, kind=kind, delta_ref=delta_min,
                           slope=slope, t_ref=t_min, t_low=t_low,
                           t_high=t_high, crossover=crossover)

    inside_min = abs(delta_min) <= threshold
    inside_max = abs(delta_max) <= threshold
    same_sign = (delta_min >= 0) == (delta_max >= 0)

    if not inside_min and not inside_max and same_sign:
        return profile(PairClass.GOOD)
    if inside_min and inside_max:
        return profile(PairClass.BAD)

    if slope == 0.0:
        # Constant Δf inside the band at one extreme only cannot happen;
        # defensive fallback.
        return profile(PairClass.BAD)

    crossover = t_min - delta_min / slope
    # Temperatures where |Δf| = threshold.
    t_at_plus = t_min + (threshold - delta_min) / slope
    t_at_minus = t_min + (-threshold - delta_min) / slope
    t_low, t_high = sorted((t_at_plus, t_at_minus))

    if t_min <= crossover <= t_max:
        return profile(PairClass.COOPERATING,
                       t_low=max(t_low, t_min),
                       t_high=min(t_high, t_max),
                       crossover=crossover)
    # Unreliable band touches the range but the bit never flips inside
    # it: no crossover to compensate, but also not reliable everywhere.
    return profile(PairClass.MARGINAL, t_low=max(t_low, t_min),
                   t_high=min(t_high, t_max), crossover=crossover)


@dataclass(frozen=True)
class CooperationEntry:
    """Helper-data record of one cooperating pair.

    All fields are public and attacker-writable: the crossover interval
    boundaries and both indices are exactly the §VI-B manipulation
    surface.
    """

    pair_index: int
    t_low: float
    t_high: float
    good_index: int
    assist_index: int

    def with_assist(self, assist_index: int) -> "CooperationEntry":
        """Manipulated copy pointing at a different assisting pair."""
        return CooperationEntry(self.pair_index, self.t_low, self.t_high,
                                self.good_index, int(assist_index))

    def with_interval(self, t_low: float,
                      t_high: float) -> "CooperationEntry":
        """Manipulated copy with replaced interval boundaries."""
        return CooperationEntry(self.pair_index, float(t_low),
                                float(t_high), self.good_index,
                                self.assist_index)


@dataclass(frozen=True)
class TempAwareHelper:
    """Full public helper data of the construction."""

    pairs: Tuple[Pair, ...]
    good_indices: Tuple[int, ...]
    cooperation: Tuple[CooperationEntry, ...]
    t_min: float
    t_max: float
    threshold: float

    @property
    def bits(self) -> int:
        """Key length: one bit per good pair + one per cooperating pair."""
        return len(self.good_indices) + len(self.cooperation)

    def replace_entry(self, position: int,
                      entry: CooperationEntry) -> "TempAwareHelper":
        """Helper data with one cooperation record replaced."""
        records = list(self.cooperation)
        records[position] = entry
        return TempAwareHelper(self.pairs, self.good_indices,
                               tuple(records), self.t_min, self.t_max,
                               self.threshold)


class AssistantSelectionError(RuntimeError):
    """No admissible assisting pair satisfies the masking constraint."""


class _Unassistable(Exception):
    """Internal: a cooperating pair found no assistant this round."""

    def __init__(self, pair_index: int):
        super().__init__(f"pair {pair_index} has no admissible assistant")
        self.pair_index = pair_index


class TempAwareCooperative:
    """Enrollment and reconstruction of the HOST 2009 construction."""

    def __init__(self, t_min: float, t_max: float, threshold: float,
                 selection: str = "randomized",
                 enrollment_samples: int = 9):
        """
        Parameters
        ----------
        t_min, t_max:
            User-defined operating temperature range (°C).
        threshold:
            Reliability threshold ``Δf_th`` in Hz.
        selection:
            Assistant-selection policy: ``"randomized"`` (as the paper
            demands) or ``"deterministic"`` (first satisfying candidate
            in index order — leaks relations, §IV-D).
        enrollment_samples:
            Averaged frequency measurements per environmental extreme.
        """
        if selection not in ("randomized", "deterministic"):
            raise ValueError(
                "selection must be 'randomized' or 'deterministic'")
        self._t_min = float(t_min)
        self._t_max = float(t_max)
        self._threshold = float(threshold)
        self._selection = selection
        self._samples = int(enrollment_samples)

    # ------------------------------------------------------------------
    # enrollment

    def profile_pairs(self, array: ROArray,
                      rng: RNGLike = None) -> List[PairProfile]:
        """Measure at both extremes and classify every neighbour pair."""
        gen = ensure_rng(rng)
        pairs = neighbor_chain_pairs(array.params.rows, array.params.cols,
                                     overlap=False)
        f_lo = enroll_frequencies(array, self._samples,
                                  temperature=self._t_min, rng=gen)
        f_hi = enroll_frequencies(array, self._samples,
                                  temperature=self._t_max, rng=gen)
        profiles = []
        for pair in pairs:
            a, b = pair
            profiles.append(classify_pair(
                pair, f_lo[a] - f_lo[b], f_hi[a] - f_hi[b],
                self._t_min, self._t_max, self._threshold))
        return profiles

    @staticmethod
    def intervals_intersect(first: PairProfile,
                            second: PairProfile) -> bool:
        """Whether two cooperating pairs' crossover intervals overlap."""
        return not (first.t_high < second.t_low
                    or second.t_high < first.t_low)

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[TempAwareHelper, np.ndarray]:
        """Classify pairs, build cooperation records, output the key bits.

        The key is the concatenation of good-pair reference bits followed
        by cooperating-pair reference bits, in pair-index order.
        Cooperating pairs for which no admissible assistant exists are
        discarded like bad pairs (iterated to a fixpoint, since each
        removal shrinks the assistant pool).

        Raises
        ------
        AssistantSelectionError
            If cooperating pairs exist but there is no good pair at all
            to mask with.
        """
        gen = ensure_rng(rng)
        profiles = self.profile_pairs(array, gen)

        good = [i for i, p in enumerate(profiles)
                if p.kind is PairClass.GOOD]
        coop = [i for i, p in enumerate(profiles)
                if p.kind is PairClass.COOPERATING]
        if not good and coop:
            raise AssistantSelectionError(
                "no good pairs available for masking")

        # Cooperating pairs without any admissible assistant are
        # discarded, like bad pairs; dropping one can invalidate another
        # pair's assistant pool, so iterate to a fixpoint.
        active = list(coop)
        while True:
            try:
                records = self._build_records(profiles, good, active, gen)
                break
            except _Unassistable as exc:
                active.remove(exc.pair_index)
                if not active:
                    records = []
                    break

        helper = TempAwareHelper(
            pairs=tuple(p.pair for p in profiles),
            good_indices=tuple(good),
            cooperation=tuple(records),
            t_min=self._t_min, t_max=self._t_max,
            threshold=self._threshold)
        key_bits = np.array(
            [profiles[i].reference_bit(self._t_min) for i in good]
            + [profiles[e.pair_index].reference_bit(self._t_min)
               for e in records], dtype=np.uint8)
        return helper, key_bits

    def _build_records(self, profiles: Sequence[PairProfile],
                       good: Sequence[int], active: Sequence[int],
                       gen) -> List[CooperationEntry]:
        """Assistant/mask selection for every active cooperating pair.

        Randomized policy (secure): pick a random admissible assistant,
        then a random good pair whose bit satisfies the masking
        constraint.  Deterministic policy (leaky, §IV-D): the good pair
        is assigned round-robin and assistants are scanned in index
        order until the constraint is met.
        """
        records: List[CooperationEntry] = []
        for position, pair_index in enumerate(active):
            profile = profiles[pair_index]
            r_c = profile.reference_bit(self._t_min)
            candidates = [j for j in active if j != pair_index
                          and not self.intervals_intersect(
                              profile, profiles[j])]
            good_index = None
            assist = None
            if self._selection == "randomized":
                candidates = list(candidates)
                gen.shuffle(candidates)
                for j in candidates:
                    needed = r_c ^ profiles[j].reference_bit(self._t_min)
                    goods = [g for g in good
                             if profiles[g].reference_bit(self._t_min)
                             == needed]
                    if goods:
                        assist = j
                        good_index = int(gen.choice(goods))
                        break
            else:
                good_index = good[position % len(good)]
                target = r_c ^ profiles[good_index].reference_bit(
                    self._t_min)
                for j in candidates:
                    if profiles[j].reference_bit(self._t_min) == target:
                        assist = j
                        break
            if assist is None:
                raise _Unassistable(pair_index)
            records.append(CooperationEntry(
                pair_index=pair_index,
                t_low=profile.t_low,
                t_high=profile.t_high,
                good_index=good_index,
                assist_index=assist))
        return records

    # ------------------------------------------------------------------
    # reconstruction

    def evaluate(self, frequencies: np.ndarray, helper: TempAwareHelper,
                 temperature: float) -> np.ndarray:
        """Device-side key bits from one measurement at *temperature*.

        *frequencies* is the (noisy) measurement vector at the given
        operating temperature; *temperature* is the on-chip sensor value
        the device uses to interpret the helper intervals.
        """
        freqs = np.asarray(frequencies, dtype=float)
        entry_of: Dict[int, CooperationEntry] = {
            e.pair_index: e for e in helper.cooperation}

        def measured_bit(pair_index: int) -> int:
            a, b = helper.pairs[pair_index]
            return 1 if freqs[a] >= freqs[b] else 0

        def coop_reference_bit(pair_index: int, depth: int) -> int:
            """Reference bit of a cooperating pair at this temperature."""
            if depth > 1:
                # Assistance is single-level by construction (assistant
                # intervals must not intersect the requester's); deeper
                # recursion means the helper data was manipulated into a
                # loop — refuse rather than recurse unboundedly.
                raise ValueError(
                    "cooperation helper data forms an assistance cycle")
            if pair_index not in entry_of:
                raise ValueError(
                    f"assist index {pair_index} is not a cooperating pair")
            entry = entry_of[pair_index]
            if temperature < entry.t_low:
                return measured_bit(pair_index)
            if temperature > entry.t_high:
                return measured_bit(pair_index) ^ 1
            r_g = measured_bit(entry.good_index)
            r_a = coop_reference_bit(entry.assist_index, depth + 1)
            return r_g ^ r_a

        bits = [measured_bit(i) for i in helper.good_indices]
        bits += [coop_reference_bit(e.pair_index, 0)
                 for e in helper.cooperation]
        return np.array(bits, dtype=np.uint8)

    def evaluate_batch(self, frequencies: np.ndarray,
                       helper: TempAwareHelper,
                       temperatures: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`evaluate` over a measurement batch.

        Parameters
        ----------
        frequencies:
            ``(B, n)`` float matrix of noisy measurement rows, one per
            reconstruction attempt.
        helper:
            Public helper data (possibly manipulated).
        temperatures:
            ``(B,)`` float vector of *sensed* temperatures, one per row
            — each attempt reads the on-chip sensor independently.

        Returns
        -------
        (bits, valid):
            ``bits`` is the ``(B, helper.bits)`` uint8 response matrix;
            ``valid`` is a ``(B,)`` boolean vector.  Row ``i`` of
            ``bits`` equals ``evaluate(frequencies[i], helper,
            temperatures[i])`` wherever ``valid[i]`` is true; where it
            is false the scalar path would have raised ``ValueError``
            (assistant index not a cooperating pair, or an assistance
            cycle — both observable per-row failures), and the row's
            bits are unspecified.
        """
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.ndim != 2:
            raise ValueError("frequencies must be a (B, n) matrix")
        temps = np.asarray(temperatures, dtype=float)
        count = freqs.shape[0]
        if temps.shape != (count,):
            raise ValueError("need one sensed temperature per row")

        first, second = pair_index_arrays(helper.pairs)
        # (B, P) comparator outcomes, matching the scalar tie policy
        # (``>=``) bit for bit.
        measured = freqs[:, first] >= freqs[:, second]

        if helper.good_indices:
            good_bits = measured[:, list(helper.good_indices)]
        else:
            good_bits = np.zeros((count, 0), dtype=bool)

        entries = helper.cooperation
        valid = np.ones(count, dtype=bool)
        if entries:
            # The scalar path resolves every record through a
            # pair_index-keyed dict, so on (manipulated) helper data
            # with duplicate pair indices the *last* duplicate wins
            # for all of them; replicate that resolution before
            # building the column arrays.
            entry_of = {e.pair_index: e for e in entries}
            resolved = [entry_of[e.pair_index] for e in entries]
            position_of = {e.pair_index: i
                           for i, e in enumerate(entries)}
            pair_idx = np.array([e.pair_index for e in resolved],
                                dtype=np.intp)
            t_low = np.array([e.t_low for e in resolved])
            t_high = np.array([e.t_high for e in resolved])
            good_idx = np.array([e.good_index for e in resolved],
                                dtype=np.intp)
            assist_pos = np.array(
                [position_of.get(e.assist_index, -1)
                 for e in resolved],
                dtype=np.intp)

            own = measured[:, pair_idx]
            above = temps[:, None] > t_high[None, :]
            inside = (~above) & (temps[:, None] >= t_low[None, :])
            # Reference bit assuming the row is *outside* the entry's
            # interval; junk inside, where assistance takes over.
            shallow = np.where(above, ~own, own)
            # Single-level assistance: the assistant's own reference
            # bit, read through the same outside-interval rule.  A -1
            # position indexes the last column — junk, but only where
            # the row is invalid anyway.
            assisted = measured[:, good_idx] ^ shallow[:, assist_pos]
            coop_bits = np.where(inside, assisted, shallow)

            # A row fails observably when any entry needs assistance
            # from a non-cooperating pair, or when the assistant is
            # itself inside its interval (the scalar path's cycle
            # refusal at recursion depth 2).
            no_assist = assist_pos < 0
            assist_inside = inside[:, assist_pos]
            bad = inside & (no_assist[None, :] | assist_inside)
            valid = ~bad.any(axis=1)
        else:
            coop_bits = np.zeros((count, 0), dtype=bool)

        bits = np.concatenate(
            [good_bits, coop_bits], axis=1).astype(np.uint8)
        return bits, valid


def deterministic_selection_leakage(
        helper: TempAwareHelper,
        profiles: Sequence[PairProfile]) -> List[Tuple[int, int, int]]:
    """Relations leaked by a deterministic assistant-selection scan.

    Re-runs the public candidate ordering: every admissible candidate
    *scanned before* the selected assistant must have failed the masking
    constraint, so its reference bit differs from the assistant's.
    Returns triples ``(entry_position, skipped_pair, selected_pair)``
    each asserting ``r_skipped != r_selected`` — key information an
    attacker obtains from helper data alone, with zero device queries
    (paper §IV-D).
    """
    leaks: List[Tuple[int, int, int]] = []
    coop = [e.pair_index for e in helper.cooperation]
    for position, entry in enumerate(helper.cooperation):
        requester = profiles[entry.pair_index]
        candidates = [j for j in coop if j != entry.pair_index
                      and not TempAwareCooperative.intervals_intersect(
                          requester, profiles[j])]
        for j in candidates:
            if j == entry.assist_index:
                break
            leaks.append((position, j, entry.assist_index))
    return leaks
