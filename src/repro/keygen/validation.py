"""Device-side helper-data validation (hardening experiments).

Paper §VII-C argues that helper-data *formats and sanity checks* are
security-critical yet typically unspecified.  This module implements the
checks a defensive device could realistically perform on incoming
helper data, plus hardened key-generator variants that enforce them:

* **pair disjointness** for pair lists (already enforced by
  :class:`~repro.pairing.sequential.SequentialPairing`);
* **polynomial amplitude bounds** for distiller coefficients — the
  systematic trend of a real IC spans a few MHz, so a surface swinging
  orders of magnitude more is necessarily an attack payload (§VI-C);
* **measured-threshold verification** for group maps — the device can
  recompute, on its own residual measurements, whether every intra-group
  pair actually exceeds ``Δf_th``;
* **interval sanity** for temperature-aware cooperation records.

Batch evaluators carry the measured-threshold check in the pair
extraction (:attr:`~repro.keygen.batch.PairColumns.gap`).

The hardening is deliberately *imperfect*: the checks close the steep
payload channels but are construction-specific patchwork — which is
exactly the paper's argument for preferring the fuzzy extractor.  The
bench ``bench_countermeasures.py`` quantifies what each check stops.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence

import numpy as np

from repro.distiller.distiller import DistillerHelper
from repro.grouping.algorithm import GroupingHelper
from repro.keygen.base import OperatingPoint, ReconstructionFailure
from repro.keygen.batch import ConstantEvaluator, PairColumns, _gap_violations
from repro.keygen.group_based import (
    GroupBasedKeyGen,
    GroupBasedKeyHelper,
    GroupHypothesis,
)
from repro.keygen.sequential import (
    SequentialKeyHelper,
    SequentialPairingKeyGen,
)
from repro.keygen.temp_aware import TempAwareKeyGen, TempAwareKeyHelper
from repro.pairing.base import Pair, pair_index_arrays
from repro.pairing.temp_aware import TempAwareHelper


class HelperDataRejected(ReconstructionFailure):
    """A device-side sanity check refused the helper data.

    Subclasses :class:`ReconstructionFailure` because a rejection is
    externally just another failed reconstruction (the attacker cannot
    tell a validation refusal from an ECC failure).
    """


def validate_distiller_amplitude(helper: DistillerHelper, rows: int,
                                 cols: int,
                                 max_span: float) -> None:
    """Reject polynomial coefficients whose surface span is implausible.

    Evaluates the stored polynomial over the physical array and compares
    its peak-to-peak span against *max_span* (a design-time bound, e.g.
    four times the expected systematic amplitude).
    """
    xs = np.arange(rows * cols, dtype=float) % cols
    ys = np.arange(rows * cols, dtype=float) // cols
    values = helper.polynomial(xs, ys)
    span = float(values.max() - values.min())
    if span > max_span:
        raise HelperDataRejected(
            f"distiller surface spans {span:.3e} Hz, exceeding the "
            f"plausibility bound {max_span:.3e} Hz")


def validate_group_thresholds(residuals: np.ndarray,
                              grouping: GroupingHelper,
                              threshold: float,
                              tolerance: float = 0.5) -> None:
    """Verify the grouping property on the device's own measurements.

    Every intra-group pair must exceed ``threshold`` (scaled by
    *tolerance* to absorb measurement noise) on the residuals the device
    just measured.  A repartitioned group map whose pairs owe their
    separation to an injected surface fails this check as soon as the
    injection itself is rejected or absent.
    """
    _check_gaps(residuals, _group_pairs(grouping), threshold * tolerance,
                "group pair")


def _group_pairs(grouping: GroupingHelper) -> List[Pair]:
    """Every intra-group oscillator pair, in group and member order."""
    return [pair for group in grouping.groups
            for pair in combinations(group, 2)]


def _check_gaps(values: np.ndarray, pairs: Sequence[Pair], floor: float,
                what: str) -> None:
    """Reject the first pair whose measured gap violates *floor*."""
    values = np.asarray(values, dtype=float)
    a, b = pair_index_arrays(pairs)
    bad = np.flatnonzero(_gap_violations(values[a], values[b], floor))
    if bad.size:
        a, b = pairs[bad[0]]
        raise HelperDataRejected(
            f"{what} ({a}, {b}) violates the measured threshold")


def validate_group_membership(grouping: GroupingHelper, n: int) -> None:
    """Structural checks: indices in range, no oscillator re-used."""
    seen = set()
    for group in grouping.groups:
        for member in group:
            if not 0 <= member < n:
                raise HelperDataRejected(
                    f"group member {member} out of range")
            if member in seen:
                raise HelperDataRejected(
                    f"oscillator {member} appears in two groups")
            seen.add(member)


def validate_pair_thresholds(freqs: np.ndarray,
                             pairs: Sequence[Pair],
                             threshold: float,
                             tolerance: float = 0.5) -> None:
    """Verify the pairing property on the device's own measurements.

    Algorithm 1 only stores a pair when the enrolled frequency gap
    exceeds ``Δf_th``; a defensive device can recompute that property on
    the frequencies it just measured (scaled by *tolerance* to absorb
    measurement noise).  A substituted pair list whose gaps do not stem
    from the physical array fails the check.
    """
    _check_gaps(freqs, pairs, threshold * tolerance, "pair")


def validate_cooperation_records(scheme: TempAwareHelper) -> None:
    """Sanity checks on temperature-aware cooperation records.

    Intervals must be ordered and inside the operating range; assistant
    indices must reference cooperating pairs with non-intersecting
    intervals; good indices must reference good pairs.
    """
    coop_entries = {e.pair_index: e for e in scheme.cooperation}
    good = set(scheme.good_indices)
    for entry in scheme.cooperation:
        if not (scheme.t_min <= entry.t_low <= entry.t_high
                <= scheme.t_max):
            raise HelperDataRejected(
                f"cooperation interval [{entry.t_low}, {entry.t_high}] "
                f"outside the operating range")
        if entry.good_index not in good:
            raise HelperDataRejected(
                f"masking index {entry.good_index} is not a good pair")
        assistant = coop_entries.get(entry.assist_index)
        if assistant is None:
            raise HelperDataRejected(
                f"assistant {entry.assist_index} is not a cooperating "
                f"pair")
        if not (entry.t_high < assistant.t_low
                or assistant.t_high < entry.t_low):
            raise HelperDataRejected(
                "assistant interval intersects the requester's")


class HardenedGroupBasedKeyGen(GroupBasedKeyGen):
    """Group-based device that validates helper data before use.

    Enforces the distiller amplitude bound, group-map structure and the
    measured-threshold property on every reconstruction.  Validation
    runs on its own readout, as a real device would sanity-check
    incoming helper data before the regeneration readout: every
    reconstruction takes both readouts, rejected or not.
    """

    readouts = 2

    def __init__(self, rows: int, cols: int,
                 max_polynomial_span: float,
                 threshold_tolerance: float = 0.5, **kwargs):
        super().__init__(**kwargs)
        self._rows = int(rows)
        self._cols = int(cols)
        self._max_span = float(max_polynomial_span)
        self._tolerance = float(threshold_tolerance)

    def _validate_structure(self, array, distiller: DistillerHelper,
                            grouping: GroupingHelper) -> None:
        validate_distiller_amplitude(distiller, self._rows, self._cols,
                                     self._max_span)
        validate_group_membership(grouping, array.n)

    def reconstruct_from_frequencies(
            self, array, freqs, helper: GroupBasedKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Validate on the first readout, regenerate from the second."""
        check, regen = np.split(np.asarray(freqs, dtype=float), 2)
        self._validate_structure(array, helper.distiller, helper.grouping)
        residuals = self.distiller.residuals(array.x, array.y, check,
                                             helper.distiller)
        validate_group_thresholds(residuals, helper.grouping,
                                  self.grouping.threshold,
                                  self._tolerance)
        return super().reconstruct_from_frequencies(array, regen,
                                                    helper, op)

    def batch_evaluator(self, array, helper: GroupBasedKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Structure checked once; the gap check refuses rows."""
        try:
            self._validate_structure(array, helper.distiller, helper.grouping)
        except HelperDataRejected:
            return ConstantEvaluator(False)
        return super().batch_evaluator(array, helper, op)

    def _device_extraction(self, array, extract: PairColumns
                           ) -> PairColumns:
        """*extract* on the regeneration readout of the two-readout
        row, the trend tiled per readout, checked on the first."""
        n = array.n
        return PairColumns(extract.index + n, np.tile(extract.trend, 2),
                           extract.kind,
                           (self.grouping.threshold * self._tolerance, n))

    def describe(self, array, described):
        """A §VI-C hypothesis as its block, or ``None`` (it materialises
        and is refused) when its helper fails the structure checks."""
        if isinstance(described, GroupHypothesis):
            pair = described.pair
            try:
                self._validate_structure(
                    array, pair.enrolled.distiller.with_added(pair.payload),
                    pair.enrolled.grouping.with_groups(pair.groups))
            except HelperDataRejected:
                return None
        return super().describe(array, described)


class HardenedSequentialKeyGen(SequentialPairingKeyGen):
    """Sequential-pairing device that validates helper data before use.

    On top of the structural pair checks the base scheme already
    enforces (index ranges, disjointness), this variant recomputes the
    Algorithm 1 threshold property on its own readout: every stored
    pair must exceed ``Δf_th`` (scaled by *threshold_tolerance*) on the
    frequencies the device just measured.
    """

    def __init__(self, threshold: float,
                 threshold_tolerance: float = 0.5, **kwargs):
        super().__init__(threshold, **kwargs)
        self._tolerance = float(threshold_tolerance)

    def reconstruct_from_frequencies(
            self, array, freqs, helper: SequentialKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Reject malformed or sub-threshold pairs, then regenerate."""
        pairing = helper.pairing
        try:
            pairing.check(array.n,
                          allow_reuse=not self.pairing.enforce_disjoint)
        except ValueError as exc:
            raise HelperDataRejected(str(exc)) from exc
        validate_pair_thresholds(freqs, pairing.index,
                                 self.pairing.threshold, self._tolerance)
        return super().reconstruct_from_frequencies(array, freqs,
                                                    helper, op)

    def _device_extraction(self, array, extract: PairColumns
                           ) -> PairColumns:
        """*extract*'s pairs with the threshold check on them."""
        return PairColumns(extract.index, gap=(
            self.pairing.threshold * self._tolerance, 0))


class HardenedTempAwareKeyGen(TempAwareKeyGen):
    """Temperature-aware device that validates cooperation records."""

    def reconstruct_sensed(self, freqs, sensed: float,
                           helper: TempAwareKeyHelper) -> np.ndarray:
        """Reject invalid cooperation records, then reconstruct (the
        sensor is read either way)."""
        validate_cooperation_records(helper.scheme)
        return super().reconstruct_sensed(freqs, sensed, helper)

    def batch_evaluator(self, array, helper: TempAwareKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Validate records once, then use the vectorized path."""
        try:
            validate_cooperation_records(helper.scheme)
        except HelperDataRejected:
            return ConstantEvaluator(False)
        return super().batch_evaluator(array, helper, op)
