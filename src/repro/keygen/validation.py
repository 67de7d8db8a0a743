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
from repro.keygen.batch import ConstantEvaluator
from repro.keygen.group_based import GroupBasedKeyGen, GroupBasedKeyHelper
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


def _gap_violations(values: np.ndarray, a: np.ndarray, b: np.ndarray,
                    floor: float) -> np.ndarray:
    """Which ``(a, b)`` gaps of *values* (last axis) sit at or below *floor*.

    The one definition of the measured-threshold predicate, shared by
    the scalar checks and the batch evaluators' per-row masks.  A NaN
    gap is no violation.
    """
    return np.abs(values[..., a] - values[..., b]) <= floor


def _check_gaps(values: np.ndarray, pairs: Sequence[Pair], floor: float,
                what: str) -> None:
    """Reject the first pair whose measured gap violates *floor*."""
    bad = np.flatnonzero(_gap_violations(
        np.asarray(values, dtype=float), *pair_index_arrays(pairs), floor))
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


def _with_check(evaluator, reject, columns: slice = slice(None)):
    """*evaluator* behind a per-row check; *reject* flags refused pairs.

    A base scheme's constant evaluator refuses the helper outright,
    which no further check can overturn.
    """
    if isinstance(evaluator, ConstantEvaluator):
        return evaluator
    return evaluator.masked(lambda freqs: ~reject(freqs).any(axis=1),
                            columns)


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

    def _validate_structure(self, array,
                            helper: GroupBasedKeyHelper) -> None:
        validate_distiller_amplitude(helper.distiller, self._rows,
                                     self._cols, self._max_span)
        validate_group_membership(helper.grouping, array.n)

    def reconstruct_from_frequencies(
            self, array, freqs, helper: GroupBasedKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Validate on the first readout, regenerate from the second."""
        check, regen = np.split(np.asarray(freqs, dtype=float), 2)
        self._validate_structure(array, helper)
        residuals = self.distiller.residuals(array.x, array.y, check,
                                             helper.distiller)
        validate_group_thresholds(residuals, helper.grouping,
                                  self.grouping.threshold,
                                  self._tolerance)
        return super().reconstruct_from_frequencies(array, regen,
                                                    helper, op)

    def batch_evaluator(self, array, helper: GroupBasedKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Structure checked once; the residual check masks each row."""
        try:
            self._validate_structure(array, helper)
        except HelperDataRejected:
            return ConstantEvaluator(False)
        a, b = pair_index_arrays(_group_pairs(helper.grouping))
        floor = self.grouping.threshold * self._tolerance
        n, x, y = array.n, array.x, array.y
        distiller, trend = self.distiller, helper.distiller

        def reject(freqs: np.ndarray) -> np.ndarray:
            residuals = distiller.residuals_batch(x, y, freqs[:, :n],
                                                  trend)
            return _gap_violations(residuals, a, b, floor)

        return _with_check(super().batch_evaluator(array, helper, op),
                           reject, slice(n, None))

    def describe(self, array, described) -> None:
        """``None``: every helper is checked first, so it materialises."""
        return None


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

    def batch_evaluator(self, array, helper: SequentialKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """The base evaluator behind the per-row threshold check."""
        a, b = helper.pairing.columns
        floor = self.pairing.threshold * self._tolerance
        return _with_check(
            super().batch_evaluator(array, helper, op),
            lambda freqs: _gap_violations(freqs, a, b, floor))


class HardenedTempAwareKeyGen(TempAwareKeyGen):
    """Temperature-aware device that validates cooperation records."""

    def reconstruct_from_frequencies(
            self, array, freqs, helper: TempAwareKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Reject invalid cooperation records, then reconstruct."""
        validate_cooperation_records(helper.scheme)
        return super().reconstruct_from_frequencies(array, freqs,
                                                    helper, op)

    def batch_evaluator(self, array, helper: TempAwareKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Validate records once, then use the vectorized path."""
        try:
            validate_cooperation_records(helper.scheme)
        except HelperDataRejected:
            return ConstantEvaluator(False)
        return super().batch_evaluator(array, helper, op)
