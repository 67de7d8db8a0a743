"""The attack × scheme × countermeasure matrix, as data.

The warehouse iterates the **full** cross product of the five keygen
schemes, the attack families and the countermeasure knobs quantified
by ``benchmarks/bench_countermeasures.py``.  Most combinations are
structurally inapplicable — a §VI-C group attack has nothing to parse
in sequential-pairing helper data, and the fuzzy-extractor
architecture removes the manipulation channel outright — and those
cells are still first-class: they appear in every run as ``n/a``
records with an explicit reason, so a matrix is complete by
construction and a diff can never silently lose coverage.

Runnable cells pin the paper geometry they reproduce (Fig. 6's 4×10
array for the group/distiller constructions, 8×16 for the pairing
families), and a ``quick`` flag marks the reduced matrix the CI smoke
job runs.  The scenario conformance corpus (:func:`full_corpus`) is a
second grid of the same :class:`MatrixCell` type, run by the same
:func:`repro.warehouse.runner.run_cell`; its committed pass-bands
live in :mod:`repro.scenario.conformance`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import schemes
from repro.puf import ROArrayParams
from repro.scenario.trajectory import FAMILIES, TrajectorySpec

#: The five keygen schemes (axis order is the matrix iteration order).
SCHEMES = ("sequential", "temp-aware", "group-based", "distiller",
           "fuzzy-extractor")

#: Attack families: the §VI-A paired/SPRT/ML distinguishers, the §VI-C
#: group attack, the §VI-D distiller attack, the §VI-B
#: temperature-aware attack, plus the reconstruction-timing baseline
#: of the §VII-C fuzzy-extractor comparison (not an attack on the
#: scheme — the cost axis the paper trades the attack surface for).
ATTACKS = ("sequential", "sprt", "ml", "group", "distiller",
           "temp-aware", "reconstruction")

#: Countermeasure knobs of ``bench_countermeasures.py``: device-side
#: validation off ("baseline") or on ("hardened").
COUNTERMEASURES = ("baseline", "hardened")

#: Reasons for structurally inapplicable cells.
_REASON_MISMATCH = ("attack targets a different helper-data "
                    "structure")
_REASON_FUZZY = ("the fuzzy-extractor architecture removes the "
                 "helper-data manipulation channel (paper §VII-C)")
_REASON_NO_HARDENING = ("no device-side validation variant exists "
                        "for this scheme")
_REASON_COVERED = ("covered by the sequential/sequential/hardened "
                   "cell; the distinguisher variant adds no new "
                   "validation surface")
_REASON_RECON_ONLY = ("the reconstruction-timing baseline quantifies "
                      "the fuzzy-extractor cost axis only (paper "
                      "§VII-C)")


@dataclass(frozen=True)
class MatrixCell:
    """One cell of a warehouse grid: the attack matrix or the corpus.

    ``runnable`` cells carry their device model (``params``) and the
    :mod:`repro.schemes` ``preset`` they enroll; inapplicable cells
    carry the ``reason`` they produce ``n/a`` records instead.
    ``variant`` disambiguates scheme sub-configurations (the two
    distiller pairing modes, the ML-decoded sequential code) and is
    part of the cell identifier.

    A cell with a trajectory ``family`` is a corpus cell
    (:func:`full_corpus`): ``attack`` is its kind
    (``failure`` or ``attack``), ``perturbation`` labels its noise
    and ``devices`` is its fleet size.  Failure-kind cells run
    ``trials`` reconstructions per device (a ramp spans ``trials``).
    """

    scheme: str
    attack: str
    countermeasure: str
    variant: str = ""
    runnable: bool = False
    reason: str = ""
    quick: bool = False
    params: Optional[ROArrayParams] = None
    preset: str = ""
    family: Optional[str] = None
    perturbation: str = ""
    trials: int = 0
    devices: int = 0

    @property
    def cell_id(self) -> str:
        """Stable identifier: ``scheme[variant]/attack/cm``, or
        ``kind/scheme/family/perturbation`` for corpus cells."""
        if self.family is not None:
            return (f"{self.attack}/{self.scheme}/{self.family}/"
                    f"{self.perturbation}")
        return (f"{_label(self.scheme, self.variant)}/{self.attack}/"
                f"{self.countermeasure}")

    def _digest(self) -> bytes:
        return hashlib.sha256(self.cell_id.encode("ascii")).digest()

    def seed_material(self, seed: int) -> List[int]:
        """Entropy for this cell's RNG root, stable across registry
        growth (derived from the cell identifier, not its position)."""
        return [int(seed), int.from_bytes(self._digest()[:8], "little")]

    def population_seed(self, seed: int) -> int:
        """:meth:`seed_material` packed into one integer seed.

        NumPy splits an integer seed into 32-bit words, so this seeds
        the same RNG root as the material list (exact while the
        digest's top word is non-zero, as for every registered cell).
        A registry manifest records it, so ``repro service`` rebuilds
        the cell's fleet from the manifest.
        """
        seed, digest = self.seed_material(seed)
        return seed | digest << 32 * max(1, -(-seed.bit_length() // 32))

    def trajectory(self) -> Optional[TrajectorySpec]:
        """The cell's environment trajectory: ``None`` without a
        family, else the family's terms (:data:`FAMILIES`; ``constant``
        has none) seeded from id-digest bytes 8-16."""
        if self.family is None:
            return None
        return TrajectorySpec(terms=FAMILIES[self.family](self.trials),
                              seed=int.from_bytes(self._digest()[8:16],
                                                  "little"))


def _label(scheme: str, variant: str) -> str:
    return f"{scheme}[{variant}]" if variant else scheme


#: Device models of the runnable cells: the device-default noise at
#: the paper geometries, with a wider slope spread for temp-aware.
_PAIRING = ROArrayParams(rows=8, cols=16)
_GROUP = ROArrayParams(rows=4, cols=10)
_TEMP = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)


def _runnable(scheme: str, attack: str, countermeasure: str,
              variant: str, quick: bool, params: ROArrayParams,
              preset: str = "", trials: int = 0) -> MatrixCell:
    """A runnable cell; its preset defaults to ``scheme[variant]``."""
    return MatrixCell(scheme, attack, countermeasure, variant,
                      runnable=True, quick=quick, params=params,
                      preset=preset or _label(scheme, variant),
                      trials=trials)


#: Runnable cells.  Several may share one (scheme, attack,
#: countermeasure) coordinate (the two distiller pairing modes); they
#: keep this order within it.
_RUNNABLE: Tuple[MatrixCell, ...] = (
    _runnable("sequential", "sequential", "baseline", "", True, _PAIRING),
    # Pair disjointness is the only device-side check the scheme
    # admits and the swap channel survives it — the paper's point.
    # Running the cell documents the survival in the warehouse.
    _runnable("sequential", "sequential", "hardened", "", False,
              _PAIRING),
    _runnable("sequential", "sprt", "baseline", "", True, _PAIRING),
    _runnable("sequential", "ml", "baseline", "rm5", False, _PAIRING),
    _runnable("group-based", "group", "baseline", "", True, _GROUP),
    _runnable("group-based", "group", "hardened", "", True, _GROUP,
              preset="group-based-hardened"),
    _runnable("temp-aware", "temp-aware", "baseline", "", True, _TEMP),
    _runnable("temp-aware", "temp-aware", "hardened", "", False, _TEMP,
              preset="temp-aware-hardened"),
    _runnable("distiller", "distiller", "baseline", "masking", True,
              _GROUP),
    _runnable("distiller", "distiller", "baseline", "neighbor-overlap",
              False, _GROUP),
    # The §VII-C comparison point: the fuzzy extractor removes the
    # manipulation channel but pays in reconstruction cost.  These
    # cells time 64 reconstructions per device at the paper's two
    # geometries so the warehouse carries the trade-off, not just
    # the n/a records.
    _runnable("fuzzy-extractor", "reconstruction", "baseline", "4x10",
              False, _GROUP, trials=64),
    _runnable("fuzzy-extractor", "reconstruction", "baseline", "8x16",
              False, _PAIRING, trials=64),
)


def _na_reason(scheme: str, attack: str, countermeasure: str) -> str:
    """Why a non-runnable coordinate is structurally inapplicable."""
    if attack == "reconstruction":
        if scheme == "fuzzy-extractor":
            return _REASON_NO_HARDENING
        return _REASON_RECON_ONLY
    if scheme == "fuzzy-extractor":
        return _REASON_FUZZY
    matched = {
        "sequential": ("sequential", "sprt", "ml"),
        "temp-aware": ("temp-aware",),
        "group-based": ("group",),
        "distiller": ("distiller",),
    }[scheme]
    if attack not in matched:
        return _REASON_MISMATCH
    if countermeasure == "hardened":
        if scheme in ("sequential",):
            return _REASON_COVERED
        return _REASON_NO_HARDENING
    raise AssertionError(  # pragma: no cover - registry invariant
        f"unclassified cell {scheme}/{attack}/{countermeasure}")


def full_matrix() -> List[MatrixCell]:
    """Every cell of the cross product, in canonical axis order."""
    cells: List[MatrixCell] = []
    for scheme in SCHEMES:
        for attack in ATTACKS:
            for countermeasure in COUNTERMEASURES:
                coordinate = (scheme, attack, countermeasure)
                runnable = [cell for cell in _RUNNABLE
                            if (cell.scheme, cell.attack,
                                cell.countermeasure) == coordinate]
                cells.extend(runnable or [MatrixCell(
                    *coordinate, reason=_na_reason(*coordinate))])
    return cells


def quick_matrix() -> List[MatrixCell]:
    """The reduced matrix of the CI smoke job.

    Keeps every inapplicable cell (they cost nothing and keep the
    matrix shape complete) but only the ``quick``-flagged runnable
    cells.
    """
    return [cell for cell in full_matrix()
            if not cell.runnable or cell.quick]


def select_cells(cells: List[MatrixCell],
                 pattern: Optional[str] = None) -> List[MatrixCell]:
    """Filter cells by an ``fnmatch`` pattern on the cell identifier.

    An exact identifier always selects its cell, even though variant
    ids contain ``[...]`` (which fnmatch would read as a character
    class).
    """
    if pattern is None:
        return list(cells)
    exact = [cell for cell in cells if cell.cell_id == pattern]
    if exact:
        return exact
    from fnmatch import fnmatchcase

    return [cell for cell in cells
            if fnmatchcase(cell.cell_id, pattern)]


#: Scenario-corpus scheme label -> :mod:`repro.schemes` preset.  Small
#: arrays keep every cell fast enough for the CI smoke slice; the
#: presets' sigmas keep baseline failure rates near (but mostly off)
#: zero while the ``noise_scale=4`` tamper probe saturates well
#: outside every band.  The distiller cells run neighbor-disjoint
#: pairing: the masked construction never fails at any plausible
#: noise level, which would blind the tamper probe.
CORPUS_PRESETS: Dict[str, str] = {
    "sequential": "sequential",
    "sequential-hardened": "sequential-hardened",
    "temp-aware": "temp-aware",
    "temp-aware-hardened": "temp-aware-hardened",
    "group-based": "group-based[250k]",
    "distiller": "distiller[neighbor-disjoint]",
    "fuzzy": "fuzzy-extractor[4x10]",
}

#: Noise perturbation applied to the device model, by label.
PERTURBATIONS: Dict[str, float] = {"base": 1.0, "noisy": 1.5}


def corpus_cell(scheme: str, family: str, perturbation: str = "base",
                kind: str = "failure", quick: bool = False,
                devices: int = 2, trials: int = 64) -> MatrixCell:
    """One scenario-corpus case as a runnable cell.

    The device model is the preset's geometry with its sigma scaled
    by the perturbation's noise scale (:data:`PERTURBATIONS`).
    """
    chosen = schemes.preset(CORPUS_PRESETS[scheme])
    sigma = chosen.sigma_noise * PERTURBATIONS[perturbation]
    return MatrixCell(scheme, kind, "none", runnable=True, quick=quick,
                      params=chosen.array_params(sigma_noise=sigma),
                      preset=chosen.name, family=family,
                      perturbation=perturbation, trials=trials,
                      devices=devices)


def full_corpus() -> List[MatrixCell]:
    """The complete scenario conformance grid, in stable order.

    Failure cells cover scheme × family × perturbation; the quick
    slice (CI smoke) takes every scheme's constant/base cell, every
    family on the sequential scheme, and one attack campaign.
    """
    cells = [corpus_cell(scheme, family, label, "failure",
                         quick=(label == "base"
                                and (family == "constant"
                                     or scheme == "sequential")))
             for scheme in CORPUS_PRESETS for family in FAMILIES
             for label in PERTURBATIONS]
    cells.append(corpus_cell("sequential", "constant", kind="attack",
                             quick=True))
    cells.append(corpus_cell("sequential", "vnoise", kind="attack"))
    cells.append(corpus_cell("group-based", "constant", kind="attack"))
    cells.append(corpus_cell("group-based", "ramp", kind="attack"))
    return cells


def quick_corpus() -> List[MatrixCell]:
    """The CI smoke slice of :func:`full_corpus`."""
    return [cell for cell in full_corpus() if cell.quick]


def perturbed_variant(cell: MatrixCell,
                      noise_scale: float = 4.0) -> MatrixCell:
    """A deliberately out-of-band variant of corpus *cell*.

    Used by the conformance self-test: scaling the measurement noise
    this far moves the failure-rate envelope of every scheme outside
    its committed band, so the checker must flag it.
    """
    sigma = schemes.preset(cell.preset).sigma_noise * noise_scale
    return replace(cell, perturbation="tampered",
                   params=replace(cell.params, sigma_noise=sigma))
