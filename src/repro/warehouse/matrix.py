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
job runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    """One cell of the attack × scheme × countermeasure matrix.

    ``runnable`` cells carry the experiment geometry; inapplicable
    cells carry the ``reason`` they produce ``n/a`` records instead.
    ``variant`` disambiguates scheme sub-configurations (the two
    distiller pairing modes, the ML-decoded sequential code) and is
    part of the cell identifier.  ``preset`` names the
    :mod:`repro.schemes` preset a runnable cell enrolls.
    """

    scheme: str
    attack: str
    countermeasure: str
    variant: str = ""
    runnable: bool = False
    reason: str = ""
    quick: bool = False
    rows: int = 0
    cols: int = 0
    temp_slope_sigma: float = 0.0
    preset: str = ""

    @property
    def cell_id(self) -> str:
        """Stable identifier: ``scheme[variant]/attack/cm``."""
        return (f"{_label(self.scheme, self.variant)}/{self.attack}/"
                f"{self.countermeasure}")

    def seed_material(self, seed: int) -> List[int]:
        """Entropy for this cell's RNG root, stable across registry
        growth (derived from the cell identifier, not its position)."""
        digest = hashlib.sha256(self.cell_id.encode("ascii")).digest()
        return [int(seed), int.from_bytes(digest[:8], "little")]

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


def _label(scheme: str, variant: str) -> str:
    return f"{scheme}[{variant}]" if variant else scheme


def _runnable(scheme: str, attack: str, countermeasure: str,
              variant: str, quick: bool, rows: int, cols: int,
              temp_slope_sigma: float = 0.0,
              preset: str = "") -> MatrixCell:
    """A runnable cell; its preset defaults to ``scheme[variant]``."""
    return MatrixCell(scheme, attack, countermeasure, variant,
                      runnable=True, quick=quick, rows=rows,
                      cols=cols, temp_slope_sigma=temp_slope_sigma,
                      preset=preset or _label(scheme, variant))


#: Runnable cells, keyed by (scheme, attack, countermeasure).  A value
#: is a tuple because one coordinate may expand into several variant
#: cells (the two distiller pairing modes).
_RUNNABLE: Dict[Tuple[str, str, str], Tuple[MatrixCell, ...]] = {
    ("sequential", "sequential", "baseline"): (
        _runnable("sequential", "sequential", "baseline", "", True,
                  8, 16),),
    # Pair disjointness is the only device-side check the scheme
    # admits and the swap channel survives it — the paper's point.
    # Running the cell documents the survival in the warehouse.
    ("sequential", "sequential", "hardened"): (
        _runnable("sequential", "sequential", "hardened", "", False,
                  8, 16),),
    ("sequential", "sprt", "baseline"): (
        _runnable("sequential", "sprt", "baseline", "", True, 8, 16),),
    ("sequential", "ml", "baseline"): (
        _runnable("sequential", "ml", "baseline", "rm5", False,
                  8, 16),),
    ("group-based", "group", "baseline"): (
        _runnable("group-based", "group", "baseline", "", True,
                  4, 10),),
    ("group-based", "group", "hardened"): (
        _runnable("group-based", "group", "hardened", "", True,
                  4, 10, preset="group-based-hardened"),),
    ("temp-aware", "temp-aware", "baseline"): (
        _runnable("temp-aware", "temp-aware", "baseline", "", True,
                  8, 16, temp_slope_sigma=8e3),),
    ("temp-aware", "temp-aware", "hardened"): (
        _runnable("temp-aware", "temp-aware", "hardened", "", False,
                  8, 16, temp_slope_sigma=8e3,
                  preset="temp-aware-hardened"),),
    ("distiller", "distiller", "baseline"): (
        _runnable("distiller", "distiller", "baseline", "masking",
                  True, 4, 10),
        _runnable("distiller", "distiller", "baseline",
                  "neighbor-overlap", False, 4, 10),),
    # The §VII-C comparison point: the fuzzy extractor removes the
    # manipulation channel but pays in reconstruction cost.  These
    # cells time the reconstruction sweep at the paper's two
    # geometries so the warehouse carries the trade-off, not just
    # the n/a records.
    ("fuzzy-extractor", "reconstruction", "baseline"): (
        _runnable("fuzzy-extractor", "reconstruction", "baseline",
                  "4x10", False, 4, 10),
        _runnable("fuzzy-extractor", "reconstruction", "baseline",
                  "8x16", False, 8, 16),),
}


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
                if coordinate in _RUNNABLE:
                    cells.extend(_RUNNABLE[coordinate])
                else:
                    cells.append(MatrixCell(
                        scheme, attack, countermeasure,
                        reason=_na_reason(*coordinate)))
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
