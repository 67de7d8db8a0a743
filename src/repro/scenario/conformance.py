"""The scenario conformance corpus: committed pass-bands + checker.

Following the base/variant/expected-answer regression pattern of the
DocuSenseLM RAG question suite (SNIPPETS.md snippet 1), the corpus
grid of warehouse matrix cells
(:func:`repro.warehouse.matrix.full_corpus`) gets *expected
pass-bands* (failure-rate and key-recovery envelopes) computed once
from seeded baseline runs and committed under
``tests/conformance/corpus/``.  Every cell runs through the
warehouse's :func:`~repro.warehouse.runner.run_cell`; its banded
metrics and baseline fingerprint are projections of that record.
The checker re-runs cells and asserts they land inside their bands.
Two further gates harden the suite:

* **Reproducibility** — ``--check-reproducible`` re-runs every
  cell and requires a bitwise-identical record identity *within the
  run* (never against the committed baseline, so benign refactors
  that legitimately re-order stream consumption remain shippable;
  the committed fingerprint is informational).
* **Warehouse wiring** — cells run on the checkpointed cell driver
  (:func:`~repro.warehouse.runner.run_cells`) as records namespaced
  ``scenario/<case id>`` that carry the band verdict and feed a
  ``BENCH_scenarios.json`` summary entry, so the longitudinal
  trajectory tracks scenario envelopes alongside the attack matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.warehouse.matrix import PERTURBATIONS, MatrixCell, corpus_cell
from repro.warehouse.runner import CellRun, Record, run_cell, run_cells
from repro.warehouse.store import (
    SCHEMA_VERSION,
    WarehouseStore,
    config_hash,
)

#: Default location of the committed corpus, relative to the repo
#: root.
DEFAULT_CORPUS_DIR = "tests/conformance/corpus"

#: Version of the corpus file layout; bump on any change to the case
#: or band encoding.
CORPUS_SCHEMA_VERSION = 1


def case_dict(cell: MatrixCell) -> Dict[str, object]:
    """A corpus cell's configuration as stored in a corpus file."""
    return {"scheme": cell.scheme, "family": cell.family,
            "perturbation": cell.perturbation, "kind": cell.attack,
            "quick": cell.quick, "devices": cell.devices,
            "trials": cell.trials,
            "noise_scale": PERTURBATIONS[cell.perturbation]}


def cell_from_dict(payload: Dict[str, object]) -> MatrixCell:
    """Rebuild a cell from its corpus-file configuration; a payload
    that does not round-trip (say, a noise scale that disagrees with
    its perturbation label) is a ``ValueError``."""
    cell = corpus_cell(**{name: value for name, value in payload.items()
                          if name != "noise_scale"})
    if case_dict(cell) != payload:
        raise ValueError(f"case {payload} is not a corpus cell "
                         f"configuration")
    return cell


def record_seconds(record: Record) -> float:
    """Enrollment plus campaign wall time of a record (0 without
    ``perf``)."""
    perf = record["perf"] or {}
    return perf.get("enroll_seconds", 0.0) + perf.get("attack_seconds",
                                                      0.0)


def expected_bands(cell: MatrixCell,
                   observed: Dict[str, float]
                   ) -> Dict[str, List[float]]:
    """Pass-bands around a baseline observation.

    Conformance re-runs are seed-deterministic, so the bands exist
    to absorb *legitimate* movement — cross-platform floating-point
    differences and benign refactors that re-order stream
    consumption — while staying tight enough that a perturbed
    configuration (noise scale, gap years) lands outside.  Rate
    bands widen with the binomial standard error of the estimate;
    query bands are fractional.
    """
    bands: Dict[str, List[float]] = {}
    if cell.attack == "failure":
        total = cell.trials * cell.devices
        mean = observed["failure_rate_mean"]
        margin = max(0.05, 4.0 * math.sqrt(
            max(mean * (1.0 - mean), 1.0 / total) / total))
        bands["failure_rate_mean"] = [max(0.0, mean - margin),
                                      min(1.0, mean + margin)]
        peak = observed["failure_rate_max"]
        margin = max(0.08, 4.0 * math.sqrt(
            max(peak * (1.0 - peak), 1.0 / cell.trials)
            / cell.trials))
        bands["failure_rate_max"] = [max(0.0, peak - margin),
                                     min(1.0, peak + margin)]
    else:
        rate = observed["recovery_rate"]
        margin = 0.5 / cell.devices
        bands["recovery_rate"] = [max(0.0, rate - margin),
                                  min(1.0, rate + margin)]
        queries = observed["queries_mean"]
        bands["queries_mean"] = [queries * 0.65, queries * 1.45]
    return bands


def build_corpus(cells: List[MatrixCell], seed: int,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> Dict[str, Dict[str, object]]:
    """Run baselines and assemble per-scheme corpus payloads.

    Returns ``{scheme: corpus-file payload}``; each payload carries
    the cells' configurations, expected bands and informational
    baseline observations (including the record's outcome
    fingerprint, which the checker uses for *same-run*
    reproducibility only — never as a cross-commit gate, so benign
    refactors stay shippable).
    """
    payloads: Dict[str, Dict[str, object]] = {}
    for cell in cells:
        record = run_cell(cell, cell.devices, seed, "", "", "corpus")
        if record["status"] != "ok":
            raise RuntimeError(f"{cell.cell_id}: {record['reason']}")
        observed = record["security"]["observed"]
        fingerprint = record["security"]["outcome_fingerprint"]
        payload = payloads.setdefault(cell.scheme, {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "seed": int(seed),
            "scheme": cell.scheme,
            "cases": [],
        })
        payload["cases"].append({
            "case": case_dict(cell),
            "expected": {
                "bands": expected_bands(cell, observed),
                "baseline": dict(observed, fingerprint=fingerprint),
            },
        })
        if progress is not None:
            shown = ", ".join(f"{name}={value:.3g}"
                              for name, value in observed.items())
            progress(f"  {cell.cell_id}: {shown} "
                     f"({record_seconds(record):.2f}s)")
    return payloads


class CorpusFormatError(ValueError):
    """A corpus file violates the expected layout."""


@dataclass(frozen=True)
class CorpusEntry:
    """One committed cell: configuration + expected envelope."""

    cell: MatrixCell
    bands: Dict[str, List[float]]
    baseline: Dict[str, object]


def load_corpus(directory) -> Tuple[int, List[CorpusEntry]]:
    """Parse every ``*.json`` corpus file under *directory*.

    Returns ``(seed, entries)``; all files must agree on the seed
    and schema version (one corpus is one seeded world).
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise CorpusFormatError(
            f"no corpus files under {directory}")
    seed: Optional[int] = None
    entries: List[CorpusEntry] = []
    for path in paths:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise CorpusFormatError(
                f"{path}: not valid JSON ({error})") from None
        if not isinstance(payload, dict):
            raise CorpusFormatError(f"{path}: not an object")
        version = payload.get("schema_version")
        if version != CORPUS_SCHEMA_VERSION:
            raise CorpusFormatError(
                f"{path}: schema v{version!r}, expected "
                f"v{CORPUS_SCHEMA_VERSION}")
        file_seed = int(payload.get("seed", 0))
        if seed is None:
            seed = file_seed
        elif seed != file_seed:
            raise CorpusFormatError(
                f"{path}: seed {file_seed} disagrees with {seed}")
        for position, item in enumerate(payload.get("cases", [])):
            try:
                cell = cell_from_dict(item["case"])
                expected = item["expected"]
                bands = {name: [float(low), float(high)]
                         for name, (low, high)
                         in expected["bands"].items()}
                baseline = dict(expected["baseline"])
            except (AttributeError, KeyError, TypeError,
                    ValueError) as error:
                raise CorpusFormatError(
                    f"{path}: cases[{position}] malformed "
                    f"({error})") from None
            entries.append(CorpusEntry(cell, bands, baseline))
    return int(seed), entries


@dataclass(frozen=True)
class CaseCheck:
    """Verdict of re-running one committed cell.

    ``record`` is the cell's warehouse record, namespaced
    ``scenario/<case id>``; its ``status`` is the band verdict
    (``ok``, ``out-of-band`` or the runner's ``error``).
    """

    entry: CorpusEntry
    record: Record
    observed: Dict[str, float]
    violations: Tuple[str, ...]
    #: Whether the replay (if any) reproduced the record identity.
    reproducible: bool = True

    @property
    def ok(self) -> bool:
        """In-band and (when replayed) bitwise-reproducible."""
        return not self.violations and self.reproducible

@dataclass
class ConformanceReport:
    """Aggregate verdict of one conformance run."""

    seed: int
    checks: List[CaseCheck] = field(default_factory=list)
    #: The cell driver's account of the run (records, interruption).
    run: Optional[CellRun] = None

    @property
    def ok(self) -> bool:
        """Every cell in-band and reproducible."""
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[CaseCheck]:
        """The cells that missed their band or drifted on replay."""
        return [check for check in self.checks if not check.ok]

    def lines(self) -> List[str]:
        """Human-readable per-cell report lines."""
        out: List[str] = []
        for check in self.checks:
            shown = ", ".join(f"{name}={value:.3g}"
                              for name, value
                              in check.observed.items())
            status = "ok" if check.ok else "FAIL"
            out.append(f"  {status:<5}{check.entry.cell.cell_id}: "
                       f"{shown} ({record_seconds(check.record):.2f}s)")
            for violation in check.violations:
                out.append(f"        out-of-band: {violation}")
            if not check.reproducible:
                out.append("        NOT REPRODUCIBLE: record "
                           "identity drifted between two "
                           "same-seed runs")
        return out

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable report (the CI artifact)."""
        return {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "seed": int(self.seed),
            "ok": bool(self.ok),
            "skipped": [cell.split("/", 1)[1]
                        for cell in (self.run.skipped if self.run
                                     else [])],
            "cells": [
                {
                    "case": case_dict(check.entry.cell),
                    "observed": check.observed,
                    "bands": check.entry.bands,
                    "violations": list(check.violations),
                    "fingerprint": (check.record["security"] or {}).get(
                        "outcome_fingerprint"),
                    "reproducible": bool(check.reproducible),
                    "seconds": record_seconds(check.record),
                    "ok": bool(check.ok),
                }
                for check in self.checks
            ],
        }


def band_violations(entry: CorpusEntry,
                    observed: Dict[str, float]) -> List[str]:
    """Which observed metrics fall outside their committed band."""
    violations: List[str] = []
    for name, (low, high) in sorted(entry.bands.items()):
        value = observed.get(name)
        if value is None:
            violations.append(f"{name} missing from observation")
        elif not (low <= value <= high):
            violations.append(
                f"{name}={value:.4g} outside [{low:.4g}, "
                f"{high:.4g}]")
    return violations


def check_entry(entry: CorpusEntry, seed: int, commit: str = "",
                cfg: str = "", profile: str = "full") -> CaseCheck:
    """Re-run one committed cell and check its record's band.

    The record (keyed ``(commit, cfg)``) is renamed
    ``scenario/<case id>`` and its status set to the band verdict: a
    band miss is ``out-of-band`` with the violations as its reason; a
    runner ``error`` stays one and counts as a violation.
    """
    record = run_cell(entry.cell, entry.cell.devices, seed, commit, cfg,
                      profile)
    record["cell"] = f"scenario/{entry.cell.cell_id}"
    if record["status"] == "error":
        return CaseCheck(entry, record, {}, (str(record["reason"]),))
    observed = record["security"]["observed"]
    violations = tuple(band_violations(entry, observed))
    if violations:
        record.update(status="out-of-band",
                      reason="; ".join(violations))
    return CaseCheck(entry, record, observed, violations)


def run_conformance(directory, quick: bool = False,
                    check_reproducible: bool = False,
                    progress: Optional[Callable[[str], None]] = None,
                    commit: str = "unknown",
                    store: Optional[WarehouseStore] = None,
                    resume: bool = False,
                    stop_after: Optional[int] = None
                    ) -> ConformanceReport:
    """Check (the quick slice of) the committed corpus.

    Each case runs on :func:`repro.warehouse.runner.run_cells` as
    cell ``scenario/<case id>`` under the run key ``(commit,``
    :func:`corpus_config` ``hash)``; *store*, *resume*, *stop_after*
    and *check_reproducible* are the driver's.  *progress* receives
    the run header and each case's report lines.
    """
    seed, entries = load_corpus(directory)
    if quick:
        entries = [entry for entry in entries if entry.cell.quick]
    by_cell = {f"scenario/{entry.cell.cell_id}": entry
               for entry in entries}
    profile = "quick" if quick else "full"
    cfg = config_hash(corpus_config(
        seed, [entry.cell.cell_id for entry in entries], quick))
    if progress is not None:
        progress(f"scenario conformance: "
                 f"profile={profile} seed={seed} "
                 f"commit={commit[:12]} config={cfg} "
                 f"({len(entries)} cells)")
    checks: Dict[str, CaseCheck] = {}

    def run_one(cell: str) -> Record:
        check = check_entry(by_cell[cell], seed, commit, cfg, profile)
        checks.setdefault(cell, check)
        return check.record

    def on_record(record: Dict[str, object],
                  reproducible: bool) -> None:
        cell = str(record["cell"])
        checks[cell] = replace(checks[cell], reproducible=reproducible)
        if progress is not None:
            for line in ConformanceReport(seed, [checks[cell]]).lines():
                progress(line)

    run = run_cells(list(by_cell), run_one, commit, cfg, store=store,
                    resume=resume, stop_after=stop_after,
                    check_reproducible=check_reproducible,
                    on_record=on_record, log=progress)
    return ConformanceReport(seed, list(checks.values()), run)


def corpus_config(seed: int, case_ids: Sequence[str],
                  quick: bool) -> Dict[str, object]:
    """The configuration dict whose hash keys a run's records.

    *case_ids* must list the **full** (quick-sliced) corpus, not just
    the cases a particular run executed: an interrupted run and its
    ``--resume`` completion then share the hash, which is what lets
    resume find the checkpointed records.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "corpus_schema": CORPUS_SCHEMA_VERSION,
        "profile": "quick" if quick else "full",
        "seed": int(seed),
        "cells": list(case_ids),
    }
