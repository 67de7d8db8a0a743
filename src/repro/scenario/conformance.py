"""Conformance checker: re-run corpus cells, assert in-band results.

The committed corpus (``tests/conformance/corpus/*.json``) turns the
scenario engine into an executable regression oracle: every cell
re-runs its seeded campaign and must land inside its committed
failure-rate / key-recovery pass-band.  Two further gates harden the
suite:

* **Reproducibility** — ``--check-reproducible`` re-runs every
  cell and requires a bitwise-identical record identity *within the
  run* (never against the committed baseline, so benign refactors
  that legitimately re-order stream consumption remain shippable;
  the committed fingerprint is informational).
* **Warehouse wiring** — cells run on the warehouse's checkpointed
  cell driver (:func:`repro.warehouse.runner.run_cells`) as records
  ``scenario/<case id>``, which also feed a ``BENCH_scenarios.json``
  summary entry, so the longitudinal trajectory tracks scenario
  envelopes alongside the attack matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenario.corpus import (
    CORPUS_SCHEMA_VERSION,
    CaseResult,
    ScenarioCase,
    run_case,
)
from repro.warehouse.runner import CellRun, measured, run_cells
from repro.warehouse.store import (
    SCHEMA_VERSION,
    WarehouseStore,
    config_hash,
)

#: Default location of the committed corpus, relative to the repo
#: root.
DEFAULT_CORPUS_DIR = "tests/conformance/corpus"


class CorpusFormatError(ValueError):
    """A corpus file violates the expected layout."""


@dataclass(frozen=True)
class CorpusEntry:
    """One committed cell: configuration + expected envelope."""

    case: ScenarioCase
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
                case = ScenarioCase.from_dict(item["case"])
                expected = item["expected"]
                bands = {name: [float(low), float(high)]
                         for name, (low, high)
                         in expected["bands"].items()}
                baseline = dict(expected["baseline"])
            except (KeyError, TypeError, ValueError) as error:
                raise CorpusFormatError(
                    f"{path}: cases[{position}] malformed "
                    f"({error})") from None
            entries.append(CorpusEntry(case, bands, baseline))
    return int(seed), entries


@dataclass(frozen=True)
class CaseCheck:
    """Verdict of re-running one committed cell."""

    entry: CorpusEntry
    result: CaseResult
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
    #: Case ids skipped by checkpoint/resume (already recorded for
    #: this run key in the warehouse store).
    skipped: List[str] = field(default_factory=list)
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
            case = check.entry.case
            shown = ", ".join(f"{name}={value:.3g}"
                              for name, value
                              in check.result.observed.items())
            status = "ok" if check.ok else "FAIL"
            out.append(f"  {status:<5}{case.case_id}: {shown} "
                       f"({check.result.seconds:.2f}s)")
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
            "skipped": list(self.skipped),
            "cells": [
                {
                    "case": check.entry.case.to_dict(),
                    "observed": check.result.observed,
                    "bands": check.entry.bands,
                    "violations": list(check.violations),
                    "fingerprint": check.result.fingerprint,
                    "reproducible": bool(check.reproducible),
                    "seconds": check.result.seconds,
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


def check_entry(entry: CorpusEntry, seed: int) -> CaseCheck:
    """Re-run one committed cell and compare against its envelope."""
    result = run_case(entry.case, seed)
    return CaseCheck(entry, result,
                     tuple(band_violations(entry, result.observed)))


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
        entries = [entry for entry in entries if entry.case.quick]
    by_cell = {f"scenario/{entry.case.case_id}": entry
               for entry in entries}
    cfg = config_hash(corpus_config(
        seed, [entry.case.case_id for entry in entries], quick))
    if progress is not None:
        progress(f"scenario conformance: "
                 f"profile={'quick' if quick else 'full'} seed={seed} "
                 f"commit={commit[:12]} config={cfg} "
                 f"({len(entries)} cells)")
    checks: Dict[str, CaseCheck] = {}

    def run_one(cell: str) -> Dict[str, object]:
        with measured() as perf:
            check = check_entry(by_cell[cell], seed)
        checks.setdefault(cell, check)
        return case_record(check, seed, commit, cfg, perf)

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
    return ConformanceReport(seed, list(checks.values()),
                             [cell.split("/", 1)[1]
                              for cell in run.skipped], run)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


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


def case_record(check: CaseCheck, seed: int, commit: str,
                cfg: str, perf: Dict[str, float]) -> Dict[str, object]:
    """One case verdict as a warehouse store record.

    Cells are namespaced ``scenario/<case id>`` so they live beside
    the attack-matrix cells without colliding; the security layer
    reuses the summary vocabulary (``recovery_rate`` is the
    key-regeneration success rate for failure cells) so the
    longitudinal trajectory renders scenario envelopes unchanged.
    *perf* is the :func:`~repro.warehouse.runner.measured` timing and
    kernel work of the check.  ``status`` is the band verdict;
    reproducibility is the driver's verdict on the record itself.
    """
    case = check.entry.case
    observed = check.result.observed
    if case.kind == "failure":
        recovery = 1.0 - float(observed["failure_rate_mean"])
        queries_mean = float(case.trials)
    else:
        recovery = float(observed["recovery_rate"])
        queries_mean = float(observed["queries_mean"])
    return {
        "schema_version": SCHEMA_VERSION,
        "commit": str(commit),
        "config_hash": str(cfg),
        "cell": f"scenario/{case.case_id}",
        "scheme": case.scheme,
        "attack": case.kind,
        "countermeasure": "none",
        "variant": case.family,
        "status": "out-of-band" if check.violations else "ok",
        "reason": "; ".join(check.violations),
        "engine": "trajectory",
        "config": dict(case.to_dict(), seed=int(seed)),
        "security": {
            "devices": int(case.devices),
            "recovery_rate": recovery,
            "queries_mean": queries_mean,
            "observed": dict(observed),
            "outcome_fingerprint": check.result.fingerprint,
        },
        "perf": perf,
        "meta": {"created": _timestamp()},
    }
