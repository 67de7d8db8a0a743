"""Execute matrix cells at fleet scale and produce warehouse records.

:func:`run_cell` is the one cell body of the attack matrix and the
scenario corpus: each runnable cell manufactures a seeded device
fleet, enrolls its scheme, and drives its attack family (or, for a
failure-kind cell, a key-regeneration sweep) across the whole
population — under the cell's environment trajectory, if it has one
— then condenses the outcome into one record: per-device
key-recovery mask and query bills, a comparer-decisions fingerprint,
an enrollment fingerprint through the specified storage format, and
wall/kernel timings.  :func:`run_cells` is the checkpointed cell
driver that ``warehouse run`` and ``scenario conformance`` share.

Determinism contract: the record *identity* (everything except the
``perf``/``meta`` layers) is a pure function of ``(cell, seed,
devices)``.  Cell RNG roots derive from the cell identifier — not its
position in the matrix — so adding cells to the registry never
perturbs existing cells, and the per-device substream discipline of
:mod:`repro.fleet.parallel` does the rest.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.ecc.kernel import kernel_stats
from repro.fleet import PopulationSpec
from repro.schemes import ATTACKS, preset
from repro.warehouse.matrix import MatrixCell
from repro.warehouse.store import (
    SCHEMA_VERSION,
    WarehouseStore,
    canonical_json,
    config_hash,
    enrollment_fingerprint,
    fingerprint_bits,
    record_identity,
    sha256_hex,
)

#: One warehouse store record (see :mod:`repro.warehouse.store`).
Record = Dict[str, object]


#: Attack-axis labels of the cells that sweep key regeneration instead
#: of attacking: the §VII-C timing cells and the corpus failure cells.
_FAILURE_KINDS = ("reconstruction", "failure")

#: Matrix attack-axis label -> :data:`repro.schemes.ATTACKS` family; a
#: corpus ``attack`` cell runs its preset's default family.
_FAMILIES = {"sequential": "paired", "ml": "paired", "sprt": "sprt",
             "group": "group", "distiller": "distiller",
             "temp-aware": "temp-aware"}


def _device_payload(result: object, recovered: bool
                    ) -> Dict[str, object]:
    """Deterministic per-device outcome features (for fingerprints)."""
    fields = vars(result)
    comparisons = fields.get("comparisons", ())
    if isinstance(comparisons, (list, tuple)):
        decisions = [outcome.decision for outcome in comparisons]
        comparison_count = len(comparisons)
    else:
        # group-based results expose a comparison *count*, not the
        # individual comparer outcomes
        decisions = []
        comparison_count = int(comparisons)
    payload: Dict[str, object] = {
        "recovered": bool(recovered),
        "queries": int(result.queries),
        "decisions": decisions,
        "comparison_count": comparison_count,
    }
    key = fields.get("key")
    if key is not None:
        payload["key"] = fingerprint_bits([key])
    for attr in ("relations", "coop_relations"):
        value = fields.get(attr)
        if value is not None:
            payload[attr] = [int(v) for v in
                             np.asarray(value).ravel()]
    good_bits = fields.get("good_bits")
    if good_bits is not None:
        payload["good_bits"] = {str(index): int(bit)
                                for index, bit in good_bits.items()}
    return payload


def _timestamp() -> str:
    """UTC creation timestamp (provenance only, never identity)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@contextmanager
def measured() -> Iterator[Dict[str, float]]:
    """Yield a record ``perf`` dict, filled on exit with the block's
    wall time and :data:`~repro.ecc.kernel.kernel_stats` delta (pool
    workers' kernel work included)."""
    perf: Dict[str, float] = {}
    calls, rows, seconds = (kernel_stats.calls, kernel_stats.rows,
                            kernel_stats.seconds)
    start = time.perf_counter()
    yield perf
    perf.update(attack_seconds=time.perf_counter() - start,
                kernel_seconds=kernel_stats.seconds - seconds,
                kernel_calls=kernel_stats.calls - calls,
                kernel_rows=kernel_stats.rows - rows)


def matrix_config(cells: Sequence[MatrixCell], profile: str,
                  seed: int, devices: int) -> Dict[str, object]:
    """The configuration dict whose hash keys a run's records."""
    return {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "seed": int(seed),
        "devices": int(devices),
        "cells": [cell.cell_id for cell in cells],
    }


def run_cell(cell: MatrixCell, devices: int, seed: int, commit: str,
             cfg_hash: str, profile: str,
             workers: Optional[int] = 1,
             supervision=None,
             registry_dir: Optional[str] = None) -> Dict[str, object]:
    """Execute one cell and return its warehouse record.

    *workers* / *supervision* thread through to the campaign
    (:meth:`repro.fleet.fleet.Fleet.attack_results` /
    :meth:`~repro.fleet.fleet.Fleet.failure_rates`); both leave the
    record identity bitwise-unchanged — the fleet engines guarantee
    worker-count invariance and fault-retry equivalence.
    *registry_dir* (if given) persists each cell's enrollment in a
    per-cell :class:`repro.service.registry.EnrollmentRegistry` under
    that directory and reuses it on later runs; because the
    enrollment stream is spawned independently of the sweep streams,
    reuse leaves record identity bitwise-unchanged too.
    """
    params = cell.params
    record: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "commit": str(commit),
        "config_hash": str(cfg_hash),
        "cell": cell.cell_id,
        "scheme": cell.scheme,
        "attack": cell.attack,
        "countermeasure": cell.countermeasure,
        "variant": cell.variant,
        "config": {"seed": int(seed), "devices": int(devices),
                   "rows": params.rows if params else 0,
                   "cols": params.cols if params else 0,
                   "profile": profile},
        "meta": {"created": _timestamp()},
    }
    if not cell.runnable:
        record.update(status="n/a", reason=cell.reason, engine=None,
                      security=None, perf=None)
        return record
    try:
        body = _run_runnable(cell, devices, seed, workers=workers,
                             supervision=supervision,
                             registry_dir=registry_dir)
    except Exception as error:  # defensive: record, don't abort runs
        record.update(status="error",
                      reason=f"{type(error).__name__}: {error}",
                      engine=None, security=None, perf=None)
        return record
    record.update(status="ok", reason="", **body)
    return record


def _cell_enrollment(cell: MatrixCell, population: PopulationSpec,
                     registry_dir: Optional[str]):
    """Build and enroll a cell's population, through the registry when
    one is given.

    Returns ``(fleet, enrollment, enroll_seconds)``.  The per-cell
    registry is created on first use and read back on every run, so
    a reused registry must hold this very population under the cell's
    preset (:class:`~repro.service.registry.RegistryError` otherwise).
    The enrollment stream is an independent spawn of the cell root,
    so loading it never shifts the sweep streams.  The manifest
    records the preset name and the population seed
    (:meth:`MatrixCell.population_seed`), so ``repro service sweep
    --registry`` rebuilds the same population.
    """
    factory = preset(cell.preset).keygen_factory(cell.params.rows,
                                                 cell.params.cols)
    start = time.perf_counter()
    registry = None
    if registry_dir is not None:
        from repro.service.registry import (
            EnrollmentRegistry,
            RegistryError,
            enroll_population,
        )

        cell_dir = (Path(registry_dir)
                    / cell.cell_id.replace("/", "__"))
        if not (cell_dir / "manifest.json").exists():
            enroll_population(cell_dir, population, factory,
                              cell.preset)
        registry = EnrollmentRegistry.open(cell_dir)
        if registry.scheme != cell.preset:
            raise RegistryError(
                f"registry at {cell_dir} was enrolled for scheme "
                f"{registry.scheme!r}, the cell runs {cell.preset!r}")
    fleet, enrollment = population.enroll(factory, registry)
    return fleet, enrollment, time.perf_counter() - start


def _run_runnable(cell: MatrixCell, devices: int, seed: int,
                  workers: Optional[int] = 1,
                  supervision=None,
                  registry_dir: Optional[str] = None
                  ) -> Dict[str, object]:
    """The fleet-scale body of :func:`run_cell` for runnable cells."""
    population = PopulationSpec(cell.params, devices,
                                cell.population_seed(seed))
    fleet, enrollment, enroll_seconds = _cell_enrollment(
        cell, population, registry_dir)
    trajectory = cell.trajectory()

    if cell.attack in _FAILURE_KINDS:
        # No attack: the cell sweeps key regeneration (the §VII-C
        # timing cells time it) and records per-device reconstruction
        # success through the same security/perf layers (``queries``
        # counts noisy readouts consumed, one per trial).
        with measured() as perf:
            rates = fleet.failure_rates(
                enrollment, cell.trials, workers=workers,
                trajectory=trajectory, supervision=supervision)
        payloads = [{"recovered": bool(rate == 0.0),
                     "queries": int(cell.trials),
                     "failure_rate": float(rate)} for rate in rates]
        return _cell_body(cell, "reconstruction-sweep", payloads,
                          enrollment,
                          dict(perf, enroll_seconds=enroll_seconds))

    if cell.attack in _FAMILIES:
        factory = ATTACKS[_FAMILIES[cell.attack]].factory(
            cell.params.rows, cell.params.cols)
    else:
        factory = preset(cell.preset).attack_factory(
            cell.params.rows, cell.params.cols)
    with measured() as perf:
        results = fleet.attack_results(
            enrollment, factory, trajectory=trajectory,
            workers=workers, supervision=supervision)
    payloads = [_device_payload(result, result.recovered(key, helper))
                for result, key, helper in zip(
                    results, enrollment.keys, enrollment.helpers)]
    return _cell_body(cell, "lockstep-fused", payloads, enrollment,
                      dict(perf, enroll_seconds=enroll_seconds))


def _cell_body(cell: MatrixCell, engine: str,
               payloads: List[Dict[str, object]], enrollment,
               perf: Dict[str, float]) -> Dict[str, object]:
    """A runnable record's engine/security/perf layers."""
    devices = len(payloads)
    recovered = sum(1 for p in payloads if p["recovered"])
    queries = [int(p["queries"]) for p in payloads]
    security = {
        "devices": devices,
        "recovered": int(recovered),
        "recovery_rate": recovered / devices,
        "recovered_mask": [bool(p["recovered"]) for p in payloads],
        "queries": queries,
        "queries_total": int(sum(queries)),
        "queries_mean": sum(queries) / devices,
        "decisions_fingerprint": sha256_hex(
            [p.get("decisions", []) for p in payloads]),
        "outcome_fingerprint": sha256_hex(payloads),
        "enrollment_fingerprint": enrollment_fingerprint(
            enrollment.helpers, enrollment.keys),
    }
    if cell.family is not None:
        # A corpus cell records the metrics its committed bands check,
        # and its outcome is the identity its committed baseline
        # fingerprints: the cell id, the enrollment and the per-device
        # failure counts (or recovery mask and bills).
        identity = {"case": cell.cell_id,
                    "enrollment_fingerprint":
                        security["enrollment_fingerprint"]}
        if cell.attack in _FAILURE_KINDS:
            rates = [p["failure_rate"] for p in payloads]
            identity["failures"] = [int(round(rate * cell.trials))
                                    for rate in rates]
            security["observed"] = {
                "failure_rate_mean": float(np.mean(rates)),
                "failure_rate_max": float(np.max(rates))}
        else:
            identity.update(recovered_mask=security["recovered_mask"],
                            queries=queries)
            security["observed"] = {
                "recovery_rate": security["recovery_rate"],
                "queries_mean": security["queries_mean"]}
        security["outcome_fingerprint"] = sha256_hex(identity)
    return {"engine": engine, "security": security, "perf": perf}


@dataclass
class CellRun:
    """What one :func:`run_cells` run did."""

    #: Cells skipped on resume: already recorded for the run key.
    skipped: List[str]
    #: Records of the cells this run executed, in execution order.
    executed: List[Record]
    #: Whole-run records in cell order (after a resume, read back
    #: from the store).
    records: List[Record]
    #: Cells whose replay drifted from their record's identity.
    drifted: List[str]
    #: ``stop_after`` ended the run before every cell was recorded.
    interrupted: bool


def run_cells(cell_ids: Sequence[str],
              run_one: Callable[[str], Record], commit: str,
              cfg: str, store: Optional[WarehouseStore] = None,
              resume: bool = False,
              stop_after: Optional[int] = None,
              check_reproducible: bool = False,
              on_record: Optional[
                  Callable[[Record, bool], None]] = None,
              log: Optional[Callable[[str], None]] = None) -> CellRun:
    """The checkpointed cell driver of ``warehouse run`` and
    ``scenario conformance``.

    ``run_one(cell_id)`` returns the cell's record, keyed ``(commit,
    cfg)``; *cfg* hashes the **full** cell list, so an interrupted
    run and its *resume* share the key.  Each record is appended to
    *store* as soon as its cell finishes; *resume* skips cells
    already recorded there; *stop_after* ends the run after that many
    executed cells; *check_reproducible* re-runs each cell (never
    storing the replay) and compares record identities bitwise.
    *on_record* gets each executed record and whether it reproduced;
    *log* gets the resume and interruption lines.
    """
    if resume and store is None:
        raise ValueError("resume needs a store to find the checkpoint")
    done = store.recorded_cells(commit, cfg) if resume else {}
    skipped = [cell for cell in cell_ids if cell in done]
    if resume and log is not None:
        log(f"  resume: {len(skipped)} already recorded, "
            f"{len(cell_ids) - len(skipped)} to run")
    executed: List[Record] = []
    drifted: List[str] = []
    for cell in cell_ids:
        if cell in done:
            continue
        if stop_after is not None and len(executed) >= stop_after:
            break
        record = run_one(cell)
        if store is not None:
            store.append([record])
        executed.append(record)
        reproducible = not check_reproducible or (
            canonical_json(record_identity(run_one(cell)))
            == canonical_json(record_identity(record)))
        if not reproducible:
            drifted.append(cell)
        if on_record is not None:
            on_record(record, reproducible)
    interrupted = len(skipped) + len(executed) < len(cell_ids)
    if interrupted and log is not None:
        log(f"  stopped after {len(executed)} cell(s) as requested - "
            f"checkpoint saved, rerun with --resume to complete the "
            f"run")
    records = executed
    if skipped:
        stored = store.matrix(commit, cfg)
        records = [stored[cell] for cell in cell_ids if cell in stored]
    return CellRun(skipped, executed, records, drifted, interrupted)


def cell_line(record: Record) -> Optional[str]:
    """Progress line of an executed matrix cell (``None`` for ``n/a``
    and ``error`` cells)."""
    if record["status"] != "ok":
        return None
    security = record["security"]
    return (f"  {record['cell']}: {security['recovered']}/"
            f"{security['devices']} recovered, "
            f"{security['queries_total']} queries, "
            f"{record['perf']['attack_seconds']:.2f}s")


def run_matrix(cells: Sequence[MatrixCell], profile: str, seed: int,
               devices: int, commit: str,
               workers: Optional[int] = 1,
               supervision=None,
               registry_dir: Optional[str] = None) -> List[Record]:
    """Execute a matrix without a store; returns its records.

    The configuration hash covers the full *cells* list.  *workers* /
    *supervision* / *registry_dir* pass through to :func:`run_cell`.
    """
    cfg_hash = config_hash(matrix_config(cells, profile, seed,
                                         devices))
    by_id = {cell.cell_id: cell for cell in cells}

    def run_one(cell_id: str) -> Record:
        return run_cell(by_id[cell_id], devices, seed, commit,
                        cfg_hash, profile, workers=workers,
                        supervision=supervision,
                        registry_dir=registry_dir)

    return run_cells(list(by_id), run_one, commit, cfg_hash).executed
