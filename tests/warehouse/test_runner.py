"""End-to-end tests for the matrix runner, summaries and diffs.

Runnable-cell tests stick to the cheapest cells (the masking
distiller, the 4×10 group construction) so the suite stays fast while
still exercising the fleet-scale path, the reproducibility contract
and the record schema.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.warehouse import (
    SCHEMA_VERSION,
    WarehouseStore,
    build_entry,
    canonical_json,
    config_hash,
    diff_matrices,
    full_matrix,
    matrix_config,
    quick_matrix,
    record_identity,
    run_cell,
    run_matrix,
    select_cells,
)
from repro.warehouse.runner import run_cells

DISTILLER = "distiller[masking]/distiller/baseline"


def cell_by_id(cell_id):
    matches = select_cells(full_matrix(), cell_id)
    assert len(matches) == 1
    return matches[0]


@pytest.fixture(scope="module")
def distiller_records():
    """Two same-seed runs of the cheapest runnable cell."""
    cells = [cell_by_id(DISTILLER)]
    first = run_matrix(cells, "quick", seed=0, devices=2,
                       commit="testcommit")
    second = run_matrix(cells, "quick", seed=0, devices=2,
                        commit="testcommit")
    return first[0], second[0]


class TestRecordSchema:
    def test_ok_record_shape(self, distiller_records):
        record, _ = distiller_records
        assert record["status"] == "ok"
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["cell"] == DISTILLER
        assert record["engine"] == "lockstep-fused"
        security = record["security"]
        assert security["devices"] == 2
        assert security["recovered"] == 2
        assert security["recovery_rate"] == 1.0
        assert len(security["recovered_mask"]) == 2
        assert len(security["outcome_fingerprint"]) == 64
        assert len(security["enrollment_fingerprint"]) == 64
        assert record["perf"]["attack_seconds"] > 0

    def test_na_record_carries_reason(self):
        cell = cell_by_id("fuzzy-extractor/sequential/baseline")
        record = run_cell(cell, devices=2, seed=0, commit="c",
                          cfg_hash="h", profile="quick")
        assert record["status"] == "n/a"
        assert "fuzzy-extractor" in record["reason"]
        assert record["security"] is None

    def test_record_is_json_serialisable(self, distiller_records):
        record, _ = distiller_records
        canonical_json(record)  # raises on non-JSON types


class TestReproducibility:
    def test_same_seed_identical_identity(self, distiller_records):
        first, second = distiller_records
        assert canonical_json(record_identity(first)) == \
            canonical_json(record_identity(second))

    def test_different_seed_moves_the_outcome(self):
        cell = cell_by_id(DISTILLER)
        base = run_cell(cell, 2, 0, "c", "h", "quick")
        moved = run_cell(cell, 2, 1, "c", "h", "quick")
        assert base["security"]["outcome_fingerprint"] != \
            moved["security"]["outcome_fingerprint"]

    def test_config_hash_covers_cells_and_seed(self):
        cells = [cell_by_id(DISTILLER)]
        base = config_hash(matrix_config(cells, "quick", 0, 2))
        assert base == config_hash(matrix_config(cells, "quick", 0, 2))
        assert base != config_hash(matrix_config(cells, "quick", 1, 2))
        assert base != config_hash(matrix_config(cells, "quick", 0, 4))


class TestHardenedCell:
    def test_group_hardening_defeats_the_attack(self):
        cell = cell_by_id("group-based/group/hardened")
        record = run_cell(cell, 2, 0, "c", "h", "quick")
        assert record["status"] == "ok"
        assert record["security"]["recovered"] == 0

    def test_group_baseline_recovers(self):
        cell = cell_by_id("group-based/group/baseline")
        record = run_cell(cell, 2, 0, "c", "h", "quick")
        assert record["status"] == "ok"
        assert record["security"]["recovery_rate"] == 1.0

    def test_sequential_hardening_still_falls(self):
        # The one hardened cell whose attack reaches the kernel: its
        # blocks stack with the gap check.  The quick matrix never
        # runs it, so its security layer is pinned here.
        cell = cell_by_id("sequential/sequential/hardened")
        record = run_cell(cell, 2, 0, "c", "h", "quick")
        assert record["status"] == "ok"
        security = record["security"]
        assert security["recovered"] == 2
        assert security["queries"] == [544, 553]
        assert security["outcome_fingerprint"] == (
            "645dadd4fc7d79239a5e721b2ad66b19"
            "163021eb7e01f5b73d9a38ca5e6d83a0")
        assert record["perf"]["kernel_calls"] > 0


class TestReconstructionCells:
    RECON = "fuzzy-extractor[4x10]/reconstruction/baseline"

    def test_record_shape(self):
        cell = cell_by_id(self.RECON)
        record = run_cell(cell, 2, 0, "c", "h", "quick")
        assert record["status"] == "ok"
        assert record["engine"] == "reconstruction-sweep"
        security = record["security"]
        assert security["devices"] == 2
        assert security["queries_mean"] == 64
        assert len(security["outcome_fingerprint"]) == 64
        assert record["perf"]["attack_seconds"] > 0
        assert record["perf"]["kernel_calls"] > 0

    def test_same_seed_identical_identity(self):
        cell = cell_by_id(self.RECON)
        first = run_cell(cell, 2, 0, "c", "h", "quick")
        second = run_cell(cell, 2, 0, "c", "h", "quick")
        assert canonical_json(record_identity(first)) == \
            canonical_json(record_identity(second))


class TestCommittedSecurity:
    """The quick matrix still reproduces the committed security layer
    of the newest ``BENCH_warehouse.json`` entry, and its record
    identities (enrollment fingerprints included) stay pinned."""

    def test_quick_matrix_matches_the_last_summary_entry(self):
        summary = json.loads((Path(__file__).resolve().parents[2]
                              / "BENCH_warehouse.json").read_text())
        committed = summary["history"][-1]["security"]
        records = run_matrix(quick_matrix(), "quick", seed=0,
                             devices=2, commit="base")
        assert {r["config_hash"] for r in records} == {
            "151ca61b769ff424"}
        identities = "\n".join(canonical_json(record_identity(r))
                               for r in records)
        assert hashlib.sha256(identities.encode()).hexdigest()[:16] \
            == "23da5f454ba158f7"
        ok = {r["cell"]: r["security"] for r in records
              if r["status"] == "ok"}
        assert set(ok) == set(committed)
        for cell, security in ok.items():
            expected = committed[cell]
            for field in ("recovery_rate", "queries_mean",
                          "outcome_fingerprint"):
                assert security[field] == expected[field], (cell, field)


class TestRegistryReuse:
    def test_registry_runs_match_fresh_enrollment(self, tmp_path):
        """create-then-reuse registry runs keep record identity."""
        cell = cell_by_id(DISTILLER)
        fresh = run_cell(cell, 2, 0, "c", "h", "quick")
        created = run_cell(cell, 2, 0, "c", "h", "quick",
                           registry_dir=str(tmp_path))
        cell_dir = tmp_path / DISTILLER.replace("/", "__")
        assert (cell_dir / "manifest.json").exists()
        reused = run_cell(cell, 2, 0, "c", "h", "quick",
                          registry_dir=str(tmp_path))
        want = canonical_json(record_identity(fresh))
        assert canonical_json(record_identity(created)) == want
        assert canonical_json(record_identity(reused)) == want

    def test_registry_rejects_population_drift(self, tmp_path):
        cell = cell_by_id(DISTILLER)
        run_cell(cell, 2, 0, "c", "h", "quick",
                 registry_dir=str(tmp_path))
        drifted = run_cell(cell, 2, 1, "c", "h", "quick",
                           registry_dir=str(tmp_path))
        assert drifted["status"] == "error"
        assert "was enrolled for" in drifted["reason"]

    @pytest.mark.parametrize("field, value, reason", [
        ("params", {"sigma_noise": 999e3}, "parameters do not match"),
        ("scheme", "group-based", "enrolled for scheme"),
    ])
    def test_registry_rejects_manifest_drift(self, tmp_path, field,
                                             value, reason):
        cell = cell_by_id(DISTILLER)
        run_cell(cell, 2, 0, "c", "h", "quick",
                 registry_dir=str(tmp_path))
        manifest_path = (tmp_path / DISTILLER.replace("/", "__")
                         / "manifest.json")
        manifest = json.loads(manifest_path.read_text())
        if field == "params":
            manifest["params"].update(value)
        else:
            manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        drifted = run_cell(cell, 2, 0, "c", "h", "quick",
                           registry_dir=str(tmp_path))
        assert drifted["status"] == "error"
        assert drifted["reason"].startswith("RegistryError")
        assert reason in drifted["reason"]


class TestSummaryAndDiff:
    def test_build_entry_mirrors_ok_cells(self, distiller_records):
        record, _ = distiller_records
        entry = build_entry([record], "testcommit", "quick")
        assert DISTILLER in entry["benchmarks"]
        assert entry["benchmarks"][DISTILLER]["mean"] == \
            record["perf"]["attack_seconds"]
        assert entry["security"][DISTILLER]["recovery_rate"] == 1.0

    def test_diff_identical_matrices(self, distiller_records):
        record, replay = distiller_records
        result = diff_matrices({DISTILLER: record},
                               {DISTILLER: replay},
                               timing_threshold=10.0)
        assert result.security_changes == 0
        assert not result.changed

    def test_diff_flags_security_movement(self, distiller_records):
        record, _ = distiller_records
        import copy

        moved = copy.deepcopy(record)
        moved["security"]["recovery_rate"] = 0.0
        moved["security"]["outcome_fingerprint"] = "0" * 64
        result = diff_matrices({DISTILLER: record},
                               {DISTILLER: moved})
        assert result.changed
        assert result.security_changes == 1

    def test_diff_reports_coverage_changes(self, distiller_records):
        record, _ = distiller_records
        result = diff_matrices({}, {DISTILLER: record})
        assert any("ADDED" in line for line in result.lines)


class TestRunCells:
    """The checkpointed cell driver, on synthetic records."""

    CELLS = ["a", "b", "c"]

    @staticmethod
    def record(cell, value=0):
        return {"schema_version": SCHEMA_VERSION, "commit": "c",
                "config_hash": "h", "cell": cell, "status": "ok",
                "security": {"value": value},
                "perf": {"attack_seconds": 0.0}}

    def test_stop_then_resume_reads_back_the_whole_run(self,
                                                        tmp_path):
        store = WarehouseStore(tmp_path / "store.jsonl")
        lines = []
        first = run_cells(self.CELLS, self.record, "c", "h",
                          store=store, stop_after=1, log=lines.append)
        assert first.interrupted
        assert [r["cell"] for r in first.executed] == ["a"]
        assert any("rerun with --resume" in line for line in lines)
        second = run_cells(self.CELLS, self.record, "c", "h",
                           store=store, resume=True)
        assert not second.interrupted
        assert second.skipped == ["a"]
        assert [r["cell"] for r in second.executed] == ["b", "c"]
        assert [r["cell"] for r in second.records] == self.CELLS
        assert store.recorded_cells("c", "h") == {
            "a": 1, "b": 1, "c": 1}

    def test_replay_drift_is_flagged_and_never_stored(self, tmp_path):
        calls = []

        def run_one(cell):
            calls.append(cell)
            # cell "b" draws a fresh outcome on every call
            return self.record(cell, calls.count(cell)
                               if cell == "b" else 0)

        store = WarehouseStore(tmp_path / "store.jsonl")
        verdicts = {}
        run = run_cells(self.CELLS, run_one, "c", "h", store=store,
                        check_reproducible=True,
                        on_record=lambda record, ok: verdicts.update(
                            {record["cell"]: ok}))
        assert calls == ["a", "a", "b", "b", "c", "c"]
        assert run.drifted == ["b"]
        assert verdicts == {"a": True, "b": False, "c": True}
        assert [r["security"]["value"] for r in store.records()] == \
            [0, 1, 0]

    def test_resume_needs_a_store(self):
        with pytest.raises(ValueError):
            run_cells(self.CELLS, self.record, "c", "h", resume=True)
