"""The seeded conformance corpus, checked end to end.

Acceptance gates of the scenario-engine PR:

* every cell of the committed corpus re-runs into its pass-band;
* a deliberately perturbed configuration is detected out-of-band;
* two same-seed corpus runs produce bitwise-identical identities;
* conformance runs condense into warehouse records and a summary
  entry the longitudinal trajectory can render.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenario.conformance import (
    CORPUS_SCHEMA_VERSION,
    ConformanceReport,
    CorpusFormatError,
    build_corpus,
    check_entry,
    load_corpus,
    run_conformance,
)
from repro.warehouse.matrix import perturbed_variant, quick_corpus
from repro.warehouse.store import WarehouseStore, record_identity
from repro.warehouse.summary import build_entry
from repro.warehouse.trajectory import build_report

CORPUS_DIR = Path(__file__).parent / "corpus"


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS_DIR)


class TestCommittedCorpus:
    def test_loads_with_expected_shape(self, corpus):
        seed, entries = corpus
        assert seed == 0
        identifiers = {entry.cell.cell_id for entry in entries}
        assert len(identifiers) == len(entries) == 74
        quick = [entry for entry in entries if entry.cell.quick]
        assert len(quick) == 12
        kinds = {entry.cell.attack for entry in entries}
        assert kinds == {"failure", "attack"}

    def test_every_entry_carries_bands_and_baseline(self, corpus):
        _, entries = corpus
        for entry in entries:
            assert entry.bands, entry.cell.cell_id
            assert "fingerprint" in entry.baseline
            for low, high in entry.bands.values():
                assert low <= high

    def test_quick_slice_in_band(self, corpus):
        seed, entries = corpus
        report = run_conformance(CORPUS_DIR, quick=True)
        assert len(report.checks) == 12
        assert report.ok, "\n".join(report.lines())

    def test_full_corpus_in_band(self):
        report = run_conformance(CORPUS_DIR)
        assert len(report.checks) == 74
        assert report.ok, "\n".join(report.lines())
        payload = report.to_payload()
        assert payload["ok"] is True
        json.dumps(payload)  # must be serialisable as-is


class TestTamperDetection:
    @pytest.mark.parametrize("case_id", [
        "failure/sequential/constant/base",
        "failure/distiller/constant/base",
        "attack/sequential/constant/base",
    ])
    def test_perturbed_config_lands_out_of_band(self, corpus,
                                                case_id):
        seed, entries = corpus
        entry = next(e for e in entries
                     if e.cell.cell_id == case_id)
        tampered = replace(entry, cell=perturbed_variant(entry.cell))
        check = check_entry(tampered, seed)
        # The tampered cell must run to the end and miss its band; a
        # runner error is a different failure and does not count.
        assert check.record["status"] == "out-of-band", \
            check.record["reason"]
        assert check.observed
        assert check.violations

    def test_unperturbed_rerun_stays_in_band(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.cell.quick)
        assert not check_entry(entry, seed).violations


class TestReproducibility:
    def test_same_seed_runs_bitwise_identical(self, corpus):
        seed, entries = corpus
        report = run_conformance(CORPUS_DIR, quick=True,
                                 check_reproducible=True)
        checks = {check.entry.cell.cell_id: check
                  for check in report.checks}
        for entry in entries:
            if not entry.cell.quick:
                continue
            check = checks[entry.cell.cell_id]
            assert check.reproducible, entry.cell.cell_id
            assert check.ok, entry.cell.cell_id

    def test_identity_excludes_timing(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.cell.quick)
        first = check_entry(entry, seed).record
        second = check_entry(entry, seed).record
        assert (first["security"]["outcome_fingerprint"]
                == second["security"]["outcome_fingerprint"])
        assert record_identity(first) == record_identity(second)

    def test_drifted_fingerprint_flags_check(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.cell.quick)
        drifted = replace(check_entry(entry, seed), reproducible=False)
        assert not drifted.reproducible
        assert not drifted.ok


class TestCorpusGeneration:
    def test_generation_matches_committed_files(self, corpus):
        """Regenerating the quick slice reproduces committed bands."""
        seed, entries = corpus
        committed = {entry.cell.cell_id: entry for entry in entries}
        payloads = build_corpus(quick_corpus(), seed)
        for payload in payloads.values():
            assert payload["schema_version"] == CORPUS_SCHEMA_VERSION
            for item in payload["cases"]:
                case_id = (f"{item['case']['kind']}/"
                           f"{item['case']['scheme']}/"
                           f"{item['case']['family']}/"
                           f"{item['case']['perturbation']}")
                entry = committed[case_id]
                assert (item["expected"]["baseline"]["fingerprint"]
                        == entry.baseline["fingerprint"]), case_id
                for name, (low, high) in \
                        item["expected"]["bands"].items():
                    assert entry.bands[name] == [low, high]


class TestCorpusFormat:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path / "nope")

    def test_invalid_json_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        (tmp_path / "old.json").write_text(json.dumps(
            {"schema_version": 0, "seed": 0, "cases": []}))
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_seed_disagreement_rejected(self, tmp_path):
        for name, seed in (("a.json", 0), ("b.json", 1)):
            (tmp_path / name).write_text(json.dumps(
                {"schema_version": CORPUS_SCHEMA_VERSION,
                 "seed": seed, "cases": []}))
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_malformed_case_rejected(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(
            {"schema_version": CORPUS_SCHEMA_VERSION, "seed": 0,
             "cases": [{"case": {"scheme": "sequential"}}]}))
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_non_object_case_rejected(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(
            {"schema_version": CORPUS_SCHEMA_VERSION, "seed": 0,
             "cases": [{"case": "x"}]}))
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_noise_scale_must_match_its_perturbation(self, tmp_path):
        payload = json.loads(
            (CORPUS_DIR / "sequential.json").read_text())
        case = payload["cases"][0]["case"]
        assert case["perturbation"] == "base"
        case["noise_scale"] = 4.0
        (tmp_path / "a.json").write_text(json.dumps(payload))
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)


class TestRunnerErrors:
    def test_runner_error_fails_its_check(self, tmp_path):
        # The fuzzy extractor has no attack campaign: the runner
        # records an error, which the checker reports as a failure.
        case = {"scheme": "fuzzy", "family": "constant",
                "perturbation": "base", "kind": "attack",
                "quick": True, "devices": 2, "trials": 64,
                "noise_scale": 1.0}
        (tmp_path / "fuzzy.json").write_text(json.dumps(
            {"schema_version": CORPUS_SCHEMA_VERSION, "seed": 0,
             "cases": [{"case": case, "expected": {
                 "bands": {"recovery_rate": [0.0, 1.0]},
                 "baseline": {"fingerprint": ""}}}]}))
        report = run_conformance(tmp_path)
        (check,) = report.checks
        assert not report.ok
        assert check.record["status"] == "error"
        assert "no attack campaign" in check.violations[0]


class TestWarehouseWiring:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_conformance(CORPUS_DIR, quick=True,
                               commit="abc123")

    def test_records_shape_and_keying(self, quick_report):
        records = quick_report.run.records
        assert len(records) == len(quick_report.checks)
        hashes = {record["config_hash"] for record in records}
        assert len(hashes) == 1
        for record in records:
            assert record["cell"].startswith("scenario/")
            assert record["status"] == "ok"
            assert 0.0 <= record["security"]["recovery_rate"] <= 1.0
            assert record["security"]["outcome_fingerprint"]

    def test_records_fingerprint_the_committed_baseline(self,
                                                         quick_report):
        for check in quick_report.checks:
            assert (check.record["security"]["outcome_fingerprint"]
                    == check.entry.baseline["fingerprint"]), \
                check.entry.cell.cell_id

    def test_band_miss_marks_the_record(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.cell.quick)
        tampered = replace(entry, cell=perturbed_variant(entry.cell))
        check = check_entry(tampered, seed)
        assert tampered.cell.cell_id.endswith("/tampered")
        assert check.record["cell"] == f"scenario/{tampered.cell.cell_id}"
        assert check.record["status"] == "out-of-band"
        assert check.record["reason"] == "; ".join(check.violations)

    def test_records_append_to_store(self, quick_report, tmp_path):
        records = quick_report.run.records
        store = WarehouseStore(tmp_path / "store.jsonl")
        assert store.append(records) == len(records)
        assert store.verify_reproducible() == []

    def test_summary_entry_renders_in_trajectory(self, quick_report,
                                                 tmp_path):
        records = quick_report.run.records
        entry = build_entry(records, "abc123", "quick")
        assert set(entry["benchmarks"]) == set(entry["security"])
        summary = tmp_path / "BENCH_scenarios.json"
        summary.write_text(json.dumps(
            {"name": "scenarios",
             "history": [dict(entry, sequence=1)]}))
        report = build_report([summary])
        assert any("scenario/" in line for line in report.lines)

    def test_records_report_kernel_work(self, quick_report):
        """Kernel counters are measured, not hard-coded zeros."""
        perf = {record["cell"]: record["perf"]
                for record in quick_report.run.records}
        attack = perf["scenario/attack/sequential/constant/base"]
        assert attack["kernel_calls"] > 0
        assert attack["kernel_rows"] >= attack["kernel_calls"]

    def test_failure_report_lines_and_exitworthiness(self,
                                                     quick_report):
        check = quick_report.checks[0]
        broken = replace(check, violations=(
            "failure_rate_mean=1 outside [0, 0.05]",))
        report = ConformanceReport(quick_report.seed, [broken])
        assert not report.ok
        assert report.failures == [broken]
        assert any("out-of-band" in line for line in report.lines())
