"""The seeded conformance corpus, checked end to end.

Acceptance gates of the scenario-engine PR:

* every cell of the committed corpus re-runs into its pass-band;
* a deliberately perturbed configuration is detected out-of-band;
* two same-seed corpus runs produce bitwise-identical identities;
* conformance runs condense into warehouse records and a summary
  entry the longitudinal trajectory can render.
"""

import json
from pathlib import Path

import pytest

from repro.scenario.conformance import (
    CaseCheck,
    ConformanceReport,
    CorpusFormatError,
    band_violations,
    load_corpus,
    run_conformance,
)
from repro.scenario.corpus import (
    CORPUS_SCHEMA_VERSION,
    build_corpus,
    perturbed_variant,
    quick_corpus,
    run_case,
)
from repro.warehouse.store import WarehouseStore
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
        identifiers = {entry.case.case_id for entry in entries}
        assert len(identifiers) == len(entries) == 74
        quick = [entry for entry in entries if entry.case.quick]
        assert len(quick) == 12
        kinds = {entry.case.kind for entry in entries}
        assert kinds == {"failure", "attack"}

    def test_every_entry_carries_bands_and_baseline(self, corpus):
        _, entries = corpus
        for entry in entries:
            assert entry.bands, entry.case.case_id
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
                     if e.case.case_id == case_id)
        tampered = perturbed_variant(entry.case)
        result = run_case(tampered, seed)
        assert band_violations(entry, result.observed)

    def test_unperturbed_rerun_stays_in_band(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.case.quick)
        result = run_case(entry.case, seed)
        assert not band_violations(entry, result.observed)


class TestReproducibility:
    def test_same_seed_runs_bitwise_identical(self, corpus):
        seed, entries = corpus
        report = run_conformance(CORPUS_DIR, quick=True,
                                 check_reproducible=True)
        checks = {check.entry.case.case_id: check
                  for check in report.checks}
        for entry in entries:
            if not entry.case.quick:
                continue
            check = checks[entry.case.case_id]
            assert check.reproducible, entry.case.case_id
            assert check.ok, entry.case.case_id

    def test_identity_excludes_timing(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.case.quick)
        first = run_case(entry.case, seed)
        second = run_case(entry.case, seed)
        assert first.fingerprint == second.fingerprint
        assert first.identity == second.identity

    def test_drifted_fingerprint_flags_check(self, corpus):
        seed, entries = corpus
        entry = next(e for e in entries if e.case.quick)
        result = run_case(entry.case, seed)
        drifted = CaseCheck(entry, result, (), reproducible=False)
        assert not drifted.reproducible
        assert not drifted.ok


class TestCorpusGeneration:
    def test_generation_matches_committed_files(self, corpus):
        """Regenerating the quick slice reproduces committed bands."""
        seed, entries = corpus
        committed = {entry.case.case_id: entry for entry in entries}
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
        broken = CaseCheck(check.entry, check.result,
                           ("failure_rate_mean=1 outside [0, 0.05]",))
        report = ConformanceReport(quick_report.seed, [broken])
        assert not report.ok
        assert report.failures == [broken]
        assert any("out-of-band" in line for line in report.lines())
