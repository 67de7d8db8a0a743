"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestTable1:
    def test_prints_24_rows(self, capsys):
        assert main(["table1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 25  # header + 24 orders
        assert lines[1].split()[:3] == ["ABCD", "00000", "000000"]


class TestClassify:
    def test_reports_all_classes(self, capsys):
        assert main(["classify", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for kind in ("good", "bad", "cooperating", "marginal"):
            assert kind in out


class TestAttack:
    def test_masking_attack_succeeds(self, capsys):
        assert main(["attack", "masking", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "recovered    : yes" in out

    def test_sequential_attack_sprt(self, capsys):
        assert main(["attack", "sequential", "--seed", "2",
                     "--method", "sprt"]) == 0
        out = capsys.readouterr().out
        assert "recovered    : yes" in out

    #: construction -> (geometry, secret bits, oracle calls) at seed 0
    REPORTS = {
        "sequential": ("8x16", 64, 583),
        "temp-aware": ("8x16", 29, 234),
        "group-based": ("4x10", 66, 390),
        "masking": ("4x10", 4, 36),
        "neighbor-overlap": ("4x10", 39, 348),
    }

    @pytest.mark.parametrize("construction", REPORTS)
    def test_every_construction_report(self, construction, capsys):
        geometry, bits, calls = self.REPORTS[construction]
        assert main(["attack", construction, "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"construction : {construction} ({geometry}, seed 0)",
            f"secret bits  : {bits}",
            "recovered    : yes",
            f"oracle calls : {calls}",
        ]

    def test_unknown_construction_rejected(self):
        with pytest.raises(SystemExit):
            main(["attack", "bogus"])


class TestAnalyze:
    def test_population_summary(self, capsys):
        assert main(["analyze", "--devices", "4"]) == 0
        out = capsys.readouterr().out
        assert "entropy budget" in out
        assert "inter-device distance" in out


class TestFleet:
    def test_sweep_summary(self, capsys):
        assert main(["fleet", "--devices", "3", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "key uniqueness" in out
        assert "P(fail)" in out

    def test_workers_do_not_change_the_report(self, capsys):
        base_args = ["fleet", "--devices", "3", "--trials", "20",
                     "--seed", "5"]
        assert main(base_args + ["--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(base_args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out

        def stats(report):
            return [line for line in report.splitlines()
                    if "sweep time" not in line and "workers" not in line]

        assert stats(sequential) == stats(parallel)

    def test_attack_campaign_is_worker_invariant(self, capsys):
        # Recovered keys and query bills of the fleet attack campaign
        # must not depend on the process-pool width.
        base_args = ["fleet", "--devices", "2", "--attack",
                     "sequential", "--seed", "3"]
        assert main(base_args + ["--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(base_args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out

        def stats(report):
            return [line for line in report.splitlines()
                    if "time" not in line and "workers" not in line]

        assert stats(sequential) == stats(parallel)


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestWarehouse:
    CELL = "distiller[masking]/distiller/baseline"

    def run_quick(self, store, commit, seed=0, extra=()):
        return main(["warehouse", "run", "--quick", "--cells",
                     self.CELL, "--store", str(store), "--commit",
                     commit, "--seed", str(seed), *extra])

    def test_run_appends_and_reports(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_quick(store, "c1") == 0
        out = capsys.readouterr().out
        assert "appended 1 records" in out
        assert "1 ok / 0 n/a / 0 error" in out
        assert store.exists()

    def test_check_reproducible_passes(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_quick(store, "c1",
                              extra=["--check-reproducible"]) == 0
        assert "reproducibility check ok" in capsys.readouterr().out

    def test_verify_and_diff(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_quick(store, "c1") == 0
        assert self.run_quick(store, "c2") == 0
        capsys.readouterr()

        assert main(["warehouse", "verify", "--store",
                     str(store)]) == 0
        assert "bitwise-reproducible" in capsys.readouterr().out

        assert main(["warehouse", "diff", "c1", "c2", "--store",
                     str(store), "--fail-on-security-drift"]) == 0
        assert "0 security change(s)" in capsys.readouterr().out

    def test_diff_unknown_commit(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_quick(store, "c1") == 0
        capsys.readouterr()
        assert main(["warehouse", "diff", "c1", "nope", "--store",
                     str(store)]) == 2
        assert "not in the store" in capsys.readouterr().out

    def test_summary_and_trajectory(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        summary = tmp_path / "BENCH_smoke.json"
        assert self.run_quick(store, "c1",
                              extra=["--summary", str(summary)]) == 0
        assert self.run_quick(store, "c2",
                              extra=["--summary", str(summary)]) == 0
        # Pin the perf layer: two ~10 ms wall times are too noisy to
        # compare against the 20% drift threshold.
        payload = json.loads(summary.read_text())
        for entry in payload["history"]:
            for perf in entry["benchmarks"].values():
                perf["mean"] = 0.5
        summary.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["warehouse", "trajectory", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "smoke: 2 entries" in out
        assert "no drift on the newest entry" in out

    def test_no_matching_cells(self, tmp_path, capsys):
        assert main(["warehouse", "run", "--quick", "--cells",
                     "no-such/*", "--store",
                     str(tmp_path / "s.jsonl"), "--commit", "c1"]) == 2
        assert "no cells match" in capsys.readouterr().out


class TestWarehouseResume:
    """Checkpoint/resume and the disjoint verify exit codes."""

    PATTERN = "sequential/*"  # 12 quick cells, 2 runnable

    def run_slice(self, store, commit, extra=()):
        return main(["warehouse", "run", "--quick", "--cells",
                     self.PATTERN, "--store", str(store), "--commit",
                     commit, "--seed", "0", *extra])

    def verify_slice(self, store, commit, extra=()):
        return main(["warehouse", "verify", "--store", str(store),
                     "--matrix", "quick", "--cells", self.PATTERN,
                     "--commit", commit, "--seed", "0", *extra])

    def test_interrupt_then_resume_completes_once(self, tmp_path,
                                                  capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_slice(store, "c1",
                              extra=["--stop-after", "2"]) == 3
        out = capsys.readouterr().out
        assert "appended 2 records" in out
        assert "rerun with --resume" in out
        # The store is incomplete for the slice: verify says so with
        # its dedicated exit code.
        assert self.verify_slice(store, "c1") == 3
        assert "FAIL (store missing cells)" in capsys.readouterr().out
        # Resume completes the matrix under the same config hash...
        assert self.run_slice(store, "c1", extra=["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 already recorded" in out
        assert "appended 10 records" in out
        assert "matrix complete:" in out
        # ...with every cell recorded exactly once.
        assert self.verify_slice(store, "c1", extra=["--once"]) == 0
        assert "exactly once" in capsys.readouterr().out

    def test_resume_of_complete_run_executes_nothing(self, tmp_path,
                                                     capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_slice(store, "c1") == 0
        capsys.readouterr()
        assert self.run_slice(store, "c1", extra=["--resume"]) == 0
        out = capsys.readouterr().out
        assert "12 already recorded" in out
        assert "appended 0 records" in out

    def test_verify_once_flags_duplicates(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_slice(store, "c1") == 0
        # A second full run (no --resume) appends duplicate records:
        # legal for the identity check, fatal for --once.
        assert self.run_slice(store, "c1") == 0
        capsys.readouterr()
        assert self.verify_slice(store, "c1") == 0
        assert self.verify_slice(store, "c1", extra=["--once"]) == 4
        assert "FAIL (duplicate records)" in capsys.readouterr().out

    def test_verify_usage_and_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["warehouse", "verify", "--store",
                     str(missing)]) == 2
        assert "FAIL (missing store)" in capsys.readouterr().out
        store = tmp_path / "results.jsonl"
        assert self.run_slice(store, "c1",
                              extra=["--stop-after", "1"]) == 3
        capsys.readouterr()
        assert main(["warehouse", "verify", "--store", str(store),
                     "--once"]) == 2
        assert "FAIL (usage)" in capsys.readouterr().out

    def test_verify_identity_mismatch(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert self.run_slice(store, "c1",
                              extra=["--stop-after", "1"]) == 3
        capsys.readouterr()
        # Re-append the first record with a tampered security layer:
        # same key, different identity.
        lines = store.read_text().strip().splitlines()
        record = json.loads(lines[0])
        record["security"] = {"tampered": True}
        with store.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        assert main(["warehouse", "verify", "--store",
                     str(store)]) == 1
        out = capsys.readouterr().out
        assert "FAIL (identity mismatch)" in out
        assert "identity drifted" in out


class TestScenarioConformanceResume:
    def conformance(self, store, extra=()):
        return main(["scenario", "conformance", "--quick", "--store",
                     str(store), "--commit", "c1", *extra])

    def test_interrupt_then_resume(self, tmp_path, capsys):
        store = tmp_path / "conformance.jsonl"
        assert self.conformance(store, ["--stop-after", "1"]) == 3
        out = capsys.readouterr().out
        assert "appended 1 records" in out
        assert "rerun with --resume" in out
        assert self.conformance(store, ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 already recorded" in out
        assert "every cell in its pass-band" in out
        # A second resume finds everything recorded and re-runs
        # nothing.
        assert self.conformance(store, ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "appended" not in out

    def test_resume_requires_store(self, capsys):
        assert main(["scenario", "conformance", "--quick",
                     "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().out


class TestScenarioRun:
    def test_failure_cell_reports_metrics_and_bands(self, capsys):
        assert main(["scenario", "run", "--scheme", "sequential",
                     "--family", "ramp"]) == 0
        out = capsys.readouterr().out
        assert "failure/sequential/ramp/base seed=0 devices=2" in out
        assert "band failure_rate_mean = [0, 0.05]" in out
        assert "fingerprint " in out

    def test_attack_on_a_scheme_without_one_is_a_usage_error(
            self, capsys):
        assert main(["scenario", "run", "--scheme", "fuzzy",
                     "--family", "constant", "--kind", "attack"]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "attack/fuzzy/constant/base" in out
        assert "no attack campaign" in out


class TestFleetSupervised:
    PLAN = ('{"seed":1,"faults":[{"chunk":0,"mode":"crash",'
            '"attempts":[0]}]}')

    def test_supervised_sweep_recovers_and_reproduces(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", self.PLAN)
        report = tmp_path / "failures.json"
        assert main(["fleet", "--devices", "3", "--trials", "20",
                     "--seed", "5", "--workers", "2",
                     "--max-retries", "2", "--failure-report",
                     str(report), "--check-reproducible"]) == 0
        out = capsys.readouterr().out
        assert "supervised sweep" in out
        assert "recovered" in out
        assert "reproducibility" in out and "ok" in out
        payload = json.loads(report.read_text())
        assert payload["failures"] >= 1
        assert "crash" in payload["counts"]

    def test_supervised_attack_campaign_reproduces(
            self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", self.PLAN)
        assert main(["fleet", "--devices", "2", "--attack",
                     "sequential", "--seed", "3", "--workers", "2",
                     "--max-retries", "1",
                     "--check-reproducible"]) == 0
        out = capsys.readouterr().out
        assert "supervised sweep" in out
        assert "reproducibility" in out

    def test_unsupervised_failure_report_is_an_empty_tally(
            self, tmp_path, capsys):
        report = tmp_path / "failures.json"
        assert main(["fleet", "--devices", "2", "--trials", "10",
                     "--failure-report", str(report)]) == 0
        assert "failure report" in capsys.readouterr().out
        assert json.loads(report.read_text()) == {
            "sweeps": 0, "failures": 0, "counts": {}, "reports": []}

    def test_unsupervised_fleet_ignores_plan(self, capsys,
                                             monkeypatch):
        # Without a supervision knob the plain pool runs and never
        # consults the fault plan: same report as the clean run.
        base = ["fleet", "--devices", "3", "--trials", "20",
                "--seed", "5", "--workers", "2"]
        assert main(base) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_FAULT_PLAN", self.PLAN)
        assert main(base) == 0
        faulted = capsys.readouterr().out

        def stats(report):
            return [line for line in report.splitlines()
                    if "time" not in line]

        assert stats(clean) == stats(faulted)


class TestSharedOptions:
    WAREHOUSE = ["warehouse", "run", "--quick", "--cells",
                 TestWarehouse.CELL, "--commit", "c1"]

    @pytest.mark.parametrize("argv", [
        ["fleet", "--max-retries", "-1"],
        ["fleet", "--chunk-timeout", "0"],
        [*WAREHOUSE, "--chunk-timeout", "0"],
        [*WAREHOUSE, "--devices", "0"],
        [*WAREHOUSE, "--stop-after", "-1"],
        ["scenario", "conformance", "--quick", "--stop-after", "-1"],
        ["service", "sweep", "--scheme", "sequential",
         "--max-retries", "-1"],
        ["fleet", "--devices", "0"],
        ["fleet", "--trials", "0"],
        ["fleet", "--chunk", "0"],
        ["fleet", "--workers", "-1"],
        ["analyze", "--devices", "0"],
        ["service", "enroll", "--scheme", "sequential", "--registry",
         "reg", "--devices", "0"],
        ["service", "sweep", "--scheme", "sequential", "--devices", "0"],
        ["service", "sweep", "--scheme", "sequential", "--trials", "0"],
        ["service", "sweep", "--scheme", "sequential", "--shards", "0"],
        ["scenario", "run", "--scheme", "sequential", "--family",
         "constant", "--devices", "0"],
        ["scenario", "run", "--scheme", "sequential", "--family",
         "constant", "--trials", "0"],
        ["warehouse", "verify", "--matrix", "quick", "--devices", "0"],
        [*WAREHOUSE, "--workers", "-1"],
        ["service", "enroll", "--scheme", "sequential", "--registry",
         "reg", "--workers", "-2"],
        ["service", "sweep", "--scheme", "sequential", "--workers", "-2"],
    ])
    def test_bad_values_are_usage_errors(self, argv, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # any default store lands here
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_library_imports_skip_the_cli_options(self):
        import subprocess
        import sys

        probe = ("import sys, repro, repro.fleet, repro.service, "
                 "repro.warehouse; "
                 "print('repro.cli_options' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "False"
