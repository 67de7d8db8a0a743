"""``repro service`` CLI: enroll/sweep wiring and exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.fleet import Fleet


class TestEnrollAndSweep:
    def test_enroll_then_registry_sweep_streams_and_checks(
            self, tmp_path, capsys):
        registry = tmp_path / "reg"
        assert main(["service", "enroll", "--scheme", "sequential",
                     "--devices", "3", "--seed", "5",
                     "--registry", str(registry)]) == 0
        assert (registry / "manifest.json").exists()
        capsys.readouterr()

        assert main(["service", "sweep", "--registry", str(registry),
                     "--trials", "60", "--shards", "2",
                     "--workers", "2", "--stream",
                     "--check-single-host"]) == 0
        out = capsys.readouterr().out
        assert "enrollment source: registry" in out
        assert "single-host check: bitwise-identical" in out
        chunks = [json.loads(line) for line in out.splitlines()
                  if line.startswith("{")]
        assert len(chunks) == 2
        assert {chunk["shard"] for chunk in chunks} == {0, 1}
        assert all(chunk["kind"] == "failure-rates"
                   for chunk in chunks)

    def test_fresh_sweep_without_registry(self, capsys):
        assert main(["service", "sweep", "--scheme", "sequential",
                     "--devices", "3", "--trials", "40",
                     "--shards", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "enrollment source: enrolled" in out
        assert "failure rates:" in out

    def test_warehouse_registry_sweeps_through_its_preset(
            self, tmp_path, capsys):
        # A warehouse cell's registry carries the cell's preset name,
        # so a registry sweep re-enrolls the same keygen for the
        # single-host check.
        cell = "distiller[masking]/distiller/baseline"
        assert main(["warehouse", "run", "--cells", cell, "--commit",
                     "c1", "--store", str(tmp_path / "s.jsonl"),
                     "--enrollment-registry", str(tmp_path)]) == 0
        registry = tmp_path / cell.replace("/", "__")
        manifest = json.loads((registry / "manifest.json").read_text())
        assert manifest["scheme"] == "distiller[masking]"
        capsys.readouterr()
        assert main(["service", "sweep", "--registry", str(registry),
                     "--trials", "32", "--workers", "1",
                     "--check-single-host"]) == 0
        assert "single-host check: bitwise-identical" in \
            capsys.readouterr().out

    def test_attack_sweep_reports_recoveries(self, capsys):
        assert main(["service", "sweep", "--scheme", "group-based",
                     "--devices", "2", "--kind", "attack",
                     "--shards", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "keys recovered" in out

    def test_temp_aware_attack_sweep_recovers_relations(self, capsys):
        # §VI-B results carry recovered relations, not a key: the
        # result type's own predicate decides recovery, on the shards
        # and in the single-host check alike.
        assert main(["service", "sweep", "--kind", "attack",
                     "--scheme", "temp-aware", "--devices", "2",
                     "--shards", "2", "--workers", "2", "--seed", "0",
                     "--check-single-host"]) == 0
        out = capsys.readouterr().out
        assert "attack: 2/2 keys recovered" in out
        assert "2 device record(s)" in out
        assert "single-host check: bitwise-identical" in out

    @pytest.mark.parametrize("tamper", ["value", "dtype"])
    def test_single_host_check_compares_every_field(
            self, monkeypatch, capsys, tamper):
        # One changed field of one single-host result -- a flipped
        # relation bit, or the same values in another dtype -- leaves
        # the recovery summary alone but must fail the check.
        original = Fleet.attack_results

        def tampered(self, *args, **kwargs):
            results = original(self, *args, **kwargs)
            relations = results[0].relations.copy()
            if tamper == "value":
                relations[-1] ^= 1
            else:
                relations = relations.astype(np.int64)
            return [dataclasses.replace(results[0],
                                        relations=relations),
                    *results[1:]]

        monkeypatch.setattr(Fleet, "attack_results", tampered)
        assert main(["service", "sweep", "--kind", "attack",
                     "--scheme", "sequential", "--devices", "2",
                     "--shards", "1", "--workers", "1",
                     "--check-single-host"]) == 1
        out = capsys.readouterr().out
        assert "attack: 2/2 keys recovered" in out
        assert "single-host check: MISMATCH" in out


class TestArgumentErrors:
    def test_registry_conflicts_with_population_flags(
            self, tmp_path, capsys):
        registry = tmp_path / "reg"
        assert main(["service", "enroll", "--scheme", "sequential",
                     "--devices", "2",
                     "--registry", str(registry)]) == 0
        capsys.readouterr()
        assert main(["service", "sweep", "--registry", str(registry),
                     "--scheme", "sequential"]) == 2
        assert "conflicts with --registry" in capsys.readouterr().out

    def test_sweep_needs_scheme_or_registry(self, capsys):
        assert main(["service", "sweep"]) == 2
        assert "need --scheme" in capsys.readouterr().out

    def test_missing_registry_is_an_error(self, tmp_path, capsys):
        assert main(["service", "sweep", "--registry",
                     str(tmp_path / "nope")]) == 2
        assert "no registry manifest" in capsys.readouterr().out

    def test_registry_label_must_be_a_preset(self, tmp_path, capsys):
        registry = tmp_path / "reg"
        assert main(["service", "enroll", "--scheme", "fuzzy",
                     "--devices", "2",
                     "--registry", str(registry)]) == 0
        path = registry / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["scheme"] = "fuzzy-extractor"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["service", "sweep", "--registry",
                     str(registry)]) == 2
        assert "'fuzzy-extractor' is not a scheme preset" in \
            capsys.readouterr().out

    def test_fuzzy_attack_sweep_rejected(self, capsys):
        assert main(["service", "sweep", "--scheme", "fuzzy",
                     "--devices", "2", "--kind", "attack"]) == 2
        assert "no attack campaign" in capsys.readouterr().out
