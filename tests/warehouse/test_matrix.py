"""Tests for the attack × scheme × countermeasure matrix registry."""

import hashlib

from repro.warehouse import (
    ATTACKS,
    COUNTERMEASURES,
    SCHEMES,
    full_matrix,
    quick_matrix,
    select_cells,
)
from repro.warehouse.matrix import corpus_cell, full_corpus


class TestFullMatrix:
    def test_covers_the_whole_cross_product(self):
        cells = full_matrix()
        coordinates = {(c.scheme, c.attack, c.countermeasure)
                       for c in cells}
        assert coordinates == {(s, a, cm) for s in SCHEMES
                               for a in ATTACKS
                               for cm in COUNTERMEASURES}

    def test_every_cell_is_classified(self):
        for cell in full_matrix():
            if cell.runnable:
                assert cell.params is not None
                assert cell.reason == ""
            else:
                assert cell.reason

    def test_cell_ids_unique(self):
        ids = [cell.cell_id for cell in full_matrix()]
        assert len(ids) == len(set(ids))

    def test_variant_in_cell_id(self):
        ids = {cell.cell_id for cell in full_matrix()}
        assert "distiller[masking]/distiller/baseline" in ids
        assert "sequential[rm5]/ml/baseline" in ids

    def test_runnable_count(self):
        runnable = [c for c in full_matrix() if c.runnable]
        assert len(runnable) == 12

    def test_reconstruction_cells(self):
        recon = [c for c in full_matrix()
                 if c.attack == "reconstruction"]
        runnable = [c for c in recon if c.runnable]
        assert {c.cell_id for c in runnable} == {
            "fuzzy-extractor[4x10]/reconstruction/baseline",
            "fuzzy-extractor[8x16]/reconstruction/baseline"}
        # timing baselines ride the full profile, never CI smoke
        assert all(not c.quick for c in runnable)
        assert all(c.reason for c in recon if not c.runnable)


class TestQuickMatrix:
    def test_subset_of_full(self):
        full_ids = {c.cell_id for c in full_matrix()}
        assert {c.cell_id for c in quick_matrix()} <= full_ids

    def test_keeps_all_inapplicable_cells(self):
        full_na = [c for c in full_matrix() if not c.runnable]
        quick_na = [c for c in quick_matrix() if not c.runnable]
        assert len(quick_na) == len(full_na)

    def test_only_quick_runnables(self):
        for cell in quick_matrix():
            if cell.runnable:
                assert cell.quick


class TestSeedMaterial:
    def test_position_independent(self):
        # Seed material derives from the cell id, never the index.
        cells = full_matrix()
        by_id = {c.cell_id: c.seed_material(7) for c in cells}
        for cell in reversed(cells):
            assert by_id[cell.cell_id] == cell.seed_material(7)

    def test_distinct_across_cells_and_seeds(self):
        cells = full_matrix()
        materials = {tuple(c.seed_material(0)) for c in cells}
        assert len(materials) == len(cells)
        assert cells[0].seed_material(0) != cells[0].seed_material(1)


class TestSelectCells:
    def test_pattern_filters(self):
        chosen = select_cells(full_matrix(), "group-based/*")
        assert chosen
        assert all(c.scheme == "group-based" for c in chosen)

    def test_none_selects_all(self):
        assert len(select_cells(full_matrix())) == len(full_matrix())

    def test_population_seed_seeds_the_material_root(self):
        # The packed integer seed (what a registry manifest records)
        # must reproduce the seed-material RNG root bitwise, down to
        # the children the runner spawns from it, and every runnable
        # cell must resolve to a scheme preset.  Corpus cells share
        # this one seeding path.
        import numpy as np

        from repro._rng import spawn
        from repro.schemes import PRESETS

        cells = [cell for cell in full_matrix() if cell.runnable]
        for cell in cells + full_corpus():
            assert cell.preset in PRESETS
            for seed in (0, 1, 3, 5, 2**40):
                material = np.random.default_rng(
                    np.random.SeedSequence(cell.seed_material(seed)))
                packed = np.random.default_rng(
                    cell.population_seed(seed))
                assert np.array_equal(material.integers(1 << 62, size=4),
                                      packed.integers(1 << 62, size=4))
                children = spawn(cell.population_seed(seed), 2)
                for ours, theirs in zip(material.spawn(2), children):
                    assert np.array_equal(
                        ours.integers(1 << 62, size=4),
                        theirs.integers(1 << 62, size=4)), cell.cell_id


class TestCorpusCells:
    """Scenario-corpus cases are matrix cells with a trajectory."""

    def test_matrix_cells_have_no_trajectory(self):
        assert all(cell.trajectory() is None for cell in full_matrix())

    def test_both_id_formats(self):
        cell = corpus_cell("group-based", "ramp", kind="attack")
        assert cell.cell_id == "attack/group-based/ramp/base"
        assert cell.preset == "group-based[250k]"
        assert cell.params.sigma_noise == 64e3
        assert (cell.params.rows, cell.params.cols) == (4, 10)

    def test_constant_family_is_an_empty_seeded_spec(self):
        cell = corpus_cell("sequential", "constant")
        digest = hashlib.sha256(cell.cell_id.encode("ascii")).digest()
        spec = cell.trajectory()
        assert spec is not None and spec.terms == ()
        assert spec.seed == int.from_bytes(digest[8:16], "little")
