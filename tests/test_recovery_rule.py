"""One recovery rule: every front-end reads the same verdict.

Each attack result type decides recovery itself
(``result.recovered(key, helper)``).  For every attack family of the
scheme catalogue, a small same-seed population must give one recovered
mask whichever front-end asks: ``Fleet.attack_success``, a sharded
``submit_sweep(..., KIND_ATTACK)`` (merged results and streamed shard
summaries) and the warehouse record's per-device payloads.
"""

import numpy as np
import pytest

from repro.fleet import recovery_summary
from repro.schemes import ATTACKS, preset
from repro.service import KIND_ATTACK, PopulationSpec, submit_sweep
from repro.warehouse.matrix import full_matrix
from repro.warehouse.runner import run_cell

DEVICES = 3
SEED = 0

#: Warehouse cell -> the ATTACKS family it runs.  The hardened cells
#: give all-False masks, so both verdicts are compared.
CELLS = {
    "sequential/sequential/baseline": "paired",
    "sequential/sprt/baseline": "sprt",
    "temp-aware/temp-aware/baseline": "temp-aware",
    "temp-aware/temp-aware/hardened": "temp-aware",
    "group-based/group/baseline": "group",
    "group-based/group/hardened": "group",
    "distiller[masking]/distiller/baseline": "distiller",
}


def test_every_family_is_covered():
    assert set(CELLS.values()) == set(ATTACKS)


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_front_ends_agree_on_recovery(cell_id):
    (cell,) = [c for c in full_matrix() if c.cell_id == cell_id]
    params = cell.params
    population = PopulationSpec(params, DEVICES,
                                cell.population_seed(SEED))
    keygen_factory = preset(cell.preset).keygen_factory(params.rows,
                                                        params.cols)
    attack_factory = ATTACKS[CELLS[cell_id]].factory(params.rows,
                                                     params.cols)

    fleet, enroll_rng = population.build()
    enrollment = fleet.enroll(keygen_factory, seed=enroll_rng)
    expected, _ = fleet.attack_success(enrollment, attack_factory)

    record = run_cell(cell, DEVICES, SEED, "c", "h", "test")
    assert record["status"] == "ok"
    assert record["security"]["recovered_mask"] == expected.tolist()

    for shards in (1, 2):
        handle = submit_sweep(population, keygen_factory, KIND_ATTACK,
                              attack_factory=attack_factory,
                              shards=shards, workers=shards)
        streamed = np.concatenate(
            [result.data["recovered"] for result in
             sorted(handle, key=lambda r: r.shard.index)])
        merged, _ = recovery_summary(handle.collect(), enrollment.keys,
                                     enrollment.helpers)
        np.testing.assert_array_equal(streamed, expected)
        np.testing.assert_array_equal(merged, expected)
