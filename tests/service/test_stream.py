"""Streaming sweeps: bitwise equality with single-host fleets.

The service's core contract: shard count, worker count, transport and
completion order are pure execution knobs — ``collect()`` must be
bitwise-identical to the matching ``Fleet`` sweep on a same-seed
fleet for every combination.
"""

import json
import os

import numpy as np
import pytest

from repro._rng import spawn
from repro.core import SequentialPairingAttack
from repro.fleet import Fleet, pool, recovery_summary
from repro.keygen import SequentialPairingKeyGen
from repro.puf import ROArrayParams
from repro.service import (
    KIND_ATTACK,
    KIND_FAILURE,
    PopulationSpec,
    submit_sweep,
)

PARAMS = ROArrayParams(rows=8, cols=16, sigma_noise=300e3)
SEED = 21
DEVICES = 5


def keygen_factory():
    return SequentialPairingKeyGen(threshold=250e3)


def attack_factory(oracle, keygen, helper):
    return SequentialPairingAttack(oracle, keygen, helper)


@pytest.fixture(scope="module")
def population():
    return PopulationSpec(params=PARAMS, devices=DEVICES, seed=SEED)


def fresh_single_host():
    """A fresh same-seed fleet whose FIRST sweep is the reference.

    The service rebuilds its fleet per ``submit_sweep``, so every
    streamed sweep consumes first-sweep substreams; the single-host
    reference must do the same (a reused fleet's root RNG advances
    with each sweep).
    """
    manufacture_rng, enroll_rng = spawn(SEED, 2)
    fleet = Fleet(PARAMS, size=DEVICES, seed=manufacture_rng)
    enrollment = fleet.enroll(keygen_factory, seed=enroll_rng)
    return fleet, enrollment


class TestBitwiseEquality:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_failure_rates(self, population, shards, transport):
        fleet, enrollment = fresh_single_host()
        expected = fleet.failure_rates(enrollment, trials=150)
        handle = submit_sweep(population, keygen_factory,
                              KIND_FAILURE, trials=150,
                              shards=shards, workers=2,
                              transport=transport)
        np.testing.assert_array_equal(handle.collect(), expected)
        assert handle.report.verdict == "clean"

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_attack_success(self, population, shards):
        # Each shard's recovered/queries fields (the streamed summary)
        # and the merged results' summary both equal attack_success.
        fleet, enrollment = fresh_single_host()
        recovered, queries = fleet.attack_success(enrollment,
                                                  attack_factory)
        handle = submit_sweep(population, keygen_factory, KIND_ATTACK,
                              attack_factory=attack_factory,
                              shards=shards, workers=2)
        streamed = sorted(handle, key=lambda r: r.shard.index)
        for got_recovered, got_queries in (
                recovery_summary(handle.collect(), enrollment.keys,
                                 enrollment.helpers),
                (np.concatenate([r.data["recovered"] for r in streamed]),
                 np.concatenate([r.data["queries"] for r in streamed]))):
            np.testing.assert_array_equal(got_recovered, recovered)
            np.testing.assert_array_equal(got_queries, queries)
            assert got_recovered.dtype == np.bool_
            assert got_queries.dtype == np.int64

    def test_attack_results(self, population):
        fleet, enrollment = fresh_single_host()
        expected = fleet.attack_results(enrollment, attack_factory)
        handle = submit_sweep(population, keygen_factory, KIND_ATTACK,
                              attack_factory=attack_factory,
                              shards=2, workers=2)
        results = handle.collect()
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.relations,
                                          want.relations)
            np.testing.assert_array_equal(got.key, want.key)
            assert got.queries == want.queries


class TestStreamingSurface:
    def test_chunks_are_ndjson_serialisable(self, population):
        handle = submit_sweep(population, keygen_factory,
                              KIND_FAILURE, trials=60, shards=2,
                              workers=2)
        for result in handle:
            line = json.dumps(result.to_json(), sort_keys=True)
            decoded = json.loads(line)
            assert decoded["kind"] == KIND_FAILURE
            assert decoded["stop"] - decoded["start"] == \
                len(decoded["rates"])

    def test_attack_chunks_carry_the_summary(self, population):
        handle = submit_sweep(population, keygen_factory, KIND_ATTACK,
                              attack_factory=attack_factory, shards=2,
                              workers=2)
        for result in handle:
            decoded = json.loads(json.dumps(result.to_json()))
            assert decoded["kind"] == KIND_ATTACK
            width = decoded["stop"] - decoded["start"]
            assert len(decoded["recovered"]) == width
            assert len(decoded["queries"]) == width
            assert all(bill > 0 for bill in decoded["queries"])

    def test_collect_after_partial_iteration(self, population):
        fleet, enrollment = fresh_single_host()
        expected = fleet.failure_rates(enrollment, trials=60)
        handle = submit_sweep(population, keygen_factory,
                              KIND_FAILURE, trials=60, shards=4,
                              workers=2)
        next(iter(handle))  # consume one chunk by hand
        np.testing.assert_array_equal(handle.collect(), expected)

    def test_close_after_first_chunk_releases_the_pool(
            self, population, monkeypatch):
        # Abandon a stream after one chunk: no worker process is left
        # and the pool's socket directory is removed.
        seen = {"dirs": [], "procs": []}
        make_listener, spawn_workers = pool._make_listener, \
            pool._Pool.spawn

        def recording_listener(transport, tmpdir):
            seen["dirs"].append(tmpdir)
            return make_listener(transport, tmpdir)

        def recording_spawn(self, count):
            spawn_workers(self, count)
            seen["procs"].extend(worker.proc for worker in self.workers)

        monkeypatch.setattr(pool, "_make_listener", recording_listener)
        monkeypatch.setattr(pool._Pool, "spawn", recording_spawn)
        handle = submit_sweep(population, keygen_factory,
                              KIND_FAILURE, trials=60, shards=4,
                              workers=2)
        first = next(handle)
        (tmpdir,) = seen["dirs"]
        assert os.path.isdir(tmpdir)
        assert any(proc.is_alive() for proc in seen["procs"])
        handle.close()
        assert not os.path.exists(tmpdir)
        assert not any(proc.is_alive() for proc in seen["procs"])
        assert handle.results == [first]

    def test_enrollment_source_marks_fresh_enrollment(
            self, population):
        handle = submit_sweep(population, keygen_factory,
                              KIND_FAILURE, trials=30, shards=2,
                              workers=1)
        handle.collect()
        assert handle.enrollment_source == "enrolled"


class TestValidation:
    def test_unknown_kind(self, population):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            submit_sweep(population, keygen_factory, "bogus")

    def test_failure_needs_trials(self, population):
        with pytest.raises(ValueError, match="trials"):
            submit_sweep(population, keygen_factory, KIND_FAILURE)

    def test_attack_needs_factory(self, population):
        with pytest.raises(ValueError, match="attack_factory"):
            submit_sweep(population, keygen_factory, KIND_ATTACK,
                         trials=10)

    def test_population_needs_devices(self):
        with pytest.raises(ValueError):
            PopulationSpec(params=PARAMS, devices=0, seed=0)
