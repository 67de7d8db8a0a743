"""Enrollment registry: round-trips, tampering, skip-enrollment.

The registry's two contracts under test:

* every scheme family's helpers/keys survive the on-disk round trip
  byte-for-byte (the store reuses the strict §VII-C containers);
* a registry-backed sweep never calls ``keygen.enroll`` and is still
  bitwise-identical to a sweep that enrolled fresh.
"""

import numpy as np
import pytest

from repro._rng import spawn
from repro.fleet import Fleet
from repro.keygen import SequentialPairingKeyGen
from repro.puf import ROArrayParams
from repro.serialization import dump_helper
from repro.service import (
    KIND_FAILURE,
    EnrollmentRegistry,
    PopulationSpec,
    RegistryError,
    enroll_population,
    submit_sweep,
)
from repro.schemes import preset
from repro.service.cli import SCHEMES

SEED = 17
DEVICES = 3


def _population(scheme):
    params = preset(SCHEMES[scheme]).array_params()
    return PopulationSpec(params=params, devices=DEVICES, seed=SEED)


def _keygen_factory(scheme, rows, cols):
    return preset(SCHEMES[scheme]).keygen_factory(rows, cols)


def _fresh_enrollment(population, factory):
    manufacture_rng, enroll_rng = spawn(population.seed, 2)
    fleet = Fleet(population.params, size=population.devices,
                  seed=manufacture_rng)
    return fleet.enroll(factory, seed=enroll_rng)


class TestRoundTrips:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_all_schemes_round_trip_bitwise(self, scheme, tmp_path):
        population = _population(scheme)
        rows, cols = (population.params.rows,
                      population.params.cols)
        factory = _keygen_factory(scheme, rows, cols)
        registry = enroll_population(tmp_path / scheme, population,
                                     factory, scheme)
        assert registry.enrolled == DEVICES
        expected = _fresh_enrollment(population, factory)
        loaded = registry.load_enrollment(factory)
        for got_helper, want_helper in zip(loaded.helpers,
                                           expected.helpers):
            assert dump_helper(got_helper) == \
                dump_helper(want_helper)
        for got_key, want_key in zip(loaded.keys, expected.keys):
            np.testing.assert_array_equal(got_key, want_key)

    def test_manifest_identity_survives_reopen(self, tmp_path):
        population = _population("sequential")
        factory = _keygen_factory("sequential", 8, 16)
        enroll_population(tmp_path / "reg", population, factory,
                          "sequential")
        reopened = EnrollmentRegistry.open(tmp_path / "reg")
        assert reopened.scheme == "sequential"
        assert reopened.population_seed == SEED
        assert reopened.devices == DEVICES
        assert reopened.params == population.params
        reopened.verify_population(population)


class TestTampering:
    @pytest.fixture()
    def registry_path(self, tmp_path):
        population = _population("sequential")
        factory = _keygen_factory("sequential", 8, 16)
        enroll_population(tmp_path / "reg", population, factory,
                          "sequential")
        return tmp_path / "reg"

    def test_flipped_helper_byte_is_rejected(self, registry_path):
        registry = EnrollmentRegistry.open(registry_path)
        entry = registry._manifest["entries"][1]
        blob_file = registry_path / "helpers.bin"
        data = bytearray(blob_file.read_bytes())
        data[entry["helper_offset"] + 5] ^= 0xFF
        blob_file.write_bytes(bytes(data))
        with pytest.raises(RegistryError,
                           match="device 1 helper digest mismatch"):
            registry.load(1)

    def test_flipped_key_byte_is_rejected(self, registry_path):
        registry = EnrollmentRegistry.open(registry_path)
        entry = registry._manifest["entries"][0]
        blob_file = registry_path / "keys.bin"
        data = bytearray(blob_file.read_bytes())
        data[entry["key_offset"] + 5] ^= 0xFF
        blob_file.write_bytes(bytes(data))
        with pytest.raises(RegistryError,
                           match="device 0 key digest mismatch"):
            registry.load(0)

    def test_truncated_blob_file_is_rejected(self, registry_path):
        registry = EnrollmentRegistry.open(registry_path)
        blob_file = registry_path / "helpers.bin"
        blob_file.write_bytes(blob_file.read_bytes()[:10])
        with pytest.raises(RegistryError, match="truncated"):
            registry.load(2)


class TestPopulationMismatch:
    @pytest.fixture()
    def registry(self, tmp_path):
        population = _population("sequential")
        factory = _keygen_factory("sequential", 8, 16)
        return enroll_population(tmp_path / "reg", population,
                                 factory, "sequential")

    def test_seed_mismatch(self, registry):
        population = _population("sequential")
        other = PopulationSpec(params=population.params,
                               devices=DEVICES, seed=SEED + 1)
        with pytest.raises(RegistryError, match="seed"):
            registry.verify_population(other)

    def test_device_count_mismatch(self, registry):
        population = _population("sequential")
        other = PopulationSpec(params=population.params,
                               devices=DEVICES + 1, seed=SEED)
        with pytest.raises(RegistryError, match="devices"):
            registry.verify_population(other)

    def test_params_mismatch(self, registry):
        params = ROArrayParams(rows=8, cols=16, sigma_noise=1.0)
        other = PopulationSpec(params=params, devices=DEVICES,
                               seed=SEED)
        with pytest.raises(RegistryError, match="parameters"):
            registry.verify_population(other)


class TestLifecycleErrors:
    def test_create_refuses_existing_registry(self, tmp_path):
        params = _population("sequential").params
        EnrollmentRegistry.create(tmp_path / "reg", SEED,
                                  "sequential", params, DEVICES)
        with pytest.raises(RegistryError, match="already exists"):
            EnrollmentRegistry.create(tmp_path / "reg", SEED,
                                      "sequential", params, DEVICES)

    def test_open_missing_registry(self, tmp_path):
        with pytest.raises(RegistryError, match="no registry"):
            EnrollmentRegistry.open(tmp_path / "nope")

    def test_incomplete_registry_refuses_load(self, tmp_path):
        population = _population("sequential")
        factory = _keygen_factory("sequential", 8, 16)
        enrollment = _fresh_enrollment(population, factory)
        registry = EnrollmentRegistry.create(
            tmp_path / "reg", SEED, "sequential", population.params,
            DEVICES)
        registry.append(enrollment.helpers[0], enrollment.keys[0])
        with pytest.raises(RegistryError, match="1 of 3"):
            registry.load_enrollment(factory)

    def test_append_beyond_population_refused(self, tmp_path):
        population = _population("sequential")
        factory = _keygen_factory("sequential", 8, 16)
        registry = enroll_population(tmp_path / "reg", population,
                                     factory, "sequential")
        enrollment = _fresh_enrollment(population, factory)
        with pytest.raises(RegistryError, match="already holds"):
            registry.append(enrollment.helpers[0],
                            enrollment.keys[0])

    def test_load_out_of_range_device(self, tmp_path):
        population = _population("sequential")
        factory = _keygen_factory("sequential", 8, 16)
        registry = enroll_population(tmp_path / "reg", population,
                                     factory, "sequential")
        with pytest.raises(RegistryError, match="not in the"):
            registry.load(DEVICES)


class TestSkipEnrollment:
    def test_registry_sweep_never_enrolls_and_matches(
            self, tmp_path, monkeypatch):
        """Registry sweeps skip enrollment, bitwise-identically."""
        population = _population("sequential")
        factory = _keygen_factory("sequential", 8, 16)
        registry = enroll_population(tmp_path / "reg", population,
                                     factory, "sequential")

        fresh = submit_sweep(population, factory, KIND_FAILURE,
                             trials=120, shards=2, workers=2)
        expected = fresh.collect()
        assert fresh.enrollment_source == "enrolled"

        def _no_enrollment_allowed(self, *args, **kwargs):
            raise AssertionError(
                "registry-backed sweep called keygen.enroll")

        monkeypatch.setattr(SequentialPairingKeyGen, "enroll",
                            _no_enrollment_allowed)
        handle = submit_sweep(population, factory, KIND_FAILURE,
                              trials=120, shards=2, workers=2,
                              registry=registry)
        merged = handle.collect()
        assert handle.enrollment_source == "registry"
        np.testing.assert_array_equal(merged, expected)
