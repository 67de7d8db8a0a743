"""Persistent enrollment registry: enroll once, sweep many times.

An :class:`EnrollmentRegistry` is an append-only on-disk store of one
population's enrollment, built on the **specified** helper-data
formats of :mod:`repro.serialization` (§VII-C: storage formats are
security-relevant, so the registry never pickles helpers — every
blob round-trips through the strict tagged container parsers).

Layout of a registry directory::

    manifest.json   population identity + per-device entry table
    helpers.bin     concatenated ROHD helper containers, append-only
    keys.bin        concatenated ROHD key-bit containers, append-only

The manifest keys the store by ``(population seed, scheme label,
device index)`` and records, per device, the byte offset, length and
SHA-256 content digest of its helper and key blobs.  Loading verifies
every digest before parsing — a flipped bit in a helper file is a
:class:`RegistryError` naming the device, never a silently different
sweep.

Because the fleet enrollment stream is split from the population seed
*independently* of the sweep substreams (the seed split of
:class:`repro.fleet.PopulationSpec`), a sweep
that loads this registry instead of enrolling consumes exactly the
same sweep substreams as one that enrolled fresh — registry-backed
sweeps are therefore bitwise-identical to enroll-every-time sweeps,
while running zero enrollment measurements.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fleet.fleet import FleetEnrollment, KeyGenFactory
from repro.puf.parameters import ROArrayParams
from repro.serialization import (
    dump_helper,
    dump_key_bits,
    load_helper,
    load_key_bits,
)

#: Manifest schema version; bumped on layout changes.
SCHEMA_VERSION = 1

_MANIFEST = "manifest.json"
_HELPERS = "helpers.bin"
_KEYS = "keys.bin"


class RegistryError(ValueError):
    """The registry is malformed, tampered with, or mismatched."""


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class EnrollmentRegistry:
    """Append-only on-disk enrollment store for one population.

    Create with :meth:`create`, reopen with :meth:`open`.  Devices
    are appended in fleet order; the manifest is rewritten atomically
    (write-new + rename) after each append, so a torn process leaves
    either the old or the new manifest, never half of one.
    """

    def __init__(self, path: Path, manifest: Dict[str, object]):
        self.path = Path(path)
        self._manifest = manifest

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    def create(cls, path, population_seed: int, scheme: str,
               params: ROArrayParams,
               devices: int) -> "EnrollmentRegistry":
        """Initialise an empty registry directory.

        *devices* is the expected population size; appends beyond it
        (or loads before it is reached) are refused.
        """
        target = Path(path)
        target.mkdir(parents=True, exist_ok=True)
        if (target / _MANIFEST).exists():
            raise RegistryError(
                f"registry already exists at {target}")
        manifest: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "population_seed": int(population_seed),
            "scheme": str(scheme),
            "params": asdict(params),
            "devices": int(devices),
            "entries": [],
        }
        registry = cls(target, manifest)
        (target / _HELPERS).write_bytes(b"")
        (target / _KEYS).write_bytes(b"")
        registry._write_manifest()
        return registry

    @classmethod
    def open(cls, path) -> "EnrollmentRegistry":
        """Open an existing registry; validates the manifest shape."""
        target = Path(path)
        manifest_path = target / _MANIFEST
        if not manifest_path.exists():
            raise RegistryError(
                f"no registry manifest at {manifest_path}")
        try:
            manifest = json.loads(
                manifest_path.read_text(encoding="ascii"))
        except (ValueError, UnicodeDecodeError) as error:
            raise RegistryError(
                f"malformed registry manifest: {error}") from None
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise RegistryError(
                f"registry schema version "
                f"{manifest.get('schema_version')} is not the "
                f"supported {SCHEMA_VERSION}")
        for key in ("population_seed", "scheme", "params", "devices",
                    "entries"):
            if key not in manifest:
                raise RegistryError(
                    f"registry manifest misses the {key!r} field")
        return cls(target, manifest)

    def _write_manifest(self) -> None:
        text = json.dumps(self._manifest, indent=2, sort_keys=True)
        tmp = self.path / (_MANIFEST + ".tmp")
        tmp.write_text(text + "\n", encoding="ascii")
        os.replace(tmp, self.path / _MANIFEST)

    # ------------------------------------------------------------------
    # identity

    @property
    def population_seed(self) -> int:
        """Seed of the population this enrollment belongs to."""
        return int(self._manifest["population_seed"])

    @property
    def scheme(self) -> str:
        """Scheme label the population was enrolled under."""
        return str(self._manifest["scheme"])

    @property
    def devices(self) -> int:
        """Expected population size."""
        return int(self._manifest["devices"])

    @property
    def params(self) -> ROArrayParams:
        """The population's physical parameter set."""
        return ROArrayParams(**self._manifest["params"])

    @property
    def enrolled(self) -> int:
        """Devices appended so far."""
        return len(self._manifest["entries"])

    def verify_population(self, population) -> None:
        """Check a :class:`PopulationSpec` matches this registry.

        A registry holds *one* population's enrollment; sweeping a
        different seed, size or parameter set against it would
        silently decouple helpers from devices, so every mismatch is
        a :class:`RegistryError`.
        """
        if population.seed != self.population_seed:
            raise RegistryError(
                f"registry was enrolled for population seed "
                f"{self.population_seed}, sweep requested seed "
                f"{population.seed}")
        if population.devices != self.devices:
            raise RegistryError(
                f"registry covers {self.devices} devices, sweep "
                f"requested {population.devices}")
        if asdict(population.params) != self._manifest["params"]:
            raise RegistryError(
                "registry population parameters do not match the "
                "sweep's")

    # ------------------------------------------------------------------
    # append

    def append(self, helper: object, key: np.ndarray) -> int:
        """Persist one device's enrollment; returns its index.

        Devices append in fleet order.  Blobs go through the strict
        :mod:`repro.serialization` formats, so only helper types with
        a registered codec can be persisted (all five scheme families
        have one).
        """
        index = self.enrolled
        if index >= self.devices:
            raise RegistryError(
                f"registry already holds all {self.devices} devices")
        helper_blob = dump_helper(helper)
        key_blob = dump_key_bits(np.asarray(key))
        entry = {"device": index}
        for name, filename, blob in (
                ("helper", _HELPERS, helper_blob),
                ("key", _KEYS, key_blob)):
            target = self.path / filename
            offset = target.stat().st_size
            with open(target, "ab") as handle:
                handle.write(blob)
            entry[f"{name}_offset"] = offset
            entry[f"{name}_length"] = len(blob)
            entry[f"{name}_sha256"] = _sha256(blob)
        self._manifest["entries"].append(entry)
        self._write_manifest()
        return index

    # ------------------------------------------------------------------
    # load

    def _read_blob(self, entry: Dict, name: str,
                   filename: str) -> bytes:
        with open(self.path / filename, "rb") as handle:
            handle.seek(int(entry[f"{name}_offset"]))
            blob = handle.read(int(entry[f"{name}_length"]))
        if len(blob) != int(entry[f"{name}_length"]):
            raise RegistryError(
                f"device {entry['device']} {name} blob is truncated")
        if _sha256(blob) != entry[f"{name}_sha256"]:
            raise RegistryError(
                f"device {entry['device']} {name} digest mismatch: "
                f"the registry was tampered with or corrupted")
        return blob

    def load(self, device: int) -> Tuple[object, np.ndarray]:
        """Load one device's verified ``(helper, key)``."""
        entries: List[Dict] = self._manifest["entries"]
        if not 0 <= device < len(entries):
            raise RegistryError(
                f"device {device} is not in the registry "
                f"({len(entries)} enrolled)")
        entry = entries[device]
        helper = load_helper(self._read_blob(entry, "helper",
                                             _HELPERS))
        key = load_key_bits(self._read_blob(entry, "key", _KEYS))
        return helper, key

    def load_enrollment(self, keygen_factory: KeyGenFactory
                        ) -> FleetEnrollment:
        """Rebuild the full :class:`FleetEnrollment` from disk.

        Key generators are constructed fresh from the factory (they
        are deterministic device models, not stored state); helpers
        and keys come verified from the store.  No enrollment
        measurement runs — ``keygen.enroll`` is never called.
        """
        if self.enrolled != self.devices:
            raise RegistryError(
                f"registry holds {self.enrolled} of {self.devices} "
                f"devices; finish enrollment first")
        helpers, keys = [], []
        for device in range(self.devices):
            helper, key = self.load(device)
            helpers.append(helper)
            keys.append(key)
        return FleetEnrollment(
            tuple(keygen_factory() for _ in range(self.devices)),
            tuple(helpers), tuple(keys))


def enroll_population(path, population, keygen_factory: KeyGenFactory,
                      scheme: str,
                      workers: Optional[int] = 1
                      ) -> EnrollmentRegistry:
    """Enroll a population and persist it; returns the registry.

    *population* is a :class:`repro.fleet.PopulationSpec`, enrolled
    fresh by :meth:`~repro.fleet.PopulationSpec.enroll`; every
    device's helper/key lands in the registry at *path* in fleet
    order.
    """
    _, enrollment = population.enroll(keygen_factory, workers=workers)
    registry = EnrollmentRegistry.create(
        path, population.seed, scheme, population.params,
        population.devices)
    for helper, key in zip(enrollment.helpers, enrollment.keys):
        registry.append(helper, key)
    return registry
