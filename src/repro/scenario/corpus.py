"""The scenario conformance corpus: perturbed campaign grid + bands.

Following the base/variant/expected-answer regression pattern of the
DocuSenseLM RAG question suite (SNIPPETS.md snippet 1), the corpus
is an auto-generated grid of campaign configurations — scheme ×
trajectory family × noise perturbation, plus a handful of full
attack campaigns — whose *expected pass-bands* (failure-rate and
key-recovery envelopes) are computed once from seeded baseline runs
and committed under ``tests/conformance/corpus/``.  The conformance
checker (:mod:`repro.scenario.conformance`) re-runs cells and
asserts results land inside their bands.

Determinism contract (mirroring the warehouse matrix): a case's RNG
roots derive from its *identifier*, never its grid position, so
adding cases never perturbs existing ones; trajectory streams derive
from the same identifier digest, so a case is one self-contained
seeded world.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import schemes
from repro.fleet import Fleet
from repro.puf import ROArrayParams
from repro.scenario.trajectory import (
    AgingDrift,
    TemperatureCycle,
    TemperatureRamp,
    TrajectorySpec,
    VoltageNoise,
)
from repro.warehouse.store import enrollment_fingerprint, sha256_hex

#: Version of the corpus file layout; bump on any change to the case
#: or band encoding.
CORPUS_SCHEMA_VERSION = 1

#: Corpus scheme label -> :mod:`repro.schemes` preset.  Small arrays
#: keep every cell fast enough for the CI smoke slice; the presets'
#: sigmas keep baseline failure rates near (but mostly off) zero while
#: the ``noise_scale=4`` tamper probe saturates well outside every
#: band.  The distiller cells run neighbor-disjoint pairing: the
#: masked construction never fails at any plausible noise level,
#: which would blind the tamper probe.
SCHEME_PRESETS: Dict[str, str] = {
    "sequential": "sequential",
    "sequential-hardened": "sequential-hardened",
    "temp-aware": "temp-aware",
    "temp-aware-hardened": "temp-aware-hardened",
    "group-based": "group-based[250k]",
    "distiller": "distiller[neighbor-disjoint]",
    "fuzzy": "fuzzy-extractor[4x10]",
}

SCHEMES = tuple(SCHEME_PRESETS)
FAMILIES = ("constant", "ramp", "cycle", "vnoise", "aging")
#: Noise perturbation applied to the device model, by label.
PERTURBATIONS: Dict[str, float] = {"base": 1.0, "noisy": 1.5}


@dataclass(frozen=True)
class ScenarioCase:
    """One cell of the conformance grid.

    ``noise_scale`` multiplies the device model's measurement-noise
    sigma; the named perturbations map to fixed scales
    (:data:`PERTURBATIONS`), and tests may construct deliberately
    out-of-band variants with arbitrary scales.
    """

    scheme: str
    family: str
    perturbation: str = "base"
    kind: str = "failure"
    quick: bool = False
    devices: int = 2
    trials: int = 64
    noise_scale: float = 1.0

    @property
    def case_id(self) -> str:
        """Stable identifier: kind/scheme/family/perturbation."""
        return (f"{self.kind}/{self.scheme}/{self.family}/"
                f"{self.perturbation}")

    def _digest(self) -> bytes:
        return hashlib.sha256(self.case_id.encode("ascii")).digest()

    def seed_material(self, seed: int) -> List[int]:
        """Entropy for the case's RNG root: run seed + id digest.

        Derived from the case identifier — not its grid position —
        so growing the corpus never perturbs existing cases.
        """
        return [int(seed),
                int.from_bytes(self._digest()[:8], "little")]

    @property
    def preset(self) -> schemes.Preset:
        """The case's :mod:`repro.schemes` preset."""
        return schemes.preset(SCHEME_PRESETS[self.scheme])

    def array_params(self) -> ROArrayParams:
        """The case's device model parameters."""
        return self.preset.array_params(
            sigma_noise=self.preset.sigma_noise
            * float(self.noise_scale))

    def trajectory_spec(self) -> TrajectorySpec:
        """The case's trajectory family, seeded from its identifier."""
        traj_seed = int.from_bytes(self._digest()[8:16], "little")
        terms: tuple
        if self.family == "constant":
            terms = ()
        elif self.family == "ramp":
            terms = (TemperatureRamp(0.0, 40.0,
                                     queries=max(self.trials, 2)),)
        elif self.family == "cycle":
            terms = (TemperatureCycle(amplitude=15.0, period=48.0),)
        elif self.family == "vnoise":
            terms = (VoltageNoise(sigma=0.04),)
        elif self.family == "aging":
            terms = (AgingDrift(years=5.0, drift_sigma=40e3),)
        else:
            raise ValueError(
                f"unknown trajectory family {self.family!r}")
        return TrajectorySpec(terms=terms, seed=traj_seed)

    def keygen_factory(self) -> Callable[[], object]:
        """Picklable keygen factory for this case."""
        return self.preset.keygen_factory()

    def attack_factory(self) -> Callable:
        """Picklable attack factory (attack cells only)."""
        return self.preset.attack_factory()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable case configuration."""
        return {
            "scheme": self.scheme,
            "family": self.family,
            "perturbation": self.perturbation,
            "kind": self.kind,
            "quick": bool(self.quick),
            "devices": int(self.devices),
            "trials": int(self.trials),
            "noise_scale": float(self.noise_scale),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioCase":
        """Rebuild a case from its corpus-file configuration."""
        return cls(scheme=str(payload["scheme"]),
                   family=str(payload["family"]),
                   perturbation=str(payload["perturbation"]),
                   kind=str(payload["kind"]),
                   quick=bool(payload["quick"]),
                   devices=int(payload["devices"]),
                   trials=int(payload["trials"]),
                   noise_scale=float(payload["noise_scale"]))


def full_corpus() -> List[ScenarioCase]:
    """The complete conformance grid, in stable order.

    Failure cells cover scheme × family × perturbation; the quick
    slice (CI smoke) takes every scheme's constant/base cell, every
    family on the sequential scheme, and one attack campaign.
    """
    cases: List[ScenarioCase] = []
    for scheme in SCHEMES:
        for family in FAMILIES:
            for label, scale in PERTURBATIONS.items():
                quick = (label == "base"
                         and (family == "constant"
                              or scheme == "sequential"))
                cases.append(ScenarioCase(
                    scheme, family, label, "failure", quick,
                    noise_scale=scale))
    cases.append(ScenarioCase("sequential", "constant", "base",
                              "attack", quick=True))
    cases.append(ScenarioCase("sequential", "vnoise", "base",
                              "attack"))
    cases.append(ScenarioCase("group-based", "constant", "base",
                              "attack"))
    cases.append(ScenarioCase("group-based", "ramp", "base",
                              "attack"))
    return cases


def quick_corpus() -> List[ScenarioCase]:
    """The CI smoke slice of :func:`full_corpus`."""
    return [case for case in full_corpus() if case.quick]


@dataclass(frozen=True)
class CaseResult:
    """Outcome of executing one case once."""

    case: ScenarioCase
    observed: Dict[str, float]
    identity: Dict[str, object]
    fingerprint: str
    seconds: float


def run_case(case: ScenarioCase, seed: int) -> CaseResult:
    """Execute one case; deterministic given ``(case, seed)``.

    The identity payload (per-device outcomes + enrollment
    fingerprint) is a pure function of the configuration, so two
    same-seed runs must agree on ``fingerprint`` byte for byte —
    the reproducibility half of the conformance gate.
    """
    root = np.random.default_rng(
        np.random.SeedSequence(case.seed_material(seed)))
    manufacture_rng, enroll_rng = root.spawn(2)
    fleet = Fleet(case.array_params(), size=case.devices,
                  seed=manufacture_rng)
    start = time.perf_counter()
    enrollment = fleet.enroll(case.keygen_factory(), seed=enroll_rng)
    spec = case.trajectory_spec()
    identity: Dict[str, object] = {
        "case": case.case_id,
        "enrollment_fingerprint": enrollment_fingerprint(
            enrollment.helpers, enrollment.keys),
    }
    if case.kind == "failure":
        rates = fleet.failure_rates(enrollment, case.trials,
                                    trajectory=spec)
        observed = {
            "failure_rate_mean": float(np.mean(rates)),
            "failure_rate_max": float(np.max(rates)),
        }
        identity["failures"] = [int(round(rate * case.trials))
                                for rate in rates]
    elif case.kind == "attack":
        recovered, queries = fleet.attack_success(
            enrollment, case.attack_factory(), trajectory=spec)
        observed = {
            "recovery_rate": float(np.mean(recovered)),
            "queries_mean": float(np.mean(queries)),
        }
        identity["recovered_mask"] = [bool(v) for v in recovered]
        identity["queries"] = [int(q) for q in queries]
    else:
        raise ValueError(f"unknown case kind {case.kind!r}")
    seconds = time.perf_counter() - start
    return CaseResult(case, observed, identity,
                      sha256_hex(identity), seconds)


def expected_bands(case: ScenarioCase,
                   observed: Dict[str, float]
                   ) -> Dict[str, List[float]]:
    """Pass-bands around a baseline observation.

    Conformance re-runs are seed-deterministic, so the bands exist
    to absorb *legitimate* movement — cross-platform floating-point
    differences and benign refactors that re-order stream
    consumption — while staying tight enough that a perturbed
    configuration (noise scale, gap years) lands outside.  Rate
    bands widen with the binomial standard error of the estimate;
    query bands are fractional.
    """
    bands: Dict[str, List[float]] = {}
    if case.kind == "failure":
        total = case.trials * case.devices
        mean = observed["failure_rate_mean"]
        margin = max(0.05, 4.0 * math.sqrt(
            max(mean * (1.0 - mean), 1.0 / total) / total))
        bands["failure_rate_mean"] = [max(0.0, mean - margin),
                                      min(1.0, mean + margin)]
        peak = observed["failure_rate_max"]
        margin = max(0.08, 4.0 * math.sqrt(
            max(peak * (1.0 - peak), 1.0 / case.trials)
            / case.trials))
        bands["failure_rate_max"] = [max(0.0, peak - margin),
                                     min(1.0, peak + margin)]
    else:
        rate = observed["recovery_rate"]
        margin = 0.5 / case.devices
        bands["recovery_rate"] = [max(0.0, rate - margin),
                                  min(1.0, rate + margin)]
        queries = observed["queries_mean"]
        bands["queries_mean"] = [queries * 0.65, queries * 1.45]
    return bands


def build_corpus(cases: List[ScenarioCase], seed: int,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> Dict[str, Dict[str, object]]:
    """Run baselines and assemble per-scheme corpus payloads.

    Returns ``{scheme: corpus-file payload}``; each payload carries
    the cases' configurations, expected bands and informational
    baseline observations (including the identity fingerprint, which
    the checker uses for *same-run* reproducibility only — never as
    a cross-commit gate, so benign refactors stay shippable).
    """
    payloads: Dict[str, Dict[str, object]] = {}
    for case in cases:
        result = run_case(case, seed)
        entry = {
            "case": case.to_dict(),
            "expected": {
                "bands": expected_bands(case, result.observed),
                "baseline": dict(result.observed,
                                 fingerprint=result.fingerprint),
            },
        }
        payload = payloads.setdefault(case.scheme, {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "seed": int(seed),
            "scheme": case.scheme,
            "cases": [],
        })
        payload["cases"].append(entry)
        if progress is not None:
            shown = ", ".join(f"{name}={value:.3g}"
                              for name, value in
                              result.observed.items())
            progress(f"  {case.case_id}: {shown} "
                     f"({result.seconds:.2f}s)")
    return payloads


def perturbed_variant(case: ScenarioCase,
                      noise_scale: float = 4.0) -> ScenarioCase:
    """A deliberately out-of-band variant of *case*.

    Used by the conformance self-test: scaling the measurement noise
    this far moves the failure-rate envelope of every scheme outside
    its committed band, so the checker must flag it.
    """
    return replace(case, perturbation="tampered",
                   noise_scale=float(noise_scale))
