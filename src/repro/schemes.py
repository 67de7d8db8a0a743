"""The scheme catalogue: named keygen presets and attack families.

Each construction of the paper is one fixed configuration, and every
front-end (``repro attack``, ``repro fleet``, the warehouse matrix, the
scenario corpus and the campaign service) picks its keygens and
attacks here by name.  A :class:`Preset` is a keygen factory, its
default attack family and its default ``(rows, cols, sigma_noise)``;
each attack result type decides recovery itself
(``result.recovered(key, helper)``).  Where front-ends differ
in a parameter, the difference is its own preset
(``group-based[250k]``, the two ``fuzzy-extractor`` output sizes, the
three ``distiller`` pairing modes); labels that predate the catalogue
map to a preset name at their front-end.  Presets and the factories
they build are picklable, so they cross the worker-pool boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.temp_aware_attack import coop_bits
from repro.ecc import BlockwiseCode, ReedMullerCode
from repro.fleet import (
    DistillerAttackFactory,
    GroupAttackFactory,
    SequentialAttackFactory,
    TempAwareAttackFactory,
)
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    HardenedGroupBasedKeyGen,
    HardenedSequentialKeyGen,
    HardenedTempAwareKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import ROArrayParams


@dataclass(frozen=True)
class _ReedMullerProvider:
    """Picklable provider of blockwise Reed–Muller codes (ML-decoded).

    First-order RM decoding never fails — it is the matrix's
    maximum-likelihood column: the §VI-A bounded-distance calculus
    does not apply and the attack switches to its online-calibration
    variant automatically.
    """

    m: int = 5

    def __call__(self, bits: int) -> BlockwiseCode:
        """Smallest blockwise RM(1, m) covering *bits* data bits."""
        inner = ReedMullerCode(self.m)
        blocks = max(1, -(-bits // inner.k))
        if blocks == 1:
            return inner
        return BlockwiseCode(inner, blocks)


@dataclass(frozen=True)
class AttackFamily:
    """An attack factory builder and the secret it targets.

    ``factory(rows, cols)`` returns the picklable per-device attack
    factory; ``secret(key, helper)`` is the part of the enrolled key
    the attack targets (default: all of it).  Recovery is decided by
    the attack's result type (``result.recovered(key, helper)``).
    """

    factory: Callable[[int, int], Callable]
    secret: Optional[Callable[..., np.ndarray]] = None


#: The attack families, by name.
ATTACKS: Dict[str, AttackFamily] = {
    "paired": AttackFamily(lambda rows, cols: SequentialAttackFactory()),
    "sprt": AttackFamily(
        lambda rows, cols: SequentialAttackFactory("sprt")),
    "temp-aware": AttackFamily(
        lambda rows, cols: TempAwareAttackFactory(), secret=coop_bits),
    "group": AttackFamily(GroupAttackFactory),
    "distiller": AttackFamily(DistillerAttackFactory),
}


@dataclass(frozen=True)
class Preset:
    """One named keygen configuration and its defaults.

    ``make`` is the keygen class with every option bound; it takes
    ``(rows, cols)`` first when ``sized``.  ``attack`` names the
    default :data:`ATTACKS` family (``None``: no attack applies).
    """

    name: str
    make: Callable[..., object]
    rows: int
    cols: int
    sigma_noise: float
    attack: Optional[str] = None
    sized: bool = False

    def keygen_factory(self, rows: Optional[int] = None,
                       cols: Optional[int] = None,
                       **overrides) -> Callable[[], object]:
        """Picklable zero-argument keygen factory; *overrides*
        replace bound keyword options (``threshold=...``)."""
        args = ((self.rows if rows is None else rows,
                 self.cols if cols is None else cols)
                if self.sized else ())
        return functools.partial(self.make, *args, **overrides)

    def attack_factory(self, rows: Optional[int] = None,
                       cols: Optional[int] = None) -> Callable:
        """The default family's attack factory."""
        if self.attack is None:
            raise ValueError(f"no attack campaign is defined for "
                             f"scheme preset {self.name!r}")
        return ATTACKS[self.attack].factory(
            self.rows if rows is None else rows,
            self.cols if cols is None else cols)

    def array_params(self, rows: Optional[int] = None,
                     cols: Optional[int] = None,
                     sigma_noise: Optional[float] = None
                     ) -> ROArrayParams:
        """Device model at the preset geometry, fields overridable."""
        return ROArrayParams(
            rows=self.rows if rows is None else rows,
            cols=self.cols if cols is None else cols,
            sigma_noise=(self.sigma_noise if sigma_noise is None
                         else sigma_noise))


def _preset(name: str, cls: type, geometry: tuple,
            attack: Optional[str] = None, sized: bool = False,
            **options) -> Preset:
    return Preset(name, functools.partial(cls, **options), *geometry,
                  attack=attack, sized=sized)


#: Geometry of presets with no tuned sigma: the device-model default.
_DEFAULT_SIGMA = ROArrayParams.sigma_noise
_TEMP_AWARE = dict(t_min=-10, t_max=80, threshold=150e3)

#: Every scheme preset, by name.  Tuned sigmas keep baseline failure
#: rates near (but mostly off) zero on the corpus/service arrays.
PRESETS: Dict[str, Preset] = {preset.name: preset for preset in (
    # §VI-A sequential pairing
    _preset("sequential", SequentialPairingKeyGen, (8, 16, 150e3),
            "paired", threshold=300e3),
    _preset("sequential[rm5]", SequentialPairingKeyGen,
            (8, 16, _DEFAULT_SIGMA), "paired", threshold=300e3,
            code_provider=_ReedMullerProvider(5)),
    # sigma 40e3 with tolerance 0.25 keeps the honest-device
    # false-reject rate near zero while the device-side pair check
    # still fires on manipulated helper data.
    _preset("sequential-hardened", HardenedSequentialKeyGen,
            (8, 16, 40e3), "paired", threshold=300e3,
            threshold_tolerance=0.25),
    # §VI-B temperature-aware cooperation
    _preset("temp-aware", TempAwareKeyGen, (8, 16, 90e3), "temp-aware",
            **_TEMP_AWARE),
    _preset("temp-aware-hardened", HardenedTempAwareKeyGen,
            (8, 16, 90e3), "temp-aware", **_TEMP_AWARE),
    # §VI-C group-based
    _preset("group-based", GroupBasedKeyGen, (4, 10, 64e3), "group",
            group_threshold=120e3),
    _preset("group-based[250k]", GroupBasedKeyGen, (4, 10, 64e3),
            "group", group_threshold=250e3),
    _preset("group-based-hardened", HardenedGroupBasedKeyGen,
            (4, 10, _DEFAULT_SIGMA), "group", sized=True,
            max_polynomial_span=20e6, group_threshold=120e3),
    # §VI-D distiller + pairing
    *(_preset(f"distiller[{mode}]", DistillerPairingKeyGen,
              (4, 10, sigma), "distiller", sized=True,
              pairing_mode=mode, k=5)
      for mode, sigma in (("masking", _DEFAULT_SIGMA),
                          ("neighbor-overlap", _DEFAULT_SIGMA),
                          ("neighbor-disjoint", 80e3))),
    # §VII-C fuzzy-extractor baseline: no manipulation channel
    _preset("fuzzy-extractor[4x10]", FuzzyExtractorKeyGen,
            (4, 10, 120e3), sized=True, out_bits=16),
    _preset("fuzzy-extractor[8x16]", FuzzyExtractorKeyGen,
            (8, 16, _DEFAULT_SIGMA), sized=True, out_bits=48),
)}


def preset(name: str) -> Preset:
    """The preset called *name*; ``ValueError`` for unknown names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"{name!r} is not a scheme preset (known: "
            f"{', '.join(PRESETS)})") from None
