"""``repro service`` subcommand handlers.

Wires the distributed campaign service into the top-level CLI::

    repro service enroll --scheme S --registry DIR [--devices N]
                         [--seed N] [--rows R --cols C]
                         [--sigma-noise HZ] [--workers W]
    repro service sweep (--registry DIR | --scheme S ...)
                        [--kind failure|attack|attack-results]
                        [--trials N] [--shards K] [--workers W]
                        [--transport pipe|tcp] [--stream]
                        [--check-single-host] [--max-retries N]
                        [--chunk-timeout S] [--allow-partial]

``enroll`` persists one population's enrollment into a registry
directory; ``sweep --registry`` then runs any number of sharded
sweeps against it without ever re-enrolling (the manifest supplies
scheme, geometry, seed and device count).  ``--stream`` prints one
NDJSON line per completed shard, in completion order;
``--check-single-host`` additionally runs the equivalent single-host
``Fleet`` sweep and fails unless the merged stream matches bitwise.

Kept separate from :mod:`repro.cli` so the argument surface and the
handlers live next to the subsystem they drive (same split as
:mod:`repro.warehouse.cli` and :mod:`repro.scenario.cli`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.fleet import (
    DistillerAttackFactory,
    GroupAttackFactory,
    SequentialAttackFactory,
    TempAwareAttackFactory,
)
from repro.fleet.pool import WorkerHandshakeError
from repro.fleet.resilience import PoisonedSweepError, RetryPolicy
from repro.keygen import (
    DistillerPairingKeyGen,
    FuzzyExtractorKeyGen,
    GroupBasedKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import ROArrayParams
from repro.service.registry import (
    EnrollmentRegistry,
    RegistryError,
    enroll_population,
)
from repro.service.shard import (
    KIND_ATTACK,
    KIND_ATTACK_RESULTS,
    KIND_FAILURE,
)
from repro.service.stream import PopulationSpec, submit_sweep

#: Per-scheme service defaults: (rows, cols, sigma_noise).  Geometry
#: mirrors the conformance corpus so service populations exercise the
#: same regimes the pass-bands were tuned on.
SCHEME_DEFAULTS: Dict[str, Tuple[int, int, float]] = {
    "sequential": (8, 16, 150e3),
    "temp-aware": (8, 16, 90e3),
    "group-based": (4, 10, 64e3),
    "distiller": (4, 10, 80e3),
    "fuzzy": (4, 10, 120e3),
}

SCHEMES = tuple(SCHEME_DEFAULTS)

_KIND_BY_LABEL = {
    "failure": KIND_FAILURE,
    "attack": KIND_ATTACK,
    "attack-results": KIND_ATTACK_RESULTS,
}


def scheme_keygen_factory(scheme: str, rows: int,
                          cols: int) -> Callable[[], object]:
    """Picklable keygen factory for one service scheme."""
    if scheme == "sequential":
        return functools.partial(SequentialPairingKeyGen,
                                 threshold=300e3)
    if scheme == "temp-aware":
        return functools.partial(TempAwareKeyGen, t_min=-10, t_max=80,
                                 threshold=150e3)
    if scheme == "group-based":
        return functools.partial(GroupBasedKeyGen,
                                 group_threshold=120e3)
    if scheme == "distiller":
        return functools.partial(DistillerPairingKeyGen, rows, cols,
                                 pairing_mode="neighbor-disjoint",
                                 k=5)
    if scheme == "fuzzy":
        return functools.partial(FuzzyExtractorKeyGen, rows, cols,
                                 out_bits=16)
    raise ValueError(f"unknown service scheme {scheme!r}")


def scheme_attack_factory(scheme: str, rows: int, cols: int
                          ) -> Callable:
    """Picklable attack factory for one service scheme."""
    if scheme == "sequential":
        return SequentialAttackFactory("paired")
    if scheme == "temp-aware":
        return TempAwareAttackFactory()
    if scheme == "group-based":
        return GroupAttackFactory(rows, cols)
    if scheme == "distiller":
        return DistillerAttackFactory(rows, cols)
    raise ValueError(
        f"no attack campaign is defined for scheme {scheme!r}")


def add_service_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``service`` subcommand tree on *sub*."""
    service = sub.add_parser(
        "service",
        help="distributed campaign service (sharded sweeps + "
             "enrollment registry)")
    ssub = service.add_subparsers(dest="service_command",
                                  required=True)

    def _population_args(parser, require_scheme: bool) -> None:
        parser.add_argument("--scheme", required=require_scheme,
                            choices=SCHEMES, default=None)
        parser.add_argument("--devices", type=int, default=None,
                            help="population size (default 4)")
        parser.add_argument("--seed", type=int, default=None,
                            help="population seed (default 0)")
        parser.add_argument("--rows", type=int, default=None,
                            help="array rows (scheme default)")
        parser.add_argument("--cols", type=int, default=None,
                            help="array columns (scheme default)")
        parser.add_argument("--sigma-noise", type=float, default=None,
                            metavar="HZ",
                            help="measurement noise sigma "
                                 "(scheme default)")

    enroll = ssub.add_parser(
        "enroll",
        help="enroll a population once into a persistent registry")
    _population_args(enroll, require_scheme=True)
    enroll.add_argument("--registry", required=True, metavar="DIR",
                        help="registry directory to create")
    enroll.add_argument("--workers", type=int, default=1,
                        help="enrollment worker processes")

    sweep = ssub.add_parser(
        "sweep",
        help="run one sharded streaming sweep")
    _population_args(sweep, require_scheme=False)
    sweep.add_argument("--registry", default=None, metavar="DIR",
                       help="reuse this enrollment registry (skips "
                            "enrollment; supplies scheme, geometry, "
                            "seed and device count)")
    sweep.add_argument("--kind", default="failure",
                       choices=sorted(_KIND_BY_LABEL),
                       help="sweep kind")
    sweep.add_argument("--trials", type=int, default=256,
                       help="reconstruction attempts per device "
                            "(failure sweeps)")
    sweep.add_argument("--shards", type=int, default=2,
                       help="shard count")
    sweep.add_argument("--workers", type=int, default=None,
                       help="service worker processes (default: "
                            "CPU count, capped at the shard count)")
    sweep.add_argument("--transport", default="pipe",
                       choices=("pipe", "tcp"),
                       help="worker transport")
    sweep.add_argument("--stream", action="store_true",
                       help="print one NDJSON line per completed "
                            "shard (completion order)")
    sweep.add_argument("--check-single-host", action="store_true",
                       help="also run the single-host Fleet sweep "
                            "and fail unless results match bitwise")
    sweep.add_argument("--max-retries", type=int, default=2,
                       help="per-shard retry budget")
    sweep.add_argument("--chunk-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-shard watchdog timeout")
    sweep.add_argument("--allow-partial", action="store_true",
                       help="zero-fill shards that exhaust retries "
                            "instead of failing the sweep")


def run_service(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``service`` invocation; exit code."""
    handler = {
        "enroll": _cmd_enroll,
        "sweep": _cmd_sweep,
    }[args.service_command]
    try:
        return handler(args)
    except (RegistryError, WorkerHandshakeError, ValueError) as error:
        print(f"service {args.service_command}: {error}")
        return 2


def _resolve_population(args: argparse.Namespace, scheme: str
                        ) -> PopulationSpec:
    """Population spec from CLI arguments and scheme defaults."""
    rows, cols, sigma = SCHEME_DEFAULTS[scheme]
    rows = args.rows if args.rows is not None else rows
    cols = args.cols if args.cols is not None else cols
    sigma = (args.sigma_noise if args.sigma_noise is not None
             else sigma)
    params = ROArrayParams(rows=rows, cols=cols, sigma_noise=sigma)
    devices = args.devices if args.devices is not None else 4
    seed = args.seed if args.seed is not None else 0
    return PopulationSpec(params=params, devices=devices, seed=seed)


def _cmd_enroll(args: argparse.Namespace) -> int:
    population = _resolve_population(args, args.scheme)
    factory = scheme_keygen_factory(
        args.scheme, population.params.rows, population.params.cols)
    print(f"service enroll: scheme={args.scheme} "
          f"devices={population.devices} seed={population.seed} "
          f"geometry={population.params.rows}x"
          f"{population.params.cols} -> {args.registry}")
    registry = enroll_population(args.registry, population, factory,
                                 args.scheme, workers=args.workers)
    print(f"  enrolled {registry.enrolled} device(s); manifest + "
          f"helper/key stores written")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    registry: Optional[EnrollmentRegistry] = None
    if args.registry is not None:
        registry = EnrollmentRegistry.open(args.registry)
        scheme = registry.scheme
        for name, value in (("scheme", args.scheme),
                            ("rows", args.rows), ("cols", args.cols),
                            ("sigma-noise", args.sigma_noise),
                            ("devices", args.devices),
                            ("seed", args.seed)):
            if value is not None:
                print(f"service sweep: --{name} conflicts with "
                      f"--registry (the manifest supplies it)")
                return 2
        population = PopulationSpec(params=registry.params,
                                    devices=registry.devices,
                                    seed=registry.population_seed)
    else:
        if args.scheme is None:
            print("service sweep: need --scheme (or --registry)")
            return 2
        scheme = args.scheme
        population = _resolve_population(args, scheme)

    rows, cols = population.params.rows, population.params.cols
    factory = scheme_keygen_factory(scheme, rows, cols)
    kind = _KIND_BY_LABEL[args.kind]
    attack_factory = None
    if kind != KIND_FAILURE:
        attack_factory = scheme_attack_factory(scheme, rows, cols)
    policy = RetryPolicy(max_retries=args.max_retries,
                         chunk_timeout=args.chunk_timeout,
                         allow_partial=args.allow_partial)

    print(f"service sweep: kind={args.kind} scheme={scheme} "
          f"devices={population.devices} seed={population.seed} "
          f"shards={args.shards} transport={args.transport}")
    handle = submit_sweep(
        population, factory, kind, trials=args.trials,
        attack_factory=attack_factory, shards=args.shards,
        workers=args.workers, transport=args.transport,
        policy=policy, registry=registry)
    print(f"  enrollment source: {handle.enrollment_source}")

    try:
        if args.stream:
            for result in handle:
                sys.stdout.write(json.dumps(result.to_json(),
                                            sort_keys=True) + "\n")
                sys.stdout.flush()
        merged = handle.collect()
    except PoisonedSweepError as error:
        print(f"service sweep: poisoned - {error}")
        return 1

    report = handle.report
    if report is not None:
        print(f"  resilience: {report.summary()}")
    _print_merged(kind, merged)

    if args.check_single_host:
        fleet, enroll_rng = population.build()
        enrollment = fleet.enroll(factory, seed=enroll_rng)
        if kind == KIND_FAILURE:
            expect = fleet.failure_rates(enrollment, args.trials)
            matches = np.array_equal(merged, expect)
        elif kind == KIND_ATTACK:
            expect = fleet.attack_success(enrollment, attack_factory)
            matches = (np.array_equal(merged[0], expect[0])
                       and np.array_equal(merged[1], expect[1]))
        else:
            expect = fleet.attack_results(enrollment, attack_factory)
            matches = len(merged) == len(expect) and all(
                type(a) is type(b) for a, b in zip(merged, expect))
        if not matches:
            print("  single-host check: MISMATCH")
            return 1
        print("  single-host check: bitwise-identical")
    return 0


def _print_merged(kind: str, merged) -> None:
    """Human-readable summary of the merged sweep result."""
    if kind == KIND_FAILURE:
        rates = np.asarray(merged)
        print(f"  failure rates: mean={rates.mean():.6g} "
              f"max={rates.max():.6g} over {rates.size} device(s)")
    elif kind == KIND_ATTACK:
        recovered, queries = merged
        print(f"  attack: {int(recovered.sum())}/{recovered.size} "
              f"keys recovered, {int(queries.sum())} oracle queries")
    else:
        print(f"  attack results: {len(merged)} device record(s)")
