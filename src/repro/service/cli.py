"""``repro service`` subcommand handlers.

Wires the distributed campaign service into the top-level CLI::

    repro service enroll --scheme S --registry DIR [--devices N]
                         [--seed N] [--rows R --cols C]
                         [--sigma-noise HZ] [--workers W]
    repro service sweep (--registry DIR | --scheme S ...)
                        [--kind failure|attack]
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
``Fleet`` sweep and fails unless the merged stream matches bitwise
(every result field, arrays by dtype, shape and bytes).

Kept separate from :mod:`repro.cli` so the argument surface and the
handlers live next to the subsystem they drive (same split as
:mod:`repro.warehouse.cli` and :mod:`repro.scenario.cli`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

import numpy as np

from repro import schemes
from repro.cli_options import (
    add_supervision_options,
    non_negative_int,
    positive_int,
    retry_policy,
)
from repro.fleet.fleet import PopulationSpec, recovery_summary
from repro.fleet.pool import WorkerHandshakeError
from repro.fleet.resilience import PoisonedSweepError
from repro.service.registry import (
    EnrollmentRegistry,
    RegistryError,
    enroll_population,
)
from repro.service.shard import KIND_ATTACK, KIND_FAILURE
from repro.service.stream import submit_sweep

#: ``--scheme`` label -> :mod:`repro.schemes` preset.  Geometry and
#: sigma mirror the conformance corpus so service populations
#: exercise the regimes the pass-bands were tuned on.
SCHEMES = {
    "sequential": "sequential",
    "temp-aware": "temp-aware",
    "group-based": "group-based",
    "distiller": "distiller[neighbor-disjoint]",
    "fuzzy": "fuzzy-extractor[4x10]",
}

_KIND_BY_LABEL = {
    "failure": KIND_FAILURE,
    "attack": KIND_ATTACK,
}


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
        parser.add_argument("--devices", type=positive_int,
                            default=None,
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
    enroll.add_argument("--workers", type=non_negative_int, default=1,
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
    sweep.add_argument("--trials", type=positive_int, default=256,
                       help="reconstruction attempts per device "
                            "(failure sweeps)")
    sweep.add_argument("--shards", type=positive_int, default=2,
                       help="shard count")
    sweep.add_argument("--workers", type=non_negative_int,
                       default=None,
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
    add_supervision_options(sweep, failure_report=False)
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


def _preset(label: str) -> schemes.Preset:
    """The preset of a ``--scheme`` choice or a registry label."""
    return schemes.preset(SCHEMES.get(label, label))


def _resolve_population(args: argparse.Namespace, scheme: str
                        ) -> PopulationSpec:
    """Population spec from CLI arguments and scheme defaults."""
    params = _preset(scheme).array_params(args.rows, args.cols,
                                          args.sigma_noise)
    devices = args.devices if args.devices is not None else 4
    seed = args.seed if args.seed is not None else 0
    return PopulationSpec(params=params, devices=devices, seed=seed)


def _cmd_enroll(args: argparse.Namespace) -> int:
    population = _resolve_population(args, args.scheme)
    factory = _preset(args.scheme).keygen_factory(
        population.params.rows, population.params.cols)
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
    preset = _preset(scheme)
    factory = preset.keygen_factory(rows, cols)
    kind = _KIND_BY_LABEL[args.kind]
    attack_factory = None
    if kind != KIND_FAILURE:
        if preset.attack is None:
            raise ValueError(f"no attack campaign is defined for "
                             f"scheme {scheme!r}")
        attack_factory = preset.attack_factory(rows, cols)
    policy = retry_policy(args, allow_partial=args.allow_partial)

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

    print(f"  resilience: {handle.report.summary()}")
    if kind == KIND_FAILURE:
        print(f"  failure rates: mean={merged.mean():.6g} "
              f"max={merged.max():.6g} over {merged.size} device(s)")
    else:
        merged = _with_summary(merged, handle.enrollment)
        results, (recovered, queries) = merged
        print(f"  attack: {int(recovered.sum())}/{recovered.size} "
              f"keys recovered, {int(queries.sum())} oracle queries, "
              f"{len(results)} device record(s)")

    if args.check_single_host:
        fleet, enrollment = population.enroll(factory)
        if kind == KIND_FAILURE:
            expect = fleet.failure_rates(enrollment, args.trials)
        else:
            expect = _with_summary(
                fleet.attack_results(enrollment, attack_factory),
                enrollment)
        if not _identical(merged, expect):
            print("  single-host check: MISMATCH")
            return 1
        print("  single-host check: bitwise-identical")
    return 0


def _with_summary(results: list, enrollment) -> tuple:
    """Attack results with their ``(recovered, queries)`` summary."""
    return results, recovery_summary(results, enrollment.keys,
                                     enrollment.helpers)


def _identical(a: object, b: object) -> bool:
    """Bitwise equality of sweep outputs, recursively.

    Types must match; arrays compare by dtype, shape and bytes;
    dataclasses (attack results, comparer outcomes) field by field;
    sequences and dicts element by element; anything else by ``==``.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return all(_identical(getattr(a, field.name),
                              getattr(b, field.name))
                   for field in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _identical(a[key], b[key]) for key in a)
    return bool(a == b)
