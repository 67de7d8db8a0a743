"""Command-line interface: run the paper's experiments from a shell.

Subcommands
-----------

``table1``
    Print the regenerated paper Table I (order codings for |G| = 4).
``classify``
    Classify neighbour pairs of a simulated device over a temperature
    range (paper Fig. 3).
``attack``
    Enroll a device with one of the four attacked constructions, run
    the corresponding §VI helper-data manipulation attack, and report
    recovery status plus the oracle-query bill.
``analyze``
    Population entropy/uniqueness/reliability statistics for a device
    family.
``fleet``
    Manufacture a device population and run a chunked Monte-Carlo
    failure-rate sweep, optionally split across a process pool
    (``--workers N``); results are bitwise-identical for every worker
    count.  With ``--attack CONSTRUCTION`` the sweep becomes a
    fleet-wide helper-data attack campaign executed by the lock-step
    engine, one fused ECC kernel call per code per round.
``warehouse``
    The attack × scheme × countermeasure results warehouse:
    ``run`` executes the (quick or full) matrix at fleet scale and
    appends one record per cell to an append-only JSONL store,
    ``verify`` asserts seed-reproducibility of re-recorded keys,
    ``diff`` compares two stored commits cell by cell, and
    ``trajectory`` renders the longitudinal ``BENCH_*.json`` history
    (see ``docs/warehouse.md``).
``scenario``
    The environment & lifecycle scenario engine: ``run`` executes one
    scenario cell (scheme × trajectory family) ad hoc, ``corpus
    generate`` re-derives the seeded conformance corpus under
    ``tests/conformance/corpus/``, and ``conformance`` re-runs the
    committed corpus and asserts every cell lands in its pass-band
    (see ``docs/scenarios.md``).

Examples::

    python -m repro.cli table1
    python -m repro.cli attack sequential --seed 7
    python -m repro.cli attack group-based --rows 4 --cols 10
    python -m repro.cli classify --threshold 150e3
    python -m repro.cli analyze --devices 8
    python -m repro.cli fleet --devices 32 --trials 500 --workers 4
    python -m repro.cli fleet --devices 16 --attack sequential
    python -m repro.cli warehouse run --quick --summary \
        BENCH_warehouse.json
    python -m repro.cli warehouse diff HEAD~1 HEAD
    python -m repro.cli scenario run --scheme sequential --family ramp
    python -m repro.cli scenario conformance --quick \
        --check-reproducible
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro import schemes
from repro.analysis import (
    inter_device_distances,
    pairwise_comparisons,
    permutation_entropy,
)
from repro.cli_options import (
    add_supervision_options,
    non_negative_int,
    positive_int,
    report_supervision,
    supervision_from_args,
)
from repro.core import BatchOracle
from repro.grouping import table1_rows
from repro.fleet import PopulationSpec
from repro.pairing import PairClass, TempAwareCooperative
from repro.puf import ROArray, ROArrayParams
from repro._rng import spawn

#: Constructions of ``attack`` and ``fleet --attack``: scheme presets.
CONSTRUCTIONS = {
    "sequential": "sequential",
    "temp-aware": "temp-aware",
    "group-based": "group-based",
    "masking": "distiller[masking]",
    "neighbor-overlap": "distiller[neighbor-overlap]",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Helper-data manipulation attacks on RO PUFs "
                    "(DATE 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the regenerated Table I")

    classify = sub.add_parser(
        "classify", help="Fig. 3 pair classification of one device")
    classify.add_argument("--rows", type=int, default=8)
    classify.add_argument("--cols", type=int, default=16)
    classify.add_argument("--threshold", type=float, default=150e3)
    classify.add_argument("--t-min", type=float, default=-10.0)
    classify.add_argument("--t-max", type=float, default=80.0)
    classify.add_argument("--seed", type=int, default=0)

    attack = sub.add_parser(
        "attack", help="run a §VI attack against a fresh device")
    attack.add_argument("construction", choices=CONSTRUCTIONS)
    attack.add_argument("--rows", type=int, default=None)
    attack.add_argument("--cols", type=int, default=None)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--method", choices=("paired", "sprt"),
                        default="paired",
                        help="distinguisher for the sequential attack")

    analyze = sub.add_parser(
        "analyze", help="population entropy and uniqueness statistics")
    analyze.add_argument("--rows", type=int, default=4)
    analyze.add_argument("--cols", type=int, default=10)
    analyze.add_argument("--devices", type=positive_int, default=8)
    analyze.add_argument("--seed", type=int, default=0)

    fleet = sub.add_parser(
        "fleet", help="population Monte-Carlo failure-rate sweep")
    fleet.add_argument("--rows", type=int, default=8)
    fleet.add_argument("--cols", type=int, default=16)
    fleet.add_argument("--devices", type=positive_int, default=16)
    fleet.add_argument("--trials", type=positive_int, default=200)
    fleet.add_argument("--threshold", type=float, default=300e3)
    fleet.add_argument("--chunk", type=positive_int, default=512,
                       help="trial block size (memory bound)")
    fleet.add_argument("--workers", type=non_negative_int, default=1,
                       help="process-pool width; 0 = one per CPU "
                            "(results are identical for every value)")
    fleet.add_argument("--temperature", type=float, default=None,
                       help="operating temperature of the sweep (°C)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--attack", choices=("sequential", "group-based",
                                            "masking",
                                            "neighbor-overlap"),
                       default=None,
                       help="run a fleet-wide helper-data attack "
                            "campaign instead of the failure-rate "
                            "sweep")
    add_supervision_options(fleet)
    fleet.add_argument("--check-reproducible", action="store_true",
                       help="rerun the sweep unsupervised on a "
                            "fresh same-seed fleet and fail unless "
                            "the results match bitwise")

    from repro.warehouse.cli import add_warehouse_parser
    add_warehouse_parser(sub)

    from repro.scenario.cli import add_scenario_parser
    add_scenario_parser(sub)

    from repro.service.cli import add_service_parser
    add_service_parser(sub)
    return parser


def _cmd_table1() -> int:
    print(f"{'order':<6} {'compact':<8} {'Kendall':<8}")
    for name, compact, kendall in table1_rows():
        print(f"{name:<6} {compact:<8} {kendall:<8}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    params = ROArrayParams(rows=args.rows, cols=args.cols,
                           temp_slope_sigma=8e3)
    array = ROArray(params, rng=args.seed)
    scheme = TempAwareCooperative(args.t_min, args.t_max,
                                  args.threshold)
    profiles = scheme.profile_pairs(array, rng=args.seed)
    counts = {kind: 0 for kind in PairClass}
    for profile in profiles:
        counts[profile.kind] += 1
    print(f"device {args.rows}x{args.cols} seed {args.seed}, "
          f"T in [{args.t_min}, {args.t_max}] °C, "
          f"threshold {args.threshold / 1e3:.0f} kHz:")
    for kind in PairClass:
        print(f"  {kind.value:<12} {counts[kind]}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    construction = args.construction
    preset = schemes.preset(CONSTRUCTIONS[construction])
    rows = args.rows if args.rows is not None else preset.rows
    cols = args.cols if args.cols is not None else preset.cols
    # --method picks the sequential distinguisher: paired or sprt
    family = schemes.ATTACKS[args.method if preset.attack == "paired"
                             else preset.attack]

    if construction == "temp-aware":
        params = ROArrayParams(rows=rows, cols=cols,
                               temp_slope_sigma=8e3)
    else:
        params = ROArrayParams(rows=rows, cols=cols)
    array = ROArray(params, rng=1000 + args.seed)
    keygen = preset.keygen_factory(rows, cols)()
    # per-query transient noise (the §VI-B temperature sensor) is
    # seeded too, so the report is a function of --seed alone
    keygen.reseed_transient_streams(spawn(args.seed, 1)[0])
    helper, key = keygen.enroll(array, rng=args.seed)
    oracle = BatchOracle(array, keygen)
    result = family.factory(rows, cols)(oracle, keygen, helper).run()
    recovered = result.recovered(key, helper)
    secret = key if family.secret is None else family.secret(key, helper)

    print(f"construction : {construction} ({rows}x{cols}, "
          f"seed {args.seed})")
    print(f"secret bits  : {secret.size}")
    print(f"recovered    : {'yes' if recovered else 'NO'}")
    print(f"oracle calls : {result.queries}")
    return 0 if recovered else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    params = ROArrayParams(rows=args.rows, cols=args.cols)
    keygen = schemes.preset("distiller[neighbor-disjoint]"
                            ).keygen_factory(args.rows, args.cols)()
    keys = []
    for child in spawn(args.seed, args.devices):
        device = ROArray(params, rng=child)
        _, key = keygen.enroll(device, rng=child)
        keys.append(key)
    keys = np.stack(keys)
    n = params.n
    print(f"{args.devices} devices, {args.rows}x{args.cols} arrays "
          f"(N = {n}):")
    print(f"  raw pairwise comparisons : {pairwise_comparisons(n)}")
    print(f"  entropy budget log2(N!)  : {permutation_entropy(n):.1f} "
          f"bits")
    print(f"  key bits per device      : {keys.shape[1]}")
    inter = inter_device_distances(keys)
    print(f"  inter-device distance    : {inter.mean():.3f} "
          f"(ideal 0.5)")
    return 0


def _fleet_enroll(args: argparse.Namespace, name: str):
    """A fresh fleet and its enrollment under the preset *name*.

    Called once per run so ``--check-reproducible`` rebuilds an
    identical same-seed population for the unsupervised reference run
    (sweep substreams are consumed per call, so re-sweeping the same
    ``Fleet`` object would draw different noise).  ``--threshold``
    sets the sequential keygen's threshold.
    """
    overrides = ({"threshold": args.threshold}
                 if name == "sequential" else {})
    factory = schemes.preset(name).keygen_factory(args.rows, args.cols,
                                                   **overrides)
    population = PopulationSpec(ROArrayParams(rows=args.rows,
                                              cols=args.cols),
                                args.devices, args.seed)
    return population.enroll(factory, workers=args.workers)


def _drifted(args: argparse.Namespace, rerun, result, what: str
             ) -> bool:
    """``--check-reproducible``: whether ``rerun(None)`` (the
    unsupervised reference) differs bitwise from *result*."""
    if not args.check_reproducible:
        return False
    if not np.array_equal(result, rerun(None)):
        print(f"  reproducibility     : FAIL - {what} drifted from "
              f"the fault-free reference run")
        return True
    print("  reproducibility     : ok (bitwise-identical to "
          "the fault-free reference run)")
    return False


def _cmd_fleet_attack(args: argparse.Namespace) -> int:
    """Fleet-wide attack campaign branch of the ``fleet`` subcommand."""
    rows, cols = args.rows, args.cols
    name = CONSTRUCTIONS[args.attack]
    attack_factory = schemes.preset(name).attack_factory(rows, cols)

    def campaign(supervision):
        fleet, enrollment = _fleet_enroll(args, name)
        return fleet.attack_success(
            enrollment, attack_factory, workers=args.workers,
            supervision=supervision)

    supervision = supervision_from_args(args)
    start = time.perf_counter()
    recovered, queries = campaign(supervision)
    elapsed = time.perf_counter() - start
    print(f"fleet attack campaign: {args.attack} x {args.devices} "
          f"devices ({rows}x{cols}, seed {args.seed})")
    print(f"  engine              : lock-step campaign (fused "
          f"kernels) (workers={args.workers})")
    print(f"  keys recovered      : {int(recovered.sum())}/"
          f"{args.devices}")
    print(f"  oracle queries      : {int(queries.sum())} total, "
          f"{queries.mean():.1f}/device")
    throughput = args.devices / elapsed if elapsed else 0.0
    print(f"  campaign time       : {elapsed:.2f} s "
          f"({throughput:.2f} devices/s)")
    report_supervision(args, supervision)
    if _drifted(args, campaign, (recovered, queries),
                "campaign results"):
        return 1
    return 0 if recovered.all() else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.keygen.base import OperatingPoint

    if args.attack is not None:
        return _cmd_fleet_attack(args)
    op = (OperatingPoint(temperature=args.temperature)
          if args.temperature is not None else None)

    def sweep(supervision):
        fleet, enrollment = _fleet_enroll(args, "sequential")
        return enrollment, fleet.failure_rates(
            enrollment, trials=args.trials, op=op, chunk=args.chunk,
            workers=args.workers, supervision=supervision)

    supervision = supervision_from_args(args)
    start = time.perf_counter()
    enrollment, rates = sweep(supervision)
    elapsed = time.perf_counter() - start
    throughput = args.devices * args.trials / elapsed if elapsed else 0
    print(f"fleet {args.devices} devices "
          f"({args.rows}x{args.cols}, seed {args.seed}), "
          f"{args.trials} trials/device, workers={args.workers}")
    print(f"  key bits (min/max)  : {enrollment.key_bits.min()}/"
          f"{enrollment.key_bits.max()}")
    print(f"  key uniqueness      : {enrollment.uniqueness():.3f} "
          f"(ideal 0.5)")
    print(f"  P(fail) mean/max    : {rates.mean():.4f} / "
          f"{rates.max():.4f}")
    print(f"  sweep time          : {elapsed:.2f} s "
          f"({throughput:,.0f} reconstructions/s)")
    report_supervision(args, supervision)
    return int(_drifted(args, lambda supervision: sweep(supervision)[1],
                        rates, "failure rates"))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "warehouse":
        from repro.warehouse.cli import run_warehouse
        return run_warehouse(args)
    if args.command == "scenario":
        from repro.scenario.cli import run_scenario
        return run_scenario(args)
    if args.command == "service":
        from repro.service.cli import run_service
        return run_service(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
