"""``repro scenario`` subcommand handlers.

Wires the environment & lifecycle scenario engine into the top-level
CLI::

    repro scenario run --scheme S --family F [--perturbation P] ...
    repro scenario corpus generate [--out DIR] [--seed N] [--quick]
    repro scenario conformance [--corpus DIR] [--quick]
                               [--report PATH] [checkpoint options]

``conformance`` runs the corpus on the checkpointed cell driver of
``warehouse run`` (:func:`repro.warehouse.runner.run_cells`, via
:func:`repro.scenario.conformance.run_conformance`) with the same
checkpoint options (:mod:`repro.cli_options`); without ``--store``
its records stay in memory.

Kept separate from :mod:`repro.cli` so the argument surface and the
handlers live next to the subsystem they drive; the top-level parser
only delegates (same split as :mod:`repro.warehouse.cli`).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli_options import (
    add_checkpoint_options,
    detect_commit,
    positive_int,
)
from repro.scenario.conformance import (
    DEFAULT_CORPUS_DIR,
    CorpusFormatError,
    build_corpus,
    expected_bands,
    record_seconds,
    run_conformance,
)
from repro.warehouse.matrix import (
    CORPUS_PRESETS,
    FAMILIES,
    PERTURBATIONS,
    corpus_cell,
    full_corpus,
    quick_corpus,
)
from repro.warehouse.runner import run_cell
from repro.warehouse.store import WarehouseStore
from repro.warehouse.summary import append_entry, build_entry


def add_scenario_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``scenario`` subcommand tree on *sub*."""
    scenario = sub.add_parser(
        "scenario",
        help="environment & lifecycle scenario engine")
    ssub = scenario.add_subparsers(dest="scenario_command",
                                   required=True)

    run = ssub.add_parser(
        "run", help="run one scenario cell and print its metrics")
    run.add_argument("--scheme", required=True, choices=list(CORPUS_PRESETS))
    run.add_argument("--family", required=True, choices=list(FAMILIES),
                     help="trajectory family")
    run.add_argument("--perturbation", default="base",
                     choices=sorted(PERTURBATIONS))
    run.add_argument("--kind", default="failure",
                     choices=("failure", "attack"),
                     help="failure-rate campaign or full attack")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--devices", type=positive_int, default=2)
    run.add_argument("--trials", type=positive_int, default=64,
                     help="reconstruction attempts per device "
                          "(failure cells)")

    corpus = ssub.add_parser(
        "corpus", help="conformance corpus management")
    csub = corpus.add_subparsers(dest="corpus_command",
                                 required=True)
    generate = csub.add_parser(
        "generate",
        help="run seeded baselines and write corpus files")
    generate.add_argument("--out", default=DEFAULT_CORPUS_DIR,
                          metavar="DIR",
                          help=f"output directory (default "
                               f"{DEFAULT_CORPUS_DIR})")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--quick", action="store_true",
                          help="only the quick (CI smoke) slice")

    conformance = ssub.add_parser(
        "conformance",
        help="re-run the committed corpus and assert in-band")
    conformance.add_argument("--corpus", default=DEFAULT_CORPUS_DIR,
                             metavar="DIR",
                             help=f"corpus directory (default "
                                  f"{DEFAULT_CORPUS_DIR})")
    conformance.add_argument("--quick", action="store_true",
                             help="only cells marked quick "
                                  "(CI smoke profile)")
    conformance.add_argument("--report", default=None, metavar="PATH",
                             help="write the full JSON report "
                                  "(CI artifact)")
    add_checkpoint_options(conformance, None)


def run_scenario(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``scenario`` invocation; exit code."""
    handler = {
        "run": _cmd_run,
        "corpus": _cmd_corpus,
        "conformance": _cmd_conformance,
    }[args.scenario_command]
    return handler(args)


def _cmd_run(args: argparse.Namespace) -> int:
    cell = corpus_cell(args.scheme, args.family, args.perturbation,
                       args.kind, devices=args.devices,
                       trials=args.trials)
    record = run_cell(cell, cell.devices, args.seed, "", "", "run")
    if record["status"] != "ok":
        # e.g. an attack cell on a scheme without an attack campaign
        print(f"scenario run: {cell.cell_id}: {record['reason']}")
        return 2
    print(f"scenario run: {cell.cell_id} seed={args.seed} "
          f"devices={cell.devices}")
    observed = record["security"]["observed"]
    for name, value in sorted(observed.items()):
        print(f"  {name} = {value:.6g}")
    bands = expected_bands(cell, observed)
    for name, (low, high) in sorted(bands.items()):
        print(f"  band {name} = [{low:.4g}, {high:.4g}]")
    print(f"  fingerprint {record['security']['outcome_fingerprint']} "
          f"({record_seconds(record):.2f}s)")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    cases = quick_corpus() if args.quick else full_corpus()
    print(f"corpus generate: {len(cases)} cells, seed={args.seed} "
          f"-> {args.out}")
    payloads = build_corpus(cases, args.seed, progress=print)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scheme, payload in sorted(payloads.items()):
        path = out / f"{scheme}.json"
        path.write_text(json.dumps(payload, indent=1,
                                   sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"  wrote {path} ({len(payload['cases'])} cells)")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    if args.resume and not args.store:
        print("scenario conformance: --resume needs --store (the "
              "checkpoint lives in the warehouse store)")
        return 2
    commit = detect_commit(args.commit)
    store = WarehouseStore(args.store) if args.store else None
    try:
        report = run_conformance(
            args.corpus, quick=args.quick,
            check_reproducible=args.check_reproducible,
            progress=print, commit=commit, store=store,
            resume=args.resume, stop_after=args.stop_after)
    except CorpusFormatError as error:
        print(f"scenario conformance: {error}")
        return 2
    run = report.run
    if store is not None and run.executed:
        print(f"appended {len(run.executed)} records to {store.path}")
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_payload(), indent=1)
                        + "\n", encoding="utf-8")
        print(f"report written to {path}")
    if run.interrupted:
        return 3
    if args.summary:
        entry = build_entry(run.records, commit,
                            "quick" if args.quick else "full")
        payload = append_entry(args.summary, entry)
        print(f"summary entry #{payload['history'][-1]['sequence']} "
              f"appended to {args.summary}")
    if not report.ok:
        print(f"scenario conformance: {len(report.failures)} "
              f"cell(s) out of band or not reproducible")
        return 1
    print("scenario conformance: ok - every cell in its pass-band"
          + (" and bitwise-reproducible"
             if args.check_reproducible else ""))
    return 0
