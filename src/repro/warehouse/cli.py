"""``repro warehouse`` subcommand handlers.

Wires the warehouse subsystem into the top-level CLI::

    repro warehouse run [--quick] [--seed N] [--devices N]
                        [--cells PATTERN] [--workers N]
                        [--enrollment-registry DIR]
                        [checkpoint options] [supervision options]
    repro warehouse verify --store PATH [--matrix quick|full]
                           [--commit SHA] [--once]
    repro warehouse diff BASE CURRENT --store PATH
    repro warehouse trajectory [BENCH_*.json ...]

``run`` selects the matrix cells and hands them to the checkpointed
cell driver shared with ``scenario conformance``
(:func:`repro.warehouse.runner.run_cells`): records are appended as
cells finish, ``--resume`` skips recorded cells, ``--stop-after N``
exits 3, ``--check-reproducible`` replays each cell.  Checkpoint and
supervision options are the shared groups of :mod:`repro.cli_options`.

``verify`` exit codes are disjoint so CI can assert on them: 0 ok,
1 identity mismatch between same-key records, 2 missing store or
unusable invocation, 3 store missing cells of the requested matrix,
4 duplicate records where ``--once`` demanded single-shot cells.

Kept separate from :mod:`repro.cli` so the argument surface and the
handlers live next to the subsystem they drive; the top-level parser
only delegates.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.cli_options import (
    add_checkpoint_options,
    add_supervision_options,
    detect_commit,
    non_negative_int,
    positive_int,
    report_supervision,
    supervision_from_args,
)
from repro.warehouse.diff import diff_matrices
from repro.warehouse.matrix import (
    full_matrix,
    quick_matrix,
    select_cells,
)
from repro.warehouse.runner import (
    cell_line,
    matrix_config,
    run_cell,
    run_cells,
)
from repro.warehouse.store import WarehouseStore, config_hash
from repro.warehouse.summary import append_entry, build_entry
from repro.warehouse.trajectory import build_report

#: Default store location, relative to the invocation directory.
DEFAULT_STORE = "warehouse/results.jsonl"


def add_warehouse_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``warehouse`` subcommand tree on *sub*."""
    warehouse = sub.add_parser(
        "warehouse",
        help="attack x scheme x countermeasure results warehouse")
    wsub = warehouse.add_subparsers(dest="warehouse_command",
                                    required=True)

    run = wsub.add_parser(
        "run", help="execute the matrix and append records")
    run.add_argument("--quick", action="store_true",
                     help="reduced matrix (CI smoke profile)")
    run.add_argument("--devices", type=positive_int, default=None,
                     help="fleet size per runnable cell "
                          "(default: 2 quick / 4 full)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--cells", default=None, metavar="PATTERN",
                     help="fnmatch filter on cell ids, e.g. "
                          "'group-based/*'")
    run.add_argument("--workers", type=non_negative_int, default=1,
                     help="process-pool width for the attack "
                          "campaigns (0/None = all CPUs)")
    run.add_argument("--enrollment-registry", default=None,
                     metavar="DIR",
                     help="persist per-cell enrollments under DIR "
                          "and reuse them on later runs (identity "
                          "is bitwise-unchanged)")
    add_checkpoint_options(run, DEFAULT_STORE)
    add_supervision_options(run)

    verify = wsub.add_parser(
        "verify", help="assert same-key records agree bitwise")
    verify.add_argument("--store", default=DEFAULT_STORE)
    verify.add_argument("--matrix", choices=("quick", "full"),
                        default=None,
                        help="also require every cell of this "
                             "matrix to be recorded (exit 3 when "
                             "cells are missing)")
    verify.add_argument("--cells", default=None, metavar="PATTERN",
                        help="fnmatch filter on the --matrix cells")
    verify.add_argument("--commit", default=None,
                        help="commit key for --matrix/--once "
                             "(default: $GITHUB_SHA or git "
                             "rev-parse HEAD)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the run to check "
                             "(--matrix key)")
    verify.add_argument("--devices", type=positive_int, default=None,
                        help="fleet size of the run to check "
                             "(--matrix key; default 2 quick / "
                             "4 full)")
    verify.add_argument("--once", action="store_true",
                        help="fail (exit 4) when any --matrix cell "
                             "is recorded more than once — the "
                             "no-duplicates gate for resumed runs")

    diff = wsub.add_parser(
        "diff", help="compare two commits' matrices cell by cell")
    diff.add_argument("base", help="baseline commit (prefixes ok)")
    diff.add_argument("current", help="commit under test")
    diff.add_argument("--store", default=DEFAULT_STORE)
    diff.add_argument("--config", default=None,
                      help="restrict to one configuration hash")
    diff.add_argument("--threshold", type=float, default=0.20,
                      help="fractional timing movement to report "
                           "(default 0.20)")
    diff.add_argument("--fail-on-security-drift",
                      action="store_true",
                      help="exit non-zero when security outcomes "
                           "moved")

    trajectory = wsub.add_parser(
        "trajectory",
        help="render the longitudinal BENCH_*.json history")
    trajectory.add_argument("files", nargs="*",
                            help="summary files (default: "
                                 "./BENCH_*.json)")
    trajectory.add_argument("--threshold", type=float, default=0.20,
                            help="fractional perf drift to flag "
                                 "(default 0.20)")


def run_warehouse(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``warehouse`` invocation; exit code."""
    handler = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "diff": _cmd_diff,
        "trajectory": _cmd_trajectory,
    }[args.warehouse_command]
    return handler(args)


def _matrix_key(args: argparse.Namespace, quick: bool):
    """The selected cells, fleet size and config hash of a run."""
    cells = select_cells(quick_matrix() if quick else full_matrix(),
                         args.cells)
    devices = args.devices if args.devices is not None \
        else (2 if quick else 4)
    return cells, devices, config_hash(matrix_config(
        cells, "quick" if quick else "full", args.seed, devices))


def _cmd_run(args: argparse.Namespace) -> int:
    profile = "quick" if args.quick else "full"
    cells, devices, cfg = _matrix_key(args, args.quick)
    if not cells:
        print(f"warehouse run: no cells match {args.cells!r}")
        return 2
    commit = detect_commit(args.commit)
    store = WarehouseStore(args.store)
    print(f"warehouse run: profile={profile} seed={args.seed} "
          f"devices={devices} commit={commit[:12]} config={cfg} "
          f"({len(cells)} cells)")
    supervision = supervision_from_args(args)
    by_id = {cell.cell_id: cell for cell in cells}

    def run_one(cell_id: str):
        return run_cell(by_id[cell_id], devices, args.seed, commit,
                        cfg, profile, workers=args.workers,
                        supervision=supervision,
                        registry_dir=args.enrollment_registry)

    def progress(record, _reproducible: bool) -> None:
        line = cell_line(record)
        if line is not None:
            print(line)

    run = run_cells(list(by_id), run_one, commit, cfg, store=store,
                    resume=args.resume, stop_after=args.stop_after,
                    check_reproducible=args.check_reproducible,
                    on_record=progress, log=print)
    report_supervision(args, supervision)
    print(f"appended {len(run.executed)} records to {store.path} "
          f"(config {cfg})")
    if run.interrupted:
        return 3
    if args.check_reproducible:
        if run.drifted:
            print(f"warehouse run: NOT REPRODUCIBLE - "
                  f"{len(run.drifted)} cell(s) drifted between two "
                  f"same-seed runs: {', '.join(run.drifted)}")
            return 1
        print("warehouse run: reproducibility check ok "
              "(two same-seed runs, identical record identities)")
    by_status = {status: sum(1 for r in run.records
                             if r["status"] == status)
                 for status in ("ok", "n/a", "error")}
    print(f"matrix complete: {by_status['ok']} ok / "
          f"{by_status['n/a']} n/a / {by_status['error']} error")
    for record in run.records:
        if record["status"] == "error":
            print(f"  ERROR {record['cell']}: {record['reason']}")
    if args.summary:
        entry = build_entry(run.records, commit, profile)
        payload = append_entry(args.summary, entry)
        print(f"summary entry #{payload['history'][-1]['sequence']} "
              f"appended to {args.summary}")
    return 1 if by_status["error"] else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    store = WarehouseStore(args.store)
    if not store.path.exists():
        print(f"warehouse verify: FAIL (missing store) - no store "
              f"at {store.path}")
        return 2
    if args.once and args.matrix is None:
        print("warehouse verify: FAIL (usage) - --once needs "
              "--matrix to know which cells must be single-shot")
        return 2
    problems = store.verify_reproducible()
    if problems:
        for problem in problems:
            print(f"  {problem}")
        print(f"warehouse verify: FAIL (identity mismatch) - "
              f"{len(problems)} key(s) with non-reproducible "
              f"records")
        return 1
    if args.matrix is not None:
        cells, _, cfg = _matrix_key(args, args.matrix == "quick")
        commit = detect_commit(args.commit)
        counts = store.recorded_cells(commit, cfg)
        missing = [cell.cell_id for cell in cells
                   if cell.cell_id not in counts]
        if missing:
            print(f"warehouse verify: FAIL (store missing cells) - "
                  f"{len(missing)} of {len(cells)} {args.matrix} "
                  f"cells absent for commit {commit[:12]} config "
                  f"{cfg}: {', '.join(missing[:4])}"
                  + (" ..." if len(missing) > 4 else ""))
            return 3
        if args.once:
            duplicates = [cell.cell_id for cell in cells
                          if counts.get(cell.cell_id, 0) > 1]
            if duplicates:
                print(f"warehouse verify: FAIL (duplicate records) "
                      f"- {len(duplicates)} cell(s) recorded more "
                      f"than once for commit {commit[:12]} config "
                      f"{cfg}: {', '.join(duplicates[:4])}"
                      + (" ..." if len(duplicates) > 4 else ""))
                return 4
    print(f"warehouse verify: ok - every re-recorded key in "
          f"{store.path} is bitwise-reproducible"
          + (f", all {args.matrix} cells recorded"
             + (" exactly once" if args.once else "")
             if args.matrix is not None else ""))
    return 0


def _resolve_commit(store: WarehouseStore,
                    ref: str) -> Optional[str]:
    commits = store.commits()
    if ref in commits:
        return ref
    matches = [commit for commit in commits
               if commit.startswith(ref)]
    if len(matches) == 1:
        return matches[0]
    print(f"warehouse diff: commit {ref!r} "
          f"{'is ambiguous' if matches else 'not in the store'} "
          f"(stored: {', '.join(c[:12] for c in commits) or 'none'})")
    return None


def _cmd_diff(args: argparse.Namespace) -> int:
    store = WarehouseStore(args.store)
    if not store.path.exists():
        print(f"warehouse diff: no store at {store.path}")
        return 2
    base_commit = _resolve_commit(store, args.base)
    current_commit = _resolve_commit(store, args.current)
    if base_commit is None or current_commit is None:
        return 2
    base = store.matrix(base_commit, args.config)
    current = store.matrix(current_commit, args.config)
    result = diff_matrices(base, current,
                           timing_threshold=args.threshold)
    print(f"warehouse diff: {base_commit[:12]} -> "
          f"{current_commit[:12]} ({result.cells} cells)")
    if result.lines:
        for line in result.lines:
            print(line)
    else:
        print("  matrices identical")
    print(f"{result.security_changes} security change(s), "
          f"{result.perf_changes} perf change(s)")
    if args.fail_on_security_drift and result.changed:
        return 1
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    files: List[Path]
    if args.files:
        files = [Path(name) for name in args.files]
    else:
        files = sorted(Path.cwd().glob("BENCH_*.json"))
    missing = [path for path in files if not path.exists()]
    if missing:
        for path in missing:
            print(f"warehouse trajectory: no such file: {path}")
        return 2
    if not files:
        print("warehouse trajectory: no BENCH_*.json summaries "
              "found")
        return 1
    report = build_report(files, threshold=args.threshold)
    for line in report.lines:
        print(line)
    if report.drifts:
        print(f"\n{len(report.perf_drifts)} perf drift(s), "
              f"{len(report.security_drifts)} security drift(s) on "
              f"the newest entry:")
        for drift in report.drifts:
            print(f"  {drift.describe()}")
    else:
        print("\nno drift on the newest entry")
    return 0
