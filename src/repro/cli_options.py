"""Option groups shared by the ``repro`` subcommands, declared once.

* **supervision** (``fleet``, ``warehouse run``, ``service sweep``):
  ``--max-retries`` / ``--chunk-timeout`` / ``--failure-report``;
* **checkpoint** (``warehouse run``, ``scenario conformance``, the two
  front-ends of :func:`repro.warehouse.runner.run_cells`): ``--store``
  / ``--commit`` / ``--summary`` / ``--resume`` / ``--stop-after`` /
  ``--check-reproducible``.

Out-of-range values exit 2 with a usage message at parse time.
CLI-only: no library package imports this module.
"""

from __future__ import annotations

import argparse
import os
import subprocess
from typing import Optional


def _bounded(kind, ok, rule: str):
    """An argparse ``type=`` parsing *kind* and requiring ``ok``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value"
    return parse


positive_int = _bounded(int, lambda value: value >= 1, ">= 1")
non_negative_int = _bounded(int, lambda value: value >= 0, ">= 0")
positive_float = _bounded(float, lambda value: value > 0, "> 0")


def add_supervision_options(parser: argparse.ArgumentParser,
                            failure_report: bool = True) -> None:
    """Register the supervision group on *parser*."""
    parser.add_argument("--max-retries", type=non_negative_int,
                        metavar="N", help="run supervised: retry a "
                        "failed chunk up to N times (default 2)")
    parser.add_argument("--chunk-timeout", type=positive_float,
                        metavar="SECONDS", help="supervised watchdog "
                        "timeout per chunk (implies supervision)")
    if failure_report:
        parser.add_argument("--failure-report", metavar="PATH",
                            help="write the failure-taxonomy report "
                            "(JSON) here, empty when unsupervised")


def retry_policy(args: argparse.Namespace, **extra):
    """The parsed :class:`~repro.fleet.resilience.RetryPolicy`; an
    unset ``--max-retries`` keeps the policy default."""
    from repro.fleet.resilience import RetryPolicy

    if args.max_retries is not None:
        extra["max_retries"] = args.max_retries
    return RetryPolicy(chunk_timeout=args.chunk_timeout, **extra)


def supervision_from_args(args: argparse.Namespace):
    """A :class:`~repro.fleet.resilience.Supervisor` when a
    supervision option was set, else ``None`` (plain execution)."""
    if args.max_retries is None and args.chunk_timeout is None:
        return None
    from repro.fleet.resilience import Supervisor

    return Supervisor(retry_policy(args))


def report_supervision(args: argparse.Namespace, supervision) -> None:
    """Print the supervised failures and write ``--failure-report``
    (always, so CI artifact paths exist)."""
    from repro.fleet.resilience import Supervisor

    supervision = supervision or Supervisor()
    if supervision.failures:
        for line in supervision.summary_lines():
            print(f"  supervised {line}")
    if args.failure_report:
        path = supervision.write_report(args.failure_report)
        print(f"  failure report ({len(supervision.failures)} "
              f"failure(s)) written to {path}")


def add_checkpoint_options(parser: argparse.ArgumentParser,
                           store_default: Optional[str]) -> None:
    """Register the checkpoint group on *parser*."""
    parser.add_argument("--store", default=store_default,
                        metavar="PATH", help="JSONL store each record "
                        f"is appended to (default {store_default})")
    parser.add_argument("--commit", help="record key commit (default: "
                        "$GITHUB_SHA or git rev-parse HEAD)")
    parser.add_argument("--summary", metavar="PATH", help="append the "
                        "run's entry to a BENCH_*.json trajectory")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already recorded in --store "
                        "for this (commit, config, schema)")
    parser.add_argument("--stop-after", type=non_negative_int,
                        metavar="N", help="checkpoint and stop after N "
                        "executed cells (exit 3; rerun with --resume)")
    parser.add_argument("--check-reproducible", action="store_true",
                        help="re-run every cell and fail unless record "
                        "identities match bitwise")


def detect_commit(explicit: Optional[str] = None) -> str:
    """*explicit* (``--commit``), else ``$GITHUB_SHA``, else ``git
    rev-parse HEAD``, else ``"unknown"``."""
    if explicit is not None:
        return explicit
    commit = os.environ.get("GITHUB_SHA", "").strip()
    if commit:
        return commit
    try:
        probe = subprocess.run(["git", "rev-parse", "HEAD"],
                               capture_output=True, text=True,
                               check=True, timeout=10)
        return probe.stdout.strip() or "unknown"
    except Exception:
        return "unknown"
