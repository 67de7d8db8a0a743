"""Per-PR ``BENCH_*.json`` summaries: the longitudinal perf record.

The warehouse store is the full-fidelity archive; the repo-root
``BENCH_<label>.json`` files are its compressed, *committed* shadow —
one history entry per PR/CI run, appended by ``repro warehouse run
--summary`` and consumed by ``tools/bench_compare.py --trajectory``.
Because the file lives in the repository, the trajectory survives CI
artifact expiry and is reviewable in every diff.

File layout::

    {
      "schema_version": 1,
      "label": "warehouse",
      "history": [
        {
          "sequence": 1,
          "commit": "...",
          "date": "2026-08-07",
          "config_hash": "...",
          "profile": "quick",
          "benchmarks": {"<cell>": {"mean": <attack s>,
                                     "kernel_seconds": ...,
                                     "kernel_calls": ...}},
          "security": {"<cell>": {"recovery_rate": ...,
                                   "queries_mean": ...,
                                   "outcome_fingerprint": "..."}}
        }, ...
      ]
    }

``benchmarks`` deliberately mirrors the shape pairwise
``bench_compare`` reads (name → mean seconds), so perf tooling treats
a warehouse cell like any other benchmark.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Version of the summary-file layout.
SUMMARY_SCHEMA_VERSION = 1


class SummaryFormatError(ValueError):
    """A ``BENCH_*.json`` file violates the summary layout."""


def build_entry(records: Sequence[Dict[str, object]], commit: str,
                profile: str,
                sequence: Optional[int] = None) -> Dict[str, object]:
    """Condense one run's records into a history entry.

    Every executed record contributes (``perf`` is set): ``ok``
    attack-matrix cells — ``n/a`` and ``error`` records carry no
    ``perf`` — and every conformance cell, out-of-band ones included,
    since an envelope miss is the signal the trajectory should carry.
    *sequence* is normally left to :func:`append_entry`, which
    numbers entries monotonically.
    """
    benchmarks: Dict[str, object] = {}
    security: Dict[str, object] = {}
    config_hash = ""
    for record in records:
        if record.get("perf") is None:
            continue
        cell = str(record["cell"])
        config_hash = str(record["config_hash"])
        perf = record["perf"]
        benchmarks[cell] = {
            "mean": float(perf["attack_seconds"]),
            "kernel_seconds": float(perf["kernel_seconds"]),
            "kernel_calls": int(perf["kernel_calls"]),
        }
        outcome = record["security"]
        security[cell] = {
            "recovery_rate": float(outcome["recovery_rate"]),
            "queries_mean": float(outcome["queries_mean"]),
            "outcome_fingerprint": str(
                outcome["outcome_fingerprint"]),
        }
    entry: Dict[str, object] = {
        "commit": str(commit),
        "date": datetime.now(timezone.utc).date().isoformat(),
        "config_hash": config_hash,
        "profile": str(profile),
        "benchmarks": benchmarks,
        "security": security,
    }
    if sequence is not None:
        entry["sequence"] = int(sequence)
    return entry


def load_summary(path) -> Dict[str, object]:
    """Parse a ``BENCH_*.json`` summary file (strict)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SummaryFormatError(
            f"{path}: not valid JSON ({error})") from None
    if not isinstance(payload, dict):
        raise SummaryFormatError(f"{path}: summary is not an object")
    history = payload.get("history")
    if not isinstance(history, list):
        raise SummaryFormatError(f"{path}: missing history list")
    for position, entry in enumerate(history):
        if not isinstance(entry, dict):
            raise SummaryFormatError(
                f"{path}: history[{position}] is not an object")
    return payload


def append_entry(path, entry: Dict[str, object],
                 label: Optional[str] = None) -> Dict[str, object]:
    """Append *entry* to a summary file, creating it if missing.

    Assigns the next monotonic ``sequence`` when the entry has none,
    then rewrites the file (the history array is the append-only
    structure; the file is its serialisation).  Returns the full file
    payload after the append.
    """
    path = Path(path)
    if path.exists():
        payload = load_summary(path)
    else:
        if label is None:
            label = path.stem
            if label.startswith("BENCH_"):
                label = label[len("BENCH_"):]
        payload = {"schema_version": SUMMARY_SCHEMA_VERSION,
                   "label": label, "history": []}
    history: List[Dict[str, object]] = payload["history"]
    if "sequence" not in entry:
        last = max((int(e.get("sequence", 0)) for e in history),
                   default=0)
        entry = dict(entry, sequence=last + 1)
    history.append(entry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return payload
