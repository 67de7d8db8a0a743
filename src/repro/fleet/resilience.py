"""Supervision policy and failure taxonomy of the worker pool.

An unsupervised pool run assumes every worker finishes: one crashed,
hung or OOM-killed process aborts the whole sweep.  A **supervised**
run (a :class:`Supervisor` passed as ``supervision=``) drives its
chunks through the scheduling loop of :mod:`repro.fleet.pool` under a
:class:`RetryPolicy`:

* a **watchdog** kills chunks that exceed ``chunk_timeout``;
* failed chunks are **retried** with exponential backoff whose jitter
  is seeded (schedules are reproducible run over run);
* every failure is recorded in a structured taxonomy
  (:class:`ChunkFailure`: ``crash`` / ``timeout`` / ``exception`` /
  ``poison``, with the worker pid, attempt number and payload digest);
* chunks that exhaust their retries are **quarantined** and re-executed
  in-process (graceful degradation) before the sweep gives up;
* chunks that fail even in-process are **poisoned**: the sweep raises
  a :class:`PoisonedSweepError` carrying the full report — a
  partial-result verdict, not an opaque traceback — or, with
  ``allow_partial=True``, returns fill values for the poisoned
  devices.

Because all per-device randomness is derived in the parent before any
dispatch (the :mod:`repro.fleet.parallel` seeding discipline), a retry
re-executes a bitwise-identical computation — so a sweep that
survived injected crashes, hangs and exceptions
(:mod:`repro.fleet.faultinject`) returns results **bitwise-equal to
the fault-free run**.  ``docs/resilience.md`` spells out the
contract; the equivalence is pinned by
``tests/fleet/test_resilience.py`` and the CI ``chaos-smoke`` job.

Supervision implies process isolation (a fault cannot be survived
in-process), so supervised payloads must be picklable for *every*
worker count, including 1.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class PoisonedSweepError(RuntimeError):
    """A sweep finished with chunks that failed every recovery path.

    Raised instead of the poisoning chunk's opaque traceback: the
    message is the structured verdict (how many chunks, which kinds,
    the first detail line) and :attr:`report` carries the complete
    failure taxonomy for programmatic use.
    """

    def __init__(self, report: "ResilienceReport") -> None:
        self.report = report
        poisoned = report.poison_failures
        first = poisoned[0] if poisoned else None
        detail = (f"; first: chunk {first.chunk} ({first.detail})"
                  if first is not None else "")
        super().__init__(
            f"sweep poisoned: {len(report.poisoned)} of "
            f"{report.chunks} chunk(s) failed all "
            f"{report.policy.max_retries + 1} attempt(s) and the "
            f"in-process quarantine retry [{report.describe_kinds()}]"
            f"{detail}")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout policy of one supervised sweep.

    Parameters
    ----------
    max_retries:
        Child-process re-executions granted to a failing chunk
        beyond its first attempt (0 disables retry but keeps the
        quarantine pass).
    chunk_timeout:
        Watchdog limit in seconds per chunk attempt; ``None``
        disables the watchdog (hung workers then block the sweep,
        exactly as they would unsupervised).
    backoff_base / backoff_cap:
        Exponential backoff: attempt *k* waits
        ``min(cap, base * 2**k)`` seconds, scaled by seeded jitter.
    jitter_seed:
        Root of the deterministic jitter — same seed, same payloads,
        same backoff schedule, every run.
    allow_partial:
        ``True`` returns fill values (zeros / ``None``) for poisoned
        chunks instead of raising :class:`PoisonedSweepError`.
    """

    max_retries: int = 2
    chunk_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter_seed: int = 0
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff_delay(self, payload_digest: str,
                      attempt: int) -> float:
        """Seconds to wait before relaunching after *attempt* failed.

        Exponential in *attempt*, with jitter in ``[0.5, 1.5)`` drawn
        deterministically from ``(jitter_seed, payload digest,
        attempt)`` — reproducible, yet de-synchronised across chunks.
        """
        material = (f"{self.jitter_seed}:{payload_digest}:"
                    f"{int(attempt)}").encode("ascii")
        word = int.from_bytes(
            hashlib.sha256(material).digest()[:8], "little")
        jitter = 0.5 + word / 2.0 ** 64
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** int(attempt)))
        return delay * jitter

    def schedule(self, payload_digest: str) -> List[float]:
        """The full reproducible backoff schedule for one chunk."""
        return [self.backoff_delay(payload_digest, attempt)
                for attempt in range(self.max_retries)]


@dataclass(frozen=True)
class ChunkFailure:
    """One recorded chunk failure (the structured taxonomy entry).

    ``kind`` is ``crash`` (worker died without a message — killed,
    segfaulted, OOMed), ``timeout`` (watchdog reclaimed a hung
    worker), ``exception`` (the chunk body raised in-band) or
    ``poison`` (the in-process quarantine retry failed too).
    """

    kind: str
    chunk: int
    attempt: int
    pid: Optional[int]
    payload_digest: str
    detail: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the CI artifact rows)."""
        return {"kind": self.kind, "chunk": int(self.chunk),
                "attempt": int(self.attempt), "pid": self.pid,
                "payload_digest": self.payload_digest,
                "detail": self.detail}


@dataclass
class ResilienceReport:
    """Everything a supervised sweep observed about its failures."""

    policy: RetryPolicy
    chunks: int = 0
    failures: List[ChunkFailure] = field(default_factory=list)
    retried: int = 0
    #: Chunks recovered by the in-process quarantine pass.
    degraded: List[int] = field(default_factory=list)
    #: Chunks that failed the quarantine pass too.
    poisoned: List[int] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """``clean`` / ``recovered`` / ``degraded`` / ``partial``."""
        if self.poisoned:
            return "partial"
        if self.degraded:
            return "degraded"
        if self.failures:
            return "recovered"
        return "clean"

    @property
    def poison_failures(self) -> List[ChunkFailure]:
        """The ``poison``-kind failure entries."""
        return [failure for failure in self.failures
                if failure.kind == "poison"]

    def counts_by_kind(self) -> Dict[str, int]:
        """Failure tally per taxonomy kind (insertion-ordered)."""
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts

    def describe_kinds(self) -> str:
        """Compact ``kind x count`` summary, e.g. ``crash x2``."""
        counts = self.counts_by_kind()
        if not counts:
            return "no failures"
        return ", ".join(f"{kind} x{count}"
                         for kind, count in sorted(counts.items()))

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        return (f"{self.verdict}: {len(self.failures)} failure(s) "
                f"[{self.describe_kinds()}] over {self.chunks} "
                f"chunk(s), {self.retried} retried, "
                f"{len(self.degraded)} degraded in-process, "
                f"{len(self.poisoned)} poisoned")

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable report (the CI chaos artifact)."""
        return {
            "verdict": self.verdict,
            "chunks": int(self.chunks),
            "retried": int(self.retried),
            "degraded": [int(index) for index in self.degraded],
            "poisoned": [int(index) for index in self.poisoned],
            "counts": self.counts_by_kind(),
            "failures": [failure.to_dict()
                         for failure in self.failures],
            "policy": {
                "max_retries": self.policy.max_retries,
                "chunk_timeout": self.policy.chunk_timeout,
                "backoff_base": self.policy.backoff_base,
                "backoff_cap": self.policy.backoff_cap,
                "jitter_seed": self.policy.jitter_seed,
                "allow_partial": self.policy.allow_partial,
            },
        }


class Supervisor:
    """Carries a :class:`RetryPolicy` into sweeps, collects reports.

    Pass one as the ``supervision`` argument of
    :func:`repro.fleet.parallel.run_scattered` /
    :func:`~repro.fleet.parallel.run_collected` (or of the ``Fleet``
    sweep methods, which thread it through).  Each supervised sweep
    appends a fresh :class:`ResilienceReport`; one supervisor can
    therefore account for a whole multi-sweep campaign.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.reports: List[ResilienceReport] = []

    @property
    def last_report(self) -> Optional[ResilienceReport]:
        """The most recent sweep's report (``None`` before any)."""
        return self.reports[-1] if self.reports else None

    @property
    def failures(self) -> List[ChunkFailure]:
        """All failures observed across every supervised sweep."""
        return [failure for report in self.reports
                for failure in report.failures]

    def new_report(self, chunks: int) -> ResilienceReport:
        """Open the report for one supervised sweep."""
        report = ResilienceReport(policy=self.policy, chunks=chunks)
        self.reports.append(report)
        return report

    def summary_lines(self) -> List[str]:
        """One summary line per supervised sweep."""
        return [f"sweep {index}: {report.summary()}"
                for index, report in enumerate(self.reports)]

    def to_payload(self) -> Dict[str, object]:
        """JSON artifact: per-sweep reports plus the global tally."""
        kinds: Dict[str, int] = {}
        for report in self.reports:
            for kind, count in report.counts_by_kind().items():
                kinds[kind] = kinds.get(kind, 0) + count
        return {
            "sweeps": len(self.reports),
            "failures": sum(len(report.failures)
                            for report in self.reports),
            "counts": kinds,
            "reports": [report.to_payload()
                        for report in self.reports],
        }

    def write_report(self, path):
        """Write :meth:`to_payload` as JSON; returns the path.

        The CLI ``--failure-report`` artifact (CI ships it from the
        chaos-smoke job).
        """
        import json
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True)
            + "\n", encoding="ascii")
        return target


def payload_digest(payloads: Sequence[object]) -> str:
    """Short stable digest identifying a chunk's payload content."""
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(pickle.dumps(payload))
    return digest.hexdigest()[:16]
