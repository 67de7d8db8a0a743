"""Vectorized success evaluation for batched oracle queries.

The helper-data attacks of paper §VI only ever observe one bit per
reconstruction attempt: did the device regenerate its key?  Estimating
the failure *rates* that drive every distinguisher therefore reduces to
mapping a batch of measurement vectors to a batch of success booleans —
and for every construction that outcome is a deterministic function of
the (discrete) response-bit vector the measurement produces.

That structure is what a :class:`BatchEvaluator` exploits: response
bits for a whole ``(B, n)`` measurement block are extracted in one
NumPy pass, and the expensive completion (ECC decode + key check) runs
once per *distinct* bit pattern instead of once per query.  In the
engineered Fig. 5 regimes only a handful of marginal bits ever flip, so
a block of hundreds of queries typically needs single-digit decodes.

Two execution protocols share that machinery (``docs/evaluators.md``):

* **One-shot** — :meth:`BatchEvaluator.outcomes` runs extraction,
  dedup and completion in a single call per device.  This is the
  legacy path, kept as the executable equivalence reference.
* **Two-phase** — :meth:`BatchEvaluator.plan` stops after extraction
  and dedup, returning an :class:`EvalPlan` that *declares* its kernel
  work (a :class:`~repro.ecc.kernel.KernelWorkload` keyed by the
  shared code/sketch); the caller runs the kernel — possibly fused
  with the same-key workloads of many other devices via
  :func:`repro.ecc.kernel.run_kernels` — and
  :meth:`EvalPlan.finalize` unwinds the outputs back into per-query
  success booleans.  Outcomes are bitwise-identical either way, for
  every batch composition.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro._dedup import iter_unique_rows
from repro.ecc.base import DecodingFailure
from repro.ecc.kernel import KernelWorkload, run_kernels
from repro.ecc.sketch import SecureSketch, SketchData
from repro.keygen.base import key_check_digest, key_check_digests

#: Completion: response-bit vector -> reconstruction success.
CompletionFn = Callable[[np.ndarray], bool]
#: Batch completion: (U, bits) distinct-pattern matrix -> U successes.
BatchCompletionFn = Callable[[np.ndarray], np.ndarray]
#: Extraction: (B, n) measurement batch -> (B, bits) response matrix.
ExtractionFn = Callable[[np.ndarray], np.ndarray]
#: Masked extraction: (B, n) batch -> ((B, bits) matrix, (B,) validity).
MaskedExtractionFn = Callable[[np.ndarray],
                              Tuple[np.ndarray, np.ndarray]]
#: Environment-aware masked extraction: ((B, n) batch, per-row
#: ambient sample) -> ((B, bits) matrix, (B,) validity).
EnvExtractionFn = Callable[[np.ndarray, object],
                           Tuple[np.ndarray, np.ndarray]]


# ----------------------------------------------------------------------
# completions: distinct response pattern -> reconstruction success


class Completion(abc.ABC):
    """Finishes distinct response patterns into success booleans.

    A completion encapsulates everything *after* bit extraction and
    dedup: sketch recovery, key assembly and the application key
    check.  It speaks both protocols — the one-shot
    :meth:`complete_batch` (and scalar :meth:`complete`) reference
    path, and the two-phase :meth:`prepare`/:meth:`finish` split whose
    kernel step can be fused across devices.  The base implementation
    declares no kernel work: :meth:`prepare` defers the patterns and
    :meth:`finish` falls through to :meth:`complete_batch`.
    """

    def kernel_key(self) -> "tuple | None":
        """Structural identity of the kernel work, or ``None``."""
        return None

    def prepare(self, patterns: np.ndarray
                ) -> Tuple[Optional[KernelWorkload], object]:
        """Phase 1: declare kernel work for fresh distinct patterns.

        Returns ``(workload, state)``; the workload may be ``None``
        when no (fusable) kernel work exists, and *state* carries
        whatever :meth:`finish` needs besides the kernel outputs.
        """
        return None, patterns

    def finish(self, state: object, outputs: "Optional[tuple]"
               ) -> np.ndarray:
        """Phase 3: per-pattern successes from state + kernel outputs.

        Must be bitwise-identical to ``complete_batch`` on the
        patterns that were prepared.
        """
        return self.complete_batch(state)

    @abc.abstractmethod
    def complete(self, bits_row: np.ndarray) -> bool:
        """Scalar reference: success of one response-bit vector."""

    def complete_batch(self, patterns: np.ndarray) -> np.ndarray:
        """One-shot reference: successes of a distinct-pattern batch."""
        return np.array([self.complete(row) for row in patterns],
                        dtype=bool)


class CallableCompletion(Completion):
    """Adapter wrapping plain completion callables (no kernel work).

    Keeps schemes and tests that hand bare ``complete`` /
    ``complete_batch`` functions to the evaluators working; such
    completions run un-fused (their plans declare no workload).
    """

    def __init__(self, complete: CompletionFn,
                 complete_batch: Optional[BatchCompletionFn] = None):
        self._complete = complete
        self._complete_batch = complete_batch

    def complete(self, bits_row: np.ndarray) -> bool:
        """Scalar reference: success of one response-bit vector."""
        return bool(self._complete(bits_row))

    def complete_batch(self, patterns: np.ndarray) -> np.ndarray:
        """Batch callable when provided, else the scalar loop."""
        if self._complete_batch is None:
            return super().complete_batch(patterns)
        return np.asarray(self._complete_batch(patterns), dtype=bool)


@dataclass(frozen=True)
class SketchCompletion(Completion):
    """The common scheme completion: sketch recovery + key check.

    Every sketch-based construction finishes a response pattern the
    same way — recover the enrolled response through the secure
    sketch, optionally assemble the key from it (*assemble*; e.g.
    Kendall packing or the fuzzy extractor's Toeplitz hash), and
    compare the key's digest against the public commitment.  The
    two-phase split delegates to the sketch's
    :meth:`~repro.ecc.sketch.SecureSketch.plan_recover` /
    ``finish_recover`` pair, so the expensive decode kernel can fuse
    with every other device sharing the code
    (:mod:`repro.ecc.kernel`).

    The dataclass holds only picklable parts (sketch, helper payload,
    digest bytes and module-level assembler objects), so plans built
    from it can cross process boundaries under the fleet engine's
    copy-on-dispatch rule.
    """

    sketch: SecureSketch
    helper: SketchData
    key_check: bytes
    #: Optional key assembly.  Calling it maps one recovered response
    #: to key bits and may raise ``ValueError`` for an observably
    #: invalid recovery (e.g. a mis-corrected stream that is not a
    #: valid Kendall word); its ``batch`` method maps a ``(U, bits)``
    #: block to ``(keys, valid)`` in one pass, row-wise equal to the
    #: call.  Must be picklable (a small module-level dataclass).
    assemble: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def kernel_key(self) -> "tuple | None":
        """The sketch's recovery-kernel identity."""
        return self.sketch.kernel_key()

    def prepare(self, patterns: np.ndarray
                ) -> Tuple[Optional[KernelWorkload], object]:
        """Declare the sketch-recovery workload for fresh patterns.

        A ``ValueError`` from the sketch (malformed helper payload)
        rejects every pattern alike, mirroring the one-shot path.
        """
        try:
            workload, state = self.sketch.plan_recover(patterns,
                                                       self.helper)
        except ValueError:
            return None, ("rejected", patterns.shape[0])
        return workload, ("planned", state)

    def finish(self, state: object, outputs: "Optional[tuple]"
               ) -> np.ndarray:
        """Unwind the sketch recovery and apply the key check."""
        tag, inner = state
        if tag == "rejected":
            return np.zeros(inner, dtype=bool)
        recovered, ok = self.sketch.finish_recover(inner, outputs)
        return self._check(recovered, ok)

    def complete(self, bits_row: np.ndarray) -> bool:
        """Scalar reference: recover, assemble, check one pattern."""
        try:
            recovered = self.sketch.recover(bits_row, self.helper)
            key = (recovered if self.assemble is None
                   else self.assemble(recovered))
        except (ValueError, DecodingFailure):
            return False
        return key_check_digest(key) == self.key_check

    def complete_batch(self, patterns: np.ndarray) -> np.ndarray:
        """One-shot reference through the sketch's ``recover_batch``."""
        try:
            recovered, ok = self.sketch.recover_batch(patterns,
                                                      self.helper)
        except ValueError:
            return np.zeros(patterns.shape[0], dtype=bool)
        return self._check(recovered, ok)

    def _check(self, recovered: np.ndarray, ok: np.ndarray
               ) -> np.ndarray:
        """Assemble keys for the recovered block and verify digests."""
        out = np.zeros(ok.shape[0], dtype=bool)
        rows = np.flatnonzero(ok)
        keys = recovered[rows]
        if self.assemble is not None:
            try:
                keys, valid = self.assemble.batch(keys)
            except ValueError:
                return out
            rows, keys = rows[valid], keys[valid]
        out[rows] = [digest == self.key_check
                     for digest in key_check_digests(keys)]
        return out


# ----------------------------------------------------------------------
# evaluation plans


@dataclass
class EvalPlan:
    """Phase-1 result of evaluating one measurement block.

    Produced by :meth:`BatchEvaluator.plan`: rows whose pattern was
    already memoized (or observably invalid) are resolved in
    ``outcomes``; the fresh distinct patterns wait in ``pending`` for
    the kernel outputs.  ``workload`` is the plan's declared share of
    the round's kernel work — group plans by ``workload.key`` and run
    them through :func:`repro.ecc.kernel.run_kernels` to fuse the
    kernel across devices, then hand each plan its own output slice
    via :meth:`finalize`.

    A plan holds only arrays, byte keys, the picklable completion and
    the memo dict, so it can cross a process boundary; like every
    fleet dispatch, pickling *copies* state (the memo stops being
    shared with the originating evaluator) — the copy-on-dispatch
    rule of :mod:`repro.fleet.parallel`.
    """

    #: Per-row success booleans; pre-filled for resolved rows.
    outcomes: np.ndarray
    #: Fresh groups awaiting the kernel: ``(pattern_bytes, rows)``,
    #: aligned with the rows of the prepared pattern matrix.
    pending: List[Tuple[bytes, np.ndarray]]
    #: Completion finishing the fresh patterns (``None`` if resolved).
    completion: Optional[Completion]
    #: Opaque completion state from :meth:`Completion.prepare`.
    state: object
    #: Declared kernel work (``None`` when nothing needs the kernel).
    workload: Optional[KernelWorkload]
    #: The evaluator's memo, updated with the finalized patterns.
    memo: Dict[bytes, bool] = field(default_factory=dict)

    @classmethod
    def resolved(cls, outcomes: np.ndarray) -> "EvalPlan":
        """A plan with every row already decided (no kernel work)."""
        return cls(np.asarray(outcomes, dtype=bool), [], None, None,
                   None)

    @property
    def kernel_key(self) -> "tuple | None":
        """The declared workload's fusion key, if any."""
        return None if self.workload is None else self.workload.key

    def finalize(self, outputs: "Optional[tuple]" = None) -> np.ndarray:
        """Phase 3: resolve pending patterns from the kernel outputs.

        *outputs* is this plan's slice of the (possibly fused) kernel
        results — exactly what ``run_kernels([plan.workload])[0]``
        would return.  Returns the complete per-row success vector;
        idempotent once finalized.
        """
        if self.pending:
            results = np.asarray(
                self.completion.finish(self.state, outputs),
                dtype=bool)
            for (key, rows), value in zip(self.pending, results):
                flag = bool(value)
                self.memo[key] = flag
                self.outcomes[rows] = flag
            self.pending = []
        return self.outcomes

    def execute(self) -> np.ndarray:
        """Run this plan's own kernel and finalize (un-fused driver)."""
        (outputs,) = run_kernels([self.workload])
        return self.finalize(outputs)


def _build_plan(bits: np.ndarray, rows: Optional[np.ndarray],
                memo: "_CompletionMemo", count: int) -> EvalPlan:
    """Dedup a bit matrix against the memo and prepare the rest.

    *rows* restricts the scan (masked evaluators); excluded rows stay
    ``False``, matching their observable refusal on the scalar path.
    """
    outcomes = np.zeros(count, dtype=bool)
    pending: List[Tuple[bytes, np.ndarray]] = []
    fresh: List[np.ndarray] = []
    for pattern, indices in iter_unique_rows(bits, rows):
        key = pattern.tobytes()
        hit = memo.data.get(key)
        if hit is None:
            pending.append((key, indices))
            fresh.append(pattern)
        else:
            outcomes[indices] = hit
    if not fresh:
        return EvalPlan(outcomes, [], None, None, None, memo.data)
    workload, state = memo.completion.prepare(np.stack(fresh))
    return EvalPlan(outcomes, pending, memo.completion, state,
                    workload, memo.data)


# ----------------------------------------------------------------------
# evaluators


class BatchEvaluator(abc.ABC):
    """Maps measurement batches to reconstruction-success booleans.

    ``outcomes(freqs)[i]`` must equal what a sequential
    ``reconstruct`` call observing measurement row ``i`` would report
    (``True`` = key regenerated), so batched and scalar simulation stay
    interchangeable query-for-query.  :meth:`plan` is the two-phase
    entry point with the same contract
    (``plan(freqs).finalize(outputs)`` ≡ ``outcomes(freqs)``); the
    base implementation evaluates eagerly and returns a resolved plan,
    which is always correct — just never fused.
    """

    @abc.abstractmethod
    def outcomes(self, freqs: np.ndarray) -> np.ndarray:
        """Success booleans for a ``(B, n)`` measurement batch."""

    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """Phase 1: extract/dedup now, defer kernel work when able."""
        return EvalPlan.resolved(self.outcomes(freqs))

    def outcomes_env(self, freqs: np.ndarray, env) -> np.ndarray:
        """Environment-aware one-shot entry point.

        *env* is the per-row ambient
        :class:`~repro.scenario.trajectory.EnvironmentSample` of a
        trajectory-driven block (or ``None`` when an explicit
        operating point overrode the ambient).  The base
        implementation ignores it: for every construction except the
        temperature-aware one the response bits are a function of
        the measured frequencies alone — the ambient already acted
        through them.
        """
        return self.outcomes(freqs)

    def plan_env(self, freqs: np.ndarray, env) -> EvalPlan:
        """Two-phase twin of :meth:`outcomes_env` (same contract)."""
        return self.plan(freqs)


class ConstantEvaluator(BatchEvaluator):
    """Helper data whose outcome is measurement-independent.

    Structurally invalid helper data (rejected pair lists, mismatched
    group maps) fails every reconstruction before a single frequency is
    inspected; short-circuiting it keeps the batch path free of
    per-query validation.
    """

    def __init__(self, value: bool):
        self._value = bool(value)

    def outcomes(self, freqs: np.ndarray) -> np.ndarray:
        """Success booleans for a ``(B, n)`` measurement batch."""
        return np.full(np.asarray(freqs).shape[0], self._value,
                       dtype=bool)


class _CompletionMemo:
    """Per-helper cache of completion results keyed by bit pattern.

    Both protocols share it: the one-shot :meth:`fill` completes all
    not-yet-seen distinct patterns through the completion's batch
    reference path, while the two-phase plans read ``data`` directly
    at plan time and write finalized patterns back.  Either way a
    pattern is completed at most once per helper.
    """

    def __init__(self, completion: Completion):
        self.completion = completion
        self.data: Dict[bytes, bool] = {}

    def lookup(self, bits_row: np.ndarray) -> bool:
        key = bits_row.tobytes()
        hit = self.data.get(key)
        if hit is None:
            hit = self.data[key] = bool(
                self.completion.complete(bits_row))
        return hit

    def fill(self, bits: np.ndarray, out: np.ndarray,
             rows: Optional[np.ndarray] = None) -> None:
        """Write memoized outcomes for (a subset of) a bit matrix.

        *rows* restricts both the bit matrix rows considered and the
        positions of *out* written; distinct patterns are completed
        once.
        """
        groups = list(iter_unique_rows(bits, rows))
        fresh = [(pattern, pattern.tobytes())
                 for pattern, _ in groups
                 if pattern.tobytes() not in self.data]
        if fresh:
            results = self.completion.complete_batch(
                np.stack([pattern for pattern, _ in fresh]))
            for (_, key), outcome in zip(fresh, results):
                self.data[key] = bool(outcome)
        for pattern, indices in groups:
            out[indices] = self.lookup(pattern)


def _ensure_completion(completion,
                       complete_batch: Optional[BatchCompletionFn]
                       ) -> Completion:
    """Normalise a completion argument (object or bare callables)."""
    if isinstance(completion, Completion):
        return completion
    return CallableCompletion(completion, complete_batch)


class ResponseBitEvaluator(BatchEvaluator):
    """The common scheme shape: vectorized bits, memoized completion.

    *extract* turns a ``(B, n)`` measurement batch into the ``(B,
    bits)`` response matrix in one pass; *completion* finishes the
    distinct patterns — either a :class:`Completion` object (two-phase
    capable, e.g. :class:`SketchCompletion`) or a bare scalar callable
    with an optional *complete_batch* companion (one-shot only).
    """

    def __init__(self, extract: ExtractionFn, completion,
                 complete_batch: Optional[BatchCompletionFn] = None):
        self._extract = extract
        self._memo = _CompletionMemo(
            _ensure_completion(completion, complete_batch))

    def outcomes(self, freqs: np.ndarray) -> np.ndarray:
        """One-shot reference: success booleans for a ``(B, n)`` batch."""
        bits = self._extract(np.asarray(freqs, dtype=float))
        out = np.empty(bits.shape[0], dtype=bool)
        self._memo.fill(bits, out)
        return out

    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """Phase 1: extract and dedup; declare the kernel workload."""
        bits = self._extract(np.asarray(freqs, dtype=float))
        return _build_plan(bits, None, self._memo, bits.shape[0])


class MaskedBitEvaluator(BatchEvaluator):
    """Vectorized extraction with per-row observable refusals.

    Like :class:`ResponseBitEvaluator`, but *extract* returns ``(bits,
    valid)``: rows whose scalar reconstruction would raise before bit
    extraction completes (e.g. the temperature-aware assistance-cycle
    refusal, which depends on each row's sensed temperature) carry
    ``valid = False`` and fail without ever reaching the completion
    stage.  Valid rows are completed once per distinct bit pattern.

    *extract_env*, when supplied, is the environment-aware variant
    used for trajectory-driven blocks: it additionally receives the
    per-row ambient sample, for schemes whose extraction consults
    the environment beyond the measured frequencies (the
    temperature-aware sensor read).  Both extractors must consume
    any shared transient streams identically per row.
    """

    def __init__(self, extract: MaskedExtractionFn, completion,
                 complete_batch: Optional[BatchCompletionFn] = None,
                 extract_env: Optional[EnvExtractionFn] = None):
        self._extract = extract
        self._extract_env = extract_env
        self._memo = _CompletionMemo(
            _ensure_completion(completion, complete_batch))

    def outcomes(self, freqs: np.ndarray) -> np.ndarray:
        """One-shot reference: success booleans for a ``(B, n)`` batch."""
        bits, valid = self._extract(np.asarray(freqs, dtype=float))
        return self._complete_outcomes(bits, valid)

    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """Phase 1: extract and dedup the valid rows only."""
        bits, valid = self._extract(np.asarray(freqs, dtype=float))
        return self._complete_plan(bits, valid)

    def outcomes_env(self, freqs: np.ndarray, env) -> np.ndarray:
        """One-shot entry with per-row ambient environments."""
        if env is None or self._extract_env is None:
            return self.outcomes(freqs)
        bits, valid = self._extract_env(
            np.asarray(freqs, dtype=float), env)
        return self._complete_outcomes(bits, valid)

    def plan_env(self, freqs: np.ndarray, env) -> EvalPlan:
        """Two-phase entry with per-row ambient environments."""
        if env is None or self._extract_env is None:
            return self.plan(freqs)
        bits, valid = self._extract_env(
            np.asarray(freqs, dtype=float), env)
        return self._complete_plan(bits, valid)

    def _complete_outcomes(self, bits: np.ndarray,
                           valid: np.ndarray) -> np.ndarray:
        """Memoized completion of the valid rows (one-shot path)."""
        out = np.zeros(bits.shape[0], dtype=bool)
        rows = np.flatnonzero(np.asarray(valid, dtype=bool))
        if rows.size:
            self._memo.fill(bits, out, rows)
        return out

    def _complete_plan(self, bits: np.ndarray,
                       valid: np.ndarray) -> EvalPlan:
        """Dedup the valid rows into a plan (two-phase path)."""
        rows = np.flatnonzero(np.asarray(valid, dtype=bool))
        if rows.size == 0:
            return EvalPlan.resolved(
                np.zeros(bits.shape[0], dtype=bool))
        return _build_plan(bits, rows, self._memo, bits.shape[0])


class RowwiseBitEvaluator(BatchEvaluator):
    """Fallback for schemes whose bit extraction resists vectorization.

    *extract_row* maps one measurement vector to its response bits (or
    raises ``ValueError`` for an observable per-row failure, e.g. the
    temperature-aware assistance-cycle refusal).  Completion is still
    deduplicated, which is where the decode cost lives.
    """

    def __init__(self, extract_row: Callable[[np.ndarray], np.ndarray],
                 complete: CompletionFn, bits: int):
        self._extract_row = extract_row
        self._memo = _CompletionMemo(_ensure_completion(complete, None))
        self._bits = int(bits)

    def outcomes(self, freqs: np.ndarray) -> np.ndarray:
        """Success booleans for a ``(B, n)`` measurement batch."""
        freqs = np.asarray(freqs, dtype=float)
        count = freqs.shape[0]
        bits = np.zeros((count, self._bits), dtype=np.uint8)
        valid = np.ones(count, dtype=bool)
        for i in range(count):
            try:
                bits[i] = self._extract_row(freqs[i])
            except ValueError:
                valid[i] = False
        out = np.zeros(count, dtype=bool)
        self._memo.fill(bits, out, np.flatnonzero(valid))
        return out
