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

Evaluation is two-phase (``docs/evaluators.md``):
:meth:`BatchEvaluator.plan` stops after extraction and dedup, returning
an :class:`EvalPlan` that *declares* its kernel work (a
:class:`~repro.ecc.kernel.KernelWorkload` keyed by the shared
code/sketch); the caller runs the kernel — possibly fused with the
same-key workloads of many other devices via
:func:`repro.ecc.kernel.run_kernels` — and :meth:`EvalPlan.finalize`
unwinds the outputs back into per-query success booleans.  Outcomes
are bitwise-identical for every batch composition, and equal to the
scalar :meth:`SketchCompletion.complete` reference row by row.
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
# completion: distinct response pattern -> reconstruction success


@dataclass(frozen=True)
class SketchCompletion:
    """The scheme completion: sketch recovery + key check.

    Every sketch-based construction finishes a response pattern the
    same way — recover the enrolled response through the secure
    sketch, optionally assemble the key from it (*assemble*; e.g.
    Kendall packing or the fuzzy extractor's Toeplitz hash), and
    compare the key's digest against the public commitment.  The
    two-phase :meth:`prepare`/:meth:`finish` split delegates to the
    sketch's :meth:`~repro.ecc.sketch.SecureSketch.plan_recover` /
    ``finish_recover`` pair, so the expensive decode kernel can fuse
    with every other device sharing the code
    (:mod:`repro.ecc.kernel`); :meth:`complete` is the scalar
    reference it must match pattern for pattern.

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

    def prepare(self, patterns: np.ndarray
                ) -> Tuple[Optional[KernelWorkload], object]:
        """Phase 1: declare the sketch-recovery workload.

        Returns ``(workload, state)`` for the fresh distinct
        *patterns*; *state* carries whatever :meth:`finish` needs
        besides the kernel outputs.  A ``ValueError`` from the sketch
        (malformed helper payload) rejects every pattern alike,
        mirroring :meth:`complete`.
        """
        try:
            workload, state = self.sketch.plan_recover(patterns,
                                                       self.helper)
        except ValueError:
            return None, ("rejected", patterns.shape[0])
        return workload, ("planned", state)

    def finish(self, state: object, outputs: "Optional[tuple]"
               ) -> np.ndarray:
        """Phase 3: unwind the sketch recovery and apply the key check."""
        tag, inner = state
        if tag == "rejected":
            return np.zeros(inner, dtype=bool)
        recovered, ok = self.sketch.finish_recover(inner, outputs)
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

    def complete(self, bits_row: np.ndarray) -> bool:
        """Scalar reference: recover, assemble, check one pattern."""
        try:
            recovered = self.sketch.recover(bits_row, self.helper)
            key = (recovered if self.assemble is None
                   else self.assemble(recovered))
        except (ValueError, DecodingFailure):
            return False
        return key_check_digest(key) == self.key_check


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
    completion: Optional[SketchCompletion]
    #: Opaque completion state from :meth:`SketchCompletion.prepare`.
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
        """Run this plan's own kernel and finalize (single-plan driver)."""
        (outputs,) = run_kernels([self.workload])
        return self.finalize(outputs)


def _build_plan(bits: np.ndarray, rows: Optional[np.ndarray],
                completion: SketchCompletion, memo: Dict[bytes, bool],
                count: int) -> EvalPlan:
    """Dedup a bit matrix against the memo and prepare the rest.

    *rows* restricts the scan (masked evaluators); excluded rows stay
    ``False``, matching their observable refusal on the scalar path.
    """
    outcomes = np.zeros(count, dtype=bool)
    pending: List[Tuple[bytes, np.ndarray]] = []
    fresh: List[np.ndarray] = []
    for pattern, indices in iter_unique_rows(bits, rows):
        key = pattern.tobytes()
        hit = memo.get(key)
        if hit is None:
            pending.append((key, indices))
            fresh.append(pattern)
        else:
            outcomes[indices] = hit
    if not fresh:
        return EvalPlan(outcomes, [], None, None, None, memo)
    workload, state = completion.prepare(np.stack(fresh))
    return EvalPlan(outcomes, pending, completion, state, workload,
                    memo)


# ----------------------------------------------------------------------
# evaluators


class BatchEvaluator(abc.ABC):
    """Maps measurement batches to reconstruction-success booleans.

    ``plan(freqs).finalize(outputs)[i]`` must equal what a sequential
    ``reconstruct`` call observing measurement row ``i`` would report
    (``True`` = key regenerated), so batched and scalar simulation stay
    interchangeable query-for-query.  The bit-pattern evaluators keep a
    per-helper memo of finalized patterns, so each distinct pattern is
    completed at most once.
    """

    @abc.abstractmethod
    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """Phase 1: extract/dedup now, defer kernel work to the caller."""

    def plan_env(self, freqs: np.ndarray, env) -> EvalPlan:
        """Environment-aware entry point (same contract as :meth:`plan`).

        *env* is the per-row ambient
        :class:`~repro.scenario.trajectory.EnvironmentSample` of a
        trajectory-driven block (or ``None`` when an explicit
        operating point overrode the ambient).  The base
        implementation ignores it: for every construction except the
        temperature-aware one the response bits are a function of
        the measured frequencies alone — the ambient already acted
        through them.
        """
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

    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """A resolved plan: every row gets the constant outcome."""
        return EvalPlan.resolved(np.full(np.asarray(freqs).shape[0],
                                         self._value, dtype=bool))


class ResponseBitEvaluator(BatchEvaluator):
    """The common scheme shape: vectorized bits, memoized completion.

    *extract* turns a ``(B, n)`` measurement batch into the ``(B,
    bits)`` response matrix in one pass; *completion* finishes the
    distinct patterns.
    """

    def __init__(self, extract: ExtractionFn,
                 completion: SketchCompletion):
        self._extract = extract
        self._completion = completion
        self._memo: Dict[bytes, bool] = {}

    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """Phase 1: extract and dedup; declare the kernel workload."""
        bits = self._extract(np.asarray(freqs, dtype=float))
        return _build_plan(bits, None, self._completion, self._memo,
                           bits.shape[0])

    def masked(self, accept: Callable[[np.ndarray], np.ndarray],
               columns: slice = slice(None)) -> "MaskedBitEvaluator":
        """This extraction and completion behind a per-row check.

        *accept* maps the measurement block to the ``(B,)`` mask of
        rows a device-side check lets through; refused rows fail
        without completion.  Bits are extracted from *columns* of the
        block, so a multi-readout device can validate one readout and
        regenerate from another.
        """
        extract = self._extract
        return MaskedBitEvaluator(
            lambda freqs: (extract(freqs[:, columns]), accept(freqs)),
            self._completion)


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

    def __init__(self, extract: MaskedExtractionFn,
                 completion: SketchCompletion,
                 extract_env: Optional[EnvExtractionFn] = None):
        self._extract = extract
        self._extract_env = extract_env
        self._completion = completion
        self._memo: Dict[bytes, bool] = {}

    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """Phase 1: extract and dedup the valid rows only."""
        bits, valid = self._extract(np.asarray(freqs, dtype=float))
        return self._complete_plan(bits, valid)

    def plan_env(self, freqs: np.ndarray, env) -> EvalPlan:
        """Phase 1 with per-row ambient environments."""
        if env is None or self._extract_env is None:
            return self.plan(freqs)
        bits, valid = self._extract_env(
            np.asarray(freqs, dtype=float), env)
        return self._complete_plan(bits, valid)

    def _complete_plan(self, bits: np.ndarray,
                       valid: np.ndarray) -> EvalPlan:
        """Dedup the valid rows into a plan."""
        rows = np.flatnonzero(np.asarray(valid, dtype=bool))
        if rows.size == 0:
            return EvalPlan.resolved(
                np.zeros(bits.shape[0], dtype=bool))
        return _build_plan(bits, rows, self._completion, self._memo,
                           bits.shape[0])
