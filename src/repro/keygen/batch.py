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

A :class:`FrontierPlan` runs the same three phases for a whole
lock-step round: blocks whose evaluator extracts described
:class:`PairColumns` (raw or trend-subtracted, ``>=`` or Kendall) and
completes through a bare code-offset sketch are planned and finalized
stacked, one pass per stack key; every other block keeps its own
:class:`EvalPlan`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._dedup import iter_unique_rows, row_groups
from repro.ecc.base import DecodingFailure
from repro.ecc.kernel import KernelWorkload, run_kernels
from repro.ecc.sketch import CodeOffsetSketch, SecureSketch, SketchData
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


def compare_columns(first: np.ndarray, second: np.ndarray,
                    kind: str) -> np.ndarray:
    """Boolean response bits of gathered column pairs, by *kind*.

    ``"ge"`` is the pairing convention ``first >= second``.
    ``"kendall"`` is the Kendall bit of a label pair ``(x, y)``: ``y``
    precedes ``x`` in the stable descending order exactly when its
    value is larger, or when only ``x``'s is NaN (the sort places NaN
    last).
    """
    if kind == "kendall":
        return (second > first) | (np.isnan(first) & ~np.isnan(second))
    return first >= second


@dataclass(frozen=True, eq=False)
class PairColumns:
    """Described extraction: bit ``c`` compares columns ``a_c`` and ``b_c``.

    *index* is the ``(P, 2)`` ``intp`` pair index (for example
    :attr:`~repro.pairing.sequential.SequentialPairingHelper.index`).
    An optional *trend* is subtracted from every measurement row first
    (the distiller's residuals ``f - trend``), and *kind* names the
    comparison (:func:`compare_columns`).  A :class:`FrontierPlan`
    reads these fields instead of calling the object, to extract the
    bits of many helpers' blocks in one gather.
    """

    index: np.ndarray
    trend: Optional[np.ndarray] = None
    kind: str = "ge"

    def __call__(self, freqs: np.ndarray) -> np.ndarray:
        """The ``(B, P)`` response bits of a ``(B, n)`` block."""
        freqs = np.asarray(freqs, dtype=float)
        if freqs.ndim != 2:
            raise ValueError("batch evaluation needs a (B, n) matrix")
        if self.trend is not None:
            freqs = freqs - self.trend[None, :]
        return compare_columns(freqs[:, self.index[:, 0]],
                               freqs[:, self.index[:, 1]],
                               self.kind).view(np.uint8)


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

    #: The sketch's parsed helper payload, ``None`` if malformed:
    #: parsed once, at construction (``SecureSketch.parse_helper``),
    #: not once per planned block.
    parsed: Optional[np.ndarray] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        try:
            parsed = self.sketch.parse_helper(self.helper)
        except ValueError:
            parsed = None
        object.__setattr__(self, "parsed", parsed)

    def prepare(self, patterns: np.ndarray
                ) -> Tuple[Optional[KernelWorkload], object]:
        """Phase 1: declare the sketch-recovery workload.

        Returns ``(workload, state)`` for the fresh distinct
        *patterns*; *state* carries whatever :meth:`finish` needs
        besides the kernel outputs.  A malformed helper payload, or a
        ``ValueError`` from the sketch, rejects every pattern alike,
        mirroring :meth:`complete`.
        """
        parsed = self.parsed
        if parsed is not None:
            try:
                workload, state = self.sketch.plan_parsed(patterns,
                                                          parsed)
            except ValueError:
                pass
            else:
                return workload, ("planned", state)
        return None, ("rejected", patterns.shape[0])

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

    #: Kernel key under which a :class:`FrontierPlan` stacks this
    #: evaluator's blocks with other helpers'; ``None`` keeps them on
    #: :meth:`plan`.
    stack_key: Optional[tuple] = None

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
    distinct patterns.  A :class:`PairColumns` extraction completed by
    a bare, well-formed code-offset sketch with a kernel key also
    gets a :attr:`stack_key` — its comparison kind, whether it
    subtracts a trend, and the kernel key — so frontier rounds stack
    its blocks with those of the same key only.
    """

    def __init__(self, extract: ExtractionFn,
                 completion: SketchCompletion):
        self._extract = extract
        self._completion = completion
        self._memo: Dict[bytes, bool] = {}
        sketch = completion.sketch
        if (isinstance(extract, PairColumns)
                and completion.assemble is None
                and isinstance(sketch, CodeOffsetSketch)
                and sketch.response_length == extract.index.shape[0]):
            key = sketch.kernel_key()
            if key is not None and completion.parsed is not None:
                self.stack_key = (extract.kind,
                                  extract.trend is not None, key)

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


# ----------------------------------------------------------------------
# frontier plans: one evaluation pass per lock-step round


#: One frontier item: its own :class:`EvalPlan`, or a stackable block
#: ``(evaluator, base, rows)`` whose frequencies are ``base + rows``
#: and whose evaluator has a :attr:`~BatchEvaluator.stack_key`.
FrontierEntry = Union[EvalPlan,
                      Tuple["ResponseBitEvaluator", np.ndarray, np.ndarray]]


class _StackedGroup:
    """Stackable blocks of one shape and one stack key.

    Planned as one: a single gather and compare over the stacked
    frequencies (each block's trend subtracted, its pair index padded
    to the widest block and masked), one dedup keyed by (block,
    pattern), per-block memo lookups and one payload-shifted decode
    workload over the fresh patterns.  :meth:`finalize` XORs the
    payloads back, truncates each pattern to its block's length and
    hashes the key checks of the whole group in one pass.
    """

    def __init__(self, blocks: List[Tuple[int, "ResponseBitEvaluator",
                                          np.ndarray, np.ndarray]]
                 ) -> None:
        self.slots = [block[0] for block in blocks]
        self._memos = [block[1]._memo for block in blocks]
        self._completions = [block[1]._completion for block in blocks]
        extracts = [block[1]._extract for block in blocks]
        self._count = count = blocks[0][3].shape[0]
        # (blocks, columns, rows): every block of a group has the same
        # row count, so one fancy index per (block, pair) gathers that
        # pair's column for all the block's rows at once.
        freqs = np.stack([block[3].T for block in blocks])
        freqs += np.stack([block[2] for block in blocks])[:, :, None]
        if extracts[0].trend is not None:
            freqs -= np.stack([extract.trend
                               for extract in extracts])[:, :, None]
        widths = [extract.index.shape[0] for extract in extracts]
        self._widths = np.array(widths)
        wide = max(widths)
        pairs = np.zeros((len(blocks), wide, 2), dtype=np.intp)
        for slot, extract in enumerate(extracts):
            pairs[slot, :widths[slot]] = extract.index
        items = np.arange(len(blocks))[:, None]
        bits = compare_columns(freqs[items, pairs[:, :, 0]],
                               freqs[items, pairs[:, :, 1]],
                               extracts[0].kind)
        self._mask = None
        if min(widths) < wide:
            self._mask = np.arange(wide) < self._widths[:, None]
            bits &= self._mask[:, :, None]
        owner = np.repeat(np.arange(len(blocks)), count)
        bits = bits.transpose(0, 2, 1).reshape(owner.size, wide).view(
            np.uint8)
        first, self._inverse = row_groups(np.concatenate(
            [owner.astype(">u4").view(np.uint8).reshape(-1, 4), bits],
            axis=1))
        owners = owner[first]
        self._results = np.zeros(first.size, dtype=bool)
        fresh: List[int] = []
        self._keys: List[bytes] = []
        blob = bits.tobytes()
        for distinct, (row, slot) in enumerate(zip(first.tolist(),
                                                   owners.tolist())):
            key = blob[row * wide:row * wide + widths[slot]]
            hit = self._memos[slot].get(key)
            if hit is None:
                fresh.append(distinct)
                self._keys.append(key)
            else:
                self._results[distinct] = hit
        self.workload: Optional[KernelWorkload] = None
        if fresh:
            self._fresh = np.array(fresh)
            self._owners = owners[self._fresh]
            self._payloads = np.stack(
                [completion.parsed for completion in self._completions]
            )[self._owners]
            self.workload = self._completions[0].sketch.offset_workload(
                bits[first[self._fresh]], self._payloads)

    def finalize(self, outputs: "Optional[tuple]") -> List[np.ndarray]:
        """Per-block success vectors from the group's kernel outputs."""
        if self.workload is not None:
            codewords, ok = outputs
            keys = (self._payloads ^ codewords)[:, :self._widths.max()]
            if self._mask is not None:
                keys &= self._mask[self._owners]
            good = np.flatnonzero(ok)
            owners = self._owners[good]
            flags = np.zeros(self._owners.size, dtype=bool)
            flags[good] = [
                digest == self._completions[slot].key_check
                for digest, slot in zip(
                    key_check_digests(keys[good], self._widths[owners]),
                    owners.tolist())]
            for key, slot, flag in zip(self._keys, self._owners.tolist(),
                                       flags.tolist()):
                self._memos[slot][key] = flag
            self._results[self._fresh] = flags
        return list(self._results[self._inverse].reshape(
            len(self.slots), self._count))


class FrontierPlan:
    """Phase 1 for a whole lock-step round of evaluation items.

    *entries* come in round order, one per item (see
    :data:`FrontierEntry`).  Stackable blocks are grouped by block
    shape (rows, frequency width) and stack key (comparison kind,
    trend, kernel key), and each group of two or more is planned as
    one (:class:`_StackedGroup`); a lone block has nothing to stack
    and is planned by its own evaluator.
    An :class:`EvalPlan` entry is kept as-is.  Run :attr:`workloads`
    through :func:`~repro.ecc.kernel.run_kernels` — one call per
    distinct key, stacked groups and own plans alike — and hand the
    outputs to :meth:`finalize`.

    Stacking changes no outcome, memo entry or kernel row: dedup stays
    per item and consults each evaluator's memo as it stood before the
    round, exactly as per-item plans do, so outcomes are
    bitwise-identical to ``plan.execute()`` per item.
    """

    def __init__(self, entries: Sequence[FrontierEntry]) -> None:
        self._size = len(entries)
        self._plans: List[Tuple[int, EvalPlan]] = []
        blocks: Dict[tuple, list] = {}
        for slot, entry in enumerate(entries):
            if isinstance(entry, EvalPlan):
                self._plans.append((slot, entry))
            else:
                evaluator, base, rows = entry
                blocks.setdefault((rows.shape, evaluator.stack_key),
                                  []).append((slot, evaluator, base, rows))
        self._groups: List[_StackedGroup] = []
        for group in blocks.values():
            if len(group) > 1:
                self._groups.append(_StackedGroup(group))
            else:
                slot, evaluator, base, rows = group[0]
                self._plans.append(
                    (slot, evaluator.plan(base[None, :] + rows)))

    @property
    def workloads(self) -> List[Optional[KernelWorkload]]:
        """The round's declared kernel work, aligned with
        :meth:`finalize`'s *outputs*."""
        return ([plan.workload for _, plan in self._plans]
                + [group.workload for group in self._groups])

    def finalize(self, outputs: Sequence["Optional[tuple]"]
                 ) -> List[np.ndarray]:
        """Phase 3: every item's success vector, in entry order."""
        results: List[Optional[np.ndarray]] = [None] * self._size
        outputs = iter(outputs)
        for slot, plan in self._plans:
            results[slot] = plan.finalize(next(outputs))
        for group in self._groups:
            for slot, outcomes in zip(group.slots,
                                      group.finalize(next(outputs))):
                results[slot] = outcomes
        return results

    def execute(self) -> List[np.ndarray]:
        """Run this frontier's own kernels and finalize."""
        return self.finalize(run_kernels(self.workloads))
