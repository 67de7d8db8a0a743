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
lock-step round: blocks that reduce to a :class:`PairBlock` — an
evaluator extracting described :class:`PairColumns` (raw or
trend-subtracted, ``>=`` or Kendall) and completing through a bare
code-offset sketch, or a :class:`DescribedHelper` its keygen describes
as one — are planned and finalized stacked, one pass per stack key;
every other block keeps its own :class:`EvalPlan`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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


class PairBlock(NamedTuple):
    """A stackable block's extraction and completion, as arrays.

    What a :class:`FrontierPlan` reads to stack a block with others:
    the ``(P, 2)`` pair *index*, *trend* and comparison *kind* of a
    :class:`PairColumns` extraction; the bare code-offset *sketch*
    completing it; the block's *parsed* payload and *key_check*; and
    the *memo* of finalized patterns the block consults before the
    round and extends after it.  *stack_key* is ``(kind, trend is not
    None, kernel key)``: only blocks of one stack key and one row
    shape stack.
    """

    index: np.ndarray
    trend: Optional[np.ndarray]
    kind: str
    sketch: CodeOffsetSketch
    parsed: np.ndarray
    key_check: bytes
    memo: Dict[bytes, bool]
    stack_key: tuple


class DescribedHelper:
    """A hypothesis helper held as a manipulation of an enrolled helper.

    The adaptive §VI attacks compare helpers that differ from the
    enrolled one by a few orientation flips and a swap, or by an
    injected trend plus a rewritten grouping and payload.  A described
    helper keeps that difference instead of a finished helper object.
    :meth:`apply` builds the real helper from an enrolled one; the
    scalar drive and every route that cannot use the description
    evaluate :meth:`materialise`, the helper built from
    :attr:`enrolled`.  The keygen's
    :meth:`~repro.keygen.base.KeyGenerator.describe` turns the
    description into the :class:`PairBlock` a frontier round stacks,
    without building a helper, an evaluator or a completion; it
    equals the block of ``keygen.batch_evaluator(array,
    materialise())``, except for the memo, which the description may
    share with other descriptions of the same completion.
    """

    # A plain base class, not an ABC: every frontier item is checked
    # against it, and an ABC's isinstance runs Python-level code.
    __slots__ = ("_helper", "_described")

    def __init__(self) -> None:
        self._helper = None
        self._described = None

    @property
    def enrolled(self):
        """The enrolled helper the manipulation applies to."""
        raise NotImplementedError

    def apply(self, helper):
        """The manipulated copy of *helper*."""
        raise NotImplementedError

    def materialise(self):
        """The real helper, ``apply(enrolled)``, built on first use."""
        if self._helper is None:
            self._helper = self.apply(self.enrolled)
        return self._helper

    def block(self, keygen, array) -> Optional[PairBlock]:
        """The stackable block on *keygen*'s *array*, or ``None``.

        ``None`` means the description cannot stand in for the helper
        there, so the caller evaluates :meth:`materialise` instead.
        Cached for the last ``(keygen, array)`` pair.
        """
        hit = self._described
        if hit is None or hit[0] is not keygen or hit[1] is not array:
            hit = self._described = (keygen, array,
                                     keygen.describe(array, self))
        return hit[2]


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

    #: The evaluator as a :class:`PairBlock` a :class:`FrontierPlan`
    #: stacks with other helpers' blocks; ``None`` keeps its blocks on
    #: :meth:`plan`.
    block: Optional[PairBlock] = None

    @property
    def stack_key(self) -> Optional[tuple]:
        """The stack key of :attr:`block`, ``None`` if it does not stack."""
        return None if self.block is None else self.block.stack_key

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
    a bare, well-formed code-offset sketch with a kernel key is also
    a :attr:`block` sharing the evaluator's memo, so frontier rounds
    stack its blocks with those of the same stack key.
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
                self.block = PairBlock(
                    extract.index, extract.trend, extract.kind, sketch,
                    completion.parsed, completion.key_check, self._memo,
                    (extract.kind, extract.trend is not None, key))

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
#: ``(block, base, rows, evaluator)`` whose frequencies are ``base +
#: rows``.  *evaluator* plans the block when nothing stacks with it;
#: it is ``None`` for a :class:`DescribedHelper`'s block, which is
#: planned as a group of one instead.
FrontierEntry = Union[EvalPlan,
                      Tuple[PairBlock, np.ndarray, np.ndarray,
                            Optional[BatchEvaluator]]]


def _row_keys(patterns: np.ndarray, widths: np.ndarray) -> List[bytes]:
    """Memo keys: the first ``widths[i]`` bytes of each pattern row."""
    wide = patterns.shape[1]
    keys = np.ascontiguousarray(patterns).view(
        np.dtype((np.void, wide))).ravel().tolist()
    short = np.flatnonzero(widths < wide)
    for row, width in zip(short.tolist(), widths[short].tolist()):
        keys[row] = keys[row][:width]
    return keys


class _StackedGroup:
    """Stackable blocks of one shape and one stack key.

    Planned as one: a single gather and compare over the stacked
    frequencies (each block's trend subtracted, its pair index padded
    to the widest block and masked), one dedup keyed by (block,
    pattern), memo lookups for all distinct patterns in one pass and
    one payload-shifted decode workload over the fresh patterns.
    :meth:`finalize` XORs the payloads back, truncates each pattern to
    its block's length and hashes the key checks of the whole group in
    one pass.
    """

    def __init__(self, blocks: List[tuple]) -> None:
        self.slots = [entry[0] for entry in blocks]
        sources: List[PairBlock] = [entry[1] for entry in blocks]
        self._memos = [source.memo for source in sources]
        self._checks = [source.key_check for source in sources]
        self._count = count = blocks[0][3].shape[0]
        # (blocks, columns, rows): every block of a group has the same
        # row count, so one fancy index per (block, pair) gathers that
        # pair's column for all the block's rows at once.
        # np.array stacks a list of small equal-shape arrays in C,
        # well ahead of np.stack; transposed views stack faster with
        # np.stack.
        freqs = np.stack([entry[3].T for entry in blocks])
        freqs += np.array([entry[2] for entry in blocks])[:, :, None]
        if sources[0].trend is not None:
            freqs -= np.array([source.trend
                               for source in sources])[:, :, None]
        indices = [source.index for source in sources]
        widths = [index.shape[0] for index in indices]
        self._widths = np.array(widths)
        wide = max(widths)
        self._mask = None
        if min(widths) == wide:
            pairs = np.array(indices)
        else:
            pairs = np.zeros((len(blocks), wide, 2), dtype=np.intp)
            for slot, index in enumerate(indices):
                pairs[slot, :widths[slot]] = index
            self._mask = np.arange(wide) < self._widths[:, None]
        items = np.arange(len(blocks))[:, None]
        bits = compare_columns(freqs[items, pairs[:, :, 0]],
                               freqs[items, pairs[:, :, 1]],
                               sources[0].kind)
        if self._mask is not None:
            bits &= self._mask[:, :, None]
        owner = np.repeat(np.arange(len(blocks)), count)
        bits = bits.transpose(0, 2, 1).reshape(owner.size, wide).view(
            np.uint8)
        first, self._inverse = row_groups(np.concatenate(
            [owner.astype(">u4").view(np.uint8).reshape(-1, 4), bits],
            axis=1))
        owners = owner[first]
        patterns = bits[first]
        self._keys = _row_keys(patterns, self._widths[owners])
        # One C-level pass of dict lookups; -1 marks a pattern its
        # block's memo has not seen.
        known = np.fromiter(
            map(dict.get, map(self._memos.__getitem__, owners.tolist()),
                self._keys, repeat(-1)),
            dtype=np.int8, count=first.size)
        self._results = known == 1
        self.workload: Optional[KernelWorkload] = None
        self._fresh = np.flatnonzero(known < 0)
        if self._fresh.size:
            self._owners = owners[self._fresh]
            self._payloads = np.array(
                [source.parsed for source in sources])[self._owners]
            self.workload = sources[0].sketch.offset_workload(
                patterns[self._fresh], self._payloads)

    def finalize(self, outputs: "Optional[tuple]") -> List[np.ndarray]:
        """Per-block success vectors from the group's kernel outputs."""
        if self.workload is not None:
            codewords, ok = outputs
            keys = (self._payloads ^ codewords)[:, :self._widths.max()]
            if self._mask is not None:
                keys &= self._mask[self._owners]
            good = np.flatnonzero(ok)
            owners = self._owners[good]
            checks = self._checks
            flags = np.zeros(self._owners.size, dtype=bool)
            flags[good] = [
                digest == checks[slot] for digest, slot in zip(
                    key_check_digests(keys[good], self._widths[owners]),
                    owners.tolist())]
            for distinct, slot, flag in zip(self._fresh.tolist(),
                                            self._owners.tolist(),
                                            flags.tolist()):
                self._memos[slot][self._keys[distinct]] = flag
            self._results[self._fresh] = flags
        return list(self._results[self._inverse].reshape(
            len(self.slots), self._count))


class FrontierPlan:
    """Phase 1 for a whole lock-step round of evaluation items.

    *entries* come in round order, one per item (see
    :data:`FrontierEntry`).  Stackable blocks are grouped by block
    shape (rows, frequency width) and stack key (comparison kind,
    trend, kernel key), and each group of two or more is planned as
    one (:class:`_StackedGroup`); a lone evaluator block has nothing
    to stack and is planned by its evaluator, a lone described block
    as a group of one.
    An :class:`EvalPlan` entry is kept as-is.  Run :attr:`workloads`
    through :func:`~repro.ecc.kernel.run_kernels` — one call per
    distinct key, stacked groups and own plans alike — and hand the
    outputs to :meth:`finalize`.

    Stacking changes no outcome, memo entry or kernel row: dedup stays
    per item and consults each block's memo as it stood before the
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
                block, base, rows, evaluator = entry
                blocks.setdefault((rows.shape, block.stack_key), []).append(
                    (slot, block, base, rows, evaluator))
        self._groups: List[_StackedGroup] = []
        for group in blocks.values():
            slot, _, base, rows, evaluator = group[0]
            if len(group) == 1 and evaluator is not None:
                self._plans.append(
                    (slot, evaluator.plan(base[None, :] + rows)))
            else:
                self._groups.append(_StackedGroup(group))

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
