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
lock-step round over two routes: a block that reduces to a
:class:`PairBlock` (:func:`pair_block`: described :class:`PairColumns`,
raw or trend-subtracted, ``>=`` or Kendall, gap-checked or not,
completed through a bare code-offset sketch) — an evaluator's or a
:class:`DescribedHelper`'s — is planned and finalized in a stacked
group, alone or with others of its stack key; every other block keeps
its own :class:`EvalPlan`.
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

from repro._dedup import row_groups
from repro.ecc.base import DecodingFailure
from repro.ecc.kernel import KernelWorkload, pad_rows, run_kernels
from repro.ecc.sketch import CodeOffsetSketch, SecureSketch, SketchData
from repro.keygen.base import key_check_digest, key_check_digests


def _gap_violations(first: np.ndarray, second: np.ndarray,
                    floor: float) -> np.ndarray:
    """Which gathered pairs' gaps ``|first - second|`` are at most
    *floor*: the one measured-threshold predicate, of the scalar checks
    and the batch paths alike.  A NaN gap is no violation."""
    return np.abs(first - second) <= floor


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
    comparison (:func:`compare_columns`).  An optional *gap* ``(floor,
    shift)`` is a device's measured-threshold check: a row fails
    without completion when any pair has ``|r[a - shift] - r[b -
    shift]| <= floor``, ``r`` being the row minus the trend.  A
    :class:`FrontierPlan` reads these fields instead of calling the
    object, to extract the bits of many helpers' blocks in one gather.
    """

    index: np.ndarray
    trend: Optional[np.ndarray] = None
    kind: str = "ge"
    gap: Optional[Tuple[float, int]] = None

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

    def checked(self, freqs: np.ndarray
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(bits, accepted)`` of a float block: its response bits and
        the rows :attr:`gap` accepts (``None`` without a gap)."""
        return self(freqs), (None if self.gap is None
                             else self.accepted(freqs))

    def accepted(self, freqs: np.ndarray) -> np.ndarray:
        """Which rows of a float ``(B, n)`` block pass :attr:`gap`."""
        floor, shift = self.gap
        a, b = (self.index - shift).T
        values = freqs if self.trend is None else freqs - self.trend
        return ~_gap_violations(values[:, a], values[:, b],
                                floor).any(axis=1)


class PairBlock(NamedTuple):
    """A stackable block's extraction and completion, as arrays.

    What a :class:`FrontierPlan` reads to stack a block with others:
    the ``(P, 2)`` pair *index*, *trend*, comparison *kind* and
    measured-threshold *gap* of a :class:`PairColumns` extraction; the
    bare code-offset *sketch* completing it; the block's *parsed*
    payload and *key_check*; and the *memo* of finalized patterns the
    block consults before the round and extends after it.  *stack_key*
    is ``(kind, trend is not None, sketch kernel key, gap)``, the
    sketch key naming the code's parent (so every shortening of one
    BCH parent shares it): only blocks of one stack key and one row
    shape stack.
    """

    index: np.ndarray
    trend: Optional[np.ndarray]
    kind: str
    gap: Optional[Tuple[float, int]]
    sketch: CodeOffsetSketch
    parsed: np.ndarray
    key_check: bytes
    memo: Dict[bytes, bool]
    stack_key: tuple


def pair_block(extract, sketch, parsed: Optional[np.ndarray],
               key_check: bytes, memo: Dict[bytes, bool]
               ) -> Optional[PairBlock]:
    """The one stacking rule: *extract* completed (with no assembly)
    by *sketch* over the *parsed* payload, as a block, or ``None``.

    A block needs a :class:`PairColumns` extraction, a
    :class:`~repro.ecc.sketch.CodeOffsetSketch` with a kernel key over
    exactly the pair count, and a ``uint8`` code-length payload.
    """
    if (not isinstance(extract, PairColumns)
            or not isinstance(sketch, CodeOffsetSketch)
            or sketch.response_length != extract.index.shape[0]
            or parsed is None or parsed.dtype.type is not np.uint8
            or parsed.shape != (sketch.code.n,)):
        return None
    key = sketch.kernel_key()
    if key is None:
        return None
    return PairBlock(extract.index, extract.trend, extract.kind,
                     extract.gap, sketch, parsed, key_check, memo,
                     (extract.kind, extract.trend is not None, key,
                      extract.gap))


class DescribedHelper:
    """A hypothesis helper held as a manipulation of an enrolled helper.

    The adaptive §VI attacks compare helpers that differ from the
    enrolled one by a few orientation flips and a swap, or by an
    injected trend plus a rewritten grouping and payload.  A described
    helper keeps that difference instead of a finished helper object.
    :meth:`apply` builds the real helper from an enrolled one; the
    scalar oracle and every route that cannot use the description
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

    def described_as(self, keygen, array, block: Optional[PairBlock]
                     ) -> None:
        """Record *block* as this description's block on *keygen*'s
        *array*, for a keygen that describes several at once."""
        self._described = (keygen, array, block)


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
    #: Fresh patterns awaiting the kernel, ``(keys, fresh, inverse,
    #: rows)``: every distinct pattern's memo key, the fresh ones'
    #: indices (the prepared pattern order), the row -> distinct map
    #: and the planned rows; ``None`` once nothing is pending.
    pending: Optional[Tuple[List[bytes], np.ndarray, np.ndarray,
                            Union[np.ndarray, slice]]]
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
        return cls(np.asarray(outcomes, dtype=bool), None, None, None,
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
        if self.pending is not None:
            keys, fresh, inverse, rows = self.pending
            results = np.asarray(
                self.completion.finish(self.state, outputs),
                dtype=bool)
            distinct = np.zeros(len(keys), dtype=bool)
            distinct[fresh] = results
            # Fresh rows are still False, resolved rows keep theirs.
            self.outcomes[rows] |= distinct[inverse]
            self.memo.update(zip(map(keys.__getitem__, fresh.tolist()),
                                 results.tolist()))
            self.pending = None
        return self.outcomes

    def execute(self) -> np.ndarray:
        """Run this plan's own kernel and finalize (single-plan driver)."""
        (outputs,) = run_kernels([self.workload])
        return self.finalize(outputs)


def _memo_groups(bits: np.ndarray, memos: Sequence[Dict[bytes, bool]],
                 owner: Optional[np.ndarray] = None,
                 widths: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray, List[bytes],
                            np.ndarray]:
    """One ``row_groups`` pass over *bits*, then one memo pass.

    Rows group per *owner* (row -> index into *memos*) when given,
    else all consult ``memos[0]``.  A pattern's memo key is its
    ``tobytes()``, cut to ``widths[owner]`` bytes when given.  Returns
    ``(first, inverse, keys, known)``: each distinct pattern's first
    row, the row -> distinct map, the memo keys and the memoized
    outcomes as ``int8`` (``-1`` = unseen).
    """
    first, inverse = row_groups(bits, owner)
    if owner is None:
        lookups = repeat(memos[0], first.size)
    else:
        owners = owner[first]
        lookups = map(memos.__getitem__, owners.tolist())
    patterns = np.ascontiguousarray(bits[first])
    wide = patterns.dtype.itemsize * patterns.shape[1]
    keys = (patterns.view(np.dtype((np.void, wide))).ravel().tolist()
            if wide else [b""] * first.size)
    if owner is not None:
        cut = widths[owners]
        short = np.flatnonzero(cut < wide)
        for row, width in zip(short.tolist(), cut[short].tolist()):
            keys[row] = keys[row][:width]
    known = np.fromiter(map(dict.get, lookups, keys, repeat(-1)),
                        dtype=np.int8, count=first.size)
    return first, inverse, keys, known


def _build_plan(bits: np.ndarray, rows: Optional[np.ndarray],
                completion: SketchCompletion, memo: Dict[bytes, bool],
                count: int) -> EvalPlan:
    """Dedup a bit matrix against the memo and prepare the rest.

    *rows* restricts the scan (rows a device check accepts); excluded
    rows stay ``False``, as their observable refusal on the scalar path.
    """
    if rows is None:
        rows = slice(None)
    subset = bits[rows]
    first, inverse, keys, known = _memo_groups(subset, (memo,))
    outcomes = np.zeros(count, dtype=bool)
    outcomes[rows] = (known == 1)[inverse]
    fresh = np.flatnonzero(known < 0)
    if not fresh.size:
        return EvalPlan(outcomes, None, None, None, None, memo)
    workload, state = completion.prepare(subset[first[fresh]])
    return EvalPlan(outcomes, (keys, fresh, inverse, rows), completion,
                    state, workload, memo)


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

    *extract* is the device's extraction: its ``checked`` method turns
    a ``(B, n)`` readings block, in one pass, into ``(bits, accepted)``
    — the ``(B, bits)`` response matrix and the ``(B,)`` rows the
    device's checks accept, ``None`` for every row.  The check is a
    :class:`PairColumns`' :attr:`~PairColumns.gap`, or the
    temperature-aware interval and assistance refusals.
    *completion* finishes the distinct patterns of the accepted rows;
    refused rows fail without reaching it.  A completion without key
    assembly whose extraction and sketch make a :func:`pair_block` is
    also a :attr:`block` sharing the evaluator's memo, so frontier
    rounds stack its blocks with those of the same stack key.
    """

    def __init__(self, extract, completion: SketchCompletion):
        self._extract = extract
        self._completion = completion
        self._memo: Dict[bytes, bool] = {}
        if completion.assemble is None:
            self.block = pair_block(extract, completion.sketch,
                                    completion.parsed,
                                    completion.key_check, self._memo)

    def plan(self, freqs: np.ndarray) -> EvalPlan:
        """Phase 1: extract and dedup; declare the kernel workload."""
        bits, accepted = self._extract.checked(
            np.asarray(freqs, dtype=float))
        rows = None if accepted is None else np.flatnonzero(accepted)
        return _build_plan(bits, rows, self._completion, self._memo,
                           bits.shape[0])


# ----------------------------------------------------------------------
# frontier plans: one evaluation pass per lock-step round


#: One frontier item: its own :class:`EvalPlan`, or a stackable
#: ``(block, noise, base)``: the :class:`PairBlock`, its ``(B, n)``
#: noise rows and the base frequencies they add to, one ``(1, n)`` row
#: or a ``(B, n)`` row per sample.
FrontierEntry = Union[EvalPlan,
                      Tuple[PairBlock, np.ndarray, np.ndarray]]


class _StackedGroup:
    """Stackable blocks of one shape and one stack key.

    Planned as one: a single gather and compare over the stacked
    frequencies (each block's trend subtracted, its pair index padded
    to the widest block and masked), one dedup keyed by (block,
    pattern), memo lookups for all distinct patterns in one pass and
    one payload-shifted decode workload over the fresh patterns.  Rows
    a :attr:`PairBlock.gap` check refuses (padded pairs masked out)
    resolve ``False`` before the dedup, as in own plans.  The stack
    key names the code's parent, so blocks over different shortenings
    share the workload: payloads are padded to the longest code, whose
    decoder bounds each row by its own code length.
    :meth:`finalize` XORs the payloads back, truncates each pattern to
    its block's length and hashes the key checks of the whole group in
    one pass.  A group of one block is planned the same way.
    """

    def __init__(self, blocks: List[Tuple[int, PairBlock, np.ndarray,
                                          np.ndarray]]) -> None:
        self.slots = [entry[0] for entry in blocks]
        sources = [entry[1] for entry in blocks]
        self._memos = [source.memo for source in sources]
        self._checks = [source.key_check for source in sources]
        self._count = count = blocks[0][2].shape[0]
        # (blocks, rows, columns): the noise is stacked, then every
        # block's base is added in one operation.  Each element is
        # still its block's noise + base, the sum the oracle's own
        # plans take, bit for bit.  A lone block needs no stack copy.
        if len(blocks) == 1:
            ((_, _, noise, base),) = blocks
            freqs = (noise + base)[None]
        else:
            freqs = np.array([entry[2] for entry in blocks])
            bases = [entry[3] for entry in blocks]
            if len({base.shape for base in bases}) > 1:
                # Per-row (trajectory) bases beside (1, n) rows.
                bases = [np.broadcast_to(base, freqs.shape[1:])
                         for base in bases]
            freqs += np.array(bases)
        if sources[0].trend is not None:
            freqs -= np.array([source.trend
                               for source in sources])[:, None, :]
        # (blocks, columns, rows): every block of a group has the same
        # row count, so one fancy index per (block, pair) gathers that
        # pair's column for all the block's rows at once.
        freqs = freqs.transpose(0, 2, 1)
        indices = [source.index for source in sources]
        widths = [index.shape[0] for index in indices]
        self._widths = np.array(widths)
        wide = max(widths)
        self._mask = None
        if min(widths) == wide:
            pairs = np.array(indices)
        else:
            self._mask = np.arange(wide) < self._widths[:, None]
            pairs = pad_rows(np.concatenate(indices), self._mask)
        items = np.arange(len(blocks))[:, None]
        a = freqs[items, pairs[:, :, 0]]
        b = freqs[items, pairs[:, :, 1]]
        bits = compare_columns(a, b, sources[0].kind)
        if self._mask is not None:
            bits &= self._mask[:, :, None]
        owner = np.repeat(np.arange(len(blocks)), count)
        bits = bits.transpose(0, 2, 1).reshape(owner.size, wide).view(
            np.uint8)
        self._rows = None
        if sources[0].gap is not None:
            floor, shift = sources[0].gap
            if shift:
                a = freqs[items, pairs[:, :, 0] - shift]
                b = freqs[items, pairs[:, :, 1] - shift]
            refused = _gap_violations(a, b, floor)
            if self._mask is not None:
                # A padded (0, 0) pair has gap 0.
                refused &= self._mask[:, :, None]
            self._rows = np.flatnonzero(~refused.any(axis=1).ravel())
            bits, owner = bits[self._rows], owner[self._rows]
        # A lone block's rows all consult its memo at full width.
        first, self._inverse, self._keys, known = _memo_groups(
            bits, self._memos, owner if len(blocks) > 1 else None,
            self._widths)
        owners = owner[first]
        patterns = bits[first]
        self._results = known == 1
        self.workload: Optional[KernelWorkload] = None
        self._fresh = np.flatnonzero(known < 0)
        if self._fresh.size:
            self._owners = owners[self._fresh]
            # Payloads are code-length; blocks over shorter codes of
            # the stack key's parent pad theirs and bound their rows.
            parsed = [source.parsed for source in sources]
            lengths = [payload.shape[0] for payload in parsed]
            longest = max(lengths)
            bounds = None
            if min(lengths) == longest:
                payloads = np.array(parsed)
            else:
                codes = np.array(lengths)
                payloads = pad_rows(np.concatenate(parsed),
                                    np.arange(longest) < codes[:, None])
                bounds = codes[self._owners]
            self._payloads = payloads[self._owners]
            self.workload = sources[lengths.index(longest)] \
                .sketch.offset_workload(patterns[self._fresh],
                                        self._payloads, bounds)

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
        outcomes = self._results[self._inverse]
        if self._rows is not None:
            accepted = outcomes
            outcomes = np.zeros(len(self.slots) * self._count, dtype=bool)
            outcomes[self._rows] = accepted
        return list(outcomes.reshape(len(self.slots), self._count))


class FrontierPlan:
    """Phase 1 for a whole lock-step round of evaluation items.

    *entries* come in round order, one per item (see
    :data:`FrontierEntry`).  Stackable blocks are grouped by block
    shape (rows, frequency width) and stack key (comparison kind,
    trend, the sketch's parent-level kernel key, gap check), and each
    group — a lone block too — is planned as one (:class:`_StackedGroup`).
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
                block, noise, base = entry
                blocks.setdefault((noise.shape, block.stack_key),
                                  []).append((slot, block, noise, base))
        self._groups = [_StackedGroup(group) for group in blocks.values()]

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
