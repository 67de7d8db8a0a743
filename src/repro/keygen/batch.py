"""Vectorized success evaluation for batched oracle queries.

The helper-data attacks of paper §VI only ever observe one bit per
reconstruction attempt: did the device regenerate its key?  Estimating
the failure *rates* that drive every distinguisher therefore reduces to
mapping a batch of measurement vectors to a batch of success booleans —
and for every construction that outcome is a deterministic function of
the (discrete) response-bit vector the measurement produces.

So one pipeline evaluates every helper: extract a block's response bits
in one NumPy pass, dedup them against the helper's memo, run one
code-offset decode over the fresh distinct patterns, then finalize
(payload unshift, optional key assembly, key check).  A keygen's
:class:`BatchEvaluator` hands that pipeline a :class:`PairBlock` — its
extraction, completion and memo as arrays — or nothing, a refusal whose
rows all fail.

A :class:`FrontierPlan` runs the pipeline for a whole lock-step round
in three phases (``docs/evaluators.md``): planning extracts and dedups
and *declares* the round's kernel work
(:class:`~repro.ecc.kernel.KernelWorkload` objects keyed by the code's
parent); the caller runs it through
:func:`repro.ecc.kernel.run_kernels`, one call per distinct key; and
:meth:`FrontierPlan.finalize` unwinds the outputs into per-row success
booleans.  Blocks described by :class:`PairColumns` with a bare
code-offset completion stack with others of their stack key; every
other block is a group of one.  Outcomes are bitwise-identical for
every round composition, and equal to the scalar
:meth:`SketchCompletion.complete` reference row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    """One frontier item's extraction and completion, as arrays.

    What a :class:`FrontierPlan` reads to plan a block: the ``(P, 2)``
    pair *index*, *trend*, comparison *kind* and measured-threshold
    *gap* of a :class:`PairColumns` extraction; the code-offset
    *sketch* completing it; the block's *parsed* payload and
    *key_check*; and the *memo* of finalized patterns the block
    consults before the round and extends after it.  A block whose
    extraction pair columns do not describe (for example the
    temperature-aware ``SensedCooperation``) has no index and keeps
    the extraction in *extract*; *assemble* is an optional key
    assembly (:attr:`SketchCompletion.assemble`).

    *stack_key* is ``(kind, trend is not None, sketch kernel key,
    gap)``, the sketch key naming the code's parent (so every
    shortening of one BCH parent shares it): only blocks of one stack
    key and one row shape stack.  It is ``None`` for a block that is
    always a group of one: an assembled or non-pair block, or a code
    without a kernel key.
    """

    index: Optional[np.ndarray]
    trend: Optional[np.ndarray]
    kind: str
    gap: Optional[Tuple[float, int]]
    sketch: CodeOffsetSketch
    parsed: np.ndarray
    key_check: bytes
    memo: Dict[bytes, bool]
    stack_key: Optional[tuple]
    extract: object = None
    assemble: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def checked(self, readings: np.ndarray
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(bits, accepted)`` of a ``(B, width)`` readings block,
        through :attr:`extract` or the block's own pair columns."""
        extract = self.extract
        if extract is None:
            extract = PairColumns(self.index, self.trend, self.kind,
                                  self.gap)
        return extract.checked(readings)


def pair_block(extract, sketch: CodeOffsetSketch,
               parsed: Optional[np.ndarray], key_check: bytes,
               memo: Dict[bytes, bool], assemble=None
               ) -> Optional[PairBlock]:
    """The one block rule: *extract* completed by *sketch* over the
    *parsed* payload, then *assemble*, as a block — or ``None``, a
    refusal.

    *extract* is any extraction with ``checked(readings) -> (bits,
    accepted)``.  A malformed payload (``None``, or not a ``uint8``
    code-length vector) or a :class:`PairColumns` extraction whose
    pair count is not the sketch's response length refuses every row.
    Only a :class:`PairColumns` extraction without assembly over a
    code with a kernel key gets a :attr:`PairBlock.stack_key`.
    """
    if not isinstance(sketch, CodeOffsetSketch):
        raise TypeError("batch evaluation completes through a "
                        "code-offset sketch")
    if (parsed is None or parsed.dtype.type is not np.uint8
            or parsed.shape != (sketch.code.n,)):
        return None
    if not isinstance(extract, PairColumns):
        return PairBlock(None, None, "", None, sketch, parsed, key_check,
                         memo, None, extract, assemble)
    if sketch.response_length != extract.index.shape[0]:
        return None
    key = sketch.kernel_key()
    return PairBlock(extract.index, extract.trend, extract.kind,
                     extract.gap, sketch, parsed, key_check, memo,
                     None if key is None or assemble is not None
                     else (extract.kind, extract.trend is not None, key,
                           extract.gap),
                     None, assemble)


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
    compare the key's digest against the public commitment.
    :class:`ResponseBitEvaluator` turns it into a :class:`PairBlock`,
    whose frontier group runs the same steps for many patterns at
    once; :meth:`complete` is the scalar reference it must match
    pattern for pattern.
    """

    sketch: SecureSketch
    helper: SketchData
    key_check: bytes
    #: Optional key assembly.  Calling it maps one recovered response
    #: to key bits and may raise ``ValueError`` for an observably
    #: invalid recovery (e.g. a mis-corrected stream that is not a
    #: valid Kendall word); its ``batch`` method maps a ``(U, bits)``
    #: block to ``(keys, valid)`` in one pass, row-wise equal to the
    #: call.
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
# evaluators


class BatchEvaluator:
    """A helper's batch evaluation on one device: its frontier block.

    A :class:`FrontierPlan` evaluates :attr:`block`; row ``i`` of its
    outcome must equal what a sequential ``reconstruct`` call
    observing measurement row ``i`` would report (``True`` = key
    regenerated), so batched and scalar simulation stay
    interchangeable query-for-query.  A block keeps a per-helper memo
    of finalized patterns, so each distinct pattern is completed at
    most once.  A ``None`` block is a refusal: every row fails.
    """

    #: The evaluator's :class:`PairBlock`; ``None`` refuses every row.
    block: Optional[PairBlock] = None

    @property
    def stack_key(self) -> Optional[tuple]:
        """The stack key of :attr:`block`, ``None`` if it does not stack."""
        return None if self.block is None else self.block.stack_key


class ConstantEvaluator(BatchEvaluator):
    """Helper data that fails every reconstruction: a refusal.

    Structurally invalid helper data (rejected pair lists, mismatched
    group maps) fails every reconstruction before a single frequency is
    inspected; a refusal resolves its rows without any per-query
    validation or kernel work.
    """

    def __init__(self, value: bool = False):
        if value:
            raise ValueError("a constant outcome is a refusal (False)")


class ResponseBitEvaluator(BatchEvaluator):
    """The common scheme shape: vectorized bits, memoized completion.

    *extract* is the device's extraction: its ``checked`` method turns
    a ``(B, n)`` readings block, in one pass, into ``(bits, accepted)``
    — the ``(B, bits)`` response matrix and the ``(B,)`` rows the
    device's checks accept, ``None`` for every row.  The check is a
    :class:`PairColumns`' :attr:`~PairColumns.gap`, or the
    temperature-aware interval and assistance refusals.
    *completion* finishes the distinct patterns of the accepted rows;
    refused rows fail without reaching it.  Both become the
    evaluator's :attr:`block` (:func:`pair_block`), sharing the
    evaluator's memo.
    """

    def __init__(self, extract, completion: SketchCompletion):
        self._memo: Dict[bytes, bool] = {}
        self.block = pair_block(extract, completion.sketch,
                                completion.parsed, completion.key_check,
                                self._memo, completion.assemble)


# ----------------------------------------------------------------------
# frontier plans: one evaluation pass per lock-step round


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


class _Group:
    """Blocks of a round planned as one.

    A group of one block extracts through the block's own
    :meth:`PairBlock.checked`.  A group of several blocks — pair-column
    blocks of one shape and one stack key — stacks their frequencies
    for a single gather and compare (each block's trend subtracted,
    its pair index padded to the widest block and masked) and refuses
    the rows a :attr:`PairBlock.gap` check refuses from the columns it
    gathers (padded pairs masked out).  Either way the accepted rows
    take one dedup keyed by (block, pattern), memo lookups for all
    distinct patterns in one pass and one payload-shifted decode
    workload over the fresh patterns.  The stack key names the code's
    parent, so blocks over different shortenings share the workload:
    payloads are padded to the longest code, whose decoder bounds each
    row by its own code length.  :meth:`finalize` XORs the payloads
    back, truncates each pattern to its block's length, assembles a
    lone block's key and hashes the key checks of the whole group in
    one pass.
    """

    def __init__(self, blocks: List[Tuple[int, PairBlock, np.ndarray,
                                          np.ndarray]]) -> None:
        self.slots = [entry[0] for entry in blocks]
        sources = [entry[1] for entry in blocks]
        self._memos = [source.memo for source in sources]
        self._checks = [source.key_check for source in sources]
        self._assemble = sources[0].assemble
        self._count = blocks[0][2].shape[0]
        self._mask = self._rows = owner = None
        if len(blocks) == 1:
            ((_, source, noise, base),) = blocks
            bits, accepted = source.checked(noise + base)
            self._widths = np.array([bits.shape[1]])
            if accepted is not None:
                self._rows = np.flatnonzero(accepted)
                bits = bits[self._rows]
        else:
            bits, owner = self._gather(blocks)
        # A lone block's rows all consult its memo at full width.
        first, self._inverse, self._keys, known = _memo_groups(
            bits, self._memos, owner, self._widths)
        patterns = bits[first]
        self._results = known == 1
        self.workload: Optional[KernelWorkload] = None
        self._fresh = np.flatnonzero(known < 0)
        if self._fresh.size:
            self._owners = (np.zeros(self._fresh.size, dtype=np.intp)
                            if owner is None
                            else owner[first[self._fresh]])
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

    def _gather(self, blocks) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked blocks' accepted ``(rows, wide)`` bits and each
        row's block."""
        sources = [entry[1] for entry in blocks]
        # (blocks, rows, columns): the noise is stacked, then every
        # block's base is added in one operation.  Each element is
        # still its block's noise + base, the sum a lone block takes,
        # bit for bit.
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
        owner = np.repeat(np.arange(len(blocks)), self._count)
        bits = bits.transpose(0, 2, 1).reshape(owner.size, wide).view(
            np.uint8)
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
        return bits, owner

    def finalize(self, outputs: "Optional[tuple]") -> List[np.ndarray]:
        """Per-block success vectors from the group's kernel outputs."""
        if self.workload is not None:
            codewords, ok = outputs
            keys = (self._payloads ^ codewords)[:, :self._widths.max()]
            if self._mask is not None:
                keys &= self._mask[self._owners]
            good = np.flatnonzero(ok)
            owners = self._owners[good]
            keys, lengths = keys[good], self._widths[owners]
            if self._assemble is not None:
                # A lone block's key assembly.  A ValueError fails
                # every fresh row, as the scalar completion fails.
                try:
                    keys, valid = self._assemble.batch(keys)
                except ValueError:
                    valid = np.zeros(good.size, dtype=bool)
                good, owners, keys = good[valid], owners[valid], \
                    keys[valid]
                lengths = None
            checks = self._checks
            flags = np.zeros(self._owners.size, dtype=bool)
            flags[good] = [
                digest == checks[slot] for digest, slot in zip(
                    key_check_digests(keys, lengths), owners.tolist())]
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

    *entries* come in round order, one per item: ``(block, noise,
    base)``, the item's :class:`PairBlock` — or ``None``, a refusal
    whose rows all fail — its ``(B, n)`` noise rows and the base
    frequencies they add to, one ``(1, n)`` row or a ``(B, n)`` row per
    sample.  Blocks with a stack key are grouped by block shape (rows,
    frequency width) and stack key (comparison kind, trend, the
    sketch's parent-level kernel key, gap check); every other block is
    a group of one.  Each group is planned as one (:class:`_Group`).
    Run :attr:`workloads` through
    :func:`~repro.ecc.kernel.run_kernels` — one call per distinct key
    — and hand the outputs to :meth:`finalize`.

    Stacking changes no outcome, memo entry or kernel row: dedup stays
    per item and consults each block's memo as it stood before the
    round, so outcomes are bitwise-identical to one-item frontiers.
    """

    def __init__(self, entries: Sequence[Tuple[Optional[PairBlock],
                                               np.ndarray,
                                               np.ndarray]]) -> None:
        self._refused: List[Tuple[int, int]] = []
        groups: Dict[object, list] = {}
        for slot, (block, noise, base) in enumerate(entries):
            if block is None:
                self._refused.append((slot, noise.shape[0]))
                continue
            key = (slot if block.stack_key is None
                   else (noise.shape, block.stack_key))
            groups.setdefault(key, []).append((slot, block, noise, base))
        self._size = len(entries)
        self._groups = [_Group(group) for group in groups.values()]

    @property
    def workloads(self) -> List[Optional[KernelWorkload]]:
        """The round's declared kernel work, aligned with
        :meth:`finalize`'s *outputs*."""
        return [group.workload for group in self._groups]

    def finalize(self, outputs: Sequence["Optional[tuple]"]
                 ) -> List[np.ndarray]:
        """Phase 3: every item's success vector, in entry order."""
        results: List[Optional[np.ndarray]] = [None] * self._size
        for slot, count in self._refused:
            results[slot] = np.zeros(count, dtype=bool)
        for group, output in zip(self._groups, outputs):
            for slot, outcomes in zip(group.slots,
                                      group.finalize(output)):
                results[slot] = outcomes
        return results

    def execute(self) -> List[np.ndarray]:
        """Run this frontier's own kernels and finalize."""
        return self.finalize(run_kernels(self.workloads))
