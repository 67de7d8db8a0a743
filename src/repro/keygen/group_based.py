"""End-to-end group-based RO PUF key generator (paper Fig. 4).

Pipeline: RO array → entropy distillation → grouping algorithm →
Kendall coding → ECC → entropy packing → secret key.  Public helper
data, exactly as drawn on the IC boundary in Fig. 4: polynomial
coefficients, group information and ECC redundancy (plus the key-check
commitment that models the key-dependent application).

Every helper component is attacker-writable; the §VI-C attack rewrites
all of them at once to *reprogram* the device key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RNGLike, ensure_rng
from repro.distiller.distiller import DistillerHelper, EntropyDistiller
from repro.ecc.sketch import SketchData
from repro.grouping.algorithm import GroupingHelper, GroupingScheme
from repro.grouping.kendall import (
    kendall_encode,
    order_from_frequencies,
    pair_table,
)
from repro.grouping.packing import pack_key, pack_key_batch, pack_layout
from repro.keygen.base import (
    CodeProvider,
    KeyGenerator,
    OperatingPoint,
    ReconstructionFailure,
    bch_provider,
    key_check_digest,
)
from repro.keygen.batch import (
    ConstantEvaluator,
    DescribedHelper,
    PairBlock,
    PairColumns,
    ResponseBitEvaluator,
    SketchCompletion,
    pair_block,
)
from repro.puf.measurement import enroll_frequencies
from repro.puf.ro_array import ROArray
from repro.puf.variation import Polynomial2D, layout_matrix


@dataclass(frozen=True)
class GroupBasedKeyHelper:
    """Complete public helper data of the group-based construction."""

    distiller: DistillerHelper
    grouping: GroupingHelper
    sketch: SketchData
    key_check: bytes

    def with_sketch(self, sketch: SketchData) -> "GroupBasedKeyHelper":
        """Manipulated copy with replaced ECC redundancy."""
        return replace(self, sketch=sketch)


class HypothesisPair:
    """The two §VI-C hypothesis helpers of one comparison, as arrays.

    Both helpers add the injected *payload* polynomial to the enrolled
    distiller and regroup the oscillators into the pairs *groups*
    (also held as the ``(P, 2)`` ``intp`` :attr:`index`); hypothesis
    ``m`` carries sketch payload ``payloads[m]`` (a 0/1 ``uint8`` row
    of the code length) and key check ``key_checks[m]``.
    :attr:`members` are the two described helpers; their blocks share
    one pair index and one trend (:class:`HypothesisGeometry`).
    """

    def __init__(self, enrolled: GroupBasedKeyHelper,
                 payload: Polynomial2D,
                 groups: Sequence[Tuple[int, int]],
                 payloads: np.ndarray,
                 key_checks: Sequence[bytes],
                 index: Optional[np.ndarray] = None) -> None:
        self.enrolled = enrolled
        self.payload = payload
        self.groups = groups
        self.index = (np.array(groups, dtype=np.intp).reshape(-1, 2)
                      if index is None else index)
        self.payloads = payloads
        self.key_checks = tuple(key_checks)
        self.members = (GroupHypothesis(self, 0), GroupHypothesis(self, 1))


class HypothesisGeometry:
    """What every §VI-C hypothesis block on one device shares.

    Built once per ``(array, enrolled helper)`` by
    :meth:`GroupBasedKeyGen.describe`: the design matrix of the device
    layout and the enrolled distiller coefficients.  :meth:`attach`
    builds both members' :class:`~repro.keygen.batch.PairBlock` of a
    :class:`HypothesisPair` in one pass — a Kendall extraction over the
    pairs with the manipulated distiller's trend on the device's row,
    completed by the stream's sketch, as :meth:`GroupBasedKeyGen.
    batch_evaluator` builds for a materialised member — and records
    them as the members' blocks on ``(keygen, array)``.
    """

    def __init__(self, keygen: "GroupBasedKeyGen", array: ROArray,
                 enrolled: GroupBasedKeyHelper) -> None:
        self._keygen = keygen
        self.array = array
        self.enrolled = enrolled
        self._layout = layout_matrix(array.x, array.y,
                                     enrolled.distiller.degree)

    def attach(self, pair: HypothesisPair
               ) -> Tuple[Optional[PairBlock], Optional[PairBlock]]:
        """Both members' blocks (``None`` each where the evaluator of
        the materialised member would not stack)."""
        bits = pair.index.shape[0]
        try:
            sketch = self._keygen.sketch_for(bits) if bits else None
        except ValueError:
            sketch = None
        blocks = (None, None)
        if sketch is not None:
            payload, enrolled = pair.payload, self.enrolled.distiller
            if payload.degree == enrolled.degree:
                # DistillerHelper.with_added adds equal-degree
                # coefficient vectors; the trend is its polynomial
                # over the layout, which is this product.
                trend = self._layout @ (enrolled.coefficients
                                        + payload.coefficients)
            else:
                trend = self._keygen.distiller.trend(
                    self.array.x, self.array.y,
                    enrolled.with_added(payload))
            extract = self._keygen._device_extraction(
                self.array, PairColumns(pair.index, trend, "kendall"))
            payloads, checks = pair.payloads, pair.key_checks
            first = pair_block(extract, sketch, payloads[0], checks[0], {})
            if first is not None:  # both payloads: one uint8 array
                blocks = (first, first._replace(
                    parsed=payloads[1], key_check=checks[1], memo={}))
        for member, block in zip(pair.members, blocks):
            member.described_as(self._keygen, self.array, block)
        return blocks


class GroupHypothesis(DescribedHelper):
    """Member *member* of a :class:`HypothesisPair`."""

    __slots__ = ("pair", "member")

    def __init__(self, pair: HypothesisPair, member: int) -> None:
        super().__init__()
        self.pair = pair
        self.member = member

    @property
    def enrolled(self) -> GroupBasedKeyHelper:
        """The enrolled helper of the attack."""
        return self.pair.enrolled

    def apply(self, helper: GroupBasedKeyHelper) -> GroupBasedKeyHelper:
        """*helper* with the payload, the pairs, and this member's
        sketch payload and key check."""
        pair = self.pair
        return GroupBasedKeyHelper(
            distiller=helper.distiller.with_added(pair.payload),
            grouping=helper.grouping.with_groups(pair.groups),
            sketch=SketchData.of_bits(pair.payloads[self.member].copy()),
            key_check=pair.key_checks[self.member])


def kendall_stream(residuals: np.ndarray,
                   grouping: GroupingHelper) -> np.ndarray:
    """Concatenated Kendall bits of every group, in stored-member labelling.

    The canonical label of a member is its position in the stored group
    tuple; the measured descending-residual order of the labels is
    Kendall-encoded per group and concatenated in group order.
    """
    residuals = np.asarray(residuals, dtype=float)
    chunks: List[np.ndarray] = []
    for group in grouping.groups:
        member_values = residuals[list(group)]
        chunks.append(kendall_encode(order_from_frequencies(member_values)))
    if not chunks:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(chunks)


class KendallPairs(PairColumns):
    """Described Kendall extraction for one group map.

    Every label pair ``(x, y)`` of every group (of sizes
    :attr:`sizes`) is resolved to its two member oscillators once,
    into the ``(bits, 2)`` index of the whole stream, so a ``(B, n)``
    residual batch becomes its ``(B, bits)`` Kendall streams in one
    gather and one ``"kendall"`` comparison
    (:func:`~repro.keygen.batch.compare_columns`).  Row ``i`` equals
    the scalar reference :func:`kendall_stream` of ``residuals[i]``.
    With a *trend*, calling it on measured frequencies subtracts the
    trend first, as :meth:`EntropyDistiller.residuals` does.
    """

    def __init__(self, groups: Sequence[Sequence[int]],
                 trend: Optional[np.ndarray] = None):
        sizes = tuple(map(len, groups))
        if 0 in sizes:
            raise ValueError("empty group in helper data")
        if set(sizes) == {2}:
            # All pairs: label 0 against label 1, in group order.
            index = np.array(groups, dtype=np.intp).reshape(-1, 2)
        else:
            layout = pack_layout(sizes)
            members = np.fromiter(chain.from_iterable(groups),
                                  dtype=np.intp, count=sum(sizes))
            index = np.empty((layout.stream_bits, 2), dtype=np.intp)
            for group_class in layout.classes:
                xs, ys = pair_table(group_class.size)
                cols = group_class.member_cols
                index[group_class.kendall_cols, 0] = members[cols[:, xs]]
                index[group_class.kendall_cols, 1] = members[cols[:, ys]]
        super().__init__(index, trend, "kendall")
        object.__setattr__(self, "sizes", sizes)

    @property
    def stream_bits(self) -> int:
        """Length of the Kendall stream, in bits."""
        return self.index.shape[0]


@dataclass(frozen=True)
class _PackKeyAssembler:
    """Picklable key assembly: Kendall stream → packed key bits.

    A mis-corrected stream that is not a valid Kendall word is an
    observable reconstruction failure: the scalar call raises
    ``ValueError`` and :meth:`batch` marks the row invalid.
    """

    sizes: Tuple[int, ...]

    def __call__(self, stream: np.ndarray) -> np.ndarray:
        """Pack a corrected Kendall stream into key bits."""
        return pack_key(stream, self.sizes)

    def batch(self, streams: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Pack a ``(U, bits)`` block: ``(keys, valid)``."""
        return pack_key_batch(streams, self.sizes)


class GroupBasedKeyGen(KeyGenerator):
    """Device model of the DATE 2013 group-based construction."""

    def __init__(self, distiller_degree: int = 2,
                 group_threshold: float = 50e3,
                 code_provider: CodeProvider = None,
                 storage_order: str = "sorted",
                 enrollment_samples: int = 9,
                 min_group_size: int = 2):
        self._distiller = EntropyDistiller(distiller_degree)
        self._grouping = GroupingScheme(group_threshold,
                                        storage_order=storage_order,
                                        min_group_size=min_group_size)
        self._code_provider = code_provider or bch_provider(3)
        self._samples = int(enrollment_samples)

    @property
    def distiller(self) -> EntropyDistiller:
        """The entropy distiller removing systematic variation."""
        return self._distiller

    @property
    def grouping(self) -> GroupingScheme:
        """The grouping scheme partitioning distilled residuals."""
        return self._grouping

    # ------------------------------------------------------------------

    def enroll(self, array: ROArray, rng: RNGLike = None
               ) -> Tuple[GroupBasedKeyHelper, np.ndarray]:
        """One-time enrollment; returns ``(helper, key_bits)``."""
        gen = ensure_rng(rng)
        freqs = enroll_frequencies(array, self._samples, rng=gen)
        distiller_helper, residuals = self._distiller.enroll(
            array.x, array.y, freqs)
        grouping_helper = self._grouping.enroll(residuals)
        if not grouping_helper.groups:
            raise ValueError("grouping produced no usable groups; "
                             "lower the threshold")
        stream = kendall_stream(residuals, grouping_helper)
        sketch = self.sketch_for(stream.size)
        sketch_data = sketch.generate(stream, gen)
        key = pack_key(stream, grouping_helper.sizes)
        helper = GroupBasedKeyHelper(distiller_helper, grouping_helper,
                                     sketch_data, key_check_digest(key))
        return helper, key

    def reconstruct_from_frequencies(
            self, array: ROArray, freqs: np.ndarray,
            helper: GroupBasedKeyHelper,
            op: OperatingPoint = OperatingPoint()) -> np.ndarray:
        """Regenerate the key from one ``(n,)`` measurement row."""
        residuals = self._distiller.residuals(array.x, array.y, freqs,
                                              helper.distiller)
        try:
            stream = kendall_stream(residuals, helper.grouping)
            sketch = self.sketch_for(stream.size)
            corrected = self._decode_or_fail(
                lambda: sketch.recover(stream, helper.sketch))
            key = pack_key(corrected, helper.grouping.sizes)
        except ValueError as exc:
            # Malformed helper data (wrong payload length, invalid
            # Kendall word after mis-correction, bad group indices).
            raise ReconstructionFailure(str(exc)) from exc
        return self._finish(key, helper.key_check)

    def batch_evaluator(self, array: ROArray,
                        helper: GroupBasedKeyHelper,
                        op: OperatingPoint = OperatingPoint()):
        """Vectorized evaluator: one decode per distinct pattern.

        The extraction is a described :class:`KendallPairs` with the
        distiller's trend.  A grouping of pairs packs to the identity,
        so its completion has no assembly and frontier rounds stack
        its blocks (:class:`~repro.keygen.batch.FrontierPlan`).
        """
        trend = self._distiller.trend(array.x, array.y, helper.distiller)
        try:
            extract = KendallPairs(helper.grouping.groups, trend)
            sketch = (self.sketch_for(extract.stream_bits)
                      if extract.stream_bits else None)
        except ValueError:
            sketch = None
        if sketch is None:
            # An empty group or an unprovisionable (e.g. zero-bit)
            # stream: the scalar path fails for every query.
            return ConstantEvaluator(False)
        sizes = extract.sizes
        completion = SketchCompletion(
            sketch, helper.sketch, helper.key_check,
            assemble=(None if set(sizes) == {2}
                      else _PackKeyAssembler(sizes)))
        return ResponseBitEvaluator(self._device_extraction(array, extract),
                                    completion)

    def describe(self, array: ROArray, described) -> Optional[PairBlock]:
        """A :class:`GroupHypothesis` as its block, with a fresh memo.

        Describes both members of its pair at once
        (:meth:`HypothesisGeometry.attach`), through the geometry of the
        last ``(array, enrolled helper)`` described: a fleet gives
        every device its own keygen, and keeping only the last one
        holds no retired device alive.
        """
        if not isinstance(described, GroupHypothesis):
            return None
        enrolled = described.enrolled
        geometry = self.__dict__.get("_geometry")
        if (geometry is None or geometry.array is not array
                or geometry.enrolled is not enrolled):
            geometry = self._geometry = HypothesisGeometry(self, array,
                                                           enrolled)
        return geometry.attach(described.pair)[described.member]

    def __getstate__(self) -> dict:
        # The geometry names objects of this process: copies drop it.
        state = self.__dict__.copy()
        state.pop("_geometry", None)
        return state
