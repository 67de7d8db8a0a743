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
from typing import List, Sequence, Tuple

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
    ResponseBitEvaluator,
    SketchCompletion,
)
from repro.puf.measurement import enroll_frequencies
from repro.puf.ro_array import ROArray


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


class KendallPairs:
    """Batched Kendall extraction for one group map, by size class.

    Every label pair ``(x, y)`` of every group is resolved to its two
    member oscillators once, one gather table per group size, so a
    ``(B, n)`` residual batch becomes its ``(B, bits)`` Kendall streams
    in two gathers and one comparison per class.
    """

    def __init__(self, groups: Sequence[Sequence[int]]):
        sizes = tuple(map(len, groups))
        if 0 in sizes:
            raise ValueError("empty group in helper data")
        layout = pack_layout(sizes)
        members = np.fromiter(chain.from_iterable(groups), dtype=np.intp,
                              count=sum(sizes))
        self.stream_bits = layout.stream_bits
        self._classes = []
        for group_class in layout.classes:
            xs, ys = pair_table(group_class.size)
            cols = group_class.member_cols
            self._classes.append((members[cols[:, xs]],
                                  members[cols[:, ys]],
                                  group_class.kendall_cols))

    def __call__(self, residuals: np.ndarray) -> np.ndarray:
        """Kendall streams of a ``(B, n)`` residual batch, ``(B, bits)``.

        Row ``i`` equals the scalar reference :func:`kendall_stream` of
        ``residuals[i]``.  Label ``y`` precedes ``x < y`` in the stable descending order
        exactly when its residual is larger, or when only ``x``'s is
        NaN (the sort places NaN last), so no sort is needed.
        """
        residuals = np.asarray(residuals, dtype=float)
        if residuals.ndim != 2:
            raise ValueError("batch evaluation needs a (B, n) matrix")
        out = np.empty((residuals.shape[0], self.stream_bits),
                       dtype=np.uint8)
        for x_members, y_members, columns in self._classes:
            first = residuals[:, x_members]
            second = residuals[:, y_members]
            out[:, columns] = (second > first) | (np.isnan(first)
                                                  & ~np.isnan(second))
        return out


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
        """Vectorized evaluator: one decode per distinct pattern."""
        grouping = helper.grouping
        try:
            pairs = KendallPairs(grouping.groups)
            bits = pairs.stream_bits
            sketch = self.sketch_for(bits) if bits else None
        except ValueError:
            return ConstantEvaluator(False)
        if sketch is None:
            # A stream of zero bits cannot be provisioned; the scalar
            # path fails on sketch construction for every query.
            return ConstantEvaluator(False)
        x, y = array.x, array.y
        distiller = self._distiller
        distiller_helper = helper.distiller

        def extract(freqs: np.ndarray) -> np.ndarray:
            return pairs(distiller.residuals_batch(x, y, freqs,
                                                   distiller_helper))

        completion = SketchCompletion(
            sketch, helper.sketch, helper.key_check,
            assemble=_PackKeyAssembler(tuple(grouping.sizes)))
        return ResponseBitEvaluator(extract, completion)
