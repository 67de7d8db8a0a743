"""Stateless fused kernels: stack per-device ECC work into one call.

The two-phase evaluator protocol (``docs/evaluators.md``) separates a
batch evaluation into a *plan* (per-device bit extraction and dedup), a
*kernel* (the expensive vectorized ECC/decode work), and a *finalize*
(per-device unwind and key assembly).  This module owns the middle
phase: a :class:`KernelWorkload` is the plan's declaration of kernel
work — input rows plus a structural :func:`kernel key <KernelWorkload>`
identifying the computation — and :func:`run_kernels` executes a round's
worth of workloads with **one kernel call per distinct key**, stacking
the rows of every workload that shares a key and splitting the outputs
back.

Fusion is sound because every participating kernel is *row-local*: the
output rows of ``BCHCode.decode_batch`` / ``solve_syndromes_batch`` (and
the other ``decode_batch`` implementations) are functions of the
corresponding input row alone, so the result of a row cannot depend on
which other rows shared its call.  Two workloads carry the same key only
when their kernels are structurally interchangeable (same code
parameters, same bounds), which makes the fused outputs bitwise-equal to
running each workload's own kernel separately — the equivalence contract
pinned in ``tests/ecc/test_kernel.py`` and
``benchmarks/bench_campaign_fusion.py``.

Code-offset workloads key on the code's *parent*
(:meth:`~repro.ecc.base.BlockCode.parent_key`), so words of different
shortenings of one BCH parent share a key but not a width.  Such a
group is padded with zeros to its widest member and decoded by that
member's kernel with per-row position bounds (each row's own code
length, or the bound its workload carries); every member's word-shaped
outputs are cut back to its own width.  Shortening only zeroes high
positions, so this too equals each member's own call bit for bit
(``tests/ecc/test_shortened_fusion.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KernelWorkload",
    "KernelStats",
    "kernel_stats",
    "run_kernels",
]

#: A batch kernel: maps an ``(R, width)`` input matrix to one or more
#: output arrays whose leading dimension is ``R``.
KernelFn = Callable[[np.ndarray], object]


@dataclass
class KernelWorkload:
    """One plan's declared share of a round's kernel work.

    Parameters
    ----------
    key:
        Structural identity of the computation (a hashable tuple built
        from :meth:`~repro.ecc.base.BlockCode.kernel_key` or
        :meth:`~repro.ecc.base.BlockCode.parent_key` plus any kernel
        bounds).  Workloads with equal keys are fused into one kernel
        call; ``None`` marks a kernel without a structural identity,
        which always runs alone.
    words:
        ``(R, width)`` input rows (bit matrix or syndrome matrix,
        kernel-dependent).  All workloads sharing a key must agree on
        dtype, and on width unless the key is a parent key (see the
        module docstring).
    kernel:
        The stateless batch callable.  Workloads sharing a key must
        hold interchangeable kernels (bound to structurally identical
        codes, or to shortenings of one parent); the fused call uses
        the first one of the widest members.

    The dataclass holds only arrays, plain values and picklable kernel
    objects (bound methods of picklable codes, or the small kernel
    dataclasses in :mod:`repro.ecc.sketch`), so a workload can cross a
    process boundary under the fleet engine's copy-on-dispatch rule.
    """

    key: Optional[Tuple]
    words: np.ndarray
    kernel: KernelFn
    #: Optional ``(R,)`` per-row position bounds, passed to the kernel
    #: as ``kernel(words, bounds)``: row ``r`` is a word of the key's
    #: parent code shortened to ``bounds[r]`` bits.  ``None`` bounds
    #: every row by the row width.
    bounds: Optional[np.ndarray] = None

    @property
    def rows(self) -> int:
        """Number of input rows this workload contributes."""
        return int(self.words.shape[0])


@dataclass
class KernelStats:
    """Running account of kernel-phase work (calls, rows, seconds).

    ``benchmarks/bench_campaign_fusion.py`` resets the module-level
    :data:`kernel_stats` instance around a campaign run to measure how
    much kernel time fusion saves; the counters are otherwise inert
    bookkeeping (one ``perf_counter`` pair per kernel call).
    """

    calls: int = 0
    rows: int = 0
    seconds: float = field(default=0.0)

    def reset(self) -> None:
        """Zero all counters."""
        self.calls = 0
        self.rows = 0
        self.seconds = 0.0


#: Module-level kernel accounting, shared by every :func:`run_kernels`.
kernel_stats = KernelStats()


def _as_output_tuple(result: object) -> Tuple[np.ndarray, ...]:
    """Normalise a kernel result to a tuple of row-aligned arrays."""
    if isinstance(result, tuple):
        return tuple(np.asarray(part) for part in result)
    return (np.asarray(result),)


def _timed_call(kernel: KernelFn, words: np.ndarray,
                bounds: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, ...]:
    """Run one kernel call, accounting it in :data:`kernel_stats`."""
    start = time.perf_counter()
    result = _as_output_tuple(kernel(words) if bounds is None
                              else kernel(words, bounds))
    kernel_stats.seconds += time.perf_counter() - start
    kernel_stats.calls += 1
    kernel_stats.rows += int(words.shape[0])
    return result


def pad_rows(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Ragged rows, concatenated along axis 0 in *values*, zero-padded
    to the leading runs *mask* marks (``arange(width) < lengths[:,
    None]``), in one masked fill."""
    padded = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
    padded[mask] = values
    return padded


def stack_workloads(group: Sequence[KernelWorkload]
                    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Concatenate the input rows of same-key workloads, in order.

    Returns ``(words, bounds)``.  Rows narrower than the widest member
    are zero-padded, and then, or when any member carries bounds,
    every row gets one: its workload's bound, else its own width.
    """
    if len(group) == 1:
        return group[0].words, group[0].bounds
    widths = [workload.words.shape[1] for workload in group]
    wide = max(widths)
    if min(widths) == wide and all(workload.bounds is None
                                   for workload in group):
        return np.concatenate([workload.words for workload in group],
                              axis=0), None
    lengths = np.repeat(widths, [workload.rows for workload in group])
    words = pad_rows(np.concatenate([workload.words for workload in group],
                                    axis=None),
                     np.arange(wide) < lengths[:, None])
    bounds = np.concatenate([
        np.full(workload.rows, width) if workload.bounds is None
        else workload.bounds for workload, width in zip(group, widths)],
        dtype=np.int64)
    return words, bounds


def split_outputs(outputs: Tuple[np.ndarray, ...],
                  sizes: Sequence[int]) -> List[Tuple[np.ndarray, ...]]:
    """Split stacked kernel outputs back into per-workload tuples.

    Every output array is split along axis 0 at the cumulative row
    boundaries of *sizes*; entry ``i`` of the returned list is the
    output tuple workload ``i`` would have received from its own call.
    """
    bounds = np.cumsum(sizes)[:-1]
    parts = [np.split(array, bounds, axis=0) for array in outputs]
    return [tuple(part[index] for part in parts)
            for index in range(len(sizes))]


def run_kernels(workloads: Sequence[Optional[KernelWorkload]]
                ) -> List[Optional[Tuple[np.ndarray, ...]]]:
    """Execute a round of workloads, fused per distinct kernel key.

    Workloads sharing a key are stacked (:func:`stack_workloads`) and
    answered by **one** kernel call, the widest member's; keyless
    (``key is None``) and lone workloads run individually.  ``None``
    or empty workloads yield ``None`` outputs.  Returns one output
    tuple per input workload, in input order — bitwise-identical to
    calling each workload's own kernel on its own rows, because every
    participating kernel is row-local (see the module docstring);
    word-shaped outputs of padded members are cut back to their width.
    """
    outputs: List[Optional[Tuple[np.ndarray, ...]]] = \
        [None] * len(workloads)
    groups: Dict[Tuple, List[int]] = {}
    solo: List[int] = []
    for index, workload in enumerate(workloads):
        if workload is None or workload.rows == 0:
            continue
        if workload.key is None:
            solo.append(index)
        else:
            groups.setdefault(workload.key, []).append(index)
    for index in solo:
        workload = workloads[index]
        outputs[index] = _timed_call(workload.kernel, workload.words,
                                     workload.bounds)
    for indices in groups.values():
        members = [workloads[i] for i in indices]
        widths = [member.words.shape[1] for member in members]
        wide = max(widths)
        stacked, bounds = stack_workloads(members)
        fused = _timed_call(members[widths.index(wide)].kernel, stacked,
                            bounds)
        if len(members) == 1:
            outputs[indices[0]] = fused
            continue
        pieces = split_outputs(fused, [m.rows for m in members])
        for slot, index in enumerate(indices):
            piece = pieces[slot]
            if widths[slot] < wide:
                piece = tuple(part[:, :widths[slot]] if part.ndim == 2
                              else part for part in piece)
            outputs[index] = piece
    return outputs
