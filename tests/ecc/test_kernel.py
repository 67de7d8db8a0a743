"""Fused kernel execution: keys, stacking/splitting, sketch two-phase.

The contracts under test (``docs/evaluators.md``):

* ``kernel_key`` — structurally identical codes/sketches agree,
  different geometries differ (fusing across equal keys must be safe).
* ``run_kernels`` — fused outputs are bitwise-identical to running
  each workload's own kernel alone, for any mix of keys.
* sketch ``plan_recover``/``finish_recover`` — the two-phase split
  (and ``recover_batch``, which runs it for one device) is
  bitwise-identical to the row-wise scalar ``recover`` reference.
"""

import numpy as np
import pytest

from repro.ecc import (
    BCHCode,
    BlockwiseCode,
    CodeOffsetSketch,
    DecodingFailure,
    HammingCode,
    RepetitionCode,
    ReedMullerCode,
    SyndromeSketch,
    TrivialCode,
    design_bch,
    kernel_stats,
    run_kernels,
)
from repro.ecc.kernel import KernelWorkload, split_outputs


def noisy_batch(rng, reference, count, max_flips):
    """Rows of *reference* with up to *max_flips* random bit flips."""
    rows = np.tile(reference, (count, 1))
    for i in range(count):
        flips = rng.integers(0, max_flips + 1)
        positions = rng.choice(reference.size, size=flips,
                               replace=False)
        rows[i, positions] ^= 1
    return rows


def scalar_recover(sketch, rows, helper):
    """Row-wise scalar ``recover``; failed rows all-zero, ``ok`` False."""
    recovered = np.zeros_like(rows)
    ok = np.zeros(rows.shape[0], dtype=bool)
    for index, row in enumerate(rows):
        try:
            recovered[index] = sketch.recover(row, helper)
        except DecodingFailure:
            continue
        ok[index] = True
    return recovered, ok


class TestKernelKeys:
    def test_equal_geometry_equal_key(self):
        assert design_bch(64, 3).kernel_key() \
            == design_bch(64, 3).kernel_key()
        assert BCHCode(7, 3).kernel_key() == BCHCode(7, 3).kernel_key()

    def test_different_geometry_different_key(self):
        keys = {design_bch(64, 3).kernel_key(),
                design_bch(60, 3).kernel_key(),
                design_bch(64, 2).kernel_key(),
                RepetitionCode(5).kernel_key(),
                RepetitionCode(7).kernel_key(),
                TrivialCode(8).kernel_key(),
                HammingCode(3).kernel_key(),
                ReedMullerCode(4).kernel_key(),
                BlockwiseCode(RepetitionCode(5), 3).kernel_key()}
        assert len(keys) == 9

    def test_external_code_has_no_key(self):
        class External(TrivialCode):
            def kernel_key(self):
                return super(TrivialCode, self).kernel_key()

        assert External(4).kernel_key() is None
        assert BlockwiseCode(External(4), 2).kernel_key() is None

    def test_sketches_propagate_code_opt_out(self):
        # A code that opts out of fusion (kernel_key None) must opt
        # its sketches out too — never a shared (..., None, ...) key.
        class OptOut(BCHCode):
            def kernel_key(self):
                return None

        code = OptOut(5, 2)
        assert CodeOffsetSketch(code, 20).kernel_key() is None
        assert SyndromeSketch(code, 20).kernel_key() is None

    def test_sketch_keys_follow_code_and_bounds(self):
        code = design_bch(64, 3)
        same = design_bch(64, 3)
        assert CodeOffsetSketch(code, 40).kernel_key() \
            == CodeOffsetSketch(same, 64).kernel_key()
        assert SyndromeSketch(code, 40).kernel_key() \
            == SyndromeSketch(same, 40).kernel_key()
        # The syndrome kernel bounds corrections to the response
        # length, so the length is part of the identity.
        assert SyndromeSketch(code, 40).kernel_key() \
            != SyndromeSketch(same, 41).kernel_key()


class TestRunKernels:
    def test_fused_equals_solo(self):
        rng = np.random.default_rng(7)
        code_a = design_bch(64, 3)
        code_b = design_bch(64, 3)
        other = design_bch(30, 2)
        workloads = []
        for code, count in ((code_a, 5), (code_b, 9), (other, 4)):
            words = (rng.integers(0, 2, size=(count, code.n))
                     .astype(np.uint8))
            workloads.append(KernelWorkload(
                ("decode",) + code.kernel_key(), words,
                code.decode_batch))
        fused = run_kernels(workloads)
        solo = [run_kernels([w])[0] for w in workloads]
        for got, want in zip(fused, solo):
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)

    def test_fusion_reduces_calls(self):
        rng = np.random.default_rng(8)
        code = design_bch(64, 3)
        twin = design_bch(64, 3)
        workloads = [
            KernelWorkload(code.kernel_key(),
                           rng.integers(0, 2, size=(3, code.n))
                           .astype(np.uint8), code.decode_batch),
            KernelWorkload(twin.kernel_key(),
                           rng.integers(0, 2, size=(4, twin.n))
                           .astype(np.uint8), twin.decode_batch)]
        kernel_stats.reset()
        outputs = run_kernels(workloads)
        assert kernel_stats.calls == 1
        assert kernel_stats.rows == 7
        assert outputs[0][0].shape[0] == 3
        assert outputs[1][0].shape[0] == 4

    def test_none_and_empty_workloads_skipped(self):
        code = design_bch(16, 2)
        empty = KernelWorkload(code.kernel_key(),
                               np.zeros((0, code.n), dtype=np.uint8),
                               code.decode_batch)
        outputs = run_kernels([None, empty])
        assert outputs == [None, None]

    def test_keyless_workloads_run_alone(self):
        rng = np.random.default_rng(9)
        code = design_bch(16, 2)
        words = rng.integers(0, 2, size=(2, code.n)).astype(np.uint8)
        kernel_stats.reset()
        outputs = run_kernels([
            KernelWorkload(None, words, code.decode_batch),
            KernelWorkload(None, words, code.decode_batch)])
        assert kernel_stats.calls == 2
        for part_a, part_b in zip(outputs[0], outputs[1]):
            np.testing.assert_array_equal(part_a, part_b)

    def test_split_outputs_round_trip(self):
        matrix = np.arange(24).reshape(6, 4)
        mask = np.arange(6) % 2 == 0
        pieces = split_outputs((matrix, mask), [1, 2, 3])
        assert [p[0].shape[0] for p in pieces] == [1, 2, 3]
        np.testing.assert_array_equal(np.concatenate(
            [p[0] for p in pieces]), matrix)
        np.testing.assert_array_equal(np.concatenate(
            [p[1] for p in pieces]), mask)


class TestSketchTwoPhase:
    @pytest.mark.parametrize("sketch_cls", [CodeOffsetSketch,
                                            SyndromeSketch])
    def test_plan_finish_matches_recover_batch(self, sketch_cls):
        rng = np.random.default_rng(21)
        code = design_bch(40, 3)
        sketch = sketch_cls(code, 40)
        response = rng.integers(0, 2, size=40).astype(np.uint8)
        helper = sketch.generate(response, rng)
        noisy = noisy_batch(rng, response, 40, code.t + 2)
        expected = scalar_recover(sketch, noisy, helper)
        assert not expected[1].all() and expected[1].any()
        workload, state = sketch.plan_recover(noisy, helper)
        (outputs,) = run_kernels([workload])
        for observed in (sketch.finish_recover(state, outputs),
                         sketch.recover_batch(noisy, helper)):
            np.testing.assert_array_equal(expected[0], observed[0])
            np.testing.assert_array_equal(expected[1], observed[1])

    def test_cross_device_fusion_matches_per_device(self):
        # Two devices sharing a code geometry: stacking both recovery
        # workloads into one kernel call must not change either
        # device's result.
        rng = np.random.default_rng(22)
        sketches, helpers, batches, expected = [], [], [], []
        for _ in range(2):
            code = design_bch(40, 3)
            sketch = CodeOffsetSketch(code, 40)
            response = rng.integers(0, 2, size=40).astype(np.uint8)
            helper = sketch.generate(response, rng)
            noisy = noisy_batch(rng, response, 12, code.t + 2)
            sketches.append(sketch)
            helpers.append(helper)
            batches.append(noisy)
            expected.append(scalar_recover(sketch, noisy, helper))
        plans = [sketch.plan_recover(noisy, helper)
                 for sketch, helper, noisy in zip(sketches, helpers,
                                                  batches)]
        kernel_stats.reset()
        outputs = run_kernels([workload for workload, _ in plans])
        assert kernel_stats.calls == 1
        for sketch, (_, state), output, (want_rec, want_ok) in zip(
                sketches, plans, outputs, expected):
            got_rec, got_ok = sketch.finish_recover(state, output)
            np.testing.assert_array_equal(want_rec, got_rec)
            np.testing.assert_array_equal(want_ok, got_ok)

    def test_syndrome_clean_batch_declares_no_work(self):
        rng = np.random.default_rng(23)
        code = design_bch(30, 2)
        sketch = SyndromeSketch(code, 30)
        response = rng.integers(0, 2, size=30).astype(np.uint8)
        helper = sketch.generate(response, rng)
        clean = np.tile(response, (5, 1))
        workload, state = sketch.plan_recover(clean, helper)
        assert workload is None
        recovered, ok = sketch.finish_recover(state, None)
        np.testing.assert_array_equal(recovered, clean)
        assert ok.all()
