"""Code-offset fusion across shortenings of one BCH parent, bitwise.

Every shortening of a BCH parent ``(m, t)`` decodes the words of the
others, zero-padded to its own length, exactly as their own decoders
do once each row's corrections are bounded by its own code length
(``BCHCode.decode_batch(words, bounds)``).  Code-offset sketches key
their workloads on the parent, so :func:`repro.ecc.kernel.run_kernels`
stacks such words into one call.  These tests pin the fused outputs to
each code's own ``decode_batch`` and scalar ``decode`` row for row:
weights 0..t+3, errors the wider decoder would locate in the narrower
code's removed positions, and one syndrome under several bounds.
"""

import numpy as np
import pytest

from repro.ecc import BCHCode, CodeOffsetSketch, DecodingFailure
from repro.ecc.kernel import kernel_stats, run_kernels
from repro.ecc.sketch import SketchData

#: ``(m, t, wide shortening, narrow shortening)``: narrow codes one
#: and at least three positions shorter than the wide one.
SHORTENINGS = [(6, 3, 25, 26), (6, 3, 20, 26), (7, 5, 28, 29),
               (7, 5, 28, 33)]


def scalar_rows(code, words):
    """Row-wise scalar ``decode``; failed rows all-zero, ``ok`` False."""
    out = np.zeros_like(words)
    ok = np.zeros(words.shape[0], dtype=bool)
    for index, word in enumerate(words):
        try:
            out[index] = code.decode(word)
        except DecodingFailure:
            continue
        ok[index] = True
    return out, ok


def noisy_words(rng, code, count, max_weight):
    """Codewords of *code* with 0..*max_weight* random bit errors."""
    words = np.empty((count, code.n), dtype=np.uint8)
    for row in range(count):
        message = rng.integers(0, 2, size=code.k).astype(np.uint8)
        words[row] = code.encode(message)
        weight = row % (max_weight + 1)
        words[row, rng.choice(code.n, size=weight, replace=False)] ^= 1
    return words


def excluded_root_words(rng, wide, narrow, count):
    """Words of *narrow*'s length that *wide* corrects past ``narrow.n``.

    Each is a wide codeword carrying a one at a position the narrow
    code removed, with that one cleared (plus up to ``t - 1`` errors
    below ``narrow.n``): the wide decoder locates an error at the
    removed position, where the narrow decoder must fail.
    """
    words = np.zeros((count, narrow.n), dtype=np.uint8)
    removed = np.arange(narrow.n, wide.n)
    for row in range(count):
        message = np.zeros(wide.k, dtype=np.uint8)
        message[:narrow.k] = rng.integers(0, 2, size=narrow.k)
        position = removed[row % removed.size]
        # Message bit i sits at codeword position n - k + i.
        message[position - (wide.n - wide.k)] = 1
        codeword = wide.encode(message)
        codeword[position] = 0
        extra = rng.choice(narrow.n, size=row % wide.t, replace=False)
        codeword[extra] ^= 1
        assert not codeword[narrow.n:].any()
        words[row] = codeword[:narrow.n]
    return words


def padded(words, width):
    out = np.zeros((words.shape[0], width), dtype=np.uint8)
    out[:, :words.shape[1]] = words
    return out


def assert_outputs_equal(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[0].dtype == want[0].dtype and got[1].dtype == np.bool_


@pytest.mark.parametrize("m,t,wide_s,narrow_s", SHORTENINGS)
class TestBoundedDecode:
    def test_fused_rows_equal_each_code(self, m, t, wide_s, narrow_s):
        rng = np.random.default_rng(m * 100 + narrow_s)
        wide, narrow = BCHCode(m, t, wide_s), BCHCode(m, t, narrow_s)
        own = {wide: noisy_words(rng, wide, 2 * (t + 4), t + 3),
               narrow: np.concatenate([
                   noisy_words(rng, narrow, 2 * (t + 4), t + 3),
                   excluded_root_words(rng, wide, narrow, 6)])}
        stacked = np.concatenate([own[wide], padded(own[narrow], wide.n)])
        bounds = np.repeat([wide.n, narrow.n],
                           [own[wide].shape[0], own[narrow].shape[0]])
        fused = BCHCode(m, t, wide_s).decode_batch(stacked, bounds)
        split = own[wide].shape[0]
        for code, rows in ((wide, slice(None, split)),
                           (narrow, slice(split, None))):
            got = (fused[0][rows, :code.n], fused[1][rows])
            assert not fused[0][rows, code.n:].any()
            assert_outputs_equal(got, code.decode_batch(own[code]))
            assert_outputs_equal(got, scalar_rows(code, own[code]))

    def test_excluded_roots_fail_only_the_narrow_code(self, m, t, wide_s,
                                                      narrow_s):
        rng = np.random.default_rng(narrow_s)
        wide, narrow = BCHCode(m, t, wide_s), BCHCode(m, t, narrow_s)
        words = excluded_root_words(rng, wide, narrow, 8)
        # The wide decoder corrects into the removed positions ...
        assert wide.decode_batch(padded(words, wide.n))[1].all()
        # ... which the narrow code, fused or alone, refuses.
        fused = wide.decode_batch(padded(words, wide.n),
                                  np.full(8, narrow.n))
        assert not fused[1].any() and not fused[0].any()
        assert_outputs_equal(scalar_rows(narrow, words),
                             (fused[0][:, :narrow.n], fused[1]))

    def test_one_syndrome_under_two_bounds(self, m, t, wide_s, narrow_s):
        rng = np.random.default_rng(7 + narrow_s)
        wide, narrow = BCHCode(m, t, wide_s), BCHCode(m, t, narrow_s)
        words = padded(excluded_root_words(rng, wide, narrow, 3), wide.n)
        # Each word twice under each bound, interleaved: dedup and the
        # memo must keep (bound, syndrome) pairs apart.
        stacked = np.repeat(words, 4, axis=0)
        bounds = np.tile([wide.n, narrow.n, narrow.n, wide.n], 3)
        code = BCHCode(m, t, wide_s)
        for _ in range(2):  # the second pass answers from the memo
            codewords, ok = code.decode_batch(stacked, bounds)
            np.testing.assert_array_equal(ok, bounds == wide.n)
            np.testing.assert_array_equal(
                codewords[ok], wide.decode_batch(stacked[ok])[0])
        assert {key[0] for key in code._solved} == {wide.n, narrow.n}


class TestSketchWorkloads:
    @pytest.mark.parametrize("m,t,wide_s,narrow_s", SHORTENINGS)
    def test_parent_key_fuses_one_call(self, m, t, wide_s, narrow_s):
        rng = np.random.default_rng(3 * narrow_s)
        codes = [BCHCode(m, t, narrow_s), BCHCode(m, t, wide_s),
                 BCHCode(m, t, narrow_s)]
        assert len({code.kernel_key() for code in codes}) == 2
        plans, expected = [], []
        for code in codes:
            sketch = CodeOffsetSketch(code, code.n - 2)
            response = rng.integers(0, 2, size=code.n - 2).astype(
                np.uint8)
            helper = sketch.generate(response, rng)
            noisy = np.tile(response, (t + 4, 1))
            for row in range(t + 4):
                noisy[row, rng.choice(code.n - 2, size=row,
                                      replace=False)] ^= 1
            plans.append((sketch, sketch.plan_recover(noisy, helper)))
            expected.append(sketch.recover_batch(noisy, helper))
        assert len({sketch.kernel_key() for sketch, _ in plans}) == 1
        kernel_stats.reset()
        outputs = run_kernels([plan[0] for _, plan in plans])
        assert kernel_stats.calls == 1
        assert kernel_stats.rows == 3 * (t + 4)
        for (sketch, (_, state)), output, want in zip(plans, outputs,
                                                      expected):
            assert_outputs_equal(sketch.finish_recover(state, output),
                                 want)

    def test_bounded_workload_stacks_with_plain_ones(self):
        # A workload that already carries bounds (a stacked frontier
        # group) fuses with plain workloads of the same parent.
        rng = np.random.default_rng(11)
        wide, mid, narrow = (BCHCode(6, 3, 20), BCHCode(6, 3, 23),
                             BCHCode(6, 3, 26))
        mixed = np.concatenate([noisy_words(rng, mid, 6, 5),
                                padded(noisy_words(rng, narrow, 6, 5),
                                       mid.n)])
        mixed_bounds = np.repeat([mid.n, narrow.n], 6)
        plain = noisy_words(rng, wide, 7, 6)
        small = noisy_words(rng, narrow, 5, 6)
        workloads = [
            CodeOffsetSketch(mid).offset_workload(
                mixed, np.zeros((1, mid.n), dtype=np.uint8),
                mixed_bounds),
            CodeOffsetSketch(wide).offset_workload(
                plain, np.zeros((1, wide.n), dtype=np.uint8)),
            CodeOffsetSketch(narrow).offset_workload(
                small, np.zeros((1, narrow.n), dtype=np.uint8))]
        solo = [run_kernels([workload])[0] for workload in workloads]
        kernel_stats.reset()
        fused = run_kernels(workloads)
        assert kernel_stats.calls == 1
        for got, want in zip(fused, solo):
            assert_outputs_equal(got, want)
        assert_outputs_equal(fused[1], scalar_rows(wide, plain))
        assert_outputs_equal(fused[2], scalar_rows(narrow, small))
        want_mixed = [scalar_rows(mid, mixed[:6]),
                      scalar_rows(narrow, mixed[6:, :narrow.n])]
        np.testing.assert_array_equal(
            fused[0][1], np.concatenate([want[1] for want in want_mixed]))
        np.testing.assert_array_equal(fused[0][0][:6], want_mixed[0][0])
        np.testing.assert_array_equal(fused[0][0][6:, :narrow.n],
                                      want_mixed[1][0])

    def test_kernel_keys_stay_per_shortening(self):
        assert BCHCode(6, 3, 25).kernel_key() \
            != BCHCode(6, 3, 26).kernel_key()
        assert BCHCode(6, 3, 25).parent_key() \
            == BCHCode(6, 3, 26).parent_key() == ("bch", 6, 3)
        assert BCHCode(6, 3).parent_key() != BCHCode(6, 2).parent_key()

    def test_payload_shift_round_trips(self):
        # Code-offset recovery through fused workloads of two codes.
        rng = np.random.default_rng(5)
        sketches = [CodeOffsetSketch(BCHCode(7, 5, 33), 90),
                    CodeOffsetSketch(BCHCode(7, 5, 28), 99)]
        plans, expected = [], []
        for sketch in sketches:
            response = rng.integers(0, 2, size=sketch.response_length)
            helper = sketch.generate(response.astype(np.uint8), rng)
            helper = SketchData(helper.payload)
            noisy = np.tile(response.astype(np.uint8), (9, 1))
            for row in range(9):
                noisy[row, rng.choice(sketch.response_length, size=row,
                                      replace=False)] ^= 1
            plans.append(sketch.plan_recover(noisy, helper))
            expected.append([sketch.recover(row, helper) if index <= 5
                             else None
                             for index, row in enumerate(noisy)])
        outputs = run_kernels([workload for workload, _ in plans])
        for sketch, (_, state), output, want in zip(sketches, plans,
                                                    outputs, expected):
            recovered, ok = sketch.finish_recover(state, output)
            assert ok[:6].all()
            for row in range(6):
                np.testing.assert_array_equal(recovered[row], want[row])

