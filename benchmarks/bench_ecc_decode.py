"""E17 (engine): vectorized GF(2^m) decode throughput.

The decode engine's reason to exist: high-noise workloads (failure-rate
tails, reliability sweeps at temperature extremes) produce many
*distinct* error patterns per block, so the pre-engine strategy —
deduplicate and run scalar Berlekamp–Massey + Chien per distinct word —
degenerates to one full Python decode per row.  This bench builds
exactly that workload (random codewords carrying 1..t+2 random-position
errors each, so essentially every row is distinct and a fraction lies
beyond the correction radius), decodes it through both paths, asserts
bitwise equality, and records the speedup with a >=5x regression
canary.

Secondary sections time the other batch kernels against their scalar
references on the same kind of workload: the batched-Hadamard
Reed–Muller decoder and the syndrome-sketch recovery (batched
syndrome-difference solve).  Equivalence is asserted for all of them;
the canary guards the BCH engine, where the decode cost lives.

A last section times the two row-grouping regimes of ``repro._dedup``
(hashed ``tobytes`` keys vs one 1-D ``np.unique`` over ``np.void`` row
keys) across block sizes; its crossover is where ``SMALL_BLOCK`` sits.
"""

import time
from contextlib import contextmanager

import numpy as np

from _report import record, table

import repro._dedup as dedup
from repro._dedup import row_groups, unique_rows
from repro.ecc import DecodingFailure, ReedMullerCode, design_bch
from repro.ecc.sketch import SyndromeSketch

CODE_BITS = 64
T = 5
WORDS = 2000
QUICK_WORDS = 150
RM_M = 5
CROSSOVER_ROWS = (8, 32, 64, 128, 256, 1024)
CROSSOVER_BITS = 127
# Distinct patterns per 1000-row block of the reconstruction sweep.
CROSSOVER_PATTERNS = 56


def noisy_codewords(code, count, rng, max_errors=None):
    """Random codewords with 1..max_errors random-position bit flips."""
    if max_errors is None:
        max_errors = code.t + 2
    words = np.empty((count, code.n), dtype=np.uint8)
    for i in range(count):
        words[i] = code.encode(
            rng.integers(0, 2, size=code.k).astype(np.uint8))
        flips = rng.choice(code.n,
                           size=int(rng.integers(1, max_errors + 1)),
                           replace=False)
        words[i, flips] ^= 1
    return words


def scalar_decode_batch(code, words):
    """The pre-engine batch strategy: dedup + scalar decode per word."""
    distinct, inverse = unique_rows(words)
    codewords = np.zeros_like(distinct)
    ok = np.zeros(distinct.shape[0], dtype=bool)
    for slot, word in enumerate(distinct):
        try:
            codewords[slot] = code.decode(word)
        except DecodingFailure:
            continue
        ok[slot] = True
    return codewords[inverse], ok[inverse]


def run_experiment(count):
    rng = np.random.default_rng(1717)
    rows = []

    # -- BCH: the canary workload --------------------------------------
    code = design_bch(CODE_BITS, T)
    words = noisy_codewords(code, count, rng)
    distinct = unique_rows(words)[0].shape[0]
    start = time.perf_counter()
    expected, expected_ok = scalar_decode_batch(code, words)
    scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    observed, observed_ok = code.decode_batch(words)
    batch_s = time.perf_counter() - start
    assert np.array_equal(expected, observed), \
        "vectorized BCH decode diverged from the scalar reference"
    assert np.array_equal(expected_ok, observed_ok), \
        "vectorized BCH failure mask diverged from the scalar reference"
    bch_speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    rows.append((repr(code), count, distinct,
                 f"{int(expected_ok.sum())}/{count}",
                 f"{scalar_s * 1e3:.1f}", f"{batch_s * 1e3:.1f}",
                 f"{bch_speedup:.1f}x"))

    # -- Reed–Muller: batched Hadamard ---------------------------------
    rm = ReedMullerCode(RM_M)
    rm_words = noisy_codewords(rm, count, rng)
    start = time.perf_counter()
    rm_expected, _ = scalar_decode_batch(rm, rm_words)
    rm_scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    rm_observed, rm_ok = rm.decode_batch(rm_words)
    rm_batch_s = time.perf_counter() - start
    assert np.array_equal(rm_expected, rm_observed) and rm_ok.all(), \
        "vectorized RM decode diverged from the scalar reference"
    rm_speedup = rm_scalar_s / rm_batch_s if rm_batch_s > 0 \
        else float("inf")
    rows.append((repr(rm), count,
                 unique_rows(rm_words)[0].shape[0],
                 f"{count}/{count}", f"{rm_scalar_s * 1e3:.1f}",
                 f"{rm_batch_s * 1e3:.1f}", f"{rm_speedup:.1f}x"))

    # -- Syndrome sketch: batched syndrome-difference solve ------------
    sketch = SyndromeSketch(design_bch(CODE_BITS, T), CODE_BITS)
    response = rng.integers(0, 2, size=CODE_BITS).astype(np.uint8)
    helper = sketch.generate(response)
    readings = np.tile(response, (count, 1))
    weights = rng.integers(1, T + 3, size=count)
    for i in range(count):
        flips = rng.choice(CODE_BITS, size=int(weights[i]),
                           replace=False)
        readings[i, flips] ^= 1
    start = time.perf_counter()
    distinct, inverse = unique_rows(readings)
    sk_expected = np.zeros_like(distinct)
    sk_expected_ok = np.zeros(distinct.shape[0], dtype=bool)
    for slot, reading in enumerate(distinct):
        try:
            sk_expected[slot] = sketch.recover(reading, helper)
        except DecodingFailure:
            continue
        sk_expected_ok[slot] = True
    sk_expected = sk_expected[inverse]
    sk_expected_ok = sk_expected_ok[inverse]
    sk_scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    sk_observed, sk_ok = sketch.recover_batch(readings, helper)
    sk_batch_s = time.perf_counter() - start
    assert np.array_equal(sk_expected, sk_observed) \
        and np.array_equal(sk_expected_ok, sk_ok), \
        "vectorized sketch recovery diverged from the scalar reference"
    sk_speedup = sk_scalar_s / sk_batch_s if sk_batch_s > 0 \
        else float("inf")
    rows.append((f"SyndromeSketch({CODE_BITS} bits, t={T})", count,
                 unique_rows(readings)[0].shape[0],
                 f"{int(sk_ok.sum())}/{count}",
                 f"{sk_scalar_s * 1e3:.1f}",
                 f"{sk_batch_s * 1e3:.1f}", f"{sk_speedup:.1f}x"))

    return rows, bch_speedup


def test_ecc_decode_engine(benchmark, quick):
    count = QUICK_WORDS if quick else WORDS
    rows, bch_speedup = benchmark.pedantic(run_experiment,
                                           args=(count,), rounds=1,
                                           iterations=1)
    record("E17 — vectorized decode engine vs scalar reference "
           "(high-noise workload: 1..t+2 random errors per word, "
           "bitwise equality asserted)",
           table(("decoder", "words", "distinct", "corrected",
                  "scalar ms", "batch ms", "speedup"), rows))
    if not quick:
        # Regression canary only (typically 30x+ on this workload).
        assert bch_speedup >= 5.0


@contextmanager
def grouping_regime(small_block):
    """Force ``repro._dedup`` onto one regime: hashed iff rows <= bound."""
    saved = dedup.SMALL_BLOCK
    dedup.SMALL_BLOCK = small_block
    try:
        yield
    finally:
        dedup.SMALL_BLOCK = saved


def grouping_us(matrix, repeats):
    """Best-of-*repeats* microseconds for one ``row_groups`` call."""
    number = max(1, 4096 // matrix.shape[0])
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            row_groups(matrix)
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def run_crossover(repeats):
    rng = np.random.default_rng(1818)
    patterns = rng.integers(0, 2, size=(CROSSOVER_PATTERNS,
                                        CROSSOVER_BITS)).astype(np.uint8)
    rows = []
    for count in CROSSOVER_ROWS:
        matrix = patterns[rng.integers(0, CROSSOVER_PATTERNS,
                                       size=count)]
        timings = {}
        groups = {}
        for regime, small_block in (("hashed", count), ("keyed", 0)):
            with grouping_regime(small_block):
                first, inverse = row_groups(matrix)
                groups[regime] = {
                    matrix[row].tobytes():
                        np.flatnonzero(inverse == group).tolist()
                    for group, row in enumerate(first)}
                timings[regime] = grouping_us(matrix, repeats)
        assert groups["hashed"] == groups["keyed"], \
            f"hashed and keyed grouping disagree at {count} rows"
        faster = min(timings, key=timings.get)
        rows.append((count, len(groups["keyed"]),
                     f"{timings['hashed']:.1f}",
                     f"{timings['keyed']:.1f}", faster))
    return rows


def test_dedup_crossover(benchmark, quick):
    rows = benchmark.pedantic(run_crossover, args=(2 if quick else 7,),
                              rounds=1, iterations=1)
    record(f"Dedup crossover — hashed vs keyed row grouping "
           f"({CROSSOVER_BITS}-bit rows, {CROSSOVER_PATTERNS}-pattern "
           f"pool, equal groups asserted; SMALL_BLOCK = "
           f"{dedup.SMALL_BLOCK})",
           table(("rows", "distinct", "hashed us", "keyed us",
                  "faster"), rows))
