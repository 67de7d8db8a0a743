"""E7 (paper §VI-B): attacking the temperature-aware cooperative PUF.

Recovers the response-bit relations of all cooperating pairs via
assistant substitution at attacker-chosen temperatures, and additionally
reports two free lunches the construction hands out:

* every cooperation record publicly asserts
  ``r_coop ⊕ r_good ⊕ r_assist = 0``, so once the coop component is
  linked, the masking good pairs' bits fall out *absolutely*;
* a deterministic assistant-selection procedure leaks
  ``r_skipped != r_selected`` for every scanned-and-skipped candidate —
  with zero device queries (paper §IV-D).

The engine section times the vectorized temperature-aware batch path —
sensor reads, interval interpretation and cooperative assistance in
one NumPy pass per block — against the scalar per-query loop on twin
devices, asserting the outcomes match query for query (seeded sensor
streams make the construction's per-read sensor noise reproducible).
It then runs the whole attack on both oracles of twin devices and
asserts equal relations, good bits, query bills and comparisons: the
attack's comparisons interleave two helpers' rows and unwind the rows
past each stopping point, and every row keeps its own sensor read.
"""

import time

import numpy as np

from _report import record, table

from repro.core import BatchOracle, HelperDataOracle, TempAwareAttack
from repro.core.injection import break_inversions
from repro.keygen import OperatingPoint, TempAwareKeyGen
from repro.pairing import TempAwareCooperative, \
    deterministic_selection_leakage
from repro.puf import ROArray, ROArrayParams

DEVICES = 3
QUICK_DEVICES = 1
BATCH_QUERIES = 400
QUICK_BATCH_QUERIES = 60
EQUIVALENCE_SEEDS = range(6)
QUICK_EQUIVALENCE_SEEDS = (4,)


def run_experiment(devices=DEVICES):
    rows = []
    for seed in range(devices):
        array = ROArray(ROArrayParams(rows=8, cols=16,
                                      temp_slope_sigma=8e3),
                        rng=200 + seed)
        keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3)
        helper, key = keygen.enroll(array, rng=seed)
        oracle = BatchOracle(array, keygen)
        result = TempAwareAttack(oracle, keygen, helper).run()

        n_good = len(helper.scheme.good_indices)
        coop_truth = key[n_good:]
        resolved = result.coop_relations >= 0
        correct = float(np.mean(
            result.coop_relations[resolved]
            == (coop_truth ^ coop_truth[0])[resolved])) \
            if resolved.any() else 1.0
        good_positions = {p: i for i, p
                          in enumerate(helper.scheme.good_indices)}
        good_correct = sum(
            bit == key[good_positions[p]]
            for p, bit in result.good_bits.items())
        rows.append((seed, len(coop_truth),
                     f"{100 * result.resolved_fraction:.0f}%",
                     f"{100 * correct:.0f}%",
                     f"{good_correct}/{len(result.good_bits)}",
                     result.queries))
    # Zero-query leakage of the deterministic selection policy.
    array = ROArray(ROArrayParams(rows=8, cols=16,
                                  temp_slope_sigma=8e3), rng=200)
    scheme = TempAwareCooperative(t_min=-10, t_max=80, threshold=150e3,
                                  selection="deterministic")
    det_helper, _ = scheme.enroll(array, rng=0)
    profiles = scheme.profile_pairs(array, rng=0)
    leaks = deterministic_selection_leakage(det_helper, profiles)
    leaks_correct = sum(
        profiles[skipped].reference_bit(-10)
        != profiles[selected].reference_bit(-10)
        for _, skipped, selected in leaks)
    return rows, (len(leaks), leaks_correct,
                  len(det_helper.cooperation))


def run_batch_vs_scalar(queries=BATCH_QUERIES):
    """Time the batched temp-aware path against the scalar loop.

    Twin devices, twin keygens with a shared sensor seed, an attack
    temperature inside a crossover interval (so assistance is
    exercised) and error injection at the ECC boundary (so decodes
    matter): the engineered §VI-B regime.  Returns timings plus the
    two outcome vectors for the in-bench equivalence assertion.
    """
    params = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)
    seq_array, batch_array = (ROArray(params, rng=321),
                              ROArray(params, rng=321))
    make_keygen = lambda: TempAwareKeyGen(  # noqa: E731
        t_min=-10, t_max=80, threshold=150e3, sensor_seed=77)
    seq_keygen, batch_keygen = make_keygen(), make_keygen()
    seq_helper, key = seq_keygen.enroll(seq_array, rng=5)
    batch_helper, _ = batch_keygen.enroll(batch_array, rng=5)

    entry = seq_helper.scheme.cooperation[0]
    temperature = 0.5 * (entry.t_low + entry.t_high)
    injected = seq_keygen.sketch_for(key.size).code.t
    seq_target = seq_helper.with_scheme(break_inversions(
        seq_helper.scheme, temperature, injected))
    batch_target = batch_helper.with_scheme(break_inversions(
        batch_helper.scheme, temperature, injected))
    op = OperatingPoint(temperature=temperature)

    scalar_oracle = HelperDataOracle(seq_array, seq_keygen)
    start = time.perf_counter()
    expected = np.array([scalar_oracle.query(seq_target, op)
                         for _ in range(queries)])
    scalar_s = time.perf_counter() - start

    batch_oracle = BatchOracle(batch_array, batch_keygen)
    start = time.perf_counter()
    observed = batch_oracle.query_block(batch_target, queries, op)
    batch_s = time.perf_counter() - start
    return expected, observed, scalar_s, batch_s


def run_attack_equivalence(seeds=EQUIVALENCE_SEEDS):
    """Whole attacks on the scalar and the batched oracle of twins.

    Returns one ``(seed, scalar result, batched result)`` per seed.
    """
    params = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)
    runs = []
    for seed in seeds:
        results = []
        for oracle_type in (HelperDataOracle, BatchOracle):
            array = ROArray(params, rng=7 + seed)
            keygen = TempAwareKeyGen(t_min=-10, t_max=80,
                                     threshold=150e3, sensor_seed=seed)
            helper, _ = keygen.enroll(array, rng=6)
            results.append(TempAwareAttack(
                oracle_type(array, keygen), keygen, helper).run())
        runs.append((seed, *results))
    return runs


def test_attack_temp_aware(benchmark, quick):
    devices = QUICK_DEVICES if quick else DEVICES
    rows, leak_stats = benchmark.pedantic(run_experiment,
                                          args=(devices,), rounds=1,
                                          iterations=1)
    record("E7 / §VI-B — temperature-aware cooperative attack "
           f"({devices} devices, BCH t=3, batched oracle)",
           table(("device", "coop pairs", "relations resolved",
                  "relations correct", "good bits recovered",
                  "oracle queries"), rows))
    n_leaks, n_correct, n_coop = leak_stats
    record("E7 — deterministic assistant selection: zero-query leakage",
           [f"cooperating pairs: {n_coop}",
            f"leaked inequality relations: {n_leaks}",
            f"relations verified correct: {n_correct}/{n_leaks}"])
    for row in rows:
        assert row[2] == "100%" and row[3] == "100%"
    assert n_leaks > 0 and n_correct == n_leaks

    queries = QUICK_BATCH_QUERIES if quick else BATCH_QUERIES
    expected, observed, scalar_s, batch_s = run_batch_vs_scalar(queries)
    assert np.array_equal(expected, observed), \
        "temp-aware batch path diverged from the scalar evaluator"
    speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    record("E7 — temp-aware batch path vs scalar evaluator "
           f"({queries} queries, identical outcomes)",
           [f"scalar loop: {scalar_s * 1e3:.1f} ms",
            f"batched path: {batch_s * 1e3:.1f} ms",
            f"speedup: {speedup:.1f}x"])
    if not quick:
        # Regression canary only; the vectorized path is typically
        # far above this floor.
        assert speedup >= 5.0

    runs = run_attack_equivalence(QUICK_EQUIVALENCE_SEEDS if quick
                                  else EQUIVALENCE_SEEDS)
    for seed, expected, observed in runs:
        np.testing.assert_array_equal(expected.coop_relations,
                                      observed.coop_relations)
        assert expected.good_bits == observed.good_bits, seed
        assert expected.queries == observed.queries, seed
        assert expected.comparisons == observed.comparisons, seed
    record("E7 — whole attack, batched vs scalar oracle on twins "
           "(identical relations, bills and comparisons)",
           table(("seed", "oracle queries", "comparisons"),
                 [(seed, result.queries, len(result.comparisons))
                  for seed, result, _ in runs]))
