"""E19: cross-device completion fusion in lock-step campaign rounds.

PR 4's lock-step scheduler vectorized the distinguisher bookkeeping,
but each device still ran its own dedup → decode → key-check chain per
round, so the ~130× batched decode kernel only ever saw single-digit
batches.  The two-phase evaluator protocol (``docs/evaluators.md``)
lets the campaign stack the fresh distinct patterns of *every* device
sharing a code into one kernel call per round.

This bench runs the §VI-A sequential-pairing campaign over a fleet
whose devices share one BCH code (the fleet-provisioning scenario:
one reliability design, many ICs) twice at ``workers=1``:

* **per-device rounds** — the scalar loop, each attack's ``run()``
  alone: one kernel chain per device per distinguisher block;
* **fused rounds** — the lock-step campaign: the frontier's kernel
  workloads are grouped by kernel key and answered by one
  ``BCHCode.decode_batch`` call per distinct code per round.

Twin fleets are identically seeded, so both executions must agree
**bitwise** on every recovered key, per-device query bill and comparer
decision — asserted in-bench before any timing is reported.  The
kernel phase is accounted through ``repro.ecc.kernel.kernel_stats``;
the regression canary requires fusion to cut *round kernel time* by
≥ 1.5× on the full 32-device campaign.
"""

import time

import numpy as np

from _report import record, table

from repro.core import BatchOracle, SequentialPairingAttack
from repro.ecc import design_bch, kernel_stats
from repro.fleet import run_campaign
from repro.keygen import SequentialPairingKeyGen, fixed_code
from repro.puf import ROArray, ROArrayParams

DEVICES = 32
QUICK_DEVICES = 6

PARAMS = ROArrayParams(rows=8, cols=16)
#: One reliability design shared by the whole fleet: the smallest
#: t=3 BCH covering the largest possible pair count (64 of 128 ROs).
SHARED_CODE_PROVIDER = fixed_code(design_bch(64, 3))


def _device(seed):
    array = ROArray(PARAMS, rng=600 + seed)
    keygen = SequentialPairingKeyGen(
        threshold=300e3, code_provider=SHARED_CODE_PROVIDER)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def _signature(result):
    """Bitwise-comparable digest of one attack result."""
    key = getattr(result, "key", None)
    return (None if key is None else key.tolist(),
            int(result.queries),
            tuple(getattr(result, "comparisons", ())))


def run_fusion_campaign(devices=DEVICES):
    """The same fleet campaign with per-device and fused rounds."""
    measurements = {}
    results = {}
    for mode in ("per-device", "fused"):
        oracles, attacks, keys = [], [], []
        for seed in range(devices):
            array, keygen, helper, key = _device(seed)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(SequentialPairingAttack(oracle, keygen,
                                                   helper))
            keys.append(key)
        kernel_stats.reset()
        start = time.perf_counter()
        results[mode] = (run_campaign(oracles, attacks)
                         if mode == "fused" else
                         [attack.run() for attack in attacks])
        measurements[mode] = (time.perf_counter() - start,
                              kernel_stats.calls, kernel_stats.rows,
                              kernel_stats.seconds)
    return results, keys, measurements


def test_campaign_fusion(benchmark, quick):
    devices = QUICK_DEVICES if quick else DEVICES
    results, keys, measurements = benchmark.pedantic(
        run_fusion_campaign, args=(devices,), rounds=1, iterations=1)

    # Bitwise equivalence before any timing claims: fused rounds must
    # reproduce the per-device rounds' keys, query bills and comparer
    # decisions exactly, and both must recover every enrolled key.
    for reference, fused, key in zip(results["per-device"],
                                     results["fused"], keys):
        assert _signature(reference) == _signature(fused), \
            "fused campaign diverged from the per-device path"
        assert reference.key is not None
        assert np.array_equal(reference.key, key)

    ref_wall, ref_calls, ref_rows, ref_kernel = \
        measurements["per-device"]
    fus_wall, fus_calls, fus_rows, fus_kernel = measurements["fused"]
    # Fusion only regroups row-local kernel work.  The lock-step route
    # also keeps one pattern memo per attack (every §VI-A manipulation
    # completes like the enrolled helper), which the scalar run's
    # per-helper evaluators do not share, so it may only drop rows.
    assert fus_rows <= ref_rows, \
        "fusion added kernel input rows"
    kernel_speedup = (ref_kernel / fus_kernel if fus_kernel
                      else float("inf"))
    wall_speedup = ref_wall / fus_wall if fus_wall else float("inf")
    record("E19 / §VI-A — cross-device completion fusion "
           f"({devices} devices sharing one BCH code, workers=1, "
           "bitwise-equal keys/queries/decisions)",
           table(("rounds", "wall (s)", "kernel (s)", "kernel calls",
                  "kernel rows", "kernel speedup"),
                 [("per-device", f"{ref_wall:.2f}",
                   f"{ref_kernel:.3f}", ref_calls, ref_rows, "1.0x"),
                  ("fused", f"{fus_wall:.2f}", f"{fus_kernel:.3f}",
                   fus_calls, fus_rows,
                   f"{kernel_speedup:.1f}x")]))
    record("E19 — wall-clock",
           [f"per-device rounds: {ref_wall:.2f} s",
            f"fused rounds:      {fus_wall:.2f} s "
            f"({wall_speedup:.1f}x)"])

    # Fusion must strictly reduce kernel invocations whenever more
    # than one device is active per round.
    assert fus_calls < ref_calls

    if not quick:
        # Regression canary: fused rounds must cut the round kernel
        # time by a wide margin on the full fleet.
        assert devices >= 32
        assert kernel_speedup >= 1.5
