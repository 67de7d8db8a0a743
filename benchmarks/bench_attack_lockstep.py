"""E18: lock-step cross-device attack campaign engine.

The paper's attack results are population claims, so the engine must
replay one attack across whole device fleets.  This bench runs the
§VI-A sequential-pairing key recovery over a multi-device campaign
three ways at ``workers=1``:

* **scalar loop** — one device at a time through the single-query
  ``HelperDataOracle`` walk (the executable equivalence reference);
* **batched loop** — one device at a time, each attack driving its own
  ``BatchOracle`` in vectorized blocks (the pre-campaign fast path);
* **lock-step campaign** — all devices advanced together in rounds by
  ``LockstepCampaign``: the frontier of pending distinguisher requests
  is fused into one vectorized bookkeeping pass per round.

Twin fleets are identically seeded, so the three executions must agree
**bitwise** on every recovered key, per-device query bill and comparer
decision — asserted in-bench before any timing is reported, alongside
a ≥5× regression canary for lock-step vs the scalar loop.  A
group-based (§VI-C, Fig. 6a) campaign section repeats the equivalence
check on the comparison-sort attack, asserts that every lock-step round
with kernel work makes exactly one kernel call (its hypothesis streams
of 19 and 20 pairs get BCH codes of different shortening, which fuse
under their common parent), and reports the time to build one
comparison's hypothesis pair with both members' frontier blocks.

A second §VI-A section times the planning of one 32-lane comparison
round (each lane's first reference/test request, 8 paired samples):
the stacked frontier (one group, every block's base added once)
against one-item frontiers (each block alone, through its own
``checked``), after asserting that both routes give bitwise-equal
outcomes and kernel rows.

One more line times a comparison round's step bookkeeping alone
(row taking, each lane's stopping-rule walk, unwinding) at 4 and 32
lanes, with the round's frontier evaluation returning scripted
outcomes.

A §VI-B section runs the temperature-aware attack (assistant
substitution at attacker-chosen temperatures) as a per-device loop and
as a lock-step campaign on twin devices with seeded sensor streams,
asserts the two agree bitwise, and reports the campaign's oracle
queries per second: no perfbench workload covers this family.

A last section times the group-based fleet campaign of
``repro fleet --attack group-based --devices 32`` (8x16 arrays, groups
of up to ~17 oscillators), where key assembly used to dominate: every
key must be recovered, and the full run asserts the campaign finishes
in under 10 s (it took ~87 s on 2 CPUs before key assembly was
vectorised by group-size class).
"""

import functools
import time

import numpy as np

from _report import record, table

from repro._rng import spawn
from repro.core import (
    BatchOracle,
    GroupBasedAttack,
    HelperDataOracle,
    SequentialPairingAttack,
    TempAwareAttack,
)
from repro.core import lockstep
from repro.core.batch_oracle import plan_frontier
from repro.core.lockstep import ComparisonRequest, Lane, step
from repro.ecc.kernel import kernel_stats, run_kernels
from repro.fleet import Fleet, GroupAttackFactory, run_campaign
from repro.keygen import (
    GroupBasedKeyGen,
    SequentialPairingKeyGen,
    TempAwareKeyGen,
)
from repro.puf import FIG6_PARAMS, ROArray, ROArrayParams

DEVICES = 16
QUICK_DEVICES = 4
GROUP_DEVICES = 3
QUICK_GROUP_DEVICES = 1
TEMP_DEVICES = 8
QUICK_TEMP_DEVICES = 2
FLEET_GROUP_DEVICES = 32
#: Lanes of the timed §VI-A comparison round.
ROUND_LANES = 32
#: Lane counts of the timed step-bookkeeping round.
BOOKKEEPING_LANES = (4, 32)
QUICK_FLEET_GROUP_DEVICES = 2
#: Wall-time ceiling of the 32-device group-based fleet campaign.
FLEET_GROUP_BUDGET_S = 10.0

SEQ_PARAMS = ROArrayParams(rows=8, cols=16)
TEMP_PARAMS = ROArrayParams(rows=8, cols=16, temp_slope_sigma=8e3)


def _sequential_device(seed):
    array = ROArray(SEQ_PARAMS, rng=600 + seed)
    keygen = SequentialPairingKeyGen(threshold=300e3)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def _group_device(seed):
    array = ROArray(FIG6_PARAMS, rng=300 + seed)
    keygen = GroupBasedKeyGen(distiller_degree=2,
                              group_threshold=120e3)
    helper, key = keygen.enroll(array, rng=seed)
    return array, keygen, helper, key


def _temp_aware_device(seed):
    array = ROArray(TEMP_PARAMS, rng=200 + seed)
    keygen = TempAwareKeyGen(t_min=-10, t_max=80, threshold=150e3,
                             sensor_seed=900 + seed)
    helper, _ = keygen.enroll(array, rng=seed)
    return array, keygen, helper


def _signature(result):
    """Bitwise-comparable digest of one attack result."""
    key = getattr(result, "key", None)
    return (None if key is None else key.tolist(),
            int(result.queries),
            tuple(getattr(result, "comparisons", ())))


def run_sequential_campaign(devices=DEVICES):
    """Three executions of the same fleet campaign; timings + results."""
    scalar_results = []
    start = time.perf_counter()
    for seed in range(devices):
        array, keygen, helper, _ = _sequential_device(seed)
        oracle = HelperDataOracle(array, keygen)
        scalar_results.append(
            SequentialPairingAttack(oracle, keygen, helper).run())
    scalar_s = time.perf_counter() - start

    batched_results = []
    start = time.perf_counter()
    for seed in range(devices):
        array, keygen, helper, _ = _sequential_device(seed)
        oracle = BatchOracle(array, keygen)
        batched_results.append(
            SequentialPairingAttack(oracle, keygen, helper).run())
    batched_s = time.perf_counter() - start

    oracles, attacks, keys = [], [], []
    for seed in range(devices):
        array, keygen, helper, key = _sequential_device(seed)
        oracle = BatchOracle(array, keygen)
        oracles.append(oracle)
        attacks.append(SequentialPairingAttack(oracle, keygen, helper))
        keys.append(key)
    start = time.perf_counter()
    lockstep_results = run_campaign(oracles, attacks)
    lockstep_s = time.perf_counter() - start

    return (scalar_results, batched_results, lockstep_results, keys,
            scalar_s, batched_s, lockstep_s)


def kernel_calls_per_round(run):
    """``run()``'s result and the kernel calls of each lock-step round.

    Every campaign round is one ``repro.core.lockstep.step``; the
    wrapper counts the kernel calls each round makes.
    """
    calls = []
    advance = lockstep.step

    def counted(lanes):
        before = kernel_stats.calls
        try:
            return advance(lanes)
        finally:
            calls.append(kernel_stats.calls - before)

    lockstep.step = counted
    try:
        return run(), calls
    finally:
        lockstep.step = advance


def hypothesis_build_us(seed=0, repeats=5):
    """Best-of-*repeats* µs to build one §VI-C hypothesis pair.

    Covers every ordered target pair of one 4x10 device, each built
    with both members' frontier blocks attached (the attack's oracle
    is a ``BatchOracle``).
    """
    array, keygen, helper, _ = _group_device(seed)
    attack = GroupBasedAttack(BatchOracle(array, keygen), keygen, helper,
                              rows=4, cols=10)
    cells = FIG6_PARAMS.n
    targets = [(u, v) for u in range(cells) for v in range(cells)
               if u != v]
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        for u, v in targets:
            attack._hypotheses(u, v)
        walls.append(time.perf_counter() - start)
    return min(walls) / len(targets) * 1e6


def comparison_round_items(lanes=ROUND_LANES):
    """Each lane's first §VI-A request as two frontier items.

    Lane *i* is device *i* of the sequential campaign; its reference
    and test helper each get 8 of its 16 taken rows (the lock-step
    interleave).
    """
    items = []
    for seed in range(lanes):
        array, keygen, helper, _ = _sequential_device(seed)
        oracle = BatchOracle(array, keygen)
        request = next(SequentialPairingAttack(oracle, keygen,
                                               helper).steps())
        rows = oracle.take_rows(2 * ComparisonRequest.block)
        items.append((oracle, request.helper_a, rows[0::2], request.op))
        items.append((oracle, request.helper_b, rows[1::2], request.op))
    return items


def comparison_round_plan_us(lanes=ROUND_LANES, repeats=30):
    """Best-of-*repeats* plan µs of one comparison round, per route.

    Returns ``(stacked_us, per_item_us, groups)``.  Planning leaves
    every memo as it was, so both routes are timed before either runs
    its kernel; the routes' outcomes and kernel rows are then asserted
    bitwise-equal on twin devices.
    """
    items = comparison_round_items(lanes)
    twins = comparison_round_items(lanes)

    def best(plan):
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            plan()
            walls.append(time.perf_counter() - start)
        return min(walls) * 1e6

    stacked_us = best(lambda: plan_frontier(items))
    per_item_us = best(lambda: [plan_frontier([item]) for item in twins])
    frontier = plan_frontier(items)
    before = kernel_stats.rows
    stacked = frontier.execute()
    stacked_rows = kernel_stats.rows - before
    alone = [plan_frontier([item]) for item in twins]
    before = kernel_stats.rows
    outputs = run_kernels([own.workloads[0] for own in alone])
    per_item = [own.finalize([out])[0]
                for own, out in zip(alone, outputs)]
    assert kernel_stats.rows - before == stacked_rows
    for observed, expected in zip(stacked, per_item):
        assert observed.tobytes() == expected.tobytes()
    return stacked_us, per_item_us, len(frontier._groups)


class _ScriptedLaneOracle:
    """Lane oracle whose noise rows index a scripted outcome array."""

    def __init__(self, script):
        self.script = script

    def take_rows(self, count):
        return np.arange(count)

    def untake_rows(self, rows):
        pass


class _ScriptedFrontier:
    """A round's frontier whose evaluation reads the lane scripts."""

    def __init__(self, items):
        self.items = items

    def execute(self):
        return [oracle.script[rows] for oracle, _, rows, _ in self.items]


def engine_round_us(lanes, repeats=300):
    """Best-of-*repeats* µs of one comparison round's bookkeeping.

    Every lane takes its first step with the default comparer; the
    scripted failure rates of its two helpers cycle through
    separated, identical-extremes, gap-walking and undecided pairs, so
    lanes stop by every rule or carry on.  The frontier evaluation is
    stubbed, so the time is the step's own.
    """
    rng = np.random.default_rng(0)
    rates = [(0.0, 1.0), (0.0, 0.0), (0.1, 0.8), (0.4, 0.5)]
    rows = 2 * ComparisonRequest.block
    scripts = [rng.random(rows) >= np.tile(rates[lane % len(rates)],
                                           rows // 2)
               for lane in range(lanes)]
    request = ComparisonRequest("a", "b")
    walls = []
    plan = lockstep.plan_frontier
    lockstep.plan_frontier = _ScriptedFrontier
    try:
        for _ in range(repeats):
            batch = [Lane(_ScriptedLaneOracle(script), request)
                     for script in scripts]
            start = time.perf_counter()
            step(batch)
            walls.append(time.perf_counter() - start)
    finally:
        lockstep.plan_frontier = plan
    return min(walls) * 1e6


def run_group_campaign(devices=GROUP_DEVICES):
    """Scalar loop vs lock-step campaign on the §VI-C attack."""
    scalar_results = []
    start = time.perf_counter()
    for seed in range(devices):
        array, keygen, helper, _ = _group_device(seed)
        oracle = HelperDataOracle(array, keygen)
        scalar_results.append(GroupBasedAttack(
            oracle, keygen, helper, rows=4, cols=10).run())
    scalar_s = time.perf_counter() - start

    oracles, attacks, keys = [], [], []
    for seed in range(devices):
        array, keygen, helper, key = _group_device(seed)
        oracle = BatchOracle(array, keygen)
        oracles.append(oracle)
        attacks.append(GroupBasedAttack(oracle, keygen, helper, rows=4,
                                        cols=10))
        keys.append(key)
    start = time.perf_counter()
    lockstep_results, round_calls = kernel_calls_per_round(
        lambda: run_campaign(oracles, attacks))
    lockstep_s = time.perf_counter() - start
    return (scalar_results, lockstep_results, keys, scalar_s, lockstep_s,
            round_calls)


def run_temp_aware_campaign(devices=TEMP_DEVICES, repeats=5):
    """Per-device loop vs lock-step campaign on the §VI-B attack.

    Returns both result lists, the campaign's oracle queries and its
    median wall time over *repeats* campaigns (one campaign is short
    enough for host noise to dominate a single timing).  Each
    execution builds its own twin devices, so sensor streams start
    from the same seeds.
    """
    loop_results = []
    for seed in range(devices):
        array, keygen, helper = _temp_aware_device(seed)
        loop_results.append(TempAwareAttack(
            BatchOracle(array, keygen), keygen, helper).run())

    walls = []
    for _ in range(repeats):
        oracles, attacks = [], []
        for seed in range(devices):
            array, keygen, helper = _temp_aware_device(seed)
            oracle = BatchOracle(array, keygen)
            oracles.append(oracle)
            attacks.append(TempAwareAttack(oracle, keygen, helper))
        start = time.perf_counter()
        lockstep_results = run_campaign(oracles, attacks)
        walls.append(time.perf_counter() - start)
    queries = sum(oracle.queries for oracle in oracles)
    return (loop_results, lockstep_results, queries,
            float(np.median(walls)))


def run_group_fleet_campaign(devices=FLEET_GROUP_DEVICES, seed=1):
    """The CLI's group-based fleet campaign; results and wall time."""
    manufacture_rng, enroll_rng = spawn(seed, 2)
    fleet = Fleet(SEQ_PARAMS, size=devices, seed=manufacture_rng)
    enrollment = fleet.enroll(
        functools.partial(GroupBasedKeyGen, group_threshold=120e3),
        seed=enroll_rng)
    start = time.perf_counter()
    results = fleet.attack_results(
        enrollment, GroupAttackFactory(SEQ_PARAMS.rows, SEQ_PARAMS.cols),
        lockstep=True, workers=1)
    return results, enrollment.keys, time.perf_counter() - start


def test_attack_lockstep_campaign(benchmark, quick):
    devices = QUICK_DEVICES if quick else DEVICES
    (scalar_results, batched_results, lockstep_results, keys,
     scalar_s, batched_s, lockstep_s) = benchmark.pedantic(
        run_sequential_campaign, args=(devices,), rounds=1,
        iterations=1)

    # Bitwise equivalence before any timing claims: recovered keys,
    # per-device query bills and comparer decisions must be identical
    # across all three executions.
    for reference, batched, lockstep, key in zip(
            scalar_results, batched_results, lockstep_results, keys):
        assert _signature(reference) == _signature(batched), \
            "batched per-device loop diverged from the scalar loop"
        assert _signature(reference) == _signature(lockstep), \
            "lock-step campaign diverged from the scalar loop"
        assert reference.key is not None
        assert np.array_equal(reference.key, key)

    queries = int(np.sum([r.queries for r in scalar_results]))
    speedup_lockstep = scalar_s / lockstep_s if lockstep_s else \
        float("inf")
    speedup_batched = scalar_s / batched_s if batched_s else \
        float("inf")
    record("E18 / §VI-A — lock-step campaign engine, sequential "
           f"pairing ({devices} devices, workers=1, bitwise-equal "
           "keys/queries/decisions)",
           table(("execution", "time (s)", "speedup vs scalar",
                  "devices", "oracle queries"),
                 [("scalar per-device loop", f"{scalar_s:.2f}",
                   "1.0x", devices, queries),
                  ("batched per-device loop", f"{batched_s:.2f}",
                   f"{speedup_batched:.1f}x", devices, queries),
                  ("lock-step campaign", f"{lockstep_s:.2f}",
                   f"{speedup_lockstep:.1f}x", devices, queries)]))

    stacked_us, per_item_us, groups = comparison_round_plan_us()
    record(f"E18 / §VI-A — plan time of one {ROUND_LANES}-lane "
           "comparison round (bitwise-equal outcomes and kernel rows)",
           table(("route", "plan (µs, best of 30)", "per item (µs)"),
                 [(f"stacked frontier ({groups} group)",
                   f"{stacked_us:.0f}",
                   f"{stacked_us / (2 * ROUND_LANES):.1f}"),
                  ("one-item frontiers", f"{per_item_us:.0f}",
                   f"{per_item_us / (2 * ROUND_LANES):.1f}")]))

    round_us = [engine_round_us(lanes) for lanes in BOOKKEEPING_LANES]
    record("E18 / §VI-A — step bookkeeping of one comparison round "
           "(frontier evaluation stubbed with scripted outcomes)",
           [", ".join(f"{lanes} lanes: {us:.0f} µs" for lanes, us in
                      zip(BOOKKEEPING_LANES, round_us))
            + " (best of 300)"])

    grp_devices = QUICK_GROUP_DEVICES if quick else GROUP_DEVICES
    (grp_scalar, grp_lockstep, grp_keys, grp_scalar_s,
     grp_lockstep_s, round_calls) = run_group_campaign(grp_devices)
    for reference, lockstep, key in zip(grp_scalar, grp_lockstep,
                                        grp_keys):
        assert reference.orders == lockstep.orders
        assert reference.queries == lockstep.queries
        assert np.array_equal(reference.key, lockstep.key)
        assert np.array_equal(reference.key, key)
    # One kernel call per round with kernel work: hypothesis streams of
    # every shortening stack into one group and one decode call.
    assert set(round_calls) <= {0, 1}, round_calls
    kernel_rounds = sum(round_calls)
    assert kernel_rounds
    build_us = hypothesis_build_us()
    grp_speedup = grp_scalar_s / grp_lockstep_s if grp_lockstep_s \
        else float("inf")
    record("E18 / §VI-C — lock-step campaign engine, group-based "
           f"({grp_devices} devices, workers=1, bitwise-equal "
           "orders/keys/queries)",
           [f"scalar per-device loop: {grp_scalar_s:.2f} s",
            f"lock-step campaign:     {grp_lockstep_s:.2f} s",
            f"speedup: {grp_speedup:.1f}x",
            f"lock-step rounds: {len(round_calls)}, with kernel work: "
            f"{kernel_rounds}, kernel calls per such round: 1",
            f"hypothesis pair with both blocks: {build_us:.1f} µs per "
            "comparison (best of 5 sweeps over all 1560 target pairs)"])

    temp_devices = QUICK_TEMP_DEVICES if quick else TEMP_DEVICES
    (temp_loop, temp_lockstep, temp_queries,
     temp_s) = run_temp_aware_campaign(temp_devices)
    for reference, lockstep in zip(temp_loop, temp_lockstep):
        assert reference.queries == lockstep.queries
        assert np.array_equal(reference.coop_relations,
                              lockstep.coop_relations)
        assert reference.good_bits == lockstep.good_bits
        assert reference.comparisons == lockstep.comparisons
    record(f"E18 / §VI-B — lock-step campaign engine, temperature-aware "
           f"({temp_devices} devices, workers=1, bitwise-equal "
           "relations/queries/decisions)",
           [f"lock-step campaign: {temp_s:.2f} s (median of 5), "
            f"{temp_queries} oracle queries "
            f"({temp_queries / temp_s:,.0f} queries/s)"])

    fleet_devices = (QUICK_FLEET_GROUP_DEVICES if quick
                     else FLEET_GROUP_DEVICES)
    fleet_results, fleet_keys, fleet_s = run_group_fleet_campaign(
        fleet_devices)
    assert len(fleet_results) == fleet_devices
    for result, key in zip(fleet_results, fleet_keys):
        assert result.confirmed
        assert np.array_equal(result.key, key)
    record(f"E18 / §VI-C — group-based fleet campaign ({fleet_devices} "
           "devices, 8x16, workers=1, every key recovered)",
           [f"campaign: {fleet_s:.2f} s "
            f"({fleet_devices / fleet_s:.2f} devices/s)"])

    if not quick:
        # Regression canary: the lock-step campaign must hold a wide
        # margin over the scalar reference loop on a real fleet.
        assert devices >= 16
        assert speedup_lockstep >= 5.0
        # Key assembly canary: vectorised packing keeps the 32-device
        # group-based campaign under its budget.
        assert fleet_s < FLEET_GROUP_BUDGET_S
