"""The measuring process: one workload, closed loop, fresh interpreter.

Run by ``run.py``; prints one JSON object as its last line.  Usage::

    python3 perfbench/measure.py WORKLOAD SEED SECONDS TRACE SIZE

With TRACE 0 no wrapper is installed; each iteration's wall time is
converted to reference-host seconds by the host-speed probes around it
(``hostspeed.py``) and the run reports medians.  With TRACE 1 untraced
and traced passes alternate: the traced ones give the per-layer split,
the untraced ones the tracing overhead, and the count invariants must
agree across both.  Every iteration passes the correctness gate
outside its timed region.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

from common import WORK, bootstrap

bootstrap()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from repro.ecc.kernel import kernel_stats  # noqa: E402
from repro.service.shard import KIND_FAILURE  # noqa: E402
from repro.service.stream import submit_sweep  # noqa: E402
from spans import ROOT, TracedAttack, Tracer  # noqa: E402

#: Untraced passes per run at least (the medians need a few).
MIN_ITERATIONS = 3
#: Traced/untraced cycles per traced run at least.
MIN_CYCLES = 2


# ----------------------------------------------------------------------
# layer boundaries, timed from outside the program


def _rows_arg(name: str):
    def count(tracer: Tracer, args: tuple) -> None:
        tracer.count(name, int(np.shape(args[-1])[0]))
    return count


def _plan_counter(tracer: Tracer, args: tuple) -> None:
    tracer.count("batch_oracle.plan_rows", int(np.shape(args[2])[0]))


def _take_counter(tracer: Tracer, args: tuple) -> None:
    tracer.count("puf.noise_rows", int(args[1]))


def _lanes_counter(tracer: Tracer, args: tuple) -> None:
    tracer.count("lockstep.lanes", len(args[1]))


#: ``(boundary, layer, counter, is_generator)`` for in-process work.
INPROCESS = (
    ("repro.core.batch_oracle:BatchOracle.take_rows", "puf.noise",
     _take_counter, False),
    ("repro.core.batch_oracle:BatchOracle.untake_rows", "puf.noise",
     _rows_arg("puf.unwound_rows"), False),
    ("repro.core.batch_oracle:BatchOracle.plan_rows",
     "batch_oracle.plan", _plan_counter, False),
    ("repro.keygen.batch:iter_unique_rows", "dedup", None, True),
    ("repro.keygen.batch:run_kernels", "kernel", None, False),
    ("repro.core.lockstep:run_kernels", "kernel", None, False),
    ("repro.keygen.batch:EvalPlan.finalize", "finalize", None, False),
    ("repro.core.group_attack:pack_key", "packing.attack", None, False),
    ("repro.keygen.group_based:pack_key", "packing.finalize", None,
     False),
    ("repro.core.lockstep:ComparisonEngine.step", "lockstep",
     _lanes_counter, False),
    ("repro.core.lockstep:SPRTEngine.step", "lockstep", _lanes_counter,
     False),
    ("repro.core.lockstep:SelectionEngine.step", "lockstep",
     _lanes_counter, False),
    ("repro.core.lockstep:QueryBlockEngine.step", "lockstep",
     _lanes_counter, False),
)

#: Boundaries of the sharded sweep's parent process.  Shard work runs
#: in forked workers, so nothing in-process is wrapped there.
PARENT = (
    ("repro.service.registry:EnrollmentRegistry.open",
     "service.registry_load", None, False),
    ("repro.service.registry:EnrollmentRegistry.load_enrollment",
     "service.registry_load", None, False),
)

#: Counts that must repeat exactly between iterations of one seed.
TRACED_COUNTS = ("kernel.calls", "kernel.rows", "oracle.queries",
                 "batch_oracle.plan_calls", "batch_oracle.plan_rows",
                 "packing.attack_calls", "packing.finalize_calls",
                 "lockstep.step_calls", "attack.resumes",
                 "puf.noise_rows", "finalize.calls")
UNTRACED_COUNTS = ("kernel.calls", "kernel.rows", "oracle.queries")


def install(tracer: Tracer, boundaries) -> None:
    """Wrap every boundary in *boundaries* on *tracer*."""
    for target, layer, counter, generator in boundaries:
        tracer.wrap(target, layer, counter, generator)


# ----------------------------------------------------------------------
# correctness gate


def fingerprint(value):
    """Exact, comparable form of an attack result (all fields)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (field.name, fingerprint(getattr(value, field.name)))
            for field in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(key), fingerprint(item))
                            for key, item in value.items()))
    if isinstance(value, float):
        return ("float", float(value).hex())
    return value


def kernel_snapshot():
    return kernel_stats.calls, kernel_stats.rows


def kernel_delta(before) -> Dict[str, int]:
    return {"kernel.calls": kernel_stats.calls - before[0],
            "kernel.rows": kernel_stats.rows - before[1]}


class RecordingFactory:
    """Attack factory that keeps each device's oracle (and may trace)."""

    def __init__(self, inner, tracer: Optional[Tracer] = None) -> None:
        self.inner = inner
        self.tracer = tracer
        self.oracles: List[object] = []

    def __call__(self, oracle, keygen, helper):
        self.oracles.append(oracle)
        attack = self.inner(oracle, keygen, helper)
        if self.tracer is None:
            return attack
        return TracedAttack(self.tracer, attack)

    @property
    def queries(self) -> int:
        return sum(oracle.queries for oracle in self.oracles)


class Run:
    """Book-keeping shared by both workload kinds."""

    def __init__(self, prepared: workloads.Prepared) -> None:
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.counts: Dict[tuple, int] = {}

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"invariant: {message}", file=sys.stderr)

    def pin(self, counts: Dict[str, int], names, label: str,
            scope: object = None) -> None:
        """Counts in *names* must equal the first values seen in *scope*."""
        for name in names:
            if name not in counts:
                continue
            seen = self.counts.setdefault((scope, name), counts[name])
            if seen != counts[name]:
                self.problem(f"{name} {counts[name]} in {label} "
                             f"differs from {seen}")

    def crashed(self, devices: int) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += devices
        self.failed += devices


# ----------------------------------------------------------------------
# per-layer values


def layer_values(tracer: Tracer,
                 counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of the traced calls (``root`` spans) so far."""
    summary = tracer.summary()
    total = sum(entry["self"] for entry in summary.values())
    wall = summary[ROOT]["busy"]
    if abs(total - wall) > 1e-6 * max(wall, 1e-9):
        raise RuntimeError(f"layer self times sum to {total}, traced "
                           f"wall is {wall}")

    def own(layer: str) -> float:
        return summary.get(layer, {}).get("self", 0.0)

    def calls(layer: str) -> int:
        return summary.get(layer, {}).get("calls", 0)

    counter = tracer.counters.get
    plan_rows = counter("batch_oracle.plan_rows", 0)
    steps = calls("lockstep")
    values = {
        "puf.noise_rows": counter("puf.noise_rows", 0),
        "puf.noise_s": own("puf.noise"),
        "batch_oracle.plan_calls": calls("batch_oracle.plan"),
        "batch_oracle.plan_rows": plan_rows,
        "batch_oracle.plan_s": own("batch_oracle.plan"),
        "batch_oracle.plan_share": own("batch_oracle.plan") / wall,
        "dedup.s": own("dedup"),
        "dedup.unique_ratio": (counts["kernel.rows"] / plan_rows
                               if plan_rows else 0.0),
        "kernel.calls": counts["kernel.calls"],
        "kernel.rows": counts["kernel.rows"],
        "kernel.s": own("kernel"),
        "kernel.rows_per_call": (counts["kernel.rows"]
                                 / counts["kernel.calls"]
                                 if counts["kernel.calls"] else 0.0),
        "finalize.calls": calls("finalize"),
        "finalize.s": own("finalize"),
        "packing.attack_calls": calls("packing.attack"),
        "packing.attack_s": own("packing.attack"),
        "packing.finalize_calls": calls("packing.finalize"),
        "packing.finalize_s": own("packing.finalize"),
        "packing.share": (own("packing.attack")
                          + own("packing.finalize")) / wall,
        "attack.resumes": counter("attack.resumes", 0),
        "attack.s": own("attack"),
        "lockstep.step_calls": steps,
        "lockstep.lanes_per_step": (counter("lockstep.lanes", 0) / steps
                                    if steps else 0.0),
        "lockstep.step_s": summary.get("lockstep", {}).get("busy", 0.0),
        "lockstep.self_s": own("lockstep"),
        "oracle.queries": (counter("puf.noise_rows", 0)
                           - counter("puf.unwound_rows", 0)),
        "trace.wall_s": wall,
        "trace.residual_frac": own(ROOT) / wall,
    }
    return values


SERVICE_ZERO = {"service.registry_load_s": 0.0,
                "service.shard_busy_s": 0.0,
                "service.dispatch_overhead_s": 0.0,
                "service.retries": 0, "service.degraded": 0,
                "service.poisoned": 0}


class Pace:
    """Loop control: run for *seconds*, and at least a few iterations."""

    def __init__(self, seconds: float, traced: bool) -> None:
        self._seconds = seconds
        self._minimum = MIN_CYCLES if traced else MIN_ITERATIONS
        self._done = 0
        self._start = time.perf_counter()

    def more(self) -> bool:
        """Whether to start another iteration (counts this one)."""
        elapsed = time.perf_counter() - self._start
        go = self._done < self._minimum or elapsed < self._seconds
        self._done += go
        return go


def medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over iterations (counts are pinned equal)."""
    merged = {}
    for key in samples[0]:
        values = [sample[key] for sample in samples]
        merged[key] = (values[0] if isinstance(values[0], int)
                       else statistics.median(values))
    return merged


# ----------------------------------------------------------------------
# campaigns


def campaign_iteration(run: Run, block: int, reference, tracer=None):
    """One timed lock-step campaign over one device block.

    Returns ``(wall, counts)``; the results are gated against the
    block's per-device reference outside the timed region.
    """
    fleet, enrollment = run.prepared.block(block)
    factory = RecordingFactory(run.prepared.workload.attack, tracer)
    before = kernel_snapshot()
    root = None if tracer is None else tracer.open(0)
    start = time.perf_counter()
    try:
        results = fleet.attack_results(enrollment, factory,
                                       lockstep=True, workers=1)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    counts = {**kernel_delta(before), "oracle.queries": factory.queries}
    got = [fingerprint(result) for result in results]
    run.attempted += len(reference)
    run.failed += sum(1 for index, expected in enumerate(reference)
                      if index >= len(got) or got[index] != expected)
    return wall, counts


def campaign_pass(run: Run, references, tracer=None, clock=None):
    """One campaign per block; returns per-block times and summed counts.

    With a *clock* the times are in reference-host seconds.
    """
    walls: List[float] = []
    totals: Dict[str, int] = {}
    for block, reference in enumerate(references):
        wall, counts = campaign_iteration(run, block, reference, tracer)
        run.pin(counts, UNTRACED_COUNTS, f"block {block}", block)
        walls.append(wall if clock is None else wall * clock.factor())
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value
    return walls, totals


def run_campaign(run: Run, seconds: float, traced: bool) -> Dict:
    prepared = run.prepared
    devices = prepared.population.devices
    references = []
    for block in range(prepared.blocks):
        fleet, enrollment = prepared.block(block)
        factory = RecordingFactory(prepared.workload.attack)
        references.append([fingerprint(result) for result in
                           fleet.attack_results(enrollment, factory,
                                                lockstep=False, workers=1)])
        # The scalar reference fixes the query bill; its kernel work
        # is unfused, so only the queries are pinned against it.
        run.pin({"oracle.queries": factory.queries}, ("oracle.queries",),
                "the per-device reference", block)

    block_walls: List[List[float]] = [[] for _ in references]
    pass_walls: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    tracer = Tracer() if traced else None
    clock = None if traced else HostClock()
    pace = Pace(seconds, traced)
    while pace.more():
        try:
            walls, counts = campaign_pass(run, references, clock=clock)
        except Exception:
            run.crashed(devices)
            continue
        run.pin(counts, UNTRACED_COUNTS, "an untraced pass")
        for block, wall in enumerate(walls):
            block_walls[block].append(wall)
        pass_walls.append(sum(walls))
        if not traced:
            continue
        install(tracer, INPROCESS)
        tracer.reset()
        try:
            walls, counts = campaign_pass(run, references, tracer)
            values = layer_values(tracer, counts)
        except Exception:
            run.crashed(devices)
            continue
        finally:
            tracer.uninstall()
        run.pin(values, TRACED_COUNTS, "a traced pass")
        if values["oracle.queries"] != counts["oracle.queries"]:
            run.problem("noise rows minus unwound rows differ from the "
                        "oracles' query counters")
        traced_walls.append(sum(walls))
        layers.append(values)
    if traced:
        if tracer.layer:
            tracer.save(WORK / f"trace-{prepared.workload.name}.npz")
        return traced_layers(run, layers, pass_walls, traced_walls)
    total = sum(statistics.median(walls) for walls in block_walls)
    return {"devices_per_s": devices / total,
            "trials_per_s": run.counts[(None, "oracle.queries")] / total,
            "ttfc_s": total / len(references)}


def traced_layers(run: Run, layers, walls, traced_walls) -> Dict:
    """Median layer values plus the overhead of tracing itself."""
    if not layers:
        run.problem("no traced iteration completed")
        return {}
    values = medians(layers)
    values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(walls) - 1.0)
    values.update(SERVICE_ZERO)
    return values


# ----------------------------------------------------------------------
# sharded sweep


def single_host(run: Run, reference, tracer=None):
    """One in-process ``Fleet.failure_rates`` pass, gated bitwise."""
    prepared = run.prepared
    fleet, _ = prepared.population.build()
    trials = prepared.trials
    before = kernel_snapshot()
    if tracer is not None:
        tracer.reset()
        root = tracer.open(0)
    start = time.perf_counter()
    try:
        rates = fleet.failure_rates(prepared.enrollment, trials,
                                    chunk=workloads.CHUNK, workers=1)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    counts = kernel_delta(before)
    counts["oracle.queries"] = prepared.population.devices * trials
    if reference is not None:
        run.attempted += rates.size
        run.failed += int(np.count_nonzero(
            rates.view(np.uint64) != reference.view(np.uint64)))
    return rates, wall, counts


def sharded(run: Run, reference, tracer=None):
    """One streamed, sharded, registry-backed sweep, gated bitwise."""
    prepared = run.prepared
    workload = prepared.workload
    devices = prepared.population.devices
    if tracer is not None:
        tracer.reset()
        root = tracer.open(0)
    start = time.perf_counter()
    first = None
    try:
        handle = submit_sweep(
            prepared.population, workload.keygen, KIND_FAILURE,
            trials=prepared.trials, chunk=workloads.CHUNK,
            shards=workloads.SHARDS, workers=workloads.WORKERS,
            transport=workloads.TRANSPORT, registry=prepared.registry)
        for _ in handle:
            if first is None:
                first = time.perf_counter() - start
        rates = handle.collect()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    results = handle.results
    bad = rates.view(np.uint64) != reference.view(np.uint64)
    for result in results:
        if result.poisoned:
            bad[result.shard.start:result.shard.stop] = True
    run.attempted += devices
    run.failed += int(np.count_nonzero(bad))
    counts = {"kernel.calls": sum(int(r.kernel["calls"])
                                  for r in results),
              "kernel.rows": sum(int(r.kernel["rows"]) for r in results)}
    return wall, first, results, counts


def run_sweep(run: Run, seconds: float, traced: bool) -> Dict:
    prepared = run.prepared
    devices = prepared.population.devices
    trials = prepared.trials
    reference, _, counts = single_host(run, None)
    run.pin(counts, UNTRACED_COUNTS, "the single-host reference")

    walls: List[float] = []
    firsts: List[float] = []
    host_walls: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    services: List[Dict[str, float]] = []
    tracer = Tracer() if traced else None
    clock = None if traced else HostClock()
    pace = Pace(seconds, traced)
    while pace.more():
        if traced:
            parent = Tracer()
            install(parent, PARENT)
        try:
            wall, first, results, counts = sharded(
                run, reference, parent if traced else None)
        except Exception:
            run.crashed(devices)
            continue
        finally:
            if traced:
                parent.uninstall()
        run.pin(counts, UNTRACED_COUNTS[:2], "a sharded sweep")
        if not traced:
            factor = clock.factor()
            walls.append(wall * factor)
            firsts.append(first * factor)
            continue
        walls.append(wall)
        services.append({
            "service.registry_load_s": parent.summary().get(
                "service.registry_load", {}).get("self", 0.0),
            "service.shard_busy_s": sum(r.seconds for r in results),
            "service.dispatch_overhead_s":
                wall - max(r.seconds for r in results),
            "service.retries": sum(int(r.attempt) for r in results),
            "service.degraded": sum(1 for r in results if r.degraded),
            "service.poisoned": sum(1 for r in results if r.poisoned),
        })
        try:
            _, wall, counts = single_host(run, reference)
            run.pin(counts, UNTRACED_COUNTS, "a single-host sweep")
            host_walls.append(wall)
            install(tracer, INPROCESS)
            try:
                _, wall, counts = single_host(run, reference, tracer)
            finally:
                tracer.uninstall()
            values = layer_values(tracer, counts)
        except Exception:
            run.crashed(devices)
            continue
        run.pin(values, TRACED_COUNTS, "a traced single-host sweep")
        if values["oracle.queries"] != devices * trials:
            run.problem("noise rows differ from devices x trials")
        traced_walls.append(wall)
        layers.append(values)
    if traced:
        if tracer.layer:
            tracer.save(WORK / f"trace-{prepared.workload.name}.npz")
        values = traced_layers(run, layers, host_walls, traced_walls)
        if services:
            values.update(medians(services))
        return values
    wall = statistics.median(walls)
    return {"devices_per_s": devices / wall,
            "trials_per_s": devices * trials / wall,
            "ttfc_s": statistics.median(firsts)}


# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv) -> int:
    name, seed, seconds, traced, size = (
        argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="measure-", dir=WORK)
    try:
        prepared = workloads.prepare(workload, seed, size,
                                     registry_dir=f"{scratch}/reg")
        run = Run(prepared)
        body = run_sweep if workload.kind == "sweep" else run_campaign
        metrics = body(run, seconds, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not traced:
        metrics["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps({"attempted": run.attempted, "failed": run.failed,
                      "problems": run.problems, "metrics": metrics,
                      "devices": prepared.population.devices,
                      "trials": prepared.trials}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
