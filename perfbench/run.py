"""Benchmark entry point: one workload, end-to-end or per-layer.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload group-campaign --seed 0 \\
        --seconds 20 --trace 0

The run first measures set-up several times, each in a fresh
interpreter (``setup_probe.py``), then runs the workload's closed loop
in one more fresh interpreter (``measure.py``).  With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the program's sources are missing, and
1 when a step fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import ROOT, SRC, THREAD_VARS, child_env

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 11
#: Every run must end well inside the 180 s a run may take.
BUDGET_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"),
                        default="full",
                        help="tiny shrinks every workload for the "
                             "self-test")
    return parser.parse_args(argv)


def child(script: str, args, deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; parse its JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left to run {script}")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, script),
         *[str(arg) for arg in args]],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=remaining, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric_units(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def main(argv) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        probes = [child("setup_probe.py",
                        (args.workload, args.seed, args.size), deadline)
                  for _ in range(SETUP_PROBES)]
        measured = child("measure.py",
                         (args.workload, args.seed, args.seconds,
                          args.trace, args.size), deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, IndexError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    def probe_median(key: str) -> float:
        return statistics.median(probe.get(key, 0.0) for probe in probes)

    values = dict(measured["metrics"])
    if args.trace:
        section = "per_layer"
        values["startup.import_s"] = probe_median("import_s")
        values["fleet.manufacture_s"] = probe_median("manufacture_s")
        values["fleet.enroll_s"] = probe_median("enroll_s")
    else:
        section = "end_to_end"
        values["setup_s"] = probe_median("setup_ref_s")
    units = metric_units(section)
    missing = sorted(set(units) - set(values))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    attempted = int(measured["attempted"])
    failed = int(measured["failed"])
    correct = (failed == 0 and attempted > 0 and not missing
               and not measured["problems"])

    pins = " ".join(f"{name}={os.environ.get(name, '')}"
                    for name in THREAD_VARS)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size} "
          f"devices={measured['devices']} trials={measured['trials']}")
    print(f"perfbench: nproc={len(os.sched_getaffinity(0))} {pins}")
    for name, entry in metrics.items():
        print(f"  {name:30s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_frac':30s} {failed / max(attempted, 1):>16.6g} "
          f"ratio ({failed}/{attempted} devices)")
    for problem in measured["problems"]:
        print(f"perfbench: invariant broken: {problem}")
    for name in missing:
        print(f"perfbench: metric {name} was not measured")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    from common import bootstrap

    bootstrap()
    sys.exit(main(sys.argv[1:]))
