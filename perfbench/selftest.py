"""Self-test: a tiny run of every workload, checked against BENCHMARK.json.

Usage (from the checkout root)::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --size tiny`` untraced once and
traced twice with the same seed, and checks that

* the last output line has exactly ``correct``, ``attempted``,
  ``failed`` and ``metrics``, with ``correct`` true and no failed
  device (``failed_frac`` 0);
* every metric named in ``BENCHMARK.json`` is present with its unit,
  and every end-to-end value is a positive number;
* every count of the two traced runs is identical (counts are exact
  functions of the seed).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from common import ROOT

SEED = 0
SECONDS = 1


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
        check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited with "
                             f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result: dict, spec: list, positive: bool) -> list:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"failed {result.get('failed')} of "
                      f"{result.get('attempted')} attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != {entry["name"] for entry in spec}:
        errors.append("metric names differ from BENCHMARK.json")
    for entry in spec:
        got = metrics.get(entry["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != entry["unit"]:
            errors.append(f"{entry['name']} unit {got.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{entry['name']} value {value!r}")
        elif positive and value <= 0:
            errors.append(f"{entry['name']} is {value}, never 0 expected")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    counts = [entry["name"] for entry in spec["per_layer"]
              if entry["unit"] == "count"]
    failures = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        try:
            errors = check(run(workload, 0), spec["end_to_end"], True)
            first, second = run(workload, 1), run(workload, 1)
            for traced in (first, second):
                errors += check(traced, spec["per_layer"], False)
            errors += [
                f"{name} {first['metrics'][name]['value']} then "
                f"{second['metrics'][name]['value']}"
                for name in counts
                if name in first["metrics"] and name in second["metrics"]
                and first["metrics"][name] != second["metrics"][name]]
        except (AssertionError, subprocess.TimeoutExpired,
                ValueError, IndexError) as error:
            errors = [str(error)]
        status = "ok" if not errors else "FAIL"
        print(f"{workload:24s} {status}")
        for error in errors:
            print(f"    {error}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
