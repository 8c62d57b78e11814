"""Smoke test of the benchmark: every workload, both modes, reduced sizes.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` (the same code path at small n and few
replications) for every workload with ``--trace 0`` and ``--trace 1``, and
asserts that each run passes its output checks, that the end-to-end run
reports every ``end_to_end`` metric of BENCHMARK.json with its unit, and
that the traced run reports every ``per_layer`` metric with its unit and no
missing boundary.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} differ")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{label}: {name} unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {name} is missing (value {got.get('value')!r})")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in modes.items():
            found = check_run(workload, trace, expected)
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
