"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fit-cv --seeds 1-10

Runs ``run.py --trace 0`` once per seed and prints, per metric, the median
and the quartile spread ``(Q3 - Q1) / median`` of its values (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to a third of the
metric's bound in BENCHMARK.json, the steadiness target.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)

    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)

    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{metric['name']:18s} median {med:.5g}  spread {(q3 - q1) / med:.4f}  "
              f"target < {metric['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
