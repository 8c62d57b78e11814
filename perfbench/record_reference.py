"""Record ``reference.json``: the outputs of the first operations of every
workload at the default seed, against which ``run.py`` checks later commits.

    python3 perfbench/record_reference.py

Re-record only in a change whose purpose is to change the program's
outputs, and say so in that change.  The operations run traced, so that the
reference also knows which simulate replications contained a fit that did
not converge; those rows, like failed ones, are later held to no values.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import loadgen
import run
import tracing
import workloads

#: Operations per workload kept in the reference (whole rotations of every
#: workload).
REFERENCE_OPS = 12


def nonconverged_replications(spans: list, op: int) -> set[int]:
    """Replications of operation ``op`` holding a fit with converged=false."""
    by_id = {s[0]: s for s in spans}
    found = set()
    for span in spans:
        if span[2] != op or span[6].get("converged", True):
            continue
        while span is not None and span[3] != "simulation.run_replication":
            span = by_id.get(span[1])
        if span is not None:
            found.add(span[6]["replication"])
    return found


def record(workload, cli, package, work: str) -> dict:
    data_dir = os.path.join(work, "data")
    os.makedirs(data_dir)
    run.generate_inputs(workload, run.DEFAULT_SEED, REFERENCE_OPS, data_dir, work)
    tracer = tracing.Tracer(memory=False)
    tracer.install(package)
    try:
        entries = []
        for i in range(REFERENCE_OPS):
            out_dir = os.path.join(work, "out", str(i))
            argv = workload.argv(i, run.DEFAULT_SEED, os.path.join(data_dir, f"{i}.csv"),
                                 out_dir)
            result = loadgen.run_op(cli, argv, tracer, i)
            if workload.command == "fit":
                outcome = checks.check_fit(result, workload.q, None)
            else:
                outcome = checks.check_simulate(result, out_dir, workload.reps,
                                                workload.methods, None)
                if outcome.entry["status"] == "ok":
                    bad = nonconverged_replications(tracer.spans, i)
                    per_rep = len(workload.methods)
                    for k, row in enumerate(outcome.entry["rows"]):
                        row.append(k // per_rep not in bad)
            if outcome.problems:
                raise RuntimeError(f"{workload.name} operation {i}: {outcome.problems}")
            entries.append(outcome.entry)
    finally:
        tracer.uninstall()
    return {"size": run.size_of(workload), "ops": entries}


def main() -> int:
    package = workloads.import_adaweight(run.ROOT)
    from adaweight import cli

    reference = {"seed": run.DEFAULT_SEED, "rtol": checks.RTOL, "workloads": {}}
    for name in workloads.WORKLOADS:
        work = os.path.join(run.WORK_ROOT, f"reference-{name}-{os.getpid()}")
        os.makedirs(work)
        try:
            reference["workloads"][name] = record(workloads.get(name), cli, package, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {name}", file=sys.stderr)
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass  # another run's directory is still there
    with open(run.REFERENCE, "w") as handle:
        handle.write(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """JSON with one operation per line, so a re-recording diffs readably."""
    blocks = []
    for name, entry in reference["workloads"].items():
        ops = ",\n".join("   " + json.dumps(op) for op in entry["ops"])
        blocks.append(f'  "{name}": {{"size": {json.dumps(entry["size"])}, "ops": [\n{ops}\n  ]}}')
    return (f'{{\n "seed": {reference["seed"]},\n "rtol": {reference["rtol"]},\n'
            f' "workloads": {{\n' + ",\n".join(blocks) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
