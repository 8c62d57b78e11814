"""Load-generating process: one closed-loop client calling ``adaweight.cli.main``.

Run by ``run.py`` as ``python3 loadgen.py <spec.json> <result.json>``.  The
spec names the workload, seed, number of operations and the directories
holding the pre-generated inputs.  In ``setup`` mode the process only imports
``adaweight`` and makes the untimed warm-up operation; in ``run`` mode it then
measures.  Every operation runs on this process's main thread, one at a
time; ``simulate --workers`` starts the program's own threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import tracing
import workloads


def run_op(cli, argv, tracer=None, op_id=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_op(op_id, lambda: cli.main(argv))
        except Exception:  # an escaped exception is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return {"code": code, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


class LoadGenerator:
    def __init__(self, spec: dict, cli):
        self.spec = spec
        self.cli = cli
        self.workload = workloads.get(spec["workload"], spec["smoke"])

    def argv(self, index: int, pass_name: str, workers: int | None = None) -> list[str]:
        data = os.path.join(self.spec["data_dir"], f"{index}.csv")
        out = os.path.join(self.spec["out_dir"], pass_name, str(index))
        return self.workload.argv(index, self.spec["seed"], data, out, workers)

    def measure(self, pass_name: str, workers=None, tracer=None) -> list[dict]:
        """Run operations ``0..operations-1``, optionally traced."""
        return [
            run_op(self.cli, self.argv(i, pass_name, workers), tracer, i)
            for i in range(self.spec["operations"])
        ]


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)

    start = time.perf_counter()
    package = workloads.import_adaweight(spec["root"])
    from adaweight import cli

    gen = LoadGenerator(spec, cli)
    warmup = run_op(cli, gen.argv(workloads.WARMUP_INDEX, "warmup"))
    result = {"setup_s": time.perf_counter() - start, "warmup": warmup}

    if spec["mode"] == "run":
        passes = result["passes"] = {"untraced": gen.measure("untraced")}
        if spec["trace"]:
            # the same operations again: single-worker baseline, then traced
            if gen.workload.workers > 1:
                passes["single_worker"] = gen.measure("single_worker", workers=1)
            tracer = tracing.Tracer(memory=gen.workload.workers == 1)
            tracer.install(package)
            try:
                passes["traced"] = gen.measure("traced", tracer=tracer)
            finally:
                tracer.uninstall()
            result["spans"] = tracer.spans
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
