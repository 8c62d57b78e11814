"""Benchmark of ``adaweight fit`` and ``adaweight simulate``.

    python3 perfbench/run.py --workload fit-cv --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates its inputs from the
seed, sets the program up several times in fresh processes, measures one
closed-loop load-generating process for ``--seconds``, checks every output,
and prints a report followed, as the last line, by one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced repeat of the measured operations.  The exit code is 0 when every
output check passed, 1 when one failed or the run broke, and 2 when the
checkout holds no ``src/adaweight`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

import analysis
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

#: Set-ups per run (fresh processes); ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Processes writing input files.
GENERATORS = 2
#: Seconds the input generators may take together before they are stopped.
GENERATE_TIMEOUT_S = 120
#: Seed of ``reference.json`` and the default ``--seed``.
DEFAULT_SEED = 1
#: Seconds a child process may take beyond its budget before it is stopped.
CHILD_GRACE_S = 60


class RunError(RuntimeError):
    """The benchmark itself could not complete a run."""


def environment() -> dict:
    """Machine, library and thread settings, as found (never changed)."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _commit() -> str:
    """HEAD of the checkout's own ``.git``, or ``unknown`` outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as handle:
                head = handle.read().strip()
        return head
    except OSError:
        return "unknown"


def pass_count(workload, trace: bool) -> int:
    """Untraced pass, then for a traced run a single-worker pass if the
    workload runs several workers, and the traced pass."""
    return 1 if not trace else (3 if workload.workers > 1 else 2)


def generate_inputs(workload, seed: int, count: int, data_dir: str, work: str) -> None:
    """Write the CSV inputs of a fit workload: one per operation, one for warm-up.

    The files are split over ``GENERATORS`` child processes, each started
    with ``subprocess`` and waited for (killed first if still running) on
    every way out of this function, so no process outlives the run.
    """
    if workload.command != "fit":
        return
    indices = [*range(count), workloads.WARMUP_INDEX]
    tasks = [(ROOT, workload.n, workload.q, seed, i, os.path.join(data_dir, f"{i}.csv"))
             for i in indices]
    procs = []
    try:
        for k in range(GENERATORS):
            tasks_path = os.path.join(work, f"generate{k}.json")
            with open(tasks_path, "w") as handle:
                json.dump(tasks[k::GENERATORS], handle)
            procs.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "workloads.py"), tasks_path],
                stdout=subprocess.DEVNULL))
        for proc in procs:
            proc.wait(timeout=GENERATE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"input generation exceeded {GENERATE_TIMEOUT_S} s") from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    codes = [proc.returncode for proc in procs]
    if any(codes):
        raise RunError(f"input generators exited with {codes}")


def run_child(spec: dict, work: str, tag: str, timeout: float) -> dict:
    spec_path = os.path.join(work, f"{tag}.spec.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "loadgen.py"), spec_path, result_path],
            stdout=subprocess.DEVNULL, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{tag} process exceeded {timeout:.0f} s and was stopped") from None
    if proc.returncode != 0:
        raise RunError(f"{tag} process exited with {proc.returncode}")
    with open(result_path) as handle:
        return json.load(handle)


def load_reference(workload, seed: int, smoke: bool) -> list:
    """Reference entries by operation index, when this run is comparable."""
    if smoke or seed != DEFAULT_SEED or not os.path.exists(REFERENCE):
        return []
    with open(REFERENCE) as handle:
        ref = json.load(handle)
    entry = ref["workloads"].get(workload.name)
    if ref["seed"] != seed or entry is None or entry["size"] != size_of(workload):
        return []
    return entry["ops"]


def size_of(workload) -> dict:
    return {"n": workload.n, "q": workload.q, "reps": workload.reps}


def check_pass(workload, records: list, out_dir: str, reference: list) -> list:
    outcomes = []
    for i, record in enumerate(records):
        ref = reference[i] if i < len(reference) else None
        if workload.command == "fit":
            outcomes.append(checks.check_fit(record, workload.q, ref))
        else:
            outcomes.append(checks.check_simulate(
                record, os.path.join(out_dir, str(i)), workload.reps, workload.methods, ref))
    return outcomes


def execute(workload, seed: int, seconds: float, trace: bool, smoke: bool, work: str):
    """Generate, set up, measure and check one run.

    Returns (setup results, main result, outcomes by pass).
    """
    data_dir = os.path.join(work, "data")
    out_dir = os.path.join(work, "out")
    os.makedirs(data_dir)
    count = workload.operations(seconds / pass_count(workload, trace))
    generate_inputs(workload, seed, count, data_dir, work)
    spec = {"root": ROOT, "workload": workload.name, "smoke": smoke, "seed": seed,
            "operations": count, "trace": trace, "data_dir": data_dir, "mode": "setup"}
    setups = [run_child(dict(spec, out_dir=os.path.join(out_dir, f"setup{k}")), work,
                        f"setup{k}", CHILD_GRACE_S)
              for k in range(SETUP_REPEATS - 1)]
    main = run_child(dict(spec, mode="run", out_dir=out_dir), work, "run",
                     3 * seconds + CHILD_GRACE_S)
    setups.append(main)
    reference = load_reference(workload, seed, smoke)
    outcomes = {name: check_pass(workload, records, os.path.join(out_dir, name), reference)
                for name, records in main["passes"].items()}
    for k, setup in enumerate(setups):
        if setup["warmup"]["code"] != 0:
            outcomes.setdefault("warmup", []).append(checks.Outcome(
                0, 0, [f"warm-up {k} exited {setup['warmup']['code']}: "
                       f"{setup['warmup']['stderr'][:300]}"]))
    return setups, main, outcomes


def end_to_end(workload, setups: list, main: dict) -> tuple[dict, dict]:
    records = main["passes"]["untraced"]
    calls = [r["seconds"] for r in records]
    group = workload.sample_ops
    times = [sum(calls[i:i + group]) for i in range(0, len(calls), group)]
    tail, pct = analysis.tail(times)
    values = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"operations": len(calls), "samples": len(times), "tail_percentile": pct,
             "setup_s_samples": [s["setup_s"] for s in setups]}
    if workload.command == "simulate":
        notes["reps_per_s"] = statistics.median(workload.reps / t for t in calls)
    return {k: (v, analysis.END_TO_END_UNITS[k]) for k, v in values.items()}, notes


#: Per-command names of the end-to-end metrics, printed beside the neutral ones.
COMMAND_NAMES = {
    "fit": {"op_s_p50": "fit_s_p50", "op_s_tail": "fit_s_tail"},
    "simulate": {},
}


def print_report(workload, args, metrics: dict, notes: dict, attempted: int, failed: int,
                 problems: list, details: dict) -> None:
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} {mode}")
    aliases = COMMAND_NAMES[workload.command]
    for name, (value, unit) in metrics.items():
        shown = "MISSING" if value is None else f"{value:.6g}"
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:38s} {shown:>14s} {unit}{alias}")
    if not args.trace:
        print(f"  tail = p{notes['tail_percentile']:.1f} of {notes['samples']} samples "
              f"of {workload.sample_ops} operation(s) each")
    if "reps_per_s" in notes:
        print(f"  reps_per_s {notes['reps_per_s']:.6g} 1/s (median over calls of reps / call time)")
    print(f"  failed_frac {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print("details " + json.dumps(details, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(workloads.source_dir(ROOT), "adaweight", "__init__.py")):
        sys.stderr.write(f"perfbench: no adaweight sources under {ROOT}/src\n")
        return 2

    # a stop request unwinds through the ``finally`` blocks that stop and
    # wait for the child processes and remove the work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = workloads.get(args.workload, args.smoke)
    env = environment()
    load_start = os.getloadavg()
    work = os.path.join(WORK_ROOT, f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        setups, main_result, outcomes = execute(
            workload, args.seed, args.seconds, bool(args.trace), args.smoke, work)
    except (RunError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: run failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there

    all_outcomes = [o for group in outcomes.values() for o in group]
    attempted = sum(o.attempted for o in all_outcomes)
    failed = sum(o.failed for o in all_outcomes)
    problems = [p for o in all_outcomes for p in o.problems]
    if args.trace:
        metrics, missing = analysis.per_layer(
            workload, main_result["spans"], main_result["passes"])
        notes = {"operations": len(main_result["passes"]["traced"]), "missing": missing}
    else:
        metrics, notes = end_to_end(workload, setups, main_result)
    details = {"workload": workload.name, "seed": args.seed, "environment": env,
               "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
               "failed_frac": failed / max(attempted, 1), **notes}
    print_report(workload, args, metrics, notes, attempted, failed, problems, details)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
