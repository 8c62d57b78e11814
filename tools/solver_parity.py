"""Compare every M-solver fit of the benchmark's traffic between two source trees.

    python3 tools/solver_parity.py --parent <checkout> --change <checkout>
        [--seeds 1000-1015] [--samples 4] [--json report.json]

Each checkout is a directory with a ``src/adaweight`` package.  Each side
runs in its own subprocess, which imports that checkout's ``adaweight``,
wraps ``weights.fit_weighted_m`` (the binding through which every ``fit``
and ``simulate`` M-fit goes, first steps included) so that it records each
fit, and runs the operations through ``cli.main`` in process:

* sim-mest: ``simulate --n 1000 --q 3 --sigma smooth --methods
  first-step,parametric,oracle --reps 10 --workers 1`` with ``huber:1.345``,
  ``power:1.5`` and ``power:1.2`` at every seed of ``--seeds``;
* fit-ingest: ``fit`` with constant, parametric and oracle weights under
  each of those losses, on ``--samples`` n = 50000, q = 4 ``smooth``
  samples (``simulation.generate_sample`` at seed 1, replications 0, 1,
  ...), written once as CSV by this tool, so that neither side's code
  writes them.  The square loss takes the closed form, not the M-solver.

A record is one fit: the bits of its beta and gradient norm, its
iterations and its converged flag, or the error it raised.  The report
lists every fit whose record differs between the sides, by workload, loss,
operation and position among that operation's fits, and every operation
whose exit code differs.  Each differing fit that both sides finished
carries its certificate ratio (the change's gradient norm over the
parent's) and its relative beta move (the largest coefficient change over
the parent's largest coefficient).  Fits whose converged flag flips, or
that raise on one side only, are listed apart as flips; over the others
the report counts the certificates better and worse by more than 2x and
gives the worst certificate ratio and the worst beta move.  The exit
status is 0 when every record and exit code is identical, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

from cli_parity import smooth_sample_csv_text

LOSSES = ("huber:1.345", "power:1.5", "power:1.2")
SIM_MEST = ["--n", "1000", "--q", "3", "--sigma", "smooth",
            "--methods", "first-step,parametric,oracle", "--reps", "10", "--workers", "1"]
INGEST_N, INGEST_Q, INGEST_SEED = 50_000, 4, 1
INGEST_WEIGHTS = ("constant", "parametric", "oracle")
#: The true coefficients (1, ..., 1)/sqrt(q+1), as fit-ingest passes them.
ORACLE_BETA = ",".join([repr(1.0 / (INGEST_Q + 1.0) ** 0.5)] * (INGEST_Q + 1))


def operations(seeds, samples: int, data_dir: str, out_dir: str):
    """``(workload, loss, operation name, argv)`` of every operation."""
    ops = []
    for seed in seeds:
        for loss in LOSSES:
            ops.append(("sim-mest", loss, f"seed {seed}",
                        ["simulate", *SIM_MEST, "--loss", loss, "--seed", str(seed),
                         "--out", out_dir]))
    for i in range(samples):
        data = ["fit", "--data", os.path.join(data_dir, f"sample{i}.csv")]
        for weights in INGEST_WEIGHTS:
            extra = ["--oracle-beta", ORACLE_BETA] if weights == "oracle" else []
            for loss in LOSSES:
                ops.append(("fit-ingest", loss, f"sample {i} {weights}",
                            data + ["--weights", weights, "--loss", loss, *extra]))
    return ops


def capture(tree: str, ops) -> dict:
    """Run ``ops`` on ``tree``'s ``adaweight``; every M-fit's record and every exit code."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    import adaweight
    from adaweight import cli, weights
    from adaweight.errors import DataError, NumericalError

    if not os.path.abspath(adaweight.__file__).startswith(src + os.sep):
        raise ImportError(f"adaweight was imported from {adaweight.__file__}, not {src}")
    solve = weights.fit_weighted_m
    fits, exits, where = [], [], {}

    def recorded(data, loss, w):
        record = dict(where)
        try:
            fit = solve(data, loss, w)
        except (DataError, NumericalError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            raise
        else:
            record.update(beta=fit.beta.tobytes().hex(), iterations=fit.iterations,
                          converged=fit.converged,
                          gradient_norm=float(fit.gradient_norm).hex())
            return fit
        finally:
            fits.append(record)

    weights.fit_weighted_m = recorded
    for workload, loss, name, argv in ops:
        where.update(workload=workload, loss=loss, operation=name)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exits.append(cli.main(argv))
    return {"fits": fits, "exits": exits}


def moved(a: dict, b: dict) -> dict:
    """Certificate ratio and relative beta move from fit ``a`` to fit ``b``."""
    beta_a, beta_b = (np.frombuffer(bytes.fromhex(f["beta"])) for f in (a, b))
    gnorm_a, gnorm_b = (float.fromhex(f["gradient_norm"]) for f in (a, b))
    scale = np.abs(beta_a).max()
    return {"certificate_ratio": gnorm_b / gnorm_a if gnorm_a else math.inf,
            "beta_move": float(np.abs(beta_b - beta_a).max() / scale) if scale else math.inf}


def certificates(different: list) -> dict:
    """Counts and extremes over the differing fits that both sides finished, unflipped."""
    kept = [d for d in different if "certificate_ratio" in d and not d["flip"]]
    ratios = [d["certificate_ratio"] for d in kept]
    moves = [d["beta_move"] for d in kept]
    return {"fits": len(ratios),
            "better": sum(r < 0.5 for r in ratios),
            "worse": sum(r > 2.0 for r in ratios),
            "worst_ratio": max(ratios, default=None),
            "worst_beta_move": max(moves, default=None)}


def compare(parent: dict, change: dict, ops) -> dict:
    different, positions = [], {}
    for a, b in zip(parent["fits"], change["fits"]):
        key = (a["workload"], a["loss"], a["operation"])
        position = positions[key] = positions.get(key, -1) + 1
        fields = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if fields:
            finished = "error" not in a and "error" not in b
            different.append({"workload": a["workload"], "loss": a["loss"],
                              "operation": a["operation"], "fit": position, "fields": fields,
                              # a side that raised has no converged flag
                              "flip": a.get("converged") != b.get("converged"),
                              **(moved(a, b) if finished else {}),
                              "parent": {k: a.get(k) for k in fields},
                              "change": {k: b.get(k) for k in fields}})
    exits = [{"operation": f"{workload} {loss} {name}", "parent": x, "change": y}
             for (workload, loss, name, _), x, y in zip(ops, parent["exits"], change["exits"])
             if x != y]
    counts = {}
    for fit in parent["fits"]:
        counts[fit["workload"]] = counts.get(fit["workload"], 0) + 1
    return {"fits": {"parent": len(parent["fits"]), "change": len(change["fits"])},
            "fits_by_workload": counts, "different": different,
            "flips": sum(d["flip"] for d in different), "certificates": certificates(different),
            "exits_different": exits}


def seed_range(text: str) -> list[int]:
    """``"1000-1015"`` or ``"7"`` as a list of seeds."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent tree")
    parser.add_argument("--change", help="checkout of the changed tree")
    parser.add_argument("--seeds", default="1000-1015", type=seed_range,
                        help="sim-mest seeds, FIRST-LAST or one seed (default 1000-1015)")
    parser.add_argument("--samples", default=4, type=int,
                        help="fit-ingest samples (default 4)")
    parser.add_argument("--json", help="write the full report to this file")
    # one side's run, in the subprocess that the two-sided run starts
    parser.add_argument("--capture", help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    parser.add_argument("--to", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.capture:
        with tempfile.TemporaryDirectory(prefix="solver-parity-out-") as out:
            result = capture(args.capture, operations(args.seeds, args.samples, args.data, out))
        with open(args.to, "w") as handle:
            json.dump(result, handle)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="solver-parity-") as tmp:
        data = os.path.join(tmp, "data")
        os.makedirs(data)
        for i in range(args.samples):
            with open(os.path.join(data, f"sample{i}.csv"), "w", newline="") as handle:
                handle.write(smooth_sample_csv_text(INGEST_N, INGEST_Q, INGEST_SEED, i))
        runs = {}
        for side in ("parent", "change"):
            to = os.path.join(tmp, f"{side}.json")
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--capture", getattr(args, side), "--data", data, "--to", to,
                            "--seeds", f"{args.seeds[0]}-{args.seeds[-1]}",
                            "--samples", str(args.samples)], check=True)
            with open(to) as handle:
                runs[side] = json.load(handle)
        report = compare(runs["parent"], runs["change"],
                         operations(args.seeds, args.samples, data, ""))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
    counts = ", ".join(f"{w} {n}" for w, n in report["fits_by_workload"].items())
    fits = report["fits"]
    print(f"{fits['parent']} fits ({counts}): "
          f"{fits['parent'] - len(report['different'])} identical, "
          f"{len(report['different'])} different")
    if fits["parent"] != fits["change"]:
        print(f"  the change made {fits['change']} fits")
    cert = report["certificates"]
    if report["different"]:
        print(f"  converged flag flipped or raised on one side: {report['flips']} fits")
    if cert["fits"]:
        print(f"  certificates of the other {cert['fits']}: {cert['better']} better and "
              f"{cert['worse']} worse by more than 2x; worst ratio "
              f"{cert['worst_ratio']:.3g} (change / parent), worst relative beta move "
              f"{cert['worst_beta_move']:.3g}")
    for diff in report["different"]:
        detail = (f" (certificate ratio {diff['certificate_ratio']:.3g}, beta move "
                  f"{diff['beta_move']:.3g})" if "beta_move" in diff else "")
        print(f"  {'flip' if diff['flip'] else 'different'}: {diff['workload']} {diff['loss']} "
              f"{diff['operation']} fit {diff['fit']}: {', '.join(diff['fields'])}{detail}")
    for diff in report["exits_different"]:
        print(f"  exit code: {diff['operation']}: {diff['parent']} -> {diff['change']}")
    same = not report["different"] and not report["exits_different"]
    return 0 if same and fits["parent"] == fits["change"] else 1


if __name__ == "__main__":
    sys.exit(main())
