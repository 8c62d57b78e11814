"""Command-line interface.

Two subcommands:

* ``adaweight fit``      - fit one CSV dataset, JSON report on stdout
* ``adaweight simulate`` - run a Monte Carlo study, write errors.csv and
  summary.json under the output directory

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 numerical failure
(with the error category as JSON on stderr).  ``fit`` checks every flag,
whatever the route, before it reads the CSV, and ``simulate`` creates the
output directory before the study runs, so invalid input exits 2 even where
the computation would also fail.  A result file it cannot write exits 2 too.
``fit`` runs with numpy's floating-point warnings off, so its stderr holds
only the JSON error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bandwidth import cv_bandwidth
from .dataio import read_csv, to_json_text, write_errors_csv
from .errors import DataError, NumericalError
from .estimators import median, sandwich_covariance
from .losses import LossFunction
from .simulation import METHODS, SimConfig, inverse_variance_map, run_study
from .weights import (
    MODES,
    clamp_weights,
    epsilon_perturbation,
    evaluate_weight_map,
    first_step,
    np_weights,
    sp_index_weights,
    sp_projected_weights,
    squared_bandwidth,
    weighted_fit,
)

WEIGHT_ROUTES = ("constant", "parametric", *MODES, "oracle")

#: Most --cv-grid candidates: over two or more smoothing columns the CV scan
#: walks its band once per 256 candidates, keeping sums per (row, candidate) for
#: the rows the band reaches (four walks at 1000, n = 2000, with a tracemalloc
#: peak of 15 MB when they build their arena and 3 MB when it is already
#: built); the sorted path scores one at a time in O(n).
MAX_GRID_COUNT = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adaweight", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    fit = sub.add_parser("fit", help="fit one dataset")
    fit.add_argument("--data", required=True, help="CSV file with a 'y' column")
    fit.add_argument("--loss", default="square", help="square | huber:<c> | power:<p>")
    fit.add_argument("--weights", default="constant",
                     help="constant | parametric | np | sp-index | sp-proj | oracle")
    fit.add_argument("--bandwidth", default="cv", help="cv | <h>")
    fit.add_argument("--epsilon", default="auto", help="auto | <e> (sp-proj only)")
    fit.add_argument("--cv-grid", default=None,
                     help=f"<min>:<max>:<count> geometric grid, count <= {MAX_GRID_COUNT}")
    fit.add_argument("--sigma-model", default="smooth",
                     help="smooth | disc scale family for parametric/oracle weights")
    fit.add_argument("--oracle-beta", default=None,
                     help="comma-separated true coefficients (oracle weights)")

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--n", required=True)
    sim.add_argument("--q", required=True)
    sim.add_argument("--sigma", required=True, help="smooth | disc | constant")
    sim.add_argument("--methods", default=",".join(METHODS),
                     help="comma list from: " + ", ".join(METHODS))
    sim.add_argument("--reps", required=True)
    sim.add_argument("--seed", required=True)
    sim.add_argument("--bandwidth", default="cv", help="cv | <h>")
    sim.add_argument("--loss", default="square")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--workers", default="1")
    return parser


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{name} must be an integer, got {text!r}") from None


def _parse_float(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{name} must be a number, got {text!r}") from None
    if not np.isfinite(value):
        raise DataError(f"{name} must be finite, got {text!r}")
    return value


def parse_loss(spec: str) -> LossFunction:
    parts = spec.split(":")
    if parts[0] == "square" and len(parts) == 1:
        return LossFunction.square()
    if parts[0] == "huber" and len(parts) == 2:
        return LossFunction.huber(_parse_float(parts[1], "huber cutoff"))
    if parts[0] == "power" and len(parts) == 2:
        return LossFunction.power(_parse_float(parts[1], "power exponent"))
    raise DataError(f"cannot parse loss spec {spec!r}")


def parse_bandwidth(text: str) -> float | str:
    if text == "cv":
        return "cv"
    h = _parse_float(text, "bandwidth")
    squared_bandwidth(h)
    return h


def parse_cv_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"--cv-grid must look like <min>:<max>:<count>, got {text!r}")
    lo = _parse_float(parts[0], "grid min")
    hi = _parse_float(parts[1], "grid max")
    count = _parse_int(parts[2], "grid count")
    if not (0 < lo <= hi) or count < 1:
        raise DataError(f"invalid --cv-grid {text!r}")
    if count > MAX_GRID_COUNT:
        raise DataError(f"--cv-grid count must be at most {MAX_GRID_COUNT}, got {count}")
    squared_bandwidth(hi)  # before lo, so an overflow is named ahead of an underflow
    squared_bandwidth(lo)
    return np.geomspace(lo, hi, count)


@np.errstate(all="ignore")  # a non-finite value ends in a typed error, not a warning
def _run_fit(args) -> str:
    # parse every flag, whatever the route, before any data is read
    loss = parse_loss(args.loss)
    route = args.weights
    if route not in WEIGHT_ROUTES:
        raise DataError(f"--weights must be one of {WEIGHT_ROUTES}, got {route!r}")
    bandwidth = parse_bandwidth(args.bandwidth)
    grid = parse_cv_grid(args.cv_grid) if args.cv_grid else None
    epsilon = None if args.epsilon == "auto" else _parse_float(args.epsilon, "epsilon")
    if epsilon is not None and epsilon < 0:
        raise DataError("epsilon must be nonnegative")
    if args.sigma_model not in ("smooth", "disc"):
        raise DataError(f"--sigma-model must be smooth or disc, got {args.sigma_model!r}")
    family = inverse_variance_map(args.sigma_model)
    if route == "oracle" and args.oracle_beta is None:
        raise DataError("--weights oracle requires --oracle-beta")
    oracle_beta = None if args.oracle_beta is None else np.array(
        [_parse_float(v, "--oracle-beta entry") for v in args.oracle_beta.split(",")]
    )

    data = read_csv(args.data)
    if oracle_beta is not None and oracle_beta.shape != (1 + data.q,):
        raise DataError(f"--oracle-beta must have {1 + data.q} entries, got {oracle_beta.size}")
    fs = None if route in ("constant", "oracle") else first_step(data, loss)
    h_used = cv_diag = eps_used = None
    h_selection = "none"
    clamp_count = 0
    if route == "constant":
        w = np.ones(data.n)
    elif route in MODES:
        if route == "sp-proj":
            eps_used = epsilon_perturbation(data, fs) if epsilon is None else epsilon
        if bandwidth == "cv":
            cv = cv_bandwidth(data, fs, route, grid=grid, eps=eps_used)
            h_used, h_selection = cv.h_cv, "cv"
            cv_diag = {"grid": cv.grid, "scores": cv.scores, "valid_fraction": cv.valid_fraction}
        else:
            h_used, h_selection = bandwidth, "fixed"
        if route == "np":
            w = np_weights(data, loss, fs, h_used)
        elif route == "sp-index":
            w = sp_index_weights(data, loss, fs, h_used)
        else:
            w = sp_projected_weights(data, loss, fs, h_used, eps_used)
    else:  # parametric plugs in the first step, oracle the given coefficients
        beta = fs.beta if route == "parametric" else oracle_beta
        w, clamp_count = clamp_weights(evaluate_weight_map(lambda x: family(x, beta), data.x))

    fit = weighted_fit(data, loss, w)
    cov = sandwich_covariance(data, loss, w, fit.beta)

    return to_json_text({
        "beta": fit.beta,
        "standard_errors": np.sqrt(np.diag(cov)),
        "weights_summary": {
            "min": np.min(w),
            "median": median(w),
            "max": np.max(w),
            "clamp_count": clamp_count,
        },
        "bandwidth": {"value": h_used, "selection": h_selection, "cv": cv_diag},
        "epsilon": eps_used,
        "solver": {
            "iterations": fit.iterations,
            "converged": fit.converged,
            "gradient_norm": fit.gradient_norm,
        },
    })


def _run_simulate(args) -> str:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    config = SimConfig(
        n=_parse_int(args.n, "--n"),
        q=_parse_int(args.q, "--q"),
        sigma=args.sigma,
        methods=methods,
        replications=_parse_int(args.reps, "--reps"),
        seed=_parse_int(args.seed, "--seed"),
        bandwidth=parse_bandwidth(args.bandwidth),
        loss=parse_loss(args.loss),
    )
    workers = _parse_int(args.workers, "--workers")
    if workers < 1:
        raise DataError("--workers must be >= 1")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{args.out}: cannot create directory: {exc.strerror or exc}") from None
    result = run_study(config, workers=workers)
    text = to_json_text(result.summary())
    try:
        write_errors_csv(os.path.join(args.out, "errors.csv"), result)
        with open(os.path.join(args.out, "summary.json"), "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise DataError(f"{args.out}: cannot write results: {exc.strerror or exc}") from None
    return text


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        run = _run_fit if args.command == "fit" else _run_simulate
        sys.stdout.write(run(args))
        return 0
    except DataError as exc:
        sys.stderr.write(to_json_text({"error": "input", "message": str(exc)}))
        return 2
    except NumericalError as exc:
        sys.stderr.write(to_json_text({"error": exc.category, "message": str(exc)}))
        return 3


def entry_point() -> None:
    raise SystemExit(main())
