"""Command-line interface.

Two subcommands:

* ``adaweight fit``      - fit one CSV dataset, JSON report on stdout
* ``adaweight simulate`` - run a Monte Carlo study, write errors.csv and
  summary.json under the output directory

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 numerical failure
(with the error category as JSON on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bandwidth import cv_bandwidth
from .dataio import read_csv, study_summary_dict, to_json_text, write_errors_csv
from .errors import DataError, NumericalError
from .estimators import fit_weighted_m, fit_wls, sandwich_covariance
from .losses import LossFunction
from .simulation import METHODS, SimConfig, inverse_variance_map, run_study
from .weights import (
    clamp_weights,
    epsilon_perturbation,
    evaluate_weight_map,
    first_step,
    np_weights,
    sp_index_weights,
    sp_projected_weights,
)

WEIGHT_ROUTES = ("constant", "parametric", "np", "sp-index", "sp-proj", "oracle")


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
    fit.add_argument("--cv-grid", default=None, help="<min>:<max>:<count> geometric grid")
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
    try:
        if parts[0] == "square" and len(parts) == 1:
            return LossFunction.square()
        if parts[0] == "huber" and len(parts) == 2:
            return LossFunction.huber(_parse_float(parts[1], "huber cutoff"))
        if parts[0] == "power" and len(parts) == 2:
            return LossFunction.power(_parse_float(parts[1], "power exponent"))
    except ValueError as exc:
        raise DataError(str(exc)) from None
    raise DataError(f"cannot parse loss spec {spec!r}")


def parse_bandwidth(text: str) -> float | str:
    if text == "cv":
        return "cv"
    h = _parse_float(text, "bandwidth")
    if not h > 0:
        raise DataError(f"bandwidth must be positive, got {h}")
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
    return np.geomspace(lo, hi, count)


def _run_fit(args) -> dict:
    data = read_csv(args.data)
    loss = parse_loss(args.loss)
    route = args.weights
    if route not in WEIGHT_ROUTES:
        raise DataError(f"--weights must be one of {WEIGHT_ROUTES}, got {route!r}")

    fs = first_step(data, loss)
    bandwidth = parse_bandwidth(args.bandwidth)
    grid = parse_cv_grid(args.cv_grid) if args.cv_grid else None

    h_used = None
    h_selection = "none"
    cv_diag = None
    eps_used = None
    clamp_count = 0

    if route == "constant":
        w = np.ones(data.n)
    elif route in ("np", "sp-index", "sp-proj"):
        if route == "sp-proj":
            if args.epsilon == "auto":
                eps_used = epsilon_perturbation(data, fs)
            else:
                eps_used = _parse_float(args.epsilon, "epsilon")
                if eps_used < 0:
                    raise DataError("epsilon must be nonnegative")
        if bandwidth == "cv":
            cv = cv_bandwidth(data, fs, route, grid=grid, eps=eps_used)
            h_used, h_selection = cv.h_cv, "cv"
            cv_diag = {
                "grid": [float(v) for v in cv.grid],
                "scores": [float(v) for v in cv.scores],
                "valid_fraction": [float(v) for v in cv.valid_fraction],
            }
        else:
            h_used, h_selection = float(bandwidth), "fixed"
        if route == "np":
            w = np_weights(data, loss, fs, h_used)
        elif route == "sp-index":
            w = sp_index_weights(data, loss, fs, h_used)
        else:
            w = sp_projected_weights(data, loss, fs, h_used, eps_used)
    else:  # parametric plugs in the first step, oracle the given coefficients
        if route == "parametric":
            beta = fs.beta
        elif args.oracle_beta is None:
            raise DataError("--weights oracle requires --oracle-beta")
        else:
            beta = np.array(
                [_parse_float(v, "--oracle-beta entry") for v in args.oracle_beta.split(",")]
            )
            if beta.shape != (1 + data.q,):
                raise DataError(
                    f"--oracle-beta must have {1 + data.q} entries, got {beta.size}"
                )
        if args.sigma_model not in ("smooth", "disc"):
            raise DataError(f"--sigma-model must be smooth or disc, got {args.sigma_model!r}")
        family = inverse_variance_map(args.sigma_model)
        w, clamp_count = clamp_weights(evaluate_weight_map(family, data.x, beta))

    if loss.family == "square":
        fit = fit_wls(data, w)
    else:
        fit = fit_weighted_m(data, loss, w)
    cov = sandwich_covariance(data, loss, w, fit.beta)

    return {
        "beta": [float(b) for b in fit.beta],
        "standard_errors": [float(s) for s in np.sqrt(np.diag(cov))],
        "weights_summary": {
            "min": float(np.min(w)),
            "median": float(np.median(w)),
            "max": float(np.max(w)),
            "clamp_count": clamp_count,
        },
        "bandwidth": {"value": h_used, "selection": h_selection, "cv": cv_diag},
        "epsilon": eps_used,
        "solver": {
            "iterations": fit.iterations,
            "converged": fit.converged,
            "gradient_norm": fit.gradient_norm,
        },
    }


def _run_simulate(args) -> dict:
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
    result = run_study(config, workers=workers)

    os.makedirs(args.out, exist_ok=True)
    write_errors_csv(os.path.join(args.out, "errors.csv"), result)
    summary = study_summary_dict(result)
    with open(os.path.join(args.out, "summary.json"), "w") as handle:
        handle.write(to_json_text(summary))
    return summary


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
        if args.command == "fit":
            report = _run_fit(args)
        else:
            report = _run_simulate(args)
        sys.stdout.write(to_json_text(report))
        return 0
    except DataError as exc:
        sys.stderr.write(to_json_text({"error": "input", "message": str(exc)}))
        return 2
    except NumericalError as exc:
        sys.stderr.write(to_json_text({"error": exc.category, "message": str(exc)}))
        return 3


def entry_point() -> None:
    raise SystemExit(main())
