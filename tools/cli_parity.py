"""Compare the CLI output of two source trees on a fixed command set.

    python3 tools/cli_parity.py --parent <checkout> --change <checkout> [--json report.json]

Each checkout is a directory with a ``src/adaweight`` package.  The tool
writes the input CSVs once, copies them into one work directory per side,
and runs every command as ``python -m adaweight ...`` in a subprocess with
that side's ``src`` on ``PYTHONPATH`` and its work directory as the current
directory, so paths in messages read the same on both sides; a warning's
source path is written relative to the checkout.  A record is
one command's exit code, stdout and stderr, plus ``errors.csv`` and
``summary.json`` for ``simulate``.

The report says which records are byte-identical.  For the others it parses
both sides (JSON, or CSV for ``errors.csv``) and, when only numbers moved,
gives the worst relative difference per kind of field: beta, standard
errors, CV scores, weight summaries, ``errors.csv``, ``summary.json`` and
other numbers.  A record whose exit code, text or structure changed is
listed as different.  A number whose two sides are both at most
``ROUNDING`` (1e-15) in magnitude moved at rounding level: such moves are
listed by record and path, apart from the others, and no relative bound
applies to them (a certificate going from 0 to 2.8e-17 is not a move of
rel 1).  A ``solver.gradient_norm`` of two converged fits whose sides are
both at most ``CERTIFICATE_TOL`` (1e-10, the solver's ``estimators.TOL``) is
listed apart by record too: below that tolerance the certificate moves with
the last bits of the weights.  So is the ``solver.gradient_norm`` of a
closed-form weighted least-squares fit (``iterations`` 0 on both sides),
whatever its size: it is the rounding residual of the normal equations and
scales with their entries, which reach 1e10 on covariates of spread 1e4.  The exit status is 0 when no record differs
and no other number moved by more than ``RTOL`` (rel 1e-12), else 1.

The command set, 224 records: three CSVs (q = 1, 2, 3) x four losses x
seven weight routes; ``q2.csv`` with every covariate shifted by +1e4 under
the constant, np and sp-proj routes (a shift that still makes the first
step's moment matrix singular); a q = 2 integer lattice with ties, fitted
by np and sp-proj at ``--bandwidth`` 0.5, 1 and 2 (np puts neighbours at
exactly h) and by CV; a q = 1 integer lattice with ties, fitted by sp-index and
np at ``--bandwidth 1`` (np puts neighbours at exactly h) and by CV, and by
np at ``--bandwidth 2e-162``, whose square is the least subnormal, so the
sorted path's search stops short of the tied rows and the forward fix-up
pulls them in; ``q1.csv`` by np at ``--bandwidth 0.5000688122609995``, the
rounded difference of two of its points, where the search at z + h lands
past the farther one and the back fix-up moves the edge in; an n = 5000
sp-index CV fit, whose sorted one-dimensional path crosses many segments;
np and sp-proj CV fits at n = 2000 on a q = 2 design whose covariates have
correlation 0.9 and on a q = 3 design, where the sorted band of two or more
columns prunes most and its pairs cross many blocks; np and sp-proj fits at
``--bandwidth 1`` on a q = 2 design of spread 1e4 whose every second row is
its predecessor plus a step of about 0.7 per coordinate, so pairs sit near
the window edge far from the origin;
fixed bandwidths, explicit epsilon and ``--cv-grid`` fits
(200- and 1000-point grids among them, and a refused 1001-point one);
bandwidth extremes; input errors; malformed and unusual CSV files (a repeated ``y``
column, and non-finite cells: ``nan``, ``inf``, ``1e999``, which overflows,
and a quoted ``"nan"`` below a blank line, among them); six ``simulate
--workers 2`` studies and four invalid ones (``--out`` naming a file, a
repeated method, an ``--out`` whose ``errors.csv`` is a directory, a
negative ``--seed``).  One of the six, all five methods by CV at n = 500,
q = 4, walks bands of two blocks on both worker threads, where np and sp
borrow and grow the band arenas of :mod:`adaweight.weights` concurrently.
The ``power:1.2`` fits and study reach M-solver runs that stall at a fixed
point or a cycle;
the ``power:1.5`` study reaches weighted runs that the full-step rule alone
leaves still moving at the iteration cap.  Two
``power`` fits on ``zero_residual.csv`` reach an exact zero residual in a row
with a zero covariate, where the curvature matrix holds inf * 0 = NaN, and
three ``power:1.2`` np fits there put g2 = inf into the kernel sums; a
``power:1.2`` fit on ``five_rows_q3.csv`` meets an infinite curvature too.  On
``constant.csv``, whose covariate is constant so the first step fails, five
fits carry a malformed flag that only their route uses.  On
``overflow.csv``, whose residuals are about 1e160, nine fits square them
past the float range (all but the huber one fail; by CV, the sp-index spread
and the sp-proj coordinates overflow too).  ``q2.csv`` with y scaled by
1e-170 is fitted by np, sp-index and sp-proj with CV: its squared residuals,
index spread and squared slope underflow.  On ``exact_fit.csv``,
whose first step fits exactly, six kernel fits meet a zero first-step score
everywhere.  Eight fits probe bandwidths whose square underflows or is
subnormal, a ``power:1000`` loss and an ``--epsilon`` of 1e300 (at h = 1
and by CV, on ``q1.csv`` and ``q2.csv``; the squared coordinate differences
overflow, and by CV the spread does); one study
has a bandwidth whose square underflows, one a bandwidth whose square is
subnormal, and one asks for 64 workers for three replications.  In the
n = 6 ``power:1.2`` study first steps and oracle fits meet a working matrix
that turns singular mid-solve (the first step of replication 148 raised
there before such matrices were stepped past), and one study names the loss ``huber:1.3456789``, which ``summary.json`` repeats.
Two oracle fits read a ``simulate`` sample (``smooth`` scale, written from
the same draws as ``simulation.generate_sample``) whose largest weight is
over 1e5 times the median: a ``power:1.5`` fit at n = 100, q = 3 that the
full-Newton-step rule alone leaves at the iteration cap with a gradient
norm near 1.4e3, and a ``power:1.2`` fit at n = 30, q = 1 whose curvature
and IRLS matrices turn singular after the start.  ``huber:0.001`` and
``huber:0.01`` fits on ``q3.csv`` start with at most two residuals within
the cutoff, so they take the solver's fallback step for a singular
curvature matrix at the start and mid-solve.  The 0.01 fit converges and
prints its beta; the 0.001 fit takes the fallback step in 99 of its 100
iterations, stops at the cap with two residuals within the cutoff, and
exits 3 with a singular sandwich curvature matrix.  An oracle fit on
``q2.csv`` with ``--oracle-beta 1,0,0`` has a zero slope, so every ``smooth``
weight is 0/0 and the fit exits 3 with a ``weight-family`` error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

LOSSES = ("square", "huber:1.345", "power:1.5", "power:1.2")
CSV_SIZES = {"q1": (1, 150), "q2": (2, 250), "q3": (3, 300)}
#: Seven rows on which a power fit with 1 < p < 2 reaches an exact zero
#: residual in the row with x1 = 0.
ZERO_RESIDUAL_CSV = "y,x1\n0,-3\n2,-1\n1,0\n0,1\n2,3\n3,2\n-1,-2\n"
#: Five rows whose only covariate is constant, so every first step fails.
CONSTANT_CSV = "y,x1\n1,2\n2,2\n3,2\n4,2\n5,2\n"
#: Six rows whose residuals are about 1e160, so their squares overflow.
OVERFLOW_CSV = "y,x1\n1e160,0\n-1e160,1\n2e160,2\n0,3\n1e159,4\n-3e160,5\n"
#: Five rows with y = 0: the first step fits them exactly, so every
#: first-step score is 0.
EXACT_FIT_CSV = "y,x1\n0,0\n0,1\n0,2\n0,3\n0,5\n"
#: ``generate_sample(5, 3, "smooth", replication_rng(1, 5))``: a power fit
#: with 1 < p < 2 meets an exact zero residual, so its curvature matrix
#: holds inf.
FIVE_ROWS_Q3_CSV = (
    "y,x1,x2,x3\n"
    "0.068608051699951544,-1.6568357113998085,2.523601940427501,-0.21034678856819894\n"
    "0.78932044530351764,0.72438917316122664,-1.7402419637032047,1.4964055726870322\n"
    "-0.20024582053903434,0.058831209922365325,-0.52372190825737719,-0.21138698018532481\n"
    "-2.3490535770660754,-0.11869943330544534,-0.18246827562308768,-1.4568796644550905\n"
    "-1.2373749406130599,-0.68768883030087391,-0.99556389335240247,-0.31864818755352503\n"
)
#: Output directory of a study whose ``errors.csv`` is a directory.
UNWRITABLE_OUT = "out/unwritable"
RTOL = 1e-12  # largest relative move of a number that passes
ROUNDING = 1e-15  # both sides at most this in magnitude: a rounding-level move
#: ``adaweight.estimators.TOL``: a converged fit's gradient norm is at most
#: this, and below it the norm moves with the last bits of the weights.
CERTIFICATE_TOL = 1e-10


def fit_csv_text(q: int, n: int, seed: int, shift: float = 0.0, y_scale: float = 1.0,
                 rho: float = 0.0) -> str:
    """A heteroscedastic linear sample with 17-digit cells, covariates shifted by ``shift``.

    With ``rho`` every covariate after the first has correlation ``rho`` with the first.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, q))
    if rho:
        x[:, 1:] = rho * x[:, :1] + np.sqrt(1.0 - rho * rho) * x[:, 1:]
    sigma = 0.5 + np.abs(x[:, 0]) + 0.25 * x[:, -1] ** 2
    y = (1.0 + x @ np.linspace(1.0, -0.5, q) + sigma * rng.normal(size=n)) * y_scale
    x = x + shift
    lines = [",".join(["y"] + [f"x{j + 1}" for j in range(q)])]
    lines += [",".join(format(v, ".17g") for v in (y[i], *x[i])) for i in range(n)]
    return "\n".join(lines) + "\n"


def lattice_csv_text(n: int, seed: int, q: int = 1) -> str:
    """A sample whose q covariates take the integers -6..6, so values tie."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-6, 7, size=(n, q))
    y = 1.0 + x @ np.linspace(0.5, -0.25, q) + (0.5 + np.abs(x[:, 0]) / 4) * rng.normal(size=n)
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(q)])
    return header + "\n" + "".join(f"{v:.17g},{','.join(map(str, u))}\n" for v, u in zip(y, x))


def paired_csv_text(n: int, seed: int, spread: float, h: float) -> str:
    """A q = 2 sample of normal covariates of scale ``spread``, every second row its
    predecessor plus a normal step of scale 0.7 h per coordinate."""
    rng = np.random.default_rng(seed)
    x = spread * rng.normal(size=(n, 2))
    x[1::2] = x[:-1:2] + 0.7 * h * rng.normal(size=(n // 2, 2))
    y = 1.0 + x @ [1.0, -0.5] + (0.5 + np.abs(x[:, 0]) / spread) * rng.normal(size=n)
    lines = ["y,x1,x2"] + [",".join(format(v, ".17g") for v in (y[i], *x[i])) for i in range(n)]
    return "\n".join(lines) + "\n"


def smooth_sample_csv_text(n: int, q: int, seed: int, replication: int) -> str:
    """``simulation.generate_sample(n, q, "smooth", replication_rng(seed, replication))``
    as a CSV with 17-digit cells, drawn here so that neither side's code writes it.

    The normals come from scipy's ``ndtri``, so a tail draw may differ from
    ``simulation.ndtri``'s in its last bits; both sides read the same file.
    """
    from scipy.special import ndtri

    stream = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    rng = np.random.Generator(np.random.Philox(stream))
    beta = np.full(1 + q, 1.0 / np.sqrt(q + 1.0))
    x = ndtri(rng.random((n, q)) + 2.0**-54)
    eps = ndtri(rng.random(n) + 2.0**-54)
    y = beta[0] + x @ beta[1:] + x @ beta[1:] / np.linalg.norm(beta[1:]) * eps
    lines = [",".join(["y"] + [f"x{j + 1}" for j in range(q)])]
    lines += [",".join(format(v, ".17g") for v in (y[i], *x[i])) for i in range(n)]
    return "\n".join(lines) + "\n"


def ingest_cases() -> dict[str, bytes | None]:
    """Unusual CSV files, by name; ``None`` is a directory."""
    ok = "1,0.5\n2,1.5\n3,2.25\n4,3.5\n5,4\n"
    return {
        "ragged.csv": b"y,x1\n1,2\n3\n5,6\n7,8\n",
        "word.csv": b"y,x1\n1,2\n3,oops\n5,6\n7,8\n",
        "whitespace_line.csv": b"y,x1\n1,2\n   \n3,4\n5,6\n7,8\n",
        "comment_line.csv": b"y,x1\n1,2\n# note\n3,4\n5,6\n7,8\n",
        "header_only.csv": b"y,x1,x2\n",
        "empty.csv": b"",
        "no_y.csv": b"a,x1\n1,2\n3,4\n5,6\n",
        "no_covariates.csv": b"y\n1\n2\n3\n",
        "too_few_rows.csv": b"y,x1\n1,2\n3,4\n",
        "nan.csv": b"y,x1\n1,2\n3,nan\n5,6\n7,8\n",
        "inf.csv": b"y,x1\n1,2\n2,inf\n3,4\n5,1\n",
        "overflow_cell.csv": b"y,x1\n1,2\n2,1e999\n3,4\n5,1\n",
        "quoted_nan.csv": b'y,x1\n1,2\n\n"nan",4\n3,4\n5,1\n',
        "quoted.csv": ('y,x1\n"1","0.5"\n' + ok).encode(),
        "underscore.csv": ("y,x1\n1_0,2\n" + ok).encode(),
        "arabic_digits.csv": ("y,x1\n\u0661,2\n" + ok).encode(),
        "crlf_blank.csv": ("y,x1\r\n\r\n" + ok.replace("\n", "\r\n") + "\r\n").encode(),
        "padded.csv": (" y , x1 \n 1 , 2 \n" + ok).encode(),
        "empty_cell.csv": b"y,x1\n1,\n3,4\n5,6\n7,8\n",
        "trailing_comma.csv": b"y,x1\n1,2,\n3,4,\n5,6,\n7,8,\n",
        "nul_byte.csv": b"y,x1\n1,2\x00\n3,4\n5,6\n7,8\n",
        "no_final_newline.csv": ("y,x1\n" + ok).rstrip("\n").encode(),
        "bom.csv": ("\ufeffy,x1\n" + ok).encode(),
        "latin1.csv": b"y,x1\n1,2\n3,\xe9\n5,7\n",
        "folder.csv": None,
        "long_name.csv": b"y," + b"a" * 140000 + b"\n1,2\n3,4\n5,6\n",
        "long_cell.csv": b'y,x1\n1,2\n3,"' + b"1" * 140000 + b'"\n5,6\n7,8\n',
        "repeated_y.csv": b"y,x1,y\n1,2,5\n4,1,3\n2,7,1\n8,3,6\n5,5,2\n",
    }


def command_set() -> list[tuple[str, list[str]]]:
    """``(record name, argv)`` for every record."""
    cmds = []
    for name, (q, _) in CSV_SIZES.items():
        data = ["fit", "--data", f"data/{name}.csv"]
        oracle_beta = ",".join(["1"] + ["0.5"] * q)
        for loss in LOSSES:
            routes = {
                "constant": ["--weights", "constant"],
                "parametric-smooth": ["--weights", "parametric"],
                "parametric-disc": ["--weights", "parametric", "--sigma-model", "disc"],
                "np": ["--weights", "np"],
                "sp-index": ["--weights", "sp-index"],
                "sp-proj": ["--weights", "sp-proj"],
                "oracle-disc": ["--weights", "oracle", "--sigma-model", "disc",
                                "--oracle-beta", oracle_beta],
            }
            for route, extra in routes.items():
                cmds.append((f"{name}/{loss}/{route}", data + ["--loss", loss] + extra))
    q2 = ["fit", "--data", "data/q2.csv"]
    q3 = ["fit", "--data", "data/q3.csv"]
    more = {
        "np-h0.5": q2 + ["--weights", "np", "--bandwidth", "0.5"],
        "sp-index-h0.3": q2 + ["--weights", "sp-index", "--bandwidth", "0.3"],
        "sp-proj-h0.5": q2 + ["--weights", "sp-proj", "--bandwidth", "0.5"],
        "sp-proj-eps": q2 + ["--weights", "sp-proj", "--epsilon", "0.2"],
        "sp-proj-eps-h": q2 + ["--weights", "sp-proj", "--epsilon", "0.2", "--bandwidth", "0.5"],
        "grid-0.2:3:7": q2 + ["--weights", "np", "--cv-grid", "0.2:3:7"],
        "grid-huber": q2 + ["--weights", "np", "--loss", "huber:1", "--cv-grid", "0.1:2:5"],
        "grid-disqualified": q2 + ["--weights", "np", "--cv-grid", "1e-6:1e-5:3"],
        "grid-200": q2 + ["--weights", "np", "--cv-grid", "0.05:3:200"],
        "grid-1000": q2 + ["--weights", "np", "--cv-grid", "0.05:3:1000"],
        "grid-sp-index-q3": q3 + ["--weights", "sp-index", "--cv-grid", "0.05:2:9"],
        "grid-sp-proj-q3": q3 + ["--weights", "sp-proj", "--cv-grid", "0.2:3:7"],
        "power1.2-np": q2 + ["--weights", "np", "--loss", "power:1.2"],
        "power1.2-sp-index": q3 + ["--weights", "sp-index", "--loss", "power:1.2"],
        "h1e120-np": q3 + ["--weights", "np", "--bandwidth", "1e120"],
        "grid-1e110:1e120:3": q3 + ["--weights", "np", "--cv-grid", "1e110:1e120:3"],
        "h1e120-sp-proj": q3 + ["--weights", "sp-proj", "--bandwidth", "1e120"],
        "h1e-9-np": q2 + ["--weights", "np", "--bandwidth", "1e-9"],
        "h1e200-np": q2 + ["--weights", "np", "--bandwidth", "1e200"],
        "h1e-200-np": q2 + ["--weights", "np", "--bandwidth", "1e-200"],
        "h2e-162-np": q2 + ["--weights", "np", "--bandwidth", "2e-162"],
        "grid-1e-200:1:5": q2 + ["--weights", "np", "--cv-grid", "1e-200:1:5"],
        "power1000": q2 + ["--loss", "power:1000"],
        "q3-huber0.001": q3 + ["--loss", "huber:0.001"],
        "q3-huber0.01": q3 + ["--loss", "huber:0.01"],
        "sp-proj-eps1e300-h1": q2 + ["--weights", "sp-proj", "--epsilon", "1e300",
                                     "--bandwidth", "1"],
        "sp-proj-eps1e300-h1-q1": ["fit", "--data", "data/q1.csv", "--weights", "sp-proj",
                                   "--epsilon", "1e300", "--bandwidth", "1"],
        "sp-proj-eps1e300-cv-q1": ["fit", "--data", "data/q1.csv", "--weights", "sp-proj",
                                   "--epsilon", "1e300"],
        "sp-proj-eps1e300-cv-q2": q2 + ["--weights", "sp-proj", "--epsilon", "1e300"],
        "err-bandwidth": q2 + ["--weights", "np", "--bandwidth", "abc"],
        "err-huber": q2 + ["--loss", "huber:x"],
        "err-loss": q2 + ["--loss", "cauchy"],
        "err-power": q2 + ["--loss", "power:0"],
        "err-epsilon": q2 + ["--weights", "sp-proj", "--epsilon", "-1"],
        "err-oracle-missing": q2 + ["--weights", "oracle"],
        "err-oracle-short": q2 + ["--weights", "oracle", "--oracle-beta", "1"],
        "err-oracle-zero-slope": q2 + ["--weights", "oracle", "--oracle-beta", "1,0,0"],
        "err-route": q2 + ["--weights", "magic"],
        "err-grid-inverted": q2 + ["--weights", "np", "--cv-grid", "3:1:5"],
        "err-grid-count": q2 + ["--weights", "np", "--cv-grid", "0.05:3:1001"],
        "err-missing-file": ["fit", "--data", "data/absent.csv"],
        "zero-residual-power1.2": ["fit", "--data", "data/zero_residual.csv",
                                   "--loss", "power:1.2"],
        "zero-residual-power1.5": ["fit", "--data", "data/zero_residual.csv",
                                   "--loss", "power:1.5"],
        "err-epsilon-np": q2 + ["--weights", "np", "--epsilon", "abc"],
        "five-rows-q3-power1.2": ["fit", "--data", "data/five_rows_q3.csv",
                                  "--loss", "power:1.2"],
        "sim-q3-n100-power1.5-oracle": ["fit", "--data", "data/sim_q3_n100.csv",
                                        "--loss", "power:1.5", "--weights", "oracle",
                                        "--sigma-model", "smooth",
                                        "--oracle-beta", "0.5,0.5,0.5,0.5"],
        "sim-q1-n30-power1.2-oracle": ["fit", "--data", "data/sim_q1_n30.csv",
                                       "--loss", "power:1.2", "--weights", "oracle",
                                       "--sigma-model", "smooth", "--oracle-beta", "0.5,0.5"],
    }
    for route in ("constant", "np", "sp-proj"):
        more[f"q2-shift1e4/{route}"] = ["fit", "--data", "data/q2_shift1e4.csv",
                                        "--weights", route]
    for route in ("sp-index", "np"):
        for h in ("1", "cv"):
            more[f"lattice-q1/{route}-h{h}"] = ["fit", "--data", "data/lattice_q1.csv",
                                               "--weights", route, "--bandwidth", h]
    for route in ("np", "sp-proj"):
        for h in ("0.5", "1", "2", "cv"):
            more[f"lattice-q2/{route}-h{h}"] = ["fit", "--data", "data/lattice_q2.csv",
                                               "--weights", route, "--bandwidth", h]
    more["lattice-q1/np-h2e-162"] = ["fit", "--data", "data/lattice_q1.csv", "--weights", "np",
                                     "--bandwidth", "2e-162"]
    more["q1-np-h0.5000688122609995"] = ["fit", "--data", "data/q1.csv", "--weights", "np",
                                         "--bandwidth", "0.5000688122609995"]
    more["n5000-sp-index-cv"] = ["fit", "--data", "data/q2_n5000.csv", "--weights", "sp-index"]
    for design in ("q2-rho0.9-n2000", "q3-n2000"):
        for route in ("np", "sp-proj"):
            more[f"{design}/{route}-cv"] = ["fit", "--data", f"data/{design}.csv",
                                            "--weights", route]
    for route in ("np", "sp-proj"):
        more[f"paired-spread1e4/{route}-h1"] = ["fit", "--data", "data/paired_spread1e4.csv",
                                                "--weights", route, "--bandwidth", "1"]
    for route in ("np", "sp-index", "sp-proj"):
        more[f"y1e-170/{route}-cv"] = ["fit", "--data", "data/q2_y1e-170.csv", "--weights", route]
    for h in ("0.5", "3", "100"):
        more[f"zero-residual-power1.2-np-h{h}"] = [
            "fit", "--data", "data/zero_residual.csv", "--loss", "power:1.2",
            "--weights", "np", "--bandwidth", h]
    late_flags = {
        "bandwidth": ["--weights", "np", "--bandwidth", "abc"],
        "oracle-missing": ["--weights", "oracle"],
        "epsilon": ["--weights", "sp-proj", "--epsilon", "-1"],
        "sigma-model": ["--weights", "parametric", "--sigma-model", "bogus"],
        "grid-inverted": ["--weights", "np", "--cv-grid", "3:1:5"],
    }
    for name, flags in late_flags.items():
        more[f"constant-x/err-{name}"] = ["fit", "--data", "data/constant.csv", *flags]
    overflow = {
        "np-h3": ["--weights", "np", "--bandwidth", "3"],
        "np-cv": ["--weights", "np"],
        "sp-index-h3": ["--weights", "sp-index", "--bandwidth", "3"],
        "sp-index-cv": ["--weights", "sp-index"],
        "sp-proj-h3": ["--weights", "sp-proj", "--bandwidth", "3"],
        "sp-proj-cv": ["--weights", "sp-proj"],
        "constant-square": ["--weights", "constant"],
        "constant-power1.5": ["--weights", "constant", "--loss", "power:1.5"],
        "constant-huber1.345": ["--weights", "constant", "--loss", "huber:1.345"],
    }
    for name, flags in overflow.items():
        more[f"overflow/{name}"] = ["fit", "--data", "data/overflow.csv", *flags]
    exact_fit = {
        "np-h1": ["--weights", "np", "--bandwidth", "1"],
        "np-h100": ["--weights", "np", "--bandwidth", "100"],
        "np-cv": ["--weights", "np"],
        "huber1.345-np-h1": ["--weights", "np", "--loss", "huber:1.345", "--bandwidth", "1"],
        "power1.5-np-h1": ["--weights", "np", "--loss", "power:1.5", "--bandwidth", "1"],
        "sp-index-h1": ["--weights", "sp-index", "--bandwidth", "1"],
    }
    for name, flags in exact_fit.items():
        more[f"exact-fit/{name}"] = ["fit", "--data", "data/exact_fit.csv", *flags]
    cmds += [(f"fit/{name}", argv) for name, argv in more.items()]
    for name in ingest_cases():
        cmds.append((f"ingest/{name}", ["fit", "--data", f"data/{name}", "--weights", "constant"]))
    studies = {
        "smooth-square-q2": ["--n", "200", "--q", "2", "--sigma", "smooth", "--reps", "4"],
        "disc-huber-q3": ["--n", "200", "--q", "3", "--sigma", "disc", "--reps", "3",
                          "--loss", "huber:1.345"],
        "constant-h-q1": ["--n", "150", "--q", "1", "--sigma", "constant", "--reps", "4",
                          "--methods", "np,sp", "--bandwidth", "0.4"],
        "smooth-power1.2-q2": ["--n", "200", "--q", "2", "--sigma", "smooth", "--reps", "6",
                               "--methods", "first-step,parametric", "--loss", "power:1.2"],
        "smooth-power1.5-q3": ["--n", "200", "--q", "3", "--sigma", "smooth", "--reps", "3",
                               "--methods", "first-step,parametric,oracle",
                               "--loss", "power:1.5"],
        "smooth-cv-q4-n500": ["--n", "500", "--q", "4", "--sigma", "smooth", "--reps", "6",
                              "--methods", "first-step,parametric,np,sp,oracle"],
    }
    for name, argv in studies.items():
        cmds.append((f"simulate/{name}", ["simulate", *argv, "--seed", "7",
                                          "--workers", "2", "--out", f"out/{name}"]))
    small = ["simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "2",
             "--seed", "7"]
    cmds.append(("simulate/err-out-is-a-file",
                 small + ["--methods", "first-step", "--out", "data/q1.csv"]))
    cmds.append(("simulate/err-repeated-methods",
                 small + ["--methods", "np,np", "--out", "out/repeated-methods"]))
    cmds.append(("simulate/err-errors-csv-is-a-directory",
                 small + ["--methods", "first-step", "--out", UNWRITABLE_OUT]))
    cmds.append(("simulate/err-seed-negative",
                 ["simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "2",
                  "--seed", "-1", "--methods", "first-step", "--out", "out/seed-negative"]))
    cmds.append(("simulate/err-h1e-200",
                 ["simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "1",
                  "--seed", "1", "--methods", "np", "--bandwidth", "1e-200",
                  "--out", "out/h1e-200"]))
    cmds.append(("simulate/h2e-162",
                 ["simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "2",
                  "--seed", "1", "--methods", "np,sp", "--bandwidth", "2e-162",
                  "--out", "out/h2e-162"]))
    cmds.append(("simulate/n6-first-step-fails",
                 ["simulate", "--n", "6", "--q", "2", "--sigma", "disc", "--reps", "149",
                  "--seed", "1", "--methods", "first-step,oracle", "--loss", "power:1.2",
                  "--out", "out/n6"]))
    cmds.append(("simulate/huber1.3456789",
                 small + ["--methods", "first-step", "--loss", "huber:1.3456789",
                          "--out", "out/huber1.3456789"]))
    cmds.append(("simulate/workers64-reps3",
                 ["simulate", "--n", "100", "--q", "2", "--sigma", "disc", "--reps", "3",
                  "--seed", "7", "--workers", "64", "--out", "out/workers64"]))
    return cmds


def write_inputs(root: str) -> None:
    data = os.path.join(root, "data")
    os.makedirs(data)
    for name, (q, n) in CSV_SIZES.items():
        with open(os.path.join(data, f"{name}.csv"), "w", newline="") as handle:
            handle.write(fit_csv_text(q, n, seed=q))
    with open(os.path.join(data, "q2_shift1e4.csv"), "w", newline="") as handle:
        handle.write(fit_csv_text(2, CSV_SIZES["q2"][1], seed=2, shift=1e4))
    with open(os.path.join(data, "q2_n5000.csv"), "w", newline="") as handle:
        handle.write(fit_csv_text(2, 5000, seed=5))
    with open(os.path.join(data, "q2-rho0.9-n2000.csv"), "w", newline="") as handle:
        handle.write(fit_csv_text(2, 2000, seed=9, rho=0.9))
    with open(os.path.join(data, "q3-n2000.csv"), "w", newline="") as handle:
        handle.write(fit_csv_text(3, 2000, seed=13))
    with open(os.path.join(data, "q2_y1e-170.csv"), "w", newline="") as handle:
        handle.write(fit_csv_text(2, CSV_SIZES["q2"][1], seed=2, y_scale=1e-170))
    with open(os.path.join(data, "paired_spread1e4.csv"), "w", newline="") as handle:
        handle.write(paired_csv_text(400, seed=17, spread=1e4, h=1.0))
    for name, (n, q, seed, replication) in (("sim_q3_n100", (100, 3, 4, 3)),
                                            ("sim_q1_n30", (30, 1, 1, 4))):
        with open(os.path.join(data, f"{name}.csv"), "w", newline="") as handle:
            handle.write(smooth_sample_csv_text(n, q, seed, replication))
    with open(os.path.join(data, "lattice_q1.csv"), "w", newline="") as handle:
        handle.write(lattice_csv_text(200, seed=11))
    with open(os.path.join(data, "lattice_q2.csv"), "w", newline="") as handle:
        handle.write(lattice_csv_text(300, seed=12, q=2))
    os.makedirs(os.path.join(root, UNWRITABLE_OUT, "errors.csv"))
    for name, text in (("zero_residual", ZERO_RESIDUAL_CSV), ("constant", CONSTANT_CSV),
                       ("overflow", OVERFLOW_CSV), ("exact_fit", EXACT_FIT_CSV),
                       ("five_rows_q3", FIVE_ROWS_Q3_CSV)):
        with open(os.path.join(data, f"{name}.csv"), "w", newline="") as handle:
            handle.write(text)
    for name, content in ingest_cases().items():
        path = os.path.join(data, name)
        if content is None:
            os.mkdir(path)
        else:
            with open(path, "wb") as handle:
                handle.write(content)


def run_side(tree: str, work: str, cmds) -> dict[str, dict[str, bytes]]:
    root = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    records = {}
    for name, argv in cmds:
        proc = subprocess.run([sys.executable, "-m", "adaweight", *argv], cwd=work,
                              env=env, capture_output=True, timeout=600)
        stderr = proc.stderr.replace(os.path.join(root, "").encode(), b"")
        record = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout,
                  "stderr": stderr}
        if argv[0] == "simulate":
            out = os.path.join(work, argv[argv.index("--out") + 1])
            for file in ("errors.csv", "summary.json"):
                path = os.path.join(out, file)
                if os.path.isfile(path):
                    with open(path, "rb") as handle:
                        record[file] = handle.read()
        records[name] = record
    return records


def field_kind(part: str, path: tuple) -> str:
    if part in ("errors.csv", "summary.json"):
        return part
    keys = [p for p in path if isinstance(p, str)]
    if keys[:1] == ["beta"]:
        return "beta"
    if keys[:1] == ["standard_errors"]:
        return "standard errors"
    if keys[:3] == ["bandwidth", "cv", "scores"]:
        return "CV scores"
    if keys[:1] == ["weights_summary"]:
        return "weight summaries"
    return "other " + ".".join(keys)


def parse(part: str, text: bytes):
    if part == "errors.csv":
        rows = list(csv.reader(io.StringIO(text.decode())))
        return [[_number(cell) for cell in row] for row in rows]
    return json.loads(text)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def numeric_moves(a, b, path=()):
    """``(path, a, b)`` of every moved number, or None if a and b differ otherwise."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return None
        pairs = [(a[k], b[k], path + (k,)) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = [(x, y, path + (i,)) for i, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return [] if a == b else [(path, a, b)]
    else:
        return [] if a == b else None
    moves = []
    for x, y, p in pairs:
        sub = numeric_moves(x, y, p)
        if sub is None:
            return None
        moves += sub
    return moves


def compare(parent: dict, change: dict) -> dict:
    identical, moved, different, rounding, certificate, residual = [], {}, {}, {}, {}, {}
    worst: dict[str, float] = {}
    for name in parent:
        a, b = parent[name], change[name]
        if a == b:
            identical.append(name)
            continue
        record_worst: dict[str, float] = {}
        record_rounding, record_certificate, record_residual = [], [], []
        for part in sorted(set(a) | set(b)):
            if a.get(part) == b.get(part):
                continue
            moves = None
            if part in ("stdout", "stderr", "errors.csv", "summary.json") and a.get(part) \
                    and b.get(part) and a["exit"] == b["exit"]:
                try:
                    parsed, changed = parse(part, a[part]), parse(part, b[part])
                    moves = numeric_moves(parsed, changed)
                except ValueError:
                    moves = None
            if moves is None:
                different[name] = {"part": part, "parent": _head(a.get(part)),
                                   "change": _head(b.get(part))}
                break
            for path, x, y in moves:
                size = max(abs(x), abs(y))
                solver_norm = part == "stdout" and path == ("solver", "gradient_norm")
                if size <= ROUNDING:
                    record_rounding.append([part, list(path), x, y])
                elif solver_norm and parsed["solver"]["iterations"] == 0 \
                        and changed["solver"]["iterations"] == 0:
                    record_residual.append([x, y])  # a closed-form fit on both sides
                elif solver_norm and size <= CERTIFICATE_TOL and parsed["solver"]["converged"]:
                    record_certificate.append([x, y])  # equal flags, so both converged
                else:
                    kind = field_kind(part, path)
                    record_worst[kind] = max(record_worst.get(kind, 0.0), abs(x - y) / size)
        else:
            moved[name] = record_worst
            if record_rounding:
                rounding[name] = record_rounding
            if record_certificate:
                certificate[name] = record_certificate
            if record_residual:
                residual[name] = record_residual
            for kind, rel in record_worst.items():
                worst[kind] = max(worst.get(kind, 0.0), rel)
    return {"records": len(parent), "identical": identical, "moved": moved,
            "worst_rel_by_kind": worst, "rounding_level": rounding,
            "converged_certificate": certificate, "closed_form_residual": residual,
            "different": different}


def _head(text: bytes | None) -> str | None:
    return None if text is None else text[:300].decode(errors="replace")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent tree")
    parser.add_argument("--change", required=True, help="checkout of the changed tree")
    parser.add_argument("--json", help="write the full report to this file")
    args = parser.parse_args(argv)
    cmds = command_set()
    with tempfile.TemporaryDirectory(prefix="cli-parity-") as tmp:
        inputs = os.path.join(tmp, "inputs")
        write_inputs(inputs)
        outputs = {}
        for side in ("parent", "change"):
            work = os.path.join(tmp, side)
            shutil.copytree(inputs, work)
            outputs[side] = run_side(getattr(args, side), work, cmds)
    report = compare(outputs["parent"], outputs["change"])
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
    print(f"{report['records']} records: {len(report['identical'])} byte-identical, "
          f"{len(report['moved'])} with moved numbers only, "
          f"{len(report['different'])} different")
    for kind, rel in sorted(report["worst_rel_by_kind"].items()):
        print(f"  worst rel {kind}: {rel:.3g}")
    for name, moves in report["rounding_level"].items():
        for part, path, x, y in moves:
            where = ".".join(str(p) for p in path)
            print(f"  rounding level: {name} {part} {where}: {x:.3g} -> {y:.3g}")
    for name, moves in report["converged_certificate"].items():
        for x, y in moves:
            print(f"  converged certificate: {name} solver.gradient_norm: {x:.3g} -> {y:.3g}")
    for name, moves in report["closed_form_residual"].items():
        for x, y in moves:
            print(f"  closed-form residual: {name} solver.gradient_norm: {x:.3g} -> {y:.3g}")
    for name, diff in report["different"].items():
        print(f"  different: {name} ({diff['part']})")
    too_far = max(report["worst_rel_by_kind"].values(), default=0.0) > RTOL
    return 1 if report["different"] or too_far else 0


if __name__ == "__main__":
    sys.exit(main())
