"""Output checks applied to every benchmark operation.

A ``fit`` must exit 0 with finite coefficients and standard errors, and a
cross-validated fit's bandwidth must be the lowest-score candidate among
those with at least 80% evaluable leave-one-out terms, in its own reported
diagnostics.  A ``simulate`` call must exit 0 with ``errors.csv`` and
``summary.json`` that agree with each other.  Exit 3 with an error
category (a numerical failure, or a study aborted for too many failed
replications) counts the operations as failed without failing the check.

At the seed the reference was recorded with, outputs must also match
``reference.json``: the chosen grid index exactly, coefficients, standard
errors and squared errors to ``RTOL``.  Entries that failed or did not
converge when the reference was recorded are held to no values, so a later
solver fix does not count as a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass, field

#: Relative tolerance against the reference.  Looser than summation-order
#: noise (~1e-12) and than the M-solver's 1e-10 gradient tolerance, tight
#: enough that any change of estimate shows.
RTOL = 1e-6
#: Absolute floor for squared errors near zero.
ATOL_SQ_ERROR = 1e-12

#: Candidates below this share of evaluable terms are disqualified by CV.
MIN_VALID_FRACTION = 0.8

#: Statuses ``simulate`` may write: ``ok`` or a numerical error category.
STATUSES = {
    "ok", "numerical", "degenerate-design", "degenerate-curvature",
    "bandwidth-too-small", "index-degenerate", "weight-family", "bandwidth-grid",
}


@dataclass
class Outcome:
    """Checked result of one operation."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    entry: dict = field(default_factory=dict)  # what reference.json stores


def _close(a: float, b: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + RTOL * abs(b)


def cv_choice(cv: dict) -> int | None:
    """Index the CV rule must pick: lowest score among valid candidates."""
    best = None
    for j, (h, score, frac) in enumerate(zip(cv["grid"], cv["scores"], cv["valid_fraction"])):
        if frac < MIN_VALID_FRACTION:
            continue
        if best is None or score < cv["scores"][best] or (
            score == cv["scores"][best] and h < cv["grid"][best]
        ):
            best = j
    return best


def _failed_run(record: dict, attempted: int, ref: dict | None) -> Outcome:
    """Outcome of a non-zero exit.

    Exit 3 with an error category is the program reporting a numerical
    failure, as documented: the operations count as failed, and the output
    check fails only if the reference completed.  Any other exit fails the
    check.
    """
    code = record["code"]
    category = None
    if code == 3:
        try:
            category = json.loads(record["stderr"]).get("error")
        except ValueError:
            pass
    if category is None:
        problems = [f"exit {code}: {record['stderr'][:300]}"]
    elif ref is not None and ref["status"] == "ok":
        problems = [f"fails with {category}; completed in the reference"]
    else:
        problems = []
    return Outcome(attempted, attempted, problems, {"status": category or f"exit-{code}"})


def check_fit(record: dict, q: int, ref: dict | None) -> Outcome:
    if record["code"] != 0:
        return _failed_run(record, 1, ref)
    report = json.loads(record["stdout"])
    beta, se = report["beta"], report["standard_errors"]
    problems = []
    if len(beta) != q + 1 or len(se) != q + 1:
        problems.append(f"expected {q + 1} coefficients, got {len(beta)} and {len(se)} errors")
    if not all(math.isfinite(v) for v in beta + se):
        problems.append("non-finite coefficient or standard error")
    grid_index = None
    bandwidth = report["bandwidth"]
    if bandwidth["selection"] == "cv":
        grid_index = cv_choice(bandwidth["cv"])
        if grid_index is None or bandwidth["cv"]["grid"][grid_index] != bandwidth["value"]:
            problems.append(
                f"h_cv {bandwidth['value']} is not the lowest-score valid candidate "
                f"(index {grid_index})"
            )
    entry = {"status": "ok", "converged": report["solver"]["converged"], "beta": beta,
             "se": se, "grid_index": grid_index}
    if ref is not None and ref["status"] == "ok" and ref["converged"]:
        if not entry["converged"]:
            problems.append("solver no longer converges")
        if grid_index != ref["grid_index"]:
            problems.append(f"grid index {grid_index}, reference {ref['grid_index']}")
        for key in ("beta", "se"):
            if len(entry[key]) != len(ref[key]) or not all(
                _close(a, b) for a, b in zip(entry[key], ref[key])
            ):
                problems.append(f"{key} {entry[key]} differs from reference {ref[key]}")
    return Outcome(1, 1 if problems else 0, problems, entry)


def check_simulate(record: dict, out_dir: str, reps: int, methods: tuple[str, ...],
                   ref: dict | None) -> Outcome:
    attempted = reps * len(methods)
    if record["code"] != 0:
        return _failed_run(record, attempted, ref)

    problems = []
    with open(os.path.join(out_dir, "errors.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    with open(os.path.join(out_dir, "summary.json")) as handle:
        summary = json.load(handle)["methods"]
    expected = [[str(r), m] for r in range(reps) for m in methods]
    if rows[:1] != [["replication", "method", "sq_error", "status"]] or [
        row[:2] for row in rows[1:]
    ] != expected:
        return Outcome(attempted, attempted, ["errors.csv rows are not replication x method"],
                       {"status": "bad-output"})

    entry_rows = []
    errors = {m: [] for m in methods}
    for _, method, value, status in rows[1:]:
        if status not in STATUSES:
            problems.append(f"unknown status {status!r}")
        if status == "ok":
            sq_error = float(value)
            if not (math.isfinite(sq_error) and sq_error >= 0):
                problems.append(f"bad sq_error {value!r}")
            errors[method].append(sq_error)
            entry_rows.append([status, sq_error])
        else:
            if value != "":
                problems.append(f"failed row carries sq_error {value!r}")
            entry_rows.append([status, None])
    for method in methods:
        stats = summary[method]
        if stats["count"] != len(errors[method]) or stats["failed"] != reps - len(errors[method]):
            problems.append(f"summary counts for {method} disagree with errors.csv")
        elif errors[method] and not _close(stats["median"], statistics.median(errors[method])):
            problems.append(f"summary median for {method} disagrees with errors.csv")

    if ref is not None and ref["status"] == "ok":
        for i, (row, ref_row) in enumerate(zip(entry_rows, ref["rows"])):
            status, sq_error, converged = ref_row
            if status != "ok" or not converged:
                continue
            if row[0] != "ok":
                problems.append(f"row {i} is {row[0]}; ok in the reference")
            elif not _close(row[1], sq_error, ATOL_SQ_ERROR):
                problems.append(f"row {i} sq_error {row[1]} differs from reference {sq_error}")

    failed = attempted if problems else sum(row[0] != "ok" for row in entry_rows)
    return Outcome(attempted, failed, problems, {"status": "ok", "rows": entry_rows})
