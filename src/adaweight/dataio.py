"""CSV ingestion and deterministic serialization.

Floats serialize with 17 significant digits everywhere, so values survive a
round trip exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import DataError
from .estimators import Dataset
from .simulation import StudyResult


def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return format(float(value), ".17g")


def read_csv(path: str) -> Dataset:
    """Load a dataset from a headed CSV file.

    The header must contain a column named ``y``; every other column is a
    numeric covariate, kept in file order.  Blank lines are skipped but still
    counted, so error messages give file line numbers.  Decimal parsing
    always uses the dot separator, independent of locale.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [name.strip() for name in rows[0]]
    if "y" not in header:
        raise DataError(f"{path}: required column 'y' is missing from the header")
    y_col = header.index("y")
    cov_names = [name for i, name in enumerate(header) if i != y_col]
    if not cov_names:
        raise DataError(f"{path}: no covariate columns besides 'y'")

    y_vals, x_rows = [], []
    for r, row in enumerate(rows[1:], start=2):
        if not row:
            continue  # blank line, skipped as csv.DictReader does
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        parsed = []
        for c, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {r}, "
                    f"column {header[c]!r}"
                ) from None
        y_vals.append(parsed[y_col])
        x_rows.append([parsed[c] for c in range(len(header)) if c != y_col])

    q = len(cov_names)
    if len(y_vals) < q + 2:
        raise DataError(
            f"{path}: {len(y_vals)} data rows is fewer than q+2={q + 2}"
        )
    return Dataset(y=np.array(y_vals), x=np.array(x_rows))


def write_csv(path: str, data: Dataset) -> None:
    """Write a dataset with header y,x1,...,xq and 17-digit values."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(data.q)])
        for i in range(data.n):
            writer.writerow(
                [_format_float(data.y[i])] + [_format_float(v) for v in data.x[i]]
            )


def to_json_text(obj) -> str:
    """Serialize to JSON with fixed key order and 17-digit floats."""
    return _to_json(obj, indent=0) + "\n"


def _to_json(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_to_json(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            inner + json.dumps(str(k)) + ": " + _to_json(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def study_summary_dict(result: StudyResult) -> dict:
    """JSON-ready summary of a study, methods in config order."""
    cfg = result.config
    return {
        "config": {
            "n": cfg.n,
            "q": cfg.q,
            "sigma": cfg.sigma,
            "methods": list(cfg.methods),
            "replications": cfg.replications,
            "seed": cfg.seed,
            "bandwidth": cfg.bandwidth if cfg.bandwidth == "cv" else float(cfg.bandwidth),
            "loss": str(cfg.loss),
        },
        "methods": result.summary(),
    }


def write_errors_csv(path: str, result: StudyResult) -> None:
    """Per-replication errors: columns replication, method, sq_error, status."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["replication", "method", "sq_error", "status"])
        for r, rep in enumerate(result.outcomes):
            for method in result.config.methods:
                outcome = rep[method]
                value = _format_float(outcome.sq_error) if outcome.ok else ""
                writer.writerow([r, method, value, outcome.status])
