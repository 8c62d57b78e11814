"""CSV ingestion and deterministic serialization.

Fit CSVs are UTF-8 (a leading byte-order mark is ignored), so ingest does
not depend on the locale.  The header goes through :mod:`csv`; the numeric
body is parsed in C by :func:`numpy.loadtxt`.  A per-cell loop over
:func:`csv.reader` rows and :func:`float` remains as the error path: it
runs only when the C reader rejects the body, returns the wrong number of
columns or holds a non-finite value, and it either raises the precise
:class:`DataError` (a non-numeric or non-finite cell, with its row and
column) or accepts the cells that :func:`float` takes and ``loadtxt`` does
not (quoted numbers, ``1_0``, non-ASCII digits).  Both paths accept the
same files and give the same values.

Floats serialize with 17 significant digits everywhere, so values survive a
round trip exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings

import numpy as np

from .errors import DataError
from .estimators import Dataset


def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return format(float(value), ".17g")


def _open_text(path: str):
    return open(path, newline="", encoding="utf-8-sig")


def _records(path: str, handle):
    """``(number from 1, cells)`` per record, with csv's errors as DataError."""
    r = 0
    try:
        for r, row in enumerate(csv.reader(handle), start=1):
            yield r, row
    except csv.Error as exc:  # a cell over the field size limit, a global left as is
        raise DataError(f"{path}: row {r + 1} cannot be read as CSV: {exc}") from None


def _parse_header(path: str, records) -> tuple[list[str], int]:
    """Stripped column names and the index of ``y``, from the first record."""
    _, row = next(records, (None, None))
    if row is None:
        raise DataError(f"{path}: file is empty")
    header = [name.strip() for name in row]
    if "y" not in header:
        raise DataError(f"{path}: required column 'y' is missing from the header")
    if header.count("y") > 1:
        raise DataError(f"{path}: column 'y' appears {header.count('y')} times in the header")
    if len(header) < 2:
        raise DataError(f"{path}: no covariate columns besides 'y'")
    return header, header.index("y")


def _dataset(path: str, y: np.ndarray, x: np.ndarray, q: int) -> Dataset:
    if y.shape[0] < q + 2:
        raise DataError(f"{path}: {y.shape[0]} data rows is fewer than q+2={q + 2}")
    return Dataset(y=y, x=x)


def _read_cells(path: str) -> Dataset:
    """Parse every cell with :func:`float`: the error path of :func:`read_csv`.

    Rows are numbered as records of the file, blank ones included, so error
    messages give file line numbers.
    """
    with _open_text(path) as handle:
        records = _records(path, handle)
        header, y_col = _parse_header(path, records)
        y_vals, x_rows = [], []
        for r, row in records:
            if not row:
                continue  # blank line, skipped as csv.DictReader does
            if len(row) != len(header):
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            parsed = []
            for c, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not math.isfinite(value):
                    kind = "non-numeric" if value is None else "non-finite"
                    raise DataError(f"{path}: {kind} value {cell.strip()!r} at row {r}, "
                                    f"column {header[c]!r}")
                parsed.append(value)
            y_vals.append(parsed[y_col])
            x_rows.append([parsed[c] for c in range(len(header)) if c != y_col])
    return _dataset(path, np.array(y_vals), np.array(x_rows), len(header) - 1)


def read_csv(path: str) -> Dataset:
    """Load a dataset from a headed UTF-8 CSV file.

    The header must contain a column named ``y``; every other column is a
    numeric covariate, kept in file order.  Blank lines are skipped but still
    counted, so error messages give file line numbers.  Decimal parsing
    always uses the dot separator, independent of locale.

    The body is parsed in C by :func:`numpy.loadtxt`, which holds no Python
    object per cell.  Only when it rejects the body, returns the wrong
    number of columns or holds a non-finite value does the per-cell path
    (:func:`_read_cells`) read the file again, to raise the error with its
    row and column or to accept the cells only :func:`float` parses.  A
    missing, unreadable or non-UTF-8 file raises :class:`DataError`.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    try:
        with _open_text(path) as handle:
            header, y_col = _parse_header(path, _records(path, handle))
            try:
                with warnings.catch_warnings():
                    # a header-only file warns "input contained no data"
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
            except ValueError:  # UnicodeDecodeError too: the per-cell path meets it again
                table = None
        if table is None or table.shape[1] != len(header) or not np.isfinite(table).all():
            return _read_cells(path)
    except UnicodeDecodeError:
        raise DataError(f"{path}: file is not valid UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    y = np.ascontiguousarray(table[:, y_col])
    x = np.delete(table, y_col, axis=1)  # a C-ordered copy
    del table  # freed before the dataset builds its design matrix
    return _dataset(path, y, x, len(header) - 1)


def write_csv(path: str, data: Dataset) -> None:
    """Write a dataset with header y,x1,...,xq, CRLF rows and 17-digit values."""
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(data.q)])
    with open(path, "w", newline="") as handle:
        np.savetxt(handle, np.column_stack([data.y, data.x]), fmt="%.17g", delimiter=",",
                   newline="\r\n", header=header, comments="")


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


def write_errors_csv(path: str, result) -> None:
    """Per-replication errors of a StudyResult: replication, method, sq_error, status."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["replication", "method", "sq_error", "status"])
        for r, rep in enumerate(result.outcomes):
            for method in result.config.methods:
                outcome = rep[method]
                value = _format_float(outcome.sq_error) if outcome.ok else ""
                writer.writerow([r, method, value, outcome.status])
