"""Leave-one-out cross-validation of the smoothing bandwidth.

The criterion compares each squared first-step residual with the
leave-one-out kernel smooth of the squared residuals at the same point:

    score(h) = n^-1 sum_i (e_i^2 - s2_loo(x_i; h))^2

An index i is evaluable when its leave-one-out kernel mass is positive.
Non-evaluable terms enter the score with a zero variance prediction, i.e.
they contribute e_i^4: a candidate pays full price for every window it
leaves empty.  Scoring only the evaluable terms instead would compare
different populations across candidates and lets degenerate tiny
bandwidths win whenever high-variance regions are also the sparse ones.
Candidates where fewer than 80% of indices are evaluable are disqualified
outright.  Ties break toward the smallest bandwidth, so the selection is a
deterministic function of the data and the grid.

The scan scores the whole grid in one pass over the pairs (Fan & Marron,
*Fast implementations of nonparametric curve estimators*, JCGS 3(1), 1994;
Langrené & Warin, *Fast and stable multivariate kernel density estimation by
fast sum updating*, JCGS 28(3), 2019).  The Epanechnikov kernel is a
polynomial in |u|^2 on its support, and its constant c_q and the factor
h^-d cancel in every smooth, so with squared distances d2_ij,

    s2_loo(x_i; h) = (S_e - S_de / h^2) / (k - S_d / h^2),

where k counts the neighbours with d2_ij < h^2 (strictly: the kernel is zero
at |u| = 1) and S_e, S_de, S_d sum e2_j, d2_ij e2_j and d2_ij over those k.
Index i is evaluable exactly when k > 0; the self distance is +inf, so the
self term is in no window.  Each pair inside the largest window is binned by
the first candidate, in increasing h, whose window holds it, and the sums of
every (i, h) are prefix sums over the G bins of row i.  A table on the
leading bits of d2_ij (256 cells per power of two) finds the bin up to the
candidates sharing a cell, one on the default grid, and a binary search
settles those.  Rows go in blocks of BLOCK_ROWS
(:func:`adaweight.weights.distance_blocks`, shared with the final
smoother), so memory is O(BLOCK_ROWS * n); a scan costs O(n^2 + m log s)
for m in-window pairs and s candidates per cell, with no sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthGridError, DataError
from .estimators import Dataset
from .weights import FirstStepFit, distance_blocks, smoothing_coordinates, squared_bandwidth

#: Minimum fraction of evaluable leave-one-out terms for a candidate.
MIN_VALID_FRACTION = 0.8

#: Default number of grid points and half-width factor around the pilot.
GRID_SIZE = 20
GRID_SPAN = 4.0

#: Right shift of a squared distance's bits that leaves its exponent and 8
#: mantissa bits: the bin table has 256 cells per power of two.
TABLE_SHIFT = 44


@dataclass(frozen=True)
class CvResult:
    """Selected bandwidth plus the full candidate diagnostics."""

    h_cv: float
    grid: np.ndarray
    scores: np.ndarray
    valid_fraction: np.ndarray


def default_grid(points: np.ndarray) -> np.ndarray:
    """Geometric grid of GRID_SIZE bandwidths from pilot/GRID_SPAN to pilot*GRID_SPAN.

    ``points`` are the ``(n, d)`` smoothing coordinates
    (:func:`adaweight.weights.smoothing_coordinates`).  The pilot is
    ``scale * n**(-1/(d+4))`` where ``scale`` is the root mean
    per-coordinate variance of ``points``.
    """
    n, d = points.shape
    scale = float(np.sqrt(np.mean(np.var(points, axis=0))))
    if not scale > 0:
        raise DataError("smoothing coordinates have zero spread")
    pilot = scale * n ** (-1.0 / (d + 4))
    return np.geomspace(pilot / GRID_SPAN, pilot * GRID_SPAN, GRID_SIZE)


def _loo_scan(
    points: np.ndarray, e2: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and evaluable fractions of every candidate (module docstring)."""
    n = points.shape[0]
    h2s, where = np.unique([squared_bandwidth(h) for h in grid], return_inverse=True)
    g = h2s.size
    # table cell c: leading bits c0 + c (lower ones in cell 0), start[c]
    # candidates below it; h2pad pads the binary search within a cell
    c0, c1 = h2s[[0, -1]].view(np.int64) >> TABLE_SHIFT
    start = np.searchsorted(h2s, (np.arange(c0, c1 + 1) << TABLE_SHIFT).view(float))
    depth = int(np.max(np.diff(start, append=g))).bit_length()
    h2pad = np.append(h2s, np.full(1 << depth, np.inf))
    sq_err = np.zeros(g)
    evaluable = np.zeros(g, dtype=np.int64)
    for block, d2 in distance_blocks(points, self_d2=np.inf):
        r = d2.shape[0]
        flat = np.flatnonzero(d2 < h2s[-1])
        dist = d2.ravel()[flat]
        cell = dist.view(np.int64) >> TABLE_SHIFT
        cell -= c0
        cell = start[np.maximum(cell, 0, out=cell)]
        for step in (1 << b for b in reversed(range(depth))):
            np.add(cell, step, out=cell, where=dist >= h2pad[step - 1:][cell])
        cell += flat // n * g  # (row, bin) in row-major order
        flat %= n  # the columns
        ec = e2[flat]
        del flat
        sums = [np.bincount(cell, weights=w, minlength=r * g) for w in (None, ec, dist)]
        ec *= dist
        sums.append(np.bincount(cell, weights=ec, minlength=r * g))
        del dist, cell, ec
        k, s_e, s_d, s_de = (np.cumsum(s.reshape(r, g), axis=1) for s in sums)
        valid = k > 0
        predicted = np.divide(
            s_e - s_de / h2s, k - s_d / h2s, out=np.zeros(k.shape), where=valid
        )
        sq_err += np.sum((e2[block, None] - predicted) ** 2, axis=0)
        evaluable += np.sum(valid, axis=0)
    return sq_err[where] / n, evaluable[where] / n


def cv_bandwidth(
    data: Dataset,
    fs: FirstStepFit,
    mode: str,
    grid=None,
    eps: float | None = None,
) -> CvResult:
    """Pick the bandwidth minimizing the leave-one-out variance criterion.

    ``grid`` defaults to :func:`default_grid` of the smoothing coordinates.
    Scores average the leave-one-out squared errors over all n points, with
    non-evaluable terms contributing their raw e^4 (see the module
    docstring); candidates below the 80% validity threshold are
    disqualified.

    Raises
    ------
    BandwidthGridError
        If every candidate is disqualified.
    """
    points = smoothing_coordinates(data, fs, mode, eps)
    if grid is None:
        grid = default_grid(points)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DataError("bandwidth grid is empty")

    scores, fractions = _loo_scan(points, fs.residuals**2, grid)

    eligible = [j for j in range(grid.size) if fractions[j] >= MIN_VALID_FRACTION]
    if not eligible:
        raise BandwidthGridError(
            "no bandwidth candidate had at least "
            f"{MIN_VALID_FRACTION:.0%} evaluable leave-one-out terms; widen "
            "the grid toward larger bandwidths"
        )
    best = min(eligible, key=lambda j: (scores[j], grid[j]))
    return CvResult(
        h_cv=float(grid[best]),
        grid=grid,
        scores=scores,
        valid_fraction=fractions,
    )
