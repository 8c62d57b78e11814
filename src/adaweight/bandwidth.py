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

The scan scores the whole grid from one sort (Fan & Marron, *Fast
implementations of nonparametric curve estimators*, JCGS 3(1), 1994;
Langrené & Warin, *Fast and stable multivariate kernel density estimation by
fast sum updating*, JCGS 28(3), 2019).  The Epanechnikov kernel is a
polynomial in |u|^2 on its support, and its constant c_q and the factor
h^-d cancel in every smooth, so with the neighbours of x_i sorted by squared
distance d2_ij,

    s2_loo(x_i; h) = (S_e - S_de / h^2) / (k - S_d / h^2),

where k counts the neighbours with d2_ij < h^2 (strictly: the kernel is zero
at |u| = 1) and S_e, S_de, S_d are the prefix sums of e2_j, d2_ij e2_j and
d2_ij over those k.  Index i is evaluable exactly when k > 0.  The self
distance is set to +inf before sorting, so the self term is excluded rather
than subtracted.  The centred coordinates go in blocks of BLOCK_ROWS rows
(:func:`adaweight.weights.distance_blocks`, shared with the final
smoother), so memory is O(BLOCK_ROWS * n) rather than O(n^2), and the sort
costs O(n^2 log n) once for the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthGridError, DataError
from .estimators import Dataset
from .kernels import EpanechnikovKernel
from .weights import FirstStepFit, distance_blocks, smoothing_coordinates, squared_bandwidth

#: Minimum fraction of evaluable leave-one-out terms for a candidate.
MIN_VALID_FRACTION = 0.8

#: Default number of grid points and half-width factor around the pilot.
GRID_SIZE = 20
GRID_SPAN = 4.0


@dataclass(frozen=True)
class CvResult:
    """Selected bandwidth plus the full candidate diagnostics."""

    h_cv: float
    grid: np.ndarray
    scores: np.ndarray
    valid_fraction: np.ndarray


def default_grid(
    data: Dataset, fs: FirstStepFit, mode: str, eps: float | None = None
) -> np.ndarray:
    """Geometric grid of GRID_SIZE bandwidths from pilot/GRID_SPAN to pilot*GRID_SPAN.

    The pilot is ``scale * n**(-1/(d+4))`` where ``scale`` is the root mean
    per-coordinate variance of the smoothing coordinates and ``d`` their
    dimension.
    """
    return _grid_around_pilot(smoothing_coordinates(data, fs, mode, eps))


def _grid_around_pilot(points: np.ndarray) -> np.ndarray:
    n, d = points.shape
    scale = float(np.sqrt(np.mean(np.var(points, axis=0))))
    if not scale > 0:
        raise DataError("smoothing coordinates have zero spread")
    pilot = scale * n ** (-1.0 / (d + 4))
    return np.geomspace(pilot / GRID_SPAN, pilot * GRID_SPAN, GRID_SIZE)


def _window_sums(values: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Sum of the first ``k[i, j]`` entries of row i of ``values``, for every j."""
    sums = np.zeros((values.shape[0], values.shape[1] + 1))
    np.cumsum(values, axis=1, out=sums[:, 1:])
    return np.take_along_axis(sums, k, axis=1)


def _loo_scan(
    points: np.ndarray, e2: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and evaluable fractions of every candidate (module docstring)."""
    n = points.shape[0]
    h2 = np.array([squared_bandwidth(h) for h in grid])
    sq_err = np.zeros(grid.size)
    evaluable = np.zeros(grid.size, dtype=np.int64)
    for block, d2 in distance_blocks(points, self_d2=np.inf):
        # the self term sorts last and is dropped
        order = np.argsort(d2, axis=1)[:, :-1]
        d2 = np.take_along_axis(d2, order, axis=1)
        e2_sorted = e2[order]
        k = np.array([np.searchsorted(row, h2, side="left") for row in d2])
        s_e, s_de, s_d = (_window_sums(v, k) for v in (e2_sorted, d2 * e2_sorted, d2))
        valid = k > 0
        predicted = np.divide(
            s_e - s_de / h2, k - s_d / h2, out=np.zeros(k.shape), where=valid
        )
        sq_err += np.sum((e2[block, None] - predicted) ** 2, axis=0)
        evaluable += np.sum(valid, axis=0)
    return sq_err / n, evaluable / n


def loo_sigma2(
    data: Dataset,
    fs: FirstStepFit,
    h: float,
    mode: str,
    i: int,
    eps: float | None = None,
) -> float | None:
    """Leave-one-out variance smooth at sample point ``i`` (0-based).

    Evaluates the kernel directly at the distances from point ``i``,
    independently of the prefix sums in :func:`cv_bandwidth`, so tests can
    check one against the other.  Returns ``None`` when no other observation
    falls in the kernel window; that is a value, not an error.
    """
    if not 0 <= i < data.n:
        raise DataError(f"index {i} outside 0..{data.n - 1}")
    h2 = squared_bandwidth(h)
    points = smoothing_coordinates(data, fs, mode, eps)
    dim = points.shape[1]
    d2 = np.sum((points - points[i]) ** 2, axis=1)
    k = EpanechnikovKernel(dim).profile(d2 / h2) * h ** (-dim)
    k[i] = 0.0
    mass = float(k.sum())
    if mass <= 0:
        return None
    e2 = fs.residuals**2
    return float((k @ e2) / mass)


def cv_bandwidth(
    data: Dataset,
    fs: FirstStepFit,
    mode: str,
    grid=None,
    eps: float | None = None,
) -> CvResult:
    """Pick the bandwidth minimizing the leave-one-out variance criterion.

    ``grid`` defaults to :func:`default_grid`.  Scores average the
    leave-one-out squared errors over all n points, with non-evaluable
    terms contributing their raw e^4 (see the module docstring); candidates
    below the 80% validity threshold are disqualified.

    Raises
    ------
    BandwidthGridError
        If every candidate is disqualified.
    """
    points = smoothing_coordinates(data, fs, mode, eps)
    if grid is None:
        grid = _grid_around_pilot(points)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DataError("bandwidth grid is empty")
    if np.any(grid <= 0):
        raise DataError("bandwidth grid must be positive")

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
