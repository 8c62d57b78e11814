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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthGridError, DataError
from .estimators import Dataset
from .kernels import EpanechnikovKernel
from .weights import FirstStepFit, _kernel_matrix, pairwise_sq_dists, smoothing_coordinates

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


def _loo_terms(
    e2: np.ndarray, k_mat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out smooths and evaluability mask from a kernel matrix."""
    k = k_mat.copy()
    np.fill_diagonal(k, 0.0)
    mass = k.sum(axis=1)
    valid = mass > 0
    smooth = np.full(e2.shape, np.nan)
    smooth[valid] = (k @ e2)[valid] / mass[valid]
    return smooth, valid


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
    independently of the matrix code in :func:`cv_bandwidth`, so tests can
    check one against the other.  Returns ``None`` when no other observation
    falls in the kernel window; that is a value, not an error.
    """
    if not 0 <= i < data.n:
        raise DataError(f"index {i} outside 0..{data.n - 1}")
    if not h > 0:
        raise DataError("bandwidth must be positive")
    points = smoothing_coordinates(data, fs, mode, eps)
    dim = points.shape[1]
    d2 = np.sum((points - points[i]) ** 2, axis=1)
    k = EpanechnikovKernel(dim).profile(d2 / h**2) * h ** (-dim)
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

    d2 = pairwise_sq_dists(points)
    e2 = fs.residuals**2

    scores = np.empty(grid.size)
    fractions = np.empty(grid.size)
    for j, h in enumerate(grid):
        # keep k_mat bound until the next candidate's matrix exists: freeing it
        # sooner let malloc trim the heap and fault it in again per candidate
        # (2.5x the page faults; CV fits at n = 2000 ran 28% slower)
        k_mat = _kernel_matrix(d2, h, points.shape[1])
        smooth, valid = _loo_terms(e2, k_mat)
        fractions[j] = valid.mean()
        predicted = np.where(valid, smooth, 0.0)
        scores[j] = float(np.mean((e2 - predicted) ** 2))

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
