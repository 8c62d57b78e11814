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

The scan scores the whole grid in one pass (Fan & Marron,
*Fast implementations of nonparametric curve estimators*, JCGS 3(1), 1994;
Langrené & Warin, *Fast and stable multivariate kernel density estimation by
fast sum updating*, JCGS 28(3), 2019).  The Epanechnikov kernel is a
polynomial in |u|^2 on its support, and its constant c_q and the factor
h^-d cancel in every smooth, so with squared distances d2_ij,

    s2_loo(x_i; h) = (S_e - S_de / h^2) / (k - S_d / h^2),

where k counts the neighbours with d2_ij < h^2 (strictly: the kernel is zero
at |u| = 1) and S_e, S_de, S_d sum e2_j, d2_ij e2_j and d2_ij over those k.
Index i is evaluable exactly when k > 0.

Smoothing coordinates with one column (sp-index, and np or sp-proj at
q = 1) are scored without visiting the pairs:
:func:`adaweight.weights.window_sums`, shared with the final smoother, sorts
the points once and gives k and the window sums of the columns 1 and e2,
k - S_d / h^2 and S_e - S_de / h^2, at every candidate from running sums over
segments of sorted rows (its module docstring has the method).  It tests
the same strict (z_j - z_i)^2 < h^2, so the counts, the evaluable fractions
and the choice are those of the pair scan, and the scores agree to
rounding.  It costs O(G n log n) for G candidates and, scoring one
candidate at a time, holds O(n) memory.

Coordinates with two or more columns walk the pairs of the sorted band of
:func:`adaweight.weights.sorted_band` at the largest candidate, each pair
once (two rows of one block from the first, so the self term is in no
window).  A pair inside the largest window is binned by the first candidate,
in increasing h, whose window holds it, and added to the (row, bin) sums of
both its points; the sums of every (i, h) are prefix sums over the G bins of
row i.  A table on the leading bits of d2_ij (256 cells per power of two)
finds the bin up to the candidates sharing a cell, one on the default grid,
and a binary search settles those.  A block's rows are scored once the walk
passes them, so sums are kept only for the b rows the band still reaches: a
scan costs O(n b + m log s) for m in-window pairs and s candidates per cell,
and holds O(BLOCK_ROWS^2 + G b) memory for G <= GRID_CHUNK per walk.  The
sums sit in one (4, b G) buffer of the walk's arena
(:func:`adaweight.weights.borrowed_arena`), sized once from the walk's widest
band.  A block's pairs are binned one tile of at most 2 BLOCK_ROWS of its
band's columns at a time; after the last tile, its prefix sums are taken in
place over its own rows, which the walk then drops.  A tile's pair arrays,
at most five alive at once, use the arena's work buffer and, once its
distances are read, its distance buffer; only the pair indices are
allocated anew for every tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthGridError, DataError, NumericalError
from .estimators import Dataset
from .weights import (FirstStepFit, arena_buffer, borrowed_arena, smoothing_coordinates,
                      sorted_band, squared_bandwidth, window_sums)

#: Minimum fraction of evaluable leave-one-out terms for a candidate.
MIN_VALID_FRACTION = 0.8

#: Default number of grid points and half-width factor around the pilot.
GRID_SIZE = 20
GRID_SPAN = 4.0

#: Right shift of a squared distance's bits that leaves its exponent and 8
#: mantissa bits: the bin table has 256 cells per power of two.
TABLE_SHIFT = 44

#: Candidates per walk of the band, which keeps sums per (row, candidate).
GRID_CHUNK = 256


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
    per-coordinate variance of ``points``.  Raises NumericalError when a
    candidate's square would be 0 or not finite (see ``squared_bandwidth``).
    """
    n, d = points.shape
    scale = float(np.sqrt(np.mean(np.var(points, axis=0))))
    pilot = scale * n ** (-1.0 / (d + 4))
    lo, hi = pilot / GRID_SPAN, pilot * GRID_SPAN
    if not (lo * lo > 0 and hi * hi < np.inf):
        raise NumericalError(f"smoothing coordinates have spread {scale:g}, so the default "
                             "grid around it holds candidates whose squares are 0 or not finite")
    return np.geomspace(lo, hi, GRID_SIZE)


def _loo_scan(
    points: np.ndarray, e2: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scores and evaluable fractions of every candidate (module docstring)."""
    n = points.shape[0]
    h2s, where = np.unique([squared_bandwidth(h) for h in grid], return_inverse=True)
    sq_err = np.zeros(h2s.size)
    evaluable = np.zeros(h2s.size, dtype=np.int64)
    if points.shape[1] == 1:
        for g, (k, (mass, s_e)) in enumerate(window_sums(points[:, 0], [np.ones(n), e2], h2s)):
            sq_err[g], evaluable[g] = _loo_terms(e2, k, mass, s_e)
    else:
        for chunk in (slice(lo, lo + GRID_CHUNK) for lo in range(0, h2s.size, GRID_CHUNK)):
            for sq, ev in _band_terms(points, e2, h2s[chunk]):
                sq_err[chunk] += sq
                evaluable[chunk] += ev
    return sq_err[where] / n, evaluable[where] / n


def _loo_terms(e2, k, mass, s_e):
    """Summed squared errors and evaluable count over the rows (axis 0)."""
    valid = k > 0
    predicted = np.divide(s_e, mass, out=np.zeros(k.shape), where=valid)
    return np.sum((e2 - predicted) ** 2, axis=0), np.sum(valid, axis=0)


def _band_terms(points: np.ndarray, e2: np.ndarray, h2s: np.ndarray):
    """Yield the :func:`_loo_terms` of each block of sorted rows, from the pair bins."""
    g = h2s.size
    # table cell c: leading bits cell0 + c (lower ones in cell 0), start[c]
    # candidates below it; h2pad pads the binary search within a cell
    cell0, cell1 = h2s[[0, -1]].view(np.int64) >> TABLE_SHIFT
    start = np.searchsorted(h2s, (np.arange(cell0, cell1 + 1) << TABLE_SHIFT).view(float))
    depth = int(np.max(np.diff(start, append=g))).bit_length()
    h2pad = np.append(h2s, np.full(1 << depth, np.inf))

    def scatter(sums, at, e, dist, product):
        """Add the counts and the sums of e2, d2 and d2 e2 at (row, bin) ``at`` to ``sums``."""
        for s, w in zip(sums, (None, e, dist, np.multiply(e, dist, out=product))):
            s += np.bincount(at, weights=w, minlength=s.size)

    def scatter_tile(arena, sums, lo, first, d2):
        """Bin the tile's pairs inside the largest window and add each to both its points.

        The pair arrays live in the arena: the work buffer, once the tile's
        distances are made, and the distance buffer, once they are read.
        """
        r, t = d2.shape
        inside = arena_buffer(arena, "work", d2.size).view(bool)[: d2.size].reshape(r, t)
        np.less(d2, h2s[-1], out=inside)
        if first == 0:  # a pair within the block from its first row; tiles are wider than r
            inside[:, :r] &= ~np.tri(r, dtype=bool)
        col = np.flatnonzero(inside)
        m = col.size
        del inside
        work = arena_buffer(arena, "work", 3 * m + m // 8 + 1)
        dist, scratch, spare = work[: 3 * m].reshape(3, m)
        np.take(d2.ravel(), col, out=dist, mode="clip")
        rows = np.floor_divide(col, t, out=spare.view(np.int64))
        col -= np.multiply(rows, t, out=scratch.view(np.int64))
        cell = np.right_shift(dist.view(np.int64), TABLE_SHIFT, out=scratch.view(np.int64))
        cell -= cell0
        bins = np.take(start, np.maximum(cell, 0, out=cell), out=d2.ravel()[:m].view(np.int64),
                       mode="clip")
        above = work[3 * m:].view(bool)[:m]
        for step in (1 << b for b in reversed(range(depth))):
            bound = np.take(h2pad[step - 1:], bins, out=scratch, mode="clip")
            np.add(bins, step, out=bins, where=np.greater_equal(dist, bound, out=above))
        ec = np.take(e2[lo + first:], col, out=scratch, mode="clip")
        col *= g
        col += bins
        rows *= g
        bins += rows
        scatter(sums[:, : r * g], bins, ec, dist, spare)  # each pair to its row
        er = np.take(np.repeat(e2[lo:lo + r], g), bins, out=scratch, mode="clip")
        scatter(sums[:, first * g:(first + t) * g], col, er, dist, spare)  # and to its column

    with borrowed_arena() as arena:
        order, blocks, widest = sorted_band(points, h2s[-1], arena)
        e2 = e2[order]
        carried = arena_buffer(arena, "sums", 4 * widest * g).reshape(4, -1)
        held = 0  # (row, bin) sums carried over for the rows past the last block
        for lo, r, w, tiles in blocks:
            sums = carried[:, : w * g]
            sums[:, held:] = 0.0
            for first, d2 in tiles:
                scatter_tile(arena, sums, lo, first, d2)
            block = sums[:, : r * g].reshape(4, r, g)
            k, s_e, s_d, s_de = np.cumsum(block, axis=2, out=block)
            yield _loo_terms(e2[lo:lo + r, None], k, k - s_d / h2s, s_e - s_de / h2s)
            held = (w - r) * g
            for row in sums:
                row[:held] = row[r * g:]  # one-dimensional, so moved in place


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
