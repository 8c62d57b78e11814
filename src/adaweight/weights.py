"""Estimation of the variance-minimizing weight function.

The optimal weight at x is w0(x) = N(x)/D(x), the ratio of the conditional
mean curvature g2 over the conditional mean squared score g1 of the
residual.  Four routes produce per-observation weight sequences:

* :func:`parametric_weights` - plug the first-step coefficients into a
  user-supplied weight family,
* :func:`np_weights` - Nadaraya-Watson ratio smoother over the raw
  covariates,
* :func:`sp_index_weights` - the same smoother over the scalar index
  ``b2' x`` estimated in the first step,
* :func:`sp_projected_weights` - smoothing after mapping covariate
  differences through ``A = P + eps*I`` where P projects onto the estimated
  slope direction; ``eps`` hedges against first-step error and has a
  data-driven default (:func:`epsilon_perturbation`).

plus :func:`oracle_weights` for plugging in a known weight map.
:func:`weighted_fit` is the one place that picks the solver for a weight
sequence (closed-form WLS for the square loss, the M-solver otherwise); the
first step and the final fits of ``fit`` and ``simulate`` all go through it.

The kernel routes smooth with the Epanechnikov kernel whose dimension is
that of the smoothing coordinates (q for ``"np"`` and ``"sp-proj"``, 1 for
``"sp-index"``).  Kernel sums include the self term i == j; leave-one-out
kernels appear only inside bandwidth cross-validation (see
:mod:`adaweight.bandwidth`).  The smoother never holds an n x n matrix.

Coordinates with two or more columns take a sorted band (:func:`sorted_band`,
which cross-validation walks too; Fan & Marron, *Fast implementations of
nonparametric curve estimators*, JCGS 3(1), 1994).  The points are projected
on their principal axis and sorted once along it.  The band of each block of
BLOCK_ROWS sorted rows holds the sorted columns from its first row to the
last one whose projection lies within a width w of its last row, taken in
tiles of at most 2 BLOCK_ROWS columns whose squared distances
(:func:`pairwise_sq_dists`) go to one buffer the size of the largest tile.
:func:`_band_sums` turns each tile into kernel values in place, adds their sums
against g2 and g1 to the block's rows and, mirrored, the block's g2 and g1 to
the tile's columns past the block: each unordered pair is evaluated once.
The window of i is every j with sum_k (x_jk - x_ik)^2 < h^2, the differences
formed directly as in the one-column path below, so a point is at exactly 0
from itself, a pair has one value from either end, and a difference whose
square overflows gives inf: such points are isolated at every q.  Projecting
on a unit vector shrinks no distance, so a band of width h holds every pair
within h; w widens h only for rounding.  The cost is O(n * band width), and
the band's buffers take O(BLOCK_ROWS^2) memory whatever n is.

A walk of the band, the smoother's or cross-validation's, takes its buffers
from an arena (:func:`borrowed_arena`): a dict of grow-only float buffers,
borrowed from a module-level list of idle arenas for the whole walk and put
back when the walk ends, normally or not.  Walks that follow one another,
such as a fit's CV scan and its smoother, reuse one arena's pages instead of
faulting in fresh zeroed ones for every block.  A process keeps one arena
per walk that ran concurrently, and each buffer keeps the largest size a walk
asked of it.  The list is shared by all threads because ``simulate`` starts
new pool threads for every study.

Coordinates with one column (``"sp-index"`` always, ``"np"`` and
``"sp-proj"`` at q = 1) take the sorted path of :func:`window_sums`, which
cross-validation shares; the smoother adds the self term, K(0) = 1, to its
sums of g2 and g1.  Its points must be finite (NumericalError otherwise).
One sort makes every window a range of sorted rows.
The window of point i is every j != i with (z_j - z_i)**2 < h^2, the
difference formed directly, so a neighbour at distance exactly h is out.
The right edge is found by a search at z_i + h and then moved over whole
runs of tied values until that predicate holds exactly; the predicate is
symmetric, as fl(a - b) = -fl(b - a), so the left edge of i is the first
row whose right edge passes i.  The sorted rows are cut
into segments, each starting at the first row outside the window of the
previous start: the rows of a segment lie within h of its first point and
of each other, and a window covers the tail of the segment before its own,
its own segment and the head of the one after.  Running sums of c, c u and
c u^2, with u = z - (the segment's first point), taken forward and backward
within each segment give each of the three pieces as one sum, with nothing
subtracted.  A piece's S_dc is sum c (u - v)^2 = S_cuu - 2 v S_cu + v^2 S_c
with v = z_i - (that first point), |u| < h and |v| < 2h, so the expansion
loses only a few roundings of h^2 S_c, and an offset of z costs nothing.  A
call costs one sort and O(n (m + log n)) per bandwidth for m columns, and
it yields one bandwidth's sums at a time, so it holds O(n m) memory: the
running sums pad the segments of each power-of-two length class to that
length, fewer than n padded rows in all, never a row per segment as long as
the longest window.

The factors h^-d and 1/n of the kernel estimates cancel in N/D and in the
relative floor below, so they are not applied and no bandwidth can
underflow them.  Numerators and denominators are floored at 1e-8 of
their maximum so the returned sequences are strictly positive and finite.
In order: a denominator that is not finite (an overflowed squared score or
distance) raises NumericalError; a numerator that is not finite (g2 = inf at
an exact zero residual, for a power loss with p < 2) or that vanishes
everywhere DegenerateCurvatureError; and a denominator that vanishes
everywhere NumericalError.  Every window holds its own point and K(0) > 0,
so that last case is an exact first-step fit, which no bandwidth changes.

A point with no other observation within h smooths only its own residual,
so its weight is the pointwise ratio g2(e_i)/g1(e_i) (1/(2 e_i^2) for square
loss).  That value is unbounded as e_i -> 0, and the kernel routes do not
clamp it; isolated points in sparse tails can therefore receive weights far
above the rest of the sample.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateCurvatureError,
    IndexDegenerateError,
    NumericalError,
    WeightFamilyError,
)
from .estimators import Dataset, FitResult, fit_weighted_m, fit_wls, median, _solve_spd
from .kernels import EpanechnikovKernel
from .losses import LossFunction

#: Relative floor applied to kernel-smoothing numerators and denominators.
SMOOTHING_FLOOR = 1e-8

#: Clamp factors for parametric and oracle weights, relative to the median.
CLAMP_LO = 1e-6
CLAMP_HI = 1e6

#: Smoothing geometries understood by the kernel routes.
MODES = ("np", "sp-index", "sp-proj")

#: Rows per block of the smoother and of the leave-one-out scan over two or
#: more smoothing columns.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class FirstStepFit:
    """Constant-weight fit, its residual sequence and whether its solver converged."""

    beta: np.ndarray
    residuals: np.ndarray
    converged: bool = True

    @property
    def slope(self) -> np.ndarray:
        return self.beta[1:]


def weighted_fit(data: Dataset, loss: LossFunction, w) -> FitResult:
    """Weighted fit by closed-form WLS for the square loss, else the M-solver."""
    if loss.family == "square":
        return fit_wls(data, w)
    return fit_weighted_m(data, loss, w)


def first_step(data: Dataset, loss: LossFunction) -> FirstStepFit:
    """Fit with unit weights; the plug-in point for every weight formula."""
    fit = weighted_fit(data, loss, np.ones(data.n))
    residuals = data.y - fit.beta[0] - data.x @ fit.beta[1:]
    return FirstStepFit(beta=fit.beta, residuals=residuals, converged=fit.converged)


def projector(beta2) -> np.ndarray:
    """Orthogonal projector onto the line spanned by ``beta2``."""
    b = np.asarray(beta2, dtype=float)
    if b.ndim != 1:
        raise DataError("beta2 must be a vector")
    norm_sq = float(b @ b)
    if norm_sq == 0.0:
        raise IndexDegenerateError("cannot project onto a zero slope vector")
    return np.outer(b, b) / norm_sq


def epsilon_perturbation(data: Dataset, fs: FirstStepFit) -> float:
    """Ridge size for the projected-smoothing matrix ``A = P + eps*I``.

    eps^2 = 2 s^2 sum_k lam_k^2 / (n q |b|^2), with s^2 the mean squared
    first-step residual, |b|^2 the squared slope norm and lam_k the
    eigenvalues of (I-P) S2 (I-P), S2 the slope block of the inverse moment
    matrix.  S2 is Sigma^-1, the inverse covariate covariance (divisor n; a
    Schur complement), and sum_k lam_k^2 = |(I-P) Sigma^-1 (I-P)|_F^2, so eps
    comes from the centred covariates and an offset of x leaves it unchanged.
    """
    slope = fs.slope
    xc = data.x - data.x.mean(axis=0)
    cov = xc.T @ xc / data.n
    resid_proj = np.eye(data.q) - projector(slope)
    mat = resid_proj @ _solve_spd(cov, np.eye(data.q), "covariate covariance") @ resid_proj
    sigma2 = float(np.mean(fs.residuals**2))
    value = 2.0 * sigma2 * float(np.sum(mat**2)) / (data.n * data.q * float(slope @ slope))
    return float(np.sqrt(value))


def smoothing_coordinates(
    data: Dataset, fs: FirstStepFit, mode: str, eps: float | None = None
) -> np.ndarray:
    """Points in the geometry a kernel route smooths over.

    Returns an ``(n, d)`` array: the raw covariates for ``"np"``, the scalar
    index for ``"sp-index"``, or ``A x`` with ``A = P + eps*I`` for
    ``"sp-proj"``, whose caller chooses ``eps`` (the default is
    :func:`epsilon_perturbation`).  Raises NumericalError if the points are not finite.
    """
    if mode not in MODES:
        raise DataError(f"unknown smoothing mode {mode!r}")
    if mode == "np":
        return data.x
    if mode == "sp-index":
        if not np.any(fs.slope != 0.0):
            raise IndexDegenerateError("first-step slope vector is zero")
        points = (data.x @ fs.slope).reshape(-1, 1)
    elif eps is None or eps < 0:
        raise DataError(f"sp-proj smoothing needs a nonnegative eps, got {eps}")
    else:
        points = data.x @ (projector(fs.slope) + eps * np.eye(data.q))
    if not np.isfinite(points).all():
        raise NumericalError(f"{mode} smoothing coordinates are not finite; they overflowed")
    return points


def pairwise_sq_dists(
    rows: np.ndarray, points: np.ndarray, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances from each of ``rows`` to each of ``points``.

    Each sums the squares of the directly formed coordinate differences, in
    coordinate order (the window rule of the module docstring).  With ``out``
    (shape ``(len(rows), len(points))``) they are written there; the squares
    of each further coordinate go to ``scratch``, an array of that shape too,
    or a new one.
    """
    d2 = np.empty((rows.shape[0], points.shape[0])) if out is None else out
    scratch = np.empty_like(d2) if scratch is None else scratch
    for k, diff in enumerate([d2] + [scratch] * (rows.shape[1] - 1)):
        np.copyto(diff, rows[:, k, None])  # then in place, cheaper than np.subtract.outer
        diff -= points[:, k]
        diff *= diff
        if k:
            d2 += diff
    return d2


#: Arenas that no band walk holds (:func:`borrowed_arena`).
_IDLE_ARENAS: list[dict] = []


@contextmanager
def borrowed_arena():
    """An idle arena for one band walk, or a new one; it goes back to the idle list on exit.

    An arena is a dict of grow-only float buffers (:func:`arena_buffer`).  A walk
    borrows one for its whole course, so concurrent walks never share one.
    """
    try:
        arena = _IDLE_ARENAS.pop()
    except IndexError:
        arena = {}
    try:
        yield arena
    finally:
        _IDLE_ARENAS.append(arena)


def arena_buffer(arena: dict, name: str, size: int) -> np.ndarray:
    """The first ``size`` floats of ``arena[name]``, grown to fit, which drops its contents.

    The old buffer is released before the new one is made, provided no view of
    it is alive.
    """
    buf = arena.get(name)
    if buf is None or buf.size < size:
        arena[name] = buf = None
        buf = arena[name] = np.empty(size)
    return buf[:size]


@np.errstate(over="ignore")  # a width that overflows holds every pair
def sorted_band(points: np.ndarray, h2: float, arena: dict):
    """The band of the module docstring over ``(n, d)`` points, d >= 2, holding each d2 < h2.

    Returns ``(order, blocks, widest)``: ``order`` sorts the rows along the band, ``blocks``
    yields ``(lo, r, w, tiles)`` per block of r sorted rows from ``lo`` with a band of w
    columns from ``lo``, ``widest`` is the largest w, and ``tiles`` yields ``(first, d2)``:
    ``d2`` the block's squared distances to the at most 2 BLOCK_ROWS columns from
    ``lo + first``, in the ``"dist"`` buffer of ``arena``, which the next tile overwrites.
    :func:`pairwise_sq_dists` works in its ``"work"`` buffer, whose contents a tile leaves
    undefined.  A tile is wider than a block, so the block's own pairs are in its first.
    Axis and projections come from the points scaled by 2^-e to entries below 1, so the
    scatter matrix cannot overflow and a projection rounds by at most about q sqrt(q) eps.
    The width h 2^-e + 8 q sqrt(q) eps covers a pair's two projections, its window test
    and the axis's norm; h counts only below the diameter 2 sqrt(q), past which all pairs
    are in the band.
    """
    n, q = points.shape
    e = np.frexp(np.max(np.abs(points)))[1]
    scaled = np.ldexp(points, -e)  # entries below 1
    centred = scaled - scaled.mean(axis=0)
    axis = np.linalg.eigh(centred.T @ centred)[1][:, -1]
    proj = scaled @ axis
    width = np.ldexp(np.sqrt(h2), -e) + 8.0 * q * np.sqrt(q) * np.finfo(float).eps
    order = np.argsort(proj, kind="stable")
    proj, points = proj[order], np.asfortranarray(points[order])  # columns contiguous
    starts = np.arange(0, n, BLOCK_ROWS)
    stops = np.minimum(starts + BLOCK_ROWS, n)
    ends = np.searchsorted(proj, proj[stops - 1] + width, side="right")
    size = int(np.max((stops - starts) * np.minimum(ends - starts, 2 * BLOCK_ROWS)))

    def tiles(buf, lo, hi, end):
        for first in range(lo, end, 2 * BLOCK_ROWS):
            shape = (hi - lo, min(end - first, 2 * BLOCK_ROWS))
            d2 = buf[: shape[0] * shape[1]].reshape(shape)
            yield first - lo, pairwise_sq_dists(
                points[lo:hi], points[first:first + shape[1]], out=d2,
                scratch=arena_buffer(arena, "work", d2.size).reshape(shape))

    def blocks():
        buf = arena_buffer(arena, "dist", size)
        for lo, hi, end in zip(starts, stops, ends):
            yield lo, hi - lo, end - lo, tiles(buf, lo, hi, end)

    return order, blocks(), int(np.max(ends - starts))


def _band_sums(points: np.ndarray, columns: np.ndarray, h2: float) -> np.ndarray:
    """Kernel sums of each row of ``columns`` over every window, self term included.

    ``points`` is ``(n, d)`` with d >= 2 and ``columns`` is ``(m, n)``;
    returns the ``(m, n)`` sums over j of K((x_j - x_i) / h) c_j, taken in the
    sorted band of the module docstring.
    """
    kernel = EpanechnikovKernel(points.shape[1])
    with borrowed_arena() as arena:
        order, blocks, _ = sorted_band(points, h2, arena)
        columns = columns[:, order]
        sums = np.zeros(columns.shape)
        for lo, r, _, tiles in blocks:
            for first, d2 in tiles:
                k = kernel.profile(np.divide(d2, h2, out=d2), out=d2)
                c0, c1 = lo + first, lo + first + k.shape[1]
                sums[:, lo:lo + r] += columns[:, c0:c1] @ k.T
                past = max(r - first, 0)  # the mirrored pairs, past the block's rows
                sums[:, c0 + past:c1] += columns[:, lo:lo + r] @ k[:, past:]
    unsorted = np.empty_like(sums)
    unsorted[:, order] = sums
    return unsorted


def _right_edges(zs: np.ndarray, h2: float) -> np.ndarray:
    """First sorted row past the right end of each row's window.

    The window predicate (zs[j] - zs[i])**2 < h2 is written here only, in the
    one edge search of :func:`window_sums`.  A search at zs + sqrt(h2) lands
    within rounding of each edge, which then moves by whole runs of tied
    values until the predicate holds exactly: in on the row before the edge
    and out at it (row n is out).
    """
    n = zs.size
    padded = np.append(zs, np.inf)

    def inside(rows):
        return (padded[rows] - zs) ** 2 < h2

    hi = np.maximum(np.searchsorted(zs, zs + np.sqrt(h2)), np.arange(1, n + 1))
    while (ahead := inside(hi)).any():
        hi[ahead] = np.searchsorted(zs, zs[hi[ahead]], "right")
    while (back := ~inside(hi - 1)).any():
        hi[back] = np.searchsorted(zs, zs[hi[back] - 1], "left")
    return hi


def _segment_starts(hi: np.ndarray) -> np.ndarray:
    """Rows that start a segment: row 0, and the right edge of each start.

    Every pair of rows in one segment lies in each other's window, and the
    window of a row in segment s reaches no further than segments s - 1 and
    s + 1.  The chain of starts is followed by pointer doubling.
    """
    n = hi.size
    jump = np.append(hi, n)
    start = np.zeros(n + 1, dtype=bool)
    start[0] = True
    while jump[0] < n:  # start marks the first 2**m starts, jump is hi applied 2**m times
        start[jump[start]] = True
        jump = jump[jump]
    return np.flatnonzero(start[:n])


def _segment_scans(x: np.ndarray, starts: np.ndarray, seg: np.ndarray):
    """Running sums of the rows of ``x`` within each segment, and a zero row n.

    Returns ``(prefix, suffix)``: row i sums the rows of its segment up to i
    and from i on.  The segments of at most 2**b rows are the rows of one
    zero-padded array for each b, so every sum adds the rows of one segment
    in order, nothing is subtracted, and the padding holds fewer than n rows.
    """
    n = x.shape[0]
    pos = np.arange(n) - starts[seg]
    bits = np.frexp(np.diff(starts, append=n) - 1)[1]  # 2**bits >= segment length
    prefix, suffix = np.zeros((2, n + 1, x.shape[1]))
    for b in np.flatnonzero(np.bincount(bits)):  # the distinct bits, none negative
        segs = np.flatnonzero(bits == b)
        rows = np.flatnonzero(bits[seg] == b)
        at = np.searchsorted(segs, seg[rows]), pos[rows]
        pad = np.zeros((segs.size, 1 << b, x.shape[1]))
        pad[at] = x[rows]
        prefix[rows] = np.cumsum(pad, axis=1)[at]
        suffix[rows] = np.cumsum(pad[:, ::-1], axis=1)[:, ::-1][at]
    return prefix, suffix


def window_sums(z: np.ndarray, columns, h2s):
    """Epanechnikov window sums over one-dimensional points, self term excluded.

    The window of point i at the squared bandwidth h2 holds every j != i
    with (z_j - z_i)**2 < h2.  Yields ``(k, sums)`` for each h2 of ``h2s``
    in turn: ``k[i]`` counts the points in the window of i, and
    ``sums[c][i]`` is S_c - S_dc / h2, where S_c and S_dc sum c_j and
    (z_j - z_i)**2 c_j over that window, for each of the ``columns``.  Every
    point must be finite (NumericalError otherwise).  The module docstring
    describes the method.
    """
    if not np.isfinite(z).all():
        raise NumericalError("smoothing coordinates are not finite")
    order = np.argsort(z, kind="stable")
    zs = z[order]
    cols = np.column_stack(columns)[order]
    n, m = cols.shape
    rows = np.arange(n)
    for h2 in h2s:
        hi = _right_edges(zs, h2)
        lo = np.searchsorted(hi, rows, side="right")  # the first row whose window reaches i
        starts = _segment_starts(hi)
        seg = np.repeat(np.arange(starts.size), np.diff(starts, append=n))
        first, stop = starts[seg], np.append(starts, n)[seg + 1]
        anchor = zs[first]
        u = (zs - anchor)[:, None]
        prefix, suffix = _segment_scans(np.hstack([cols, cols * u, cols * u * u]), starts, seg)
        # three pieces, each summed about the first point of its segment: the
        # tail of segment s - 1 from lo, segment s but row i, and the head of
        # s + 1 up to hi; an empty piece sums the zero row n
        pieces = (
            (suffix[np.where(lo < first, lo, n)], lo),
            (prefix[np.where(rows > first, rows - 1, n)]
             + suffix[np.where(rows + 1 < stop, rows + 1, n)], rows),
            (prefix[np.where(hi > stop, hi - 1, n)], hi - 1),
        )
        total = np.zeros((n, m))
        for piece, at in pieces:
            s_c, s_cu, s_cuu = np.split(piece, 3, axis=1)
            v = (zs - anchor[at])[:, None]
            total += s_c - (s_cuu - 2.0 * v * s_cu + v * v * s_c) / h2
        k = np.empty(n, dtype=np.int64)
        sums = np.empty((m, n))
        k[order] = hi - lo - 1
        sums[:, order] = total.T
        yield k, sums


def squared_bandwidth(h: float) -> float:
    """``h**2`` for a usable bandwidth ``h``: the one test of a bandwidth.

    Raises DataError when ``h`` is not positive or its square overflows or
    underflows to 0.
    """
    if not h > 0:
        raise DataError(f"bandwidth must be positive, got {h}")
    h2 = float(h) * float(h)
    if not np.isfinite(h2):
        raise DataError(f"bandwidth {float(h):g} is too large: its square overflows")
    if h2 == 0.0:
        raise DataError(f"bandwidth {float(h):g} is too small: its square underflows")
    return h2


# inf * 0 = NaN in a numerator raises below.  An inf from d2 /= h2 at a
# subnormal h2 lies outside every window, and an overflowed squared score is
# caught by the denominator check below
@np.errstate(invalid="ignore", over="ignore")
def _ratio_weights(
    loss: LossFunction, fs: FirstStepFit, h: float, points: np.ndarray
) -> np.ndarray:
    h2 = squared_bandwidth(h)
    g1 = loss.g1(fs.residuals)
    g2 = loss.g2(fs.residuals)
    if points.shape[1] == 1:
        _, (num, den) = next(window_sums(points[:, 0], [g2, g1], [h2]))
        num, den = num + g2, den + g1  # the self term, K(0) = 1
    else:
        num, den = _band_sums(points, np.stack([g2, g1]), h2)
    top_num, top_den = float(np.max(num)), float(np.max(den))
    if not np.isfinite(top_den):  # an overflow, so checked before the numerators
        raise NumericalError("a smoothing denominator is not finite; a squared "
                             "first-step score or a squared distance overflowed")
    if not np.isfinite(top_num):  # g2 = inf, or inf * 0 = NaN
        raise DegenerateCurvatureError("a smoothing numerator is not finite; the loss has "
                                       "infinite curvature at an exact zero first-step residual")
    if not top_num > 0:
        raise DegenerateCurvatureError("every smoothing numerator vanished; the loss has no "
                                       "curvature mass at the first-step residuals")
    if not top_den > 0:  # every window holds its own point, so no bandwidth helps
        raise NumericalError("every smoothing denominator vanished; the first step fits "
                             "the data exactly, so every first-step score is zero")
    return np.maximum(num, SMOOTHING_FLOOR * top_num) / np.maximum(den, SMOOTHING_FLOOR * top_den)


def np_weights(
    data: Dataset, loss: LossFunction, fs: FirstStepFit, h: float
) -> np.ndarray:
    """Nadaraya-Watson weight estimate evaluated at every sample point."""
    return _ratio_weights(loss, fs, h, smoothing_coordinates(data, fs, "np"))


def sp_index_weights(
    data: Dataset, loss: LossFunction, fs: FirstStepFit, h: float
) -> np.ndarray:
    """Weight estimate smoothing over the scalar first-step index."""
    return _ratio_weights(loss, fs, h, smoothing_coordinates(data, fs, "sp-index"))


def sp_projected_weights(
    data: Dataset, loss: LossFunction, fs: FirstStepFit, h: float, eps: float
) -> np.ndarray:
    """Weight estimate smoothing in the projected-perturbed geometry."""
    return _ratio_weights(loss, fs, h, smoothing_coordinates(data, fs, "sp-proj", eps))


def evaluate_weight_map(w0, x: np.ndarray) -> np.ndarray:
    """Evaluate a weight map ``w0(x)`` row-wise and validate the values.

    ``w0`` must return one positive finite value per row of ``x``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.asarray(w0(x), dtype=float)
    if raw.shape != (x.shape[0],):
        raise DataError(
            f"weight map returned shape {raw.shape}, expected ({x.shape[0]},)"
        )
    bad = ~np.isfinite(raw) | (raw <= 0)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise WeightFamilyError(
            f"weight map produced {float(raw[row])} at row {row}; weights must be "
            "positive and finite"
        )
    return raw


def clamp_weights(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Clamp to [1e-6, 1e6] times the median; returns (weights, clamp count)."""
    med = float(median(values))
    lo, hi = CLAMP_LO * med, CLAMP_HI * med
    count = int(np.sum((values < lo) | (values > hi)))
    return np.clip(values, lo, hi), count


def parametric_weights(family, fs: FirstStepFit, data: Dataset) -> np.ndarray:
    """Plug the first-step coefficients into a weight family ``family(x, beta)``."""
    return oracle_weights(lambda x: family(x, fs.beta), data)


def oracle_weights(w0, data: Dataset) -> np.ndarray:
    """Evaluate a known weight map ``w0(x)`` and clamp it (:func:`clamp_weights`)."""
    return clamp_weights(evaluate_weight_map(w0, data.x))[0]
