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

The kernel routes smooth with the Epanechnikov kernel whose dimension is
that of the smoothing coordinates (q for ``"np"`` and ``"sp-proj"``, 1 for
``"sp-index"``).  Kernel sums include the self term i == j; leave-one-out
kernels appear only inside bandwidth cross-validation, which sums them
without a kernel matrix (see :mod:`adaweight.bandwidth`), so
:func:`_kernel_matrix` now serves only this final smoother.  Denominators
are floored at 1e-8 of their maximum so the returned sequences are strictly
positive and finite.

A point with no other observation within h smooths only its own residual,
so its weight is the pointwise ratio g2(e_i)/g1(e_i) (1/(2 e_i^2) for square
loss).  That value is unbounded as e_i -> 0, and the kernel routes do not
clamp it; isolated points in sparse tails can therefore receive weights far
above the rest of the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BandwidthTooSmallError,
    DataError,
    DegenerateCurvatureError,
    IndexDegenerateError,
    WeightFamilyError,
)
from .estimators import Dataset, fit_weighted_m, fit_wls, _solve_spd
from .kernels import EpanechnikovKernel
from .losses import LossFunction

#: Relative floor applied to kernel-smoothing numerators and denominators.
SMOOTHING_FLOOR = 1e-8

#: Clamp factors for parametric and oracle weights, relative to the median.
CLAMP_LO = 1e-6
CLAMP_HI = 1e6

#: Smoothing geometries understood by the kernel routes.
MODES = ("np", "sp-index", "sp-proj")


@dataclass(frozen=True)
class FirstStepFit:
    """Constant-weight fit and its residual sequence."""

    beta: np.ndarray
    residuals: np.ndarray

    @property
    def slope(self) -> np.ndarray:
        return self.beta[1:]


def first_step(data: Dataset, loss: LossFunction) -> FirstStepFit:
    """Fit with unit weights; the plug-in point for every weight formula."""
    ones = np.ones(data.n)
    if loss.family == "square":
        fit = fit_wls(data, ones)
    else:
        fit = fit_weighted_m(data, loss, ones)
    residuals = data.y - fit.beta[0] - data.x @ fit.beta[1:]
    return FirstStepFit(beta=fit.beta, residuals=residuals)


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

    eps = sqrt( 2 s^2 sum_k lam_k^2 / (n q |b|^2) ) where s^2 is the mean
    squared first-step residual, lam_k are the eigenvalues of
    (I-P) S2 (I-P) with S2 the bottom-right q x q block of the inverse
    moment matrix, and |b|^2 the squared slope norm.
    """
    slope = fs.slope
    p_mat = projector(slope)
    xt = data.design_matrix()
    moment = xt.T @ xt / data.n
    inv = _solve_spd(moment, np.eye(1 + data.q), "moment matrix")
    block = inv[1:, 1:]
    resid_proj = np.eye(data.q) - p_mat
    mat = resid_proj @ block @ resid_proj
    lam = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    sigma2 = float(np.mean(fs.residuals**2))
    norm_sq = float(slope @ slope)
    value = 2.0 * sigma2 * float(np.sum(lam**2)) / (data.n * data.q * norm_sq)
    return float(np.sqrt(value))


def smoothing_coordinates(
    data: Dataset, fs: FirstStepFit, mode: str, eps: float | None = None
) -> np.ndarray:
    """Points in the geometry a kernel route smooths over.

    Returns an ``(n, d)`` array: the raw covariates for ``"np"``, the scalar
    index for ``"sp-index"``, or ``A x`` with ``A = P + eps*I`` for
    ``"sp-proj"`` (``eps`` computed by :func:`epsilon_perturbation` when not
    given).
    """
    if mode not in MODES:
        raise DataError(f"unknown smoothing mode {mode!r}")
    if mode == "np":
        return data.x
    if mode == "sp-index":
        slope = fs.slope
        if not np.any(slope != 0.0):
            raise IndexDegenerateError("first-step slope vector is zero")
        return (data.x @ slope).reshape(-1, 1)
    if eps is None:
        eps = epsilon_perturbation(data, fs)
    if eps < 0:
        raise DataError("eps must be nonnegative")
    a_mat = projector(fs.slope) + eps * np.eye(data.q)
    return data.x @ a_mat


def pairwise_sq_dists(rows: np.ndarray, points: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances from each of ``rows`` to each of ``points``.

    ``points`` defaults to ``rows``, which gives the dense symmetric matrix.
    """
    points = rows if points is None else points
    sq_rows, sq_points = np.sum(rows**2, axis=1), np.sum(points**2, axis=1)
    d2 = sq_rows[:, None] + sq_points[None, :] - 2.0 * (rows @ points.T)
    return np.clip(d2, 0.0, None, out=d2)


def squared_bandwidth(h: float) -> float:
    """``h**2`` for a usable bandwidth ``h``.

    Raises DataError when ``h`` is not positive or its square overflows.
    """
    if not h > 0:
        raise DataError("bandwidth must be positive")
    h2 = float(h) * float(h)
    if not np.isfinite(h2):
        raise DataError(f"bandwidth {float(h):g} is too large: its square overflows")
    return h2


def _kernel_matrix(d2: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Epanechnikov kernel K_h on R^dim evaluated at squared distances ``d2``."""
    return EpanechnikovKernel(dim).profile(d2 / squared_bandwidth(h)) * h ** (-dim)


def _floor_positive(values: np.ndarray, what: str) -> np.ndarray:
    top = float(np.max(values))
    if not top > 0:
        if what == "denominator":
            raise BandwidthTooSmallError(
                "every smoothing denominator is at the floor; choose a larger "
                "bandwidth or select it by cross-validation"
            )
        raise DegenerateCurvatureError(
            "every smoothing numerator vanished; the loss has no curvature "
            "mass at the first-step residuals"
        )
    return np.maximum(values, SMOOTHING_FLOOR * top)


def _ratio_weights(
    data: Dataset, loss: LossFunction, fs: FirstStepFit, h: float, points: np.ndarray
) -> np.ndarray:
    g1 = loss.g1(fs.residuals)
    g2 = loss.g2(fs.residuals)
    k_mat = _kernel_matrix(pairwise_sq_dists(points), h, points.shape[1])
    num = k_mat @ g2 / data.n
    den = k_mat @ g1 / data.n
    num = _floor_positive(num, "numerator")
    den = _floor_positive(den, "denominator")
    return num / den


def np_weights(
    data: Dataset, loss: LossFunction, fs: FirstStepFit, h: float
) -> np.ndarray:
    """Nadaraya-Watson weight estimate evaluated at every sample point."""
    return _ratio_weights(data, loss, fs, h, smoothing_coordinates(data, fs, "np"))


def sp_index_weights(
    data: Dataset, loss: LossFunction, fs: FirstStepFit, h: float
) -> np.ndarray:
    """Weight estimate smoothing over the scalar first-step index."""
    return _ratio_weights(
        data, loss, fs, h, smoothing_coordinates(data, fs, "sp-index")
    )


def sp_projected_weights(
    data: Dataset, loss: LossFunction, fs: FirstStepFit, h: float, eps: float
) -> np.ndarray:
    """Weight estimate smoothing in the projected-perturbed geometry."""
    return _ratio_weights(
        data, loss, fs, h, smoothing_coordinates(data, fs, "sp-proj", eps)
    )


def evaluate_weight_map(family, x: np.ndarray, beta=None) -> np.ndarray:
    """Evaluate a weight map row-wise and validate the values.

    ``family`` is called as ``family(x, beta)`` when ``beta`` is given and
    ``family(x)`` otherwise; it must return one positive finite value per
    row.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = family(x) if beta is None else family(x, beta)
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (x.shape[0],):
        raise DataError(
            f"weight map returned shape {raw.shape}, expected ({x.shape[0]},)"
        )
    bad = ~np.isfinite(raw) | (raw <= 0)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise WeightFamilyError(
            f"weight map produced {raw[row]!r} at row {row}; weights must be "
            "positive and finite"
        )
    return raw


def clamp_weights(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Clamp to [1e-6, 1e6] times the median; returns (weights, clamp count)."""
    med = float(np.median(values))
    lo, hi = CLAMP_LO * med, CLAMP_HI * med
    count = int(np.sum((values < lo) | (values > hi)))
    return np.clip(values, lo, hi), count


def parametric_weights(family, fs: FirstStepFit, data: Dataset) -> np.ndarray:
    """Plug the first-step coefficients into a parametric weight family."""
    raw = evaluate_weight_map(family, data.x, fs.beta)
    return clamp_weights(raw)[0]


def oracle_weights(w0, data: Dataset) -> np.ndarray:
    """Evaluate a known weight map, with the same clamping as parametric."""
    raw = evaluate_weight_map(w0, data.x)
    return clamp_weights(raw)[0]
