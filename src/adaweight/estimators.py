"""Weighted coefficient estimation.

The regression model is E(Y|X) = beta_1 + beta_2' X with covariates X in
R^q.  All fits work on the augmented design row (1, X') so the coefficient
vector lives in R^(1+q) with the intercept first.

Three operations live here:

* :func:`fit_wls` - closed-form weighted least squares,
* :func:`fit_weighted_m` - damped-Newton / IRLS solver for a general convex
  loss, driven by the estimating equation
  ``n^-1 sum_i w_i rho'(|e_i|) sign(e_i) x~_i = 0``,
* :func:`sandwich_covariance` - plug-in covariance
  ``C^-1 M C^-1 / n`` with ``C = n^-1 sum w_i g2(e_i) x~_i x~_i'`` and
  ``M = n^-1 sum w_i^2 g1(e_i) x~_i x~_i'``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateCurvatureError, DegenerateDesignError
from .losses import LossFunction

#: Reciprocal-condition threshold below which a moment matrix is treated as
#: singular.  Deterministic failure instead of noise amplification.
RCOND_MIN = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Responses ``y`` (length n) and covariates ``x`` (n rows, q columns)."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if y.ndim != 1 or x.ndim != 2:
            raise DataError("y must be a vector and x a matrix")
        if x.shape[0] != y.shape[0]:
            raise DataError(
                f"{y.shape[0]} responses but {x.shape[0]} covariate rows"
            )
        if x.shape[1] < 1:
            raise DataError("at least one covariate column is required")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise DataError("dataset contains non-finite entries")
        if y.shape[0] < x.shape[1] + 1:
            raise DataError(
                f"n={y.shape[0]} rows cannot identify an intercept plus "
                f"{x.shape[1]} slopes"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def q(self) -> int:
        return self.x.shape[1]

    def design_matrix(self) -> np.ndarray:
        """Augmented design with a leading column of ones."""
        return np.column_stack([np.ones(self.n), self.x])


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus solver diagnostics.

    ``beta`` holds the intercept first.  ``iterations`` is 0 for the closed
    form.
    """

    beta: np.ndarray
    weights: np.ndarray
    iterations: int
    converged: bool
    gradient_norm: float


def _check_weights(data: Dataset, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise DataError(f"expected {data.n} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DataError("weights contain non-finite entries")
    if np.any(w < 0):
        raise DataError("weights must be nonnegative")
    if not np.any(w > 0):
        raise DataError("weights must not be all zero")
    return w


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve a small symmetric system, failing loudly on near-singularity."""
    cond = np.linalg.cond(mat)
    rcond = 0.0 if not np.isfinite(cond) else 1.0 / cond
    if rcond < RCOND_MIN:
        raise DegenerateDesignError(
            f"{what} is numerically singular (reciprocal condition estimate "
            f"{rcond:.3e} < {RCOND_MIN:g})"
        )
    sol = np.linalg.solve(mat, rhs)
    # one step of iterative refinement keeps the certificate tight
    sol += np.linalg.solve(mat, rhs - mat @ sol)
    return sol


def fit_wls(data: Dataset, weights) -> FitResult:
    """Exact minimizer of ``sum_i (y_i - b1 - b2'x_i)^2 w_i``.

    Parameters
    ----------
    data : Dataset
    weights : array_like
        n nonnegative finite reals, not all zero.

    Raises
    ------
    DegenerateDesignError
        If the weighted moment matrix is near-singular, e.g. when all the
        weight mass sits on fewer than q+1 points.
    """
    w = _check_weights(data, weights)
    xt = data.design_matrix()
    sigma = (xt * w[:, None]).T @ xt / data.n
    gamma = xt.T @ (w * data.y) / data.n
    beta = _solve_spd(sigma, gamma, "weighted moment matrix")
    grad = 2.0 * (gamma - sigma @ beta)
    return FitResult(
        beta=beta,
        weights=w,
        iterations=0,
        converged=True,
        gradient_norm=float(np.max(np.abs(grad))),
    )


def estimating_equation(data: Dataset, loss: LossFunction, weights, beta) -> np.ndarray:
    """The Z-map ``n^-1 sum_i w_i rho'(|e_i|) sign(e_i) x~_i`` at ``beta``."""
    w = np.asarray(weights, dtype=float)
    beta = np.asarray(beta, dtype=float)
    xt = data.design_matrix()
    e = data.y - xt @ beta
    score = loss.rho_prime(np.abs(e)) * np.sign(e)
    return xt.T @ (w * score) / data.n


def _objective(data: Dataset, loss: LossFunction, w, xt, beta) -> float:
    e = data.y - xt @ beta
    return float(np.mean(w * loss.rho(np.abs(e))))


def _irls_target(data: Dataset, loss: LossFunction, w, xt, e) -> np.ndarray:
    """One IRLS step: weighted LS with working weights w * rho'(|e|)/|e|."""
    abs_e = np.abs(e)
    ratio = np.empty_like(abs_e)
    nz = abs_e > 0
    ratio[nz] = loss.rho_prime(abs_e[nz]) / abs_e[nz]
    if np.any(~nz):
        limit = loss.rho_second(0.0)
        if not np.isfinite(limit):
            # rho''(0) diverges for power losses with p < 2; reuse the
            # largest finite working ratio so the step stays well posed
            limit = 10.0 * float(np.max(ratio[nz])) if np.any(nz) else 1.0
        ratio[~nz] = limit
    omega = w * ratio
    sigma = (xt * omega[:, None]).T @ xt / data.n
    gamma = xt.T @ (omega * data.y) / data.n
    return _solve_spd(sigma, gamma, "IRLS working moment matrix")


def fit_weighted_m(
    data: Dataset,
    loss: LossFunction,
    weights,
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
    init=None,
) -> FitResult:
    """Weighted M-estimate ``argmin sum_i rho(|y_i - b1 - b2'x_i|) w_i``.

    The solver is damped Newton on the estimating equation with step-halving
    on the weighted objective, falling back to an IRLS step whenever the
    curvature matrix is singular (e.g. every residual beyond a Huber
    cutoff).  Convergence means the max-norm of the estimating equation is
    at most ``tol``; a fit that exhausts ``max_iter`` is returned with
    ``converged=False`` and its final gradient norm, never silently.

    Parameters
    ----------
    data : Dataset
    loss : LossFunction
    weights : array_like
        n nonnegative reals.
    tol : float
        Bound on the estimating-equation max-norm.
    max_iter : int
        Newton iteration cap.
    init : array_like, optional
        Starting coefficients; defaults to the unweighted square-loss fit.
    """
    w = _check_weights(data, weights)
    xt = data.design_matrix()
    if init is None:
        beta = fit_wls(data, np.ones(data.n)).beta.copy()
    else:
        beta = np.asarray(init, dtype=float).copy()
        if beta.shape != (1 + data.q,):
            raise DataError(f"init must have length {1 + data.q}")

    iterations = 0
    for _ in range(max_iter):
        e = data.y - xt @ beta
        score = loss.rho_prime(np.abs(e)) * np.sign(e)
        grad = xt.T @ (w * score) / data.n
        if np.max(np.abs(grad)) <= tol:
            break
        curv = w * loss.rho_second(np.abs(e))
        hess = (xt * curv[:, None]).T @ xt / data.n
        cond = np.linalg.cond(hess)
        newton_ok = np.isfinite(cond) and 1.0 / cond >= RCOND_MIN
        if newton_ok:
            step = np.linalg.solve(hess, grad)
        else:
            step = _irls_target(data, loss, w, xt, e) - beta
        candidate = None
        t = 1.0
        if newton_ok:
            # near the solution the objective sits on its roundoff plateau
            # and cannot discriminate; a full Newton step that shrinks the
            # Z-residual is accepted outright (convex objective)
            full = beta + step
            full_grad = estimating_equation(data, loss, w, full)
            if np.max(np.abs(full_grad)) < np.max(np.abs(grad)):
                candidate = full
        if candidate is None:
            # step halving on the weighted objective
            current = _objective(data, loss, w, xt, beta)
            for _ in range(40):
                trial = beta + t * step
                if _objective(data, loss, w, xt, trial) <= current:
                    candidate = trial
                    break
                t *= 0.5
        if newton_ok and t < 1.0:
            # a damped Newton step means the local quadratic model is poor
            # (curvature spikes near zero residuals for power losses); the
            # IRLS point is often better there
            try:
                irls_point = _irls_target(data, loss, w, xt, e)
            except DegenerateDesignError:
                irls_point = None
            if irls_point is not None:
                floor = _objective(data, loss, w, xt, candidate) if candidate is not None else current
                if _objective(data, loss, w, xt, irls_point) <= floor:
                    candidate = irls_point
        iterations += 1
        if candidate is None:
            break
        beta = candidate

    final = estimating_equation(data, loss, w, beta)
    gnorm = float(np.max(np.abs(final)))
    return FitResult(
        beta=beta,
        weights=w,
        iterations=iterations,
        converged=bool(gnorm <= tol),
        gradient_norm=gnorm,
    )


def sandwich_covariance(data: Dataset, loss: LossFunction, weights, beta) -> np.ndarray:
    """Plug-in covariance of the fitted coefficients.

    ``beta`` should be a fitted value (small estimating-equation residual).
    The output is symmetric positive semi-definite and invariant to
    rescaling all weights by a common factor.

    Raises
    ------
    DegenerateCurvatureError
        If the curvature matrix C is singular, e.g. a Huber fit with every
        residual beyond the cutoff.
    """
    w = _check_weights(data, weights)
    beta = np.asarray(beta, dtype=float)
    xt = data.design_matrix()
    e = data.y - xt @ beta
    c_mat = (xt * (w * loss.g2(e))[:, None]).T @ xt / data.n
    m_mat = (xt * (w**2 * loss.g1(e))[:, None]).T @ xt / data.n
    cond = np.linalg.cond(c_mat)
    rcond = 0.0 if not np.isfinite(cond) else 1.0 / cond
    if rcond < RCOND_MIN:
        raise DegenerateCurvatureError(
            f"curvature matrix is numerically singular (reciprocal condition "
            f"estimate {rcond:.3e} < {RCOND_MIN:g})"
        )
    c_inv = np.linalg.inv(c_mat)
    cov = c_inv @ m_mat @ c_inv / data.n
    return 0.5 * (cov + cov.T)
