"""Weighted coefficient estimation.

The regression model is E(Y|X) = beta_1 + beta_2' X with covariates X in
R^q.  All fits work on the augmented design row (1, X') so the coefficient
vector lives in R^(1+q) with the intercept first.

Three operations live here:

* :func:`fit_wls` - closed-form weighted least squares,
* :func:`fit_weighted_m` - damped-Newton solver for a general convex loss,
  driven by the estimating equation
  ``n^-1 sum_i w_i rho'(|e_i|) sign(e_i) x~_i = 0``, with one fallback
  step where its curvature matrix is singular.  Power losses with
  1 < p < 2 test that only at the start: later, their curvatures are
  positive and finite on the rank the start certified, so a tiny
  reciprocal condition is one huge curvature at a near-zero residual, not
  a null space, and only a non-finite matrix or one that LAPACK rejects
  takes the fallback.  It evaluates the estimating equation at most once
  per point; the score is written once, in the helper that
  :func:`estimating_equation` also uses,
* :func:`sandwich_covariance` - plug-in covariance
  ``C^-1 M C^-1 / n`` with ``C = n^-1 sum w_i g2(e_i) x~_i x~_i'`` and
  ``M = n^-1 sum w_i^2 g1(e_i) x~_i x~_i'``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateCurvatureError, DegenerateDesignError, NumericalError
from .losses import LossFunction

#: Reciprocal-condition threshold below which a moment matrix is treated as
#: singular.  Deterministic failure instead of noise amplification.
RCOND_MIN = 1e-12

#: M-solver convergence certificate: a bound on the estimating equation's max-norm.
TOL = 1e-10
#: M-solver Newton iteration cap; a fit that reaches it reports converged=False.
MAX_ITER = 100
#: Power losses with 1 < p < 2: the IRLS point beta + (p-1) * step replaces
#: the full Newton step only when its weighted objective is lower by more
#: than this relative margin.  Below it the two objectives differ by
#: rounding, and the choice would follow the row order.
IRLS_MARGIN = 1e-12
#: Power losses with 1 < p < 2: past a singular curvature matrix, the
#: fallback step floors ``|e|`` at this multiple of the median nonzero
#: ``|e|`` in the curvature, so that p(p-1)|e|^(p-2) stays within about
#: CURVATURE_FLOOR^(p-2) of its median.
CURVATURE_FLOOR = 1e-6


@dataclass(frozen=True)
class Dataset:
    """Responses ``y`` (length n) and covariates ``x`` (n rows, q columns)."""

    y: np.ndarray
    x: np.ndarray
    _design: np.ndarray = field(init=False, repr=False, compare=False)
    _start: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

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
        design = np.column_stack([np.ones(y.shape[0]), x])
        design.flags.writeable = False
        object.__setattr__(self, "_design", design)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def q(self) -> int:
        return self.x.shape[1]

    def design_matrix(self) -> np.ndarray:
        """Augmented design with a leading column of ones.

        Built once per dataset and read-only: solvers call this on every
        Newton step, and an in-place write would corrupt every later fit.
        """
        return self._design

    def _least_squares_start(self) -> np.ndarray:
        """The unit-weight least-squares beta, where every M-fit starts.

        Solved on first use and kept, read-only: the first-step, parametric
        and oracle fits of one sample all start there.
        """
        if self._start is None:
            beta = fit_wls(self, np.ones(self.n)).beta
            beta.flags.writeable = False
            object.__setattr__(self, "_start", beta)
        return self._start


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus solver diagnostics.

    ``beta`` holds the intercept first.  ``iterations`` is 0 for the closed
    form.
    """

    beta: np.ndarray
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


def median(values: np.ndarray):
    """``np.median`` of a nonempty 1-D float array, bit for bit.

    The partition is ``np.median``'s own (its kth list, so tied ±0 sit
    where it puts them, and a NaN last, which is then the result); the
    median is the middle order statistic, or the two middle ones added and
    halved.  ``np.median`` is not called because its NaN check reads
    ``np.ma``, which imports ``numpy.ma`` (about 13 ms and 1.3 MB) into a
    process that uses nothing else of it.  An empty array is an error here,
    not ``np.median``'s NaN; no caller passes one: weights have a row each,
    and where the solver falls back some residual is nonzero (all-zero
    residuals make the estimating equation zero, so the solver stops first).
    """
    n = values.shape[0]
    lo, hi = (n - 1) // 2, n // 2
    part = np.partition(values, [lo, -1] if lo == hi else [lo, hi, -1])
    if np.isnan(part[-1]):
        return part[-1]
    # np.mean's arithmetic: one sum from +0.0 (so a -0 median is +0), one division
    return np.add.reduce(part[lo:hi + 1]) / (hi + 1 - lo)


def _rcond(mat: np.ndarray) -> float:
    """Reciprocal 2-norm condition number of ``mat``, 0 when it is singular.

    The arithmetic of ``1 / np.linalg.cond(mat)`` without its wrapper: the
    same singular values and the same two divisions.  A matrix with a
    non-finite entry (an infinite power-loss curvature at a zero residual,
    or inf * 0 = NaN where that row's covariate is 0) counts as singular
    and gives 0 before the SVD, whose LAPACK routine would print an error
    on stdout; so does a matrix whose SVD fails.
    """
    if not np.isfinite(mat).all():
        return 0.0
    try:
        s = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError:
        return 0.0
    s_max, s_min = float(s[0]), float(s[-1])
    cond = s_max / s_min if s_min > 0 else math.inf
    return 1.0 / cond if math.isfinite(cond) else 0.0


def _singular(what: str, rcond: float,
              error: type[Exception] = DegenerateDesignError) -> Exception:
    """The ``error`` for a matrix ``what`` of reciprocal condition ``rcond``."""
    return error(f"{what} is numerically singular (reciprocal condition estimate "
                 f"{rcond:.3e} < {RCOND_MIN:g})")


def _solve_spd(mat: np.ndarray, rhs: np.ndarray, what: str,
               error: type[Exception] = DegenerateDesignError) -> np.ndarray:
    """Solve a small symmetric system; raise ``error`` when it is near-singular.

    The one checked solve of the estimator layer.  The Newton step solves
    unchecked: there a singular Hessian selects the fallback step, not an
    error.
    """
    rcond = _rcond(mat)
    if rcond < RCOND_MIN:
        raise _singular(what, rcond, error)
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
        iterations=0,
        converged=True,
        gradient_norm=float(np.max(np.abs(grad))),
    )


def estimating_equation(data: Dataset, loss: LossFunction, weights, beta) -> np.ndarray:
    """The Z-map ``n^-1 sum_i w_i rho'(|e_i|) sign(e_i) x~_i`` at ``beta``."""
    w = np.asarray(weights, dtype=float)
    beta = np.asarray(beta, dtype=float)
    xt = data.design_matrix()
    e, abs_e = _residuals(data, xt, beta)
    return _z_map(data, loss, w, xt, e, abs_e)


def _residuals(data: Dataset, xt, beta) -> tuple[np.ndarray, np.ndarray]:
    """Residuals ``e`` at ``beta`` and their moduli ``|e|``."""
    e = data.y - xt @ beta
    return e, np.abs(e)


def _z_map(data: Dataset, loss: LossFunction, w, xt, e, abs_e) -> np.ndarray:
    """The Z-map from residuals ``e`` and ``abs_e = |e|``.

    The loss kernel takes ``abs_e`` unchecked: it is nonnegative by
    construction.
    """
    score = loss._rho_prime(abs_e) * np.sign(e)
    return xt.T @ (w * score) / data.n


def _objective(loss: LossFunction, w, abs_e) -> float:
    """The weighted objective ``n^-1 sum_i w_i rho(|e_i|)`` from ``|e|``."""
    # np.mean's arithmetic (one pairwise sum, one division) without its wrapper
    return float(np.add.reduce(w * loss._rho(abs_e)) / abs_e.shape[0])


def _fallback_step(data: Dataset, loss: LossFunction, w, xt, abs_e, grad):
    """``(step, rcond)`` of the working matrix that stands in for a singular Hessian.

    The matrix is :func:`fit_weighted_m`'s fallback rule, solved against the
    estimating equation ``grad``; ``step`` is None where its reciprocal
    condition estimate ``rcond`` is below ``RCOND_MIN``.
    """
    if loss.family == "power" and loss.exponent < 2.0:
        floor = CURVATURE_FLOOR * float(median(abs_e[abs_e > 0]))
        curv = loss._rho_second(np.maximum(abs_e, floor))
    else:
        nz = abs_e > 0
        curv = np.full_like(abs_e, float(loss._rho_second(np.asarray(0.0))))
        curv[nz] = loss._rho_prime(abs_e[nz]) / abs_e[nz]
    hess = (xt * (w * curv)[:, None]).T @ xt / data.n
    rcond = _rcond(hess)
    return (np.linalg.solve(hess, grad) if rcond >= RCOND_MIN else None), rcond


def fit_weighted_m(data: Dataset, loss: LossFunction, weights) -> FitResult:
    """Weighted M-estimate ``argmin sum_i rho(|y_i - b1 - b2'x_i|) w_i``.

    The solver is damped Newton on the estimating equation with step-halving
    on the weighted objective.  It starts at the unweighted square-loss fit.
    Convergence means the max-norm of the estimating equation is at most
    ``TOL``; a fit that reaches ``MAX_ITER`` iterations is returned with
    ``converged=False`` and its final gradient norm, never silently.

    Where the curvature matrix is singular (every residual beyond a Huber
    cutoff; curvatures p(p-1)|e|^(p-2) of a power loss with 1 < p < 2 that
    blow up at near-zero residuals; or a NaN from such a curvature of inf at
    an exact zero residual times a zero covariate, whose invalid-value
    warning is silenced once per call), one working matrix is solved
    against the estimating equation instead, and step halving on the
    objective accepts that step.  Every loss tests the curvature matrix's
    reciprocal condition against ``RCOND_MIN`` at the start; every loss
    but a power loss with 1 < p < 2 tests it at every iteration.  Past the
    start such a power loss takes the Newton step wherever the matrix is
    finite and LAPACK solves it to a finite step: the start's test has
    certified the rank of the weighted design, and every later curvature
    is positive and finite, so a tiny reciprocal condition there is one
    huge curvature at a near-zero residual, whose residual the Newton step
    rightly barely moves, and not a null space.  The fallback serves such
    a loss only at the start, at an exact zero residual (a non-finite
    matrix) and where LAPACK rejects the matrix or the step overflows.
    The fallback's curvature is
    rho''(max(|e|, ``CURVATURE_FLOOR`` times the median nonzero |e|)) for
    power losses with 1 < p < 2, floored in the curvature only (not in the
    estimating equation or the objective), and the IRLS weight
    rho'(|e|)/|e| for every other loss, rho''(0) at an exact zero.  Where
    that matrix is singular too, the start raises
    :class:`DegenerateDesignError` and a later iterate is returned where it
    stands.  ``converged=False`` thus also covers a fit whose certificate
    lies out of floating-point reach near such a residual: it returns a
    finite beta.

    Power losses rho = |e|^p with 1 < p < 2 weigh each full Newton step
    against its IRLS point.  Since rho'(e)/e = rho''(e)/(p-1), the IRLS
    working matrix is the Hessian over p - 1, and the IRLS point of a
    Newton step ``delta`` is ``beta + (p-1) delta``: on one dominant term
    Newton maps a residual e to e (p-2)/(p-1), its mirror image at p = 1.5,
    while the IRLS point maps it to 0.  Where the objective still falls
    along ``delta`` at the full step (the estimating equation there has a
    nonnegative inner product with ``delta``; it is minus the objective's
    gradient), convexity puts every point behind the full step, the IRLS
    point among them, no lower, and nothing more is evaluated.  Elsewhere
    the IRLS point is taken when its objective is lower by more than the
    relative margin ``IRLS_MARGIN``, so that rounding-level differences,
    which follow the row order, never choose.  After a damped Newton step
    of any loss the IRLS point is tried too; other losses take it from the
    fallback step's working matrix.

    Each point the solver visits is evaluated once: its estimating equation
    at most once, and its residuals ``e`` and ``|e|`` once per iteration
    that uses them.  An accepted full Newton step hands its residuals,
    ``|e|`` and estimating equation to the next iteration; a damped or IRLS
    point hands on none, so fewer n-vectors stay alive.  The loss kernels
    take ``|e|`` unchecked, since it is nonnegative by construction.

    With the data, loss and weights fixed, one iteration is a pure function
    of the iterate's bits, apart from the start.  The start may raise where
    a later iterate would be stepped past, but it is never met again: its
    repeat stops the loop first.  A power loss with 1 < p < 2 whose start
    took the fallback step would take the Newton step at a later visit, so
    that start anchors no cycle.  An iterate met a second time therefore starts a
    cycle the solver would repeat until the cap: first seen at iteration j
    and met again at iteration k, it recurs with period ``k - j``.  The
    solver stops there and returns the iterate the full run would end on,
    ``history[j + (MAX_ITER - j) % (k - j)]``, with that iterate's
    certificate.  This happens where ``TOL`` is out of reach of the
    rounding of the estimating equation, as with power losses near a zero
    residual.  ``iterations`` counts the Newton-map iterations that the
    returned ``beta`` stands for, so such a fit reports ``MAX_ITER``.

    Parameters
    ----------
    data : Dataset
    loss : LossFunction
    weights : array_like
        n nonnegative reals.
    """
    w = _check_weights(data, weights)
    return _m_solve(data, loss, w, data._least_squares_start().copy(), MAX_ITER)


@np.errstate(invalid="ignore")
def _m_solve(data: Dataset, loss: LossFunction, w, beta, max_iter: int) -> FitResult:
    """The solver loop of :func:`fit_weighted_m` from ``beta``, at most ``max_iter`` steps."""
    xt = data.design_matrix()
    # power losses with 1 < p < 2: the IRLS point of a Newton step is known
    sub_quadratic = loss.family == "power" and loss.exponent < 2.0
    # iterate bytes -> first iteration index; history[j] = (iterate, its grad).
    # Bytes, not values: +0 and -0 differ in bits, and NaN equals itself.
    seen: dict[bytes, int] = {}
    history: list[tuple[np.ndarray, np.ndarray]] = []
    # residuals, |e| and estimating equation at beta, when already evaluated
    e = abs_e = grad = None
    iterations = 0
    for k in range(max_iter):
        j = seen.setdefault(beta.tobytes(), k)
        if j < k:
            beta, grad = history[j + (max_iter - j) % (k - j)]
            iterations = max_iter
            break
        if e is None:
            e, abs_e = _residuals(data, xt, beta)
        if grad is None:
            grad = _z_map(data, loss, w, xt, e, abs_e)
        history.append((beta, grad))
        gnorm = np.abs(grad).max()
        if gnorm <= TOL:
            break
        curv = w * loss._rho_second(abs_e)
        hess = (xt * curv[:, None]).T @ xt / data.n
        step = None
        if sub_quadratic and k:
            # no rcond test past the start: the start's test certified the
            # design's rank, so a tiny rcond here is one huge curvature at a
            # near-zero residual, not a null space
            if np.isfinite(hess).all():
                try:
                    step = np.linalg.solve(hess, grad)
                except np.linalg.LinAlgError:
                    pass
            if step is not None and not np.isfinite(step).all():
                step = None
        elif _rcond(hess) >= RCOND_MIN:
            step = np.linalg.solve(hess, grad)
        newton_ok = step is not None
        if not newton_ok:
            if sub_quadratic and not k:
                # a later visit to the start may take the Newton step that
                # the start's test refused, so its repeat is no cycle
                seen.clear()
            step, rcond = _fallback_step(data, loss, w, xt, abs_e, grad)
            if step is None:
                # singular too: only at the start is that an error
                if not k:
                    raise _singular("IRLS working moment matrix", rcond)
                iterations += 1
                break
        # the full step is also the first halving trial (beta + 1.0 * step
        # has the bits of beta + step), so it is evaluated once for both
        t = 1.0
        trial = beta + step
        e_trial, abs_trial = _residuals(data, xt, trial)
        trial_grad = irls_point = full_value = None
        candidate = None  # (point, e, |e|, grad), None where not kept
        if newton_ok:
            trial_grad = _z_map(data, loss, w, xt, e_trial, abs_trial)
            if sub_quadratic and trial_grad @ step < 0:
                # the objective rises along step at the full step (its
                # gradient is minus the Z-map), as where Newton maps a
                # dominant residual e to e (p-2)/(p-1), its mirror image at
                # p = 1.5.  Elsewhere it still falls there, and by convexity
                # no point behind the full step is lower.  Only the IRLS
                # point's objective is kept, not its n-vectors
                irls_point = beta + (loss.exponent - 1.0) * step
                irls_value = _objective(loss, w, _residuals(data, xt, irls_point)[1])
                full_value = _objective(loss, w, abs_trial)
                if irls_value < full_value - IRLS_MARGIN * full_value:
                    candidate = (irls_point, None, None, None)
                    e_trial = abs_trial = trial_grad = None
            # near the solution the objective sits on its roundoff plateau
            # and cannot discriminate; a full Newton step that shrinks the
            # Z-residual is accepted outright (convex objective)
            if candidate is None and np.abs(trial_grad).max() < gnorm:
                candidate = (trial, e_trial, abs_trial, trial_grad)
        if candidate is None:
            # step halving on the weighted objective.  A damped trial keeps
            # no residuals: the next iteration recomputes them, so no more
            # n-vectors than one point's stay alive through the IRLS point
            current = _objective(loss, w, abs_e)
            for halving in range(40):
                if halving:
                    t *= 0.5
                    trial = beta + t * step
                    e_trial = abs_trial = trial_grad = None
                    value = _objective(loss, w, _residuals(data, xt, trial)[1])
                elif full_value is not None:
                    value = full_value
                else:
                    value = _objective(loss, w, abs_trial)
                if value <= current:
                    candidate = (trial, e_trial, abs_trial, trial_grad)
                    break
        if newton_ok and t < 1.0:
            # a damped Newton step means the local quadratic model is poor
            # (curvature spikes near zero residuals for power losses); the
            # IRLS point is often better there.  t < 1 means the candidate,
            # if any, is the accepted halving trial, of objective ``value``
            if irls_point is None:
                irls_step = ((loss.exponent - 1.0) * step if sub_quadratic
                             else _fallback_step(data, loss, w, xt, abs_e, grad)[0])
                if irls_step is not None:
                    irls_point = beta + irls_step
                    irls_value = _objective(loss, w, _residuals(data, xt, irls_point)[1])
            if irls_point is not None:
                floor = value if candidate is not None else current
                if irls_value <= floor:
                    candidate = (irls_point, None, None, None)
        iterations += 1
        if candidate is None:
            break
        beta, e, abs_e, grad = candidate

    if grad is None:
        grad = estimating_equation(data, loss, w, beta)
    gnorm = float(np.abs(grad).max())
    return FitResult(
        beta=beta,
        iterations=iterations,
        converged=bool(gnorm <= TOL),
        gradient_norm=gnorm,
    )


@np.errstate(invalid="ignore")
def sandwich_covariance(data: Dataset, loss: LossFunction, weights, beta) -> np.ndarray:
    """Plug-in covariance of the fitted coefficients.

    ``beta`` should be a fitted value (small estimating-equation residual).
    The output is symmetric positive semi-definite and invariant to
    rescaling all weights by a common factor.

    Raises
    ------
    DegenerateCurvatureError
        If the curvature matrix C is singular, e.g. a Huber fit with every
        residual beyond the cutoff, or a NaN in C from a power curvature of
        inf times a zero covariate (numpy's invalid-value warning for it is
        silenced).
    NumericalError
        If the covariance is not finite (a squared score or weight overflowed).
    """
    w = _check_weights(data, weights)
    beta = np.asarray(beta, dtype=float)
    xt = data.design_matrix()
    e = data.y - xt @ beta
    c_mat = (xt * (w * loss.g2(e))[:, None]).T @ xt / data.n
    m_mat = (xt * (w**2 * loss.g1(e))[:, None]).T @ xt / data.n
    c_inv = _solve_spd(c_mat, np.eye(1 + data.q), "curvature matrix", DegenerateCurvatureError)
    cov = c_inv @ m_mat @ c_inv / data.n
    if not np.all(np.isfinite(cov)):
        raise NumericalError("the sandwich covariance is not finite; a squared "
                             "score or a squared weight overflowed")
    return 0.5 * (cov + cov.T)
