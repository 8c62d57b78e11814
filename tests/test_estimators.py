import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaweight import estimators as est
from adaweight import (
    Dataset,
    DataError,
    DegenerateCurvatureError,
    DegenerateDesignError,
    LossFunction,
    NumericalError,
    estimating_equation,
    fit_weighted_m,
    fit_wls,
    sandwich_covariance,
)
from adaweight.simulation import (SimConfig, generate_sample, inverse_variance_map,
                                  replication_rng, run_replication)
from adaweight.weights import oracle_weights

SQUARE = LossFunction.square()
NON_SQUARE = {
    "huber:1.345": LossFunction.huber(1.345),
    "power:1.5": LossFunction.power(1.5),
    "power:1.2": LossFunction.power(1.2),
}


def random_instance(rng, n=50, q=3):
    x = rng.normal(size=(n, q))
    beta = rng.normal(size=1 + q)
    y = beta[0] + x @ beta[1:] + rng.normal(size=n)
    w = rng.uniform(0.1, 2.0, size=n)
    return Dataset(y=y, x=x), w


class TestDataset:
    def test_shapes(self):
        d = Dataset(y=np.arange(5.0), x=np.ones((5, 2)))
        assert d.n == 5 and d.q == 2
        assert d.design_matrix().shape == (5, 3)
        assert np.all(d.design_matrix()[:, 0] == 1.0)

    def test_design_matrix_built_once_and_read_only(self):
        d = Dataset(y=np.arange(4.0), x=np.arange(8.0).reshape(4, 2))
        xt = d.design_matrix()
        assert xt is d.design_matrix()
        assert xt.flags.c_contiguous and not xt.flags.writeable
        assert np.array_equal(xt, np.column_stack([np.ones(4), d.x]))
        with pytest.raises(ValueError):
            xt[0, 0] = 2.0

    def test_1d_covariates_promoted(self):
        d = Dataset(y=np.arange(3.0), x=np.arange(3.0))
        assert d.q == 1

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([0.0, np.nan, 1.0]), x=np.ones((3, 1)))

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, 2.0]), x=np.ones((2, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(y=np.arange(4.0), x=np.ones((5, 1)))


class TestFitWls:
    def test_two_point_interpolation(self):
        # any positive weights: a line through two points is exact
        d = Dataset(y=np.array([0.0, 1.0]), x=np.array([[0.0], [1.0]]))
        fit = fit_wls(d, np.array([5.0, 0.1]))
        assert np.allclose(fit.beta, [0.0, 1.0], atol=1e-12)
        assert fit.iterations == 0 and fit.converged

    def test_three_point_unit_weights(self):
        # normal equations by hand: Sigma=((3,3),(3,5)), gamma=(1,1)
        d = Dataset(y=np.array([0.0, 1.0, 0.0]), x=np.array([[0.0], [1.0], [2.0]]))
        fit = fit_wls(d, np.ones(3))
        assert np.allclose(fit.beta, [1.0 / 3.0, 0.0], atol=1e-10)

    def test_three_point_midpoint_weighted(self):
        # Sigma=((4,4),(4,6)), gamma=(2,2)
        d = Dataset(y=np.array([0.0, 1.0, 0.0]), x=np.array([[0.0], [1.0], [2.0]]))
        fit = fit_wls(d, np.array([1.0, 2.0, 1.0]))
        assert np.allclose(fit.beta, [0.5, 0.0], atol=1e-10)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d, w = random_instance(rng)
            scale = rng.uniform(0.01, 100.0)
            b1 = fit_wls(d, w).beta
            b2 = fit_wls(d, scale * w).beta
            assert np.max(np.abs(b1 - b2)) <= 1e-10

    def test_exact_interpolation_random(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n, q = 20, 2
            x = rng.normal(size=(n, q))
            beta = rng.normal(size=1 + q)
            y = beta[0] + x @ beta[1:]
            w = rng.uniform(0.1, 3.0, size=n)
            fit = fit_wls(Dataset(y=y, x=x), w)
            assert np.max(np.abs(fit.beta - beta)) <= 1e-10

    def test_affine_equivariance(self):
        rng = np.random.default_rng(13)
        d, w = random_instance(rng)
        a, b = 2.5, rng.normal(size=d.q)
        shifted = Dataset(y=a + d.y + d.x @ b, x=d.x)
        base = fit_wls(d, w).beta
        moved = fit_wls(shifted, w).beta
        expected = base + np.concatenate([[a], b])
        assert np.max(np.abs(moved - expected)) <= 1e-9

    def test_degenerate_design_raises(self):
        # all the weight mass on a single point cannot identify two coefficients
        d = Dataset(y=np.array([0.0, 1.0, 2.0]), x=np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(DegenerateDesignError, match="condition"):
            fit_wls(d, np.array([1.0, 0.0, 0.0]))

    def test_bad_weights_rejected(self):
        d = Dataset(y=np.array([0.0, 1.0, 2.0]), x=np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(DataError):
            fit_wls(d, np.array([1.0, 1.0]))
        with pytest.raises(DataError):
            fit_wls(d, np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DataError):
            fit_wls(d, np.zeros(3))


class TestFitWeightedM:
    def test_square_loss_matches_wls(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(100):
            d, w = random_instance(rng, n=50, q=3)
            gap = np.max(np.abs(fit_weighted_m(d, SQUARE, w).beta - fit_wls(d, w).beta))
            worst = max(worst, gap)
        assert worst <= 1e-8

    def test_huber_interpolation(self):
        d = Dataset(y=np.array([0.0, 1.0]), x=np.array([[0.0], [1.0]]))
        fit = fit_weighted_m(d, LossFunction.huber(10.0), np.ones(2))
        assert np.allclose(fit.beta, [0.0, 1.0], atol=1e-10)
        assert fit.converged

    def test_huber_all_inside_quadratic_region(self):
        # residuals all below the cutoff: identical Z-equation zero as square
        rng = np.random.default_rng(22)
        d, w = random_instance(rng, n=40, q=2)
        wls = fit_wls(d, w)
        resid = d.y - d.design_matrix() @ wls.beta
        cutoff = 2.0 * np.max(np.abs(resid))
        fit = fit_weighted_m(d, LossFunction.huber(cutoff), w)
        assert np.max(np.abs(fit.beta - wls.beta)) <= 1e-8

    def test_huber_huge_cutoff_close_to_square(self):
        rng = np.random.default_rng(23)
        d, w = random_instance(rng, n=60, q=3)
        gap = np.max(
            np.abs(fit_weighted_m(d, LossFunction.huber(1e6), w).beta - fit_wls(d, w).beta)
        )
        assert gap <= 1e-6

    def test_certificate_recomputed_outside_solver(self):
        rng = np.random.default_rng(24)
        for loss in (SQUARE, LossFunction.huber(0.8), LossFunction.power(1.5)):
            d, w = random_instance(rng, n=80, q=3)
            fit = fit_weighted_m(d, loss, w)
            assert fit.converged
            # direct recomputation, not the solver's value
            xt = d.design_matrix()
            e = d.y - xt @ fit.beta
            score = loss.rho_prime(np.abs(e)) * np.sign(e)
            resid = xt.T @ (w * score) / d.n
            assert np.max(np.abs(resid)) <= 1e-10
            assert np.allclose(resid, estimating_equation(d, loss, w, fit.beta))

    def test_nonconvergence_is_flagged(self):
        rng = np.random.default_rng(25)
        d, w = random_instance(rng, n=30, q=2)
        far = np.full(3, 50.0)
        fit = m_solve(d, LossFunction.huber(0.1), w, init=far, max_iter=1)
        assert not fit.converged
        assert fit.gradient_norm > 1e-10

    def test_robustness_to_outlier(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(60, 1))
        y = 1.0 + 2.0 * x[:, 0] + 0.1 * rng.normal(size=60)
        y[0] += 500.0
        d = Dataset(y=y, x=x)
        huber = fit_weighted_m(d, LossFunction.huber(0.5), np.ones(60)).beta
        square = fit_wls(d, np.ones(60)).beta
        truth = np.array([1.0, 2.0])
        assert np.max(np.abs(huber - truth)) < 0.2
        assert np.max(np.abs(square - truth)) > 1.0

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(27)
        d, w = random_instance(rng)
        b1 = fit_weighted_m(d, LossFunction.huber(1.0), w).beta
        b2 = fit_weighted_m(d, LossFunction.huber(1.0), 37.0 * w).beta
        assert np.max(np.abs(b1 - b2)) <= 1e-8


def reference_fallback_step(data, loss, w, xt, abs_e, grad):
    """``(step, rcond)`` of the working matrix past a singular Hessian.

    Power losses with 1 < p < 2 floor ``|e|`` in the curvature; other losses
    take the IRLS weights rho'(|e|)/|e|, rho''(0) at an exact zero.
    """
    if loss.family == "power" and loss.exponent < 2:
        floor = est.CURVATURE_FLOOR * np.median(abs_e[abs_e != 0])
        curv = w * loss.rho_second(np.maximum(abs_e, floor))
    else:
        nz = abs_e != 0
        ratio = np.full(data.n, loss.rho_second(0.0))
        ratio[nz] = loss.rho_prime(abs_e[nz]) / abs_e[nz]
        curv = w * ratio
    hess = (xt * curv[:, None]).T @ xt / data.n
    cond = np.linalg.cond(hess)
    rcond = 1.0 / cond if np.isfinite(cond) else 0.0
    return (np.linalg.solve(hess, grad) if rcond >= est.RCOND_MIN else None), rcond


def reference_fit_weighted_m(data, loss, weights, *, tol=1e-10, max_iter=100,
                             init=None, iterates=None, fallback=None,
                             rcond_past_start=False):
    """The solver loop with no repeat stop and no reuse of evaluated points.

    Every iteration recomputes everything from its starting point.  When
    ``iterates`` is a list it receives every iterate, the returned one last.
    ``fallback`` replaces :func:`reference_fallback_step`.  Power losses with
    1 < p < 2 test the curvature matrix's reciprocal condition at the start
    only; ``rcond_past_start`` tests it at every iteration, as the solver
    did before it took the Newton step through ill-conditioned curvature.
    """
    fallback = fallback or reference_fallback_step
    w = est._check_weights(data, weights)
    xt = data.design_matrix()
    if init is None:
        beta = fit_wls(data, np.ones(data.n)).beta.copy()
    else:
        beta = np.asarray(init, dtype=float).copy()
    sub_quadratic = loss.family == "power" and loss.exponent < 2

    def objective(point):
        return est._objective(loss, w, np.abs(data.y - xt @ point))

    iterations = 0
    for k in range(max_iter):
        if iterates is not None:
            iterates.append(beta)
        e = data.y - xt @ beta
        score = loss.rho_prime(np.abs(e)) * np.sign(e)
        grad = xt.T @ (w * score) / data.n
        if np.max(np.abs(grad)) <= tol:
            break
        curv = w * loss.rho_second(np.abs(e))
        hess = (xt * curv[:, None]).T @ xt / data.n
        step = None
        if sub_quadratic and k > 0 and not rcond_past_start:
            # past the start: any finite matrix that LAPACK solves to a finite step
            if np.all(np.isfinite(hess)):
                try:
                    step = np.linalg.solve(hess, grad)
                except np.linalg.LinAlgError:
                    step = None
                if step is not None and not np.all(np.isfinite(step)):
                    step = None
        else:
            cond = np.linalg.cond(hess)
            if np.isfinite(cond) and 1.0 / cond >= est.RCOND_MIN:
                step = np.linalg.solve(hess, grad)
        newton_ok = step is not None
        if not newton_ok:
            step, rcond = fallback(data, loss, w, xt, np.abs(e), grad)
            if step is None and k == 0:
                raise DegenerateDesignError(
                    "IRLS working moment matrix is numerically singular (reciprocal "
                    f"condition estimate {rcond:.3e} < {est.RCOND_MIN:g})")
            if step is None:
                iterations += 1
                break
        candidate = irls_point = None
        t = 1.0
        if newton_ok:
            full = beta + step
            full_grad = estimating_equation(data, loss, w, full)
            if sub_quadratic and full_grad @ step < 0:
                # the objective rises along step at the full step: the IRLS
                # point replaces the full step where it beats it by the margin
                irls_point = beta + (loss.exponent - 1.0) * step
                full_value = objective(full)
                if objective(irls_point) < full_value - est.IRLS_MARGIN * full_value:
                    candidate = irls_point
            if candidate is None and np.max(np.abs(full_grad)) < np.max(np.abs(grad)):
                candidate = full
        if candidate is None:
            current = objective(beta)
            for _ in range(40):
                trial = beta + t * step
                if objective(trial) <= current:
                    candidate = trial
                    break
                t *= 0.5
        if newton_ok and t < 1.0:
            if irls_point is None and sub_quadratic:
                irls_point = beta + (loss.exponent - 1.0) * step
            elif irls_point is None:
                irls_step = fallback(data, loss, w, xt, np.abs(e), grad)[0]
                if irls_step is not None:
                    irls_point = beta + irls_step
            if irls_point is not None:
                floor = objective(candidate) if candidate is not None else current
                if objective(irls_point) <= floor:
                    candidate = irls_point
        iterations += 1
        if candidate is None:
            break
        beta = candidate

    if iterates is not None:
        iterates.append(beta)
    final = estimating_equation(data, loss, w, beta)
    gnorm = float(np.max(np.abs(final)))
    return est.FitResult(beta=beta, iterations=iterations,
                         converged=bool(gnorm <= tol), gradient_norm=gnorm)


def m_solve(data, loss, weights, *, init=None, max_iter=est.MAX_ITER):
    """The solver loop from ``init``, or from the start :func:`fit_weighted_m` uses."""
    beta = fit_wls(data, np.ones(data.n)).beta if init is None else np.asarray(init, dtype=float)
    return est._m_solve(data, loss, est._check_weights(data, weights), beta, max_iter)


def outcome(solver, *args, **kwargs):
    """Everything a fit returns, as bits, or the error it raised."""
    try:
        fit = solver(*args, **kwargs)
    except DegenerateDesignError as exc:
        return "raised", str(exc)
    return fit.beta.tobytes(), fit.gradient_norm.hex(), fit.converged, fit.iterations


def curvature_conditions(data, loss, w, iterates):
    """``(rcond, finite)`` of the curvature matrix at each of ``iterates``."""
    xt = data.design_matrix()
    conditions = []
    for beta in iterates:
        with np.errstate(invalid="ignore"):
            curv = w * loss.rho_second(np.abs(data.y - xt @ beta))
            hess = (xt * curv[:, None]).T @ xt / data.n
        conditions.append((est._rcond(hess), bool(np.all(np.isfinite(hess)))))
    return conditions


def first_repeat(iterates):
    """``(j, period)`` of the first iterate seen twice, or None."""
    seen = {}
    for k, beta in enumerate(iterates):
        j = seen.setdefault(beta.tobytes(), k)
        if j < k:
            return j, k - j
    return None


def oracle_case(r, n=100, q=2, seed=1):
    """An oracle fit input from the smooth-scale design, n = 100 and q = 2 by default."""
    data, beta0 = generate_sample(n, q, "smooth", replication_rng(seed, r))
    family = inverse_variance_map("smooth")
    return data, oracle_weights(lambda x: family(x, beta0), data)


# power:1.2 oracle fits whose Newton map stalls: a fixed point (r = 2) and
# cycles of period 2, 3 and 5 (r = 13, 31, 5); r = 0 converges
STALLED = (2, 13, 31, 5)
MAX_ITERS = [*range(1, 61), 100]


class TestRepeatStop:
    def test_cases_stall_at_a_fixed_point_and_in_a_cycle(self):
        # on the reference loop's own history, so the sweep below cannot
        # go vacuous where another BLAS rounds these fits differently
        periods = set()
        for r in STALLED:
            data, w = oracle_case(r)
            iterates = []
            reference_fit_weighted_m(data, NON_SQUARE["power:1.2"], w, iterates=iterates)
            repeat = first_repeat(iterates[:-1])
            if repeat is not None:
                periods.add(repeat[1])
        assert 1 in periods
        assert max(periods) >= 2

    @pytest.mark.parametrize("r", (0, *STALLED))
    def test_matches_reference_at_every_max_iter(self, r):
        data, w = oracle_case(r)
        loss = NON_SQUARE["power:1.2"]
        for max_iter in MAX_ITERS:
            assert outcome(m_solve, data, loss, w, max_iter=max_iter) == \
                outcome(reference_fit_weighted_m, data, loss, w, max_iter=max_iter), max_iter
        assert outcome(fit_weighted_m, data, loss, w) == \
            outcome(reference_fit_weighted_m, data, loss, w)

    @settings(max_examples=40, deadline=None)
    @given(
        loss=st.sampled_from(sorted(NON_SQUARE)),
        n=st.integers(8, 120),
        q=st.integers(1, 3),
        max_iter=st.sampled_from([0, 1, 2, 7, 30, 100]),
        far_init=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_on_random_instances(self, loss, n, q, max_iter, far_init,
                                                   seed):
        rng = np.random.default_rng(seed)
        data, w = random_instance(rng, n=n, q=q)
        init = rng.normal(scale=20.0, size=1 + q) if far_init else None
        kwargs = dict(max_iter=max_iter, init=init)
        assert outcome(m_solve, data, NON_SQUARE[loss], w, **kwargs) == \
            outcome(reference_fit_weighted_m, data, NON_SQUARE[loss], w, **kwargs)

    def test_start_that_took_the_fallback_anchors_no_cycle(self, monkeypatch):
        # each point of a stalled cycle as the start, with its curvature test
        # made to fail: the fallback step leaves the cycle, and where the
        # path meets the start again the full run takes the Newton step
        data, w = oracle_case(STALLED[1])
        loss = NON_SQUARE["power:1.2"]
        iterates = []
        reference_fit_weighted_m(data, loss, w, iterates=iterates)
        j, period = first_repeat(iterates[:-1])
        rcond = est._rcond
        revisits = 0
        for start in iterates[j:j + period]:
            def solve(max_iter):
                calls = []

                def start_test_fails(mat):
                    calls.append(1)
                    return 0.0 if len(calls) == 1 else rcond(mat)

                monkeypatch.setattr(est, "_rcond", start_test_fails)
                return m_solve(data, loss, w, init=start, max_iter=max_iter)

            after_fallback = solve(1).beta
            assert curvature_conditions(data, loss, w, [after_fallback])[0][0] >= est.RCOND_MIN
            path = []
            reference_fit_weighted_m(data, loss, w, init=after_fallback, iterates=path)
            revisits += any(point.tobytes() == start.tobytes() for point in path)
            for max_iter in MAX_ITERS[1:]:
                fit = solve(max_iter)
                expected = reference_fit_weighted_m(data, loss, w, init=after_fallback,
                                                    max_iter=max_iter - 1)
                assert (fit.beta.tobytes(), fit.gradient_norm, fit.iterations) == \
                    (expected.beta.tobytes(), expected.gradient_norm, expected.iterations + 1)
        assert revisits

    def test_stalled_fit_evaluates_far_less(self, monkeypatch):
        calls = []
        objective = est._objective
        monkeypatch.setattr(est, "_objective", lambda *a: calls.append(1) or objective(*a))
        data, w = oracle_case(STALLED[0])
        loss = NON_SQUARE["power:1.2"]
        fit = fit_weighted_m(data, loss, w)
        solver_calls = len(calls)
        calls.clear()
        reference = reference_fit_weighted_m(data, loss, w)
        assert fit.iterations == reference.iterations == 100
        assert 0 < solver_calls < len(calls) / 3


# integer data and starts, so residuals are exact: the power starts leave row 0
# with a residual of exactly 0 (infinite curvature), and the Huber start puts
# every residual beyond the cutoff (zero curvature)
EXACT_Y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
EXACT_X = np.arange(1.0, 9.0).reshape(-1, 1)
SINGULAR_STARTS = {
    "power:1.2": (LossFunction.power(1.2), [2.0, 1.0]),
    "power:1.5": (LossFunction.power(1.5), [2.0, 1.0]),
    "huber:0.5": (LossFunction.huber(0.5), [100.0, 0.0]),
}


class TestSingularCurvature:
    @pytest.mark.parametrize("case", sorted(SINGULAR_STARTS))
    def test_start_has_singular_curvature(self, case):
        loss, init = SINGULAR_STARTS[case]
        data = Dataset(y=EXACT_Y, x=EXACT_X)
        curv = loss.rho_second(np.abs(data.y - data.design_matrix() @ np.array(init)))
        if loss.family == "power":
            assert np.isinf(curv[0]) and np.all(np.isfinite(curv[1:]))
        else:
            assert np.all(curv == 0.0)

    @pytest.mark.parametrize("case", sorted(SINGULAR_STARTS))
    def test_falls_back_to_irls_like_reference(self, case, monkeypatch):
        loss, init = SINGULAR_STARTS[case]
        data, w = Dataset(y=EXACT_Y, x=EXACT_X), np.ones(8)
        fallback = est._fallback_step
        calls = []
        monkeypatch.setattr(est, "_fallback_step", lambda *a: calls.append(1) or fallback(*a))
        fit = m_solve(data, loss, w, init=init, max_iter=1)
        assert len(calls) == 1 and fit.iterations == 1
        for max_iter in MAX_ITERS:
            assert outcome(m_solve, data, loss, w, init=init, max_iter=max_iter) == \
                outcome(reference_fit_weighted_m, data, loss, w, init=init,
                        max_iter=max_iter), max_iter


class TestRareSolverExits:
    # A singular IRLS matrix beside a nonsingular Hessian needs a near-tie of
    # their condition numbers: for Huber the IRLS matrix is the Hessian plus
    # a PSD term, so a patch makes it singular here.  (Power losses with
    # 1 < p < 2 take their IRLS point from the Newton step, no solve.)
    def test_singular_irls_after_damped_newton_step_is_skipped(self, monkeypatch):
        calls = []

        def singular(*args):
            calls.append(1)
            return None, 0.0

        monkeypatch.setattr(est, "_fallback_step", singular)
        data, w = oracle_case(1)
        loss, init = NON_SQUARE["huber:1.345"], [5.0, -5.0, 5.0]
        fit = m_solve(data, loss, w, init=init)
        # past a singular Hessian the fit would have stopped short of the
        # certificate, so every call came after a damped Newton step
        assert calls and fit.converged
        assert outcome(m_solve, data, loss, w, init=init) == \
            outcome(reference_fit_weighted_m, data, loss, w, init=init, fallback=singular)

    # huber:0.001 leaves at most one residual within its cutoff in several
    # iterates, the start among them, so the fallback step runs at the start
    # and mid-solve; past the start a singular working matrix stops the fit
    def test_singular_fallback_after_the_start_stops_where_it_stands(self, monkeypatch):
        fallback = est._fallback_step

        def singular_after_start(calls):
            def patched(*args):
                calls.append(1)
                return fallback(*args) if len(calls) == 1 else (None, 0.0)
            return patched

        calls = []
        monkeypatch.setattr(est, "_fallback_step", singular_after_start(calls))
        data, loss = Dataset(y=EXACT_Y, x=EXACT_X), LossFunction.huber(0.001)
        fit = fit_weighted_m(data, loss, np.ones(8))
        assert len(calls) == 2 and fit.iterations >= 2
        assert not fit.converged and np.all(np.isfinite(fit.beta))
        assert outcome(lambda: fit) == outcome(
            reference_fit_weighted_m, data, loss, np.ones(8), fallback=singular_after_start([]))

    # No trial point passes the descent test, which a NaN objective forces:
    # the solver stops where it stands after one iteration
    def test_no_descent_stops_at_the_start(self, monkeypatch):
        monkeypatch.setattr(est, "_objective", lambda *args: math.nan)
        loss, init = SINGULAR_STARTS["huber:0.5"]
        data, w = Dataset(y=EXACT_Y, x=EXACT_X), np.ones(8)
        fit = m_solve(data, loss, w, init=init)
        assert fit.iterations == 1 and fit.beta.tobytes() == np.array(init).tobytes()
        for max_iter in (1, 2, 100):
            assert outcome(m_solve, data, loss, w, init=init, max_iter=max_iter) == \
                outcome(reference_fit_weighted_m, data, loss, w, init=init, max_iter=max_iter)


class TestZeroCovariateAtZeroResidual:
    # x = 0 in the row whose residual is exactly 0: the power curvature inf
    # meets the covariate 0 and puts a NaN in the curvature matrix, whose
    # condition check then reads as singular
    def test_fit_falls_back_and_sandwich_is_degenerate(self, monkeypatch):
        data = Dataset(y=EXACT_Y, x=EXACT_X - 1.0)
        loss, w, init = NON_SQUARE["power:1.2"], np.ones(8), np.array([3.0, 1.0])
        xt = data.design_matrix()
        fallback = est._fallback_step
        calls = []
        monkeypatch.setattr(est, "_fallback_step", lambda *a: calls.append(1) or fallback(*a))
        with np.errstate(invalid="ignore"):
            curv = loss.rho_second(np.abs(data.y - xt @ init))
            assert np.isnan((xt * curv[:, None]).T @ xt).any()
            fit = m_solve(data, loss, w, init=init)
            with pytest.raises(DegenerateCurvatureError):
                sandwich_covariance(data, loss, w, init)
        assert calls and fit.converged and np.all(np.isfinite(fit.beta))


    def test_power_fit_on_zero_residual_rows_reaches_the_root(self):
        # the rows of the CLI tests' zero-residual CSV: the start leaves the
        # row with x1 = 0 at a residual of exactly 0, and the floored
        # curvature there steps onto the interpolating root (intercept 1)
        data = Dataset(y=np.array([0.0, 2.0, 1.0, 0.0, 2.0, 3.0, -1.0]),
                       x=np.array([-3.0, -1.0, 0.0, 1.0, 3.0, 2.0, -2.0]))
        fit = fit_weighted_m(data, NON_SQUARE["power:1.5"], np.ones(7))
        assert fit.converged and fit.iterations <= 10
        assert fit.beta[0] == 1.0


class TestSinglePointEvaluation:
    # converging fits that take step halving on the way
    @pytest.mark.parametrize("loss, r, init", (("huber:1.345", 0, [5.0, -5.0, 5.0]),
                                               ("power:1.5", 1, None)))
    def test_score_evaluated_once_per_point(self, loss, r, init, monkeypatch):
        data, w = oracle_case(r)
        points = []
        z_map = est._z_map

        def counted(data, loss, w, xt, e, abs_e):
            points.append(e.tobytes())
            return z_map(data, loss, w, xt, e, abs_e)

        def validating(*args):
            raise AssertionError("the solver called a validating loss method")

        monkeypatch.setattr(est, "_z_map", counted)
        for name in ("rho", "rho_prime", "rho_second"):
            monkeypatch.setattr(LossFunction, name, validating)
        fit = m_solve(data, NON_SQUARE[loss], w, init=init)
        assert fit.converged and fit.iterations >= 3
        assert len(points) >= fit.iterations
        assert len(set(points)) == len(points)


class TestSubQuadraticPowerSteps:
    """Power losses with 1 < p < 2: the IRLS point and the floored fallback step."""

    def test_stalled_weighted_fit_reaches_the_root(self):
        # oracle weights up to 2.3e5 times their median: the full-step rule
        # alone leaves this fit at the cap with |Psi_n| near 1.4e3, and the
        # same loop needs 905 iterations to reach the certificate
        data, beta0 = generate_sample(100, 3, "smooth", replication_rng(4, 3))
        family = inverse_variance_map("smooth")
        w = oracle_weights(lambda x: family(x, beta0), data)
        fit = fit_weighted_m(data, NON_SQUARE["power:1.5"], w)
        assert fit.converged and fit.iterations < est.MAX_ITER
        # the full-step loop's beta after 1000 iterations, certificate 2.3e-11
        root = np.array([0.5004440232607461, 0.44211268958558375,
                         0.44434318840368503, 0.4497735445023969])
        assert np.max(np.abs(fit.beta - root)) <= 1e-12 * np.max(np.abs(root))

    def test_dominant_point_lands_on_the_irls_point(self):
        # one weight 1e6 times the others: on its own term Newton maps the
        # residual e to e (p-2)/(p-1) = -e at p = 1.5, the IRLS point to 0
        loss = NON_SQUARE["power:1.5"]
        data = Dataset(y=np.array([0.5, 0.0, 2.5, 1.5, 1.0, 3.0, 5.5, 5.5]),
                       x=np.arange(8.0))
        w = np.ones(8)
        w[3] = 1e6
        xt = data.design_matrix()
        start = fit_wls(data, np.ones(8)).beta
        e = data.y - xt @ start
        hess = (xt * (w * loss.rho_second(np.abs(e)))[:, None]).T @ xt / data.n
        step = np.linalg.solve(hess, estimating_equation(data, loss, w, start))
        full, irls = start + step, start + (loss.exponent - 1.0) * step
        assert (data.y - xt @ full)[3] == pytest.approx(-e[3], rel=1e-4)
        fit = m_solve(data, loss, w, max_iter=1)
        assert np.max(np.abs(fit.beta - irls)) <= 1e-12 * np.max(np.abs(irls))
        assert abs((data.y - xt @ fit.beta)[3]) < 1e-5 * abs(e[3])

    def test_singular_working_matrix_mid_solve_is_stepped_past(self, monkeypatch):
        # the curvature matrix's reciprocal condition falls below RCOND_MIN
        # after the start, where a residual of a heavy-weight point nears 0;
        # the matrix stays finite, so the Newton step goes through it
        data, w = oracle_case(4, n=30, q=1)
        loss = NON_SQUARE["power:1.2"]
        fit = fit_weighted_m(data, loss, w)
        assert not fit.converged
        assert np.all(np.isfinite(fit.beta)) and math.isfinite(fit.gradient_norm)
        iterates = []
        reference = reference_fit_weighted_m(data, loss, w, iterates=iterates)
        assert outcome(lambda: fit) == outcome(lambda: reference)
        assert any(rcond < est.RCOND_MIN and finite
                   for rcond, finite in curvature_conditions(data, loss, w, iterates[1:-1]))
        fallback = est._fallback_step
        calls = []
        monkeypatch.setattr(est, "_fallback_step", lambda *a: calls.append(1) or fallback(*a))
        assert outcome(fit_weighted_m, data, loss, w) == outcome(lambda: fit)
        assert not calls

    def test_ill_conditioned_curvature_takes_the_newton_step(self, monkeypatch):
        # n = 1000: the old rule took the floored fallback step at 90 of the
        # 100 iterates, each undone by about 18 halvings, and ended at
        # |Psi_n| 3.88; the Newton step ends at 1.2e-3 with 66 evaluations
        data, w = oracle_case(4, n=1000, q=3, seed=1000)
        loss = NON_SQUARE["power:1.2"]
        fallback, objective = est._fallback_step, est._objective
        fallbacks, evaluations = [], []
        monkeypatch.setattr(est, "_fallback_step",
                            lambda *a: fallbacks.append(1) or fallback(*a))
        monkeypatch.setattr(est, "_objective", lambda *a: evaluations.append(1) or objective(*a))
        fit = fit_weighted_m(data, loss, w)
        solver_evaluations = len(evaluations)
        assert not fallbacks
        iterates = []
        reference = reference_fit_weighted_m(data, loss, w, iterates=iterates)
        assert outcome(lambda: fit) == outcome(lambda: reference)
        # no fallback ran, so every step from these iterates was a Newton step
        conditions = curvature_conditions(data, loss, w, iterates[:-1])
        assert conditions[0][0] >= est.RCOND_MIN
        assert sum(rcond < est.RCOND_MIN and finite for rcond, finite in conditions) >= 10
        # the old rule never repeats an iterate here, so its solver and the
        # reference loop make the same evaluations (1706 and 1707)
        evaluations.clear()
        old = reference_fit_weighted_m(
            data, loss, w, rcond_past_start=True,
            fallback=lambda *a: fallbacks.append(1) or reference_fallback_step(*a))
        assert len(fallbacks) >= 10 and fit.gradient_norm < old.gradient_norm
        assert 10 * solver_evaluations <= len(evaluations)

    @pytest.mark.parametrize("curvature", ("zero", "infinite", "tiny"))
    def test_fallback_serves_matrices_newton_cannot_use(self, curvature, monkeypatch):
        # the curvature of iteration 1 only is replaced by one that makes
        # LAPACK reject the matrix (all zero), makes the matrix non-finite
        # (an inf, as at an exact zero residual) or makes the step overflow
        # (subnormal curvatures)
        replace = {"zero": np.zeros_like,
                   "infinite": lambda c: np.where(c == c.max(), np.inf, c),
                   "tiny": lambda c: np.full_like(c, 1e-310)}[curvature]
        rho_second, fallback = LossFunction._rho_second, est._fallback_step
        curvatures, fallbacks = [], []

        def patched(self, t):
            curvatures.append(1)
            value = rho_second(self, t)
            return replace(value) if len(curvatures) == 2 else value

        monkeypatch.setattr(LossFunction, "_rho_second", patched)
        monkeypatch.setattr(est, "_fallback_step",
                            lambda *a: fallbacks.append(len(curvatures)) or fallback(*a))
        data, w = oracle_case(0)
        fit = m_solve(data, NON_SQUARE["power:1.2"], w)
        # the fallback step ran on iteration 1's curvature, and only there
        assert fallbacks == [2]
        assert fit.iterations >= 2 and np.all(np.isfinite(fit.beta))

    def test_singular_start_still_raises(self):
        # all the weight on one point: every working matrix is singular
        data = Dataset(y=EXACT_Y, x=EXACT_X)
        w = np.zeros(8)
        w[2] = 1.0
        with pytest.raises(DegenerateDesignError, match="IRLS working moment matrix"):
            fit_weighted_m(data, NON_SQUARE["power:1.2"], w)


#: Ties, signed zeros, subnormals and huge magnitudes for the order-statistic helpers.
ODD_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e300, -1e300, 1.7e308]


class TestBitIdenticalTrims:
    @settings(max_examples=60, deadline=None)
    @given(
        loss=st.sampled_from(["square", *sorted(NON_SQUARE)]),
        data=st.data(),
        n=st.integers(1, 300),
    )
    def test_objective_has_the_bits_of_the_mean(self, loss, data, n):
        loss = SQUARE if loss == "square" else NON_SQUARE[loss]
        w = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)))
        abs_e = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
        assert est._objective(loss, w, abs_e).hex() == float(np.mean(w * loss._rho(abs_e))).hex()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(ODD_FLOATS), st.floats()), min_size=1,
                    max_size=60))
    def test_median_has_the_bits_of_np_median(self, values):
        values = np.array(values)
        with np.errstate(all="ignore"):
            expected = np.median(values)
            got = est.median(values)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_least_squares_start_is_solved_once_and_read_only(self):
        data, _ = random_instance(np.random.default_rng(29))
        start = data._least_squares_start()
        assert start is data._least_squares_start()
        assert start.tobytes() == fit_wls(data, np.ones(data.n)).beta.tobytes()
        assert not start.flags.writeable
        with pytest.raises(ValueError):
            start[0] = 0.0
        # a fit that converges at the start returns a writable copy of it
        fit = fit_weighted_m(data, LossFunction.huber(1e6), np.ones(data.n))
        assert fit.iterations == 0 and fit.beta.tobytes() == start.tobytes()
        assert fit.beta.flags.writeable

    def test_replication_solves_one_unit_weight_start(self, monkeypatch):
        calls = []
        solve = est.fit_wls

        def counted(data, weights):
            if np.all(np.asarray(weights) == 1.0):
                calls.append(1)
            return solve(data, weights)

        monkeypatch.setattr(est, "fit_wls", counted)
        config = SimConfig(n=200, q=2, sigma="smooth", replications=1, seed=1,
                           methods=("first-step", "parametric", "oracle"),
                           loss=NON_SQUARE["power:1.2"])
        outcomes = run_replication(config, 0)
        assert sorted(outcomes) == ["first-step", "oracle", "parametric"]
        assert all(outcome.ok for outcome in outcomes.values())
        assert len(calls) == 1


class TestFitWeightedMInputs:
    def setup_method(self):
        self.data, self.w = random_instance(np.random.default_rng(28), n=30, q=2)

    def test_takes_only_data_loss_and_weights(self):
        assert list(inspect.signature(fit_weighted_m).parameters) == ["data", "loss", "weights"]
        assert (est.TOL, est.MAX_ITER) == (1e-10, 100)

    def test_zero_max_iter_returns_init(self):
        init = np.array([0.5, -1.0, 2.0])
        fit = m_solve(self.data, NON_SQUARE["power:1.5"], self.w, init=init, max_iter=0)
        assert fit.beta.tobytes() == init.tobytes() and fit.iterations == 0
        gnorm = np.max(np.abs(estimating_equation(self.data, NON_SQUARE["power:1.5"], self.w, init)))
        assert fit.gradient_norm == gnorm


class TestSandwichCovariance:
    @pytest.mark.parametrize("loss", (SQUARE, LossFunction.power(1.5)), ids=str)
    def test_overflowing_squared_score_is_numerical_error(self, loss):
        # |e| ~ 1e160: the squared score g1(e) overflows in the meat matrix
        d = Dataset(y=np.array([1e160, -1e160, 2e160, 0.0, 1e159, -3e160]),
                    x=np.arange(6.0).reshape(-1, 1))
        beta = fit_wls(d, np.ones(6)).beta
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="covariance is not finite") as info:
                sandwich_covariance(d, loss, np.ones(6), beta)
        assert type(info.value) is NumericalError

    def test_zero_residuals_give_zero_matrix(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(10, 2))
        beta = np.array([1.0, -2.0, 0.5])
        y = beta[0] + x @ beta[1:]
        d = Dataset(y=y, x=x)
        cov = sandwich_covariance(d, SQUARE, np.ones(10), beta)
        assert np.allclose(cov, 0.0, atol=1e-24)

    def test_matches_classical_hc0_form(self):
        # square loss, unit weights: (X'X)^-1 (sum e_i^2 x x') (X'X)^-1
        x = np.array([[0.1], [0.9], [-0.4], [1.7], [0.3]])
        y = np.array([0.3, 1.4, -0.2, 2.2, 0.9])
        d = Dataset(y=y, x=x)
        fit = fit_wls(d, np.ones(5))
        xt = d.design_matrix()
        e = y - xt @ fit.beta
        a = xt.T @ xt
        b = (xt * (e**2)[:, None]).T @ xt
        expected = np.linalg.inv(a) @ b @ np.linalg.inv(a)
        got = sandwich_covariance(d, SQUARE, np.ones(5), fit.beta)
        assert np.allclose(got, expected, atol=1e-14)

    def test_invariant_to_weight_rescaling(self):
        rng = np.random.default_rng(32)
        d, w = random_instance(rng)
        beta = fit_wls(d, w).beta
        c1 = sandwich_covariance(d, SQUARE, w, beta)
        c2 = sandwich_covariance(d, SQUARE, 10.0 * w, beta)
        assert np.allclose(c1, c2, rtol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            d, w = random_instance(rng, n=40, q=4)
            loss = LossFunction.huber(1.0)
            fit = fit_weighted_m(d, loss, w)
            cov = sandwich_covariance(d, loss, w, fit.beta)
            assert np.max(np.abs(cov - cov.T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10

    def test_degenerate_curvature_raises(self):
        # every residual beyond the Huber cutoff: curvature matrix is zero
        rng = np.random.default_rng(34)
        d, w = random_instance(rng, n=20, q=2)
        beta = np.zeros(3)
        beta_far = beta + 100.0
        with pytest.raises(DegenerateCurvatureError) as info:
            sandwich_covariance(d, LossFunction.huber(1e-3), w, beta_far)
        assert type(info.value) is DegenerateCurvatureError
        assert str(info.value).startswith(
            "curvature matrix is numerically singular (reciprocal condition estimate ")
