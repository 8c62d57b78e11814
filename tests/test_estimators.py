import numpy as np
import pytest

from adaweight import (
    Dataset,
    DataError,
    DegenerateCurvatureError,
    DegenerateDesignError,
    LossFunction,
    estimating_equation,
    fit_weighted_m,
    fit_wls,
    sandwich_covariance,
)

SQUARE = LossFunction.square()


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
        fit = fit_weighted_m(d, LossFunction.huber(0.1), w, init=far, max_iter=1)
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


class TestSandwichCovariance:
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
        with pytest.raises(DegenerateCurvatureError):
            sandwich_covariance(d, LossFunction.huber(1e-3), w, beta_far)
