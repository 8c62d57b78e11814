import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaweight import (
    DataError,
    Dataset,
    DegenerateCurvatureError,
    EpanechnikovKernel,
    IndexDegenerateError,
    LossFunction,
    NumericalError,
    WeightFamilyError,
    clamp_weights,
    cv_bandwidth,
    epsilon_perturbation,
    evaluate_weight_map,
    first_step,
    fit_wls,
    np_weights,
    oracle_weights,
    parametric_weights,
    projector,
    sp_index_weights,
    sp_projected_weights,
    true_beta,
    sigma_values,
    generate_sample,
    replication_rng,
)

from adaweight.weights import (
    BLOCK_ROWS,
    SMOOTHING_FLOOR,
    FirstStepFit,
    _ratio_weights,
    pairwise_sq_dists,
    smoothing_coordinates,
    squared_bandwidth,
    weighted_fit,
    window_sums,
)
from adaweight.bandwidth import _band_terms
from adaweight.estimators import fit_weighted_m
from adaweight import weights as weights_module

SQUARE = LossFunction.square()


#: Responses whose squared first-step residuals overflow (|e| ~ 1e160).
OVERFLOW_Y = np.array([1e160, -1e160, 2e160, 0.0, 1e159, -3e160])


def heteroscedastic_sample(rng, n=120, q=2, kind="disc"):
    beta0 = true_beta(q)
    x = rng.normal(size=(n, q))
    sig = sigma_values(kind, x, beta0[1:])
    y = beta0[0] + x @ beta0[1:] + sig * rng.normal(size=n)
    return Dataset(y=y, x=x), beta0


class TestFirstStep:
    def test_two_point_exact(self):
        d = Dataset(y=np.array([0.0, 1.0]), x=np.array([[0.0], [1.0]]))
        fs = first_step(d, SQUARE)
        assert np.allclose(fs.beta, [0.0, 1.0], atol=1e-12)
        assert np.allclose(fs.residuals, 0.0, atol=1e-12)

    def test_three_point_oracle(self):
        d = Dataset(y=np.array([0.0, 1.0, 0.0]), x=np.array([[0.0], [1.0], [2.0]]))
        fs = first_step(d, SQUARE)
        assert np.allclose(fs.beta, [1.0 / 3.0, 0.0], atol=1e-10)
        assert np.allclose(fs.residuals, [-1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0], atol=1e-10)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(41)
        d, _ = heteroscedastic_sample(rng)
        fs = first_step(d, SQUARE)
        assert abs(np.sum(fs.residuals)) <= 1e-10 * d.n
        assert np.max(np.abs(d.x.T @ fs.residuals)) <= 1e-9

    def test_residual_definition_exact(self):
        rng = np.random.default_rng(42)
        d, _ = heteroscedastic_sample(rng)
        fs = first_step(d, LossFunction.huber(1.0))
        recomputed = d.y - fs.beta[0] - d.x @ fs.beta[1:]
        assert np.array_equal(fs.residuals, recomputed)


class TestWeightedFit:
    @pytest.mark.parametrize("loss", (SQUARE, LossFunction.huber(1.345),
                                      LossFunction.power(1.5), LossFunction.power(1.2)), ids=str)
    def test_bit_identical_to_its_solver(self, loss):
        d, _ = heteroscedastic_sample(np.random.default_rng(43))
        w = np.random.default_rng(44).uniform(0.2, 5.0, size=d.n)
        expected = fit_wls(d, w) if loss == SQUARE else fit_weighted_m(d, loss, w)
        got = weighted_fit(d, loss, w)
        assert got.beta.tobytes() == expected.beta.tobytes()
        assert (got.iterations, got.converged, got.gradient_norm) == \
            (expected.iterations, expected.converged, expected.gradient_norm)


class TestPairwiseSqDists:
    def test_row_block_matches_dense_matrix(self):
        # |a|^2 + |b|^2 - 2 a.b loses bits here and leaves residues on the
        # diagonal; direct differences give the reference's values exactly
        rng = np.random.default_rng(49)
        points = 1.0 + rng.normal(size=(30, 3))
        dense = pairwise_sq_dists(points, points)
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)
        block = pairwise_sq_dists(points[5:12], points)
        assert block.shape == (7, 30)
        direct = np.sum((points[5:12, None, :] - points[None, :, :]) ** 2, axis=-1)
        assert block.tobytes() == direct.tobytes()
        buf = np.full((7, 30), np.nan)
        assert pairwise_sq_dists(points[5:12], points, out=buf) is buf
        assert np.array_equal(buf, block)
        scratch = np.full((7, 30), np.nan)
        assert pairwise_sq_dists(points[5:12], points, out=buf, scratch=scratch) is buf
        assert buf.tobytes() == block.tobytes()

    def test_only_a_squared_difference_that_overflows_gives_inf(self):
        # the squared norms of these points overflow, which the expansion
        # turned into inf - inf = NaN for every pair
        points = np.array([[1e200, 0.0], [-1e200, 0.0], [1e200, 1.0]])
        with np.errstate(over="ignore"):
            d2 = pairwise_sq_dists(points, points)
        inf = np.inf
        assert np.array_equal(d2, [[0.0, inf, 1.0], [inf, 0.0, inf], [1.0, inf, 0.0]])


class TestNpWeights:
    def test_constant_residuals_give_constant_ratio(self):
        # g2/g1 pointwise when both transforms are constant: 2/4 = 0.5
        x = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        d = Dataset(y=np.zeros(6), x=x)
        fs_like = first_step(d, SQUARE)
        fs = type(fs_like)(beta=fs_like.beta, residuals=np.ones(6))
        w = np_weights(d, SQUARE, fs, h=0.5)
        assert np.allclose(w, 0.5, atol=1e-12)

    def test_overflowing_squared_score_is_numerical_error(self):
        # square loss: g1 = 4 e^2 overflows at |e| ~ 1e160, so every
        # denominator within h of such a point is inf or inf * 0 = NaN
        d = Dataset(y=OVERFLOW_Y, x=np.arange(6.0).reshape(-1, 1))
        fs = first_step(d, SQUARE)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="denominator is not finite") as info:
                np_weights(d, SQUARE, fs, h=3)
        assert type(info.value) is NumericalError

    @pytest.mark.parametrize("h", [0.5, 5.0, 1e6])
    def test_exact_first_step_fit_is_numerical_error(self, h):
        # every first-step residual is 0, so every squared score is 0 and
        # every denominator vanishes, at any bandwidth
        d = Dataset(y=np.zeros(5), x=np.array([0.0, 1.0, 2.0, 3.0, 5.0]))
        fs = first_step(d, SQUARE)
        with pytest.raises(NumericalError, match="fits the data exactly") as info:
            np_weights(d, SQUARE, fs, h=h)
        assert type(info.value) is NumericalError

    def test_every_residual_beyond_huber_cutoff_has_no_curvature(self):
        d = Dataset(y=np.zeros(5), x=np.array([0.0, 1.0, 2.0, 3.0, 5.0]))
        fs_like = first_step(d, SQUARE)
        fs = type(fs_like)(beta=fs_like.beta, residuals=np.array([1.0, -1.0, 2.0, -2.0, 1.5]))
        with pytest.raises(DegenerateCurvatureError, match="every smoothing numerator vanished"):
            np_weights(d, LossFunction.huber(0.5), fs, h=2.0)

    def test_infinite_numerator_is_named_before_vanished_denominator(self):
        # power 1.5 at zero residuals: g2 = inf and g1 = 0 everywhere
        d = Dataset(y=np.zeros(5), x=np.array([0.0, 1.0, 2.0, 3.0, 5.0]))
        loss = LossFunction.power(1.5)
        fs = first_step(d, loss)
        with pytest.raises(DegenerateCurvatureError, match="numerator is not finite"):
            np_weights(d, loss, fs, h=1.0)

    def test_isolated_point_reduces_to_pointwise_ratio(self):
        # window so small that only the self term contributes
        x = np.array([[0.0], [10.0], [20.0], [30.0]])
        d = Dataset(y=np.array([1.0, 2.0, 3.0, 4.0]), x=x)
        fs_like = first_step(d, SQUARE)
        resid = np.array([0.5, 1.0, 2.0, 3.0])
        fs = type(fs_like)(beta=fs_like.beta, residuals=resid)
        loss = LossFunction.huber(1.5)
        w = np_weights(d, loss, fs, h=0.5)
        expected = loss.g2(resid) / loss.g1(resid)
        assert np.allclose(w, expected, rtol=1e-12)

    def test_tiny_bandwidth_keeps_the_self_term(self):
        # only the self term lies within h, so a point's distance to itself
        # must be exactly 0
        rng = np.random.default_rng(46)
        d, _ = heteroscedastic_sample(rng, n=250, q=2)
        d = Dataset(y=d.y, x=d.x + 3.0)
        fs = first_step(d, SQUARE)
        g1, g2 = SQUARE.g1(fs.residuals), SQUARE.g2(fs.residuals)
        expected = g2 / np.maximum(g1, SMOOTHING_FLOOR * g1.max())
        np.testing.assert_allclose(np_weights(d, SQUARE, fs, h=1e-9), expected, rtol=1e-12)

    def test_bandwidth_with_overflowing_square_rejected(self):
        rng = np.random.default_rng(44)
        d, _ = heteroscedastic_sample(rng, n=20, q=2)
        fs = first_step(d, SQUARE)
        with pytest.raises(DataError, match="1e\\+200 is too large"):
            np_weights(d, SQUARE, fs, h=1e200)

    def test_bandwidth_with_underflowing_square_rejected(self):
        with pytest.raises(DataError, match="1.4e-162 is too small"):
            squared_bandwidth(1.4e-162)

    def test_subnormal_squared_bandwidth_keeps_the_self_term(self):
        # 2e-162 squares to the least subnormal; only the self term remains
        assert squared_bandwidth(2e-162) == 5e-324
        rng = np.random.default_rng(46)
        d, _ = heteroscedastic_sample(rng, n=250, q=2)
        fs = first_step(d, SQUARE)
        g1, g2 = SQUARE.g1(fs.residuals), SQUARE.g2(fs.residuals)
        expected = g2 / np.maximum(g1, SMOOTHING_FLOOR * g1.max())
        with warnings.catch_warnings():  # d2 / h^2 of the other pairs is a quiet inf
            warnings.simplefilter("error")
            w = np_weights(d, SQUARE, fs, h=2e-162)
            np.testing.assert_array_equal(w, np_weights(d, SQUARE, fs, h=1e-150))
        np.testing.assert_allclose(w, expected, rtol=1e-12)

    def test_matches_inverse_smoothed_squared_residuals(self):
        # square loss: g2/g1 smoothing equals (1/2) / NW-smooth of e^2, so the
        # fitted coefficients agree exactly by weight-scale invariance
        rng = np.random.default_rng(43)
        d, _ = heteroscedastic_sample(rng, n=80, q=2)
        fs = first_step(d, SQUARE)
        kernel = EpanechnikovKernel(2)
        h = 0.9
        w = np_weights(d, SQUARE, fs, h)

        diffs = d.x[:, None, :] - d.x[None, :, :]
        kmat = kernel(diffs.reshape(-1, 2)).reshape(d.n, d.n)  # h-free scale cancels
        kmat = kernel.profile(np.sum(diffs**2, axis=-1) / h**2)
        alt = kmat.sum(axis=1) / (kmat @ fs.residuals**2)
        beta_ratio = fit_wls(d, w).beta
        beta_alt = fit_wls(d, alt).beta
        assert np.max(np.abs(beta_ratio - beta_alt)) <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(44)
        d, _ = heteroscedastic_sample(rng, n=60, q=2)
        fs = first_step(d, SQUARE)
        perm = rng.permutation(d.n)
        d_perm = Dataset(y=d.y[perm], x=d.x[perm])
        fs_perm = type(fs)(beta=fs.beta, residuals=fs.residuals[perm])

        w = np_weights(d, SQUARE, fs, h=0.8)
        w_perm = np_weights(d_perm, SQUARE, fs_perm, h=0.8)
        assert np.allclose(w_perm, w[perm], rtol=1e-12)

        v = sp_projected_weights(d, SQUARE, fs, h=0.8, eps=0.2)
        v_perm = sp_projected_weights(d_perm, SQUARE, fs_perm, h=0.8, eps=0.2)
        assert np.allclose(v_perm, v[perm], rtol=1e-12)

    def test_strictly_positive_finite(self):
        rng = np.random.default_rng(45)
        for kind in ("smooth", "disc"):
            d, _ = heteroscedastic_sample(rng, n=100, q=3, kind=kind)
            fs = first_step(d, SQUARE)
            w = np_weights(d, SQUARE, fs, h=1.0)
            assert np.all(w > 0) and np.all(np.isfinite(w))

    def test_response_scale_equivariance_chain(self):
        # y -> s*y scales residuals by s, weights by 1/s^2 and beta by s
        rng = np.random.default_rng(46)
        d, _ = heteroscedastic_sample(rng, n=70, q=2)
        s = 3.7
        scaled = Dataset(y=s * d.y, x=d.x)
        fs = first_step(d, SQUARE)
        fs_s = first_step(scaled, SQUARE)
        assert np.max(np.abs(fs_s.residuals - s * fs.residuals)) <= 1e-9
        w = np_weights(d, SQUARE, fs, h=0.8)
        w_s = np_weights(scaled, SQUARE, fs_s, h=0.8)
        assert np.max(np.abs(w_s - w / s**2)) <= 1e-8 * np.max(w)
        beta = fit_wls(d, w).beta
        beta_s = fit_wls(scaled, w_s).beta
        assert np.max(np.abs(beta_s - s * beta)) <= 1e-8


class TestSpIndexWeights:
    def test_constant_residuals(self):
        x = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
        d = Dataset(y=x[:, 0] * 2.0, x=x)
        fs_like = first_step(d, SQUARE)
        fs = type(fs_like)(beta=fs_like.beta, residuals=np.full(8, 2.0))
        w = sp_index_weights(d, SQUARE, fs, h=1.0)
        # g2/g1 = 2/(4*4) = 0.125 everywhere
        assert np.allclose(w, 0.125, atol=1e-12)

    def test_univariate_matches_np_on_scaled_covariate(self):
        # for q=1 the index map is a bijection, so smoothing over b*x with the
        # same bandwidth gives identical weights and identical fits
        rng = np.random.default_rng(47)
        d, _ = heteroscedastic_sample(rng, n=60, q=1, kind="disc")
        fs = first_step(d, SQUARE)
        h = 0.6
        w_index = sp_index_weights(d, SQUARE, fs, h)

        slope = fs.beta[1]
        d_scaled = Dataset(y=d.y, x=d.x * slope)
        fs_scaled = first_step(d_scaled, SQUARE)
        assert np.max(np.abs(fs_scaled.residuals - fs.residuals)) <= 1e-9
        w_np = np_weights(d_scaled, SQUARE, fs_scaled, h)
        beta_index = fit_wls(d, w_index).beta
        beta_np = fit_wls(d, w_np).beta
        assert np.max(np.abs(beta_index - beta_np)) <= 1e-10

    def test_weights_constant_on_index_level_sets(self):
        rng = np.random.default_rng(48)
        d, _ = heteroscedastic_sample(rng, n=50, q=2)
        fs = first_step(d, SQUARE)
        # duplicate a covariate row rotated within the level set of the index
        slope = fs.slope
        ortho = np.array([-slope[1], slope[0]])
        x0 = d.x[0]
        x_new = np.vstack([d.x, x0 + 2.5 * ortho])
        y_new = np.append(d.y, d.y[0])
        d2 = Dataset(y=y_new, x=x_new)
        fs2 = type(fs)(
            beta=fs.beta, residuals=np.append(fs.residuals, fs.residuals[0])
        )
        w = sp_index_weights(d2, SQUARE, fs2, h=0.7)
        assert w[0] == pytest.approx(w[-1], rel=1e-12)

    def test_zero_slope_rejected(self):
        d = Dataset(y=np.array([1.0, 1.0, 1.0, 1.0]), x=np.array([[0.0], [1.0], [2.0], [3.0]]))
        fs_like = first_step(d, SQUARE)
        fs = type(fs_like)(beta=np.array([1.0, 0.0]), residuals=fs_like.residuals)
        with pytest.raises(IndexDegenerateError):
            sp_index_weights(d, SQUARE, fs, h=1.0)


class TestSmoothingCoordinates:
    X = np.array([[10.0, 10.0], [10.0, -10.0], [1.0, 2.0], [-3.0, 0.5]])

    @pytest.mark.parametrize("mode, slope, eps", [
        ("sp-index", [1e308, 1e308], None),  # x @ b overflows to inf, and to inf - inf
        ("sp-proj", [1.0, 2.0], np.inf),
        ("sp-proj", [1e160, 2e160], 0.1),  # |b|^2 overflows, so the projector is NaN
    ])
    def test_coordinates_that_are_not_finite_raise(self, mode, slope, eps):
        d = Dataset(y=np.zeros(4), x=self.X)
        fs = FirstStepFit(beta=np.array([0.0, *slope]), residuals=np.ones(4))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=f"{mode} smoothing coordinates are not "
                               "finite") as info:
                smoothing_coordinates(d, fs, mode, eps)
        assert type(info.value) is NumericalError


class TestProjector:
    def test_axis_vector(self):
        assert np.array_equal(projector(np.array([1.0, 0.0])), [[1.0, 0.0], [0.0, 0.0]])

    def test_diagonal_vector(self):
        assert np.allclose(projector(np.array([1.0, 1.0])), [[0.5, 0.5], [0.5, 0.5]])

    def test_idempotent_symmetric_trace_one(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            q = rng.integers(1, 6)
            b = rng.normal(size=q)
            p = projector(b)
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert np.array_equal(p, p.T)
            assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
            eig = np.linalg.eigvalsh(p)
            assert np.all((np.abs(eig) <= 1e-10) | (np.abs(eig - 1.0) <= 1e-10))

    def test_zero_vector_rejected(self):
        with pytest.raises(IndexDegenerateError):
            projector(np.zeros(3))


class TestEpsilonPerturbation:
    def test_exact_fit_gives_zero(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(30, 3))
        beta = np.array([1.0, 0.5, -0.5, 2.0])
        d = Dataset(y=beta[0] + x @ beta[1:], x=x)
        fs = first_step(d, SQUARE)
        assert epsilon_perturbation(d, fs) == pytest.approx(0.0, abs=1e-12)

    def test_noise_scale_homogeneity(self):
        # residual vector chosen orthogonal to the design columns, so scaling
        # it leaves the fit unchanged and scales epsilon exactly linearly
        rng = np.random.default_rng(53)
        x = rng.normal(size=(40, 2))
        xt = np.column_stack([np.ones(40), x])
        noise = rng.normal(size=40)
        noise -= xt @ np.linalg.lstsq(xt, noise, rcond=None)[0]
        beta = np.array([1.0, 2.0, -1.0])
        base = xt @ beta
        eps1 = epsilon_perturbation(
            Dataset(y=base + noise, x=x), first_step(Dataset(y=base + noise, x=x), SQUARE)
        )
        s = 4.0
        eps_s = epsilon_perturbation(
            Dataset(y=base + s * noise, x=x),
            first_step(Dataset(y=base + s * noise, x=x), SQUARE),
        )
        assert eps_s == pytest.approx(s * eps1, rel=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            d, _ = heteroscedastic_sample(rng, n=60, q=3, kind="smooth")
            assert epsilon_perturbation(d, first_step(d, SQUARE)) >= 0.0

    def test_shrinks_with_sample_size(self):
        # eps ~ n^(-1/2): quadrupling n should roughly halve the median
        medians = []
        for n in (400, 1600):
            vals = []
            for r in range(100):
                rng = replication_rng(987, r)
                d, _ = generate_sample(n, 4, "smooth", rng)
                vals.append(epsilon_perturbation(d, first_step(d, SQUARE)))
            medians.append(np.median(vals))
        ratio = medians[0] / medians[1]
        assert 1.5 <= ratio <= 2.5

    @pytest.mark.parametrize("q", range(1, 6))
    def test_matches_eigenvalue_form(self, q):
        # the docstring's form: eigenvalues of (I-P) S2 (I-P), S2 the slope
        # block of the inverse (1+q) moment matrix
        rng = np.random.default_rng(55 + q)
        for _ in range(10):
            n = int(rng.integers(q + 20, 300))
            x = rng.normal(size=(n, q)) * rng.uniform(0.5, 2.0, size=q) + rng.normal(size=q)
            d = Dataset(y=x @ rng.normal(size=q) + rng.normal(size=n), x=x)
            fs = first_step(d, SQUARE)
            xt = d.design_matrix()
            block = np.linalg.inv(xt.T @ xt / n)[1:, 1:]
            resid_proj = np.eye(q) - projector(fs.slope)
            mat = resid_proj @ block @ resid_proj
            lam = np.linalg.eigvalsh(0.5 * (mat + mat.T))
            expected = np.sqrt(2.0 * np.mean(fs.residuals**2) * np.sum(lam**2)
                               / (n * q * (fs.slope @ fs.slope)))
            got = epsilon_perturbation(d, fs)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
            assert (got == 0.0) == (q == 1)

    @pytest.mark.parametrize("c", (1e2, 1e4, 1e6))
    def test_covariate_shift_leaves_eps_unchanged(self, c):
        for r, (n, q) in enumerate(((60, 2), (300, 3), (2000, 4))):
            d, _ = generate_sample(n, q, "disc", replication_rng(r, 0))
            fs = first_step(d, SQUARE)
            shifted = epsilon_perturbation(Dataset(y=d.y, x=d.x + c), fs)
            assert shifted == pytest.approx(epsilon_perturbation(d, fs), rel=1e-9, abs=0)


class TestSpProjectedWeights:
    def test_constant_residuals(self):
        rng = np.random.default_rng(56)
        x = rng.normal(size=(20, 2))
        d = Dataset(y=x @ np.array([1.0, 1.0]), x=x)
        fs_like = first_step(d, SQUARE)
        fs = type(fs_like)(beta=fs_like.beta, residuals=np.ones(20))
        w = sp_projected_weights(d, SQUARE, fs, h=1.0, eps=0.1)
        assert np.allclose(w, 0.5, atol=1e-12)

    def test_univariate_equals_np_with_rescaled_bandwidth(self):
        # at q=1 the projector is the identity, so A = (1+eps) rescales the
        # kernel argument; the prefactor difference cancels in the ratio
        rng = np.random.default_rng(57)
        d, _ = heteroscedastic_sample(rng, n=50, q=1, kind="disc")
        fs = first_step(d, SQUARE)
        eps = 0.3
        h = 0.8
        w_proj = sp_projected_weights(d, SQUARE, fs, h, eps)
        w_np = np_weights(d, SQUARE, fs, h / (1.0 + eps))
        beta_proj = fit_wls(d, w_proj).beta
        beta_np = fit_wls(d, w_np).beta
        assert np.max(np.abs(beta_proj - beta_np)) <= 1e-10

    def test_eps_zero_ignores_orthogonal_directions(self):
        # differences orthogonal to the slope land at kernel argument zero
        rng = np.random.default_rng(58)
        d, _ = heteroscedastic_sample(rng, n=40, q=2)
        fs = first_step(d, SQUARE)
        from adaweight.weights import smoothing_coordinates

        pts = smoothing_coordinates(d, fs, "sp-proj", eps=0.0)
        slope = fs.slope
        ortho = np.array([-slope[1], slope[0]])
        moved = d.x + 5.0 * ortho
        p = projector(slope)
        assert np.max(np.abs(moved @ p - pts)) <= 1e-12


class TestParametricOracle:
    def test_unit_family_reproduces_first_step(self):
        rng = np.random.default_rng(61)
        d, _ = heteroscedastic_sample(rng, n=50, q=2)
        fs = first_step(d, SQUARE)
        w = parametric_weights(lambda x, beta: np.ones(x.shape[0]), fs, d)
        assert np.allclose(w, 1.0)
        assert np.allclose(fit_wls(d, w).beta, fs.beta, atol=1e-12)

    def test_plugging_truth_matches_oracle(self):
        rng = np.random.default_rng(62)
        d, beta0 = heteroscedastic_sample(rng, n=60, q=2, kind="disc")
        fs = first_step(d, SQUARE)
        family = lambda x, beta: 1.0 / sigma_values("disc", x, beta[1:]) ** 2
        w_param = parametric_weights(lambda x, b: family(x, beta0), fs, d)
        w_oracle = oracle_weights(lambda x: family(x, beta0), d)
        assert np.array_equal(w_param, w_oracle)

    def test_oracle_values_disc(self):
        beta0 = true_beta(2)
        x_pos = 5.0 * beta0[1:].reshape(1, -1)
        x_neg = -x_pos
        d = Dataset(
            y=np.zeros(4), x=np.vstack([x_pos, x_neg, x_pos * 2, x_neg * 2])
        )
        w = oracle_weights(
            lambda x: 1.0 / sigma_values("disc", x, beta0[1:]) ** 2, d
        )
        assert w[0] == pytest.approx(0.16, rel=1e-12)
        assert w[1] == pytest.approx(4.0, rel=1e-12)

    def test_constant_oracle_reproduces_first_step(self):
        rng = np.random.default_rng(63)
        d, _ = heteroscedastic_sample(rng, n=40, q=2)
        fs = first_step(d, SQUARE)
        w = oracle_weights(lambda x: np.full(x.shape[0], 7.3), d)
        assert np.allclose(fit_wls(d, w).beta, fs.beta, atol=1e-10)

    def test_clamp_engages_near_singularity(self):
        # a point sitting on the hyperplane gets a huge raw weight -> clamped
        rng = np.random.default_rng(64)
        d, beta0 = heteroscedastic_sample(rng, n=80, q=2, kind="smooth")
        fs = first_step(d, SQUARE)
        slope = fs.slope
        ortho = np.array([-slope[1], slope[0]]) / np.linalg.norm(slope)
        x = d.x.copy()
        x[0] = 1e-12 * slope + 0.5 * ortho  # index essentially zero
        d2 = Dataset(y=d.y, x=x)
        family = lambda xx, beta: 1.0 / sigma_values("smooth", xx, beta[1:]) ** 2
        raw = evaluate_weight_map(lambda xx: family(xx, fs.beta), d2.x)
        clamped, count = clamp_weights(raw)
        assert count >= 1
        assert clamped[0] == pytest.approx(1e6 * np.median(raw), rel=1e-12)

    def test_non_finite_family_value_reports_row(self):
        d = Dataset(y=np.zeros(5), x=np.arange(5.0).reshape(-1, 1))
        family = lambda x, beta: np.where(x[:, 0] == 3.0, np.nan, 1.0)
        fs = first_step(d, SQUARE)
        with pytest.raises(WeightFamilyError, match="produced nan at row 3"):
            parametric_weights(family, fs, d)

    def test_clamp_counts(self):
        values = np.array([1e-9, 1.0, 2.0, 3.0, 1e12])
        clamped, count = clamp_weights(values)
        assert count == 2
        assert clamped[0] == 1e-6 * 2.0
        assert clamped[-1] == 1e6 * 2.0


class TestPointwiseConsistency:
    def test_np_weight_converges_at_fixed_point(self):
        # relative error of the estimated weight at a fixed interior point
        # shrinks from n=100 to n=1600 (disc sigma, away from the jump)
        from adaweight.weights import smoothing_coordinates
        from adaweight.kernels import EpanechnikovKernel

        beta0 = true_beta(2)
        x_star = 1.0 * beta0[1:] / np.linalg.norm(beta0[1:])  # index +1, sigma=2.5
        w_true = 1.0 / 2.5**2
        kernel = EpanechnikovKernel(2)

        def median_rel_err(n, reps=40):
            errs = []
            for r in range(reps):
                rng = replication_rng(555, r)
                d, _ = generate_sample(n, 2, "disc", rng)
                fs = first_step(d, SQUARE)
                # window stays on the positive side of the jump (h < 1)
                h = 1.5 * n ** (-1.0 / 6.0)
                d2 = np.sum((d.x - x_star) ** 2, axis=1)
                k = kernel.profile(d2 / h**2)
                den = k @ SQUARE.g1(fs.residuals)
                if den <= 0:
                    continue
                w_hat = (k @ SQUARE.g2(fs.residuals)) / den
                scale = 0.5  # g2/g1 carries 2/4 relative to 1/sigma^2
                errs.append(abs(w_hat - scale * w_true) / (scale * w_true))
            return np.median(errs)

        assert median_rel_err(1600) < median_rel_err(100)


def coordinate_order_sq_dists(points):
    """All pairwise squared distances, each the sum of the squared coordinate
    differences in coordinate order (``np.sum`` adds 8 or more terms pairwise)."""
    diff = points[:, None, :] - points[None, :, :]
    d2 = diff[..., 0] ** 2
    for k in range(1, points.shape[1]):
        d2 += diff[..., k] ** 2
    return d2


def dense_ratio_weights(points, loss, residuals, h):
    """Kernel ratio N/D from the full matrix of direct coordinate differences."""
    d2 = coordinate_order_sq_dists(points)
    k = np.clip(1.0 - d2 / h**2, 0.0, None)
    num, den = k @ loss.g2(residuals), k @ loss.g1(residuals)
    num = np.maximum(num, SMOOTHING_FLOOR * num.max())
    den = np.maximum(den, SMOOTHING_FLOOR * den.max())
    return num / den


def chained_covariates(rng, n, q, spread, h, run):
    """Normal covariates of scale ``spread`` in runs of ``run`` rows: each row
    after a run's first is its predecessor plus a normal step of scale 0.7 h
    per coordinate (every second row, for run = 2), so neighbours lie near
    the window edge while the spread dwarfs h."""
    x = spread * rng.normal(size=(n, q))
    steps = 0.7 * h * rng.normal(size=(n, q))
    for k in range(1, run):
        x[k::run] = x[k - 1::run][: x[k::run].shape[0]] + steps[k::run]
    return x


#: Chained designs: spread, log10 of h relative to it, and run length.
CHAINED_DESIGNS = st.tuples(st.sampled_from([1.0, 1e2, 1e4]), st.floats(-4.0, 0.0),
                            st.integers(2, 4))

#: Slope and eps per route with exactly representable smoothing coordinates
#: on integer covariates: an integer slope, and for sp-proj a dyadic eps.
#: At q >= 3 the slope gains zeros, so the sp-proj projector stays dyadic.
LATTICE_GEOMETRIES = {
    "np": (np.array([0.0, 1.0, 1.0]), None),
    "sp-index": (np.array([0.0, 1.0, 2.0]), None),
    "sp-proj": (np.array([0.0, 1.0, 1.0]), 0.5),
}

#: Integer matrices whose rows are orthogonal with norm s, as (matrix, s): they
#: turn the integer lattice off the coordinate axes and scale every distance
#: by s exactly.
LATTICE_ROTATIONS = {
    2: (np.array([[3.0, -4.0], [4.0, 3.0]]), 5.0),
    3: (np.array([[2.0, -2.0, 1.0], [1.0, 2.0, 2.0], [2.0, 1.0, -2.0]]), 3.0),
    4: (np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                  [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]), 2.0),
}


def route_weights(mode, data, loss, fs, h, eps):
    if mode == "sp-proj":
        return sp_projected_weights(data, loss, fs, h, eps)
    return {"np": np_weights, "sp-index": sp_index_weights}[mode](data, loss, fs, h)


class TestBlockedSmoother:
    @settings(max_examples=80, deadline=None)
    @given(
        mode=st.sampled_from(sorted(LATTICE_GEOMETRIES)),
        q=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]),
        spread=st.integers(1, 4),
        isolated=st.integers(0, 3),
        rotate=st.booleans(),
        offset=st.integers(-10**6, 10**6),
        h=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.integers(1, 12).map(lambda k: k / 4)),
        loss=st.sampled_from([SQUARE, LossFunction.huber(1.345), LossFunction.power(1.5)]),
        seed=st.integers(0, 2**32 - 1),
        chained=st.one_of(st.none(), CHAINED_DESIGNS),
    )
    # pairs near the window edge at h = 1e-4 of a spread of 1e4, where the
    # expansion |a|^2 + |b|^2 - 2 a.b loses about 1e-7 of each scaled distance
    @example(mode="np", q=2, n=2 * BLOCK_ROWS + 1, spread=1, isolated=0, rotate=False,
             offset=0, h=1.0, loss=SQUARE, seed=3, chained=(1e4, -4.0, 2))
    @example(mode="sp-proj", q=4, n=2 * BLOCK_ROWS + 1, spread=1, isolated=1, rotate=True,
             offset=0, h=1.0, loss=SQUARE, seed=4, chained=(1e4, -3.5, 3))
    # eight columns, which np.sum would add pairwise, not in coordinate order
    @example(mode="np", q=8, n=2 * BLOCK_ROWS + 1, spread=1, isolated=1, rotate=False,
             offset=0, h=1.0, loss=SQUARE, seed=5, chained=(1e4, -3.0, 2))
    def test_matches_dense_reference(self, mode, q, n, spread, isolated, rotate, offset, h,
                                     loss, seed, chained):
        # integer covariates on a small lattice repeat rows and put many
        # neighbours at distance exactly h, where the kernel is zero.  The
        # first lattice direction is three times as long, so it is the
        # principal axis of the band; rotated, it lies off the coordinate
        # axes, and the neighbours along it stay at exactly h (times s).  The
        # chained design puts neighbours near the window edge, far out in h
        rng = np.random.default_rng(seed)
        if chained is None:
            x = rng.integers(-spread, spread + 1, size=(n, q)).astype(float)
            x[:, 0] *= 3.0
        else:
            scale, log_h, run = chained
            h = scale * 10.0**log_h
            x = chained_covariates(rng, n, q, scale, h, run)
        x[: min(isolated, n)] += 100.0 * np.arange(1, min(isolated, n) + 1)[:, None]
        if rotate:
            turn, scale = LATTICE_ROTATIONS[q]
            x, h = x @ turn.T, h * scale
        slope, eps = LATTICE_GEOMETRIES[mode]
        slope = np.append(slope, np.zeros(q - 2))
        data = Dataset(y=np.zeros(n), x=x + offset)
        fs = FirstStepFit(beta=slope, residuals=rng.normal(size=n))
        reference = dense_ratio_weights(
            smoothing_coordinates(data, fs, mode, eps), loss, fs.residuals, h
        )
        weights = route_weights(mode, data, loss, fs, h, eps)
        np.testing.assert_allclose(weights, reference, rtol=1e-12, atol=0.0)

    def test_band_visits_fewer_than_half_the_pairs(self, monkeypatch):
        # at the CV bandwidth a dense pass would hand all n^2 pairs to
        # pairwise_sq_dists; the band along the principal axis hands about 0.37 n^2
        data = generate_sample(2000, 2, "smooth", replication_rng(1, 0))[0]
        fs = first_step(data, SQUARE)
        h = cv_bandwidth(data, fs, "np").h_cv
        pairs = []

        def counting(rows, points, **buffers):
            pairs.append(rows.shape[0] * points.shape[0])
            return pairwise_sq_dists(rows, points, **buffers)

        monkeypatch.setattr(weights_module, "pairwise_sq_dists", counting)
        np_weights(data, SQUARE, fs, h)
        assert 0 < sum(pairs) < 2000**2 / 2

    def test_overflowing_coordinates_are_isolated(self):
        # every squared difference overflows to inf, which lies in no window,
        # so each point smooths only its own residual, as the one-column path
        # gives on the first column
        rng = np.random.default_rng(47)
        loss = LossFunction.huber(1.0)
        fs = FirstStepFit(beta=np.zeros(3), residuals=rng.normal(size=40))
        points = 1e200 * rng.normal(size=(40, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _ratio_weights(loss, fs, 1.0, points)
            w1 = _ratio_weights(loss, fs, 1.0, points[:, :1])
        g2, g1 = loss.g2(fs.residuals), loss.g1(fs.residuals)
        floored = [np.maximum(g, SMOOTHING_FLOOR * g.max()) for g in (g2, g1)]
        assert np.array_equal(w1, floored[0] / floored[1])
        np.testing.assert_allclose(w, w1, rtol=1e-15, atol=0.0)

    def test_single_point_weight_is_pointwise_ratio(self):
        # n = 1 is below any Dataset, so this goes through the smoother itself
        loss = LossFunction.huber(1.0)
        fs = FirstStepFit(beta=np.zeros(3), residuals=np.array([0.5]))
        w = _ratio_weights(loss, fs, 1.0, np.array([[3.0, -2.0]]))
        np.testing.assert_allclose(w, loss.g2(fs.residuals) / loss.g1(fs.residuals), rtol=1e-15)

    def test_memory_stays_in_row_blocks(self, cold_arenas):
        # the banded smoother needs two buffers of a block's rows by at most
        # 2 BLOCK_ROWS columns in its arena, about 2 MB here; one n x n
        # float64 temporary (32 MB) breaks the bound
        rng = np.random.default_rng(45)
        d, _ = heteroscedastic_sample(rng, n=2000, q=2)
        fs = first_step(d, SQUARE)
        tracemalloc.start()
        try:
            np_weights(d, SQUARE, fs, h=0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_memory_stays_in_one_tile(self, cold_arenas):
        # at h = 3 a block's band reaches most of the 4000 rows; the smoother
        # measures it one tile of at most 2 BLOCK_ROWS columns at a time and
        # peaks near 2.3 MB, where buffers for the whole band took 15 MB
        d, _ = heteroscedastic_sample(np.random.default_rng(46), n=4000, q=2)
        fs = first_step(d, SQUARE)
        tracemalloc.start()
        try:
            np_weights(d, SQUARE, fs, h=3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


class TestBandArenas:
    """The walks over two or more smoothing columns borrow their buffers from idle arenas."""

    def test_threads_match_serial_calls_and_return_no_arena_memory(self, cold_arenas):
        # four threads borrow arenas at once and grow them over samples of
        # different n and q (bands of one to five blocks): every result is the
        # serial call's, bit for bit, and shares no memory with an arena
        samples = []
        for seed, (n, q) in enumerate([(1100, 2), (300, 3), (520, 4), (700, 2)]):
            d, _ = heteroscedastic_sample(np.random.default_rng(60 + seed), n=n, q=q,
                                          kind="smooth")
            fs = first_step(d, SQUARE)
            samples.append((d, fs, epsilon_perturbation(d, fs)))

        def run(sample):
            d, fs, eps = sample
            cv_np = cv_bandwidth(d, fs, "np")
            cv_sp = cv_bandwidth(d, fs, "sp-proj", eps=eps)
            return (cv_np.scores, cv_np.valid_fraction, cv_sp.scores, cv_sp.valid_fraction,
                    np_weights(d, SQUARE, fs, cv_np.h_cv),
                    sp_projected_weights(d, SQUARE, fs, cv_sp.h_cv, eps))

        def assert_no_arena_memory(results):
            buffers = [buf for arena in weights_module._IDLE_ARENAS for buf in arena.values()]
            assert buffers
            for result in results:
                for array in result:
                    assert not any(np.shares_memory(array, buf) for buf in buffers)

        serial = [run(sample) for sample in samples]
        assert len(weights_module._IDLE_ARENAS) == 1
        assert_no_arena_memory(serial)
        weights_module._IDLE_ARENAS.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter over often, mid-walk
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, samples * 3, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        idle = weights_module._IDLE_ARENAS
        assert 1 <= len(idle) <= 4 and len({id(arena) for arena in idle}) == len(idle)
        assert_no_arena_memory(threaded)
        for got, expected in zip(threaded, serial * 3):
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()

    def test_arena_grown_mid_walk_gives_the_warm_scores(self, cold_arenas):
        # at these bandwidths the first blocks, in the sparse tail, have the
        # narrowest bands, so a cold arena grows its pair buffers mid-walk
        data = generate_sample(2000, 2, "smooth", replication_rng(1, 0))[0]
        fs = first_step(data, SQUARE)
        grid = np.geomspace(0.05, 0.5, 40)
        cold = cv_bandwidth(data, fs, "np", grid=grid)
        warm = cv_bandwidth(data, fs, "np", grid=grid)
        assert cold.scores.tobytes() == warm.scores.tobytes()
        assert cold.valid_fraction.tobytes() == warm.valid_fraction.tobytes()

    def test_walk_returns_its_arena_when_closed_or_its_consumer_raises(
        self, cold_arenas, monkeypatch
    ):
        rng = np.random.default_rng(61)
        points = rng.normal(size=(3 * BLOCK_ROWS, 2))
        e2 = rng.random(3 * BLOCK_ROWS)
        h2s = np.array([0.25, 1.0])
        idle = weights_module._IDLE_ARENAS
        walk = _band_terms(points, e2, h2s)
        next(walk)
        assert idle == []
        walk.close()  # halfway through the band
        assert len(idle) == 1

        def consume():
            for _ in _band_terms(points, e2, h2s):
                raise RuntimeError("consumer")

        with pytest.raises(RuntimeError, match="consumer"):
            consume()
        assert len(idle) == 1

        profile = EpanechnikovKernel.profile
        calls = []

        def failing_profile(kernel, sq_norm, out=None):
            calls.append(1)
            if len(calls) == 2:  # the second of three blocks
                raise RuntimeError("kernel")
            return profile(kernel, sq_norm, out=out)

        monkeypatch.setattr(EpanechnikovKernel, "profile", failing_profile)
        fs = FirstStepFit(beta=np.zeros(3), residuals=rng.normal(size=3 * BLOCK_ROWS))
        with pytest.raises(RuntimeError, match="kernel"):
            _ratio_weights(SQUARE, fs, 1.0, points)
        assert len(idle) == 1


def stacked_window_sums(z, columns, h2s):
    """``window_sums`` over every h2, stacked: k is (n, G), sums (columns, n, G)."""
    k, sums = zip(*window_sums(z, columns, h2s))
    return np.stack(k, axis=-1), np.stack(sums, axis=-1)


def dense_window_sums(z, columns, h2s):
    """Counts and sums c_j (1 - d2/h2) over j != i with d2 = (z_j - z_i)**2 < h2."""
    d2 = (z[:, None] - z[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    k = np.stack([np.sum(d2 < h2, axis=1) for h2 in h2s], axis=1)
    sums = [np.stack([np.where(d2 < h2, 1.0 - d2 / h2, 0.0) @ c for h2 in h2s], axis=1)
            for c in columns]
    return k, np.array(sums)


class TestWindowSums:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                           BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]),
        spread=st.integers(1, 6),
        step=st.sampled_from([1.0, 0.5, 0.25, 3.0]),
        duplicate=st.booleans(),
        outliers=st.integers(0, 4),
        offset=st.integers(-2**24, 2**24).map(lambda k: k / 16.0),
        grid=st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e-3, 1e4]),
                                st.integers(1, 16).map(lambda k: k / 4)),
                      min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, n, spread, step, duplicate, outliers, offset,
                                     grid, seed):
        # a lattice with ties, many neighbours at distance exactly h (where
        # the kernel is zero), far outliers and an offset up to 1e6; the
        # offset is dyadic, so every point and difference is exact
        rng = np.random.default_rng(seed)
        z = step * rng.integers(-spread, spread + 1, size=n)
        z[: min(outliers, n)] = 1e3 * rng.choice([-1.0, 1.0], size=min(outliers, n)) \
            * np.arange(1, min(outliers, n) + 1)
        if duplicate:
            z = np.concatenate([z, z])
        z = rng.permutation(z) + offset
        columns = [np.ones(z.size), rng.normal(size=z.size) ** 2, rng.exponential(size=z.size)]
        h2s = np.array([h * h for h in grid])
        k, sums = stacked_window_sums(z, columns, h2s)
        ref_k, ref_sums = dense_window_sums(z, columns, h2s)
        assert np.array_equal(k, ref_k)
        assert np.array_equal(np.mean(k > 0, axis=0), np.mean(ref_k > 0, axis=0))
        np.testing.assert_allclose(sums, ref_sums, rtol=1e-12, atol=0.0)

    def test_neighbour_at_distance_exactly_h_is_outside(self):
        k, (s,) = stacked_window_sums(np.array([0.0, 1.0, 2.0]), [np.ones(3)], [1.0, 2.25])
        assert np.array_equal(k, [[0, 1], [0, 2], [0, 1]])
        np.testing.assert_allclose(s, [[0.0, 1 - 1 / 2.25], [0.0, 2 * (1 - 1 / 2.25)],
                                       [0.0, 1 - 1 / 2.25]], rtol=1e-15)

    @pytest.mark.parametrize("z, h2", [
        # z + h rounds to z, so the search stops short of the tie, which the
        # forward fix-up pulls in
        ([1e16, 1e16, 1e16 + 2], 1.0),
        # the rounded search at z + h lands past the neighbour although
        # (z_j - z_i)**2 >= h2, and the back fix-up moves the edge in
        ([-72.40638542660894, 57.60791890079838], 16903.719329739688),
    ], ids=["forward-fix-up", "back-fix-up"])
    def test_edges_that_the_search_misses_are_fixed_up(self, z, h2):
        z = np.array(z)
        columns = [np.ones(z.size), np.arange(1.0, z.size + 1)]
        k, sums = stacked_window_sums(z, columns, [h2])
        ref_k, ref_sums = dense_window_sums(z, columns, [h2])
        assert np.array_equal(k, ref_k)
        np.testing.assert_allclose(sums, ref_sums, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_point_that_is_not_finite_raises(self, bad):
        z = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(NumericalError, match="smoothing coordinates are not finite"):
            next(window_sums(z, [np.ones(4)], [1.0]))

    @pytest.mark.parametrize("design", ["smooth", "cluster-and-outliers"])
    def test_memory_stays_linear_at_n_20000(self, design, cold_arenas):
        # one run of sorted rows spanning at most h per segment; a layout
        # padding every segment to the longest range of rows it reads holds
        # about 10^4 x 10^4 values here, far beyond the bound
        n = 20000
        if design == "smooth":
            d, _ = generate_sample(n, 2, "smooth", replication_rng(1, 0))
            fs = first_step(d, SQUARE)
            grid = None
        else:
            rng = np.random.default_rng(47)
            cluster = rng.uniform(0.0, 1e-3, size=n // 2)
            pairs = np.repeat(10.0 * np.arange(n // 4), 2) + np.tile([0.0, 1.0], n // 4)
            x = np.concatenate([cluster, pairs + 100.0])[:, None]
            d = Dataset(y=np.zeros(n), x=x)
            fs = FirstStepFit(beta=np.array([0.0, 1.0]), residuals=rng.normal(size=n))
            grid = np.geomspace(0.5, 4.0, 20)
        tracemalloc.start()
        try:
            h = cv_bandwidth(d, fs, "sp-index", grid=grid).h_cv
            cv_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sp_index_weights(d, SQUARE, fs, h)
            smoother_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cv_peak <= 32 * 2**20
        assert smoother_peak <= 16 * 2**20


#: The same points as one smoothing column (the sorted path) and as two
#: columns with a zero second one (the blocked path): the same windows.
COLUMN_GEOMETRIES = {
    "one-column": lambda x: x.reshape(-1, 1),
    "two-column": lambda x: np.column_stack([x, np.zeros(x.size)]),
}


@pytest.mark.parametrize("geometry", sorted(COLUMN_GEOMETRIES))
class TestSmootherFailureRulesByGeometry:
    @pytest.mark.parametrize("h", [0.5, 5.0, 1e6])
    def test_exact_first_step_fit_is_numerical_error(self, geometry, h):
        x = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        fs = first_step(Dataset(y=np.zeros(5), x=x), SQUARE)
        with pytest.raises(NumericalError, match="fits the data exactly") as info:
            _ratio_weights(SQUARE, fs, h, COLUMN_GEOMETRIES[geometry](x))
        assert type(info.value) is NumericalError

    def test_overflowing_squared_score_is_numerical_error(self, geometry):
        x = np.arange(6.0)
        fs = first_step(Dataset(y=OVERFLOW_Y, x=x.reshape(-1, 1)), SQUARE)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="denominator is not finite") as info:
                _ratio_weights(SQUARE, fs, 3.0, COLUMN_GEOMETRIES[geometry](x))
        assert type(info.value) is NumericalError

    def test_infinite_numerator_is_named_before_vanished_denominator(self, geometry):
        x = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
        loss = LossFunction.power(1.5)
        fs = first_step(Dataset(y=np.zeros(5), x=x), loss)
        with pytest.raises(DegenerateCurvatureError, match="numerator is not finite") as info:
            _ratio_weights(loss, fs, 1.0, COLUMN_GEOMETRIES[geometry](x))
        assert type(info.value) is DegenerateCurvatureError

    @pytest.mark.parametrize("h", [1e-9, 2e-162], ids=["tiny", "subnormal-square"])
    def test_tiny_bandwidth_keeps_the_self_term(self, geometry, h):
        # only the self term lies within h: at 1e-9, and at 2e-162, whose
        # square is the least subnormal
        rng = np.random.default_rng(46)
        x = rng.normal(size=250) + 3.0
        fs = FirstStepFit(beta=np.array([0.0, 1.0]), residuals=rng.normal(size=250))
        g1, g2 = SQUARE.g1(fs.residuals), SQUARE.g2(fs.residuals)
        expected = g2 / np.maximum(g1, SMOOTHING_FLOOR * g1.max())
        points = COLUMN_GEOMETRIES[geometry](x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _ratio_weights(SQUARE, fs, h, points)
        np.testing.assert_allclose(w, expected, rtol=1e-12)
        np.testing.assert_array_equal(w, _ratio_weights(SQUARE, fs, 1e-150, points))
