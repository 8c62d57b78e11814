import numpy as np
import pytest

from adaweight import (
    DataError,
    Dataset,
    EpanechnikovKernel,
    IndexDegenerateError,
    LossFunction,
    WeightFamilyError,
    clamp_weights,
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

from adaweight.weights import _kernel_matrix, pairwise_sq_dists

SQUARE = LossFunction.square()


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


class TestPairwiseSqDists:
    def test_row_block_matches_dense_matrix(self):
        rng = np.random.default_rng(49)
        points = rng.normal(size=(30, 3))
        dense = pairwise_sq_dists(points)
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) <= 1e-12)
        block = pairwise_sq_dists(points[5:12], points)
        assert block.shape == (7, 30)
        direct = np.sum((points[5:12, None, :] - points[None, :, :]) ** 2, axis=-1)
        assert np.allclose(block, direct, rtol=1e-12, atol=1e-12)
        assert np.all(block >= 0.0)


class TestNpWeights:
    def test_constant_residuals_give_constant_ratio(self):
        # g2/g1 pointwise when both transforms are constant: 2/4 = 0.5
        x = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        d = Dataset(y=np.zeros(6), x=x)
        fs_like = first_step(d, SQUARE)
        fs = type(fs_like)(beta=fs_like.beta, residuals=np.ones(6))
        w = np_weights(d, SQUARE, fs, h=0.5)
        assert np.allclose(w, 0.5, atol=1e-12)

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

    def test_bandwidth_with_overflowing_square_rejected(self):
        rng = np.random.default_rng(44)
        d, _ = heteroscedastic_sample(rng, n=20, q=2)
        fs = first_step(d, SQUARE)
        with pytest.raises(DataError, match="1e\\+200 is too large"):
            np_weights(d, SQUARE, fs, h=1e200)
        with pytest.raises(DataError, match="too large"):
            _kernel_matrix(np.zeros((2, 2)), np.float64(1e200), 2)

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
        raw = evaluate_weight_map(family, d2.x, fs.beta)
        clamped, count = clamp_weights(raw)
        assert count >= 1
        assert clamped[0] == pytest.approx(1e6 * np.median(raw), rel=1e-12)

    def test_non_finite_family_value_reports_row(self):
        d = Dataset(y=np.zeros(5), x=np.arange(5.0).reshape(-1, 1))
        family = lambda x, beta: np.where(x[:, 0] == 3.0, np.nan, 1.0)
        fs = first_step(d, SQUARE)
        with pytest.raises(WeightFamilyError, match="row 3"):
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
