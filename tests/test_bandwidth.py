import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaweight import (
    BandwidthGridError,
    CvResult,
    DataError,
    Dataset,
    LossFunction,
    cv_bandwidth,
    default_grid,
    first_step,
    loo_sigma2,
)
from adaweight.bandwidth import BLOCK_ROWS, MIN_VALID_FRACTION, _loo_scan
from adaweight.weights import FirstStepFit, smoothing_coordinates

SQUARE = LossFunction.square()


def scalar_dataset():
    d = Dataset(y=np.array([0.0, 1.0, 0.0]), x=np.array([[0.0], [1.0], [2.0]]))
    return d, first_step(d, SQUARE)


def random_fit(rng, n=40, q=2):
    x = rng.normal(size=(n, q))
    y = 1.0 + x @ np.ones(q) + rng.normal(size=n) * (1.0 + np.abs(x[:, 0]))
    d = Dataset(y=y, x=x)
    return d, first_step(d, SQUARE)


class TestLooSigma2:
    def test_constant_squared_residuals(self):
        d, fs_like = scalar_dataset()
        fs = FirstStepFit(beta=fs_like.beta, residuals=np.full(3, 2.0))
        val = loo_sigma2(d, fs, h=5.0, mode="np", i=1)
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_no_neighbor_in_window_is_not_evaluable(self):
        d = Dataset(y=np.array([0.0, 1.0, 0.5]), x=np.array([[0.0], [10.0], [20.0]]))
        fs = first_step(d, SQUARE)
        assert loo_sigma2(d, fs, h=1.0, mode="np", i=0) is None

    def test_symmetric_three_point_average(self):
        # neighbors at equal distance: (1*K + 9*K) / (2K) = 5
        d, fs_like = scalar_dataset()
        fs = FirstStepFit(beta=fs_like.beta, residuals=np.array([1.0, 2.0, 3.0]))
        val = loo_sigma2(d, fs, h=3.0, mode="np", i=1)
        assert val == pytest.approx(5.0, rel=1e-12)

    def test_modes_agree_for_univariate_data(self):
        rng = np.random.default_rng(71)
        d, fs = random_fit(rng, n=30, q=1)
        v_np = loo_sigma2(d, fs, h=1.0, mode="np", i=3)
        slope = abs(fs.slope[0])
        v_idx = loo_sigma2(d, fs, h=slope * 1.0, mode="sp-index", i=3)
        assert v_np == pytest.approx(v_idx, rel=1e-10)

    def test_out_of_range_index_rejected(self):
        d, fs = scalar_dataset()
        with pytest.raises(DataError):
            loo_sigma2(d, fs, h=1.0, mode="np", i=3)

    def test_bandwidth_with_overflowing_square_rejected(self):
        d, fs = scalar_dataset()
        with pytest.raises(DataError, match="1e\\+200 is too large"):
            loo_sigma2(d, fs, h=1e200, mode="np", i=0)


class TestCvBandwidth:
    def test_singleton_grid(self):
        rng = np.random.default_rng(72)
        d, fs = random_fit(rng)
        res = cv_bandwidth(d, fs, "np", grid=[1.5])
        assert res.h_cv == 1.5
        assert res.valid_fraction[0] >= 0.8

    def test_duplicate_grid_is_deterministic(self):
        rng = np.random.default_rng(73)
        d, fs = random_fit(rng)
        res = cv_bandwidth(d, fs, "np", grid=[1.5, 1.5])
        assert res.h_cv == 1.5
        assert abs(res.scores[0] - res.scores[1]) <= 1e-12

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(74)
        d, fs = random_fit(rng)
        r1 = cv_bandwidth(d, fs, "np")
        r2 = cv_bandwidth(d, fs, "np")
        assert r1.h_cv == r2.h_cv
        assert np.array_equal(r1.scores, r2.scores)

    @pytest.mark.parametrize(
        "mode, eps", [("np", None), ("sp-index", None), ("sp-proj", 0.3)],
        ids=["np", "sp-index", "sp-proj"],
    )
    def test_scores_match_independent_evaluation(self, mode, eps):
        # recompute the criterion directly from loo_sigma2 for a tiny grid in
        # each smoothing geometry; the default grid comes from the same points
        rng = np.random.default_rng(75)
        d, fs = random_fit(rng, n=25, q=2)
        grid = [0.7, 2.0]
        res = cv_bandwidth(d, fs, mode, grid=grid, eps=eps)
        e2 = fs.residuals**2
        for j, h in enumerate(grid):
            terms = []
            for i in range(d.n):
                loo = loo_sigma2(d, fs, h, mode, i, eps)
                terms.append((e2[i] - (loo if loo is not None else 0.0)) ** 2)
            assert res.scores[j] == pytest.approx(np.mean(terms), rel=1e-12)
        default = cv_bandwidth(d, fs, mode, eps=eps).grid
        assert np.array_equal(default, default_grid(d, fs, mode, eps))

    def test_tiny_invalid_candidate_loses_to_moderate(self):
        # squared residuals smooth in x: the moderate bandwidth must win and
        # the tiny one is disqualified by the validity rule
        rng = np.random.default_rng(76)
        n = 60
        x = np.sort(rng.uniform(0, 10, n)).reshape(-1, 1)
        sig = 0.5 + 0.3 * x[:, 0]
        y = 1.0 + 2.0 * x[:, 0] + sig * rng.normal(size=n)
        d = Dataset(y=y, x=x)
        fs = first_step(d, SQUARE)
        res = cv_bandwidth(d, fs, "np", grid=[1e-4, 2.0])
        assert res.h_cv == 2.0
        assert res.valid_fraction[0] < 0.8

    def test_all_candidates_disqualified(self):
        rng = np.random.default_rng(77)
        d, fs = random_fit(rng)
        with pytest.raises(BandwidthGridError, match="widen"):
            cv_bandwidth(d, fs, "np", grid=[1e-8, 1e-7])

    def test_scores_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(78)
        d, fs = random_fit(rng)
        res = cv_bandwidth(d, fs, "np")
        assert np.all(res.scores >= 0.0)
        perm = rng.permutation(d.n)
        d_perm = Dataset(y=d.y[perm], x=d.x[perm])
        fs_perm = FirstStepFit(beta=fs.beta, residuals=fs.residuals[perm])
        res_perm = cv_bandwidth(d_perm, fs_perm, "np", grid=res.grid)
        assert np.allclose(res.scores, res_perm.scores, rtol=1e-12)
        assert res.h_cv == res_perm.h_cv

    def test_bandwidth_with_overflowing_square_rejected(self):
        rng = np.random.default_rng(85)
        d, fs = random_fit(rng)
        with pytest.raises(DataError, match="1e\\+200 is too large"):
            cv_bandwidth(d, fs, "np", grid=[1.0, 1e200])
        with pytest.raises(DataError):
            cv_bandwidth(d, fs, "np", grid=[1.0, np.nan])

    def test_memory_stays_in_row_blocks(self):
        # the blocked scan peaks near 20 MB here; one n x n float64 temporary
        # adds 32 MB and breaks the bound (the dense scan peaked at 153 MB)
        rng = np.random.default_rng(86)
        d, fs = random_fit(rng, n=2000, q=2)
        tracemalloc.start()
        try:
            cv_bandwidth(d, fs, "np")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_sp_modes_run(self):
        rng = np.random.default_rng(79)
        d, fs = random_fit(rng, n=80, q=3)
        r_idx = cv_bandwidth(d, fs, "sp-index")
        r_proj = cv_bandwidth(d, fs, "sp-proj")
        assert r_idx.h_cv > 0 and r_proj.h_cv > 0

    def test_result_type(self):
        rng = np.random.default_rng(80)
        d, fs = random_fit(rng)
        res = cv_bandwidth(d, fs, "np")
        assert isinstance(res, CvResult)
        assert len(res.grid) == len(res.scores) == len(res.valid_fraction)


class TestDefaultGrid:
    def test_brackets_pilot(self):
        rng = np.random.default_rng(81)
        d, fs = random_fit(rng, n=100, q=2)
        grid = default_grid(d, fs, "np")
        scale = float(np.sqrt(np.mean(np.var(d.x, axis=0))))
        pilot = scale * d.n ** (-1.0 / 6.0)
        assert len(grid) == 20
        assert grid[0] == pytest.approx(pilot / 4.0, rel=1e-12)
        assert grid[-1] == pytest.approx(pilot * 4.0, rel=1e-12)

    def test_index_mode_uses_univariate_rate(self):
        rng = np.random.default_rng(82)
        d, fs = random_fit(rng, n=100, q=3)
        grid = default_grid(d, fs, "sp-index")
        t = d.x @ fs.slope
        pilot = float(np.std(t)) * d.n ** (-1.0 / 5.0)
        assert grid[0] == pytest.approx(pilot / 4.0, rel=1e-12)

    def test_grid_is_geometric(self):
        rng = np.random.default_rng(83)
        d, fs = random_fit(rng)
        grid = default_grid(d, fs, "np")
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)


def dense_loo_criterion(points, e2, grid):
    """Scores and evaluable fractions from the full leave-one-out kernel matrix."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    scores, fractions = [], []
    for h in grid:
        k = np.clip(1.0 - d2 / h**2, 0.0, None)
        np.fill_diagonal(k, 0.0)
        mass = k.sum(axis=1)
        valid = mass > 0
        smooth = np.divide(k @ e2, mass, out=np.zeros(e2.size), where=valid)
        scores.append(np.mean((e2 - smooth) ** 2))
        fractions.append(np.mean(valid))
    return np.array(scores), np.array(fractions)


#: Geometries with exactly representable smoothing coordinates: integer
#: covariates, an integer slope, and for sp-proj A = P + eps*I with a dyadic
#: eps, so the scan and the reference see the same squared distances and a
#: point at distance exactly h is out of the window in both.
GEOMETRIES = {
    "np": (np.array([0.0, 1.0, 1.0]), None),
    "sp-index": (np.array([0.0, 1.0, 2.0]), None),
    "sp-proj": (np.array([0.0, 1.0, 1.0]), 0.5),
}


class TestLooScanProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(sorted(GEOMETRIES)),
        n=st.sampled_from([3, 4, 17, 60, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                           2 * BLOCK_ROWS + 7]),
        spread=st.integers(1, 4),
        isolated=st.integers(0, 3),
        grid=st.lists(
            st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e-3]),
                      st.integers(1, 12).map(lambda k: k / 4)),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, mode, n, spread, isolated, grid, seed):
        # integer covariates on a small lattice repeat rows and put many
        # neighbours at distance exactly h; far-out rows have no neighbour
        rng = np.random.default_rng(seed)
        x = rng.integers(-spread, spread + 1, size=(n, 2)).astype(float)
        x[: min(isolated, n)] += 100.0 * np.arange(1, min(isolated, n) + 1)[:, None]
        beta, eps = GEOMETRIES[mode]
        data = Dataset(y=np.zeros(n), x=x)
        fs = FirstStepFit(beta=beta, residuals=rng.normal(size=n))
        e2 = fs.residuals**2
        points = smoothing_coordinates(data, fs, mode, eps)
        ref_scores, ref_fractions = dense_loo_criterion(points, e2, grid)

        eligible = [j for j in range(len(grid)) if ref_fractions[j] >= MIN_VALID_FRACTION]
        if eligible:
            res = cv_bandwidth(data, fs, mode, grid=grid, eps=eps)
            scores, fractions = res.scores, res.valid_fraction
            # the reference's choice, unless another candidate ties with it
            # to within rounding (then either may win)
            best = min(ref_scores[j] for j in eligible)
            tied = {grid[j] for j in eligible if ref_scores[j] <= best * (1 + 1e-12)}
            assert res.h_cv in tied
        else:
            with pytest.raises(BandwidthGridError):
                cv_bandwidth(data, fs, mode, grid=grid, eps=eps)
            scores, fractions = _loo_scan(points, e2, np.asarray(grid, dtype=float))
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        assert np.array_equal(fractions, ref_fractions)

    def test_neighbours_at_distance_exactly_h_are_outside(self):
        # the kernel vanishes at |u| = 1: with h = 1 no point of the unit
        # lattice 0, 1, 2 has a neighbour strictly inside its window
        e2 = np.array([1.0, 4.0, 9.0])
        scores, fractions = _loo_scan(np.array([[0.0], [1.0], [2.0]]), e2, np.array([1.0, 1.5]))
        assert np.array_equal(fractions, [0.0, 1.0])
        assert scores[0] == np.mean(e2**2)
        ref_scores, _ = dense_loo_criterion(np.array([[0.0], [1.0], [2.0]]), e2, [1.0, 1.5])
        assert scores[1] == pytest.approx(ref_scores[1], rel=1e-12)

    def test_single_point_has_no_evaluable_term(self):
        scores, fractions = _loo_scan(np.zeros((1, 2)), np.array([4.0]), np.array([1.0, 5.0]))
        assert np.array_equal(scores, [16.0, 16.0])
        assert np.array_equal(fractions, [0.0, 0.0])
