import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaweight import (
    BandwidthGridError,
    CvResult,
    DataError,
    Dataset,
    EpanechnikovKernel,
    LossFunction,
    NumericalError,
    cv_bandwidth,
    default_grid,
    epsilon_perturbation,
    first_step,
    generate_sample,
    np_weights,
    replication_rng,
    sp_index_weights,
    sp_projected_weights,
)
from adaweight import bandwidth as bandwidth_module, weights as weights_module
from adaweight.bandwidth import GRID_CHUNK, MIN_VALID_FRACTION, _loo_scan
from adaweight.weights import (
    BLOCK_ROWS,
    FirstStepFit,
    arena_buffer,
    pairwise_sq_dists,
    smoothing_coordinates,
    sorted_band,
    squared_bandwidth,
)
from test_weights import (LATTICE_ROTATIONS, CHAINED_DESIGNS, chained_covariates,
                          dense_ratio_weights)

SQUARE = LossFunction.square()


def scalar_dataset():
    d = Dataset(y=np.array([0.0, 1.0, 0.0]), x=np.array([[0.0], [1.0], [2.0]]))
    return d, first_step(d, SQUARE)


def loo_sigma2(
    data: Dataset,
    fs: FirstStepFit,
    h: float,
    mode: str,
    i: int,
    eps: float | None = None,
) -> float | None:
    """Leave-one-out variance smooth at sample point ``i`` (0-based).

    Evaluates the kernel directly at the distances from point ``i``,
    independently of the prefix sums in :func:`cv_bandwidth`, so tests can
    check one against the other.  The factor h^-d cancels in the ratio and is
    not applied, so huge bandwidths do not underflow the kernel mass.
    Returns ``None`` when no other observation falls in the kernel window;
    that is a value, not an error.
    """
    if not 0 <= i < data.n:
        raise DataError(f"index {i} outside 0..{data.n - 1}")
    h2 = squared_bandwidth(h)
    points = smoothing_coordinates(data, fs, mode, eps)
    d2 = np.sum((points - points[i]) ** 2, axis=1)
    k = EpanechnikovKernel(points.shape[1]).profile(d2 / h2)
    k[i] = 0.0
    mass = float(k.sum())
    if mass <= 0:
        return None
    e2 = fs.residuals**2
    return float((k @ e2) / mass)


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

    def test_huge_bandwidth_averages_every_other_point(self):
        # h**-3 underflows to 0 at h = 1e120; the scan counts every point
        # as evaluable there, and so must the direct smooth
        d = generate_sample(200, 3, "disc", replication_rng(5, 0))[0]
        fs = first_step(d, SQUARE)
        points = smoothing_coordinates(d, fs, "np")
        _, fraction = _loo_scan(points, fs.residuals**2, np.array([1e120]))
        assert fraction[0] == 1.0
        e2 = fs.residuals**2
        for i in (0, 117):
            expected = np.delete(e2, i).mean()
            assert loo_sigma2(d, fs, h=1e120, mode="np", i=i) == pytest.approx(
                expected, rel=1e-12
            )


class TestCvBandwidth:
    def test_singleton_grid(self):
        rng = np.random.default_rng(72)
        d, fs = random_fit(rng)
        res = cv_bandwidth(d, fs, "np", grid=[1.5])
        assert res.h_cv == 1.5
        assert res.valid_fraction[0] >= 0.8

    def test_non_positive_candidate_is_input_error(self):
        d, fs = random_fit(np.random.default_rng(72))
        with pytest.raises(DataError, match="bandwidth must be positive, got 0.0"):
            cv_bandwidth(d, fs, "np", grid=[0.5, 0.0])

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
        assert np.array_equal(default, default_grid(smoothing_coordinates(d, fs, mode, eps)))

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

    def test_memory_stays_in_row_blocks(self, cold_arenas):
        # the banded scan peaks near 6 MB here, its arena included; one n x n
        # float64 temporary adds 32 MB and breaks the bound (the dense scan
        # peaked at 153 MB)
        rng = np.random.default_rng(86)
        d, fs = random_fit(rng, n=2000, q=2)
        tracemalloc.start()
        try:
            cv_bandwidth(d, fs, "np")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    @pytest.mark.parametrize("grid", [None, [50.0, 60.0]], ids=["default", "covering"])
    def test_memory_stays_in_row_blocks_at_n_4000(self, grid, cold_arenas):
        # on the default grid a minority of pairs lie in the largest window
        # (peak near 10 MB); on the covering grid every pair does, and the
        # arrays of a block's pairs peak near 40 MB; one n x n float64
        # temporary would add 128 MB
        rng = np.random.default_rng(87)
        d, fs = random_fit(rng, n=4000, q=2)
        tracemalloc.start()
        try:
            res = cv_bandwidth(d, fs, "np", grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20
        if grid is not None:
            assert np.array_equal(res.valid_fraction, [1.0, 1.0])

    def test_memory_stays_in_row_blocks_on_1000_candidates(self, cold_arenas):
        # the scan keeps sums per (row, candidate) only for the rows the band
        # still reaches, and takes the candidates in chunks of GRID_CHUNK: it
        # peaks near 15 MB here, and sums for every row would hold 64 MB
        rng = np.random.default_rng(86)
        d, fs = random_fit(rng, n=2000, q=2)
        lo, hi = default_grid(smoothing_coordinates(d, fs, "np"))[[0, -1]]
        tracemalloc.start()
        try:
            cv_bandwidth(d, fs, "np", grid=np.geomspace(lo, hi, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_carried_sums_move_in_place(self, cold_arenas):
        # at h = 3 the band of a block reaches most of the 4000 rows, so the
        # (row, candidate) sums of 200 candidates take 24 MB; the pairs are
        # binned one tile of at most 2 BLOCK_ROWS columns at a time, whose
        # arrays take about 4 MB, so the scan peaks near 29 MB.  Pair arrays
        # for a block's whole band (830000 pairs, 33 MB) break the bound
        rng = np.random.default_rng(87)
        d, fs = random_fit(rng, n=4000, q=2)
        tracemalloc.start()
        try:
            cv_bandwidth(d, fs, "np", grid=np.geomspace(0.05, 3, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_pair_arrays_stay_in_one_tile(self, cold_arenas):
        # on the covering grid every pair is in the band, which is 4000
        # columns deep; one tile's distances and pair arrays keep the scan
        # near 6 MB, and those of a block's whole band peaked near 40 MB
        rng = np.random.default_rng(87)
        d, fs = random_fit(rng, n=4000, q=2)
        tracemalloc.start()
        try:
            cv_bandwidth(d, fs, "np", grid=[50.0, 60.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_carried_sums_are_sized_once_per_walk(self, cold_arenas, monkeypatch):
        # the sparse tail's first block has the narrowest band, so the walk
        # sizes its sums from the widest band before any block's pairs, and
        # takes the prefix sums in place rather than in a buffer of their own
        rng = np.random.default_rng(87)
        d, fs = random_fit(rng, n=4000, q=2)
        points = smoothing_coordinates(d, fs, "np")
        grid = np.geomspace(*default_grid(points)[[0, -1]], 200)
        widths = [w for _, _, w, _ in sorted_band(points, grid[-1] ** 2, {})[1]]
        assert widths[0] < max(widths)
        asked = []

        def recording_buffer(arena, name, size):
            asked.append(name)
            return arena_buffer(arena, name, size)

        monkeypatch.setattr(bandwidth_module, "arena_buffer", recording_buffer)
        cv_bandwidth(d, fs, "np", grid=grid)
        assert asked[0] == "sums" and asked.count("sums") == 1
        assert "work" in asked and "prefix" not in asked

    @pytest.mark.parametrize("mode, eps", [("np", None), ("sp-proj", 0.3)], ids=["np", "sp-proj"])
    def test_small_blocks_span_many_tiles(self, mode, eps, monkeypatch):
        # with 8-row blocks a tile holds 16 columns, so 150 points make 19
        # blocks, and the widest bands span more than 4 tiles: pairs within a
        # block, pairs in later tiles and mirrored pairs all count, against
        # direct sums
        d, fs = random_fit(np.random.default_rng(88), n=150, q=2)
        grid = [0.4, 1.2, 3.0]
        wide = cv_bandwidth(d, fs, mode, grid=grid, eps=eps)
        monkeypatch.setattr(weights_module, "BLOCK_ROWS", 8)
        points = smoothing_coordinates(d, fs, mode, eps)
        widths = [w for _, _, w, _ in sorted_band(points, grid[-1] ** 2, {})[1]]
        assert len(widths) == 19 and max(widths) > 4 * 2 * 8
        res = cv_bandwidth(d, fs, mode, grid=grid, eps=eps)
        assert res.h_cv == wide.h_cv
        assert np.array_equal(res.valid_fraction, wide.valid_fraction)
        e2 = fs.residuals**2
        for j, h in enumerate(grid):
            terms = [(e2[i] - (loo_sigma2(d, fs, h, mode, i, eps) or 0.0)) ** 2
                     for i in range(d.n)]
            assert res.scores[j] == pytest.approx(np.mean(terms), rel=1e-13, abs=0.0)
            weights = (np_weights(d, SQUARE, fs, h) if mode == "np"
                       else sp_projected_weights(d, SQUARE, fs, h, eps))
            reference = dense_ratio_weights(points, SQUARE, fs.residuals, h)
            np.testing.assert_allclose(weights, reference, rtol=1e-12, atol=0.0)

    def test_repeated_scan_reuses_its_arena(self, cold_arenas):
        # the first call peaks near 6 MB, most of it the arena it builds (it
        # peaked near 8.6 MB before the scan had an arena); the second finds
        # that arena idle and peaks near 1 MB
        rng = np.random.default_rng(86)
        d, fs = random_fit(rng, n=2000, q=2)
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                cv_bandwidth(d, fs, "np")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] / 3

    def test_scan_visits_fewer_than_half_the_pairs(self, monkeypatch):
        # a pass over all pairs hands n^2 entries to pairwise_sq_dists; the
        # band of the largest candidate, each pair once, hands about 0.40 n^2
        data = generate_sample(2000, 2, "smooth", replication_rng(1, 0))[0]
        fs = first_step(data, SQUARE)
        pairs = []

        def counting(rows, points, **buffers):
            pairs.append(rows.shape[0] * points.shape[0])
            return pairwise_sq_dists(rows, points, **buffers)

        monkeypatch.setattr(weights_module, "pairwise_sq_dists", counting)
        cv_bandwidth(data, fs, "np")
        assert 0 < sum(pairs) < 2000**2 / 2

    def test_sp_modes_run(self):
        rng = np.random.default_rng(79)
        d, fs = random_fit(rng, n=80, q=3)
        r_idx = cv_bandwidth(d, fs, "sp-index")
        r_proj = cv_bandwidth(d, fs, "sp-proj", eps=epsilon_perturbation(d, fs))
        assert r_idx.h_cv > 0 and r_proj.h_cv > 0

    @pytest.mark.parametrize("eps", [None, -0.1])
    def test_sp_proj_requires_caller_eps(self, eps):
        rng = np.random.default_rng(79)
        d, fs = random_fit(rng, n=80, q=3)
        with pytest.raises(DataError, match="nonnegative eps"):
            smoothing_coordinates(d, fs, "sp-proj", eps)
        with pytest.raises(DataError, match="nonnegative eps"):
            cv_bandwidth(d, fs, "sp-proj", eps=eps)

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
        grid = default_grid(smoothing_coordinates(d, fs, "np"))
        scale = float(np.sqrt(np.mean(np.var(d.x, axis=0))))
        pilot = scale * d.n ** (-1.0 / 6.0)
        assert len(grid) == 20
        assert grid[0] == pytest.approx(pilot / 4.0, rel=1e-12)
        assert grid[-1] == pytest.approx(pilot * 4.0, rel=1e-12)

    def test_index_mode_uses_univariate_rate(self):
        rng = np.random.default_rng(82)
        d, fs = random_fit(rng, n=100, q=3)
        grid = default_grid(smoothing_coordinates(d, fs, "sp-index"))
        t = d.x @ fs.slope
        pilot = float(np.std(t)) * d.n ** (-1.0 / 5.0)
        assert grid[0] == pytest.approx(pilot / 4.0, rel=1e-12)

    def test_grid_is_geometric(self):
        rng = np.random.default_rng(83)
        d, fs = random_fit(rng)
        grid = default_grid(smoothing_coordinates(d, fs, "np"))
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 0.0])
    def test_spread_whose_grid_cannot_be_squared_raises(self, scale):
        # the variance overflows at 1e160 and underflows to 0 at 1e-170
        points = np.random.default_rng(84).normal(size=(100, 2)) * scale
        with np.errstate(over="ignore", under="ignore"):
            with pytest.raises(NumericalError, match="smoothing coordinates have spread") as info:
                default_grid(points)
        assert type(info.value) is NumericalError


def coordinate_order_sq_dists(points):
    """All pairwise squared distances, each the sum of the squared coordinate
    differences in coordinate order (``np.sum`` adds 8 or more terms pairwise)."""
    diff = points[:, None, :] - points[None, :, :]
    d2 = diff[..., 0] ** 2
    for k in range(1, points.shape[1]):
        d2 += diff[..., k] ** 2
    return d2


def dense_loo_criterion(points, e2, grid):
    """Scores and evaluable fractions from the full leave-one-out kernel matrix."""
    d2 = coordinate_order_sq_dists(points)
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
    @settings(max_examples=120, deadline=None)
    @given(
        mode=st.sampled_from(sorted(GEOMETRIES)),
        q=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([3, 4, 17, 60, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                           2 * BLOCK_ROWS + 7, 4 * BLOCK_ROWS + 3]),
        spread=st.integers(1, 4),
        isolated=st.integers(0, 3),
        rotate=st.booleans(),
        offset=st.integers(-10**6, 10**6),
        grid=st.lists(
            st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e-3]),
                      st.integers(1, 12).map(lambda k: k / 4)),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
        chained=st.one_of(st.none(), CHAINED_DESIGNS),
    )
    # np pairs that cross several blocks of the band, off the coordinate axes
    @example(mode="np", q=2, n=4 * BLOCK_ROWS + 3, spread=4, isolated=2, rotate=True,
             offset=-10**6, grid=[0.5, 1.0, 2.25, 3.0], seed=1, chained=None)
    @example(mode="np", q=3, n=2 * BLOCK_ROWS + 7, spread=2, isolated=1, rotate=True,
             offset=10**6 - 1, grid=[1.0, 1.5, 3.0], seed=2, chained=None)
    # pairs near the window edge at h = 1e-4 of a spread of 1e4, where the
    # expansion |a|^2 + |b|^2 - 2 a.b loses about 1e-7 of each scaled distance
    @example(mode="np", q=2, n=4 * BLOCK_ROWS + 3, spread=1, isolated=0, rotate=False,
             offset=0, grid=[1.0, 1.5, 2.0], seed=3, chained=(1e4, -4.0, 4))
    @example(mode="sp-proj", q=4, n=2 * BLOCK_ROWS + 7, spread=1, isolated=1, rotate=True,
             offset=0, grid=[1.0, 4.0], seed=4, chained=(1e4, -4.0, 3))
    # eight columns, which np.sum would add pairwise, not in coordinate order
    @example(mode="np", q=8, n=2 * BLOCK_ROWS + 7, spread=1, isolated=1, rotate=False,
             offset=0, grid=[1.0, 1.5, 2.0], seed=5, chained=(1e4, -3.0, 2))
    def test_matches_dense_reference(self, mode, q, n, spread, isolated, rotate, offset, grid,
                                     seed, chained):
        # integer covariates on a small lattice repeat rows and put many
        # neighbours at distance exactly h; far-out rows have no neighbour.
        # The first lattice direction is three times as long, so it is the
        # band's axis; rotated, it lies off the coordinate axes, and the
        # neighbours along it stay at exactly h (times s).  The chained design
        # scales the grid by 10**log_h times its spread and puts neighbours
        # near the edge of the first candidate's window, far from the origin
        rng = np.random.default_rng(seed)
        n = max(n, q + 1)  # a Dataset has a row per coefficient
        if chained is None:
            x = rng.integers(-spread, spread + 1, size=(n, q)).astype(float)
            x[:, 0] *= 3.0
        else:
            scale, log_h, run = chained
            grid = [h * scale * 10.0**log_h for h in grid]
            x = chained_covariates(rng, n, q, scale, grid[0], run)
        x[: min(isolated, n)] += 100.0 * np.arange(1, min(isolated, n) + 1)[:, None]
        if rotate:
            turn, scale = LATTICE_ROTATIONS[q]
            x, grid = x @ turn.T, [h * scale for h in grid]
        beta, eps = GEOMETRIES[mode]
        beta = np.append(beta, np.zeros(q - 2))
        data = Dataset(y=np.zeros(n), x=x + offset)
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

    def test_descending_grid_with_repeats_is_the_sorted_grid_permuted(self):
        rng = np.random.default_rng(88)
        points = rng.integers(-3, 4, size=(300, 2)).astype(float)
        e2 = rng.normal(size=300) ** 2
        grid = np.array([3.0, 2.0, 2.0, 1.5, 1.0, 0.5])
        order = np.argsort(grid, kind="stable")
        scores, fractions = _loo_scan(points, e2, grid)
        sorted_scores, sorted_fractions = _loo_scan(points, e2, grid[order])
        assert np.array_equal(scores[order], sorted_scores)
        assert np.array_equal(fractions[order], sorted_fractions)
        assert scores[1] == scores[2]
        ref_scores, ref_fractions = dense_loo_criterion(points, e2, grid)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        assert np.array_equal(fractions, ref_fractions)

    def test_candidates_holding_every_pair_and_none(self):
        # distinct points of a unit lattice: h = 0.5 holds no pair, h = 1e8
        # holds every pair with kernel weights equal to rel 1e-14, and
        # h = 1.5 sits in between
        rng = np.random.default_rng(89)
        points = np.argwhere(np.ones((10, 12))).astype(float)
        e2 = rng.normal(size=points.shape[0]) ** 2
        grid = np.array([1e8, 0.5, 1.5])
        scores, fractions = _loo_scan(points, e2, grid)
        assert np.array_equal(fractions, [1.0, 0.0, 1.0])
        assert scores[1] == pytest.approx(np.mean(e2**2), rel=1e-14)
        loo_mean = (e2.sum() - e2) / (e2.size - 1)
        ref_scores, _ = dense_loo_criterion(points, e2, grid)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(scores[0], np.mean((e2 - loo_mean) ** 2), rtol=1e-12)

    def test_pair_across_a_block_edge_just_inside_h(self):
        # points on a line off the axes and far from the origin, 2 apart but
        # for one pair 1 apart that straddles the first block's edge, at an h
        # just above its squared distance: the projections' rounding can put
        # the pair farther apart than h along the axis, and only the band's
        # margin keeps it (without the margin 6 of these 60 lose it)
        n = BLOCK_ROWS + 1
        for seed in range(60):
            rng = np.random.default_rng(seed)
            q = int(rng.integers(2, 8))
            direction = rng.normal(size=q)
            gaps = np.full(n - 1, 2.0)
            gaps[BLOCK_ROWS - 1] = 1.0
            t = np.append(0.0, np.cumsum(gaps))
            points = 10.0 ** rng.uniform(3, 9) * rng.normal(size=q)
            points = points + t[:, None] * direction / np.linalg.norm(direction)
            d2 = 0.0
            for step in points[BLOCK_ROWS] - points[BLOCK_ROWS - 1]:
                d2 += step * step  # in coordinate order, as the band sums
            h = np.sqrt(d2)
            while h * h <= d2:
                h = np.nextafter(h, np.inf)
            _, fractions = _loo_scan(points, np.ones(n), np.array([h]))
            assert fractions[0] == 2 / n, seed

    def test_candidate_whose_scaled_width_overflows_holds_every_pair(self):
        # the band measures its width in units of the points' largest entry,
        # about 2^-996 here, so h = 1e10 makes it inf, which holds every pair
        rng = np.random.default_rng(93)
        points = 1e-300 * rng.normal(size=(50, 2))
        e2 = rng.normal(size=50) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores, fractions = _loo_scan(points, e2, np.array([1e10]))
        ref_scores, ref_fractions = dense_loo_criterion(points, e2, [1e10])
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        assert np.array_equal(fractions, ref_fractions)

    def test_candidates_sharing_a_table_cell(self):
        # the bin table has 256 cells per power of two; these h^2 = (1 + k
        # 2^-21)^2 share one cell, the points put pairs at each of them
        # exactly, and a pair at 1 + 2^-12 needs a step past all four
        steps = 1.0 + np.arange(4) * 2.0**-21
        x = np.concatenate([[0.0, 0.5, 2.0, 1.0 + 2.0**-12], steps, -steps, [3.0]])
        points = np.repeat(x, 2)[:, None]
        e2 = np.random.default_rng(91).normal(size=points.shape[0]) ** 2
        grid = np.array([steps[3], steps[0], steps[2], steps[1], steps[2], 0.75, 1.5])
        scores, fractions = _loo_scan(points, e2, grid)
        ref_scores, ref_fractions = dense_loo_criterion(points, e2, grid)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        assert np.array_equal(fractions, ref_fractions)
        assert len(set(scores[:4])) == 4

    def test_isolated_point_across_blocks(self):
        # three blocks, the last one short; the isolated row sits in the
        # last block, so its e^4 term lands on the right index only if every
        # block is offset correctly
        n = 2 * BLOCK_ROWS + 7
        rng = np.random.default_rng(90)
        points = rng.integers(-4, 5, size=(n, 2)).astype(float)
        points[n - 3] = [1000.0, -1000.0]
        e2 = rng.normal(size=n) ** 2
        grid = np.array([0.75, 1.0, 2.0, 5.0])
        scores, fractions = _loo_scan(points, e2, grid)
        ref_scores, ref_fractions = dense_loo_criterion(points, e2, grid)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        assert np.array_equal(fractions, ref_fractions)
        assert fractions[-1] == (n - 1) / n

    def test_grid_longer_than_a_chunk(self):
        # candidates go in chunks of GRID_CHUNK; a pair below a chunk's first
        # candidate lies in every window of that chunk
        rng = np.random.default_rng(92)
        points = rng.integers(-4, 5, size=(BLOCK_ROWS + 40, 2)).astype(float)
        e2 = rng.normal(size=points.shape[0]) ** 2
        grid = np.geomspace(0.9, 6.0, GRID_CHUNK + 3)[::-1]
        scores, fractions = _loo_scan(points, e2, grid)
        ref_scores, ref_fractions = dense_loo_criterion(points, e2, grid)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        assert np.array_equal(fractions, ref_fractions)

    def test_single_point_has_no_evaluable_term(self):
        scores, fractions = _loo_scan(np.zeros((1, 2)), np.array([4.0]), np.array([1.0, 5.0]))
        assert np.array_equal(scores, [16.0, 16.0])
        assert np.array_equal(fractions, [0.0, 0.0])


def direct_loo_criterion(z, e2, grid, rows=256):
    """Scores and evaluable fractions from directly formed (z_j - z_i)**2, in row blocks.

    Each pair inside the largest window is binned by the first candidate
    whose window holds it, and the window sums of k, e2, d2 and d2 e2 are
    prefix sums over those bins; memory is O(rows * n).
    """
    n = z.size
    h2s = np.asarray(grid, dtype=float) ** 2
    g = h2s.size
    sq_err, evaluable = np.zeros(g), np.zeros(g)
    for start in range(0, n, rows):
        r = min(rows, n - start)
        d2 = (z[start:start + r, None] - z[None, :]) ** 2
        d2[np.arange(r), np.arange(start, start + r)] = np.inf
        row, col = np.nonzero(d2 < h2s.max())
        dist = d2[row, col]
        cell = row * g + np.searchsorted(h2s, dist, side="right")
        k, s_e, s_d, s_de = (
            np.cumsum(np.bincount(cell, weights=w, minlength=r * g).reshape(r, g), axis=1)
            for w in (None, e2[col], dist, dist * e2[col])
        )
        valid = k > 0
        smooth = np.divide(s_e - s_de / h2s, k - s_d / h2s, out=np.zeros(k.shape), where=valid)
        sq_err += np.sum((e2[start:start + r, None] - smooth) ** 2, axis=0)
        evaluable += np.sum(valid, axis=0)
    return sq_err / n, evaluable / n


class TestSortedScan:
    @pytest.mark.parametrize("n", [300, 2000, 8000])
    def test_index_scan_matches_direct_reference(self, n):
        # the one-column path: sorted windows and prefix sums per segment
        d, _ = generate_sample(n, 2, "smooth", replication_rng(1, 0))
        fs = first_step(d, SQUARE)
        points = smoothing_coordinates(d, fs, "sp-index")
        grid = default_grid(points)
        e2 = fs.residuals**2
        ref_scores, ref_fractions = direct_loo_criterion(points[:, 0], e2, grid)
        scores, fractions = _loo_scan(points, e2, grid)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        assert np.array_equal(fractions, ref_fractions)
        eligible = np.flatnonzero(ref_fractions >= MIN_VALID_FRACTION)
        best = eligible[np.argmin(ref_scores[eligible])]
        assert cv_bandwidth(d, fs, "sp-index").h_cv == grid[best]


class TestTranslationInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        mode=st.sampled_from(["np", "sp-index", "sp-proj"]),
        n=st.sampled_from([40, 151, BLOCK_ROWS + 50]),
        offset=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_offset_covariates_leave_cv_and_weights_unchanged(self, mode, n, offset, seed):
        # covariates, offsets, slope and eps are dyadic, so x + c and the
        # smoothing coordinates are exact and only the smoother's own
        # arithmetic can tell the two samples apart; the first step is fixed
        rng = np.random.default_rng(seed)
        dyadic = lambda v: np.round(np.asarray(v) * 2.0**20) / 2.0**20
        d, fs = random_fit(rng, n=n, q=2)
        d = Dataset(y=d.y, x=dyadic(d.x))
        shifted = Dataset(y=d.y, x=d.x + dyadic(offset))
        fs = FirstStepFit(beta=np.array([0.0, 1.0, 1.0]), residuals=fs.residuals)
        eps = 0.5 if mode == "sp-proj" else None
        res = cv_bandwidth(d, fs, mode, eps=eps)
        res_shifted = cv_bandwidth(shifted, fs, mode, eps=eps)
        np.testing.assert_allclose(res_shifted.scores, res.scores, rtol=1e-8, atol=0.0)
        assert list(res_shifted.grid).index(res_shifted.h_cv) == list(res.grid).index(res.h_cv)

        weights = {
            "np": lambda data: np_weights(data, SQUARE, fs, res.h_cv),
            "sp-index": lambda data: sp_index_weights(data, SQUARE, fs, res.h_cv),
            "sp-proj": lambda data: sp_projected_weights(data, SQUARE, fs, res.h_cv, eps),
        }[mode]
        np.testing.assert_allclose(weights(shifted), weights(d), rtol=1e-8, atol=0.0)
