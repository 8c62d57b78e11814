import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri as scipy_ndtri

from adaweight import (
    DataError,
    DegenerateDesignError,
    LossFunction,
    SimConfig,
    StudyError,
    generate_sample,
    replication_rng,
    run_replication,
    run_study,
    sigma_values,
    summarize_errors,
    true_beta,
)
import adaweight.simulation as simulation
from adaweight.simulation import standard_normal


class TestGenerateSample:
    def test_true_beta_q4(self):
        beta = true_beta(4)
        assert beta.shape == (5,)
        assert np.allclose(beta, 1.0 / np.sqrt(5.0))

    def test_disc_sigma_values(self):
        beta2 = true_beta(3)[1:]
        unit = beta2 / np.linalg.norm(beta2)
        x = np.vstack([-unit, unit])  # index -1 and +1
        sig = sigma_values("disc", x, beta2)
        assert sig[0] == 0.5 and sig[1] == 2.5

    def test_smooth_sigma_is_unit_projection(self):
        beta2 = true_beta(2)[1:]
        unit = beta2 / np.linalg.norm(beta2)
        sig = sigma_values("smooth", 1.7 * unit.reshape(1, -1), beta2)
        assert sig[0] == pytest.approx(1.7, rel=1e-12)

    def test_sample_moments(self):
        # 4 standard errors at n=1e5 is about 4e-2.5 per coordinate
        n = 10**5
        rng = replication_rng(123, 0)
        data, beta0 = generate_sample(n, 3, "disc", rng)
        tol = 4.0 / np.sqrt(n)
        assert np.all(np.abs(data.x.mean(axis=0)) < tol)
        eps = (data.y - beta0[0] - data.x @ beta0[1:]) / sigma_values(
            "disc", data.x, beta0[1:]
        )
        assert abs(eps.mean()) < tol
        assert abs(eps.std() - 1.0) < 3.0 * tol

    def test_deterministic_per_stream(self):
        d1, _ = generate_sample(50, 2, "smooth", replication_rng(9, 3))
        d2, _ = generate_sample(50, 2, "smooth", replication_rng(9, 3))
        assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.x, d2.x)
        d3, _ = generate_sample(50, 2, "smooth", replication_rng(9, 4))
        assert not np.array_equal(d1.y, d3.y)

    def test_draws_are_pinned(self):
        # Values of the inverse-CDF draws as first recorded; a change of the
        # normal quantile function or of the stream would move them.
        np.testing.assert_allclose(
            standard_normal(replication_rng(20260810, 0), 4),
            [0.2646930180986676, 1.7070383034936012, 0.8119100738359842,
             0.9281418060527817],
            rtol=1e-15, atol=0,
        )
        data, _ = generate_sample(5, 2, "smooth", replication_rng(1, 0))
        np.testing.assert_allclose(
            data.y,
            [0.6269665347144641, 1.854241195374819, 0.22293905354238464,
             0.8555841684647907, 0.8001250887108947],
            rtol=1e-15, atol=0,
        )

    def test_one_call_gives_the_two_draws(self):
        # x takes the first n * q uniforms row by row, eps the next n.
        for n, q in ((1000, 3), (5, 2), (500, 4)):
            data, beta0 = generate_sample(n, q, "smooth", replication_rng(3, 2))
            rng = replication_rng(3, 2)
            x = standard_normal(rng, (n, q))
            eps = standard_normal(rng, n)
            assert np.array_equal(data.x, x)
            sigma = sigma_values("smooth", x, beta0[1:])
            assert np.array_equal(data.y, beta0[0] + x @ beta0[1:] + sigma * eps)

    def test_top_uniform_gives_a_finite_normal(self):
        # 1 - 2**-53 + 2**-54 rounds to 1.0, whose quantile is +inf.
        class TopUniform:
            def random(self, shape):
                return np.full(shape, 1.0 - 2.0**-53)

        draws = standard_normal(TopUniform(), 3)
        assert np.all(np.isfinite(draws))
        assert np.all(draws == simulation.ndtri(np.array([1.0 - 2.0**-53])))

    def test_unknown_sigma_rejected(self):
        with pytest.raises(DataError):
            sigma_values("banana", np.ones((2, 2)), np.ones(2))


def ulps(got, want):
    """Distance of each ``got`` from ``want`` in units of the last place of ``want``."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def assert_matches_scipy(u):
    """Central draws equal ``scipy.special.ndtri`` bit for bit, tail draws within 8 ulp."""
    want = scipy_ndtri(u)
    got = simulation.ndtri(u)
    central = (u > simulation._EXPM2) & (u <= 1.0 - simulation._EXPM2)
    assert np.array_equal(got[central], want[central])
    assert np.all(np.isfinite(got)) and np.all(ulps(got, want) <= 8)
    return got != want


class TestNdtri:
    def test_matches_scipy_on_a_million_uniforms(self):
        u = np.random.Generator(np.random.Philox(34)).random(10**6) + 2.0**-54
        differ = assert_matches_scipy(u)
        # np.log differs from the C library's log in a few tail arguments.
        assert differ.mean() < 1e-3

    def test_matches_scipy_on_the_edges(self):
        edges = np.array([2.0**-54, 1.0 - 2.0**-53, 0.5, np.exp(-2.0), 1.0 - np.exp(-2.0),
                          simulation._EXPM2, 1.0 - simulation._EXPM2, np.exp(-32.0),
                          1.0 - np.exp(-32.0), 1e-300, 5e-324])
        below, above = np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)
        u = np.concatenate([edges, below, above, np.nextafter(below, 0.0),
                            np.nextafter(above, 1.0)])
        assert_matches_scipy(u[(u > 0.0) & (u < 1.0)])
        assert simulation.ndtri(np.array([0.5]))[0] == 0.0

    def test_matches_scipy_in_the_far_tail(self):
        # u or 1 - u below exp(-32) = 1.27e-14 take P2/Q2.
        rng = np.random.Generator(np.random.Philox(35))
        small = rng.random(20000) * 1.27e-14
        u = np.concatenate([small, 1.0 - small])
        u = u[(u > 0.0) & (u < 1.0)]
        assert_matches_scipy(u)

    def test_keeps_the_shape(self):
        u = np.array([[0.01, 0.5, 0.99], [0.2, 0.9, 1e-20]])
        got = simulation.ndtri(u)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), simulation.ndtri(u.ravel()))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            SimConfig(n=10, q=2, sigma="smooth", replications=0, seed=1)
        with pytest.raises(DataError):
            SimConfig(n=3, q=2, sigma="smooth", replications=1, seed=1)
        with pytest.raises(DataError):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, methods=("nope",))
        with pytest.raises(DataError):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, bandwidth=-1.0)
        for h in (float("nan"), 0.0):
            with pytest.raises(DataError, match="bandwidth must be positive, got"):
                SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, bandwidth=h)
        with pytest.raises(DataError):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, bandwidth="tiny")
        with pytest.raises(DataError, match="1e\\+200 is too large"):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, bandwidth=1e200)
        with pytest.raises(DataError, match="1e-200 is too small"):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, bandwidth=1e-200)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=-1)

    def test_repeated_method_rejected(self):
        with pytest.raises(DataError, match=r"\['np', 'sp'\] are repeated"):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1,
                      methods=("sp", "np", "first-step", "np", "sp"))


class TestRunReplication:
    def test_homoscedastic_oracle_equals_first_step(self):
        cfg = SimConfig(
            n=100, q=2, sigma="constant", replications=1, seed=5,
            methods=("first-step", "oracle"),
        )
        out = run_replication(cfg, 0)
        diff = abs(out["first-step"].sq_error - out["oracle"].sq_error)
        assert diff <= 1e-12

    def test_bitwise_repeatable(self):
        cfg = SimConfig(n=150, q=2, sigma="disc", replications=1, seed=11)
        a = run_replication(cfg, 0)
        b = run_replication(cfg, 0)
        for method in cfg.methods:
            assert a[method].sq_error == b[method].sq_error
            assert np.array_equal(a[method].beta, b[method].beta)

    def test_all_methods_succeed_at_moderate_n(self):
        cfg = SimConfig(n=200, q=2, sigma="smooth", replications=1, seed=17)
        for r in range(20):
            out = run_replication(cfg, r)
            for method in cfg.methods:
                assert out[method].ok
                assert np.isfinite(out[method].sq_error)
                assert out[method].sq_error >= 0.0

    def test_methods_share_the_sample(self):
        # identical first-step error whether or not other methods run
        lean = SimConfig(n=120, q=2, sigma="disc", replications=1, seed=23,
                         methods=("first-step",))
        full = SimConfig(n=120, q=2, sigma="disc", replications=1, seed=23)
        assert (
            run_replication(lean, 4)["first-step"].sq_error
            == run_replication(full, 4)["first-step"].sq_error
        )


#: Ties, signed zeros, subnormals and huge magnitudes for the quartile helper.
ODD_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e300, -1e300, 1.7e308]


class TestSummaries:
    def test_fixed_error_vector(self):
        stats = summarize_errors([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats["median"] == 3.0
        assert stats["q1"] == 2.0
        assert stats["q3"] == 4.0
        assert stats["mean"] == 3.0
        assert stats["min"] == 1.0 and stats["max"] == 5.0

    def test_single_replication(self):
        stats = summarize_errors([0.7])
        assert stats["min"] == stats["median"] == stats["max"] == 0.7
        assert stats["variance"] == 0.0

    def test_ordering_invariant(self):
        rng = np.random.default_rng(31)
        stats = summarize_errors(rng.exponential(size=200))
        assert (
            stats["min"] <= stats["q1"] <= stats["median"]
            <= stats["q3"] <= stats["max"]
        )

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize_errors([])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(ODD_FLOATS), st.floats()), min_size=1,
                    max_size=60))
    def test_quartiles_have_the_bits_of_np_quantile(self, values):
        values = np.array(values)
        with np.errstate(all="ignore"):
            expected = np.quantile(values, [0.25, 0.5, 0.75])
            got = simulation.quartiles(values)
        assert np.array(got).tobytes() == expected.tobytes()


class TestRunStudy:
    def test_worker_count_does_not_change_results(self):
        cfg = SimConfig(n=80, q=2, sigma="disc", replications=6, seed=3,
                        methods=("first-step", "np"))
        r1 = run_study(cfg, workers=1)
        r4 = run_study(cfg, workers=4)
        for method in cfg.methods:
            assert np.array_equal(r1.errors(method), r4.errors(method))

    def test_summary_shape(self):
        cfg = SimConfig(n=80, q=2, sigma="disc", replications=5, seed=3,
                        methods=("first-step", "oracle"))
        summary = run_study(cfg).summary()["methods"]
        assert set(summary) == {"first-step", "oracle"}
        for stats in summary.values():
            assert list(stats)[:3] == ["count", "failed", "nonconverged"]
            assert stats["count"] == 5 and stats["failed"] == 0 and stats["nonconverged"] == 0

    def test_nonconverged_counts_ok_rows_of_stopped_fits(self, monkeypatch):
        # power:1.2 fits whose certificate is out of floating-point reach
        # stop at the iteration cap or at a repeated iterate, unconverged
        cfg = SimConfig(n=100, q=2, sigma="smooth", replications=8, seed=1,
                        methods=("first-step", "parametric", "oracle"),
                        loss=LossFunction.power(1.2))
        stopped = {"first step": 0, "final fit": 0}
        first_step, weighted_fit = simulation.first_step, simulation.weighted_fit

        def counted(fit, kind):
            def wrapper(*args):
                result = fit(*args)
                stopped[kind] += not result.converged
                return result
            return wrapper

        monkeypatch.setattr(simulation, "first_step", counted(first_step, "first step"))
        monkeypatch.setattr(simulation, "weighted_fit", counted(weighted_fit, "final fit"))
        result = run_study(cfg)
        summary = result.summary()["methods"]
        assert all(summary[m]["failed"] == 0 for m in cfg.methods)
        assert summary["first-step"]["nonconverged"] == stopped["first step"]
        assert summary["parametric"]["nonconverged"] + summary["oracle"]["nonconverged"] == \
            stopped["final fit"] > 0
        flags = [rep["oracle"].converged for rep in result.outcomes]
        assert summary["oracle"]["nonconverged"] == flags.count(False)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """``max_workers`` of every pool run_study builds, on a 2-CPU machine."""
        sizes = []
        real = concurrent.futures.ThreadPoolExecutor

        def recorder(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        # run_study imports the pool class where it builds a pool
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorder)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
        return sizes

    def test_workers_capped_at_cpu_count(self, pool_sizes):
        cfg = SimConfig(n=60, q=2, sigma="disc", replications=3, seed=3,
                        methods=("first-step",))
        result = run_study(cfg, workers=64)
        assert pool_sizes == [2]
        assert np.array_equal(result.errors("first-step"),
                              run_study(cfg, workers=1).errors("first-step"))

    def test_workers_capped_at_replication_count(self, pool_sizes):
        cfg = SimConfig(n=60, q=2, sigma="disc", replications=1, seed=3,
                        methods=("first-step", "oracle"))
        result = run_study(cfg, workers=64)
        assert pool_sizes == []
        assert result.summary() == run_study(cfg, workers=1).summary()

    def test_study_error_when_too_many_failures(self, monkeypatch):
        from adaweight.simulation import ReplicationOutcome

        cfg = SimConfig(n=80, q=2, sigma="disc", replications=10, seed=3,
                        methods=("first-step",))
        real = simulation.run_replication

        def flaky(config, r):
            if r % 3 == 0:
                return {
                    "first-step": ReplicationOutcome(
                        beta=None, sq_error=float("nan"),
                        status="degenerate-design",
                    )
                }
            return real(config, r)

        monkeypatch.setattr(simulation, "run_replication", flaky)
        with pytest.raises(StudyError, match="first-step"):
            simulation.run_study(cfg)

    def test_failures_recorded_not_raised(self, monkeypatch):
        from adaweight.simulation import ReplicationOutcome

        cfg = SimConfig(n=80, q=2, sigma="disc", replications=10, seed=3,
                        methods=("first-step",))
        real = simulation.run_replication

        def occasionally_bad(config, r):
            if r == 7:
                return {
                    "first-step": ReplicationOutcome(
                        beta=None, sq_error=float("nan"),
                        status="degenerate-design",
                    )
                }
            return real(config, r)

        monkeypatch.setattr(simulation, "run_replication", occasionally_bad)
        result = simulation.run_study(cfg)
        assert result.failures("first-step") == 1
        assert len(result.errors("first-step")) == 9


class TestFailedFirstStep:
    """A first step that fails in chosen replications, through ``simulation.first_step``."""

    cfg = SimConfig(n=80, q=2, sigma="disc", replications=5, seed=3, bandwidth=0.8)

    def fail_first_step(self, monkeypatch, replications):
        cfg = self.cfg
        bad = {generate_sample(cfg.n, cfg.q, cfg.sigma, replication_rng(cfg.seed, r))[0].y[0]
               for r in replications}
        real = simulation.first_step
        calls = []

        def first_step(data, loss):
            calls.append(data.y[0])
            if data.y[0] in bad:
                raise DegenerateDesignError("first step failed")
            return real(data, loss)

        monkeypatch.setattr(simulation, "first_step", first_step)
        return calls

    def test_only_methods_that_read_it_fail(self, monkeypatch):
        clean = run_replication(self.cfg, 2)
        calls = self.fail_first_step(monkeypatch, [2])
        out = run_replication(self.cfg, 2)
        assert len(calls) == 1
        for method in ("first-step", "parametric", "np", "sp"):
            assert out[method].status == "degenerate-design"
            assert out[method].beta is None
        assert out["oracle"].ok
        assert out["oracle"].sq_error == clean["oracle"].sq_error

    def test_oracle_alone_fits_no_first_step(self, monkeypatch):
        calls = self.fail_first_step(monkeypatch, [])
        cfg = SimConfig(n=80, q=2, sigma="disc", replications=1, seed=3, methods=("oracle",))
        assert run_replication(cfg, 0)["oracle"].ok
        assert calls == []

    def test_study_goes_on_below_the_failure_bound(self, monkeypatch):
        self.fail_first_step(monkeypatch, [4])  # 1 of 5 is not above 0.2
        result = run_study(self.cfg)
        failures = {method: result.failures(method) for method in self.cfg.methods}
        assert failures == {"first-step": 1, "parametric": 1, "np": 1, "sp": 1, "oracle": 0}

    def test_study_error_above_the_failure_bound(self, monkeypatch):
        self.fail_first_step(monkeypatch, [0, 3])
        with pytest.raises(StudyError, match="first-step"):
            run_study(self.cfg)
