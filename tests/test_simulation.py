import numpy as np
import pytest

from adaweight import (
    DataError,
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

    def test_unknown_sigma_rejected(self):
        with pytest.raises(DataError):
            sigma_values("banana", np.ones((2, 2)), np.ones(2))


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
        with pytest.raises(DataError):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, bandwidth="tiny")
        with pytest.raises(DataError, match="1e\\+200 is too large"):
            SimConfig(n=50, q=2, sigma="smooth", replications=1, seed=1, bandwidth=1e200)


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
        summary = run_study(cfg).summary()
        assert set(summary) == {"first-step", "oracle"}
        for stats in summary.values():
            assert stats["count"] == 5 and stats["failed"] == 0

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
                        status="degenerate-design", message="synthetic",
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
                        status="degenerate-design", message="synthetic",
                    )
                }
            return real(config, r)

        monkeypatch.setattr(simulation, "run_replication", occasionally_bad)
        result = simulation.run_study(cfg)
        assert result.failures("first-step") == 1
        assert len(result.errors("first-step")) == 9
