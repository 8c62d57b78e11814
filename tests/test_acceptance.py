"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; the
Monte Carlo criteria use the fixed default seed so results are exactly
reproducible.  The heavy studies run once and are shared across criteria.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import adaweight as aw
from adaweight import LossFunction
from adaweight.cli import main as cli_main
from adaweight.simulation import standard_normal

SEED = 20260810
SQUARE = LossFunction.square()

_study_cache = {}


def study(n, q, sigma, reps):
    key = (n, q, sigma, reps)
    if key not in _study_cache:
        cfg = aw.SimConfig(n=n, q=q, sigma=sigma, replications=reps, seed=SEED)
        _study_cache[key] = aw.run_study(cfg, workers=4)
    return _study_cache[key]


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def random_instance(rng, n=50, q=3):
    x = rng.normal(size=(n, q))
    beta = rng.normal(size=1 + q)
    y = beta[0] + x @ beta[1:] + rng.normal(size=n)
    w = rng.uniform(0.1, 2.0, size=n)
    return aw.Dataset(y=y, x=x), w


def test_criterion_1_kernel_normalization():
    exact = aw.epanechnikov_constant(1) == 0.75
    worst = 0.0
    for q in range(1, 11):
        kernel = aw.EpanechnikovKernel(q)
        area = q * aw.ball_volume(q)
        val, _ = integrate.quad(
            lambda r: kernel.profile(r * r) * area * r ** (q - 1), 0.0, 1.0
        )
        worst = max(worst, abs(val - 1.0))
    ok = exact and worst <= 1e-3
    report(1, ok, f"c1 exact={exact}, max |integral-1| over q=1..10 = {worst:.2e}")


def test_criterion_2_wls_oracles():
    d3 = aw.Dataset(y=np.array([0.0, 1.0, 0.0]), x=np.array([[0.0], [1.0], [2.0]]))
    gap_a = np.max(np.abs(aw.fit_wls(d3, np.ones(3)).beta - [1.0 / 3.0, 0.0]))
    gap_b = np.max(np.abs(aw.fit_wls(d3, np.array([1.0, 2.0, 1.0])).beta - [0.5, 0.0]))

    rng = np.random.default_rng(SEED)
    worst_interp, worst_scale = 0.0, 0.0
    for _ in range(100):
        n, q = 30, 2
        x = rng.normal(size=(n, q))
        beta = rng.normal(size=1 + q)
        w = rng.uniform(0.1, 3.0, size=n)
        exact = aw.Dataset(y=beta[0] + x @ beta[1:], x=x)
        worst_interp = max(
            worst_interp, np.max(np.abs(aw.fit_wls(exact, w).beta - beta))
        )
        noisy = aw.Dataset(y=exact.y + rng.normal(size=n), x=x)
        b1 = aw.fit_wls(noisy, w).beta
        b2 = aw.fit_wls(noisy, rng.uniform(0.01, 100.0) * w).beta
        worst_scale = max(worst_scale, np.max(np.abs(b1 - b2)))

    ok = max(gap_a, gap_b) <= 1e-10 and worst_interp <= 1e-10 and worst_scale <= 1e-10
    report(
        2,
        ok,
        f"hand fits {max(gap_a, gap_b):.1e}, interpolation {worst_interp:.1e}, "
        f"scale invariance {worst_scale:.1e}",
    )


def test_criterion_3_solver_equivalence():
    rng = np.random.default_rng(SEED + 1)
    worst_sq, worst_hb = 0.0, 0.0
    for _ in range(100):
        d, w = random_instance(rng)
        wls = aw.fit_wls(d, w).beta
        worst_sq = max(worst_sq, np.max(np.abs(aw.fit_weighted_m(d, SQUARE, w).beta - wls)))
        worst_hb = max(
            worst_hb,
            np.max(np.abs(aw.fit_weighted_m(d, LossFunction.huber(1e6), w).beta - wls)),
        )
    ok = worst_sq <= 1e-8 and worst_hb <= 1e-6
    report(3, ok, f"square gap {worst_sq:.1e} (<=1e-8), huber 1e6 gap {worst_hb:.1e} (<=1e-6)")


def test_criterion_4_estimating_equation_certificate():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    checked = 0
    for loss in (SQUARE, LossFunction.huber(1.0), LossFunction.power(1.5)):
        for _ in range(40):
            d, w = random_instance(rng)
            fit = aw.fit_weighted_m(d, loss, w)
            if not fit.converged:
                continue
            # re-verified outside the solver: direct numpy evaluation
            xt = np.column_stack([np.ones(d.n), d.x])
            e = d.y - xt @ fit.beta
            score = loss.rho_prime(np.abs(e)) * np.sign(e)
            resid = np.max(np.abs(xt.T @ (w * score) / d.n))
            worst = max(worst, resid)
            checked += 1
    ok = checked >= 100 and worst <= 1e-10
    report(4, ok, f"{checked} converged fits, worst certificate {worst:.2e} (<=1e-10)")


def test_criterion_5_method_orderings():
    adaptive = ("parametric", "np", "sp")
    details = []
    ok = True
    for sigma in ("smooth", "disc"):
        res = study(500, 4, sigma, 200)
        med = {m: float(np.median(res.errors(m))) for m in aw.METHODS}
        for m in adaptive:
            ok &= med["oracle"] < med[m] < med["first-step"]
        ok &= med["sp"] < med["np"]
        details.append(
            sigma + " " + " ".join(f"{m}={med[m]:.5f}" for m in aw.METHODS)
        )
    report(5, ok, "; ".join(details))


def test_criterion_6_consistency_trend():
    meds = {}
    for n in (50, 100, 500):
        res = study(n, 4, "smooth", 200)
        meds[n] = {m: float(np.median(res.errors(m))) for m in aw.METHODS}
    ok = all(
        meds[500][m] < meds[100][m] < meds[50][m] for m in aw.METHODS
    )
    detail = "; ".join(
        f"{m}: {meds[50][m]:.4f} > {meds[100][m]:.4f} > {meds[500][m]:.4f}"
        for m in aw.METHODS
    )
    report(6, ok, detail)


def lifted_sigma(x, beta2):
    """Scale 1/2 + |b2'x|/|b2|: the ``smooth`` shape lifted off zero."""
    return 0.5 + np.abs(x @ beta2) / np.linalg.norm(beta2)


def compact_sample(n, q, rng):
    """Gaussian rows kept where |x| <= 2, with scale :func:`lifted_sigma`."""
    beta0 = aw.true_beta(q)
    x = np.empty((0, q))
    while len(x) < n:
        cand = standard_normal(rng, (n, q))
        x = np.vstack([x, cand[np.sum(cand**2, axis=1) <= 4.0]])
    x = x[:n]
    y = beta0[0] + x @ beta0[1:] + lifted_sigma(x, beta0[1:]) * standard_normal(rng, n)
    return aw.Dataset(y=y, x=x), beta0


def efficiency_replication(seed, r):
    """First-step, np (CV bandwidth) and oracle coefficients on one sample."""
    d, beta0 = compact_sample(2000, 2, aw.replication_rng(seed, r))
    fs = aw.first_step(d, SQUARE)
    h = aw.cv_bandwidth(d, fs, "np").h_cv
    b_np = aw.fit_wls(d, aw.np_weights(d, SQUARE, fs, h)).beta
    w0 = aw.oracle_weights(lambda x: lifted_sigma(x, beta0[1:]) ** -2.0, d)
    return fs.beta, b_np, aw.fit_wls(d, w0).beta


def efficiency_variances(seed):
    """Per-coefficient variances of the first-step, np and oracle fits."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        rows = list(pool.map(lambda r: efficiency_replication(seed, r), range(300)))
    return [np.diag(np.cov(np.array(b), rowvar=False)) for b in zip(*rows)]


def test_criterion_7_efficiency_ratio():
    """Estimated weights match the oracle's variance where the theory applies.

    Model: Gaussian covariates (n = 2000, q = 2) truncated to the disk
    |x| <= 2, coefficients ``true_beta(2)``, scale
    sigma(x) = 1/2 + |b2'x|/|b2|.  It meets the conditions of the efficiency
    transfer: the design is compact with density bounded below, and
    w0 = 1/sigma^2 lies in [0.16, 4] and is continuous, so the kernel ratio
    estimates it uniformly.  The np fit (CV bandwidth) must then have the
    oracle-weighted fit's asymptotic variance: the trace ratio over 300
    replications must fall in [0.8, 1.3].  The first-step fit, whose weights
    do not adapt, sits well above the window on the same samples.

    The criterion used to pin the ``smooth`` scale b2'x/|b2| on the
    untruncated Gaussian design.  There sigma vanishes on a hyperplane, so
    w0 is unbounded, the clamped oracle is superefficient and the two fits
    share no asymptotic variance.  At SEED the np/oracle variance ratios
    were 250 for the intercept (1.07e-4 vs 4.3e-7) and 1.68 and 1.70 for the
    slopes, trace ratio 1.91; demos/05_efficiency_transfer.py part 2 shows
    that regime.
    """
    v_fs, v_np, v_or = efficiency_variances(SEED)
    t_np, t_or = float(np.sum(v_np)), float(np.sum(v_or))
    ratio = t_np / t_or
    ok = 0.8 <= ratio <= 1.3
    per_coef = ", ".join(f"{v:.3f}" for v in v_np / v_or)
    report(
        7,
        ok,
        f"trace ratio np/oracle = {ratio:.3f} (window [0.8, 1.3]); "
        f"traces {t_np:.3e} / {t_or:.3e}; per coefficient np/oracle "
        f"[{per_coef}]; first-step/oracle {float(np.sum(v_fs)) / t_or:.3f}",
    )


def test_criterion_8_sandwich_coverage():
    z = norm.ppf(0.975)
    cover = 0
    reps = 500
    for r in range(reps):
        rng = aw.replication_rng(SEED, r)
        d, beta0 = aw.generate_sample(500, 4, "constant", rng)
        fit = aw.fit_wls(d, np.ones(500))
        cov = aw.sandwich_covariance(d, SQUARE, np.ones(500), fit.beta)
        half = z * np.sqrt(cov[0, 0])
        cover += fit.beta[0] - half <= beta0[0] <= fit.beta[0] + half
    rate = cover / reps
    ok = 0.90 <= rate <= 0.98
    report(8, ok, f"95% interval coverage of the intercept = {rate:.3f} (in [0.90, 0.98])")


def test_criterion_9_epsilon_behavior():
    rng = np.random.default_rng(SEED + 3)
    nonneg = True
    for _ in range(100):
        x = rng.normal(size=(60, 3))
        y = 1.0 + x @ np.ones(3) + rng.normal(size=60) * (1 + np.abs(x[:, 0]))
        d = aw.Dataset(y=y, x=x)
        nonneg &= aw.epsilon_perturbation(d, aw.first_step(d, SQUARE)) >= 0.0

    x = rng.normal(size=(40, 3))
    exact = aw.Dataset(y=2.0 + x @ np.array([1.0, -1.0, 0.5]), x=x)
    eps_exact = aw.epsilon_perturbation(exact, aw.first_step(exact, SQUARE))

    medians = {}
    for n in (400, 1600):
        vals = []
        for r in range(100):
            d, _ = aw.generate_sample(n, 4, "smooth", aw.replication_rng(SEED, r))
            vals.append(aw.epsilon_perturbation(d, aw.first_step(d, SQUARE)))
        medians[n] = float(np.median(vals))

    ok = nonneg and eps_exact <= 1e-12 and medians[1600] < medians[400]
    report(
        9,
        ok,
        f"nonnegative={nonneg}, exact-fit eps={eps_exact:.1e}, "
        f"median eps n=400 {medians[400]:.4f} > n=1600 {medians[1600]:.4f}",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    base = [
        "simulate", "--n", "120", "--q", "2", "--sigma", "disc",
        "--methods", "first-step,np,sp,oracle", "--reps", "8", "--seed", "13",
    ]
    digests = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out_dir = tmp_path / name
        code = cli_main(base + ["--out", str(out_dir), "--workers", workers])
        capsys.readouterr()
        assert code == 0
        digests.append(
            hashlib.sha256((out_dir / "errors.csv").read_bytes()).hexdigest()
        )
    ok = digests[0] == digests[1] == digests[2]
    report(10, ok, f"errors.csv sha256 identical across runs and workers 1 vs 4: {ok}")
