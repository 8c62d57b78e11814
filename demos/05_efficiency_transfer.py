"""When does plugging in estimated weights cost nothing asymptotically?

The efficiency transfer (estimated weights behave like the unknown optimal
ones) needs the design density bounded away from zero on a compact support
and the optimal weight w0 = 1/sigma^2 bounded, bounded away from zero and
continuous, so that a kernel ratio can estimate it uniformly.  A jump in w0
is not estimated uniformly: with sigma jumping between 0.5 and 2.5 on the
same disk the ratio below stays near 1.3 at n = 2000.  This demo contrasts:

1. a bounded setting - covariates truncated to the disk |x| <= 2,
   sigma(x) = 1/2 + |b2'x|/|b2| so w0 lies in [0.16, 4] (the model of
   acceptance criterion 7) - where the variance ratio of the np-weighted fit
   to the oracle-weighted fit approaches 1, and
2. the unbounded stress setting - Gaussian covariates, sigma vanishing on a
   hyperplane so 1/sigma^2 blows up - where a clamped oracle is
   superefficient and kernel-estimated weights cannot keep up at any
   bandwidth.

Run:
    python3 demos/05_efficiency_transfer.py        (a few minutes)
"""

import numpy as np

from adaweight import (
    Dataset,
    LossFunction,
    SimConfig,
    cv_bandwidth,
    first_step,
    fit_wls,
    np_weights,
    oracle_weights,
    replication_rng,
    run_study,
    true_beta,
)
from adaweight.simulation import standard_normal

N, Q, REPS = 2000, 2, 60
SQUARE = LossFunction.square()


def lifted_sigma(x, beta2):
    return 0.5 + np.abs(x @ beta2) / np.linalg.norm(beta2)


def truncated_design_ratio():
    beta0 = true_beta(Q)
    betas_np, betas_or = [], []
    for r in range(REPS):
        rng = replication_rng(77, r)
        x = np.empty((0, Q))
        while len(x) < N:
            cand = standard_normal(rng, (N, Q))
            x = np.vstack([x, cand[np.sum(cand**2, axis=1) <= 4.0]])
        x = x[:N]
        sig = lifted_sigma(x, beta0[1:])
        y = beta0[0] + x @ beta0[1:] + sig * standard_normal(rng, N)
        d = Dataset(y=y, x=x)
        fs = first_step(d, SQUARE)
        h = cv_bandwidth(d, fs, "np").h_cv
        betas_np.append(fit_wls(d, np_weights(d, SQUARE, fs, h)).beta)
        w0 = oracle_weights(lambda xx: lifted_sigma(xx, beta0[1:]) ** -2.0, d)
        betas_or.append(fit_wls(d, w0).beta)
    tn = np.trace(np.cov(np.array(betas_np), rowvar=False))
    to = np.trace(np.cov(np.array(betas_or), rowvar=False))
    return tn, to


def main():
    print("=== 1. bounded weights, compact design (theory conditions hold) ===")
    tn, to = truncated_design_ratio()
    print(f"  trace covariance, np weights:     {tn:.3e}")
    print(f"  trace covariance, oracle weights: {to:.3e}")
    print(f"  ratio: {tn / to:.2f}   (approaches 1 as n grows)")

    print("\n=== 2. unbounded optimal weights (stress case) ===")
    cfg = SimConfig(n=N, q=Q, sigma="smooth", replications=REPS, seed=77,
                    methods=("np", "oracle"))
    res = run_study(cfg, workers=4)
    tn = np.trace(np.cov(res.betas("np"), rowvar=False))
    to = np.trace(np.cov(res.betas("oracle"), rowvar=False))
    print(f"  trace covariance, np weights:     {tn:.3e}")
    print(f"  trace covariance, oracle weights: {to:.3e}")
    print(f"  ratio: {tn / to:.2f}")
    print("  the clamped oracle exploits near-noiseless points on the")
    print("  sigma=0 hyperplane; no kernel bandwidth resolves that far down,")
    print("  so the ratio stays well above 1 at practical sample sizes")


if __name__ == "__main__":
    main()
