"""Estimating the variance-minimizing weight function four ways.

On one heteroscedastic sample, compare the weight sequences produced by the
parametric plug-in, the Nadaraya-Watson smoother, single-index smoothing,
projected smoothing, and the oracle, plus the fits they induce.

Run:
    python3 demos/02_adaptive_weights.py
"""

import numpy as np

from adaweight import (
    LossFunction,
    cv_bandwidth,
    epsilon_perturbation,
    first_step,
    fit_wls,
    generate_sample,
    inverse_variance_map,
    np_weights,
    oracle_weights,
    parametric_weights,
    replication_rng,
    sp_index_weights,
    sp_projected_weights,
)


def main():
    n, q = 400, 3
    rng = replication_rng(2, 0)
    data, beta0 = generate_sample(n, q, "disc", rng)
    loss = LossFunction.square()
    fs = first_step(data, loss)

    print(f"sample: n={n}, q={q}, sigma jumps 0.5 -> 2.5 across the index hyperplane")
    print(f"true beta: {np.round(beta0, 4)}")
    print(f"first-step fit: {np.round(fs.beta, 4)}\n")

    family = inverse_variance_map("disc")
    eps = epsilon_perturbation(data, fs)
    h_np = cv_bandwidth(data, fs, "np").h_cv
    h_idx = cv_bandwidth(data, fs, "sp-index").h_cv
    h_proj = cv_bandwidth(data, fs, "sp-proj", eps=eps).h_cv
    print(f"cross-validated bandwidths: np={h_np:.3f}  sp-index={h_idx:.3f}  "
          f"sp-proj={h_proj:.3f}  (epsilon={eps:.4f})")

    routes = {
        "parametric": parametric_weights(family, fs, data),
        "np": np_weights(data, loss, fs, h_np),
        "sp-index": sp_index_weights(data, loss, fs, h_idx),
        "sp-proj": sp_projected_weights(data, loss, fs, h_proj, eps),
        "oracle": oracle_weights(lambda x: family(x, beta0), data),
    }

    print(f"\n{'route':<12} {'w min':>8} {'w med':>8} {'w max':>8} {'|beta err|^2':>14}")
    err0 = np.sum((fs.beta - beta0) ** 2)
    print(f"{'first-step':<12} {1.0:>8.3f} {1.0:>8.3f} {1.0:>8.3f} {err0:>14.6f}")
    for name, w in routes.items():
        beta = fit_wls(data, w).beta
        err = np.sum((beta - beta0) ** 2)
        print(f"{name:<12} {w.min():>8.3f} {np.median(w):>8.3f} {w.max():>8.3f} {err:>14.6f}")

    print("\none sample is noisy; demos/04_monte_carlo_study.py shows the")
    print("systematic ordering (oracle <= adaptive routes <= first-step)")


if __name__ == "__main__":
    main()
