"""Desk-scale Monte Carlo comparison of the weighting methods.

Reproduces the qualitative picture of the full study: every adaptive method
lands between the unweighted first-step fit and the oracle, with the
semiparametric route in front.

Run:
    python3 demos/04_monte_carlo_study.py          (about a minute)
"""

import numpy as np

from adaweight import SimConfig, run_study


def main():
    for sigma, label in (("smooth", "smooth sigma (projection)"),
                         ("disc", "discontinuous sigma (jump 0.5 -> 2.5)")):
        cfg = SimConfig(n=300, q=4, sigma=sigma, replications=60, seed=42)
        result = run_study(cfg, workers=4)
        print(f"=== {label}: n={cfg.n}, q={cfg.q}, {cfg.replications} replications ===")
        print(f"{'method':<12} {'q1':>10} {'median':>10} {'q3':>10} {'mean':>10}")
        summary = result.summary()["methods"]
        for method in cfg.methods:
            s = summary[method]
            print(f"{method:<12} {s['q1']:>10.5f} {s['median']:>10.5f} "
                  f"{s['q3']:>10.5f} {s['mean']:>10.5f}")
        print()


if __name__ == "__main__":
    main()
