"""Weighted least squares and Huber M-estimation on heteroscedastic data.

Demonstrates:
- closed-form WLS with precision weights (1/variance)
- the iterative M-estimator agreeing with WLS for the square loss
- Huber downweighting a gross outlier that wrecks the square-loss fit
- sandwich standard errors

Run:
    python3 demos/01_weighted_fits.py
"""

import numpy as np

from adaweight import (
    Dataset,
    LossFunction,
    fit_weighted_m,
    fit_wls,
    sandwich_covariance,
)


def main():
    rng = np.random.default_rng(1)
    n = 200
    x = rng.normal(size=(n, 2))
    beta_true = np.array([1.0, 2.0, -1.0])
    sigma = 0.5 + np.abs(x[:, 0])  # noise grows with |x1|
    y = beta_true[0] + x @ beta_true[1:] + sigma * rng.normal(size=n)
    data = Dataset(y=y, x=x)

    print("=== 1. OLS vs precision-weighted WLS ===")
    unit, precision = np.ones(n), 1.0 / sigma**2
    ols = fit_wls(data, unit)
    wls = fit_wls(data, precision)
    print(f"  true beta:      {beta_true}")
    print(f"  OLS:            {np.round(ols.beta, 4)}  |err|^2 = {np.sum((ols.beta-beta_true)**2):.5f}")
    print(f"  WLS (1/var):    {np.round(wls.beta, 4)}  |err|^2 = {np.sum((wls.beta-beta_true)**2):.5f}")

    print("\n=== 2. Sandwich standard errors ===")
    for name, weights, fit in (("OLS", unit, ols), ("WLS", precision, wls)):
        cov = sandwich_covariance(data, LossFunction.square(), weights, fit.beta)
        ses = np.sqrt(np.diag(cov))
        print(f"  {name}: SE = {np.round(ses, 4)}")

    print("\n=== 3. Iterative solver agrees with the closed form ===")
    w = rng.uniform(0.5, 2.0, n)
    direct = fit_wls(data, w)
    iterated = fit_weighted_m(data, LossFunction.square(), w)
    gap = np.max(np.abs(direct.beta - iterated.beta))
    print(f"  max coefficient gap: {gap:.2e} ({iterated.iterations} Newton steps)")

    print("\n=== 4. Huber loss shrugs off an outlier ===")
    y_bad = y.copy()
    y_bad[0] += 300.0
    contaminated = Dataset(y=y_bad, x=x)
    square = fit_wls(contaminated, np.ones(n))
    huber = fit_weighted_m(contaminated, LossFunction.huber(1.0), np.ones(n))
    print(f"  square loss:  {np.round(square.beta, 3)}")
    print(f"  huber c=1:    {np.round(huber.beta, 3)}  "
          f"(converged={huber.converged}, grad={huber.gradient_norm:.1e})")


if __name__ == "__main__":
    main()
