"""Invariance of the reported estimate: beta and standard errors of a whole fit.

Each example runs the pipeline of ``adaweight fit`` at a fixed bandwidth:
first step, weights, weighted fit, sandwich covariance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaweight import (
    Dataset,
    DegenerateDesignError,
    LossFunction,
    epsilon_perturbation,
    first_step,
    generate_sample,
    inverse_variance_map,
    np_weights,
    oracle_weights,
    parametric_weights,
    replication_rng,
    sandwich_covariance,
    sp_index_weights,
    sp_projected_weights,
)
from adaweight.weights import weighted_fit

LOSSES = {
    "square": LossFunction.square(),
    "huber:1.345": LossFunction.huber(1.345),
    "power:1.5": LossFunction.power(1.5),
}
ROUTES = ("constant", "parametric", "oracle", "np", "sp-index", "sp-proj")
H = 0.8
RTOL = 1e-9


def estimate(data, loss, route, beta0):
    """``(beta, standard errors)`` of one fit at bandwidth ``H``."""
    fs = first_step(data, loss)
    family = inverse_variance_map("disc")
    if route == "constant":
        w = np.ones(data.n)
    elif route == "parametric":
        w = parametric_weights(family, fs, data)
    elif route == "oracle":
        w = oracle_weights(lambda x: family(x, beta0), data)
    elif route == "np":
        w = np_weights(data, loss, fs, H)
    elif route == "sp-index":
        w = sp_index_weights(data, loss, fs, H)
    else:
        w = sp_projected_weights(data, loss, fs, H, epsilon_perturbation(data, fs))
    fit = weighted_fit(data, loss, w)
    return fit.beta, np.sqrt(np.diag(sandwich_covariance(data, loss, w, fit.beta)))


samples = dict(n=st.integers(40, 300), seed=st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("loss", sorted(LOSSES))
@pytest.mark.parametrize("route", ROUTES)
@settings(max_examples=10, deadline=None)
@given(**samples)
def test_row_permutation_leaves_estimate_unchanged(route, loss, n, seed):
    data, beta0 = generate_sample(n, 2, "disc", replication_rng(seed, 0))
    perm = np.random.default_rng(seed).permutation(n)
    beta, se = estimate(data, LOSSES[loss], route, beta0)
    beta_p, se_p = estimate(Dataset(y=data.y[perm], x=data.x[perm]), LOSSES[loss], route, beta0)
    np.testing.assert_allclose(beta_p, beta, rtol=RTOL, atol=0)
    np.testing.assert_allclose(se_p, se, rtol=RTOL, atol=0)


# sp-proj is left out: its epsilon scales as n^-1/2 by design, so doubling
# the rows moves the smoothing geometry and with it beta
@pytest.mark.parametrize("loss", sorted(LOSSES))
@pytest.mark.parametrize("route", ROUTES[:-1])
@settings(max_examples=10, deadline=None)
@given(**samples)
def test_duplicating_every_row_divides_standard_errors_by_sqrt2(route, loss, n, seed):
    data, beta0 = generate_sample(n, 2, "disc", replication_rng(seed, 0))
    beta, se = estimate(data, LOSSES[loss], route, beta0)
    twice = Dataset(y=np.tile(data.y, 2), x=np.tile(data.x, (2, 1)))
    beta_2, se_2 = estimate(twice, LOSSES[loss], route, beta0)
    np.testing.assert_allclose(beta_2, beta, rtol=RTOL, atol=0)
    np.testing.assert_allclose(se_2 * np.sqrt(2.0), se, rtol=RTOL, atol=0)


# Square loss only: Huber's threshold is a fixed residual size, so it is not
# scale-equivariant.  sp-index is left out: its smoothing coordinate is the
# index b2'x, which scales with y, so a fixed H is a different smoother.
@pytest.mark.parametrize("route", ("constant", "parametric", "oracle", "np", "sp-proj"))
@settings(max_examples=10, deadline=None)
@given(**samples, c=st.floats(1e-3, 1e4))
def test_scaling_y_scales_estimate(route, n, seed, c):
    data, beta0 = generate_sample(n, 2, "disc", replication_rng(seed, 0))
    beta, se = estimate(data, LOSSES["square"], route, beta0)
    scaled = Dataset(y=c * data.y, x=data.x)
    beta_c, se_c = estimate(scaled, LOSSES["square"], route, c * beta0)
    np.testing.assert_allclose(beta_c, c * beta, rtol=RTOL, atol=0)
    np.testing.assert_allclose(se_c, c * se, rtol=RTOL, atol=0)


# parametric and oracle are left out: the smooth and disc families read b2'x
# with no intercept, so their weights move by O(1) under a shift.
# Power losses are left out: the M-solver's absolute stop TOL is not
# translation-free, so a shift of 100 moves power:1.5 fits by up to 7e-8.
@pytest.mark.parametrize("c", (
    10.0,
    *(pytest.param(c, marks=pytest.mark.xfail(strict=True, raises=DegenerateDesignError,
                                              reason="ROADMAP item 5")) for c in (1e4, 1e6)),
))
@pytest.mark.parametrize("loss", ("square", "huber:1.345"))
@pytest.mark.parametrize("route", ("constant", "np", "sp-index", "sp-proj"))
def test_shifting_covariates_moves_only_the_intercept(route, loss, c):
    for seed, n in ((0, 80), (1, 150), (2, 300)):
        data, beta0 = generate_sample(n, 2, "disc", replication_rng(seed, 0))
        beta, se = estimate(data, LOSSES[loss], route, beta0)
        beta_c, se_c = estimate(Dataset(y=data.y, x=data.x + c), LOSSES[loss], route, beta0)
        np.testing.assert_allclose(beta_c[1:], beta[1:], rtol=RTOL, atol=0)
        np.testing.assert_allclose(se_c[1:], se[1:], rtol=RTOL, atol=0)
        np.testing.assert_allclose(beta_c[0], beta[0] - c * np.sum(beta[1:]), rtol=RTOL, atol=0)
