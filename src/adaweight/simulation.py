"""Monte Carlo harness comparing the weighting methods.

Data-generating process: rows (X, eps) are independent standard normal in
R^(q+1), the coefficients are beta0 = (1, ..., 1)/sqrt(q+1), and

    Y = beta0_1 + beta0_2' X + sigma(X) * eps

with three conditional scale shapes:

* ``smooth``:   sigma(x) = b2'x / |b2|            (sign-changing, w0 unbounded)
* ``disc``:     sigma(x) = 1/2 + 2 * 1{b2'x > 0}  (discontinuous)
* ``constant``: sigma(x) = 1                      (homoscedastic diagnostic)

Each replication draws one sample shared by every requested method, fits,
and records the squared coefficient error |beta_hat - beta0|^2.  Replication
r uses its own deterministic substream derived from (seed, r) with a
counter-based generator, so results do not depend on execution order or on
the number of workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .bandwidth import cv_bandwidth
from .errors import DataError, NumericalError, StudyError
from .estimators import Dataset, fit_weighted_m, fit_wls
from .losses import LossFunction
from .weights import (
    epsilon_perturbation,
    first_step,
    np_weights,
    oracle_weights,
    parametric_weights,
    sp_projected_weights,
)

SIGMA_KINDS = ("smooth", "disc", "constant")
METHODS = ("first-step", "parametric", "np", "sp", "oracle")

#: A study aborts when any method fails in more than this fraction of reps.
MAX_FAILURE_FRACTION = 0.2


def true_beta(q: int) -> np.ndarray:
    """Coefficients (1, ..., 1)/sqrt(q+1), intercept included."""
    return np.full(1 + q, 1.0 / np.sqrt(q + 1.0))


def sigma_values(kind: str, x: np.ndarray, beta2: np.ndarray) -> np.ndarray:
    """Conditional scale sigma(x) for each covariate row."""
    if kind == "smooth":
        return x @ beta2 / np.linalg.norm(beta2)
    if kind == "disc":
        return 0.5 + 2.0 * (x @ beta2 > 0)
    if kind == "constant":
        return np.ones(x.shape[0])
    raise DataError(f"unknown sigma kind {kind!r}")


def inverse_variance_map(kind: str):
    """Weight family (x, beta) -> 1/sigma(x; beta_2)^2 for the given shape."""

    def family(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
        sig = sigma_values(kind, x, np.asarray(beta, dtype=float)[1:])
        return 1.0 / sig**2

    return family


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based substream for one replication of one study."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(seq))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF standard normals, stable across runs for a fixed stream."""
    u = rng.random(shape) + 2.0**-54
    return ndtri(u)


def generate_sample(
    n: int, q: int, sigma_kind: str, rng: np.random.Generator
) -> tuple[Dataset, np.ndarray]:
    """One heteroscedastic sample; returns (dataset, true beta)."""
    beta0 = true_beta(q)
    x = standard_normal(rng, (n, q))
    eps = standard_normal(rng, n)
    sigma = sigma_values(sigma_kind, x, beta0[1:])
    y = beta0[0] + x @ beta0[1:] + sigma * eps
    return Dataset(y=y, x=x), beta0


@dataclass(frozen=True)
class SimConfig:
    """Description of one Monte Carlo study."""

    n: int
    q: int
    sigma: str
    replications: int
    seed: int
    methods: tuple[str, ...] = METHODS
    bandwidth: float | str = "cv"
    loss: LossFunction = field(default_factory=LossFunction.square)

    def __post_init__(self):
        if self.sigma not in SIGMA_KINDS:
            raise DataError(
                f"sigma must be one of {SIGMA_KINDS}, got {self.sigma!r}"
            )
        if self.replications < 1:
            raise DataError("replications must be >= 1")
        if self.q < 1:
            raise DataError("q must be >= 1")
        if self.n < self.q + 2:
            raise DataError(f"n={self.n} is too small for q={self.q}")
        object.__setattr__(self, "methods", tuple(self.methods))
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise DataError(f"unknown methods {unknown}; choose from {METHODS}")
        if not self.methods:
            raise DataError("at least one method is required")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "cv":
                raise DataError("bandwidth must be 'cv' or a positive real")
        elif not self.bandwidth > 0:
            raise DataError("bandwidth must be 'cv' or a positive real")


@dataclass(frozen=True)
class ReplicationOutcome:
    """Result of one method inside one replication."""

    beta: np.ndarray | None
    sq_error: float
    status: str
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _final_fit(data: Dataset, config: SimConfig, w: np.ndarray) -> np.ndarray:
    if config.loss.family == "square":
        return fit_wls(data, w).beta
    return fit_weighted_m(data, config.loss, w).beta


def _bandwidth_for(data, fs, mode, config, eps=None) -> float:
    if config.bandwidth == "cv":
        return cv_bandwidth(data, fs, mode, eps=eps).h_cv
    return float(config.bandwidth)


def run_replication(config: SimConfig, replication: int) -> dict[str, ReplicationOutcome]:
    """Run every requested method on one shared sample.

    Per-method numerical failures are recorded (status = error category),
    never raised, so one bad replication cannot abort a study.
    """
    rng = replication_rng(config.seed, replication)
    data, beta0 = generate_sample(config.n, config.q, config.sigma, rng)
    fs = first_step(data, config.loss)

    outcomes: dict[str, ReplicationOutcome] = {}
    for method in config.methods:
        try:
            if method == "first-step":
                beta = fs.beta
            elif method == "parametric":
                w = parametric_weights(inverse_variance_map(config.sigma), fs, data)
                beta = _final_fit(data, config, w)
            elif method == "np":
                h = _bandwidth_for(data, fs, "np", config)
                w = np_weights(data, config.loss, fs, h)
                beta = _final_fit(data, config, w)
            elif method == "sp":
                eps = epsilon_perturbation(data, fs)
                h = _bandwidth_for(data, fs, "sp-proj", config, eps=eps)
                w = sp_projected_weights(data, config.loss, fs, h, eps)
                beta = _final_fit(data, config, w)
            else:  # oracle
                family = inverse_variance_map(config.sigma)
                w = oracle_weights(lambda x: family(x, beta0), data)
                beta = _final_fit(data, config, w)
        except NumericalError as exc:
            outcomes[method] = ReplicationOutcome(
                beta=None, sq_error=float("nan"), status=exc.category, message=str(exc)
            )
            continue
        sq_error = float(np.sum((beta - beta0) ** 2))
        outcomes[method] = ReplicationOutcome(beta=beta, sq_error=sq_error, status="ok")
    return outcomes


def summarize_errors(errors) -> dict[str, float]:
    """Boxplot statistics of a squared-error sample.

    Quartiles use linear interpolation between order statistics; the
    variance is the sample variance (0.0 for a single replication).
    """
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise DataError("cannot summarize an empty error vector")
    q1, med, q3 = np.quantile(e, [0.25, 0.5, 0.75])
    return {
        "min": float(np.min(e)),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(np.max(e)),
        "mean": float(np.mean(e)),
        "variance": float(np.var(e, ddof=1)) if e.size > 1 else 0.0,
    }


@dataclass(frozen=True)
class StudyResult:
    """All replication outcomes of one study, keyed by replication index."""

    config: SimConfig
    outcomes: list[dict[str, ReplicationOutcome]]

    def errors(self, method: str) -> np.ndarray:
        """Squared errors of the successful replications of one method."""
        return np.array(
            [rep[method].sq_error for rep in self.outcomes if rep[method].ok]
        )

    def betas(self, method: str) -> np.ndarray:
        """Fitted coefficient vectors of the successful replications."""
        rows = [rep[method].beta for rep in self.outcomes if rep[method].ok]
        return np.array(rows)

    def failures(self, method: str) -> int:
        return sum(1 for rep in self.outcomes if not rep[method].ok)

    def summary(self) -> dict[str, dict]:
        out = {}
        for method in self.config.methods:
            stats = summarize_errors(self.errors(method))
            out[method] = {
                "count": len(self.outcomes) - self.failures(method),
                "failed": self.failures(method),
                **stats,
            }
        return out


def run_study(config: SimConfig, workers: int = 1) -> StudyResult:
    """Run all replications; deterministic for a fixed config and any workers."""
    if workers < 1:
        raise DataError("workers must be >= 1")
    indices = range(config.replications)
    if workers == 1:
        outcomes = [run_replication(config, r) for r in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda r: run_replication(config, r), indices))

    for method in config.methods:
        failed = sum(1 for rep in outcomes if not rep[method].ok)
        if failed > MAX_FAILURE_FRACTION * config.replications:
            raise StudyError(
                f"method {method!r} failed in {failed} of "
                f"{config.replications} replications"
            )
    return StudyResult(config=config, outcomes=outcomes)
