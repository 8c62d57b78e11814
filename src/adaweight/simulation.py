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
the number of workers.  The normals come from the uniforms through
``ndtri``, a numpy port of Cephes' normal quantile, so this module, like
the rest of the package, loads numpy and the standard library only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import cv_bandwidth
from .errors import DataError, NumericalError, StudyError
from .estimators import Dataset
from .losses import LossFunction
from .weights import (
    epsilon_perturbation,
    first_step,
    np_weights,
    oracle_weights,
    parametric_weights,
    sp_projected_weights,
    squared_bandwidth,
    weighted_fit,
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


#: Cephes ``ndtri`` (S. L. Moshier, *Methods and Programs for Mathematical
#: Functions*, 1989): exp(-2) splits the central approximation P0/Q0 from
#: the tail ones, which run in z = 1/sqrt(-2 log y): P1/Q1 while
#: sqrt(-2 log y) < 8, P2/Q2 beyond.  Coefficients run from the highest
#: power down; each Q's leading coefficient 1 is left out.
_EXPM2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(z: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """z * P(z) / Q(z) in Cephes' ``polevl`` / ``p1evl`` Horner order."""
    num = z * p[0]
    for c in p[1:]:
        num += c
        num *= z
    den = z + q[0]
    for c in q[1:]:
        den *= z
        den += c
    num /= den
    return num


def ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each u in (0, 1), as Cephes computes it.

    Central draws (exp(-2) < u <= 1 - exp(-2)) use only +, -, * and / in
    Cephes' order, so they equal ``scipy.special.ndtri`` bit for bit; the
    tails go through ``np.log``, whose last bit may differ from the C
    library's ``log``, so a tail draw may differ from scipy's in its last
    few bits.
    """
    # The central formula over every u (its denominator stays below zero
    # for |u - 1/2| <= 1/2), then the tails over their own entries.
    shape, u = u.shape, u.reshape(-1)
    out = u - 0.5
    ratio = _rational(out * out, _P0, _Q0)
    ratio *= out
    out += ratio
    out *= _SQRT_2PI
    tail = np.flatnonzero((u <= _EXPM2) | (u > 1.0 - _EXPM2))
    if tail.size:
        t = u[tail]
        x = np.log(np.minimum(t, 1.0 - t))
        x *= -2.0
        np.sqrt(x, out=x)
        z = 1.0 / x
        x1 = _rational(z, _P1, _Q1)
        if x.max() >= 8.0:
            far = x >= 8.0
            x1[far] = _rational(z[far], _P2, _Q2)
        x0 = np.log(x)
        x0 /= x
        x -= x0
        x -= x1
        out[tail] = np.copysign(x, t - 0.5, out=x)
    return out.reshape(shape)


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF standard normals, stable across runs for a fixed stream."""
    u = rng.random(shape)
    u += 2.0**-54
    # The top uniform 1 - 2**-53 plus 2**-54 rounds to 1.0, whose quantile
    # is +inf; keep it at 1 - 2**-53.
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u)


def generate_sample(
    n: int, q: int, sigma_kind: str, rng: np.random.Generator
) -> tuple[Dataset, np.ndarray]:
    """One heteroscedastic sample; returns (dataset, true beta)."""
    beta0 = true_beta(q)
    # One call for x (row by row) and then eps: the same stream as two.
    draws = standard_normal(rng, n * (q + 1))
    x = draws[: n * q].reshape(n, q)
    eps = draws[n * q:]
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
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.q < 1:
            raise DataError("q must be >= 1")
        if self.n < self.q + 2:
            raise DataError(f"n={self.n} is too small for q={self.q}")
        object.__setattr__(self, "methods", tuple(self.methods))
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise DataError(f"unknown methods {unknown}; choose from {METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise DataError(f"methods {repeated} are repeated; name each method once")
        if not self.methods:
            raise DataError("at least one method is required")
        if self.bandwidth != "cv":
            if isinstance(self.bandwidth, str):
                raise DataError("bandwidth must be 'cv' or a positive real")
            squared_bandwidth(self.bandwidth)


@dataclass(frozen=True)
class ReplicationOutcome:
    """Result of one method inside one replication.

    ``converged`` is False when ``beta`` comes from a fit whose solver
    stopped before its certificate: the first step's fit for
    ``first-step``, the final fit for every other method.
    """

    beta: np.ndarray | None
    sq_error: float
    status: str
    converged: bool = True

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _bandwidth_for(data, fs, mode, config, eps=None) -> float:
    if config.bandwidth == "cv":
        return cv_bandwidth(data, fs, mode, eps=eps).h_cv
    return float(config.bandwidth)


def run_replication(config: SimConfig, replication: int) -> dict[str, ReplicationOutcome]:
    """Run every requested method on one shared sample.

    Per-method numerical failures are recorded (status = error category),
    never raised, so one bad replication cannot abort a study.  The first
    step is fitted once, and only when a method other than ``oracle`` is
    requested; if it fails, each of those methods records its category and
    ``oracle``, which does not read it, runs as usual.
    """
    rng = replication_rng(config.seed, replication)
    data, beta0 = generate_sample(config.n, config.q, config.sigma, rng)
    family = inverse_variance_map(config.sigma)
    fs = fs_error = None
    if any(method != "oracle" for method in config.methods):
        try:
            fs = first_step(data, config.loss)
        except NumericalError as exc:
            fs_error = exc

    outcomes: dict[str, ReplicationOutcome] = {}
    for method in config.methods:
        try:
            if fs_error is not None and method != "oracle":
                raise fs_error
            if method == "first-step":
                w = None
            elif method == "parametric":
                w = parametric_weights(family, fs, data)
            elif method == "np":
                h = _bandwidth_for(data, fs, "np", config)
                w = np_weights(data, config.loss, fs, h)
            elif method == "sp":
                eps = epsilon_perturbation(data, fs)
                h = _bandwidth_for(data, fs, "sp-proj", config, eps=eps)
                w = sp_projected_weights(data, config.loss, fs, h, eps)
            else:  # oracle
                w = oracle_weights(lambda x: family(x, beta0), data)
            if w is None:
                beta, converged = fs.beta, fs.converged
            else:
                fit = weighted_fit(data, config.loss, w)
                beta, converged = fit.beta, fit.converged
        except NumericalError as exc:
            outcomes[method] = ReplicationOutcome(
                beta=None, sq_error=float("nan"), status=exc.category
            )
            continue
        sq_error = float(np.sum((beta - beta0) ** 2))
        outcomes[method] = ReplicationOutcome(beta=beta, sq_error=sq_error, status="ok",
                                              converged=converged)
    return outcomes


def quartiles(e: np.ndarray) -> tuple:
    """``np.quantile(e, [0.25, 0.5, 0.75])`` of a nonempty 1-D float array, bit for bit.

    numpy's linear method in its own arithmetic: quartile q sits at the
    virtual index (n - 1) q, which for these q equals n q + (1 - q) - 1
    exactly; γ is its fractional part, and the order statistics a, b around
    it give a + (b - a) γ, or b - (b - a)(1 - γ) where γ >= 0.5.  An index
    at or past n - 1 takes the last value, with γ its distance from -1.  The
    partition's kth list is ``np.quantile``'s, so tied ±0 sit where it puts
    them, and a NaN, sorted last, is every quartile.  ``np.quantile`` is not
    called because it builds that kth list with ``np.unique``, whose
    masked-array check imports ``numpy.ma`` (about 13 ms and 1.3 MB), which
    nothing else here uses.  An empty array is an error here, not
    ``np.quantile``'s; :func:`summarize_errors` rejects one first.
    """
    n = e.shape[0]
    at = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    lows = [int(v) if v < n - 1 else -1 for v in at]
    highs = [lo + 1 if lo >= 0 else -1 for lo in lows]
    part = np.partition(e, sorted({0, -1, *lows, *highs}))
    if np.isnan(part[-1]):
        return (part[-1],) * 3
    out = []
    for v, lo, hi in zip(at, lows, highs):
        a, b, gamma = part[lo], part[hi], v - lo
        d = b - a
        out.append(b - d * (1 - gamma) if gamma >= 0.5 else a + d * gamma)
    return tuple(out)


def summarize_errors(errors) -> dict[str, float]:
    """Boxplot statistics of a squared-error sample.

    Quartiles use linear interpolation between order statistics; the
    variance is the sample variance (0.0 for a single replication).
    """
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise DataError("cannot summarize an empty error vector")
    q1, med, q3 = quartiles(e)
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

    def nonconverged(self, method: str) -> int:
        """``ok`` replications whose beta comes from a fit that did not converge."""
        return sum(1 for rep in self.outcomes if rep[method].ok and not rep[method].converged)

    def summary(self) -> dict:
        """The summary.json object: the config, then methods in config order."""
        cfg = self.config
        methods = {}
        for method in cfg.methods:
            failed = self.failures(method)
            methods[method] = {
                "count": len(self.outcomes) - failed,
                "failed": failed,
                "nonconverged": self.nonconverged(method),
                **summarize_errors(self.errors(method)),
            }
        return {
            "config": {
                "n": cfg.n, "q": cfg.q, "sigma": cfg.sigma, "methods": list(cfg.methods),
                "replications": cfg.replications, "seed": cfg.seed,
                "bandwidth": cfg.bandwidth if cfg.bandwidth == "cv" else float(cfg.bandwidth),
                "loss": str(cfg.loss),
            },
            "methods": methods,
        }


def run_study(config: SimConfig, workers: int = 1) -> StudyResult:
    """Run all replications; deterministic for a fixed config and any workers.

    ``workers`` is capped at the replication count and at the CPU count.
    """
    if workers < 1:
        raise DataError("workers must be >= 1")
    workers = min(workers, config.replications, os.cpu_count() or 1)
    indices = range(config.replications)
    if workers == 1:  # a fresh pool thread made single-worker studies measurably slower
        outcomes = [run_replication(config, r) for r in indices]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled study loads it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda r: run_replication(config, r), indices))

    result = StudyResult(config=config, outcomes=outcomes)
    for method in config.methods:
        failed = result.failures(method)
        if failed > MAX_FAILURE_FRACTION * config.replications:
            raise StudyError(
                f"method {method!r} failed in {failed} of "
                f"{config.replications} replications"
            )
    return result
