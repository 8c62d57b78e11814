"""Adaptively weighted regression for heteroscedastic models.

Weighted least squares and M-estimation where the weight function itself is
estimated - parametrically, nonparametrically, or semiparametrically - plus
a Monte Carlo harness that measures how close each route comes to the
optimally weighted reference fit.
"""

from .bandwidth import CvResult, cv_bandwidth, default_grid
from .errors import (
    BandwidthGridError,
    DataError,
    DegenerateCurvatureError,
    DegenerateDesignError,
    IndexDegenerateError,
    NumericalError,
    StudyError,
    WeightFamilyError,
)
from .estimators import (
    Dataset,
    FitResult,
    estimating_equation,
    fit_weighted_m,
    fit_wls,
    sandwich_covariance,
)
from .kernels import EpanechnikovKernel, ball_volume, epanechnikov_constant
from .losses import LossFunction
from .simulation import (
    METHODS,
    SIGMA_KINDS,
    ReplicationOutcome,
    SimConfig,
    StudyResult,
    generate_sample,
    inverse_variance_map,
    replication_rng,
    run_replication,
    run_study,
    sigma_values,
    summarize_errors,
    true_beta,
)
from .weights import (
    FirstStepFit,
    clamp_weights,
    epsilon_perturbation,
    evaluate_weight_map,
    first_step,
    np_weights,
    oracle_weights,
    parametric_weights,
    projector,
    sp_index_weights,
    sp_projected_weights,
)

__version__ = "0.1.0"
