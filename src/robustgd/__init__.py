"""Robust gradient descent: first-order learning with coordinate-wise
M-estimates of gradient location and scale in place of the sample mean."""

__version__ = "0.1.0"

from .mest import ChiFunction, FixedPointSettings, RhoFunction, confidence_scale
# ``locate``, ``rescale`` and ``robust_risk`` were removed: a one-column
# ``robust_gradient(x[:, None], cfg)`` takes the same estimate, and
# ``robustgd.mest``'s ``locate_columns`` and ``rescale_columns`` its stages
from .robust_grad import RobustConfig, robust_gradient
from .models import (
    Dataset,
    LinearModel,
    LogisticModel,
    empirical_risk,
    loss_and_grad_rows,
    misclassification_rate,
    row_arrays,
)
# ``predict`` and ``LogisticModel.scores`` were folded into
# ``misclassification_rate``; ``L2Ball`` and the run functions' ``constraint``
# were removed, as no task projects its iterates
from .optim import (
    OptimState,
    StoppingRule,
    Trajectory,
    default_partition_count,
    erm_gd_run,
    erm_gd_stacked_run,
    geometric_median,
    median_of_means_gd_run,
    oracle_gd_run,
    rgd_run,
    rgd_stacked_run,
    sgd_run,
    svrg_run,
)
# ``SyntheticRisk`` has the identity curvature only: its ``sigma``, ``kappa``
# and ``lam`` were removed
from .datagen import (
    FAMILIES,
    NoiseSpec,
    SyntheticRisk,
    calibrate_noise,
    gen_classification,
    gen_regression,
    gen_w_star,
    noise_sd,
    sample_noise,
    target_sd,
)
# ``concentration_check``, ``KnownSampler``, ``ConcentrationResult`` and
# ``ExperimentResult.rows`` left the library: the test suite keeps the first
# three, and ``results.csv`` is written from ``ExperimentResult.trial_tables``
from .bench import ExperimentConfig, ExperimentResult, excess_rmse, run_experiment

__all__ = [
    "ChiFunction", "FixedPointSettings", "RhoFunction", "confidence_scale",
    "RobustConfig", "robust_gradient",
    "Dataset", "LinearModel", "LogisticModel", "empirical_risk",
    "loss_and_grad_rows", "misclassification_rate", "row_arrays",
    "OptimState", "StoppingRule", "Trajectory",
    "default_partition_count", "erm_gd_run", "erm_gd_stacked_run",
    "geometric_median", "median_of_means_gd_run", "oracle_gd_run", "rgd_run",
    "rgd_stacked_run", "sgd_run", "svrg_run",
    "FAMILIES", "NoiseSpec", "SyntheticRisk", "calibrate_noise",
    "gen_classification", "gen_regression", "gen_w_star", "noise_sd",
    "sample_noise", "target_sd",
    "ExperimentConfig", "ExperimentResult", "excess_rmse", "run_experiment",
]
