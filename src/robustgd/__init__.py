"""Robust gradient descent: first-order learning with coordinate-wise
M-estimates of gradient location and scale in place of the sample mean."""

__version__ = "0.1.0"

from .mest import (
    ChiFunction,
    FixedPointSettings,
    RhoFunction,
    confidence_scale,
    locate,
    psi_eval,
    chi_eval,
    rescale,
)
from .robust_grad import (
    RobustConfig,
    robust_gradient,
    robust_gradient_subset,
    robust_risk,
)
from .models import (
    Dataset,
    LinearModel,
    LogisticModel,
    empirical_risk,
    loss_and_grad_rows,
    misclassification_rate,
    predict,
)
from .optim import (
    L2Ball,
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
from .bench import (
    ExperimentConfig,
    ExperimentResult,
    KnownSampler,
    concentration_check,
    excess_rmse,
    run_experiment,
)

__all__ = [
    "ChiFunction", "FixedPointSettings", "RhoFunction", "confidence_scale",
    "locate", "psi_eval", "chi_eval", "rescale",
    "RobustConfig", "robust_gradient", "robust_gradient_subset", "robust_risk",
    "Dataset", "LinearModel", "LogisticModel", "empirical_risk",
    "loss_and_grad_rows", "misclassification_rate", "predict",
    "L2Ball", "OptimState", "StoppingRule", "Trajectory",
    "default_partition_count", "erm_gd_run", "erm_gd_stacked_run",
    "geometric_median", "median_of_means_gd_run", "oracle_gd_run", "rgd_run",
    "rgd_stacked_run", "sgd_run", "svrg_run",
    "FAMILIES", "NoiseSpec", "SyntheticRisk", "calibrate_noise",
    "gen_classification", "gen_regression", "gen_w_star", "noise_sd",
    "sample_noise", "target_sd",
    "ExperimentConfig", "ExperimentResult", "KnownSampler",
    "concentration_check", "excess_rmse", "run_experiment",
]
