"""The package's public surface, pinned: growing or shrinking it is an edit
of this file."""

import pytest

import robustgd
from robustgd import bench, datagen, models, optim

PUBLIC = {
    "ChiFunction", "FixedPointSettings", "RhoFunction", "confidence_scale",
    "RobustConfig", "robust_gradient",
    "Dataset", "LinearModel", "LogisticModel", "empirical_risk",
    "loss_and_grad_rows", "misclassification_rate", "row_arrays",
    "OptimState", "StoppingRule", "Trajectory", "default_partition_count",
    "erm_gd_run", "erm_gd_stacked_run", "geometric_median",
    "median_of_means_gd_run", "oracle_gd_run", "rgd_run", "rgd_stacked_run",
    "sgd_run", "svrg_run",
    "FAMILIES", "NoiseSpec", "SyntheticRisk", "calibrate_noise",
    "gen_classification", "gen_regression", "gen_w_star", "noise_sd",
    "sample_noise", "target_sd",
    "ExperimentConfig", "ExperimentResult", "excess_rmse", "run_experiment",
}


def test_all_is_the_pinned_set_and_resolves():
    assert sorted(robustgd.__all__) == sorted(PUBLIC)
    assert [name for name in PUBLIC if not hasattr(robustgd, name)] == []


@pytest.mark.parametrize("owner, name", [
    (optim, "L2Ball"),
    (models, "predict"),
    (bench, "concentration_check"),
    (bench, "KnownSampler"),
    (bench, "ConcentrationResult"),
    (bench.ExperimentResult, "rows"),
    (models.LogisticModel, "scores"),
    (datagen.SyntheticRisk, "kappa"),
    (datagen.SyntheticRisk, "lam"),
])
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(robustgd, name)
