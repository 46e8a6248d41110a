"""Noise families, sd calibration, target construction, and the synthetic
quadratic risk."""

import numpy as np
import pytest

from robustgd.datagen import (
    FAMILIES,
    LADDER_FAMILIES,
    TABLE_FAMILIES,
    NoiseSpec,
    SyntheticRisk,
    calibrate_noise,
    gen_classification,
    gen_regression,
    gen_w_star,
    initial_point,
    noise_mean,
    noise_sd,
    pareto_shape,
    sample_noise,
    student_t_dof,
    target_sd,
    w_star_sequence,
)
from robustgd.models import LinearModel

from oracles import (
    finite_difference_gradient,
    has_finite_sd,
    signal_noise_ratio,
)


class TestLadderCalibration:
    def test_ladder_endpoints(self):
        assert target_sd(1) == pytest.approx(0.3)
        assert target_sd(15) == pytest.approx(20.0)
        mids = np.array([target_sd(k) for k in range(1, 16)])
        assert np.allclose(np.diff(mids), np.diff(mids)[0])  # exactly linear

    def test_normal_parameters_exact(self):
        assert calibrate_noise("normal", 7)["scale"] == pytest.approx(target_sd(7))

    @pytest.mark.parametrize("family", LADDER_FAMILIES)
    @pytest.mark.parametrize("level", [1, 8, 15])
    def test_analytic_sd_hits_target(self, family, level):
        spec = NoiseSpec(family, level=level)
        assert noise_sd(spec) == pytest.approx(target_sd(level), rel=1e-10)
        assert has_finite_sd(spec)

    @pytest.mark.parametrize("family", LADDER_FAMILIES)
    def test_monte_carlo_sd_and_centering(self, family):
        # smaller-sample version of the full-ladder acceptance check
        spec = NoiseSpec(family, level=10)
        rng = np.random.default_rng([10, LADDER_FAMILIES.index(family)])
        draws = sample_noise(spec, rng, 200_000)
        sd = target_sd(10)
        assert draws.std() == pytest.approx(sd, rel=0.05)
        assert abs(draws.mean()) <= 3 * sd / np.sqrt(draws.size)

    def test_lognormal_explicit_parameters(self):
        spec = NoiseSpec("lognormal", params={"log_loc": 0.0, "log_scale": 1.75})
        rng = np.random.default_rng(0)
        draws = sample_noise(spec, rng, 10 ** 6)
        # centered: mean near zero, positively skewed
        assert abs(draws.mean()) < 0.1
        assert float(((draws - draws.mean()) ** 3).mean()) > 0.0
        assert noise_sd(spec) == pytest.approx(
            np.sqrt((np.exp(1.75 ** 2) - 1) * np.exp(1.75 ** 2)), rel=1e-12)


class TestTailFamilies:
    def test_level_tables(self):
        assert pareto_shape(1) == pytest.approx(3.0)
        assert pareto_shape(15) == pytest.approx(1.2)
        assert student_t_dof(1) == pytest.approx(4.0)
        assert student_t_dof(15) == pytest.approx(1.2)

    def test_finite_variance_flags(self):
        assert has_finite_sd(NoiseSpec("pareto", level=1))
        assert not has_finite_sd(NoiseSpec("pareto", level=15))
        assert has_finite_sd(NoiseSpec("student_t", level=1))
        assert not has_finite_sd(NoiseSpec("student_t", level=15))

    def test_pareto_centered(self):
        spec = NoiseSpec("pareto", level=3)  # shape > 2, finite variance
        rng = np.random.default_rng(1)
        draws = sample_noise(spec, rng, 10 ** 6)
        assert abs(draws.mean()) < 0.02

    def test_student_t_symmetric(self):
        spec = NoiseSpec("student_t", level=5)
        rng = np.random.default_rng(2)
        draws = sample_noise(spec, rng, 10 ** 5)
        assert abs(np.median(draws)) < 0.02


class TestNoiseSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", level=1)

    def test_exactly_one_of_level_or_params(self):
        with pytest.raises(ValueError):
            NoiseSpec("normal")
        with pytest.raises(ValueError):
            NoiseSpec("normal", level=1, params={"scale": 1.0})

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSpec("normal", level=0)
        with pytest.raises(ValueError):
            NoiseSpec("normal", level=16)

    def test_labels(self):
        assert NoiseSpec("normal", level=3).label() == "normal-L3"
        lbl = NoiseSpec("normal", params={"scale": 2.0}).label()
        assert "normal" in lbl and "scale=2" in lbl

    def test_all_families_listed(self):
        assert set(FAMILIES) == set(LADDER_FAMILIES) | set(TABLE_FAMILIES)
        assert len(LADDER_FAMILIES) == 9


class TestWStar:
    def test_sequence_values(self):
        assert w_star_sequence(1) == pytest.approx(np.pi / 4)
        assert w_star_sequence(2) == pytest.approx(np.pi / 8)
        assert w_star_sequence(3) == pytest.approx(np.pi / 2)
        assert w_star_sequence(4) == pytest.approx(-np.pi / 8)

    def test_entries_come_from_the_pool(self):
        rng = np.random.default_rng(3)
        w = gen_w_star(200, rng)
        pool = w_star_sequence(np.arange(1, 501))
        for v in w:
            assert np.isclose(pool, v, atol=1e-12).any()

    def test_signal_noise_ratio_consistent_with_documented_span(self):
        # the documented span [0.2, 1460.6] is an across-conditions range;
        # single draws at d=5, sd=8 concentrate inside it but its upper end
        # is not a per-draw bound (the coefficient pool reaches ~196)
        rng = np.random.default_rng(4)
        spec = NoiseSpec("normal", params={"scale": 8.0})
        sns = np.array([signal_noise_ratio(gen_w_star(5, rng), spec)
                        for _ in range(200)])
        assert np.all(sns >= 0.2)
        assert np.median(sns) <= 1460.6
        assert ((sns >= 0.2) & (sns <= 1460.6)).mean() >= 0.6

    def test_infinite_variance_gives_zero_ratio(self):
        spec = NoiseSpec("student_t", level=15)
        assert signal_noise_ratio(np.ones(3), spec) == 0.0


class TestGenRegression:
    def test_zero_noise_recovers_target_by_least_squares(self):
        rng = np.random.default_rng(5)
        spec = NoiseSpec("normal", params={"scale": 0.0})
        ds, w_star = gen_regression(50, 4, spec, rng)
        w_hat, *_ = np.linalg.lstsq(ds.inputs, ds.targets, rcond=None)
        assert np.allclose(w_hat, w_star, atol=1e-8)

    def test_normal_level_sd(self):
        rng = np.random.default_rng(6)
        spec = NoiseSpec("normal", params={"scale": 20.0})
        draws = sample_noise(spec, rng, 10 ** 5)
        assert 19.6 <= draws.std() <= 20.4

    def test_reproducibility(self):
        spec = NoiseSpec("laplace", level=4)
        a, wa = gen_regression(30, 3, spec, np.random.default_rng(42))
        b, wb = gen_regression(30, 3, spec, np.random.default_rng(42))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(wa, wb)

    def test_classification_blobs_learnable_structure(self):
        rng = np.random.default_rng(7)
        ds = gen_classification(3000, 10, 3, rng, separation=4.0,
                                label_noise=0.0)
        # nearest-mean classification should be nearly perfect at sep 4
        means = np.stack([ds.inputs[ds.targets == c].mean(axis=0)
                          for c in range(3)])
        dists = ((ds.inputs[:, None, :] - means[None]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == ds.targets).mean()
        assert acc > 0.95


class TestSyntheticRisk:
    def test_minimum_and_gradient_at_star(self):
        risk = SyntheticRisk(np.array([1.0, -2.0]))
        assert risk.exact_excess_risk(risk.w_star) == 0.0
        assert np.allclose(risk.exact_gradient(risk.w_star), 0.0)

    def test_identity_closed_form(self):
        risk = SyntheticRisk(np.zeros(3))
        w = np.array([2.0, 0.0, 0.0])
        assert risk.exact_excess_risk(w) == pytest.approx(2.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        risk = SyntheticRisk(rng.normal(size=4))
        for _ in range(5):
            w = rng.normal(size=4)
            fd = finite_difference_gradient(risk.exact_excess_risk, w)
            g = risk.exact_gradient(w)
            assert np.max(np.abs(g - fd)) < 1e-6 * (1 + np.abs(g).max())


def test_initial_point_box():
    rng = np.random.default_rng(10)
    w = np.zeros(6)
    pts = np.stack([initial_point(w, 2.5, rng) for _ in range(200)])
    assert np.all(np.abs(pts) <= 2.5)
    assert np.abs(pts).max() > 2.0  # actually spreads over the box


def test_noise_mean_values():
    assert noise_mean(NoiseSpec("exponential", params={"scale": 3.0})) == 3.0
    assert noise_mean(NoiseSpec("normal", params={"scale": 5.0})) == 0.0
    spec = NoiseSpec("pareto", params={"shape": 3.0, "scale": 1.0})
    assert noise_mean(spec) == pytest.approx(1.5)
