"""Column-wise robust gradient pipeline: contract examples and invariants."""

import numpy as np
import pytest

from robustgd.mest import ChiFunction, FixedPointSettings, RhoFunction, confidence_scale, rescale
from robustgd.robust_grad import (
    RobustConfig,
    column_scales,
    robust_gradient,
    robust_gradient_subset,
    robust_risk,
)

from oracles import locate_oracle

TIGHT = FixedPointSettings(max_iters=300, rel_tolerance=1e-13)
GUD_CFG = RobustConfig(rho=RhoFunction("gudermannian"), delta=0.1, fp=TIGHT)
QUAD_CFG = RobustConfig(rho=RhoFunction("quadratic_test_only"), delta=0.1, fp=TIGHT)


def heavy_matrix(n=60, d=4, seed=0):
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(n, d))
    D[:3] += 40.0 * rng.standard_t(1.5, size=(3, d))
    return D


class TestRobustGradient:
    def test_identical_rows_return_the_row(self):
        v = np.array([1.5, -2.0, 0.25])
        D = np.tile(v, (7, 1))
        assert np.allclose(robust_gradient(D, GUD_CFG), v, atol=1e-12)

    def test_quadratic_rho_gives_column_means(self):
        D = heavy_matrix()
        assert np.allclose(robust_gradient(D, QUAD_CFG), D.mean(axis=0),
                           atol=1e-10)

    def test_single_outlier_column_matches_oracle(self):
        col = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        theta = robust_gradient(col[:, None], GUD_CFG)[0]
        sigma = rescale(col, col.mean(), ChiFunction(), TIGHT)
        s = confidence_scale(sigma, 5, 0.1)
        assert theta == pytest.approx(
            locate_oracle(col, s, RhoFunction("gudermannian")), abs=1e-8)
        # frozen pipeline value (sigma ~ 37.15, s ~ 47.99)
        assert theta == pytest.approx(15.03908781184625, abs=1e-8)

    def test_column_permutation_equivariance(self):
        D = heavy_matrix()
        perm = np.array([2, 0, 3, 1])
        assert np.allclose(robust_gradient(D[:, perm], GUD_CFG),
                           robust_gradient(D, GUD_CFG)[perm], atol=1e-12)

    def test_row_permutation_invariance(self):
        D = heavy_matrix()
        rng = np.random.default_rng(1)
        shuffled = D[rng.permutation(D.shape[0])]
        assert np.allclose(robust_gradient(shuffled, GUD_CFG),
                           robust_gradient(D, GUD_CFG), atol=1e-11)

    def test_outlier_damping_versus_mean(self):
        # one huge outlier at fixed truncation scale: the estimate barely
        # moves while the mean scales with the outlier
        n = 10
        theta = {}
        for M in (1e3, 1e6):
            col = np.zeros(n)
            col[-1] = M
            theta[M] = robust_gradient(col[:, None], GUD_CFG,
                                       scale=np.array([5.0]))[0]
            assert abs(col.mean()) == M / n
        assert theta[1e6] <= 2.0 * theta[1e3]
        assert theta[1e6] > 0

    def test_monotone_confidence_moves_toward_mean(self):
        D = heavy_matrix(n=80, d=3, seed=5)
        means = D.mean(axis=0)
        gaps = []
        for delta in (0.5, 0.1, 0.02):  # decreasing delta shrinks s
            cfg = RobustConfig(rho=RhoFunction("gudermannian"), delta=delta,
                               fp=TIGHT)
            gaps.append(np.abs(robust_gradient(D, cfg) - means))
        # larger delta (wider scale) sits closer to the sample mean
        assert np.all(gaps[0] <= gaps[1] + 1e-9)
        assert np.all(gaps[1] <= gaps[2] + 1e-9)

    def test_full_output_diagnostics(self):
        D = heavy_matrix()
        theta, info = robust_gradient(D, GUD_CFG, full_output=True)
        assert info["s"].shape == (4,)
        assert info["sigma"].shape == (4,)
        assert info["locate_fallback"].dtype == bool
        assert np.all(info["s"] > 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            robust_gradient(np.ones((0, 2)), GUD_CFG)
        with pytest.raises(ValueError):
            robust_gradient(np.array([[1.0, np.inf]]), GUD_CFG)
        with pytest.raises(ValueError):
            robust_gradient(np.ones(5), GUD_CFG)


class TestSubsetVariant:
    def test_full_subset_matches_robust_gradient(self):
        D = heavy_matrix()
        cfg = RobustConfig(rho=RhoFunction("gudermannian"), delta=0.1,
                           fp=TIGHT, coordinate_subset_size=D.shape[1])
        got = robust_gradient_subset(D, cfg, np.random.default_rng(0))
        assert np.allclose(got, robust_gradient(D, cfg), atol=1e-12)

    def test_full_subset_quadratic_gives_means(self):
        D = heavy_matrix()
        cfg = RobustConfig(rho=RhoFunction("quadratic_test_only"), delta=0.1,
                           fp=TIGHT, coordinate_subset_size=D.shape[1])
        got = robust_gradient_subset(D, cfg, np.random.default_rng(0))
        assert np.allclose(got, D.mean(axis=0), atol=1e-10)

    def test_mixed_subset_composes_both_estimators(self):
        rng = np.random.default_rng(2)
        D = rng.normal(size=(12, 3))
        D[0, 1] = 500.0  # outlier in column 1 only
        cfg = RobustConfig(rho=RhoFunction("gudermannian"), delta=0.1,
                           fp=TIGHT, coordinate_subset_size=1)
        # find a seed whose draw selects column 1
        for seed in range(50):
            if np.random.default_rng(seed).choice(3, size=1, replace=False)[0] == 1:
                break
        theta, info = robust_gradient_subset(D, cfg, np.random.default_rng(seed),
                                             full_output=True)
        assert list(info["subset"]) == [1]
        means = D.mean(axis=0)
        assert theta[0] == means[0] and theta[2] == means[2]
        sigma = rescale(D[:, 1], means[1], ChiFunction(), TIGHT)
        s = confidence_scale(sigma, 12, 0.1)
        assert theta[1] == pytest.approx(
            locate_oracle(D[:, 1], s, RhoFunction("gudermannian")), abs=1e-8)

    def test_subset_size_validation(self):
        D = heavy_matrix()
        with pytest.raises(ValueError):
            RobustConfig(coordinate_subset_size=0)
        cfg = RobustConfig(coordinate_subset_size=10)
        with pytest.raises(ValueError):
            robust_gradient_subset(D, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            robust_gradient_subset(D, GUD_CFG, np.random.default_rng(0))


class TestKnownVarianceVariant:
    def test_matching_variance_quadratic_gives_means(self):
        D = heavy_matrix()
        cfg = RobustConfig(rho=RhoFunction("quadratic_test_only"), delta=0.1,
                           fp=TIGHT, known_variance=D.var(axis=0))
        assert np.allclose(robust_gradient(D, cfg),
                           D.mean(axis=0), atol=1e-10)

    def test_zero_dispersion_column_returns_common_value(self):
        D = np.zeros((6, 2))
        D[:, 0] = 3.25
        D[:, 1] = -1.5
        cfg = RobustConfig(rho=RhoFunction("gudermannian"), delta=0.1, fp=TIGHT,
                           known_variance=np.array([4.0, 9.0]))
        assert np.allclose(robust_gradient(D, cfg),
                           [3.25, -1.5], atol=1e-12)

    def test_heavy_tailed_column_matches_oracle_with_prior_scale(self):
        spec_rng = np.random.default_rng(3)
        # population variance of the mixture from a large draw
        pop = np.where(spec_rng.random(10 ** 6) < 0.1,
                       spec_rng.normal(0, 30, 10 ** 6),
                       spec_rng.normal(0, 1, 10 ** 6))
        var = float(pop.var())
        rng = np.random.default_rng(4)
        col = np.where(rng.random(40) < 0.1, rng.normal(0, 30, 40),
                       rng.normal(0, 1, 40))
        C = 2.0
        cfg = RobustConfig(rho=RhoFunction("gudermannian"), delta=0.1, C=C,
                           fp=TIGHT, known_variance=np.array([var]))
        theta = robust_gradient(col[:, None], cfg)[0]
        s = np.sqrt(C * var) * np.sqrt(40 / np.log(2 / 0.1))
        assert theta == pytest.approx(
            locate_oracle(col, s, RhoFunction("gudermannian")), abs=1e-8)


class TestRobustRisk:
    def test_constant_losses(self):
        assert robust_risk(np.full(9, 4.2), GUD_CFG) == pytest.approx(4.2, abs=1e-12)

    def test_quadratic_rho_is_mean_loss(self):
        losses = np.abs(heavy_matrix()[:, 0])
        assert robust_risk(losses, QUAD_CFG) == pytest.approx(losses.mean(),
                                                              abs=1e-10)

    def test_outlier_losses_between_median_and_mean(self):
        losses = np.array([1.0, 1.0, 1.0, 1.0, 50.0])
        cfg = RobustConfig(rho=RhoFunction("gudermannian"), delta=0.005, fp=TIGHT)
        got = robust_risk(losses, cfg)
        sigma = rescale(losses, losses.mean(), ChiFunction(), TIGHT)
        s = confidence_scale(sigma, 5, 0.005)
        assert got == pytest.approx(
            locate_oracle(losses, s, RhoFunction("gudermannian")), abs=1e-8)
        # frozen oracle value; strictly between the median and the mean
        assert got == pytest.approx(7.0315404485292, abs=1e-8)
        assert 1.0 < got < losses.mean()


class TestColumnScales:
    def test_known_variance_path(self):
        D = heavy_matrix()
        kv = np.array([1.0, 4.0, 9.0, 16.0])
        cfg = RobustConfig(C=2.0, delta=0.1, known_variance=kv)
        sigma, s, fb = column_scales(D, cfg)
        assert np.allclose(sigma, np.sqrt(2.0 * kv))
        assert np.allclose(s, sigma * np.sqrt(60 / np.log(20)))
        assert not fb.any()

    @pytest.mark.parametrize("kv", [None, np.array([1.0, 4.0])])
    def test_stacked_blocks_match_blocks_alone(self, kv):
        # three 2-column blocks; known variances describe one block
        D = heavy_matrix(d=6)
        cfg = RobustConfig(known_variance=kv)
        stacked = robust_gradient(D, cfg, full_output=True, width=2)
        for b in range(3):
            cols = slice(2 * b, 2 * b + 2)
            alone = robust_gradient(D[:, cols].copy(), cfg, full_output=True)
            for key in ("s", "locate_fallback", "scale_fallback"):
                assert np.array_equal(stacked[1][key][cols], alone[1][key])
            assert np.array_equal(stacked[0][cols], alone[0])
        with pytest.raises(ValueError, match="known_variance length"):
            column_scales(D, RobustConfig(known_variance=np.ones(4)), width=2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RobustConfig(delta=0.0)
        with pytest.raises(ValueError):
            RobustConfig(delta=1.0)
        with pytest.raises(ValueError):
            RobustConfig(C=-1.0)
        with pytest.raises(ValueError):
            RobustConfig(known_variance=np.array([1.0, -2.0]))
