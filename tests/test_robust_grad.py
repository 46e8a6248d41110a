"""Column-wise robust gradient pipeline: contract examples and invariants."""

import warnings

import numpy as np
import pytest

from robustgd.mest import (
    ChiFunction,
    FixedPointSettings,
    RhoFunction,
    locate_columns,
    rescale_columns,
)
from robustgd.models import Dataset, LinearModel
from robustgd.optim import OptimState, StoppingRule, rgd_run
from robustgd.robust_grad import RobustConfig, robust_gradient

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
        assert np.allclose(robust_gradient(D, GUD_CFG)[0], v, atol=1e-12)

    def test_quadratic_rho_gives_column_means(self):
        D = heavy_matrix()
        assert np.allclose(robust_gradient(D, QUAD_CFG)[0], D.mean(axis=0),
                           atol=1e-10)

    def test_single_outlier_column_matches_oracle(self):
        col = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        theta, info = robust_gradient(col[:, None], GUD_CFG)
        theta, s = theta[0], info["s"][0]
        assert theta == pytest.approx(
            locate_oracle(col, s, RhoFunction("gudermannian")), abs=1e-8)
        # frozen pipeline value (sigma ~ 37.15, s ~ 47.99)
        assert theta == pytest.approx(15.03908781184625, abs=1e-8)

    def test_column_permutation_equivariance(self):
        D = heavy_matrix()
        perm = np.array([2, 0, 3, 1])
        assert np.allclose(robust_gradient(D[:, perm], GUD_CFG)[0],
                           robust_gradient(D, GUD_CFG)[0][perm], atol=1e-12)

    def test_row_permutation_invariance(self):
        D = heavy_matrix()
        rng = np.random.default_rng(1)
        shuffled = D[rng.permutation(D.shape[0])]
        assert np.allclose(robust_gradient(shuffled, GUD_CFG)[0],
                           robust_gradient(D, GUD_CFG)[0], atol=1e-11)

    def test_outlier_damping_versus_mean(self):
        # one huge outlier at fixed truncation scale s = 5: the estimate
        # barely moves while the mean scales with the outlier
        n = 10
        theta = {}
        for M in (1e3, 1e6):
            col = np.zeros(n)
            col[-1] = M
            theta[M], = locate_columns(col[:, None], [5.0],
                                       RhoFunction("gudermannian"), TIGHT)[0]
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
            gaps.append(np.abs(robust_gradient(D, cfg)[0] - means))
        # larger delta (wider scale) sits closer to the sample mean
        assert np.all(gaps[0] <= gaps[1] + 1e-9)
        assert np.all(gaps[1] <= gaps[2] + 1e-9)

    def test_full_output_diagnostics(self):
        D = heavy_matrix()
        theta, info = robust_gradient(D, GUD_CFG)
        assert theta.shape == (4,)
        assert info["s"].shape == (4,)
        assert info["sigma"].shape == (4,)
        assert info["locate_fallback"].dtype == bool
        assert info["scale_fallback"].dtype == bool
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
        theta, info = robust_gradient(D, GUD_CFG, cols=np.arange(D.shape[1]))
        f_theta, f_info = robust_gradient(D, GUD_CFG)
        assert theta.tobytes() == f_theta.tobytes()
        for key in ("sigma", "s", "scale_fallback", "locate_fallback"):
            assert info[key].tobytes() == f_info[key].tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_memory_order_does_not_change_the_estimate(self, seed):
        D = heavy_matrix(n=500, d=4, seed=seed)
        for cols in (None, [1, 3]):
            theta, info = robust_gradient(D, GUD_CFG, cols)
            f_theta, f_info = robust_gradient(np.asfortranarray(D), GUD_CFG, cols)
            assert theta.tobytes() == f_theta.tobytes()
            for key in ("sigma", "s", "scale_fallback", "locate_fallback"):
                assert info[key].tobytes() == f_info[key].tobytes()

    def test_full_subset_quadratic_gives_means(self):
        D = heavy_matrix()
        theta, _ = robust_gradient(D, QUAD_CFG, cols=np.arange(D.shape[1]))
        assert np.allclose(theta, D.mean(axis=0), atol=1e-10)

    def test_mixed_subset_composes_both_estimators(self):
        rng = np.random.default_rng(2)
        D = rng.normal(size=(12, 3))
        D[0, 1] = 500.0  # outlier in column 1 only
        theta, info = robust_gradient(D, GUD_CFG, cols=[1])
        assert info["s"].shape == (1,)
        means = D.mean(axis=0)
        assert theta[0] == means[0] and theta[2] == means[2]
        # column 1 alone gives the same estimate and scale
        alone, alone_info = robust_gradient(D[:, 1:2], GUD_CFG)
        s = info["s"][0]
        assert theta[1] == alone[0] and s == alone_info["s"][0]
        assert theta[1] == pytest.approx(
            locate_oracle(D[:, 1], s, RhoFunction("gudermannian")), abs=1e-8)

    def test_subset_size_validation(self):
        X = np.random.default_rng(0).normal(size=(8, 3))
        with pytest.raises(ValueError, match="coordinate_subset_size must be >= 1"):
            rgd_run(LinearModel(np.zeros(3)), Dataset(X, X.sum(axis=1)), GUD_CFG,
                    OptimState(np.zeros(3), 0.1), StoppingRule(max_iters=1),
                    rng=np.random.default_rng(0), coordinate_subset_size=0)


class TestRobustRisk:
    """A scalar loss sample is estimated as one column of ``robust_gradient``."""

    def test_constant_losses(self):
        got = robust_gradient(np.full((9, 1), 4.2), GUD_CFG)[0][0]
        assert got == pytest.approx(4.2, abs=1e-12)

    def test_quadratic_rho_is_mean_loss(self):
        losses = np.abs(heavy_matrix()[:, 0])
        got = robust_gradient(losses[:, None], QUAD_CFG)[0][0]
        assert got == pytest.approx(losses.mean(), abs=1e-10)

    def test_outlier_losses_between_median_and_mean(self):
        losses = np.array([1.0, 1.0, 1.0, 1.0, 50.0])
        cfg = RobustConfig(rho=RhoFunction("gudermannian"), delta=0.005, fp=TIGHT)
        theta, info = robust_gradient(losses[:, None], cfg)
        got, s = theta[0], info["s"][0]
        assert got == pytest.approx(
            locate_oracle(losses, s, RhoFunction("gudermannian")), abs=1e-8)
        # frozen oracle value; strictly between the median and the mean
        assert got == pytest.approx(7.0315404485292, abs=1e-8)
        assert 1.0 < got < losses.mean()


class TestColumnScales:
    @pytest.mark.parametrize("cols", [None, [0, 3, 4]])
    def test_stacked_blocks_match_blocks_alone(self, cols):
        # three 2-column blocks solved as one matrix and each alone, with
        # every column robustified or only ``cols``
        D = heavy_matrix(d=6)
        theta, info = robust_gradient(D, RobustConfig(), cols)
        robust = np.arange(6) if cols is None else np.asarray(cols)
        for b in range(3):
            block = np.arange(2 * b, 2 * b + 2)
            mine = np.isin(robust, block)
            cols_b = None if cols is None else robust[mine] - 2 * b
            theta_b, info_b = robust_gradient(D[:, block], RobustConfig(), cols_b)
            for key in ("sigma", "s", "locate_fallback", "scale_fallback"):
                assert np.array_equal(info[key][mine], info_b[key])
            assert theta[block].tobytes() == theta_b.tobytes()

    def test_overflowing_column_sum_takes_a_bounded_pivot(self):
        # finite columns whose sums overflow: three rows of 1e308, and rows
        # spread over [0.5e308, 1.5e308]; their pivot is sum(x_i / n), and
        # every column whose sum is finite keeps its bits
        rng = np.random.default_rng(3)
        D = heavy_matrix(n=9, d=4)
        D[:, 1] = 1e308
        D[:, 3] = 1e308 * rng.uniform(0.5, 1.5, 9)
        with np.errstate(over="ignore"):
            theta, info = robust_gradient(D, RobustConfig())
            for j in (1, 3):
                x = D[:, [j]]
                pivot = np.add.reduce(x[:, 0] / 9)
                assert np.isfinite(pivot)
                sigma, _ = rescale_columns(x, [pivot], ChiFunction())
                assert info["sigma"][j] == sigma[0]
        assert np.isfinite(theta).all() and np.isfinite(info["s"]).all()
        assert theta[1] == 1e308
        assert D[:, 3].min() <= theta[3] <= D[:, 3].max()
        theta_f, info_f = robust_gradient(D[:, [0, 2]], RobustConfig())
        assert theta[[0, 2]].tobytes() == theta_f.tobytes()
        assert info["sigma"][[0, 2]].tobytes() == info_f["sigma"].tobytes()

    def test_column_whose_residuals_overflow_is_estimated(self):
        # its sum is finite, but x - pivot passes 1.8e308: the residuals
        # overflowed, sigma came back inf and locate_columns raised
        x = np.array([[1.7e308], [-1.7e308], [-1.7e308], [1.7e308], [1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, info = robust_gradient(x, RobustConfig())
        assert x.min() < theta[0] < x.max()
        # its sigma, about 2.1e308, and s are past the largest double
        assert np.isinf(info["sigma"]).all() and np.isinf(info["s"]).all()
        assert not info["scale_fallback"].any() and not info["locate_fallback"].any()

    def test_overflowing_columns_are_estimated_scaled_down(self):
        # column 1's residuals overflow; column 3's sigma is finite but its
        # s = 3.6 sigma is not.  Both are estimated on copies scaled by
        # 2^-512 and scaled back, so they match a solve scaled by 2^-4 to
        # the tight solver's precision; every other column keeps its bits
        rng = np.random.default_rng(8)
        D = heavy_matrix(n=40, d=5)
        D[:, 1] = 1.7e308 * rng.uniform(0.9, 1.0, 40) * np.repeat([1.0, -1.0], [24, 16])
        D[:, 3] = 1e308 * rng.uniform(0.5, 1.0, 40) * np.tile([1.0, -1.0], 20)
        big = [1, 3]
        # column 1's partial sums overflow, and meet as inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            theta, info = robust_gradient(D, GUD_CFG)
            want_theta, want = robust_gradient(np.ldexp(D[:, big], -4), GUD_CFG)
            want_sigma, want_s = np.ldexp([want["sigma"], want["s"]], 4)
        rest_theta, rest = robust_gradient(D[:, [0, 2, 4]], GUD_CFG)
        assert theta[[0, 2, 4]].tobytes() == rest_theta.tobytes()
        for key in ("sigma", "s"):
            assert info[key][[0, 2, 4]].tobytes() == rest[key].tobytes()
        assert np.isinf(info["s"][big]).all() and np.isfinite(info["sigma"][3])
        assert np.all(np.abs(np.ldexp(theta[big], -4) - want_theta) <= 1e-11 * want["s"])
        np.testing.assert_allclose(info["sigma"][big], want_sigma, rtol=1e-11)
        np.testing.assert_allclose(info["s"][big], want_s, rtol=1e-11)
        for key in ("scale_fallback", "locate_fallback"):
            assert np.array_equal(info[key][big], want[key])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", [
        [1e308] * 4,
        # a finite sum, 2e307, whose two middle values sum past 1.8e308
        [9e307, -1.7e308, 9e307, -1.7e308, 9e307, 9e307],
    ])
    def test_median_start_that_overflows_stays_in_the_column_range(self, column):
        # the even-n median is the midpoint of the middle values, which
        # overflows to inf; the location solve starts inside [min, max],
        # and neither that overflow nor the column sum's warns
        x = np.array(column)[:, None]
        theta, info = robust_gradient(x, RobustConfig())
        assert np.isfinite(info["s"]).all()
        assert x.min() <= theta[0] <= x.max()

    @pytest.mark.filterwarnings("error")
    def test_column_whose_pairwise_sums_overflow_both_ways_warns_nothing(self):
        # its pairwise sums overflow to +inf and -inf and meet as nan, and
        # its s = 3.4 sigma passes 1.8e308: it is pivoted at sum(x_i / n)
        # and estimated scaled down, as designed, and no step of it warns
        x = np.array([[5e307], [-5e307]] * 250)
        theta, info = robust_gradient(x, RobustConfig())
        assert theta[0] == 0.0 and np.isinf(info["s"][0])
        assert info["sigma"][0] == pytest.approx(6.9e307, rel=0.01)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RobustConfig(delta=0.0)
        with pytest.raises(ValueError):
            RobustConfig(delta=1.0)


def nan_work(k, n):
    """A lent buffer set of three (k, n) arrays, filled with nan so that a
    read before a write shows."""
    return [np.full((k, n), np.nan) for _ in range(3)]


def assert_same_estimate(got, want):
    (theta, info), (w_theta, w_info) = got, want
    assert theta.tobytes() == w_theta.tobytes()
    for key in ("sigma", "s", "scale_fallback", "locate_fallback"):
        assert info[key].tobytes() == w_info[key].tobytes()


class TestLentWorkspace:
    """``work`` lends both root solves their buffers; it never moves a bit."""

    @pytest.mark.parametrize("kind", ["gudermannian", "log_cosh", "pseudo_huber"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_nan_filled_workspace_gives_the_same_bits(self, kind, warm):
        D = heavy_matrix(n=80, d=6, seed=4)
        cfg = RobustConfig(rho=RhoFunction(kind))
        start = None
        if warm:
            theta, info = robust_gradient(D, cfg)
            start = (theta + 0.1, 1.5 * info["sigma"])
        assert_same_estimate(robust_gradient(D, cfg, start=start, work=nan_work(6, 80)),
                             robust_gradient(D, cfg, start=start))

    def test_leading_rows_serve_as_k_shrinks(self):
        # one set sized for the first solve serves every smaller one, and
        # a solve leaves the rows past its own k alone
        D = heavy_matrix(n=60, d=8, seed=2)
        work = nan_work(8, 60)
        for k in (8, 5, 1):
            rest = [a[k:].copy() for a in work]
            got = robust_gradient(D[:, :k], RobustConfig(), work=work)
            assert_same_estimate(got, robust_gradient(D[:, :k], RobustConfig()))
            assert all(np.array_equal(a[k:], r, equal_nan=True) for a, r in zip(work, rest))

    def test_column_subset(self):
        D = heavy_matrix(n=60, d=6, seed=3)
        cols = np.array([0, 2, 5])
        assert_same_estimate(robust_gradient(D, RobustConfig(), cols, work=nan_work(3, 60)),
                             robust_gradient(D, RobustConfig(), cols))

    def test_solvers_take_the_lent_buffers(self):
        x = heavy_matrix(n=50, d=4, seed=6)
        work = nan_work(7, 50)
        s = np.full(4, 3.0)
        rho, chi = RhoFunction("gudermannian"), ChiFunction()
        theta, fb = locate_columns(x, s, rho, work=work)
        want_theta, want_fb = locate_columns(x, s, rho)
        assert theta.tobytes() == want_theta.tobytes() and np.array_equal(fb, want_fb)
        sigma, fb = rescale_columns(x, x.mean(axis=0), chi, work=nan_work(4, 50))
        want_sigma, want_fb = rescale_columns(x, x.mean(axis=0), chi)
        assert sigma.tobytes() == want_sigma.tobytes() and np.array_equal(fb, want_fb)
        # the location solve wrote into the leading rows of all three
        assert all(not np.isnan(a[:4]).any() and np.isnan(a[4:]).all() for a in work)

    def test_overflow_re_solve_takes_buffers_of_its_own(self, monkeypatch):
        # columns 1 and 3 overflow their residuals or s and are re-solved
        # scaled down by 2^-512; that inner call lends nothing, so the outer
        # call's buffers keep what its own solves wrote
        import robustgd.robust_grad as robust_grad

        rng = np.random.default_rng(8)
        D = heavy_matrix(n=40, d=5)
        D[:, 1] = 1.7e308 * rng.uniform(0.9, 1.0, 40) * np.repeat([1.0, -1.0], [24, 16])
        D[:, 3] = 1e308 * rng.uniform(0.5, 1.0, 40) * np.tile([1.0, -1.0], 20)
        work = nan_work(5, 40)
        lent = []
        for name in ("rescale_columns", "locate_columns"):
            def spy(x, *args, _fn=getattr(robust_grad, name), _name=name, **kwargs):
                w = kwargs.get("work")
                lent.append((_name, x.shape[1], "outer" if w is work else w))
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(robust_grad, name, spy)
        with np.errstate(over="ignore", invalid="ignore"):
            got = robust_gradient(D, GUD_CFG, work=work)
            assert lent == [("rescale_columns", 5, "outer"), ("rescale_columns", 2, None),
                            ("locate_columns", 2, None), ("locate_columns", 5, "outer")]
            assert_same_estimate(got, robust_gradient(D, GUD_CFG))
