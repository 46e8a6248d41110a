"""Location/dispersion estimator core: contract examples, frozen oracle
values, and the solver invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from robustgd.datagen import gen_classification
from robustgd.mest import (
    GEMAN_C,
    ChiFunction,
    FixedPointSettings,
    RhoFunction,
    chi_eval,
    column_means,
    confidence_scale,
    locate,
    locate_columns,
    psi_eval,
    rescale,
    rescale_columns,
)
from robustgd.models import LogisticModel, loss_and_grad_rows

from oracles import locate_oracle

GUD = RhoFunction("gudermannian")
QUAD = RhoFunction("quadratic_test_only")
CHI = ChiFunction()
ROBUST_KINDS = ("gudermannian", "log_cosh", "pseudo_huber")
TIGHT = FixedPointSettings(max_iters=200, rel_tolerance=1e-13)

samples = st.lists(st.floats(-100, 100), min_size=1, max_size=40).map(np.asarray)


def logistic_minibatch_rows(seed=2):
    """Per-row gradients of a 10-row mini-batch of 3-class logistic
    regression on 20 features: a 10x40 matrix with many near-tied values."""
    rng = np.random.default_rng(seed)
    ds = gen_classification(10, 20, 3, rng, label_noise=0.05)
    model = LogisticModel(3, 20, rng.normal(size=40), reg_strength=0.001)
    return loss_and_grad_rows(model, ds)[1]


class TestRhoFamily:
    @pytest.mark.parametrize("kind", ROBUST_KINDS + ("quadratic_test_only",))
    def test_rho_even_and_zero_at_origin(self, kind):
        rho = RhoFunction(kind)
        u = np.linspace(-20, 20, 401)
        assert np.allclose(rho.rho(u), rho.rho(-u), atol=1e-12)
        assert rho.rho(0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_psi_odd_increasing_bounded(self, kind):
        rho = RhoFunction(kind)
        u = np.linspace(-50, 50, 2001)
        psi = rho.psi(u)
        assert np.allclose(psi, -rho.psi(-u), atol=1e-12)
        assert np.all(np.abs(psi) < 2.0)
        assert rho.psi(0.0) == 0.0
        # strictly increasing where the increments are representable in
        # double precision (the tails saturate numerically)
        v = np.linspace(-15, 15, 601)
        assert np.all(np.diff(rho.psi(v)) > 0)
        assert np.all(rho.dpsi(v) > 0)

    def test_quadratic_kind_is_identity_influence(self):
        u = np.linspace(-5, 5, 11)
        assert np.allclose(QUAD.psi(u), u)
        assert not QUAD.bounded

    @pytest.mark.parametrize("kind", ROBUST_KINDS + ("quadratic_test_only",))
    def test_rho_matches_half_square_near_zero(self, kind):
        rho = RhoFunction(kind)
        u = np.array([1e-4, 1e-3, 5e-3])
        assert np.allclose(rho.rho(u) / (0.5 * u * u), 1.0, atol=1e-5)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_rho_linear_growth_in_tails(self, kind):
        rho = RhoFunction(kind)
        u = np.array([50.0, 200.0, 1000.0])
        ratios = rho.rho(u) / u
        assert np.all(ratios < 2.0)  # O(u), not O(u^2)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_rho_is_antiderivative_of_psi(self, kind):
        rho = RhoFunction(kind)
        for u in (0.3, 1.7, 4.0, 12.0, 31.0):
            q, _ = integrate.quad(lambda t: float(rho.psi(t)), 0.0, u)
            assert rho.rho(u) == pytest.approx(q, abs=1e-9)

    def test_gudermannian_psi_values(self):
        assert psi_eval(0.0, GUD) == 0.0
        assert abs(psi_eval(50.0, GUD) - np.pi / 2) < 1e-12
        assert psi_eval(1.0, GUD) == pytest.approx(2 * np.arctan(np.e) - np.pi / 2,
                                                   abs=1e-14)
        # frozen high-precision evaluation
        assert psi_eval(1.0, GUD) == pytest.approx(0.8657694832396586, abs=1e-12)

    def test_log_envelope_bounds_on_grid(self):
        u = np.linspace(-10.0, 10.0, 4001)
        psi = GUD.psi(u)
        C = 2.0
        assert np.all(-np.log(1.0 - u + C * u * u) <= psi + 1e-12)
        assert np.all(psi <= np.log(1.0 + u + C * u * u) + 1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RhoFunction("huber")


class TestChiFamily:
    def test_shape(self):
        assert chi_eval(0.0, CHI) == pytest.approx(-CHI.c)
        assert CHI.c < 0.0 + 1.0  # positive constant
        u = np.linspace(0, 60, 600)
        vals = CHI.chi(u)
        assert np.all(np.diff(vals) >= 0)
        assert chi_eval(1e9, CHI) == pytest.approx(1 - CHI.c, abs=1e-12)
        assert np.allclose(CHI.chi(u), CHI.chi(-u))

    def test_dchi_is_derivative_of_chi(self):
        u = np.array([-30.0, -2.0, -0.5, 0.0, 0.3, 1.0, 7.0])
        h = 1e-6
        fd = (CHI.chi(u + h) - CHI.chi(u - h)) / (2 * h)
        assert np.allclose(CHI.dchi(u), fd, atol=1e-9)
        assert CHI.dchi(1e200) == 0.0

    def test_centering_constant_from_integration(self):
        val, _ = integrate.quad(
            lambda x: x * x / (1 + x * x) * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
            -np.inf, np.inf)
        assert GEMAN_C == pytest.approx(val, abs=1e-10)
        assert abs(GEMAN_C - 0.34) < 0.01


class TestLocate:
    def test_quadratic_reduces_to_mean(self):
        assert locate([1, 2, 3], 1.0, QUAD) == pytest.approx(2.0, abs=1e-14)

    def test_symmetric_sample(self):
        assert locate([-5, 5], 1.0, GUD) == pytest.approx(0.0, abs=1e-12)

    def test_outlier_sample_matches_brute_force(self):
        x = np.array([0.0, 0.0, 0.0, 10.0])
        got = locate(x, 1.0, GUD, TIGHT)
        assert got == pytest.approx(locate_oracle(x, 1.0, GUD), abs=1e-10)
        # frozen value from the extended-precision golden-section oracle
        assert got == pytest.approx(0.5492456156742342, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            locate([], 1.0, GUD)
        with pytest.raises(ValueError):
            locate([1.0, np.nan], 1.0, GUD)
        with pytest.raises(ValueError):
            locate([1.0, 2.0], 0.0, GUD)

    @settings(max_examples=50, deadline=None)
    @given(samples, st.floats(-1000, 1000))
    def test_shift_equivariance(self, x, a):
        base = locate(x, 1.0, GUD, TIGHT)
        shifted = locate(x + a, 1.0, GUD, TIGHT)
        assert shifted == pytest.approx(base + a, abs=1e-9 * (1 + abs(a)))

    @settings(max_examples=50, deadline=None)
    @given(samples, st.floats(1e-3, 1e3))
    def test_scale_consistency(self, x, c):
        base = locate(x, 1.0, GUD, TIGHT)
        scaled = locate(c * x, c * 1.0, GUD, TIGHT)
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9 * c)

    @settings(max_examples=100, deadline=None)
    @given(samples, st.floats(1e-2, 1e4))
    def test_bracketing(self, x, s):
        t = locate(x, s, GUD)
        assert x.min() - 1e-12 <= t <= x.max() + 1e-12

    def test_mean_limit_large_scale(self):
        rng = np.random.default_rng(3)
        x = rng.lognormal(0, 1.5, 200)
        r = x.max() - x.min()
        assert abs(locate(x, 1e6 * r, GUD) - x.mean()) <= 1e-6 * r

    def test_quadratic_identity_any_scale(self):
        rng = np.random.default_rng(4)
        x = rng.normal(5, 3, 57)
        for s in (1e-3, 1.0, 1e5):
            assert locate(x, s, QUAD) == pytest.approx(x.mean(), abs=1e-10)

    def test_vectorized_columns_match_scalar(self):
        rng = np.random.default_rng(5)
        X = rng.lognormal(0, 1.2, size=(40, 6))
        s = np.linspace(0.5, 4.0, 6)
        theta, fb = locate_columns(X, s, GUD, TIGHT)
        for j in range(6):
            assert theta[j] == pytest.approx(locate(X[:, j], s[j], GUD, TIGHT),
                                             abs=1e-12)
        assert not fb.any()

    def test_tiny_scale_converges_via_fallback(self):
        # s far below the data spread: the two points near the median are
        # unsaturated, so one Newton step leaves the column open and
        # bisection finishes it
        x = np.array([-3.0, -1.0, 0.0, 0.004, 0.01, 2.0, 50.0])
        theta, fb = locate_columns(x[:, None], 0.01, GUD,
                                   FixedPointSettings(max_iters=1))
        assert fb.tolist() == [True]
        assert theta[0] == pytest.approx(locate_oracle(x, 0.01, GUD), abs=1e-8)

    def test_default_settings_flag_nothing_on_minibatch_gradients(self):
        G = logistic_minibatch_rows()
        sigma, _ = rescale_columns(G, G.mean(axis=0), CHI)
        s = confidence_scale(sigma, G.shape[0], 0.005)
        theta, fb = locate_columns(G, s, GUD)
        assert not fb.any()
        assert np.all(np.abs(GUD.psi((G - theta) / s).mean(axis=0)) <= 1e-8)


class TestRescale:
    def test_degenerate_returns_floor(self):
        fp = FixedPointSettings()
        got = rescale([7.0, 7.0, 7.0], 7.0, CHI, fp)
        assert got == pytest.approx(fp.sigma_floor * (1 + 7.0))

    @pytest.mark.parametrize("factor", [2.0, 1e160])
    def test_scale_equivariance(self, factor):
        # at 1e160 the squared residuals overflow, so the solver must never
        # form them
        rng = np.random.default_rng(6)
        x = rng.lognormal(0, 1, 60)
        piv = x.mean()
        got = rescale(factor * x, factor * piv, CHI)
        assert np.isfinite(got)
        assert got == pytest.approx(factor * rescale(x, piv, CHI), rel=1e-7)

    def test_overflowing_spread_stays_finite(self):
        # squared residuals overflow at this scale; the estimate must still
        # be finite, unflagged and equivariant
        rng = np.random.default_rng(12)
        X = rng.lognormal(0, 1.75, size=(100, 2))
        piv = X.mean(axis=0)
        sig, fb = rescale_columns(1e160 * X, 1e160 * piv, CHI)
        assert np.all(np.isfinite(sig)) and not fb.any()
        assert np.allclose(sig, 1e160 * rescale_columns(X, piv, CHI)[0], rtol=1e-7)

    def test_standard_normal_dispersion_is_one(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=10 ** 5)
        assert rescale(x, x.mean(), CHI) == pytest.approx(1.0, abs=0.05)

    def test_any_start_reaches_same_root(self):
        rng = np.random.default_rng(8)
        x = rng.lognormal(0, 1.5, 100)
        piv = x.mean()
        a = rescale(x, piv, CHI, TIGHT, sigma0=0.01)
        b = rescale(x, piv, CHI, TIGHT, sigma0=100.0)
        assert a == pytest.approx(b, rel=1e-8)

    def test_root_residual_small(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(3, 200)
        sig = rescale(x, x.mean(), CHI)
        resid = CHI.chi((x - x.mean()) / sig).mean()
        assert abs(resid) <= 1e-8

    def test_no_root_when_most_residuals_vanish(self):
        # 3 of 4 residuals exactly zero: the chi sum stays negative for all
        # sigma, so the estimate lands on the floor
        fp = FixedPointSettings()
        got = rescale([5.0, 5.0, 5.0, 6.0], 5.0, CHI, fp)
        assert got == pytest.approx(fp.sigma_floor * 6.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rescale([], 0.0, CHI)

    def test_capped_column_falls_back(self):
        x = np.array([-3.0, -1.0, 0.0, 0.004, 0.01, 2.0, 50.0])
        fp = FixedPointSettings(max_iters=1)
        sig, fb = rescale_columns(x[:, None], x.mean(), CHI, fp)
        assert fb.tolist() == [True]
        assert abs(CHI.chi((x - x.mean()) / sig[0]).mean()) <= fp.rel_tolerance
        assert sig[0] == pytest.approx(rescale(x, x.mean(), CHI, TIGHT), rel=1e-7)

    def test_default_settings_flag_nothing_on_minibatch_gradients(self):
        G = logistic_minibatch_rows()
        piv = G.mean(axis=0)
        sig, fb = rescale_columns(G, piv, CHI)
        assert not fb.any()
        assert np.all(np.abs(CHI.chi((G - piv) / sig).mean(axis=0)) <= 1e-8)

    def test_columns_match_scalar(self):
        rng = np.random.default_rng(10)
        X = rng.lognormal(0, 1, size=(50, 4))
        piv = X.mean(axis=0)
        sig, _ = rescale_columns(X, piv, CHI, TIGHT)
        for j in range(4):
            assert sig[j] == pytest.approx(rescale(X[:, j], piv[j], CHI, TIGHT),
                                           rel=1e-10)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestStackedBlocks:
    """A matrix stacking independent blocks of ``width`` columns is solved
    with each block's own reductions, so every block's estimates carry the
    same bits as when the block is solved alone."""

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_column_means_follow_each_block(self, n):
        # numpy sums a lone column pairwise but several columns row by row
        rng = np.random.default_rng(n)
        a = rng.lognormal(0, 1.75, size=(n, 12))
        cols = np.array([0, 2, 3, 4, 5, 9, 10])  # blocks of 3: 1, 2, 1, 2 open
        got = column_means(a[:, cols], 3, cols)
        for b in range(4):
            open_ = cols[cols // 3 == b]
            assert np.array_equal(bits(got[cols // 3 == b]),
                                  bits(a[:, open_].mean(axis=0)))
        assert np.array_equal(bits(column_means(a, 1)),
                              bits([a[:, [j]].mean(axis=0)[0] for j in range(12)]))
        assert np.array_equal(bits(column_means(a)), bits(a.mean(axis=0)))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_solvers_match_blocks_alone(self, width):
        rng = np.random.default_rng(width)
        blocks = 6
        X = (rng.lognormal(0, 1.75, size=(90, blocks * width))
             * rng.choice([-1.0, 1.0], size=(90, blocks * width)))
        s = rng.uniform(0.5, 20.0, size=blocks * width)
        theta, _ = locate_columns(X, s, GUD, width=width)
        pivots = column_means(X, width)
        sigma, _ = rescale_columns(X, pivots, CHI, width=width)
        for b in range(blocks):
            cols = slice(b * width, (b + 1) * width)
            Xb = X[:, cols].copy()
            assert np.array_equal(bits(theta[cols]),
                                  bits(locate_columns(Xb, s[cols], GUD)[0]))
            assert np.array_equal(bits(pivots[cols]), bits(Xb.mean(axis=0)))
            assert np.array_equal(bits(sigma[cols]),
                                  bits(rescale_columns(Xb, Xb.mean(axis=0), CHI)[0]))


class TestConfidenceScale:
    def test_log_term_one(self):
        assert confidence_scale(1.0, 100, 2 / np.e) == pytest.approx(10.0, abs=1e-12)
        assert confidence_scale(2.0, 400, 2 / np.e) == pytest.approx(40.0, abs=1e-12)

    def test_frozen_high_precision_value(self):
        assert confidence_scale(1.5, 500, 0.005) == pytest.approx(
            13.702814050082027, abs=1e-12)

    def test_monotone_in_n_and_delta(self):
        s1 = confidence_scale(1.0, 100, 0.05)
        s2 = confidence_scale(1.0, 200, 0.05)
        assert s2 > s1
        # shrinking delta tightens (decreases) the scale
        assert confidence_scale(1.0, 100, 0.01) < s1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            confidence_scale(1.0, 0, 0.05)
        with pytest.raises(ValueError):
            confidence_scale(1.0, 10, 1.5)
        with pytest.raises(ValueError):
            confidence_scale(-1.0, 10, 0.05)

    def test_larger_scale_moves_estimate_toward_mean(self):
        # the confidence knob interpolates between median-like and mean-like
        rng = np.random.default_rng(11)
        x = rng.lognormal(0, 1.75, 200)
        piv = x.mean()
        sig = rescale(x, piv, CHI)
        dist = []
        for delta in (0.5, 0.1, 0.01):  # decreasing delta -> smaller s
            s = confidence_scale(sig, len(x), delta)
            dist.append(abs(locate(x, s, GUD, TIGHT) - x.mean()))
        assert dist[0] <= dist[1] + 1e-9 <= dist[2] + 2e-9


def test_psi_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        psi_eval(np.inf, GUD)
    with pytest.raises(ValueError):
        chi_eval(np.nan, CHI)
