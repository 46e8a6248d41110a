"""Location/dispersion estimator core: contract examples, frozen oracle
values, and the solver invariants."""

import ast
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import robustgd.mest as mest
import robustgd.robust_grad as robust_grad
from robustgd.datagen import gen_classification
from robustgd.mest import (
    DEFAULT_FP,
    GEMAN_C,
    RHO_KINDS,
    SIGMA_FLOOR,
    ChiFunction,
    FixedPointSettings,
    RhoFunction,
    column_means,
    confidence_scale,
    locate_columns,
    _row_medians,
    rescale_columns,
)
from robustgd.models import LogisticModel, loss_and_grad_rows
from robustgd.robust_grad import RobustConfig, robust_gradient

from oracles import (
    CountingNumpy,
    chi_reference,
    counting_solve_columns,
    dchi_reference,
    dpsi_reference,
    locate_columns_reference,
    locate_oracle,
    psi_reference,
    rescale_columns_reference,
    rho_reference,
)

GUD = RhoFunction("gudermannian")
QUAD = RhoFunction("quadratic_test_only")
CHI = ChiFunction()
ROBUST_KINDS = ("gudermannian", "log_cosh", "pseudo_huber")
TIGHT = FixedPointSettings(max_iters=200, rel_tolerance=1e-13)

samples = st.lists(st.floats(-100, 100), min_size=1, max_size=40).map(np.asarray)


def locate1(x, s, rho, fp=DEFAULT_FP):
    """The location estimate of the 1-D sample x at scale s, from
    ``locate_columns`` of x as one column."""
    theta, _ = locate_columns(np.asarray(x, dtype=float)[:, None], [s], rho, fp)
    return float(theta[0])


def rescale1(x, pivot, fp=DEFAULT_FP):
    """The dispersion estimate of the 1-D sample x about ``pivot``, from
    ``rescale_columns`` of x as one column."""
    sigma, _ = rescale_columns(np.asarray(x, dtype=float)[:, None], [pivot], CHI, fp)
    return float(sigma[0])


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
        u = np.linspace(-20, 20, 401)
        assert np.allclose(rho_reference(kind, u), rho_reference(kind, -u), atol=1e-12)
        assert rho_reference(kind, 0.0) == pytest.approx(0.0, abs=1e-15)

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
        assert np.all(dpsi_reference(kind, v) > 0)

    def test_pseudo_huber_psi_keeps_its_bound_past_overflow(self):
        # 1 + u^2/2 overflows past |u| ~ 1.9e154; u / sqrt(inf) is 0 there
        # (nan at inf) and would take the outliers' pull out of locate
        rho = RhoFunction("pseudo_huber")
        big = np.array([1e155, 1e300, np.inf])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(rho.psi(big), np.full(3, np.sqrt(2.0)))
            assert np.array_equal(rho.psi(-big), np.full(3, -np.sqrt(2.0)))
            assert np.all(np.diff(rho.psi([1e150, 1e154, 1e155, 1e308, np.inf])) >= 0)
            at = [locate1(np.array([0, 0, 0, c, c]), 1.0, rho) for c in (1e100, 1e200)]
        assert at[0] == at[1] == pytest.approx(1.2649110640670942, rel=1e-12)

    @pytest.mark.parametrize("kind", RHO_KINDS)
    def test_huge_residuals_warn_nothing(self, kind):
        # u * u overflows inside the pseudo-Huber kernel at 1e300
        rho = RhoFunction(kind)
        x = np.array([0.0, 1.0, 1e300, -1e300, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = rho.psi(x)
            theta = locate1(x, 1.0, rho)
        assert np.array_equal(psi[2:4], [rho.psi(1e300), -rho.psi(1e300)])
        assert x.min() <= theta <= x.max()

    def test_quadratic_kind_is_identity_influence(self):
        u = np.linspace(-5, 5, 11)
        assert np.allclose(QUAD.psi(u), u)

    @pytest.mark.parametrize("kind", ROBUST_KINDS + ("quadratic_test_only",))
    def test_rho_matches_half_square_near_zero(self, kind):
        u = np.array([1e-4, 1e-3, 5e-3])
        assert np.allclose(rho_reference(kind, u) / (0.5 * u * u), 1.0, atol=1e-5)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_rho_linear_growth_in_tails(self, kind):
        u = np.array([50.0, 200.0, 1000.0])
        ratios = rho_reference(kind, u) / u
        assert np.all(ratios < 2.0)  # O(u), not O(u^2)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_rho_is_antiderivative_of_psi(self, kind):
        rho = RhoFunction(kind)
        for u in (0.3, 1.7, 4.0, 12.0, 31.0):
            q, _ = integrate.quad(lambda t: float(rho.psi(t)), 0.0, u)
            assert rho_reference(kind, u) == pytest.approx(q, abs=1e-9)

    def test_gudermannian_psi_values(self):
        assert GUD.psi(0.0) == 0.0
        assert abs(GUD.psi(50.0) - np.pi / 2) < 1e-12
        assert GUD.psi(1.0) == pytest.approx(2 * np.arctan(np.e) - np.pi / 2, abs=1e-14)
        # frozen high-precision evaluation
        assert GUD.psi(1.0) == pytest.approx(0.8657694832396586, abs=1e-12)

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
        assert CHI.chi(0.0) == pytest.approx(-CHI.c)
        assert CHI.c < 0.0 + 1.0  # positive constant
        u = np.linspace(0, 60, 600)
        vals = CHI.chi(u)
        assert np.all(np.diff(vals) >= 0)
        assert CHI.chi(1e9) == pytest.approx(1 - CHI.c, abs=1e-12)
        assert np.allclose(CHI.chi(u), CHI.chi(-u))

    def test_dchi_is_derivative_of_chi(self):
        u = np.array([-30.0, -2.0, -0.5, 0.0, 0.3, 1.0, 7.0])
        h = 1e-6
        fd = (CHI.chi(u + h) - CHI.chi(u - h)) / (2 * h)
        assert np.allclose(dchi_reference(u), fd, atol=1e-9)
        assert dchi_reference(1e200) == 0.0

    def test_centering_constant_from_integration(self):
        val, _ = integrate.quad(
            lambda x: x * x / (1 + x * x) * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
            -np.inf, np.inf)
        assert GEMAN_C == pytest.approx(val, abs=1e-10)
        assert abs(GEMAN_C - 0.34) < 0.01


class TestLocate:
    def test_quadratic_reduces_to_mean(self):
        assert locate1([1, 2, 3], 1.0, QUAD) == pytest.approx(2.0, abs=1e-14)

    def test_symmetric_sample(self):
        assert locate1([-5, 5], 1.0, GUD) == pytest.approx(0.0, abs=1e-12)

    def test_outlier_sample_matches_brute_force(self):
        x = np.array([0.0, 0.0, 0.0, 10.0])
        got = locate1(x, 1.0, GUD, TIGHT)
        assert got == pytest.approx(locate_oracle(x, 1.0, GUD), abs=1e-10)
        # frozen value from the extended-precision golden-section oracle
        assert got == pytest.approx(0.5492456156742342, abs=1e-9)

    def test_rejects_bad_input(self):
        # robust_gradient checks the sample once; locate_columns checks s
        with pytest.raises(ValueError, match="non-empty"):
            robust_gradient(np.empty((0, 1)), RobustConfig())
        with pytest.raises(ValueError, match="non-finite"):
            robust_gradient(np.array([[1.0], [np.nan]]), RobustConfig())
        with pytest.raises(ValueError, match="scale s"):
            locate1([1.0, 2.0], 0.0, GUD)

    @settings(max_examples=50, deadline=None)
    @given(samples, st.floats(-1000, 1000))
    def test_shift_equivariance(self, x, a):
        base = locate1(x, 1.0, GUD, TIGHT)
        shifted = locate1(x + a, 1.0, GUD, TIGHT)
        assert shifted == pytest.approx(base + a, abs=1e-9 * (1 + abs(a)))

    @settings(max_examples=50, deadline=None)
    @given(samples, st.floats(1e-3, 1e3))
    def test_scale_consistency(self, x, c):
        base = locate1(x, 1.0, GUD, TIGHT)
        scaled = locate1(c * x, c * 1.0, GUD, TIGHT)
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9 * c)

    @settings(max_examples=100, deadline=None)
    @given(samples, st.floats(1e-2, 1e4))
    def test_bracketing(self, x, s):
        t = locate1(x, s, GUD)
        assert x.min() - 1e-12 <= t <= x.max() + 1e-12

    def test_mean_limit_large_scale(self):
        rng = np.random.default_rng(3)
        x = rng.lognormal(0, 1.5, 200)
        r = x.max() - x.min()
        assert abs(locate1(x, 1e6 * r, GUD) - x.mean()) <= 1e-6 * r

    def test_quadratic_identity_any_scale(self):
        rng = np.random.default_rng(4)
        x = rng.normal(5, 3, 57)
        for s in (1e-3, 1.0, 1e5):
            assert locate1(x, s, QUAD) == pytest.approx(x.mean(), abs=1e-10)

    def test_vectorized_columns_match_scalar(self):
        rng = np.random.default_rng(5)
        X = rng.lognormal(0, 1.2, size=(40, 6))
        s = np.linspace(0.5, 4.0, 6)
        theta, fb = locate_columns(X, s, GUD, TIGHT)
        for j in range(6):
            assert theta[j] == pytest.approx(locate1(X[:, j], s[j], GUD, TIGHT),
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
        got = rescale1([7.0, 7.0, 7.0], 7.0)
        assert got == pytest.approx(SIGMA_FLOOR * (1 + 7.0))

    @pytest.mark.parametrize("factor", [2.0, 1e160])
    def test_scale_equivariance(self, factor):
        # at 1e160 the squared residuals overflow, so the solver must never
        # form them
        rng = np.random.default_rng(6)
        x = rng.lognormal(0, 1, 60)
        piv = x.mean()
        got = rescale1(factor * x, factor * piv)
        assert np.isfinite(got)
        assert got == pytest.approx(factor * rescale1(x, piv), rel=1e-7)

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
        assert rescale1(x, x.mean()) == pytest.approx(1.0, abs=0.05)

    def test_root_residual_small(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(3, 200)
        sig = rescale1(x, x.mean())
        resid = CHI.chi((x - x.mean()) / sig).mean()
        assert abs(resid) <= 1e-8

    def test_no_root_when_most_residuals_vanish(self):
        # 3 of 4 residuals exactly zero: the chi sum stays negative for all
        # sigma, so the estimate lands on the floor
        got = rescale1([5.0, 5.0, 5.0, 6.0], 5.0)
        assert got == pytest.approx(SIGMA_FLOOR * 6.0)

    def test_empty_rejected(self):
        # the sample check in robust_gradient comes before the scale stage
        with pytest.raises(ValueError, match="non-empty"):
            robust_gradient(np.empty((0, 1)), RobustConfig())

    def test_capped_column_falls_back(self):
        x = np.array([-3.0, -1.0, 0.0, 0.004, 0.01, 2.0, 50.0])
        fp = FixedPointSettings(max_iters=1)
        sig, fb = rescale_columns(x[:, None], x.mean(), CHI, fp)
        assert fb.tolist() == [True]
        assert abs(CHI.chi((x - x.mean()) / sig[0]).mean()) <= fp.rel_tolerance
        assert sig[0] == pytest.approx(rescale1(x, x.mean(), TIGHT), rel=1e-7)

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
            assert sig[j] == pytest.approx(rescale1(X[:, j], piv[j], TIGHT),
                                           rel=1e-10)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestStackedBlocks:
    """Every column is reduced alone, so any stack of blocks solved as one
    matrix gives each block the bits it gets alone, in either memory order."""

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_column_means_follow_each_block(self, n):
        rng = np.random.default_rng(n)
        a = rng.lognormal(0, 1.75, size=(n, 12))
        alone = np.array([a[:, j].copy().mean() for j in range(12)])
        for got in (column_means(a), column_means(np.asfortranarray(a)),
                    np.concatenate([column_means(a[:, lo:lo + 3].copy())
                                    for lo in range(0, 12, 3)])):
            assert np.array_equal(bits(got), bits(alone))

    @pytest.mark.parametrize("seed", range(4))
    def test_solvers_match_blocks_alone(self, seed):
        rng = np.random.default_rng(seed)
        edges = np.cumsum([0, 1, 2, 3, 8, 2, 1])
        X = (rng.lognormal(0, 1.75, size=(90, edges[-1]))
             * rng.choice([-1.0, 1.0], size=(90, edges[-1])))
        s = rng.uniform(0.5, 20.0, size=edges[-1])
        theta, _ = locate_columns(X, s, GUD)
        pivots = column_means(X)
        sigma, _ = rescale_columns(X, pivots, CHI)
        F = np.asfortranarray(X)
        assert np.array_equal(bits(theta), bits(locate_columns(F, s, GUD)[0]))
        assert np.array_equal(bits(sigma), bits(rescale_columns(F, pivots, CHI)[0]))
        for lo, hi in zip(edges[:-1], edges[1:]):
            Xb = X[:, lo:hi].copy()
            assert np.array_equal(bits(theta[lo:hi]),
                                  bits(locate_columns(Xb, s[lo:hi], GUD)[0]))
            assert np.array_equal(bits(pivots[lo:hi]), bits(column_means(Xb)))
            assert np.array_equal(bits(sigma[lo:hi]),
                                  bits(rescale_columns(Xb, column_means(Xb), CHI)[0]))


TINY = np.finfo(float).smallest_subnormal
KERNEL_INPUTS = np.concatenate([
    [0.0, -0.0, TINY, -TINY, 3 * TINY, -1e-310, 1e-17, -1e-17, 745.0, -745.0,
     1e300, -1e300],
    np.random.default_rng(3).standard_t(1.5, 2000)
    * 10.0 ** np.random.default_rng(4).integers(-6, 7, 2000)])


class TestFusedKernels:
    """The fused kernel psi_dpsi and chi are the library's only psi and chi
    formulas: they must carry the bits of the separate reference expressions
    in ``oracles``.  The dispersion residual reads only the means of
    w = 1/(1+u^2) and w^2, and must match the references' means within a
    few ulp."""

    @pytest.mark.parametrize("kind", RHO_KINDS)
    def test_psi_dpsi_bits(self, kind):
        rho = RhoFunction(kind)
        u = KERNEL_INPUTS.copy()
        psi, dpsi = np.empty_like(u), np.empty_like(u)
        with np.errstate(over="ignore"):
            got = rho.psi_dpsi(u, psi, dpsi)
            want = psi_reference(kind, u), dpsi_reference(kind, u)
            alone, block = rho.psi(u), rho.psi(u[:2000].reshape(40, 50))
            scalars = [(rho.psi(x), psi_reference(kind, x))
                       for v in u[:16] for x in (float(v), np.asarray(v))]
        assert got[0] is psi and got[1] is dpsi
        assert np.array_equal(bits(u), bits(KERNEL_INPUTS))
        assert np.array_equal(bits(psi), bits(want[0]))
        assert np.array_equal(bits(dpsi), bits(want[1]))
        assert np.array_equal(bits(alone), bits(want[0]))
        assert block.shape == (40, 50)
        assert np.array_equal(bits(block.ravel()), bits(want[0][:2000]))
        for value, ref in scalars:
            assert type(value) is np.float64
            assert np.array_equal(bits(value), bits(ref))

    def test_chi_bits(self):
        # inf residuals arise in rescale_columns from rt * exp(-z)
        u = np.concatenate([KERNEL_INPUTS, [np.inf, -np.inf]])
        assert np.array_equal(bits(CHI.chi(u)), bits(chi_reference(u)))
        assert np.isfinite(CHI.chi(u)).all()
        block = CHI.chi(u[:2000].reshape(40, 50))
        assert block.shape == (40, 50)
        assert np.array_equal(bits(block.ravel()), bits(chi_reference(u[:2000])))
        for v in np.concatenate([u[:16], u[-2:]]):
            for x in (float(v), np.asarray(v)):
                value = CHI.chi(x)
                assert type(value) is np.float64
                assert np.array_equal(bits(value), bits(chi_reference(x)))

    @staticmethod
    def dispersion_residual(rt):
        """The residual closure of ``rescale_columns`` for the (k, n) residuals
        rt about zero pivots, taken from the solve without running it."""
        got = []

        def capture(residual, z, lo, hi, fp):
            got.append(residual)
            return z, np.zeros(z.shape, dtype=bool)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mest, "_solve_columns", capture)
            with np.errstate(over="ignore"):
                rescale_columns(rt.T, np.zeros(len(rt)), CHI)
        return got[0]

    @pytest.mark.parametrize("case", ["kernel_inputs", "solver_samples"])
    def test_dispersion_residual_within_ulp(self, case):
        # mean chi = (1 - c) - mean w and slope 2 (mean w^2 - mean w) against
        # the means of chi_reference and -u dchi_reference; every term is
        # bounded by 1, so a few ulp of 1 bound the difference
        if case == "kernel_inputs":
            # u chi'(u) reads nan at u = +-inf, where the residual's slope
            # must take the limit 0
            rows = [np.concatenate([KERNEL_INPUTS, [np.inf, -np.inf]])]
        else:
            rows = [X.T for X in solver_samples(500, 40, seed=8)]
        eps = np.finfo(float).eps
        for rt in rows:
            rt = np.ascontiguousarray(np.atleast_2d(rt))
            residual = self.dispersion_residual(rt)
            cols = np.arange(len(rt))
            for z in (0.0, -5.0, 3.0, 40.0, -40.0):
                with np.errstate(over="ignore", invalid="ignore"):
                    f, slope = residual(np.full(len(rt), z), cols)
                    u = rt * np.exp(-z)
                    want_f = chi_reference(u).mean(axis=1)
                    udchi = u * dchi_reference(u)
                want_slope = -np.where(np.isnan(udchi), 0.0, udchi).mean(axis=1)
                assert np.isfinite(slope).all()
                assert np.abs(f - want_f).max() <= 4 * eps
                assert np.abs(slope - want_slope).max() <= 4 * eps


class TestGudermannianAccuracy:
    """The Gudermannian psi = atan(sinh u) and psi' = 1 / cosh u against
    200-bit mpmath, in ulp of the correctly rounded value."""

    @staticmethod
    def ulp_errors(got, want):
        want = np.asarray(want)
        return np.where(got == want, 0.0, np.abs(got - want) / np.spacing(np.abs(want)))

    def test_within_2_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        a = np.concatenate([10.0 ** rng.uniform(-300, 3, 2000),
                            rng.uniform(700.0, 750.0, 200),
                            [1e-300, 1e-8, 0.5, 19.0, 709.78, 710.47, 710.48, 1e3]])
        u = np.concatenate([a, -a])
        psi, dpsi = np.empty_like(u), np.empty_like(u)
        # the kernel sets no error state: sinh and cosh overflow past
        # |u| ~ 710, which warns unless the caller holds over="ignore"
        with pytest.warns(RuntimeWarning, match="overflow"):
            GUD.psi_dpsi(u, psi, dpsi)
        with np.errstate(over="ignore"):
            GUD.psi_dpsi(u, psi, dpsi)
        with mpmath.workprec(200):
            want = np.array([[float(mpmath.atan(mpmath.sinh(mpmath.mpf(v)))),
                              float(mpmath.sech(mpmath.mpf(v)))] for v in u])
        assert self.ulp_errors(psi, want[:, 0]).max() <= 2.0
        # psi' keeps 2 ulp into the subnormals, until cosh overflows at
        # |u| ~ 710.476 and flushes what is left below 2.2e-308 to 0
        err = self.ulp_errors(dpsi, want[:, 1])
        flushed = err > 2.0
        assert np.all(dpsi[flushed] == 0.0)
        assert np.all(want[flushed, 1] < np.finfo(float).tiny)
        assert np.all(np.abs(u[flushed]) > 710.47)
        assert flushed.any() and err[~flushed].max() <= 2.0

    def test_signed_zeros_and_infinities(self):
        u = np.array([0.0, -0.0, np.inf, -np.inf])
        with np.errstate(over="ignore"):
            psi, dpsi = GUD.psi_dpsi(u, np.empty(4), np.empty(4))
        # odd to the signed zero, and +-pi/2 with slope 0 at +-inf
        assert np.array_equal(bits(psi), bits(np.array([0.0, -0.0, np.pi / 2, -np.pi / 2])))
        assert np.array_equal(dpsi, [1.0, 1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(GUD.psi([1e3, -1e300]), [np.pi / 2, -np.pi / 2])


def heavy_rows(seed=7):
    """A heavy-tailed 500x128 gradient sample with column scales spread
    over a few decades."""
    rng = np.random.default_rng(seed)
    return rng.standard_t(2.0, size=(500, 128)) * rng.lognormal(0, 1, size=128)


class TestSolverBuffers:
    """Each solve works in one buffer set sliced to its open columns."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 500])
    def test_row_medians_match_numpy(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_t(1.5, size=(60, n)) * 10.0 ** rng.integers(-3, 300, 60)[:, None]
        a[:20] = np.round(rng.standard_normal((20, n)))  # ties
        # signed-zero middles: only their sign is left to the selection
        a[20:40] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(20, n))
        a[40] = -0.0
        with np.errstate(over="ignore"):
            assert np.array_equal(bits(_row_medians(a, np.empty_like(a))),
                                  bits(np.median(a, axis=1)))

    def test_row_medians_whose_midpoint_overflows(self):
        # two middle values past 9e307 sum to inf; their halves do not
        a = np.array([[1e308] * 4, [-1.7e308, 9e307, 9e307, 1e308], [1.0, 2.0, 3.0, 4.0]])
        with np.errstate(over="ignore"):
            got = _row_medians(a, np.empty_like(a))
        assert got.tolist() == [1e308, 9e307, 2.5]

    def test_inputs_left_unchanged(self):
        # np.ascontiguousarray(x.T) is x's own memory for these layouts, so a
        # solver writing into its transposed sample would corrupt the caller
        rng = np.random.default_rng(5)
        A = rng.standard_t(2.0, size=(6, 80))
        s = rng.uniform(0.5, 3.0, size=6)
        pivots = column_means(A.T)
        theta, _ = locate_columns(np.ascontiguousarray(A.T), s, GUD)
        sigma, _ = rescale_columns(np.ascontiguousarray(A.T), pivots, CHI)
        for x in (np.array(A.T, order="F"), A.T):
            saved = [a.copy() for a in (x, s, pivots)]
            assert np.array_equal(bits(locate_columns(x, s, GUD)[0]), bits(theta))
            assert np.array_equal(bits(rescale_columns(x, pivots, CHI)[0]), bits(sigma))
            for a, before in zip((x, s, pivots), saved):
                assert np.array_equal(bits(a), bits(before))

    # open columns at each residual evaluation of the dispersion solve and of
    # each kind's location solve; equal to the chi and psi calls of the
    # solvers that evaluated chi/dchi and psi/dpsi separately
    EVALUATIONS = {
        "500x128": ([128, 128, 128, 35, 1],
                    {"gudermannian": [128, 128, 75], "log_cosh": [128, 128, 80],
                     "pseudo_huber": [128, 128, 78], "quadratic_test_only": [128, 128]}),
        "10x40": ([40, 40, 40, 31],
                  {"gudermannian": [40, 40, 40, 19], "log_cosh": [40, 40, 40, 21],
                   "pseudo_huber": [40, 40, 39, 23], "quadratic_test_only": [40, 40]}),
    }

    @pytest.mark.parametrize("shape", EVALUATIONS)
    @pytest.mark.parametrize("kind", RHO_KINDS)
    def test_residual_evaluations_pinned(self, monkeypatch, shape, kind):
        X = heavy_rows() if shape == "500x128" else logistic_minibatch_rows()
        log = []
        monkeypatch.setattr(mest, "_solve_columns", counting_solve_columns(log))
        sigma, _ = rescale_columns(X, column_means(X), CHI)
        locate_columns(X, confidence_scale(sigma, X.shape[0], 0.005), RhoFunction(kind))
        seen = {"rescale_columns": [], "locate_columns": []}
        for solver, cols, rows in log:
            assert rows == X.shape[0]
            seen[solver].append(cols)
        chi_cols, psi_cols = self.EVALUATIONS[shape]
        assert seen == {"rescale_columns": chi_cols, "locate_columns": psi_cols[kind]}

    @staticmethod
    def numpy_calls(monkeypatch, *args, **kwargs):
        """The calls through ``mest``'s and ``robust_grad``'s ``np`` of one
        ``robust_gradient(*args, **kwargs)``: call sites, not work (see
        ``CountingNumpy``)."""
        counts = Counter()
        for module in (mest, robust_grad):
            monkeypatch.setattr(module, "np", CountingNumpy(counts))
        robust_gradient(*args, **kwargs)
        return sum(counts.values()), counts

    def test_numpy_calls_of_a_small_robust_gradient_pinned(self, monkeypatch):
        # at 10x40 each call into numpy costs about as much as its
        # arithmetic, so the calls one robust_gradient makes are its cost;
        # unlike wall time, the count does not move with the host's load.
        # 4 calls per Gudermannian psi evaluation, 8 per dispersion residual
        # evaluation, 3 per step of each solve (the bracket updates and the
        # closing test), 4 to set each solve up, and one per step on which
        # a column closes
        total, counts = self.numpy_calls(monkeypatch, logistic_minibatch_rows(),
                                         RobustConfig())
        assert total == 135, counts

    def test_numpy_calls_of_a_warm_stacked_robust_gradient_pinned(self, monkeypatch):
        # a full-batch step of 20 stacked 500x2 trials (poc_heavy's stacked
        # shape), started from the step before's estimates: full-batch rgd
        # passes such a start=(theta, sigma) from its second step on
        rng = np.random.default_rng(9)
        X = rng.standard_normal((500, 20, 2))
        noise = rng.lognormal(0.0, 1.75, (500, 20)) - np.exp(1.75 ** 2 / 2)
        dw = rng.standard_normal((20, 2))

        def rows(dw):  # least-squares gradient rows at w* + dw, (500, 40)
            residuals = np.einsum("ntd,td->nt", X, dw) - noise
            return (X * residuals[..., None]).reshape(500, 40)

        theta, info = robust_gradient(rows(dw), RobustConfig())
        total, counts = self.numpy_calls(monkeypatch, rows(0.9 * dw), RobustConfig(),
                                         start=(theta, info["sigma"]))
        assert total == 113, counts


def solver_samples(n, k, seed):
    """(n, k) samples that reach every branch of the root solve: heavy
    tails over a few decades, columns scaled by 1e150, collapsed brackets
    (a few ulps of spread at 1e150), constant and mostly-zero columns,
    signed zeros, and steep columns: a spread of 1e-11 about 1, so a mean
    residual within tolerance lies far inside one ulp of the root and the
    location brackets collapse during the Newton phase, every other one
    with outliers at +-1e6 that keep its bracket's first ends far wider
    than the root."""
    rng = np.random.default_rng(seed)
    base = rng.standard_t(1.5, size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
    huge = base * np.where(rng.random(k) < 0.5, 1e150, 1.0)
    collapsed = 1e150 * (1.0 + 2e-16 * rng.integers(-2, 3, size=(n, k)))
    degenerate = base.copy()
    degenerate[:, ::3] = 3.0
    degenerate[:, 1::3] = 0.0
    degenerate[: max(1, n // 4), 1::3] = base[: max(1, n // 4), 1::3]
    zeros = rng.choice([0.0, -0.0, 1e-300, -1.0], size=(n, k))
    steep = 1.0 + 1e-11 * rng.standard_t(1.5, size=(n, k))
    if n > 3:
        steep[:2, 1::2] = [[1e6], [-1e6]]
    return [base, huge, collapsed, degenerate, zeros, steep]


class TestSolverOracle:
    """The compacted root-solver loop against the loop that gathered and
    scattered full-length brackets every step (``oracles``): the same
    residual evaluations in the same order, so the same bits."""

    SHAPES = [(10, 40), (500, 2), (500, 40), (500, 128), (2000, 40), (1, 7), (60, 1)]
    CAPPED = [FixedPointSettings(max_iters=1), FixedPointSettings(max_iters=2)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_bits_equal_the_reference_loop(self, shape):
        samples = solver_samples(*shape, seed=shape[0] + shape[1])
        if shape == (10, 40):
            samples[0] = logistic_minibatch_rows()
        elif shape[0] * shape[1] > 10000:
            samples = samples[:2] + samples[3:4]  # the wide ones skip the rest
        fallbacks = 0

        def check(got, want):
            nonlocal fallbacks
            assert np.array_equal(bits(got[0]), bits(want[0]))
            assert np.array_equal(got[1], want[1])
            fallbacks += int(got[1].sum())

        for X in samples:
            # column medians as pivots make the mostly-zero columns rootless
            for pivots, settings in ((column_means(X), [DEFAULT_FP] + self.CAPPED),
                                     (np.median(X, axis=0), [DEFAULT_FP])):
                for fp in settings:
                    with np.errstate(over="ignore"):
                        check(rescale_columns(X, pivots, CHI, fp),
                              rescale_columns_reference(X, pivots, CHI, fp))
            s = confidence_scale(rescale_columns(X, column_means(X), CHI)[0], shape[0], 0.005)
            for kind in RHO_KINDS:
                rho = RhoFunction(kind)
                for scale, fp in ((s, DEFAULT_FP), (s, self.CAPPED[1]),
                                  (1e-3 * s, self.CAPPED[0])):
                    with np.errstate(over="ignore"):
                        check(locate_columns(X, scale, rho, fp),
                              locate_columns_reference(X, scale, rho, fp))
        # the bisection finish ran, except at n = 1, where every bracket
        # has collapsed before the first step
        assert fallbacks > 0 or shape[0] == 1

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_started_bits_equal_the_reference_loop(self, shape):
        # starts off the roots by up to half a decade, outside the brackets
        # and nan, clipped into each column's bracket
        rng = np.random.default_rng(shape[0] * shape[1])
        for X in solver_samples(*shape, seed=shape[0] + shape[1]):
            k = X.shape[1]
            pivots = column_means(X)
            sigma = rescale_columns(X, pivots, CHI)[0]
            sigma0 = sigma * np.exp(rng.uniform(-1.2, 1.2, k))
            odd = np.arange(0, k, 5)[:5]
            sigma0[odd] = [np.nan, np.inf, 0.0, -1.0, 1e300][: odd.size]
            got = rescale_columns(X, pivots, CHI, start=sigma0)
            with np.errstate(over="ignore"):  # the reference loop's residuals
                want = rescale_columns_reference(X, pivots, CHI, start=sigma0)
            assert np.array_equal(bits(got[0]), bits(want[0]))
            assert np.array_equal(got[1], want[1])
            s = confidence_scale(sigma, shape[0], 0.005)
            for kind in RHO_KINDS:
                rho = RhoFunction(kind)
                theta = locate_columns(X, s, rho)[0]
                theta0 = theta + s * rng.uniform(-0.5, 0.5, k)
                theta0[odd] = [np.nan, -np.inf, np.inf, 1e308, -1e308][: odd.size]
                got = locate_columns(X, s, rho, start=theta0)
                with np.errstate(over="ignore"):
                    want = locate_columns_reference(X, s, rho, start=theta0)
                assert np.array_equal(bits(got[0]), bits(want[0]))
                assert np.array_equal(got[1], want[1])

    def test_residual_warnings_are_off_for_the_solve(self):
        # x - theta overflows at theta = 1.5e308, and pseudo-Huber's u / p is
        # then inf / inf: the reference loop warned "invalid value" there;
        # the compacted loop runs the whole solve under one np.errstate
        # block with overflow off too, so it warns nothing.  psi(-inf) = -sqrt(2)
        # sends the solve into bisection next to 1.8e308, where the
        # reference's 0.5 * (lc + hc) also overflows; the library's estimate
        # is then the other bounded kinds' to the bit
        X = np.array([[-1.5e308], [1.5e308], [1.5e308]])
        rho = RhoFunction("pseudo_huber")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got = locate_columns(X, np.ones(1), rho)
        with warnings.catch_warnings(record=True) as seen_ref:
            warnings.simplefilter("always")
            locate_columns_reference(X, np.ones(1), rho)
        with np.errstate(over="ignore"):
            for kind in ("gudermannian", "log_cosh"):
                theta, _ = locate_columns(X, np.ones(1), RhoFunction(kind))
                assert np.array_equal(bits(got[0]), bits(theta))
        assert not seen
        assert {str(w.message) for w in seen_ref} == {
            "overflow encountered in subtract", "overflow encountered in multiply",
            "invalid value encountered in divide", "overflow encountered in add"}

    @pytest.mark.parametrize("kind", RHO_KINDS)
    def test_bisection_stays_finite_at_the_float_limit(self, kind):
        # both bracket ends pass 9e307, where 0.5 * (lc + hc) overflowed to
        # inf and theta left the sample's range
        X = np.array([[-1.5e308], [1.5e308], [1.5e308]])
        with np.errstate(over="ignore"):
            theta, _ = locate_columns(X, [1.0], RhoFunction(kind))
        assert -1.5e308 <= theta[0] <= 1.5e308

    def test_overflowing_dispersion_residuals_warn_nothing(self):
        # nine residuals near 1e-10 put sigma near 1e-10, so the 1e300
        # residual's rt * exp(-z) overflows at the root; the whole dispersion
        # solve runs under one np.errstate(over="ignore") block
        rng = np.random.default_rng(7)
        X = np.vstack([1e-10 * rng.standard_normal((9, 3)), [1e300, -1e300, 1e-10]])
        pivots = np.zeros(3)
        want = rescale_columns_reference(X, pivots, CHI)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            X[9, 0] / want[0][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rescale_columns(X, pivots, CHI)
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(got[1], want[1])


class TestConvergedRoots:
    """A column closes on the Newton step it has just computed, so the
    default tolerance gives the roots of a solve at 1e-14, and a start moves
    the path to a root, not the root."""

    TIGHTEST = FixedPointSettings(rel_tolerance=1e-14)

    @pytest.mark.parametrize("shape", TestSolverOracle.SHAPES,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_roots_match_a_tight_solve_from_any_start(self, shape):
        rng = np.random.default_rng(shape[0] + 7 * shape[1])
        for X in solver_samples(*shape, seed=shape[0] + shape[1]):
            k = X.shape[1]
            pivots = column_means(X)
            sigma = rescale_columns(X, pivots, CHI)[0]
            want = rescale_columns(X, pivots, CHI, self.TIGHTEST)[0]
            sigma0 = want * np.exp(rng.uniform(-1, 1, k))
            warm = rescale_columns(X, pivots, CHI, start=sigma0)[0]
            for got in (sigma, warm):
                assert np.all(np.abs(got - want) <= 1e-12 * want)
            s = confidence_scale(sigma, shape[0], 0.005)
            assert np.isfinite(s).all()
            for kind in RHO_KINDS:
                rho = RhoFunction(kind)
                theta = locate_columns(X, s, rho)[0]
                want = locate_columns(X, s, rho, self.TIGHTEST)[0]
                theta0 = want + s * rng.uniform(-0.5, 0.5, k)
                warm = locate_columns(X, s, rho, start=theta0)[0]
                # a bracket collapsed to 1e-15 of its ends (a few ulps)
                # closes where its point stands, from the start or, on the
                # steep columns, after Newton steps that cannot bring the
                # residual within tolerance: each solve's point and the
                # root then share a bracket that narrow.  The mean's
                # unbounded psi sums terms as large as the column's largest
                # value, whose rounding moves its root by a few ulps of that
                big = np.abs(X).max(axis=0) if kind == "quadratic_test_only" else want
                tol = np.maximum(1e-12 * s, 2e-15 * np.abs(big))
                for got in (theta, warm):
                    assert np.all(np.abs(got - want) <= tol), kind


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

    @pytest.mark.parametrize("sigma, n", [(np.nan, 10), ([1.0, np.nan], 10), (1.0, 2.5),
                                          (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_nan_scales_and_fractional_sizes(self, sigma, n):
        # a nan sigma_hat passed the positivity check and came back nan, and
        # n = 2.5 was used as 2
        with pytest.raises(ValueError):
            confidence_scale(sigma, n, 0.05)

    def test_overflowing_scale_passes(self):
        # robust_gradient passes the inf sigma_hat of an overflowing column
        s = confidence_scale(np.array([1.0, np.inf]), 10.0, 0.05)
        assert s[0] == confidence_scale(1.0, 10, 0.05) and s[1] == np.inf

    def test_larger_scale_moves_estimate_toward_mean(self):
        # the confidence knob interpolates between median-like and mean-like
        rng = np.random.default_rng(11)
        x = rng.lognormal(0, 1.75, 200)
        piv = x.mean()
        sig = rescale1(x, piv)
        dist = []
        for delta in (0.5, 0.1, 0.01):  # decreasing delta -> smaller s
            s = confidence_scale(sig, len(x), delta)
            dist.append(abs(locate1(x, s, GUD, TIGHT) - x.mean()))
        assert dist[0] <= dist[1] + 1e-9 <= dist[2] + 2e-9


def test_mest_module_does_not_import_scipy():
    tree = ast.parse(Path(mest.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m and m.split(".")[0] == "scipy"]
