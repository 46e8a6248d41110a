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
    locate,
    locate_columns,
    _row_medians,
    rescale,
    rescale_columns,
)
from robustgd.models import LogisticModel, loss_and_grad_rows
from robustgd.robust_grad import RobustConfig, robust_gradient

from oracles import (
    chi_reference,
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
            at = [locate(np.array([0, 0, 0, c, c]), 1.0, rho) for c in (1e100, 1e200)]
        assert at[0] == at[1] == pytest.approx(1.2649110640670942, rel=1e-12)

    @pytest.mark.parametrize("kind", RHO_KINDS)
    def test_huge_residuals_warn_nothing(self, kind):
        # u * u overflows inside the pseudo-Huber kernel at 1e300
        rho = RhoFunction(kind)
        x = np.array([0.0, 1.0, 1e300, -1e300, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = rho.psi(x)
            theta = locate(x, 1.0, rho)
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
        got = rescale([7.0, 7.0, 7.0], 7.0, CHI)
        assert got == pytest.approx(SIGMA_FLOOR * (1 + 7.0))

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

    def test_root_residual_small(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(3, 200)
        sig = rescale(x, x.mean(), CHI)
        resid = CHI.chi((x - x.mean()) / sig).mean()
        assert abs(resid) <= 1e-8

    def test_no_root_when_most_residuals_vanish(self):
        # 3 of 4 residuals exactly zero: the chi sum stays negative for all
        # sigma, so the estimate lands on the floor
        got = rescale([5.0, 5.0, 5.0, 6.0], 5.0, CHI)
        assert got == pytest.approx(SIGMA_FLOOR * 6.0)

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
    """The fused kernels psi_dpsi and chi_udchi are the library's only psi
    and chi formulas: they, and psi/chi, must carry the bits of the separate
    reference expressions in ``oracles``."""

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

    def test_chi_udchi_bits(self):
        # inf residuals arise in rescale_columns from rt * exp(-z)
        u = np.concatenate([KERNEL_INPUTS, [np.inf, -np.inf]])
        # the kernel leaves the error state to its caller: u * u overflows
        with np.errstate(over="ignore", invalid="ignore"):
            chi, udchi = CHI.chi_udchi(u, np.empty_like(u), np.empty_like(u))
            want = u * dchi_reference(u)
        assert np.array_equal(np.isnan(udchi), np.isnan(want))
        assert np.isnan(want[-2:]).all() and np.isfinite(chi).all()
        assert np.array_equal(bits(chi), bits(chi_reference(u)))
        assert np.array_equal(bits(udchi), bits(want))
        assert np.array_equal(bits(CHI.chi(u)), bits(chi_reference(u)))
        block = CHI.chi(u[:2000].reshape(40, 50))
        assert block.shape == (40, 50)
        assert np.array_equal(bits(block.ravel()), bits(chi_reference(u[:2000])))
        for v in np.concatenate([u[:16], u[-2:]]):
            for x in (float(v), np.asarray(v)):
                value = CHI.chi(x)
                assert type(value) is np.float64
                assert np.array_equal(bits(value), bits(chi_reference(x)))


def heavy_rows(seed=7):
    """A heavy-tailed 500x128 gradient sample with column scales spread
    over a few decades."""
    rng = np.random.default_rng(seed)
    return rng.standard_t(2.0, size=(500, 128)) * rng.lognormal(0, 1, size=128)


class _CountingNumpy:
    """numpy as seen through a module's ``np``: every call of a numpy
    function, or of one of its methods (``np.add.reduce``), counts."""

    def __init__(self, counts, target=np, name="np"):
        self._counts, self._target, self._name = counts, target, name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        return _CountingNumpy(self._counts, value, attr) if callable(value) else value

    def __call__(self, *args, **kwargs):
        self._counts[self._name] += 1
        return self._target(*args, **kwargs)


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
        seen = {"chi_udchi": [], "psi_dpsi": []}
        for cls, name in ((ChiFunction, "chi_udchi"), (RhoFunction, "psi_dpsi")):
            def counted(self, u, *args, _fn=getattr(cls, name), _name=name):
                seen[_name].append(u.shape[0])
                return _fn(self, u, *args)
            monkeypatch.setattr(cls, name, counted)
        sigma, _ = rescale_columns(X, column_means(X), CHI)
        locate_columns(X, confidence_scale(sigma, X.shape[0], 0.005), RhoFunction(kind))
        chi_cols, psi_cols = self.EVALUATIONS[shape]
        assert seen == {"chi_udchi": chi_cols, "psi_dpsi": psi_cols[kind]}

    def test_numpy_calls_of_a_small_robust_gradient_pinned(self, monkeypatch):
        # at 10x40 each call into numpy costs about as much as its
        # arithmetic, so the calls one robust_gradient makes are its cost;
        # unlike wall time, the count does not move with the host's load
        X = logistic_minibatch_rows()
        counts = Counter()
        for module in (mest, robust_grad):
            monkeypatch.setattr(module, "np", _CountingNumpy(counts))
        robust_gradient(X, RobustConfig())
        assert sum(counts.values()) == 212, counts


def solver_samples(n, k, seed):
    """(n, k) samples that reach every branch of the root solve: heavy
    tails over a few decades, columns scaled by 1e150, collapsed brackets
    (a few ulps of spread at 1e150), constant and mostly-zero columns, and
    signed zeros."""
    rng = np.random.default_rng(seed)
    base = rng.standard_t(1.5, size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
    huge = base * np.where(rng.random(k) < 0.5, 1e150, 1.0)
    collapsed = 1e150 * (1.0 + 2e-16 * rng.integers(-2, 3, size=(n, k)))
    degenerate = base.copy()
    degenerate[:, ::3] = 3.0
    degenerate[:, 1::3] = 0.0
    degenerate[: max(1, n // 4), 1::3] = base[: max(1, n // 4), 1::3]
    zeros = rng.choice([0.0, -0.0, 1e-300, -1.0], size=(n, k))
    return [base, huge, collapsed, degenerate, zeros]


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

    def test_residual_warnings_are_off_for_the_solve(self):
        # x - theta overflows at theta = 1.5e308, and pseudo-Huber's u / p is
        # then inf / inf: the reference loop warned "invalid value" there;
        # the compacted loop runs the whole solve under one np.errstate
        # block, so only the overflows still warn.  psi(-inf) = -sqrt(2)
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
        messages = {str(w.message) for w in seen}
        assert messages and all(m.startswith("overflow") for m in messages)
        assert {str(w.message) for w in seen_ref} == messages | {
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
        with np.errstate(invalid="ignore"):  # the reference's inf * 0 in chi
            want = rescale_columns_reference(X, pivots, CHI)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            X[9, 0] / want[0][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rescale_columns(X, pivots, CHI)
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(got[1], want[1])


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


def test_mest_module_does_not_import_scipy():
    tree = ast.parse(Path(mest.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m and m.split(".")[0] == "scipy"]
