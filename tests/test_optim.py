"""Descent loops, budgets, and the geometric-median aggregator."""

import warnings
from collections import Counter

import numpy as np
import pytest

from robustgd.datagen import gen_regression, NoiseSpec
from robustgd.mest import FixedPointSettings, RhoFunction
from robustgd.models import Dataset, LinearModel, LogisticModel, loss_and_grad_rows
import robustgd.models as models
import robustgd.optim as optim
from robustgd.optim import (
    _batch_descent,
    _row_draws,
    _row_means,
    OptimState,
    StoppingRule,
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
from robustgd.robust_grad import RobustConfig

from oracles import (
    CountingNumpy,
    CurvedQuadratic,
    block_means_reference,
    erm_gd_stacked_reference_run,
    geometric_median_objective,
    geometric_median_oracle,
    quadratic_descent_iterates,
    rgd_mb_reference_run,
    rgd_stacked_reference_run,
    sgd_reference_run,
    svrg_reference_run,
    weiszfeld_reference,
)

TIGHT = FixedPointSettings(max_iters=300, rel_tolerance=1e-13)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def regression_problem(n=60, d=3, seed=0, heavy=False):
    rng = np.random.default_rng(seed)
    spec = (NoiseSpec("lognormal", params={"log_loc": 0.0, "log_scale": 1.75})
            if heavy else NoiseSpec("normal", params={"scale": 1.0}))
    ds, w_star = gen_regression(n, d, spec, rng)
    return ds, w_star, rng


def mixed_batch(d=3, n=60, seed=0, zero_column=False):
    """Datasets and starts of four trials that stop differently at step size
    0.1, 60 updates and grad_norm_tol 1e-3: one runs to the cap, one
    diverges mid-run (inputs scaled up 3000-fold), one reaches grad_tol
    (noiseless, started near the target) and one runs to the cap.
    ``zero_column`` zeroes every trial's first input column, so that
    gradient column holds only signed zeros."""
    rng = np.random.default_rng(seed)
    w_star = rng.normal(size=d)
    datasets, starts = [], []
    for kind in ("run", "diverge", "grad_tol", "run"):
        X = rng.normal(size=(n, d)) * (3000.0 if kind == "diverge" else 1.0)
        if zero_column:
            X[:, 0] = 0.0
        y = X @ w_star
        if kind != "grad_tol":
            y = y + rng.lognormal(0.0, 1.75, size=n)
        datasets.append(Dataset(X, y))
        offset = 0.01 if kind == "grad_tol" else 5.0
        starts.append(w_star + offset * rng.normal(size=d))
    return datasets, np.array(starts)


def alpha5_batch(d=3, n=60, seed=1, order="C"):
    """Datasets (inputs in memory ``order``) and starts of four trials at
    step size 5, 60 updates and grad_norm_tol 1e-3: inputs scaled to 0.05
    keep the step stable for the two that run to the cap, inputs scaled
    1000-fold make one diverge mid-run, and a noiseless trial started near
    its target, at input scale 0.2, stops at grad_tol."""
    rng = np.random.default_rng(seed)
    w_star = rng.normal(size=d)
    datasets, starts = [], []
    for kind in ("run", "diverge", "grad_tol", "run"):
        X = rng.normal(size=(n, d)) * {"run": 0.05, "diverge": 1000.0,
                                       "grad_tol": 0.2}[kind]
        y = X @ w_star
        if kind != "grad_tol":
            y = y + rng.lognormal(0.0, 1.75, size=n)
        datasets.append(Dataset(np.asarray(X, order=order), y))
        starts.append(w_star + (0.1 if kind == "grad_tol" else 5.0) * rng.normal(size=d))
    return datasets, np.array(starts)


def assert_same_trajectory(a, b):
    assert np.array_equal(a.steps, b.steps)
    assert a.iterates.shape == b.iterates.shape
    assert np.array_equal(a.iterates.view(np.int64), b.iterates.view(np.int64))
    assert np.array_equal(a.grad_evals, b.grad_evals)
    assert a.stop_reason == b.stop_reason
    assert a.diagnostics == b.diagnostics


def wide_range_rows(T, n, d, seed=0):
    """(T, n, d) rows whose magnitudes span about 1e-9 to 1e9, so that summing
    them in another order moves their low bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(T, n, d)) * np.exp(rng.uniform(-20.0, 20.0, size=(T, n, d)))


class TestRowMeans:
    """``_row_means`` is np.add.reduce(G, 1) / n of a C-ordered G bit for
    bit, for G C-ordered and for G the (T, n, d) view of rows in (T, d, n)
    memory, as the kernels write them against a column copy."""

    @staticmethod
    def assert_reduce_bits(G):
        T, n, d = G.shape
        by_column = np.ascontiguousarray(G.transpose(0, 2, 1)).transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.add.reduce(G, 1) / n
            got = _row_means(G)
            from_columns = _row_means(by_column)
        assert same_bits(got, want)
        assert same_bits(from_columns, want)
        return got

    @pytest.mark.parametrize("n", [1, 2, 500])
    @pytest.mark.parametrize("d", [1, 2, 40])
    @pytest.mark.parametrize("T", [1, 4, 20])
    def test_matches_the_middle_axis_reduce(self, T, d, n):
        self.assert_reduce_bits(wide_range_rows(T, n, d, seed=T * d + n))

    @pytest.mark.parametrize("n", [1, 2, 9])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("T", [1, 4])
    def test_negative_zero_column_gives_positive_zero(self, T, d, n):
        # numpy's reduce adds each column to +0.0, so a column of -0.0 sums
        # to +0.0 (a sequential cumsum would give -0.0)
        G = wide_range_rows(T, n, d)
        G[:, :, -1] = -0.0
        got = self.assert_reduce_bits(G)
        assert not np.signbit(got[:, -1]).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("T", [1, 4])
    def test_overflowing_rows(self, T, d):
        # the first column overflows to inf before its negative rows come;
        # the others alternate in sign and cancel
        G = np.full((T, 6, d), 1e308)
        G[:, 2::3, 0] = -1e308
        G[:, ::2, 1:] *= -1.0
        got = self.assert_reduce_bits(G)
        assert (got[:, 0] == np.inf).all() and (got[:, 1:] == 0.0).all()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("T", [1, 4])
    def test_nan_and_inf_entries(self, T, d):
        G = wide_range_rows(T, 7, d)
        G[0, 3, 0] = np.nan
        G[-1, 0, -1] = np.inf
        G[-1, 5, 0] = -np.inf
        if T > 1:
            G[1, 2, -1] = np.inf
            G[1, 4, -1] = -np.inf
        got = self.assert_reduce_bits(G)
        assert np.isnan(got[0, 0]) and not np.isfinite(got[-1]).all()


class TestStackedRuns:
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize(
        "seed, record_every, zero_column",
        [pytest.param(seed, every, False, id=f"{seed}-{every}")
         for seed in (0, 1) for every in (1, 7)]
        + [pytest.param(0, 1, True, id="0-1-zero_column")])
    @pytest.mark.parametrize("method", ["rgd", "erm"])
    def test_stacked_equals_solo(self, method, seed, record_every, zero_column):
        datasets, W0 = mixed_batch(seed=seed, zero_column=zero_column)
        stop = StoppingRule(max_iters=60, grad_norm_tol=1e-3)
        model, cfg = LinearModel(np.zeros(3)), RobustConfig()
        kw = dict(stop=stop, record_every=record_every)
        if method == "rgd":
            stacked = rgd_stacked_run(model, datasets, cfg, OptimState(W0, 0.1), **kw)
            solo = [rgd_run(model, ds, cfg, OptimState(w, 0.1), **kw)
                    for ds, w in zip(datasets, W0)]
        else:
            stacked = erm_gd_stacked_run(model, datasets, OptimState(W0, 0.1), **kw)
            solo = [erm_gd_run(model, ds, OptimState(w, 0.1), **kw)
                    for ds, w in zip(datasets, W0)]
        assert [t.stop_reason for t in solo] == ["max_iters", "diverged",
                                                 "grad_tol", "max_iters"]
        assert 1 < solo[1].steps[-1] < 60 and 1 < solo[2].steps[-1] < 60
        for a, b in zip(stacked, solo):
            assert_same_trajectory(a, b)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_stacked_columns_solve_as_alone(self, d):
        # every column is reduced alone, so the stacked solve reproduces
        # each trial's own, whatever d
        datasets, w_star = [], np.ones(d)
        for seed in range(6):
            ds, _, _ = regression_problem(n=80, d=d, seed=seed, heavy=True)
            datasets.append(ds)
        W0 = np.stack([w_star + 3.0 * np.arange(1, d + 1) * (-1) ** k
                       for k in range(6)])
        cfg, stop = RobustConfig(), StoppingRule(max_iters=25)
        stacked = rgd_stacked_run(LinearModel(w_star), datasets, cfg,
                                  OptimState(W0, 0.2), stop=stop)
        for ds, w, traj in zip(datasets, W0, stacked):
            assert_same_trajectory(
                traj, rgd_run(LinearModel(w_star), ds, cfg, OptimState(w, 0.2),
                              stop=stop))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("method", ["rgd", "erm"])
    def test_stacked_equals_the_per_trial_glue(self, method, seed, order):
        # one trial diverges and one stops at grad_tol, so later steps run
        # on a live subset; F-ordered inputs are stored C-ordered
        datasets, W0 = alpha5_batch(seed=seed, order=order)
        stop = StoppingRule(max_iters=60, grad_norm_tol=1e-3)
        model, cfg = LinearModel(np.zeros(3)), RobustConfig()
        if method == "rgd":
            got = rgd_stacked_run(model, datasets, cfg, OptimState(W0, 5.0), stop=stop)
            want = rgd_stacked_reference_run(model, datasets, cfg, OptimState(W0, 5.0), stop)
            solo = [rgd_run(model, ds, cfg, OptimState(w, 5.0), stop=stop)
                    for ds, w in zip(datasets, W0)]
        else:
            got = erm_gd_stacked_run(model, datasets, OptimState(W0, 5.0), stop=stop)
            want = erm_gd_stacked_reference_run(model, datasets, OptimState(W0, 5.0), stop)
            solo = [erm_gd_run(model, ds, OptimState(w, 5.0), stop=stop)
                    for ds, w in zip(datasets, W0)]
        assert [t.stop_reason for t in want] == ["max_iters", "diverged",
                                                 "grad_tol", "max_iters"]
        assert 1 < want[1].steps[-1] < 60 and 1 < want[2].steps[-1] < 60
        for a, b, c in zip(got, want, solo):
            assert_same_trajectory(a, b)
            assert_same_trajectory(c, b)

    @pytest.mark.parametrize("method", ["rgd", "erm"])
    def test_stacked_logistic_equals_the_per_trial_glue(self, method):
        # the logistic kernel writes C-ordered rows, which the solve copies
        datasets, W0 = [], []
        for seed in range(3):
            model, ds, w0 = stochastic_problem("logistic_reg", n=40, seed=seed)
            datasets.append(ds)
            W0.append(w0)
        state, stop = OptimState(np.array(W0), 0.5), StoppingRule(max_iters=15)
        if method == "rgd":
            got = rgd_stacked_run(model, datasets, RobustConfig(), state, stop=stop)
            want = rgd_stacked_reference_run(model, datasets, RobustConfig(), state, stop)
        else:
            got = erm_gd_stacked_run(model, datasets, state, stop=stop)
            want = erm_gd_stacked_reference_run(model, datasets, state, stop)
        for a, b in zip(got, want):
            assert_same_trajectory(a, b)

    def test_solver_reads_the_kernel_rows_without_a_copy(self, monkeypatch):
        # the (T d, n) matrix robust_gradient copies to C order is the
        # transpose of the linear kernel's own output, already C-ordered
        rng = np.random.default_rng(3)
        T, n = 4, 50
        model = LinearModel(np.zeros(3))
        datasets = [regression_problem(n=n, seed=k)[0] for k in range(T)]
        outputs, samples = [], []
        grad_rows, solve = LinearModel.grad_rows, optim.robust_gradient

        def kept_rows(self, *args):
            outputs.append(grad_rows(self, *args))
            return outputs[-1]

        def kept_sample(D, *args):
            samples.append(D)
            return solve(D, *args)

        monkeypatch.setattr(LinearModel, "grad_rows", kept_rows)
        monkeypatch.setattr(optim, "robust_gradient", kept_sample)
        rgd_stacked_run(model, datasets, RobustConfig(),
                        OptimState(rng.normal(size=(T, model.dim)), 0.1),
                        StoppingRule(max_iters=4))
        assert len(outputs) == len(samples) == 4
        for G, D in zip(outputs, samples):
            assert D.shape == (n, T * model.dim) and D.T.flags.c_contiguous
            assert np.shares_memory(D.T, G)

    def test_stacked_trials_must_share_d(self):
        a, _, _ = regression_problem(n=30, d=3)
        b, _, _ = regression_problem(n=30, d=2)
        state, stop = OptimState(np.zeros((2, 3)), 0.1), StoppingRule(max_iters=1)
        with pytest.raises(ValueError, match="share the number of features"):
            erm_gd_stacked_run(LinearModel(np.zeros(3)), [a, b], state, stop)
        with pytest.raises(ValueError, match="share the number of features"):
            rgd_stacked_run(LinearModel(np.zeros(3)), [a, b], RobustConfig(), state, stop)

    def test_stacked_trials_must_share_n(self):
        a, _, _ = regression_problem(n=30)
        b, _, _ = regression_problem(n=31)
        state, stop = OptimState(np.zeros((2, 3)), 0.1), StoppingRule(max_iters=1)
        with pytest.raises(ValueError, match="share the number of rows"):
            erm_gd_stacked_run(LinearModel(np.zeros(3)), [a, b], state, stop)
        with pytest.raises(ValueError, match="share the number of rows"):
            rgd_stacked_run(LinearModel(np.zeros(3)), [a, b], RobustConfig(), state, stop)


class TestRgdRun:
    def test_zero_gradient_start_stays_put(self):
        # every row has zero gradient at the true weights of noiseless data
        rng = np.random.default_rng(1)
        w = rng.normal(size=3)
        X = rng.normal(size=(20, 3))
        ds = Dataset(X, X @ w)
        traj = rgd_run(LinearModel(w), ds, RobustConfig(fp=TIGHT),
                       OptimState(w.copy(), 0.1), stop=StoppingRule(max_iters=7))
        assert traj.iterates.shape[0] == 8
        assert np.allclose(traj.iterates, w, atol=1e-12)

    def test_quadratic_rho_reproduces_erm_gd(self):
        ds, w_star, rng = regression_problem(heavy=True)
        w0 = w_star + rng.uniform(-2, 2, size=3)
        stop = StoppingRule(max_iters=25)
        cfg = RobustConfig(rho=RhoFunction("quadratic_test_only"), fp=TIGHT)
        t_rgd = rgd_run(LinearModel(w0), ds, cfg, OptimState(w0.copy(), 0.1),
                        stop=stop)
        t_erm = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.1),
                           stop=stop)
        assert np.max(np.abs(t_rgd.iterates - t_erm.iterates)) <= 1e-10

    @pytest.mark.parametrize("kwargs", [{}, {"batch_size": 20},
                                        {"coordinate_subset_size": 2}])
    def test_only_full_batch_runs_start_warm(self, monkeypatch, kwargs):
        # a full-batch step starts from an extrapolation of the (theta, log
        # sigma) of the steps before: the last at step 1, linear from the
        # last two at step 2 and quadratic from the last three after; a
        # mini-batch's rows and a subset's columns change every step, so
        # those steps always start cold
        ds, w_star, rng = regression_problem(heavy=True)
        calls, solve = [], optim.robust_gradient

        def recorded(D, cfg, cols=None, start=None):
            theta, info = solve(D, cfg, cols, start)
            calls.append((start, theta, info["sigma"]))
            return theta, info

        monkeypatch.setattr(optim, "robust_gradient", recorded)
        w0 = w_star + 2.0
        rgd_run(LinearModel(w0), ds, RobustConfig(), OptimState(w0, 0.1),
                StoppingRule(max_iters=6), rng=rng, **kwargs)
        assert len(calls) == 6
        if kwargs:
            assert all(start is None for start, _, _ in calls)
            return
        assert calls[0][0] is None
        seen = [np.array([theta, np.log(sigma)]) for _, theta, sigma in calls]
        for t, (start, _, _) in enumerate(calls[1:], 1):
            a2 = seen[t - 1]
            if t == 1:
                want = a2
            elif t == 2:
                want = 2.0 * a2 - seen[t - 2]
            else:
                want = 3.0 * a2 - 3.0 * seen[t - 2] + seen[t - 3]
            # the same extrapolation to within rounding, in its own form; from
            # step 2 on it is not the last step's estimate
            assert np.allclose(start[0], want[0], rtol=1e-14, atol=0.0)
            assert np.allclose(np.log(start[1]), want[1], rtol=1e-14, atol=0.0)
            assert (t == 1) == same_bits(start[0], a2[0])

    def test_oracle_gradient_matches_closed_form(self):
        rng = np.random.default_rng(2)
        d = 4
        risk = CurvedQuadratic(d, rng, kappa=0.5, lam=2.0)
        sigma, w_star = risk.sigma, risk.w_star
        w0 = w_star + rng.normal(size=d)
        T, alpha = 30, 0.3
        traj = oracle_gd_run(risk.exact_gradient, OptimState(w0.copy(), alpha),
                             stop=StoppingRule(max_iters=T))
        ref = quadratic_descent_iterates(sigma, w_star, w0, alpha, T)
        assert np.max(np.abs(traj.iterates - ref)) <= 1e-8
        assert np.max(np.abs(np.linalg.norm(traj.iterates - w_star, axis=1)
                             - np.linalg.norm(ref - w_star, axis=1))) <= 1e-8

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("run", [
        erm_gd_run,
        lambda model, ds, state, stop: rgd_run(model, ds, RobustConfig(fp=TIGHT),
                                               state, stop=stop),
    ], ids=["erm_gd_run", "rgd_run"])
    def test_divergence_flagged(self, run):
        ds, w_star, rng = regression_problem(seed=7)
        w0 = w_star + 1.0
        # at this step size rgd's gradient rows overflow before its iterate does
        traj = run(LinearModel(w0), ds, OptimState(w0.copy(), 1e3),
                   stop=StoppingRule(max_iters=200))
        assert traj.stop_reason == "diverged"

    def test_finite_iterates_whose_sum_overflows_do_not_diverge(self):
        # trial 0's coordinates stay finite while their sum overflows; trial
        # 1's last coordinate overflows to inf at step 1 and leaves as diverged
        W0 = np.array([[1.7e308, 1.7e308, -1e300], [0.0, 0.0, 1e308]])
        g = np.array([[0.0, 0.0, 1e300], [0.0, 0.0, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajs = _batch_descent(lambda W, t, live: g[live], lambda t: 0,
                                   OptimState(W0, 1.0), StoppingRule(max_iters=3), 1)
        assert [t.stop_reason for t in trajs] == ["max_iters", "diverged"]
        assert trajs[0].steps.tolist() == [0, 1, 2, 3]
        assert trajs[1].steps.tolist() == [0, 1]
        assert np.isfinite(trajs[0].iterates).all()

    def test_grad_tol_stops_early(self):
        ds, w_star, rng = regression_problem(seed=8)
        w0 = w_star + 0.5
        traj = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.2),
                          stop=StoppingRule(max_iters=500, grad_norm_tol=1e-3))
        assert traj.stop_reason == "grad_tol"
        assert traj.steps[-1] < 500
        _, G = loss_and_grad_rows(LinearModel(traj.final_w), ds)
        assert np.max(np.abs(G.mean(axis=0))) < 1e-3

    def test_determinism(self):
        ds, w_star, rng = regression_problem(heavy=True, seed=9)
        w0 = w_star + 0.5
        cfg = RobustConfig(fp=TIGHT)
        runs = []
        for _ in range(2):
            t = rgd_run(LinearModel(w0), ds, cfg, OptimState(w0.copy(), 0.1),
                        stop=StoppingRule(max_iters=10),
                        rng=np.random.default_rng(123), coordinate_subset_size=2)
            runs.append(t.iterates)
        assert np.array_equal(runs[0], runs[1])


    def test_subset_validation(self):
        ds, w_star, _ = regression_problem(d=3)
        model, state = LinearModel(w_star), OptimState(w_star.copy(), 0.1)
        stop = StoppingRule(max_iters=1)
        with pytest.raises(ValueError, match="cannot exceed the number of columns"):
            rgd_run(model, ds, RobustConfig(), state, stop, rng=np.random.default_rng(0),
                    coordinate_subset_size=4)
        with pytest.raises(ValueError, match="need an rng"):
            rgd_run(model, ds, RobustConfig(), state, stop, coordinate_subset_size=2)


class TestStochasticLoops:
    def test_sgd_single_row_equals_erm_on_n1(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(1, 3)), rng.normal(size=1))
        w0 = rng.normal(size=3)
        t_sgd = sgd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.1),
                        StoppingRule(max_iters=5), np.random.default_rng(0))
        t_erm = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.1),
                           stop=StoppingRule(max_iters=5))
        assert np.allclose(t_sgd.iterates, t_erm.iterates, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_svrg_one_step_epochs_equal_erm(self, n):
        # at n <= 3 an epoch is max(1, n // 2) = 1 inner step, so every step
        # sits at its snapshot and the corrected estimate is exactly the full
        # gradient whichever row is drawn; each step pays for its snapshot
        # and its row
        ds, w_star, rng = regression_problem(n=n, seed=6)
        w0 = w_star + 0.3
        steps = 9
        t_svrg = svrg_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.05),
                          StoppingRule(max_iters=steps), np.random.default_rng(0))
        t_erm = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.05),
                           stop=StoppingRule(max_iters=steps))
        assert np.array_equal(t_svrg.iterates, t_erm.iterates)
        assert t_svrg.grad_evals[-1] == steps * (n + 1)

    def test_svrg_budget_accounting(self):
        ds, w_star, rng = regression_problem(n=40, seed=10)
        w0 = w_star + 0.5
        budget = 40 * 20
        traj = svrg_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.05),
                        StoppingRule(max_iters=10 ** 9, budget=budget),
                        np.random.default_rng(1))
        assert traj.grad_evals[-1] <= budget
        # snapshot (n) + inner (n/2) per cycle: 40 + 20 = 60 per cycle
        assert traj.grad_evals[-1] == budget - budget % 60
        assert traj.stop_reason == "budget"

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_svrg_stops_before_a_snapshot_it_cannot_use(self, record_every):
        # room for the next snapshot but not for the inner step it anchors:
        # the snapshot is not taken, whether or not the last step was recorded
        n, k = 40, 3
        ds, w_star, rng = regression_problem(n=n, seed=10)
        w0 = w_star + 0.5
        traj = svrg_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.05),
                        StoppingRule(max_iters=10 ** 9,
                                     budget=k * (n + n // 2) + n),
                        np.random.default_rng(1), record_every=record_every)
        assert traj.grad_evals[-1] == k * (n + n // 2)
        assert traj.stop_reason == "budget"

    def test_sgd_budget_exact(self):
        ds, w_star, rng = regression_problem(n=30, seed=11)
        w0 = w_star + 0.5
        traj = sgd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.01),
                       StoppingRule(max_iters=10 ** 9, budget=123),
                       np.random.default_rng(2))
        assert traj.grad_evals[-1] == 123

    def test_batch_budget_never_exceeded(self):
        ds, w_star, rng = regression_problem(n=30, seed=12)
        w0 = w_star + 0.5
        traj = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.05),
                          stop=StoppingRule(max_iters=10 ** 9, budget=100))
        # 30 per step: stops after 3 steps with 90 evals
        assert traj.grad_evals[-1] == 90


STEP_MODELS = ("linear", "logistic", "logistic_reg")


def stochastic_problem(kind, n=40, seed=0):
    """(model, dataset, start) for the stochastic-step checks: heavy-tailed
    regression, or 3-class logistic with or without regularization."""
    if kind == "linear":
        ds, w_star, _ = regression_problem(n=n, d=3, seed=seed, heavy=True)
        return LinearModel(np.zeros(3)), ds, w_star + 0.5
    rng = np.random.default_rng(seed)
    y = rng.integers(3, size=n)
    X = rng.normal(size=(n, 4)) + y[:, None]
    model = LogisticModel(3, 4, np.zeros(8),
                          reg_strength=0.01 if kind == "logistic_reg" else 0.0)
    return model, Dataset(X, y), rng.normal(size=model.dim)


class TestStochasticStepBits:
    """sgd, svrg and rgd_mb<B> steps on plain arrays give, bit for bit, the
    runs whose steps rebuild a Dataset and a model every step."""

    @pytest.mark.parametrize("kind", STEP_MODELS)
    @pytest.mark.parametrize("batch_size", [1])  # sgd_run draws one row a step
    def test_sgd(self, kind, batch_size):
        model, ds, w0 = stochastic_problem(kind)
        stop = StoppingRule(max_iters=120)
        got = sgd_run(model, ds, OptimState(w0.copy(), 0.05), stop,
                      np.random.default_rng(4))
        want = sgd_reference_run(model, ds, OptimState(w0.copy(), 0.05), stop,
                                 np.random.default_rng(4), batch_size)
        assert got.steps[-1] == 120
        assert_same_trajectory(got, want)

    @pytest.mark.parametrize("kind", STEP_MODELS)
    def test_svrg(self, kind):
        # 120 updates at n = 40 take six snapshots
        model, ds, w0 = stochastic_problem(kind)
        stop = StoppingRule(max_iters=120)
        got = svrg_run(model, ds, OptimState(w0.copy(), 0.05), stop,
                       np.random.default_rng(5))
        want = svrg_reference_run(model, ds, OptimState(w0.copy(), 0.05), stop,
                                  np.random.default_rng(5))
        assert got.steps[-1] == 120
        assert_same_trajectory(got, want)

    @pytest.mark.parametrize("kind", STEP_MODELS)
    @pytest.mark.parametrize("batch_size", [1, 10, 40])
    def test_rgd_mini_batch(self, kind, batch_size):
        model, ds, w0 = stochastic_problem(kind)
        cfg, stop = RobustConfig(), StoppingRule(max_iters=30)
        got = rgd_run(model, ds, cfg, OptimState(w0.copy(), 0.05), stop=stop,
                      rng=np.random.default_rng(6), batch_size=batch_size)
        want = rgd_mb_reference_run(model, ds, cfg, OptimState(w0.copy(), 0.05),
                                    stop, np.random.default_rng(6), batch_size)
        assert got.steps[-1] == 30
        assert_same_trajectory(got, want)

    def test_row_mean_keeps_the_mean_bits(self):
        # the step is its lone row plus +0.0, not the row's mean; a start at
        # -0.0 shows the sign of a zero step: -0.0 - (+0.0) stays -0.0
        row = np.array([[-0.0, 0.0, 1.5, -2.0, 5e-324, np.inf, -np.inf, np.nan]])

        class FixedRow(LinearModel):
            def grad_rows(self, w, X, y):
                return row.copy()

        w0 = np.full(row.shape[1], -0.0)
        ds = Dataset(np.ones((3, row.shape[1])), np.ones(3))
        traj = sgd_run(FixedRow(w0), ds, OptimState(w0.copy(), 1.0),
                       StoppingRule(max_iters=1), np.random.default_rng(0))
        assert same_bits(traj.iterates[1], w0 - 1.0 * row.mean(axis=0))


def _stochastic_run(name, model, ds, rng, max_iters=5):
    state, stop = OptimState(np.zeros(model.dim), 0.05), StoppingRule(max_iters=max_iters)
    if name == "sgd":
        return sgd_run(model, ds, state, stop, rng)
    if name == "svrg":
        return svrg_run(model, ds, state, stop, rng)
    return rgd_run(model, ds, RobustConfig(), state, stop=stop, rng=rng, batch_size=2)


class TestBufferedRowDraws:
    """sgd and svrg take their rows from ``rng.integers(n, size=256)``
    chunks, which hold the indices of as many scalar draws."""

    @pytest.mark.parametrize("n", [1, 2, 2000, 2**32 + 1])
    def test_chunks_equal_scalar_draws(self, n):
        draws = _row_draws(np.random.default_rng(8), n)
        scalar = np.random.default_rng(8)
        got = [next(draws) for _ in range(600)]  # three chunks
        assert got == [int(scalar.integers(n)) for _ in range(600)]
        assert all(type(i) is int for i in got)

    @pytest.mark.parametrize("run, reference", [(sgd_run, sgd_reference_run),
                                                (svrg_run, svrg_reference_run)])
    def test_runs_across_chunks_equal_scalar_draw_runs(self, run, reference):
        # 600 steps read three chunks; the references draw one row per call
        model, ds, w0 = stochastic_problem("logistic_reg")
        stop = StoppingRule(max_iters=600)
        got = run(model, ds, OptimState(w0.copy(), 0.05), stop, np.random.default_rng(9))
        want = reference(model, ds, OptimState(w0.copy(), 0.05), stop,
                         np.random.default_rng(9))
        assert got.steps[-1] == 600
        assert_same_trajectory(got, want)

    def test_numpy_calls_of_an_sgd_step_pinned(self, monkeypatch):
        # the calls optim and models make for one more step of a one-row
        # descent, and the calls into the generator, which the buffered
        # stream makes once per 256 steps
        model, ds, w0 = stochastic_problem("logistic_reg")

        def calls(steps):
            counts, draws = Counter(), Counter()
            with monkeypatch.context() as m:
                for module in (optim, models):
                    m.setattr(module, "np", CountingNumpy(counts))
                rng = CountingNumpy(draws, np.random.default_rng(1), "rng")
                sgd_run(model, ds, OptimState(w0.copy(), 0.05),
                        StoppingRule(max_iters=steps), rng)
            return sum(counts.values()), dict(draws)

        (two, drawn), (three, _) = calls(2), calls(3)
        assert three - two == 7
        assert drawn == {"integers": 1} and calls(257)[1] == {"integers": 2}


class TestStochasticEntryChecks:
    @pytest.mark.parametrize("run", ["sgd", "svrg", "rgd_mb"])
    @pytest.mark.parametrize("case", ["label_range", "logistic_features",
                                      "linear_features"])
    def test_bad_data_raises_before_any_draw(self, run, case):
        # the steps check nothing, so the run checks once at entry, with
        # loss_and_grad_rows's messages
        if case == "label_range":
            model = LogisticModel(3, 2, np.zeros(4))
            ds = Dataset(np.ones((4, 2)), np.array([0, 1, 2, 3]))
            match = "class index out of range"
        elif case == "logistic_features":
            model = LogisticModel(3, 2, np.zeros(4))
            ds = Dataset(np.ones((4, 3)), np.array([0, 1, 2, 0]))
            match = "feature count does not match model features"
        else:
            model = LinearModel(np.zeros(2))
            ds = Dataset(np.ones((4, 3)), np.ones(4))
            match = "feature count does not match model dimension"
        with pytest.raises(ValueError, match=match):
            loss_and_grad_rows(model, ds)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            _stochastic_run(run, model, ds, rng)
        assert rng.bit_generator.state == before


class TestNoPerStepRebuilds:
    @pytest.fixture
    def inits(self, monkeypatch):
        """Counts of Dataset and model constructions from here on."""
        counts = {"dataset": 0, "model": 0}
        for cls, key in ((Dataset, "dataset"), (LinearModel, "model"),
                         (LogisticModel, "model")):
            def counting(self, _init=cls.__post_init__, _key=key):
                counts[_key] += 1
                _init(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        return counts

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("run", ["sgd", "svrg", "rgd_mb"])
    def test_steps_build_no_dataset_or_model(self, inits, kind, run):
        n, steps = 40, 200
        model, ds, _ = stochastic_problem(kind, n=n)
        before = inits["dataset"]
        Dataset(ds.inputs, ds.targets)
        assert inits["dataset"] == before + 1  # the counter is live
        inits.update(dataset=0, model=0)
        traj = _stochastic_run(run, model, ds, np.random.default_rng(1), steps)
        assert traj.steps[-1] == steps
        assert inits["dataset"] == 0
        # svrg's snapshots, one per n // 2 updates, build one model each
        assert inits["model"] == (-(-steps // (n // 2)) if run == "svrg" else 0)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("run", ["rgd", "erm", "rgd_stacked", "erm_stacked"])
    def test_full_batch_steps_build_no_dataset_or_model(self, inits, kind, run):
        steps = 30
        model, ds, w0 = stochastic_problem(kind)
        datasets = [ds, stochastic_problem(kind, seed=1)[1]]
        state, stop = OptimState(w0, 0.01), StoppingRule(max_iters=steps)
        stacked = OptimState(np.array([w0, w0]), 0.01)
        inits.update(dataset=0, model=0)
        if run == "rgd":
            trajs = [rgd_run(model, ds, RobustConfig(), state, stop=stop)]
        elif run == "erm":
            trajs = [erm_gd_run(model, ds, state, stop=stop)]
        elif run == "rgd_stacked":
            trajs = rgd_stacked_run(model, datasets, RobustConfig(), stacked, stop=stop)
        else:
            trajs = erm_gd_stacked_run(model, datasets, stacked, stop=stop)
        assert [t.steps[-1] for t in trajs] == [steps] * len(trajs)
        assert inits == {"dataset": 0, "model": 0}

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_svrg_builds_snapshot_rows_once_per_epoch(self, monkeypatch, kind):
        # one grad_rows call per inner step, at the iterate, and one per
        # snapshot over its n one-row items
        n, steps = 40, 200
        model, ds, _ = stochastic_problem(kind, n=n)
        shapes = []

        def counted(self, w, X, y, _fn=type(model).grad_rows):
            shapes.append(X.shape)
            return _fn(self, w, X, y)

        monkeypatch.setattr(type(model), "grad_rows", counted)
        traj = _stochastic_run("svrg", model, ds, np.random.default_rng(1), steps)
        assert traj.steps[-1] == steps
        snapshots, F = -(-steps // (n // 2)), ds.n_features
        assert len(shapes) == steps + snapshots
        assert shapes.count((n, 1, F)) == snapshots and shapes.count((1, F)) == steps


class TestGeometricMedian:
    def test_single_point(self):
        p = np.array([[2.0, -1.0]])
        assert np.allclose(geometric_median(p), p[0])

    def test_equilateral_triangle_centroid(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        got = geometric_median(pts, tol=1e-14)
        assert np.allclose(got, pts.mean(axis=0), atol=1e-8)

    def test_collinear_objective_matches_grid_oracle(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0]])
        got = geometric_median(pts, tol=1e-14)
        grid = np.linspace(0, 10, 2_000_001)[:, None]
        vals = np.abs(grid - pts[:, 0]).sum(axis=1)
        best = vals.min()
        assert geometric_median_objective(got, pts) <= best + 1e-6

    def test_iterate_coinciding_with_point(self):
        # centroid start coincides with a data point; the adjusted step must
        # still move toward the true median
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [-4.0, 0.0], [0.0, 8.0],
                        [0.0, -8.0]])
        assert np.allclose(geometric_median(pts, tol=1e-14), [0.0, 0.0],
                           atol=1e-9)

    def test_majority_point_is_median(self):
        pts = np.array([[1.0, 1.0]] * 5 + [[3.0, -2.0]] * 2)
        assert np.allclose(geometric_median(pts), [1.0, 1.0], atol=1e-12)

    def test_random_instances_match_nelder_mead_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            pts = rng.normal(scale=rng.uniform(0.5, 5.0), size=(k, d))
            got_val = geometric_median_objective(
                geometric_median(pts, tol=1e-13), pts)
            _, oracle_val = geometric_median_oracle(pts)
            assert got_val <= oracle_val + 1e-6
            assert got_val >= oracle_val - 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_match_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        clouds = [rng.standard_t(1.5, size=(1, 3))]
        for _ in range(30):
            k, d = int(rng.integers(2, 150)), int(rng.integers(1, 40))
            pts = rng.standard_t(1.5, size=(k, d)) * 10.0 ** rng.uniform(-3, 3)
            clouds.append(pts)
            dup = pts.copy()
            dup[rng.integers(0, k, size=k // 2 + 1)] = pts[0]
            clouds.append(dup)
            clouds.append(np.tile(pts[0], (k, 1)))
        for pts in clouds:
            for tol in (1e-10, 1e-13, 1e-14):
                ref = weiszfeld_reference(pts, tol=tol)
                assert same_bits(geometric_median(pts, tol=tol), ref)
                assert same_bits(geometric_median(np.asfortranarray(pts), tol=tol), ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_returns_the_mean_at_once(self, bad):
        pts = np.random.default_rng(3).normal(size=(125, 2))
        pts[7, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geometric_median(pts, tol=1e-14)
        assert same_bits(got, pts.mean(axis=0))
        assert np.isfinite(got[0]) and not np.isfinite(got[1])

    def test_overflowing_distances_rescale(self):
        # finite points whose squared distances overflow are solved once more
        # divided by 1 + max |point|; the median scales with the cloud
        pts = np.random.default_rng(4).normal(size=(125, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert np.isnan(weiszfeld_reference(pts * 1e200)).all()
            got = geometric_median(pts * 1e200, tol=1e-14)
        want = geometric_median(pts, tol=1e-14)
        assert np.isfinite(got).all()
        assert np.linalg.norm(got / 1e200 - want) <= 1e-12 * np.linalg.norm(want)


class TestMedianOfMeansGD:
    def test_partition_count_formula(self):
        assert default_partition_count(100, 5) == 10
        assert default_partition_count(10, 5) == 2
        assert default_partition_count(9, 1) == 4

    def test_identical_rows_reduce_to_erm(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=3)
        ds = Dataset(np.tile(x, (12, 1)), np.full(12, 1.0))
        w0 = rng.normal(size=3)
        t_mom = median_of_means_gd_run(LinearModel(w0), ds, 4,
                                       OptimState(w0.copy(), 0.05),
                                       stop=StoppingRule(max_iters=6))
        t_erm = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.05),
                           stop=StoppingRule(max_iters=6))
        assert np.allclose(t_mom.iterates, t_erm.iterates, atol=1e-9)

    def test_partitions_equal_n_aggregates_row_gradients(self):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.normal(size=(3, 2)), rng.normal(size=3))
        w0 = rng.normal(size=2)
        _, G = loss_and_grad_rows(LinearModel(w0), ds)
        expected_step = geometric_median(G)
        traj = median_of_means_gd_run(LinearModel(w0), ds, 3,
                                      OptimState(w0.copy(), 0.1),
                                      stop=StoppingRule(max_iters=1))
        assert np.allclose(traj.iterates[1], w0 - 0.1 * expected_step,
                           atol=1e-10)

    def test_block_permutation_invariance(self):
        rng = np.random.default_rng(16)
        G = rng.normal(size=(6, 3))
        m1 = geometric_median(G, tol=1e-13)
        m2 = geometric_median(G[::-1], tol=1e-13)
        assert np.allclose(m1, m2, atol=1e-9)

    @pytest.mark.parametrize("n, d, partitions", [
        (500, 2, 125), (7, 1, 2), (129, 1, 4), (40, 1, 40), (30, 4, 30),
        (41, 3, 2), (61, 5, 6), (64, 9, 8)])
    def test_step_bits_match_the_reference(self, n, d, partitions):
        rng = np.random.default_rng(n + d)
        ds = Dataset(rng.standard_t(2.0, size=(n, d)), rng.standard_t(1.5, size=n))
        w0 = rng.normal(size=d)
        _, G = loss_and_grad_rows(LinearModel(w0), ds)
        step = weiszfeld_reference(block_means_reference(G, partitions))
        traj = median_of_means_gd_run(LinearModel(w0), ds, partitions,
                                      OptimState(w0.copy(), 0.1),
                                      stop=StoppingRule(max_iters=1))
        assert same_bits(traj.iterates[1], w0 - 0.1 * step)

    def test_validation(self):
        ds, stop = Dataset(np.ones((3, 2)), np.ones(3)), StoppingRule(max_iters=1)
        with pytest.raises(ValueError):
            median_of_means_gd_run(LinearModel(np.ones(2)), ds, 1,
                                   OptimState(np.ones(2), 0.1), stop)
        with pytest.raises(ValueError):
            median_of_means_gd_run(LinearModel(np.ones(2)), ds, 5,
                                   OptimState(np.ones(2), 0.1), stop)


class TestStateAndRules:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            OptimState(np.ones(2), alpha=0.0)

    def test_stopping_rule_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(max_iters=0)
        with pytest.raises(ValueError):
            StoppingRule(max_iters=5, budget=0)

    def test_trajectory_records_final_state(self):
        ds, w_star, rng = regression_problem(seed=17)
        w0 = w_star + 0.2
        traj = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.1),
                          stop=StoppingRule(max_iters=4), record_every=3)
        assert list(traj.steps) == [0, 3, 4]
        assert traj.steps[-1] == 4
        assert traj.grad_evals[-1] == 4 * ds.n
