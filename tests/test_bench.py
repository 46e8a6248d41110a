"""Experiment harness: trial orchestration, aggregation, metrics, coverage
checks."""

from dataclasses import replace

import numpy as np
import pytest

from robustgd import bench, optim
from robustgd.bench import (
    DISTRIBUTION_SETTINGS,
    TASKS,
    ExperimentConfig,
    KnownSampler,
    concentration_check,
    excess_rmse,
    poc_noise,
    run_experiment,
)
from robustgd.datagen import NoiseSpec
from robustgd.models import Dataset, loss_and_grad_rows

from oracles import concentration_pipeline, quadratic_descent_iterates


# trials per chunk at d = 2
CHUNK_D2 = bench._CHUNK_COLUMNS // 2


def small_cfg(**kw):
    base = dict(task="quadratic_poc", n=40, d=2, iters=5, trials=2,
                methods=("erm", "rgd"), seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="warp_drive")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(methods=("erm", "sorcery"))

    def test_quadratic_rho_rejected_in_experiment_configs(self):
        with pytest.raises(ValueError):
            small_cfg(rho="quadratic_test_only")

    def test_negative_trial_seed_rejected(self):
        # a key config files cannot set, so the CLI's exit-2 cases miss it
        with pytest.raises(ValueError, match="trial_seeds must be >= 0"):
            small_cfg(trial_seeds=(3, -1))

    def test_default_methods_per_task(self):
        assert ExperimentConfig(task="quadratic_poc", trials=1).methods == (
            "oracle", "erm", "rgd")
        assert ExperimentConfig(task="classification_budget", trials=1).methods == (
            "sgd", "svrg", "rgd_mb10")

    def test_parameterized_methods_parse(self):
        cfg = small_cfg(methods=("rgd_mb7", "rgd_sub2"))
        assert cfg.methods == ("rgd_mb7", "rgd_sub2")

    def test_grid_tolerance_default(self):
        assert ExperimentConfig(task="regression_grid", trials=1).grad_norm_tol == 1e-3
        assert small_cfg().grad_norm_tol == 0.0

    @pytest.mark.parametrize("task, method", [
        ("classification_budget", "mom"), ("classification_budget", "oracle"),
        ("classification_budget", "ols"), ("quadratic_poc", "ols"),
        ("d_sweep", "ols")])
    def test_method_not_available_on_task_rejected(self, task, method):
        msg = f"method '{method}' not available on task '{task}'"
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(task=task, trials=1, methods=("erm", method))
        # method overrides are applied with dataclasses.replace
        with pytest.raises(ValueError, match=msg):
            replace(ExperimentConfig(task=task, trials=1), methods=(method,))

    @pytest.mark.parametrize("task, method", [
        ("classification_budget", "rgd_mb0"), ("quadratic_poc", "rgd_mb0"),
        ("classification_budget", "rgd_sub0"), ("quadratic_poc", "rgd_sub0")])
    def test_zero_size_rejected(self, task, method):
        msg = f"method '{method}' needs a size of at least 1"
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(task=task, trials=1, methods=("erm", method))
        with pytest.raises(ValueError, match=msg):
            replace(ExperimentConfig(task=task, trials=1), methods=(method,))

    @pytest.mark.parametrize("task, settings, n_min", [
        ("quadratic_poc", {"n": 30}, 30),
        ("classification_budget", {"n": 25}, 25),
        ("n_sweep", {"n_values": (40, 12, 160)}, 12),
        ("regression_grid", {"grid_n": (50, 20)}, 20)])
    def test_batch_above_smallest_training_n_rejected(self, task, settings, n_min):
        ok = ExperimentConfig(task=task, trials=1, methods=(f"rgd_mb{n_min}",),
                              **settings)
        assert ok.methods == (f"rgd_mb{n_min}",)
        method = f"rgd_mb{n_min + 1}"
        msg = rf"method '{method}' batch exceeds the smallest training n \({n_min}\)"
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(task=task, trials=1, methods=(method,), **settings)
        with pytest.raises(ValueError, match=msg):
            replace(ok, methods=("rgd", method))


def _kind_method(kind):
    return {"rgd_mb": "rgd_mb5", "rgd_sub": "rgd_sub1"}.get(kind, kind)


# tiny settings per task, one condition each
_TINY = {
    "quadratic_poc": {}, "distribution_sweep": {}, "init_sweep": {"init_deltas": (2.5,)},
    "n_sweep": {"n_values": (20,)}, "d_sweep": {"d_values": (2,)},
    "regression_grid": {"families": ("normal",), "grid_n": (20,), "grid_d": (2,),
                        "test_size": 20},
    "classification_budget": {"features": 3, "budget_factor": 3, "test_size": 30},
}


class TestMethodOutcomes:
    @pytest.mark.parametrize("task, kind", [(task, kind) for task in TASKS
                                            for kind in bench._TASK_KINDS[task]])
    def test_every_accepted_method_completes(self, task, kind):
        method = _kind_method(kind)
        cfg = ExperimentConfig(task=task, methods=(method,), n=20, d=2, iters=3,
                               trials=1, seed=2, **_TINY[task])
        res = run_experiment(cfg)
        assert res.n_aborted == 0, [t.note for t in res.trials]
        assert {r[1] for r in res.rows()} == {method}

    def test_raising_method_aborts_alone(self, monkeypatch):
        cfg = small_cfg(methods=("erm", "rgd", "mom"))
        without_mom = run_experiment(replace(cfg, methods=("erm", "rgd"))).rows()

        def broken(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(bench, "median_of_means_gd_run", broken)
        res = run_experiment(cfg)
        assert [(t.method, t.note) for t in res.trials if t.aborted] == [
            ("mom", "RuntimeError: solver exploded")] * 2
        assert res.rows() == without_mom

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_grid_divergence_aborts_the_method(self):
        # from the least-squares start erm's gradient is below grad_norm_tol
        # at once; rgd and mom move off it and overflow near update 100
        cfg = ExperimentConfig(task="regression_grid", families=("normal",),
                               grid_n=(25,), grid_d=(3,), alpha=1e3, iters=150,
                               methods=("ols", "erm", "rgd", "mom"), trials=1)
        res = run_experiment(cfg)
        assert [(t.method, t.note) for t in res.trials if t.aborted] == [
            ("rgd", "diverged"), ("mom", "diverged")]
        assert {r[1] for r in res.rows()} == {"ols", "erm"}

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_classification_divergence_aborts_the_method(self):
        cfg = ExperimentConfig(task="classification_budget", n=200, features=5,
                               classes=3, trials=1, test_size=300, budget_factor=5,
                               alpha=1e4, methods=("sgd", "rgd_mb10"), seed=3)
        res = run_experiment(cfg)
        assert [(t.method, t.note) for t in res.trials if t.aborted] == [
            ("sgd", "diverged")]
        assert {r[1] for r in res.rows()} == {"rgd_mb10"}


class TestRunExperiment:
    def test_row_count_quadratic(self):
        res = run_experiment(small_cfg())
        # methods x trials x iterations x metrics
        assert len(res.rows()) == 2 * 2 * 5 * 3
        assert res.n_aborted == 0

    def test_equal_trial_seeds_have_zero_variance(self):
        res = run_experiment(small_cfg(trial_seeds=(7, 7)))
        agg = res.aggregate()
        assert all(v["var"] == 0.0 and v["count"] == 2 for v in agg.values())
        single = run_experiment(small_cfg(trials=1, trial_seeds=(7,)))
        sagg = single.aggregate()
        for (m, c, s, met), v in sagg.items():
            assert agg[(m, c, s, met)]["mean"] == pytest.approx(v["mean"])

    def test_oracle_trace_matches_closed_form(self):
        cfg = small_cfg(methods=("oracle",), trials=1, iters=8, init_delta=2.0)
        res = run_experiment(cfg)
        tr = res.trials[0]
        # identity curvature: excess(t) = (1 - alpha)^{2t} excess(0)
        e = tr.metrics["excess_risk"]
        ratios = e[1:] / e[:-1]
        assert np.allclose(ratios, (1 - cfg.alpha) ** 2, atol=1e-10)
        # and the parameter trace matches the matrix closed form
        d0 = tr.metrics["param_distance"][0]
        assert tr.metrics["param_distance"][3] == pytest.approx(
            d0 * (1 - cfg.alpha) ** 3, rel=1e-9)

    def test_aggregation_order_invariant(self):
        res = run_experiment(small_cfg(trials=3))
        agg1 = res.aggregate()
        res.trials.reverse()
        agg2 = res.aggregate()
        assert agg1.keys() == agg2.keys()
        for k in agg1:
            assert agg1[k]["mean"] == pytest.approx(agg2[k]["mean"], rel=1e-12)

    def test_trace_lengths_equal_iterations_executed(self):
        res = run_experiment(small_cfg(iters=5))
        for tr in res.trials:
            assert len(tr.steps) == 5
            for vals in tr.metrics.values():
                assert len(vals) == 5

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergent_trial_recorded_not_raised(self):
        # at this step size rgd's gradient rows overflow before its iterate
        # does; that must end as "diverged", not as an error for the trial
        res = run_experiment(small_cfg(methods=("erm", "rgd"), alpha=1e6,
                                       trials=2, iters=60))
        assert res.n_aborted == 4
        assert res.rows() == []
        assert all(t.note == "diverged" for t in res.trials if t.aborted)

    def test_oracle_dominates_estimated_methods(self):
        cfg = small_cfg(task="quadratic_poc", methods=("oracle", "erm", "rgd"),
                        n=100, d=2, iters=10, trials=100,
                        noise=poc_noise("lognormal"))
        res = run_experiment(cfg)
        agg = res.aggregate()
        for t in range(1, 11):
            o = agg[("oracle", "", t, "excess_risk")]["mean"]
            for m in ("erm", "rgd"):
                cell = agg[(m, "", t, "excess_risk")]
                se = np.sqrt(cell["var"] / cell["count"])
                assert o <= cell["mean"] + se

    def test_parallel_matches_serial(self):
        # two conditions, each crossing a chunk boundary
        cfg = small_cfg(task="init_sweep", init_deltas=(2.5, 10.0),
                        trials=CHUNK_D2 + 3)
        serial = run_experiment(cfg, parallelism=1)
        parallel = run_experiment(cfg, parallelism=2)
        assert len({t.condition for t in serial.trials}) == 2
        assert serial.rows() == parallel.rows()

    @pytest.mark.parametrize("task, d, extra", [
        ("quadratic_poc", 3, dict(d=3, trials=3, iters=8)),
        ("classification_budget", 4, dict(n=40, features=2, classes=3, trials=2,
                                          test_size=20, budget_factor=3)),
    ])
    def test_subset_of_every_column_is_rgd(self, task, d, extra):
        cfg = ExperimentConfig(task=task, methods=("rgd",), seed=4, **extra)
        rows = run_experiment(cfg).rows()
        assert rows
        for method in (f"rgd_sub{d}", f"rgd_sub{d + 3}"):
            sub = run_experiment(replace(cfg, methods=(method,))).rows()
            assert [r[:1] + ("rgd",) + r[2:] for r in sub] == rows

    def test_parallelism_below_one_rejected(self):
        with pytest.raises(ValueError, match="parallelism"):
            run_experiment(small_cfg(), parallelism=0)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("task, extra", [
        ("quadratic_poc", dict(methods=("oracle", "erm", "rgd", "mom"), iters=20)),
        ("quadratic_poc", dict(methods=("erm", "rgd", "oracle"), n=4, alpha=5.0,
                               iters=300)),
        ("regression_grid", dict(methods=("ols", "rgd", "erm"), grid_n=(30,),
                                 grid_d=(2,), families=("normal", "lognormal"),
                                 iters=40)),
    ])
    def test_chunked_rows_equal_per_trial(self, monkeypatch, task, extra):
        # a trial count that is not a multiple of the chunk size; at n = 4
        # and step size 5 erm and rgd diverge in some trials, and on the grid
        # some stop at grad_tol
        cfg = small_cfg(task=task, trials=CHUNK_D2 + 3, **extra)
        chunked = run_experiment(cfg)
        monkeypatch.setattr(bench, "_CHUNK_COLUMNS", 1)
        per_trial = run_experiment(cfg)
        assert chunked.rows() == per_trial.rows()
        assert ([(t.trial, t.method, t.note) for t in chunked.trials if t.aborted]
                == [(t.trial, t.method, t.note) for t in per_trial.trials if t.aborted])
        if cfg.alpha == 5.0:
            assert 0 < chunked.n_aborted < cfg.trials

    def test_stacked_fault_aborts_only_its_trial(self, monkeypatch):
        cfg = small_cfg(trials=CHUNK_D2 + 3)
        clean = run_experiment(cfg).rows()
        faulty = 4
        setup = bench._regression_setup(cfg, {}, bench._trial_seed(cfg, faulty))
        marker = loss_and_grad_rows(setup.model, setup.ds)[1][0, 0]
        solve = optim.robust_gradient

        def fragile(D, *args, **kwargs):
            # raises on the faulty trial's first gradient rows, stacked or not
            if np.any(np.asarray(D)[0] == marker):
                raise RuntimeError("solver exploded")
            return solve(D, *args, **kwargs)

        monkeypatch.setattr(optim, "robust_gradient", fragile)
        res = run_experiment(cfg)
        assert [(t.trial, t.method, t.note) for t in res.trials if t.aborted] == [
            (faulty, "rgd", "RuntimeError: solver exploded")]
        assert res.rows() == [r for r in clean if (r[1], r[2]) != ("rgd", faulty)]


class TestSweeps:
    def test_init_sweep_conditions(self):
        cfg = ExperimentConfig(task="init_sweep", n=30, d=2, iters=3, trials=2,
                               methods=("erm",), init_deltas=(2.5, 10.0))
        res = run_experiment(cfg)
        conds = {t.condition for t in res.trials}
        assert conds == {"del=2.5", "del=10"}
        # common data and common box draw: the two inits differ by the ratio
        # of the deltas around the shared target
        rows = res.rows()
        assert len(rows) == 2 * 2 * 3 * 3

    def test_distribution_sweep_settings(self):
        assert len(DISTRIBUTION_SETTINGS) == 6
        labels = [s[0] for s in DISTRIBUTION_SETTINGS]
        assert "lnorm-high" in labels and "norm-low" in labels

    def test_n_sweep_runs(self):
        cfg = ExperimentConfig(task="n_sweep", d=2, iters=2, trials=1,
                               methods=("erm",), n_values=(10, 20))
        res = run_experiment(cfg)
        assert {t.condition for t in res.trials} == {"n=10", "n=20"}

    def test_d_sweep_runs(self):
        cfg = ExperimentConfig(task="d_sweep", n=30, iters=2, trials=1,
                               methods=("rgd",), d_values=(2, 5))
        res = run_experiment(cfg)
        assert {t.condition for t in res.trials} == {"d=2", "d=5"}
        assert res.n_aborted == 0

    def test_distribution_sweep_runs_all_settings(self):
        cfg = ExperimentConfig(task="distribution_sweep", n=30, d=2, iters=2,
                               trials=1, methods=("erm",))
        res = run_experiment(cfg)
        assert len({t.condition for t in res.trials}) == 6

    def test_regression_grid_terminal_metrics(self):
        cfg = ExperimentConfig(task="regression_grid", trials=2, iters=20,
                               test_size=50, methods=("ols", "rgd", "mom"),
                               families=("normal", "lognormal"), levels=(8,),
                               grid_n=(25,), grid_d=(3,))
        res = run_experiment(cfg)
        assert res.n_aborted == 0
        for tr in res.trials:
            assert tr.steps == []
            assert "excess_rmse" in tr.terminal
            assert np.isfinite(tr.terminal["excess_rmse"])
        # conditions encode the grid cell
        assert {t.condition for t in res.trials} == {
            "fam=normal,lvl=8,n=25,d=3", "fam=lognormal,lvl=8,n=25,d=3"}

    def test_classification_budget_task(self):
        cfg = ExperimentConfig(task="classification_budget", n=200,
                               features=5, classes=3, trials=1, test_size=300,
                               budget_factor=5, alpha=0.1,
                               methods=("sgd", "rgd_mb10"), seed=3)
        res = run_experiment(cfg)
        assert res.n_aborted == 0
        budget = 5 * 200
        for tr in res.trials:
            assert tr.terminal["budget_spent"] <= budget
            assert budget - tr.terminal["budget_spent"] < 200
            assert 0.0 <= tr.terminal["misclassification"] <= 1.0
            assert 0.0 <= tr.terminal["baseline_misclassification"] <= 1.0


class TestExcessRmse:
    def test_zero_at_target(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        w = rng.normal(size=3)
        test = Dataset(X, X @ w + rng.normal(size=30))
        assert excess_rmse(w, w, test) == 0.0

    def test_noiseless_equals_rms_of_linear_error(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        w_star = rng.normal(size=3)
        test = Dataset(X, X @ w_star)
        w_hat = w_star + np.array([0.1, -0.2, 0.05])
        direct = float(np.sqrt(np.mean((X @ (w_hat - w_star)) ** 2)))
        assert excess_rmse(w_hat, w_star, test) == pytest.approx(direct, rel=1e-12)

    def test_single_point_hand_computed(self):
        test = Dataset(np.array([[2.0]]), np.array([1.0]))
        # e(w_hat) = |2*2 - 1| = 3, e(w_star) = |2*0.5 - 1| = 0
        assert excess_rmse(np.array([2.0]), np.array([0.5]), test) == pytest.approx(3.0)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            excess_rmse(np.zeros(1), np.zeros(1), Dataset(np.zeros((0, 1)),
                                                          np.zeros(0)))


class TestConcentrationCheck:
    def test_chebyshev_sanity_for_the_mean(self):
        # the sample mean under normal data violates its Chebyshev bound at
        # most a delta fraction of the time
        rng = np.random.default_rng(2)
        n, delta, trials = 50, 0.1, 2000
        viol = 0
        for _ in range(trials):
            x = rng.normal(size=n)
            if abs(x.mean()) > np.sqrt(1.0 / (n * delta)):
                viol += 1
        assert viol / trials <= delta

    def test_lognormal_coverage_small(self):
        sampler = KnownSampler.from_noise(
            NoiseSpec("lognormal", params={"log_loc": 0.0, "log_scale": 1.75}))
        res = concentration_check(sampler, n=500, delta=0.05, trials=200,
                                  C=2.0, seed=0)
        assert not res.skipped
        assert res.violation_rate <= 0.05

    @pytest.mark.parametrize("n, C", [(12, 0.5), (57, 0.01), (500, 0.05), (500, 2.0)])
    def test_matches_the_explicit_pipeline(self, n, C):
        sampler = KnownSampler.from_noise(
            NoiseSpec("lognormal", params={"log_loc": 0.0, "log_scale": 1.75}))
        res = concentration_check(sampler, n=n, delta=0.05, trials=150, C=C, seed=3)
        assert not res.skipped
        assert (res.violation_rate, res.mean_bound) == concentration_pipeline(
            sampler, n=n, delta=0.05, trials=150, C=C, seed=3)

    def test_small_n_flagged_as_skipped(self):
        sampler = KnownSampler.from_noise(NoiseSpec("normal", params={"scale": 1.0}))
        res = concentration_check(sampler, n=10, delta=0.05, trials=50, C=2.0)
        assert res.skipped
        assert np.isnan(res.violation_rate)
        assert res.precondition_value > 0.25

    def test_infinite_variance_sampler_rejected(self):
        with pytest.raises(ValueError):
            KnownSampler.from_noise(NoiseSpec("student_t", level=15))
