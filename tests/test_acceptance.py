"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its measured elapsed time (run with -s or -v to see
them inline).

Criterion 5 is split into its two clauses; the ratio-comparison clause (5b)
is implemented exactly as stated and is expected to fail: at T=50 both
methods have converged to initialization-independent limits, so the
relative ratios compare transient remainders divided by each method's
terminal risk, and the robust method's much smaller terminal risk (required
by criterion 4) makes its ratio the larger one.  The absolute
initialization gap does favor the robust method; see the test message.
"""

import csv
import time

import numpy as np
import pytest

import conftest

from robustgd.bench import ExperimentConfig, poc_noise, run_experiment
from robustgd.cli import main as cli_main
from robustgd.datagen import (
    LADDER_FAMILIES,
    NoiseSpec,
    SyntheticRisk,
    gen_regression,
    gen_w_star,
    initial_point,
    sample_noise,
    target_sd,
)
from robustgd.mest import FixedPointSettings, RhoFunction
from robustgd.models import Dataset, LinearModel, LogisticModel, loss_and_grad_rows
from robustgd.optim import (
    OptimState,
    StoppingRule,
    erm_gd_run,
    geometric_median,
    oracle_gd_run,
    rgd_run,
    rgd_stacked_run,
)
from robustgd.robust_grad import RobustConfig, robust_gradient

from oracles import (
    CurvedQuadratic,
    KnownSampler,
    concentration_check,
    finite_difference_gradient,
    geometric_median_objective,
    geometric_median_oracle,
    locate_oracle,
)

TIGHT = FixedPointSettings(max_iters=300, rel_tolerance=1e-12)


def report(number, ok, elapsed, limit, detail):
    overall = ok and elapsed < limit
    status = "PASS" if overall else "FAIL"
    line = (f"[{status}] criterion {number}: {detail} ({elapsed:.1f}s, "
            f"limit {limit:.0f}s)")
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    return overall


# -- heavy shared runs: terminal-risk and initialization-sweep protocols ----

@pytest.fixture(scope="module")
def poc_runs():
    out = {}
    for label, kind in (("normal", "normal"), ("lognormal", "lognormal")):
        t0 = time.time()
        cfg = ExperimentConfig(task="quadratic_poc", methods=("erm", "rgd"),
                               n=500, d=2, alpha=0.1, iters=50, trials=250,
                               seed=0, noise=poc_noise(kind))
        out[label] = (run_experiment(cfg).aggregate(), time.time() - t0)
    return out


@pytest.fixture(scope="module")
def init_sweep_run():
    t0 = time.time()
    cfg = ExperimentConfig(task="init_sweep", methods=("erm", "rgd"), n=500,
                           d=2, alpha=0.1, iters=50, trials=250, seed=0,
                           init_deltas=(2.5, 10.0), noise=poc_noise("lognormal"))
    agg = run_experiment(cfg).aggregate()
    ratios = {}
    for m in ("erm", "rgd"):
        lo = agg[(m, "del=2.5", 50, "excess_risk")]["mean"]
        hi = agg[(m, "del=10", 50, "excess_risk")]["mean"]
        ratios[m] = (lo, hi)
    return ratios, time.time() - t0


def test_criterion_01_sample_mean_reduction():
    t0 = time.time()
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        ds, w_star = gen_regression(200, 10, NoiseSpec("normal",
                                                       params={"scale": 2.0}), rng)
        w0 = w_star + rng.uniform(-2, 2, size=10)
        stop = StoppingRule(max_iters=30)
        cfg = RobustConfig(rho=RhoFunction("quadratic_test_only"), fp=TIGHT)
        t_rgd = rgd_run(LinearModel(w0), ds, cfg, OptimState(w0.copy(), 0.1),
                        stop=stop)
        t_erm = erm_gd_run(LinearModel(w0), ds, OptimState(w0.copy(), 0.1),
                           stop=stop)
        worst = max(worst, float(np.max(np.abs(t_rgd.iterates - t_erm.iterates))))
    elapsed = time.time() - t0
    ok = worst <= 1e-10
    assert report("01 sample-mean reduction", ok, elapsed, 1.0,
                  f"max |rgd - erm| = {worst:.2e} (tol 1e-10)")


def test_criterion_02_locate_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    gud = RhoFunction("gudermannian")
    cfg = RobustConfig(rho=gud, delta=0.05, fp=TIGHT)
    worst = 0.0
    for i in range(100):
        n = (5, 50, 500)[i % 3]
        x = rng.normal(size=n)
        k = int(rng.integers(0, n // 4 + 2))
        if k:
            x[:k] += rng.choice([-1.0, 1.0], size=k) * rng.uniform(5, 30, size=k)
        theta, info = robust_gradient(x[:, None], cfg)
        worst = max(worst, abs(theta[0] - locate_oracle(x, info["s"][0], gud)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8
    assert report("02 location-estimate oracle equivalence", ok, elapsed, 10.0,
                  f"max |locate - golden-section| = {worst:.2e} over 100 samples "
                  f"(tol 1e-8)")


def test_criterion_03_deviation_bound_coverage():
    t0 = time.time()
    sampler = KnownSampler.from_noise(
        NoiseSpec("lognormal", params={"log_loc": 0.0, "log_scale": 1.75}))
    res = concentration_check(sampler, n=500, delta=0.05, trials=2000, C=2.0,
                              seed=0)
    elapsed = time.time() - t0
    ok = (not res.skipped) and res.violation_rate <= 0.05
    assert report("03 deviation-bound coverage", ok, elapsed, 30.0,
                  f"violation rate {res.violation_rate:.4f} over "
                  f"{res.trials} trials (allowed 0.05)")


def test_criterion_04_heavy_tail_terminal_risk(poc_runs):
    agg_n, t_n = poc_runs["normal"]
    agg_l, t_l = poc_runs["lognormal"]
    elapsed = t_n + t_l

    def cell(agg, m):
        return agg[(m, "", 50, "excess_risk")]

    ratio_normal = cell(agg_n, "rgd")["mean"] / cell(agg_n, "erm")["mean"]
    ratio_heavy = cell(agg_l, "rgd")["mean"] / cell(agg_l, "erm")["mean"]
    var_ok = cell(agg_l, "rgd")["var"] <= cell(agg_l, "erm")["var"]
    ok = ratio_normal <= 1.2 and ratio_heavy <= 0.8 and var_ok
    assert report("04 terminal risk under heavy tails", ok, elapsed, 120.0,
                  f"normal rgd/erm = {ratio_normal:.3f} (<=1.2), lognormal "
                  f"rgd/erm = {ratio_heavy:.3f} (<=0.8), variance ordered: "
                  f"{var_ok}")


def test_criterion_05a_initialization_ratio_bound(init_sweep_run):
    ratios, elapsed = init_sweep_run
    lo, hi = ratios["rgd"]
    ok = hi / lo <= 1.5
    assert report("05a initialization robustness (rgd ratio bound)", ok,
                  elapsed, 120.0,
                  f"rgd del10/del2.5 = {hi / lo:.4f} (<= 1.5)")


def test_criterion_05b_initialization_ratio_comparison(init_sweep_run):
    # Stated criterion: erm's del10/del2.5 terminal mean-excess-risk ratio
    # must exceed rgd's.  This clause contradicts criterion 4 at T=50: both
    # methods converge to initialization-independent limits, the surviving
    # transients are comparable, and dividing by rgd's ~10x smaller terminal
    # risk inflates rgd's ratio above erm's.  The absolute initialization
    # gap (the qualitative robustness claim) does favor rgd; it is printed
    # below.  Implemented as stated; expected red.  See the decisions
    # ledger for the full analysis.
    ratios, _ = init_sweep_run
    erm_lo, erm_hi = ratios["erm"]
    rgd_lo, rgd_hi = ratios["rgd"]
    erm_ratio = erm_hi / erm_lo
    rgd_ratio = rgd_hi / rgd_lo
    ok = erm_ratio > rgd_ratio
    assert report("05b initialization robustness (erm ratio exceeds rgd's)",
                  ok, 0.0, 120.0,
                  f"erm ratio {erm_ratio:.4f} vs rgd ratio {rgd_ratio:.4f}; "
                  f"absolute gaps: erm {erm_hi - erm_lo:+.4f}, "
                  f"rgd {rgd_hi - rgd_lo:+.4f}"), (
        "ratio clause cannot hold once both methods have converged: "
        "rgd's smaller terminal risk (criterion 4) makes its relative "
        "ratio larger; in absolute excess-risk terms rgd is the less "
        "initialization-sensitive method "
        f"(erm gap {erm_hi - erm_lo:+.5f} vs rgd gap {rgd_hi - rgd_lo:+.5f})")


def test_criterion_06_convergence_rate_shape():
    t0 = time.time()
    rng = np.random.default_rng(6)
    kappa, lam = 1.0, 4.0
    beta = 2 * kappa * lam / (kappa + lam)
    worst_margin = -np.inf
    for alpha in (0.1, 0.3, 0.39):
        risk = CurvedQuadratic(6, rng, kappa=kappa, lam=lam)
        w0 = risk.w_star + rng.normal(size=6)
        traj = oracle_gd_run(risk.exact_gradient, OptimState(w0, alpha),
                             stop=StoppingRule(max_iters=20))
        log_excess = np.log(risk.exact_excess_risk(traj.iterates))
        bound = np.log(1 - alpha * beta) + 1e-6
        steps = np.diff(log_excess)
        slope = np.polyfit(np.arange(len(log_excess)), log_excess, 1)[0]
        worst_margin = max(worst_margin, float(steps.max() - bound),
                           float(slope - bound))
    elapsed = time.time() - t0
    ok = worst_margin <= 0.0
    assert report("06 linear convergence-rate shape", ok, elapsed, 1.0,
                  f"max(slope - log(1-alpha*beta) - 1e-6) = {worst_margin:.2e}"
                  f" (<= 0)")


def test_criterion_07_geometric_median_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        pts = rng.normal(scale=rng.uniform(0.5, 5.0), size=(k, d))
        got = geometric_median_objective(geometric_median(pts, tol=1e-13), pts)
        _, oracle_val = geometric_median_oracle(pts, restarts=3)
        worst = max(worst, abs(got - oracle_val))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    assert report("07 geometric-median objective vs brute force", ok, elapsed,
                  10.0, f"max |objective diff| = {worst:.2e} over 50 instances "
                        f"(tol 1e-6)")


def test_criterion_08_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    # squared loss
    ds = Dataset(rng.normal(size=(40, 6)), rng.normal(size=40))
    for _ in range(10):
        w = rng.normal(size=6)
        _, G = loss_and_grad_rows(LinearModel(w), ds)
        fd = finite_difference_gradient(
            lambda v: float(loss_and_grad_rows(LinearModel(v), ds)[0].mean()), w)
        g = G.mean(axis=0)
        worst = max(worst, float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd),
                                                                    1e-6))))
    # multiclass logistic
    C, F = 3, 4
    dsl = Dataset(rng.normal(size=(40, F)), rng.integers(C, size=40))
    for _ in range(10):
        w = rng.normal(scale=0.5, size=(C - 1) * F)
        model = LogisticModel(C, F, w, reg_strength=0.01)
        _, G = loss_and_grad_rows(model, dsl)
        fd = finite_difference_gradient(
            lambda v: float(loss_and_grad_rows(model.with_weights(v),
                                               dsl)[0].mean()), w)
        g = G.mean(axis=0)
        worst = max(worst, float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd),
                                                                    1e-6))))
    elapsed = time.time() - t0
    ok = worst < 1e-5
    assert report("08 gradient finite-difference correctness", ok, elapsed,
                  1.0, f"max relative error {worst:.2e} (< 1e-5)")


def test_criterion_09_noise_calibration():
    t0 = time.time()
    worst = ("", 0.0)
    for fam_idx, family in enumerate(LADDER_FAMILIES):
        for level in range(1, 16):
            spec = NoiseSpec(family, level=level)
            rng = np.random.default_rng([0, fam_idx, level])
            sd = float(sample_noise(spec, rng, 10 ** 6).std())
            rel = abs(sd - target_sd(level)) / target_sd(level)
            if rel > worst[1]:
                worst = (f"{family}-L{level}", rel)
    elapsed = time.time() - t0
    ok = worst[1] <= 0.02
    assert report("09 noise-family sd calibration", ok, elapsed, 60.0,
                  f"worst Monte-Carlo sd error {worst[1]:.4f} at {worst[0]} "
                  f"(<= 0.02, 10^6 draws, 9 families x 15 levels)")


def test_criterion_10_budget_parity_and_learning():
    t0 = time.time()
    n, budget = 2000, 20 * 2000
    cfg = ExperimentConfig(task="classification_budget", n=n, features=20,
                           classes=3, trials=1, test_size=1000,
                           budget_factor=20, alpha=0.1,
                           methods=("sgd", "svrg", "rgd_mb10"), seed=0)
    res = run_experiment(cfg)
    assert res.n_aborted == 0
    step_size = {"sgd": 1, "svrg": n, "rgd_mb10": 10}
    parity = {}
    learned = {}
    for tr in res.trials:
        spent = tr.terminal["budget_spent"]
        parity[tr.method] = abs(spent - budget) <= step_size[tr.method]
        target = tr.terminal["baseline_misclassification"] - 0.1
        learned[tr.method] = tr.terminal["misclassification"] <= target
    elapsed = time.time() - t0
    ok = all(parity.values()) and all(learned.values())
    assert report("10 evaluation-budget parity", ok, elapsed, 60.0,
                  f"parity {parity}, reached baseline-0.1 {learned}")


def test_criterion_11_deterministic_results(tmp_path):
    t0 = time.time()
    cfg_text = (
        "[experiment]\n"
        "task = quadratic_poc\nmethods = erm, rgd\ntrials = 3\niters = 10\n"
        "n = 60\nd = 2\nseed = 21\n\n"
        "[noise]\nfamily = lognormal\nlog_loc = 0.0\nlog_scale = 1.75\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(cfg_text)
    out = str(tmp_path / "out")
    assert cli_main(["run", "--config", str(cfg), "--out", out]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", out]) == 0
    a = (tmp_path / "out" / "run-001" / "results.csv").read_bytes()
    b = (tmp_path / "out" / "run-002" / "results.csv").read_bytes()
    with open(tmp_path / "out" / "run-001" / "results.csv") as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    elapsed = time.time() - t0
    ok = a == b and n_rows == 2 * 3 * 10 * 3
    assert report("11 byte-identical reruns", ok, elapsed, 60.0,
                  f"results.csv identical: {a == b}, rows {n_rows}")


def test_criterion_12_gradient_deviation_along_descent():
    # the robust update "does not deviate far from the ideal gradient-based
    # update": at each of rgd's 50 iterates on quadratic_poc data, the
    # distance of rgd's estimate and of the row mean from the exact risk
    # gradient, pooled over 100 trials; compared at the 1 - delta quantile.
    # That quantile is about the worst of the trials' noise draws, so a
    # second clause compares a per-trial statistic, the median over trials
    # of each trial's worst deviation: it read 0.647 (log-normal) and 1.040
    # (normal) on these draws, and 0.579 and 1.024 on default_rng([0, trial])
    t0 = time.time()
    n, d, trials, iters, q = 500, 2, 100, 50, 0.995
    cfg = RobustConfig()
    model = LinearModel(np.zeros(d))
    ratios, worst = {}, {}
    for kind in ("lognormal", "normal"):
        data, w0 = [], []
        for trial in range(trials):
            # the draws of quadratic_poc's trial at seed 0: a data stream
            # and an initial-point stream spawned from the trial's seed
            data_ss, init_ss = np.random.SeedSequence(trial).spawn(2)
            rng = np.random.default_rng(data_ss)
            w_star = gen_w_star(d, rng)
            ds, _ = gen_regression(n, d, poc_noise(kind), rng, w_star=w_star)
            data.append((ds, SyntheticRisk(w_star)))
            w0.append(initial_point(w_star, 5.0, np.random.default_rng(init_ss)))
        trajs = rgd_stacked_run(model, [ds for ds, _ in data], cfg,
                                OptimState(np.array(w0), 0.1),
                                StoppingRule(max_iters=iters))
        dev = {"rgd": [], "mean": []}
        for (ds, risk), traj in zip(data, trajs):
            W = traj.iterates[:-1]  # the iterates a step was taken from
            G = model.grad_rows(W, ds.inputs, ds.targets)  # (iters, n, d)
            # robust_gradient solves each column alone, so one call over
            # every iterate's columns gives each iterate its own estimate
            theta, _ = robust_gradient(G.transpose(1, 0, 2).reshape(n, -1), cfg)
            truth = risk.exact_gradient(W)
            dev["rgd"].append(np.linalg.norm(theta.reshape(-1, d) - truth, axis=1))
            dev["mean"].append(np.linalg.norm(G.mean(axis=1) - truth, axis=1))
        rgd_q, mean_q = (float(np.quantile(np.concatenate(dev[m]), q))
                         for m in ("rgd", "mean"))
        ratios[kind] = (rgd_q, mean_q, rgd_q / mean_q)
        rgd_w, mean_w = (float(np.median([dv.max() for dv in dev[m]]))
                         for m in ("rgd", "mean"))
        worst[kind] = (rgd_w, mean_w, rgd_w / mean_w)
    elapsed = time.time() - t0
    ok = ratios["lognormal"][2] <= 0.25 and abs(ratios["normal"][2] - 1.0) <= 0.1
    ok = ok and worst["lognormal"][2] <= 0.75 and abs(worst["normal"][2] - 1.0) <= 0.1
    assert report("12 gradient deviation along the descent", ok, elapsed, 30.0,
                  "; ".join(f"{kind} rgd {r:.3f} / mean {m:.3f} = {x:.3f}"
                            for kind, (r, m, x) in ratios.items())
                  + f" at the {q} quantile (lognormal <= 0.25, normal within 10%); "
                  + "; ".join(f"{kind} rgd {r:.3f} / mean {m:.3f} = {x:.3f}"
                              for kind, (r, m, x) in worst.items())
                  + " as the median over trials of each trial's worst deviation"
                  " (lognormal <= 0.75, normal within 10%)")
