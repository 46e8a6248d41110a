"""Experiment orchestration: seeded repeated trials, metric traces, and the
benchmark protocols as declarative configurations.

Every trial k draws its own dataset and starting point from seed
``cfg.seed + k`` (datasets and initial points are shared by all methods
within the trial; method-internal randomness uses a method-tagged derived
seed).  A method that raises or diverges is aborted on its own, with a note;
the trial's other methods keep their results.  Results come back as
long-format rows (experiment, method, trial, step, metric, value) plus
mean/variance aggregates over completed trials.
"""

from dataclasses import dataclass, field

import numpy as np

from . import datagen
from .datagen import (
    NoiseSpec,
    SyntheticRisk,
    gen_classification,
    gen_regression,
    gen_w_star,
)
# noise_sd is unused here but stays importable: perfbench's tracer hooks it
from .datagen import noise_sd
from .mest import RhoFunction
from .models import LinearModel, LogisticModel, empirical_risk, misclassification_rate
from .optim import (
    OptimState,
    StoppingRule,
    default_partition_count,
    erm_gd_run,
    erm_gd_stacked_run,
    median_of_means_gd_run,
    oracle_gd_run,
    rgd_run,
    rgd_stacked_run,
    sgd_run,
    svrg_run,
)
from .robust_grad import RobustConfig

TASKS = (
    "quadratic_poc", "init_sweep", "distribution_sweep", "n_sweep", "d_sweep",
    "regression_grid", "classification_budget",
)

TRACE_METRICS = ("excess_risk", "excess_empirical_risk", "param_distance")

# method kinds each task's trial setup can run
_REGRESSION_KINDS = ("oracle", "erm", "rgd", "rgd_mb", "rgd_sub", "mom", "sgd", "svrg")
_TASK_KINDS = {task: _REGRESSION_KINDS for task in TASKS}
_TASK_KINDS["regression_grid"] = ("ols",) + _REGRESSION_KINDS
_TASK_KINDS["classification_budget"] = ("erm", "rgd", "rgd_mb", "rgd_sub", "sgd", "svrg")

# full-batch methods a chunk of regression trials runs as one stacked descent
_STACKED = ("erm", "rgd")
# gradient columns per chunk: a chunk holds max(1, _CHUNK_COLUMNS // d) trials
# of one condition and is one stacked descent and one worker task
_CHUNK_COLUMNS = 40

# stable codes for method-tagged rng derivation
_METHOD_CODES = {"oracle": 0, "erm": 1, "rgd": 2, "mom": 3, "sgd": 4,
                 "svrg": 5, "ols": 6, "rgd_mb": 7, "rgd_sub": 8}

_PRODUCTION_RHO = ("gudermannian", "log_cosh", "pseudo_huber")

# noise settings of the distribution sweep: (label, family, params)
DISTRIBUTION_SETTINGS = (
    ("norm-low", "normal", {"scale": 1.0}),
    ("norm-med", "normal", {"scale": 20.0}),
    ("norm-high", "normal", {"scale": 34.0}),
    ("lnorm-low", "lognormal", {"log_loc": 0.0, "log_scale": 1.25}),
    ("lnorm-med", "lognormal", {"log_loc": 0.0, "log_scale": 1.75}),
    ("lnorm-high", "lognormal", {"log_loc": 0.0, "log_scale": 1.9}),
)


def poc_noise(kind="lognormal"):
    """The two proof-of-concept noise settings: Gaussian sd 20 as the
    mean-friendly baseline, centered log-normal log-scale 1.75 as the
    heavy-tailed archetype."""
    if kind == "normal":
        return NoiseSpec("normal", params={"scale": 20.0})
    if kind == "lognormal":
        return NoiseSpec("lognormal", params={"log_loc": 0.0, "log_scale": 1.75})
    raise ValueError(f"unknown poc noise kind: {kind!r}")


# the condition lists _conditions reads; an empty one leaves nothing to run
_CONDITION_LISTS = ("init_deltas", "n_values", "d_values", "families", "levels",
                    "grid_n", "grid_d")


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run; a value that no cell
    of the run could use is rejected when the config is built."""

    task: str
    methods: tuple[str, ...] = ()
    n: int = 500
    d: int = 2
    alpha: float = 0.1
    iters: int = 50
    trials: int = 250
    test_size: int = 1000
    seed: int = 0
    delta: float = 0.005
    rho: str = "gudermannian"
    grad_norm_tol: float | None = None
    init_delta: float = 5.0
    noise: NoiseSpec = field(default_factory=lambda: poc_noise("lognormal"))
    # sweep / grid parameters
    init_deltas: tuple[float, ...] = (2.5, 5.0, 10.0)
    n_values: tuple[int, ...] = (10, 40, 160, 640)
    d_values: tuple[int, ...] = (2, 8, 32, 128)
    families: tuple[str, ...] = ("normal", "lognormal", "loglogistic", "triangular_sym")
    levels: tuple[int, ...] = (8,)
    grid_n: tuple[int, ...] = (30,)
    grid_d: tuple[int, ...] = (5,)
    # classification task parameters
    classes: int = 3
    features: int = 20
    reg_strength: float = 0.001
    budget_factor: int = 20
    separation: float = 3.0
    label_noise: float = 0.05
    init_scale: float = 0.05

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task: {self.task!r}")
        if self.rho not in _PRODUCTION_RHO:
            raise ValueError(
                f"rho must be one of {_PRODUCTION_RHO} in experiment configs")
        if not self.methods:
            self.methods = _default_methods(self.task)
        if self.grad_norm_tol is None:
            self.grad_norm_tol = 1e-3 if self.task == "regression_grid" else 0.0
        # values that would abort every cell of the run fail here instead,
        # through the run's own validators where they name the key
        OptimState(np.zeros(1), self.alpha)
        self.robust_config()
        lows = {"trials": 1, "seed": 0, "iters": 1}
        if self.task in ("regression_grid", "classification_budget"):
            lows["test_size"] = 1
        if self.task == "classification_budget":
            lows.update(classes=2, features=1, budget_factor=1, reg_strength=0)
        for key, low in lows.items():
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        StoppingRule(self.iters, self.grad_norm_tol)
        for key in _CONDITION_LISTS:
            if len(getattr(self, key)) == 0:
                raise ValueError(f"{key} must list at least one value")
        sizes = [(o.get("n", self.n), o.get("d", self.d)) for _, o in _conditions(self)]
        for key, values in zip(("n", "d"), zip(*sizes)):
            if min(values) < 1:
                raise ValueError(f"training {key} must be >= 1 in every condition, "
                                 f"got {min(values)}")
        for m in self.methods:
            kind, size = _parse_method(m)
            if kind not in _TASK_KINDS[self.task]:
                raise ValueError(f"method {m!r} not available on task {self.task!r}")
            if size is not None and size < 1:
                raise ValueError(f"method {m!r} needs a size of at least 1")
            n_min = min(n for n, _ in sizes)
            if kind == "rgd_mb" and size > n_min:
                raise ValueError(f"method {m!r} batch exceeds the smallest "
                                 f"training n ({n_min})")
            if kind == "mom" and n_min < 2:
                raise ValueError(f"method {m!r} needs a training n of at least 2 "
                                 f"for its 2 blocks, got {n_min}")

    def robust_config(self):
        return RobustConfig(rho=RhoFunction(self.rho), delta=self.delta)


def _default_methods(task):
    if task == "quadratic_poc":
        return ("oracle", "erm", "rgd")
    if task == "regression_grid":
        return ("ols", "rgd", "mom")
    if task == "classification_budget":
        return ("sgd", "svrg", "rgd_mb10")
    return ("erm", "rgd")


def _parse_method(name):
    """Split a method string into (kind, parameter); e.g. rgd_mb10 -> batched
    robust descent with batch size 10, rgd_sub5 -> 5 robust coordinates."""
    if name in ("oracle", "erm", "rgd", "mom", "sgd", "svrg", "ols"):
        return name, None
    if name.startswith("rgd_mb") and name[6:].isdigit():
        return "rgd_mb", int(name[6:])
    if name.startswith("rgd_sub") and name[7:].isdigit():
        return "rgd_sub", int(name[7:])
    raise ValueError(f"unknown method: {name!r}")


def _trial_seed(cfg, trial):
    return int(cfg.seed) + trial


def _trial_rngs(trial_seed):
    data_ss, init_ss = np.random.SeedSequence(trial_seed).spawn(2)
    return np.random.default_rng(data_ss), np.random.default_rng(init_ss)


def _method_rng(trial_seed, kind, param):
    code = _METHOD_CODES[kind]
    return np.random.default_rng((trial_seed, code, 0 if param is None else param))


@dataclass
class TrialResult:
    """Metric traces of one method on one seeded trial."""

    method: str
    condition: str
    trial: int
    steps: list
    metrics: dict
    terminal: dict = field(default_factory=dict)
    aborted: bool = False
    note: str = ""


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: list

    @property
    def n_aborted(self):
        return sum(1 for t in self.trials if t.aborted)

    def completed(self):
        return [t for t in self.trials if not t.aborted]

    def trial_tables(self):
        """The long-format row order, one completed trial at a time:
        (trial, step keys, sorted metric names, their value columns, sorted
        terminal (step key, metric, value) rows).  A trial's rows are each
        step key with every metric in name order, then its terminal rows."""
        for tr in self.completed():
            keys = [f"{tr.condition}:{step}" if tr.condition else str(step)
                    for step in tr.steps]
            names = sorted(tr.metrics)
            key = tr.condition if tr.condition else "terminal"
            yield (tr, keys, names, [tr.metrics[m] for m in names],
                   [(key, m, tr.terminal[m]) for m in sorted(tr.terminal)])

    def aggregate(self):
        """Mean/variance of each metric over completed trials, keyed by
        (method, condition, step, metric); variance uses ddof=1."""
        buckets = {}
        for tr in self.completed():
            for i, step in enumerate(tr.steps):
                for metric, vals in tr.metrics.items():
                    buckets.setdefault((tr.method, tr.condition, step, metric),
                                       []).append(vals[i])
            for metric, v in tr.terminal.items():
                buckets.setdefault((tr.method, tr.condition, "terminal", metric),
                                   []).append(v)
        out = {}
        for key, vals in buckets.items():
            arr = np.asarray(vals, dtype=float)
            var = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
            out[key] = {"mean": float(arr.mean()), "var": var, "count": arr.size}
        return out


def excess_rmse(w_hat, w_star, test):
    """Root-mean-square test error of w_hat minus that of the target w*."""
    if test.n < 1:
        raise ValueError("test set must be non-empty")
    X, y = test.inputs, np.asarray(test.targets, dtype=float)

    def rmse(w):
        r = X @ np.asarray(w, dtype=float) - y
        return float(np.sqrt(np.mean(r * r)))

    return rmse(w_hat) - rmse(w_star)


def _ols_weights(ds):
    w, *_ = np.linalg.lstsq(ds.inputs, np.asarray(ds.targets, dtype=float),
                            rcond=None)
    return w


def _regression_traces(traj, ds, risk, w_star, rhat_star):
    """Metric traces at the recorded iterates past the initial point."""
    W = traj.iterates[1:]
    steps = [int(s) for s in traj.steps[1:]]
    if W.shape[0] == 0:
        return steps, {m: np.array([]) for m in TRACE_METRICS}
    X, y = ds.inputs, np.asarray(ds.targets, dtype=float)
    excess = risk.exact_excess_risk(W)
    resid = X @ W.T - y[:, None]
    emp = 0.5 * np.mean(resid * resid, axis=0) - rhat_star
    dist = np.linalg.norm(W - w_star, axis=1)
    return steps, {"excess_risk": excess, "excess_empirical_risk": emp,
                   "param_distance": dist}


def _run_method(name, cfg, model, ds, w0, stop, trial_seed, record_every,
                risk=None):
    """Run one method from w0 on the trial's data; ``risk`` gives the oracle
    its exact gradient.  ``ols`` needs no descent and returns None."""
    kind, param = _parse_method(name)
    if kind == "ols":
        return None
    state = OptimState(w0.copy(), cfg.alpha)
    rng = _method_rng(trial_seed, kind, param)
    if kind == "oracle":
        return oracle_gd_run(risk.exact_gradient, state, stop=stop,
                             record_every=record_every)
    if kind == "erm":
        return erm_gd_run(model, ds, state, stop=stop, record_every=record_every)
    if kind == "mom":
        return median_of_means_gd_run(model, ds, default_partition_count(ds.n, len(w0)),
                                      state, stop=stop, record_every=record_every)
    if kind == "sgd":
        return sgd_run(model, ds, state, stop, rng, record_every=record_every)
    if kind == "svrg":
        return svrg_run(model, ds, state, stop, rng, record_every=record_every)
    if kind == "rgd":
        return rgd_run(model, ds, cfg.robust_config(), state, stop=stop,
                       record_every=record_every)
    if kind == "rgd_mb":
        return rgd_run(model, ds, cfg.robust_config(), state, stop=stop, rng=rng,
                       batch_size=param, record_every=record_every)
    # a subset of all d columns is rgd, bit for bit, with no draws
    return rgd_run(model, ds, cfg.robust_config(), state, stop=stop, rng=rng,
                   coordinate_subset_size=param if param < len(w0) else None,
                   record_every=record_every)


@dataclass
class _TrialSetup:
    """What every method of one trial shares, and how the task scores a
    method: ``record_every(name)`` is its record cadence and ``score(traj)``
    gives (steps, metrics, terminal) of its trajectory (None for ``ols``)."""

    model: object
    ds: object
    w0: np.ndarray
    stop: StoppingRule
    record_every: callable
    score: callable
    risk: SyntheticRisk | None = None


def _regression_setup(cfg, overrides, trial_seed):
    """A quadratic-risk trial.  Trace tasks start every method from a drawn
    initial point and score each recorded iterate; the grid draws a held-out
    test set, starts from the least-squares fit and scores the final one."""
    d = overrides.get("d", cfg.d)
    noise = overrides.get("noise", cfg.noise)
    grid = cfg.task == "regression_grid"
    data_rng, init_rng = _trial_rngs(trial_seed)

    w_star = gen_w_star(d, data_rng)
    train, _ = gen_regression(overrides.get("n", cfg.n), d, noise, data_rng,
                              w_star=w_star)
    if grid:
        test, _ = gen_regression(cfg.test_size, d, noise, data_rng, w_star=w_star)
    risk = SyntheticRisk(w_star)
    w_ols = _ols_weights(train)
    rhat_star = empirical_risk(LinearModel(w_ols), train)
    stop = StoppingRule(max_iters=cfg.iters, grad_norm_tol=cfg.grad_norm_tol)

    if grid:
        def score(traj):
            w_hat = w_ols if traj is None else traj.final_w
            return [], {}, {
                "excess_rmse": excess_rmse(w_hat, w_star, test),
                "excess_risk": risk.exact_excess_risk(w_hat),
                "param_distance": float(np.linalg.norm(w_hat - w_star)),
            }

        return _TrialSetup(LinearModel(w_ols.copy()), train, w_ols, stop,
                           lambda name: max(1, cfg.iters), score, risk)

    w0 = datagen.initial_point(w_star, overrides.get("init_delta", cfg.init_delta),
                               init_rng)

    def score(traj):
        return *_regression_traces(traj, train, risk, w_star, rhat_star), {}

    return _TrialSetup(LinearModel(w0.copy()), train, w0, stop, lambda name: 1,
                       score, risk)


def _classification_setup(cfg, overrides, trial_seed):
    """A budgeted classification trial, scored by test misclassification at
    every recorded iterate against the all-zero model's rate."""
    data_rng, init_rng = _trial_rngs(trial_seed)
    train = gen_classification(cfg.n, cfg.features, cfg.classes, data_rng,
                               separation=cfg.separation,
                               label_noise=cfg.label_noise)
    test = gen_classification(cfg.test_size, cfg.features, cfg.classes,
                              data_rng, separation=cfg.separation,
                              label_noise=cfg.label_noise)
    d = (cfg.classes - 1) * cfg.features
    w0 = init_rng.uniform(-cfg.init_scale, cfg.init_scale, size=d)
    model = LogisticModel(cfg.classes, cfg.features, w0.copy(),
                          reg_strength=cfg.reg_strength)
    budget = cfg.budget_factor * cfg.n
    stop = StoppingRule(max_iters=10 ** 9, budget=budget)
    baseline = misclassification_rate(
        LogisticModel(cfg.classes, cfg.features, np.zeros(d)), test)

    def record_every(name):
        # ~40 recorded checkpoints over the updates the budget pays for; an
        # svrg update costs 3 evaluations on average (snapshot included)
        kind, param = _parse_method(name)
        per_update = {"sgd": 1, "svrg": 3, "rgd_mb": param}.get(kind, train.n)
        return max(1, budget // per_update // 40)

    def score(traj):
        rates = np.array([misclassification_rate(model.with_weights(w), test)
                          for w in traj.iterates[1:]])
        return [int(e) for e in traj.grad_evals[1:]], {"misclassification": rates}, {
            "misclassification": float(rates[-1]) if rates.size else baseline,
            "budget_spent": float(traj.grad_evals[-1]),
            "baseline_misclassification": baseline,
        }

    return _TrialSetup(model, train, w0, stop, record_every, score)


def _conditions(cfg):
    """(label, overrides) pairs enumerating the task's conditions."""
    if cfg.task in ("quadratic_poc", "classification_budget"):
        return [("", {})]
    if cfg.task == "init_sweep":
        return [(f"del={v:g}", {"init_delta": float(v)}) for v in cfg.init_deltas]
    if cfg.task == "distribution_sweep":
        return [(label, {"noise": NoiseSpec(fam, params=dict(params))})
                for label, fam, params in DISTRIBUTION_SETTINGS]
    if cfg.task == "n_sweep":
        return [(f"n={v}", {"n": int(v)}) for v in cfg.n_values]
    if cfg.task == "d_sweep":
        return [(f"d={v}", {"d": int(v)}) for v in cfg.d_values]
    # regression_grid
    conds = []
    for fam in cfg.families:
        for lvl in cfg.levels:
            for n in cfg.grid_n:
                for d in cfg.grid_d:
                    label = f"fam={fam},lvl={lvl},n={n},d={d}"
                    conds.append((label, {"noise": NoiseSpec(fam, level=int(lvl)),
                                          "n": int(n), "d": int(d)}))
    return conds


def _outcome(name, condition, trial, setup, run):
    """One method's result on one trial: ``run()`` gives its trajectory.  A
    method that raises (a failed setup included) or diverges is aborted with
    its own note."""
    try:
        if isinstance(setup, Exception):
            raise setup
        traj = run()
        if traj is not None and traj.diverged:
            note = traj.stop_reason
        else:
            return TrialResult(name, condition, trial, *setup.score(traj))
    except Exception as exc:  # one method's failure must not sink the others
        note = f"{type(exc).__name__}: {exc}"
    return TrialResult(name, condition, trial, [], {}, aborted=True, note=note)


def _run_stacked(name, cfg, setups):
    """Full-batch rgd or erm over several trials' setups as one stacked
    descent; each trajectory equals the trial's own run bit for bit."""
    kind, _ = _parse_method(name)
    first = setups[0]
    state = OptimState(np.stack([su.w0 for su in setups]), cfg.alpha)
    datasets = [su.ds for su in setups]
    every = first.record_every(name)
    if kind == "rgd":
        return rgd_stacked_run(first.model, datasets, cfg.robust_config(), state,
                               stop=first.stop, record_every=every)
    return erm_gd_stacked_run(first.model, datasets, state, stop=first.stop,
                              record_every=every)


def _chunk_worker(cfg, condition, overrides, trials):
    """Every method of a chunk of seeded trials of one condition, in (trial,
    method) order.  On regression tasks rgd and erm run as one stacked
    descent over the chunk's trials and every other method trial by trial;
    if a stacked descent raises, its method is re-run trial by trial, so the
    fault aborts only the trial it belongs to."""
    regression = cfg.task != "classification_budget"
    make_setup = _regression_setup if regression else _classification_setup
    setups = []
    for k in trials:
        try:
            setups.append(make_setup(cfg, overrides, _trial_seed(cfg, k)))
        except Exception as exc:  # aborts every method of this trial
            setups.append(exc)
    ready = [i for i, su in enumerate(setups) if not isinstance(su, Exception)]
    runs = {}
    for name in cfg.methods:
        if not (regression and name in _STACKED and len(ready) > 1):
            continue
        try:
            trajs = _run_stacked(name, cfg, [setups[i] for i in ready])
        except Exception:  # re-run below, one trial at a time
            continue
        runs.update({(i, name): traj for i, traj in zip(ready, trajs)})
    results = []
    for i, (k, su) in enumerate(zip(trials, setups)):
        for name in cfg.methods:
            def run():
                if (i, name) in runs:
                    return runs[i, name]
                return _run_method(name, cfg, su.model, su.ds, su.w0, su.stop,
                                   _trial_seed(cfg, k), su.record_every(name),
                                   su.risk)
            results.append(_outcome(name, condition, k, su, run))
    return results


def run_experiment(cfg, parallelism=1):
    """Run all conditions x trials of the experiment; aborted (trial,
    method) cells are recorded and excluded from aggregation.  Each
    condition's trials run in chunks of about ``_CHUNK_COLUMNS`` gradient
    columns, each chunk in one worker process when ``parallelism`` > 1."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    chunks = []
    for cond, ov in _conditions(cfg):
        d = ((cfg.classes - 1) * cfg.features if cfg.task == "classification_budget"
             else ov.get("d", cfg.d))  # the gradient width
        size = max(1, _CHUNK_COLUMNS // d)
        chunks += [(cond, ov, range(lo, min(lo + size, cfg.trials)))
                   for lo in range(0, cfg.trials, size)]
    trials = []
    if parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(_chunk_worker, cfg, *chunk) for chunk in chunks]
            for fut in futures:
                trials.extend(fut.result())
    else:
        for chunk in chunks:
            trials.extend(_chunk_worker(cfg, *chunk))
    trials.sort(key=lambda t: (t.condition, t.trial,
                               list(cfg.methods).index(t.method)))
    return ExperimentResult(cfg, trials)
