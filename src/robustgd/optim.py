"""First-order descent methods and robust aggregation baselines.

Every method runs one loop: start from an initial state, apply
projected steps w <- pi(w - alpha * g_hat) with a method-specific gradient
estimate g_hat, and record the visited iterates together with a running
count of per-row gradient evaluations.  A budget is never exceeded: a step
whose cost would cross it is not taken.
"""

from dataclasses import dataclass, field

import numpy as np

from .models import loss_and_grad_rows
from .robust_grad import column_scales, robust_gradient, robust_gradient_subset


@dataclass
class OptimState:
    """Current iterate, step size and accounting counters."""

    w: np.ndarray
    alpha: float
    t: int = 0
    grad_evals: int = 0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if not self.alpha > 0:
            raise ValueError("step size alpha must be positive")
        if self.t < 0 or self.grad_evals < 0:
            raise ValueError("counters must be non-negative")


@dataclass
class L2Ball:
    """Euclidean ball constraint; projection is non-expansive."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def project(self, w):
        v = w - self.center
        nrm = np.linalg.norm(v)
        if nrm <= self.radius:
            return w
        return self.center + v * (self.radius / nrm)

    def contains(self, w, slack=1e-9):
        return np.linalg.norm(w - self.center) <= self.radius * (1.0 + slack)


@dataclass
class StoppingRule:
    """Stop at max_iters updates, when every coordinate of the estimated
    gradient falls below grad_norm_tol, or when the evaluation budget would
    be exceeded by the next step."""

    max_iters: int
    grad_norm_tol: float = 0.0
    budget: int | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_norm_tol < 0:
            raise ValueError("grad_norm_tol must be non-negative")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 when set")


@dataclass
class Trajectory:
    """Recorded iterates of one run plus bookkeeping.

    ``steps[i]`` is the update count at which ``iterates[i]`` was recorded
    (0 is the initial point, always present); ``grad_evals`` is aligned.
    """

    steps: np.ndarray
    iterates: np.ndarray
    grad_evals: np.ndarray
    stop_reason: str
    alpha: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def final_w(self):
        return self.iterates[-1]

    @property
    def final_state(self):
        return OptimState(self.iterates[-1].copy(), self.alpha,
                          t=int(self.steps[-1]), grad_evals=int(self.grad_evals[-1]))

    @property
    def diverged(self):
        return self.stop_reason == "diverged"


def _batch_descent(grad_fn, step_cost, state, constraint, stop, record_every):
    """The descent loop every method runs.

    ``grad_fn(w, t)`` returns the gradient estimate for update ``t`` and
    ``step_cost(t)`` the evaluations it consumes, known before the budget
    check.  Iterates are recorded every ``record_every`` updates and once
    more at the stop, whatever its reason.
    """
    every = max(1, int(record_every))
    w = state.w.copy()
    t, evals = state.t, state.grad_evals
    records = [(t, w, evals)]
    reason = "max_iters"
    while t - state.t < stop.max_iters:
        cost = step_cost(t)
        if stop.budget is not None and evals + cost > stop.budget:
            reason = "budget"
            break
        g = grad_fn(w, t)
        evals += cost
        if stop.grad_norm_tol > 0 and np.max(np.abs(g)) < stop.grad_norm_tol:
            reason = "grad_tol"
            break
        w = w - state.alpha * g
        if constraint is not None:
            w = constraint.project(w)
        t += 1
        if not np.all(np.isfinite(w)):
            reason = "diverged"
            break
        if t % every == 0:
            records.append((t, w, evals))
    if records[-1][0] != t:
        records.append((t, w, evals))
    steps, iterates, spent = zip(*records)
    return Trajectory(
        steps=np.asarray(steps, dtype=int),
        iterates=np.asarray(iterates, dtype=float),
        grad_evals=np.asarray(spent, dtype=int),
        stop_reason=reason,
        alpha=state.alpha,
    )


def rgd_run(model, dataset, cfg, state, constraint=None, stop=None, rng=None,
            batch_size=None, record_every=1):
    """Robust gradient descent: each step summarizes the per-row gradient
    matrix by coordinate-wise location estimates and descends on those.

    Coordinate subsets are robustified when ``cfg.coordinate_subset_size``
    is set (requires ``rng``); otherwise every step estimates the column
    scales (the dispersion root, or the prior variance when
    ``cfg.known_variance`` is set) and locates every column.  ``batch_size``
    draws a random row subset per step (requires ``rng``).  Per-column solver
    fallbacks are tallied, never raised.
    """
    stop = stop or StoppingRule(max_iters=100)
    n = dataset.n
    if batch_size is not None:
        if not 1 <= batch_size <= n:
            raise ValueError("batch_size must lie in [1, n]")
        if rng is None:
            raise ValueError("mini-batch runs need an rng")
    if cfg.coordinate_subset_size is not None and rng is None:
        raise ValueError("coordinate subset runs need an rng")
    cost = n if batch_size is None else batch_size

    diag = {"locate_fallbacks": 0, "scale_fallbacks": 0}

    def grad_fn(w, t):
        ds = dataset
        if batch_size is not None:
            ds = dataset.subset(rng.choice(n, size=batch_size, replace=False))
        _, G = loss_and_grad_rows(model.with_weights(w), ds)
        g_mean = G.mean(axis=0)
        if not np.all(np.isfinite(g_mean)):
            return g_mean  # the loop stops this run as "diverged"
        if cfg.coordinate_subset_size is not None:
            theta, info = robust_gradient_subset(G, cfg, rng, full_output=True)
            diag["scale_fallbacks"] += int(info["scale_fallback"].sum())
        else:
            _, s, scale_fb = column_scales(G, cfg)
            diag["scale_fallbacks"] += int(scale_fb.sum())
            theta, info = robust_gradient(G, cfg, scale=s, full_output=True)
        diag["locate_fallbacks"] += int(info["locate_fallback"].sum())
        return theta

    traj = _batch_descent(grad_fn, lambda t: cost, state, constraint, stop,
                          record_every)
    traj.diagnostics.update(diag)
    return traj


def erm_gd_run(model, dataset, state, constraint=None, stop=None, record_every=1):
    """Gradient descent on the empirical risk (sample-mean gradient)."""
    stop = stop or StoppingRule(max_iters=100)

    def grad_fn(w, t):
        _, G = loss_and_grad_rows(model.with_weights(w), dataset)
        return G.mean(axis=0)

    return _batch_descent(grad_fn, lambda t: dataset.n, state, constraint, stop,
                          record_every)


def oracle_gd_run(grad, state, constraint=None, stop=None, record_every=1):
    """Descent on an exact gradient map ``grad(w)``; consumes no evaluations."""
    stop = stop or StoppingRule(max_iters=100)
    return _batch_descent(lambda w, t: grad(w), lambda t: 0, state, constraint,
                          stop, record_every)


def sgd_run(model, dataset, state, stop, rng, constraint=None, batch_size=1,
            record_every=1):
    """Stochastic gradient descent on uniformly sampled rows."""
    n = dataset.n

    def grad_fn(w, t):
        idx = rng.integers(n, size=batch_size)
        _, G = loss_and_grad_rows(model.with_weights(w), dataset.subset(idx))
        return G.mean(axis=0)

    return _batch_descent(grad_fn, lambda t: batch_size, state, constraint,
                          stop, record_every)


def svrg_run(model, dataset, state, stop, rng, constraint=None,
             inner_steps=None, record_every=1):
    """Variance-reduced stochastic descent: full-gradient snapshots (n
    evaluations each) anchor inner loops of single-sample corrected steps
    (1 evaluation each), repeated until the budget or iteration cap.

    A snapshot is charged together with the first inner step it anchors,
    so the budget never pays for a snapshot that no step uses.
    """
    n = dataset.n
    inner_len = max(1, n // 2 if inner_steps is None else int(inner_steps))
    snap = {}

    def epoch_start(t):
        return (t - state.t) % inner_len == 0

    def grad_fn(w, t):
        if epoch_start(t):
            snap["model"] = model.with_weights(w.copy())
            _, G = loss_and_grad_rows(snap["model"], dataset)
            snap["grad"] = G.mean(axis=0)
        row = dataset.subset([int(rng.integers(n))])
        _, gi = loss_and_grad_rows(model.with_weights(w), row)
        _, gi_snap = loss_and_grad_rows(snap["model"], row)
        return gi[0] - gi_snap[0] + snap["grad"]

    return _batch_descent(grad_fn, lambda t: n + 1 if epoch_start(t) else 1,
                          state, constraint, stop, record_every)


def geometric_median(points, tol=1e-10, max_iters=1000):
    """Point minimizing the sum of Euclidean distances to ``points`` (k, d).

    Re-weighted averaging with the standard adjustment when the iterate
    coincides with a data point: the coincident point's pull is removed and
    the step is damped by its multiplicity; if the residual pull of the
    remaining points is no larger than that multiplicity, the iterate is the
    minimizer and iteration stops.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ValueError("points must be a non-empty (k, d) array")
    k = P.shape[0]
    if k == 1:
        return P[0].copy()
    y = P.mean(axis=0)
    scale = 1.0 + float(np.abs(P).max())
    for _ in range(max_iters):
        diff = P - y
        dist = np.linalg.norm(diff, axis=1)
        coincident = dist <= 1e-10 * scale
        eta = int(coincident.sum())
        if eta == k:
            break
        inv = 1.0 / dist[~coincident]
        t_tilde = (P[~coincident] * inv[:, None]).sum(axis=0) / inv.sum()
        if eta == 0:
            y_new = t_tilde
        else:
            pull = (diff[~coincident] * inv[:, None]).sum(axis=0)
            r = np.linalg.norm(pull)
            if r <= eta:
                break
            gamma = eta / r
            y_new = (1.0 - gamma) * t_tilde + gamma * y
        move = np.linalg.norm(y_new - y)
        y = y_new
        if move <= tol * scale:
            break
    return y


def default_partition_count(n, d):
    """Block count max(2, floor(n / (2 d))) used by the partition baseline."""
    return max(2, n // (2 * d))


def median_of_means_gd_run(model, dataset, partitions, state, constraint=None,
                           stop=None, record_every=1, median_tol=1e-10):
    """Descent on geometric-median-aggregated block-mean gradients.

    Rows are split into ``partitions`` equal blocks (remainder rows joining
    the last block); each step averages the gradient rows within blocks and
    aggregates the block means by geometric median.
    """
    stop = stop or StoppingRule(max_iters=100)
    n = dataset.n
    partitions = int(partitions)
    if partitions < 2:
        raise ValueError("need at least 2 partitions")
    if n < partitions:
        raise ValueError("more partitions than observations")
    q = n // partitions
    bounds = [(b * q, (b + 1) * q if b < partitions - 1 else n)
              for b in range(partitions)]

    def grad_fn(w, t):
        _, G = loss_and_grad_rows(model.with_weights(w), dataset)
        means = np.stack([G[lo:hi].mean(axis=0) for lo, hi in bounds])
        return geometric_median(means, tol=median_tol)

    return _batch_descent(grad_fn, lambda t: n, state, constraint, stop,
                          record_every)
