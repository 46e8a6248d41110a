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
    """The descent loop every method runs, over T trials in lockstep.

    ``state.w`` holds the trials' starting points as rows (T, d).
    ``grad_fn(W, t, live)`` returns the gradient estimates for update ``t``
    of the trials ``live`` (indices) at their iterates ``W``, one row each,
    and ``step_cost(t)`` the evaluations the update costs each trial, known
    before the budget check.  Trials share the update count, the spend and
    the record cadence; one that stops at ``grad_tol`` or ``diverged``
    leaves the batch with the records it would have written alone.
    Iterates are recorded every ``record_every`` updates and once more at
    each trial's stop, whatever its reason.  Returns one Trajectory per trial.
    """
    every = max(1, int(record_every))
    W = np.array(state.w, dtype=float)
    t, evals = state.t, state.grad_evals
    live = np.arange(W.shape[0])
    records = [[(t, w, evals)] for w in W]
    reasons = [None] * live.size

    def leave(gone, reason):
        for k, w in zip(live[gone], W[gone]):
            reasons[k] = reason
            if records[k][-1][0] != t:
                records[k].append((t, w, evals))
        return live[~gone], W[~gone]

    while live.size and t - state.t < stop.max_iters:
        cost = step_cost(t)
        if stop.budget is not None and evals + cost > stop.budget:
            live, W = leave(np.ones(live.size, dtype=bool), "budget")
            break
        G = grad_fn(W, t, live)
        evals += cost
        if stop.grad_norm_tol > 0:
            small = np.max(np.abs(G), axis=1) < stop.grad_norm_tol
            if small.any():
                live, W = leave(small, "grad_tol")
                if not live.size:
                    break
                G = G[~small]
        W = W - state.alpha * G
        if constraint is not None:
            W = np.array([constraint.project(w) for w in W])
        t += 1
        if not np.isfinite(W).all():
            live, W = leave(~np.isfinite(W).all(axis=1), "diverged")
        if t % every == 0:
            for k, w in zip(live, W):
                records[k].append((t, w, evals))
    leave(np.ones(live.size, dtype=bool), "max_iters")
    out = []
    for rec, reason in zip(records, reasons):
        steps, iterates, spent = zip(*rec)
        out.append(Trajectory(
            steps=np.asarray(steps, dtype=int),
            iterates=np.asarray(iterates, dtype=float),
            grad_evals=np.asarray(spent, dtype=int),
            stop_reason=reason,
            alpha=state.alpha,
        ))
    return out


def _as_batch(state):
    """One trial's state as a batch of one."""
    return OptimState(state.w[None], state.alpha, state.t, state.grad_evals)


def _descent(grad_fn, step_cost, state, constraint, stop, record_every):
    """One trial's run of the loop; ``grad_fn(w, t)`` takes its iterate."""
    traj, = _batch_descent(lambda W, t, live: grad_fn(W[0], t)[None], step_cost,
                           _as_batch(state), constraint, stop, record_every)
    return traj


def _shared_n(datasets):
    n = datasets[0].n
    if any(ds.n != n for ds in datasets):
        raise ValueError("stacked trials must share the number of rows")
    return n


def _robust_descent(rows, cfg, state, constraint, stop, record_every, cost,
                    rng=None):
    """Robust descent of the trials whose starting points are the rows of
    ``state.w``; ``rows(k, w)`` gives trial k's gradient rows at w.

    Each step stacks the rows of every live trial whose row mean is finite
    into one (n, T d) matrix and solves all its columns in one call, each bit
    for bit as alone; a trial whose row mean is not finite descends on it,
    so the loop stops it as "diverged".  Per-column solver fallbacks are
    tallied per trial, never raised.
    """
    d = state.w.shape[1]
    diags = [{"locate_fallbacks": 0, "scale_fallbacks": 0} for _ in state.w]

    def grad_fn(W, t, live):
        blocks = [rows(k, w) for k, w in zip(live, W)]
        g = np.array([G.mean(axis=0) for G in blocks])
        ok = np.flatnonzero(np.isfinite(g).all(axis=1))
        if not ok.size:
            return g
        D = blocks[ok[0]] if ok.size == 1 else np.hstack([blocks[i] for i in ok])
        if cfg.coordinate_subset_size is not None:
            theta, info = robust_gradient_subset(D, cfg, rng, full_output=True)
        else:
            width = d if ok.size > 1 else None
            _, s, scale_fb = column_scales(D, cfg, width)
            theta, info = robust_gradient(D, cfg, scale=s, full_output=True,
                                          width=width)
            info["scale_fallback"] = scale_fb
        g[ok] = theta.reshape(ok.size, -1)
        for key, mask in (("scale_fallbacks", info["scale_fallback"]),
                          ("locate_fallbacks", info["locate_fallback"])):
            for k, count in zip(live[ok], mask.reshape(ok.size, -1).sum(axis=1)):
                diags[k][key] += int(count)
        return g

    trajs = _batch_descent(grad_fn, lambda t: cost, state, constraint, stop,
                           record_every)
    for traj, diag in zip(trajs, diags):
        traj.diagnostics.update(diag)
    return trajs


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

    def rows(k, w):
        ds = dataset
        if batch_size is not None:
            ds = dataset.subset(rng.choice(n, size=batch_size, replace=False))
        return loss_and_grad_rows(model.with_weights(w), ds)[1]

    traj, = _robust_descent(rows, cfg, _as_batch(state), constraint, stop,
                            record_every, n if batch_size is None else batch_size,
                            rng)
    return traj


def rgd_stacked_run(model, datasets, cfg, state, constraint=None, stop=None,
                    record_every=1):
    """Full-batch ``rgd_run`` of T trials at once, one stacked M-estimate per
    step: trial k descends from row k of ``state.w`` on ``datasets[k]``, all
    with ``model``'s loss and one shared n.  Returns one Trajectory per
    trial, each bit for bit its own ``rgd_run``.  Coordinate subsets draw
    per trial and run through ``rgd_run`` only.
    """
    if cfg.coordinate_subset_size is not None:
        raise ValueError("coordinate subset runs do not stack")
    stop = stop or StoppingRule(max_iters=100)
    return _robust_descent(
        lambda k, w: loss_and_grad_rows(model.with_weights(w), datasets[k])[1],
        cfg, state, constraint, stop, record_every, _shared_n(datasets))


def erm_gd_run(model, dataset, state, constraint=None, stop=None, record_every=1):
    """Gradient descent on the empirical risk (sample-mean gradient)."""
    traj, = erm_gd_stacked_run(model, [dataset], _as_batch(state), constraint,
                               stop, record_every)
    return traj


def erm_gd_stacked_run(model, datasets, state, constraint=None, stop=None,
                       record_every=1):
    """``erm_gd_run`` of T trials at once, as ``rgd_stacked_run`` stacks
    ``rgd_run``."""
    stop = stop or StoppingRule(max_iters=100)
    n = _shared_n(datasets)

    def grad_fn(W, t, live):
        return np.array([loss_and_grad_rows(model.with_weights(w), datasets[k])[1]
                         .mean(axis=0) for k, w in zip(live, W)])

    return _batch_descent(grad_fn, lambda t: n, state, constraint, stop,
                          record_every)


def oracle_gd_run(grad, state, constraint=None, stop=None, record_every=1):
    """Descent on an exact gradient map ``grad(w)``; consumes no evaluations."""
    stop = stop or StoppingRule(max_iters=100)
    return _descent(lambda w, t: grad(w), lambda t: 0, state, constraint, stop,
                    record_every)


def sgd_run(model, dataset, state, stop, rng, constraint=None, batch_size=1,
            record_every=1):
    """Stochastic gradient descent on uniformly sampled rows."""
    n = dataset.n

    def grad_fn(w, t):
        idx = rng.integers(n, size=batch_size)
        _, G = loss_and_grad_rows(model.with_weights(w), dataset.subset(idx))
        return G.mean(axis=0)

    return _descent(grad_fn, lambda t: batch_size, state, constraint, stop,
                    record_every)


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

    return _descent(grad_fn, lambda t: n + 1 if epoch_start(t) else 1, state,
                    constraint, stop, record_every)


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

    return _descent(grad_fn, lambda t: n, state, constraint, stop, record_every)
