"""First-order descent methods and robust aggregation baselines.

Every method runs one loop: start from an initial state, apply
projected steps w <- pi(w - alpha * g_hat) with a method-specific gradient
estimate g_hat, and record the visited iterates together with a running
count of per-row gradient evaluations.  A budget is never exceeded: a step
whose cost would cross it is not taken.

The rgd, erm, sgd and svrg steps take their gradient rows from
``model.grad_rows`` on plain arrays, checked once at entry (``row_arrays``);
the full-batch rgd and erm descents stack T trials' data once and build all
their rows per step in one call over the trial axis.  Median-of-means steps
and svrg's snapshots evaluate through ``loss_and_grad_rows``.
"""

from dataclasses import dataclass, field

import numpy as np

from .models import LinearModel, loss_and_grad_rows, row_arrays
# column_scales is unused here but stays importable: perfbench's tracer hooks it
from .robust_grad import column_scales, robust_gradient


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


def _row_mean(G):
    """``G.mean(axis=0)`` bit for bit; a lone row skips numpy's mean wrapper
    and adds +0.0 instead, which turns -0.0 into +0.0 as the mean's sum does."""
    return G[0] + 0.0 if G.shape[0] == 1 else G.mean(axis=0)


def _stack_datasets(model, datasets):
    """The trials' inputs (T, n, F) and targets (T, n), checked once against
    each other and, through ``row_arrays``, against ``model``; at T = 1
    views of the lone dataset's arrays, otherwise one C-ordered copy."""
    n, F = datasets[0].n, datasets[0].n_features
    if any(ds.n != n for ds in datasets):
        raise ValueError("stacked trials must share the number of rows")
    if any(ds.n_features != F for ds in datasets):
        raise ValueError("stacked trials must share the number of features")
    arrays = [row_arrays(model, ds) for ds in datasets]
    if len(arrays) == 1:
        X, y = arrays[0]
        return X[None], y[None]
    return np.stack([X for X, _ in arrays]), np.stack([y for _, y in arrays])


def _trial_rows(model, Xs, ys):
    """``rows(live, W)``: the (T, n, d) gradient rows of the trials ``live``
    at their iterates W, on the stacked data of ``_stack_datasets``.  The
    linear kernel takes the trial axis in one call; the logistic one runs
    trial by trial."""
    linear = isinstance(model, LinearModel)

    def rows(live, W):
        X, y = (Xs, ys) if live.size == Xs.shape[0] else (Xs[live], ys[live])
        if linear:
            return model.grad_rows(W, X, y)
        if live.size == 1:
            return model.grad_rows(W[0], X[0], y[0])[None]
        return np.stack([model.grad_rows(*trial) for trial in zip(W, X, y)])

    return rows


def _robust_descent(rows, cfg, state, constraint, stop, record_every, cost,
                    draw_cols=None):
    """Robust descent of the trials whose starting points are the rows of
    ``state.w``; ``rows(live, W)`` gives the (T, n, d) gradient rows of the
    trials ``live`` at their iterates W.

    Each step copies the rows of every live trial whose row mean is finite
    into one C-ordered (T d, n) matrix and solves its transpose, all T d
    columns, in one ``robust_gradient`` call, which reduces every column
    alone, so each trial's estimate has the bits of its own solve; a trial
    whose row mean is not finite descends on it, so the loop stops it as
    "diverged".  ``draw_cols()``, when given, draws a lone trial's
    coordinate subset for each step that reaches the solver.  Per-column
    solver fallbacks are tallied per trial, never raised.
    """
    diags = [{"locate_fallbacks": 0, "scale_fallbacks": 0} for _ in state.w]

    def grad_fn(W, t, live):
        G = rows(live, W)
        g = G.mean(axis=1)
        ok = np.flatnonzero(np.isfinite(g).all(axis=1))
        if not ok.size:
            return g
        if ok.size < live.size:
            G = G[ok]
        # robust_gradient copies D.T to C order, which this transpose already is
        Dt = G.transpose(0, 2, 1).reshape(-1, G.shape[1])
        cols = None if draw_cols is None else draw_cols()
        theta, info = robust_gradient(Dt.T, cfg, cols)
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
            batch_size=None, coordinate_subset_size=None, record_every=1):
    """Robust gradient descent: each step summarizes the per-row gradient
    matrix by coordinate-wise location estimates (``robust_gradient``) and
    descends on those.

    The data is checked once at entry; each step takes its gradient rows
    from ``model.grad_rows``, at full batch as ``rgd_stacked_run``'s lone
    trial.  ``batch_size`` draws a random row subset per step (requires
    ``rng``).
    ``coordinate_subset_size`` = k draws k of the d coordinates per step
    from ``rng`` (after the step's rows) and robustifies only those; the
    rest take their plain mean.  Per-column solver fallbacks are tallied,
    never raised.
    """
    stop = stop or StoppingRule(max_iters=100)
    n = dataset.n
    if batch_size is None:
        rows = _trial_rows(model, *_stack_datasets(model, [dataset]))
    else:
        if not 1 <= batch_size <= n:
            raise ValueError("batch_size must lie in [1, n]")
        if rng is None:
            raise ValueError("mini-batch runs need an rng")
        X, y = row_arrays(model, dataset)

        def rows(live, W):
            idx = rng.choice(n, size=batch_size, replace=False)
            return model.grad_rows(W[0], X[idx], y[idx])[None]
    draw_cols = None
    if coordinate_subset_size is not None:
        size, d = coordinate_subset_size, state.w.shape[0]
        if size < 1:
            raise ValueError("coordinate_subset_size must be >= 1 when set")
        if rng is None:
            raise ValueError("coordinate subset runs need an rng")
        if size > d:
            raise ValueError("coordinate_subset_size cannot exceed the number of columns")

        def draw_cols():
            return np.sort(rng.choice(d, size=size, replace=False))

    traj, = _robust_descent(rows, cfg, _as_batch(state), constraint, stop,
                            record_every, n if batch_size is None else batch_size,
                            draw_cols)
    return traj


def rgd_stacked_run(model, datasets, cfg, state, constraint=None, stop=None,
                    record_every=1):
    """Full-batch ``rgd_run`` of T trials at once, one stacked M-estimate per
    step: trial k descends from row k of ``state.w`` on ``datasets[k]``, all
    with ``model``'s loss and one shared n and feature count, checked at
    entry.  Returns one Trajectory per trial, each bit for bit its own
    ``rgd_run``.
    """
    stop = stop or StoppingRule(max_iters=100)
    Xs, ys = _stack_datasets(model, datasets)
    return _robust_descent(_trial_rows(model, Xs, ys), cfg, state, constraint,
                           stop, record_every, Xs.shape[1])


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
    Xs, ys = _stack_datasets(model, datasets)
    rows = _trial_rows(model, Xs, ys)
    return _batch_descent(lambda W, t, live: rows(live, W).mean(axis=1),
                          lambda t: Xs.shape[1], state, constraint, stop,
                          record_every)


def oracle_gd_run(grad, state, constraint=None, stop=None, record_every=1):
    """Descent on an exact gradient map ``grad(w)``; consumes no evaluations."""
    stop = stop or StoppingRule(max_iters=100)
    return _descent(lambda w, t: grad(w), lambda t: 0, state, constraint, stop,
                    record_every)


def sgd_run(model, dataset, state, stop, rng, constraint=None, batch_size=1,
            record_every=1):
    """Stochastic gradient descent on uniformly sampled rows, whose gradient
    rows come from ``model.grad_rows`` on data checked once at entry."""
    X, y = row_arrays(model, dataset)
    n = dataset.n

    def grad_fn(w, t):
        if batch_size == 1:
            # a scalar draw consumes the stream as a size-1 draw does
            i = int(rng.integers(n))
            idx = slice(i, i + 1)
        else:
            idx = rng.integers(n, size=batch_size)
        return _row_mean(model.grad_rows(w, X[idx], y[idx]))

    return _descent(grad_fn, lambda t: batch_size, state, constraint, stop,
                    record_every)


def svrg_run(model, dataset, state, stop, rng, constraint=None,
             inner_steps=None, record_every=1):
    """Variance-reduced stochastic descent: full-gradient snapshots (n
    evaluations each) anchor inner loops of single-sample corrected steps
    (1 evaluation each), repeated until the budget or iteration cap.

    A snapshot is charged together with the first inner step it anchors,
    so the budget never pays for a snapshot that no step uses.  Inner steps
    evaluate their row with ``model.grad_rows`` at the iterate and at the
    snapshot's weights, on data checked once at entry.
    """
    X, y = row_arrays(model, dataset)
    n = dataset.n
    inner_len = max(1, n // 2 if inner_steps is None else int(inner_steps))
    snap = {}

    def epoch_start(t):
        return (t - state.t) % inner_len == 0

    def grad_fn(w, t):
        if epoch_start(t):
            snap["w"] = w.copy()
            _, G = loss_and_grad_rows(model.with_weights(snap["w"]), dataset)
            snap["grad"] = G.mean(axis=0)
        i = int(rng.integers(n))
        Xi, yi = X[i:i + 1], y[i:i + 1]
        return (model.grad_rows(w, Xi, yi)[0] - model.grad_rows(snap["w"], Xi, yi)[0]
                + snap["grad"])

    return _descent(grad_fn, lambda t: n + 1 if epoch_start(t) else 1, state,
                    constraint, stop, record_every)


def geometric_median(points, tol=1e-10, max_iters=1000):
    """Point minimizing the sum of Euclidean distances to ``points`` (k, d).

    Re-weighted averaging (Weiszfeld) from the coordinate mean, with the
    standard adjustment when the iterate coincides with a data point: the
    coincident point's pull is removed and the step is damped by its
    multiplicity; if the residual pull of the remaining points is no larger
    than that multiplicity, the iterate is the minimizer and iteration
    stops.  Points that are not all finite return their coordinate mean at
    once, which is not finite either.  Finite points whose squared distances
    overflow (an iterate gone NaN) are solved once more divided by
    1 + max |point|, and that median is scaled back; a median that never
    overflows is the plain iteration's.  The points are read as one
    C-ordered array, so the result does not depend on their memory order.
    """
    P = np.ascontiguousarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ValueError("points must be a non-empty (k, d) array")
    k = P.shape[0]
    if k == 1:
        return P[0].copy()
    y = P.mean(axis=0)
    if not np.isfinite(P).all():
        return y
    scale = 1.0 + float(np.abs(P).max())
    for _ in range(max_iters):
        diff = P - y
        # the operations np.linalg.norm runs, without its wrapper
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
        coincident = dist <= 1e-10 * scale
        eta = int(coincident.sum())
        if eta == 0:
            inv = 1.0 / dist
            y_new = (P * inv[:, None]).sum(axis=0) / inv.sum()
        else:
            if eta == k:
                break
            inv = 1.0 / dist[~coincident]
            t_tilde = (P[~coincident] * inv[:, None]).sum(axis=0) / inv.sum()
            pull = (diff[~coincident] * inv[:, None]).sum(axis=0)
            r = np.linalg.norm(pull)
            if r <= eta:
                break
            gamma = eta / r
            y_new = (1.0 - gamma) * t_tilde + gamma * y
        step = y_new - y
        move = np.sqrt(step.dot(step))
        y = y_new
        if move <= tol * scale:
            break
        if move != move:
            # the distances overflowed and every later iterate would be NaN;
            # the points divided by scale lie in the unit cube, where none can
            return scale * geometric_median(P / scale, tol, max_iters)
    return y


def default_partition_count(n, d):
    """Block count max(2, floor(n / (2 d))) used by the partition baseline."""
    return max(2, n // (2 * d))


def median_of_means_gd_run(model, dataset, partitions, state, constraint=None,
                           stop=None, record_every=1, median_tol=1e-10):
    """Descent on geometric-median-aggregated block-mean gradients.

    Rows are split into ``partitions`` equal blocks of q = n // partitions
    rows (remainder rows joining the last block); each step takes the means
    of the first partitions - 1 blocks from one (partitions - 1, q, d)
    reshape of the gradient rows, the last block's mean on its own, and
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
    head = (partitions - 1) * q

    def grad_fn(w, t):
        _, G = loss_and_grad_rows(model.with_weights(w), dataset)
        means = np.vstack([G[:head].reshape(partitions - 1, q, -1).mean(axis=1),
                           G[head:].mean(axis=0)])
        return geometric_median(means, tol=median_tol)

    return _descent(grad_fn, lambda t: n, state, constraint, stop, record_every)
