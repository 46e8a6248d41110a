"""First-order descent methods and robust aggregation baselines.

Every method runs one loop: start from an initial state, apply steps
w <- w - alpha * g_hat with a method-specific gradient estimate g_hat, and
record the visited iterates together with a running count of per-row
gradient evaluations.  A budget is never exceeded: a step whose cost would
cross it is not taken.

The rgd, erm, sgd and svrg steps take their gradient rows from
``model.grad_rows`` on plain arrays, checked once at entry (``row_arrays``);
the full-batch rgd and erm descents stack T trials' data once and build all
their rows per step in one call over the trial axis, for either model, and
each svrg snapshot builds its n one-row gradients in one call.  With more
than one trial the linear kernel writes the rows in (T, d, n) memory,
against a (T, F, n) copy of the inputs made once per descent, so the robust
solve reads them as C-ordered (T d, n) rows without a copy.  The stacked
descents take every trial's row mean from one C-ordered (n, T d) copy of
the rows, summed row by row per column in ``np.add.reduce(G, 1)``'s order,
so each trial keeps the bits of its own mean.  A full-batch rgd descent
starts each step's M-estimates from an extrapolation of the trial's last
three (theta, log sigma).
Median-of-means steps and svrg's snapshot gradients evaluate through
``loss_and_grad_rows``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .models import loss_and_grad_rows, row_arrays
# column_scales is unused here but stays importable: perfbench's tracer hooks it
from .robust_grad import column_scales, robust_gradient


@dataclass
class OptimState:
    """Starting iterate and step size."""

    w: np.ndarray
    alpha: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if not self.alpha > 0:
            raise ValueError("step size alpha must be positive")


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
    diagnostics: dict = field(default_factory=dict)

    @property
    def final_w(self):
        return self.iterates[-1]

    @property
    def diverged(self):
        return self.stop_reason == "diverged"


def _batch_descent(grad_fn, step_cost, state, stop, record_every):
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
    t = evals = 0
    last, budget, tol, alpha = stop.max_iters, stop.budget, stop.grad_norm_tol, state.alpha
    live = np.arange(W.shape[0])
    records = [[(t, w, evals)] for w in W]
    reasons = [None] * live.size

    def leave(gone, reason):
        for k, w in zip(live[gone], W[gone]):
            reasons[k] = reason
            if records[k][-1][0] != t:
                records[k].append((t, w, evals))
        return live[~gone], W[~gone]

    # an overflow or invalid value ends as a diverged trial or is harmless
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and t < last:
            cost = step_cost(t)
            if budget is not None and evals + cost > budget:
                live, W = leave(np.ones(live.size, dtype=bool), "budget")
                break
            G = grad_fn(W, t, live)
            evals += cost
            if tol > 0:
                small = np.max(np.abs(G), axis=1) < tol
                if small.any():
                    live, W = leave(small, "grad_tol")
                    if not live.size:
                        break
                    G = G[~small]
            W = W - alpha * G
            t += 1
            # a finite sum has finite terms; a sum that is not (a term, or
            # an overflow) has its terms checked
            if not math.isfinite(np.add.reduce(W, None)):
                bad = ~np.isfinite(W).all(axis=1)
                if bad.any():
                    live, W = leave(bad, "diverged")
            if t % every == 0:
                for k, w in zip(live.tolist(), W):
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
        ))
    return out


def _as_batch(state):
    """One trial's state as a batch of one."""
    return OptimState(state.w[None], state.alpha)


def _descent(grad_fn, step_cost, state, stop, record_every):
    """One trial's run of the loop; ``grad_fn(w, t)`` takes its iterate."""
    traj, = _batch_descent(lambda W, t, live: grad_fn(W[0], t)[None], step_cost,
                           _as_batch(state), stop, record_every)
    return traj


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
    at their iterates W, on the stacked data of ``_stack_datasets``, in one
    kernel call over the trial axis.

    With T > 1 the inputs are kept in two memory orders: the C-ordered
    (T, n, F) stack, which the kernel's matmul reads, and a C-ordered
    (T, F, n) copy made here once, against which the linear kernel writes
    the rows in (T, d, n) memory.  The rows come back as the (T, n, d) view
    of that memory, so the solver's C-ordered (T d, n) matrix is a free
    view of them (``_robust_descent``).  The logistic kernel ignores the
    copy and writes C-ordered rows.  A lone trial's rows are written
    C-ordered, as its row means then need no copy (``_row_means``): a lone
    erm step at n = 500, d = 128 took 89 us C-ordered and 389 us through
    the copy, on a 2-core Xeon.  Once trials leave, both stacks are
    re-indexed to the live trials, once per departure rather than every
    step (``live`` only shrinks).
    """
    Xts = np.ascontiguousarray(Xs.transpose(0, 2, 1)) if Xs.shape[0] > 1 else None
    data = [Xs.shape[0], Xs, ys, Xts]  # the live trials' count and stacks

    def rows(live, W):
        if live.size != data[0]:
            data[:] = live.size, Xs[live], ys[live], Xts if Xts is None else Xts[live]
        return model.grad_rows(W, *data[1:])

    return rows


def _row_means(G):
    """The (T, d) row means of T trials' (T, n, d) gradient rows G, bit for
    bit ``np.add.reduce(np.ascontiguousarray(G), 1) / n``, whatever G's
    memory order.

    For d > 1 numpy sums each column of a C-ordered G row by row, one
    accumulator per column starting from +0.0, but over the middle axis its
    inner loop is only d long; and over rows in (T, d, n) memory (the view
    ``_trial_rows`` returns) it would sum each column pairwise, with other
    bits.  So the same row-by-row sums are taken over axis 0 of one
    C-ordered (n, T d) copy of the rows, whose inner loop runs over all T d
    columns.  A C-ordered G at T = 1 is already reduced in long loops, and
    at d = 1 numpy sums every column pairwise in either order: those are
    reduced as they are, with no copy.
    """
    T, n, d = G.shape
    if d == 1 or (T == 1 and G.flags.c_contiguous):
        return np.add.reduce(G, 1) / n
    rows = np.ascontiguousarray(G.transpose(1, 0, 2)).reshape(n, T * d)
    return (np.add.reduce(rows, 0) / n).reshape(T, d)


def _extrapolated_start(hist, t, solved):
    """The warm start of step ``t`` for the trials ``solved``: from a ring
    ``hist`` (3, 2, T, d) of each trial's (theta, log sigma) at its last
    steps (step s in slot s % 3), the rows a2 of step t - 1, a1 of t - 2
    and a0 of t - 3 extrapolate to 3 (a2 - a1) + a0 from t = 3, to
    a2 + (a2 - a1) at t = 2, and are a2 at t = 1.  Returns (theta, sigma),
    sigma the exp of the extrapolated log sigma, flattened trial by trial.
    """
    if solved.size < hist.shape[2]:
        hist = hist[:, :, solved]
    a2 = hist[(t - 1) % 3]
    if t == 1:
        guess = a2.copy()  # not a view of the ring, which later steps write
    else:
        step = a2 - hist[(t - 2) % 3]
        guess = a2 + step if t == 2 else 3.0 * step + hist[(t - 3) % 3]
    return guess[0].reshape(-1), np.exp(guess[1]).reshape(-1)


def _robust_descent(rows, cfg, state, stop, record_every, cost, draw_cols=None,
                    warm=False):
    """Robust descent of the trials whose starting points are the rows of
    ``state.w``; ``rows(live, W)`` gives the (T, n, d) gradient rows of the
    trials ``live`` at their iterates W.

    The rows' (T d, n) matrix is their transpose-and-reshape: a free view of
    the rows ``_trial_rows`` writes in (T, d, n) memory, and one copy of
    C-ordered rows (a lone trial's, a mini-batch's or logistic ones).  The
    row means come from ``_row_means``, each column summed row by row in
    ``np.add.reduce(G, 1)``'s order, so each trial's mean has the bits of
    its own.  The rows of every trial whose row mean is finite are solved,
    all their columns, in one ``robust_gradient`` call on the (T d, n)
    matrix's transpose, which ``robust_gradient`` reads as C-ordered (d, n)
    rows without a copy and reduces column by column, so each trial's
    estimate has the bits of its own solve; a trial whose row mean is not
    finite descends on it, so the loop stops it as "diverged".  ``warm``
    keeps each trial's (theta, log sigma) of its last three steps and starts
    its next solve from their extrapolation (``_extrapolated_start``), which
    reads that trial's rows alone.  The first step starts cold; every later
    step of a live trial has its rows, since a trial left unsolved by a step
    has left the loop as "diverged".  ``draw_cols()``, when given, draws a
    lone trial's coordinate subset for each step that reaches the
    solver.  Per-column solver fallbacks are tallied per trial, never raised.
    """
    diags = [{"locate_fallbacks": 0, "scale_fallbacks": 0} for _ in state.w]
    # when warm, every trial's (theta, log sigma) of its last three steps
    hist = np.empty((3, 2) + state.w.shape) if warm else None

    def grad_fn(W, t, live):
        G = rows(live, W)
        n = G.shape[1]
        Dt = G.transpose(0, 2, 1).reshape(-1, n)
        g = _row_means(G)
        ok = np.isfinite(g).all(axis=1).nonzero()[0]
        if not ok.size:
            return g
        if ok.size < live.size:
            Dt = Dt.reshape(live.size, -1, n)[ok].reshape(-1, n)
        solved = live[ok]
        start = None
        if hist is not None and t > 0:
            start = _extrapolated_start(hist, t, solved)
        cols = None if draw_cols is None else draw_cols()
        theta, info = robust_gradient(Dt.T, cfg, cols, start)
        g[ok] = theta.reshape(ok.size, -1)
        if hist is not None:
            hist[t % 3, 0, solved] = g[ok]
            hist[t % 3, 1, solved] = np.log(info["sigma"]).reshape(ok.size, -1)
        for key, mask in (("scale_fallbacks", info["scale_fallback"]),
                          ("locate_fallbacks", info["locate_fallback"])):
            if mask.any():
                for k, count in zip(live[ok], mask.reshape(ok.size, -1).sum(axis=1)):
                    diags[k][key] += int(count)
        return g

    trajs = _batch_descent(grad_fn, lambda t: cost, state, stop, record_every)
    for traj, diag in zip(trajs, diags):
        traj.diagnostics.update(diag)
    return trajs


def rgd_run(model, dataset, cfg, state, stop, rng=None, batch_size=None,
            coordinate_subset_size=None, record_every=1):
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

    # mini-batch rows change every step and a subset's columns with it, so
    # only a full-batch run of every column starts warm
    traj, = _robust_descent(rows, cfg, _as_batch(state), stop, record_every,
                            n if batch_size is None else batch_size, draw_cols,
                            warm=batch_size is None and draw_cols is None)
    return traj


def rgd_stacked_run(model, datasets, cfg, state, stop, record_every=1):
    """Full-batch ``rgd_run`` of T trials at once, one stacked M-estimate per
    step: trial k descends from row k of ``state.w`` on ``datasets[k]``, all
    with ``model``'s loss and one shared n and feature count, checked at
    entry.  Returns one Trajectory per trial, each bit for bit its own
    ``rgd_run``.
    """
    Xs, ys = _stack_datasets(model, datasets)
    return _robust_descent(_trial_rows(model, Xs, ys), cfg, state, stop,
                           record_every, Xs.shape[1], warm=True)


def erm_gd_run(model, dataset, state, stop, record_every=1):
    """Gradient descent on the empirical risk (sample-mean gradient)."""
    traj, = erm_gd_stacked_run(model, [dataset], _as_batch(state), stop, record_every)
    return traj


def erm_gd_stacked_run(model, datasets, state, stop, record_every=1):
    """``erm_gd_run`` of T trials at once, as ``rgd_stacked_run`` stacks
    ``rgd_run``."""
    Xs, ys = _stack_datasets(model, datasets)
    rows = _trial_rows(model, Xs, ys)
    return _batch_descent(lambda W, t, live: _row_means(rows(live, W)),
                          lambda t: Xs.shape[1], state, stop, record_every)


def oracle_gd_run(grad, state, stop, record_every=1):
    """Descent on an exact gradient map ``grad(w)``; consumes no evaluations."""
    return _descent(lambda w, t: grad(w), lambda t: 0, state, stop, record_every)


# row indices drawn per call into the generator by the stochastic steps
_DRAW_CHUNK = 256


def _row_draws(rng, n):
    """The row indices ``int(rng.integers(n))`` of successive scalar draws,
    taken from ``rng`` ``_DRAW_CHUNK`` at a time.  A chunk holds the same
    indices, in the same order, as that many scalar draws, so only the
    generator's state after the last index read differs."""
    while True:
        yield from rng.integers(n, size=_DRAW_CHUNK).tolist()


def sgd_run(model, dataset, state, stop, rng, record_every=1):
    """Stochastic gradient descent on one uniformly sampled row per step,
    whose gradient comes from ``model.grad_rows`` on data checked once at
    entry.  The rows are the scalar draws ``rng.integers(n)``, taken from a
    buffered stream (``_row_draws``)."""
    X, y = row_arrays(model, dataset)
    n = dataset.n
    draws = _row_draws(rng, n)

    def grad_fn(w, t):
        i = next(draws)
        # adding +0.0 turns -0.0 into +0.0, as a one-row mean's sum does
        return model.grad_rows(w, X[i:i + 1], y[i:i + 1])[0] + 0.0

    return _descent(grad_fn, lambda t: 1, state, stop, record_every)


def svrg_run(model, dataset, state, stop, rng, record_every=1):
    """Variance-reduced stochastic descent: full-gradient snapshots (n
    evaluations each) anchor inner loops of max(1, n // 2) single-sample
    corrected steps (1 evaluation each), repeated until the budget or
    iteration cap.

    A snapshot is charged together with the first inner step it anchors,
    so the budget never pays for a snapshot that no step uses.  Data is
    checked once at entry.  Each snapshot also builds every row at its
    weights in one ``model.grad_rows`` call over n one-row items, each with
    the bits of its own one-row call; an inner step evaluates its row at
    the iterate and reads the snapshot's.  Inner rows are drawn as in
    ``sgd_run``, from a buffered stream of scalar draws.
    """
    X, y = row_arrays(model, dataset)
    n = dataset.n
    draws = _row_draws(rng, n)
    inner_len = max(1, n // 2)
    snap = {}

    def epoch_start(t):
        return t % inner_len == 0

    def grad_fn(w, t):
        if epoch_start(t):
            _, G = loss_and_grad_rows(model.with_weights(w), dataset)
            snap["grad"] = G.mean(axis=0)
            snap["rows"] = model.grad_rows(w, X[:, None, :], y[:, None])[:, 0]
        i = next(draws)
        return model.grad_rows(w, X[i:i + 1], y[i:i + 1])[0] - snap["rows"][i] + snap["grad"]

    return _descent(grad_fn, lambda t: n + 1 if epoch_start(t) else 1, state, stop,
                    record_every)


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


def median_of_means_gd_run(model, dataset, partitions, state, stop, record_every=1):
    """Descent on geometric-median-aggregated block-mean gradients.

    Rows are split into ``partitions`` equal blocks of q = n // partitions
    rows (remainder rows joining the last block); each step takes the means
    of the first partitions - 1 blocks from one (partitions - 1, q, d)
    reshape of the gradient rows, the last block's mean on its own, and
    aggregates the block means by geometric median.
    """
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
        return geometric_median(means)

    return _descent(grad_fn, lambda t: n, state, stop, record_every)
