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
``loss_and_grad_rows``.  The median-of-means aggregate, ``geometric_median``,
takes safeguarded Newton steps, in the points' affine hull when there are no
more points than coordinates, each step's median starting from the last
one shifted by the change in the block means' coordinate mean.
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


# an iterate within this distance of a point, times 1 + max |point|, meets it
_COINCIDENT = 1e-10
# points within this distance of a line, times 1 + max |point|, lie on it
_COLLINEAR = 1e-13
# points past this magnitude, whose squared distances could overflow, are
# solved scaled down
_RESCALE = 1e150


def _offsets(y, YT):
    """The offsets y - p (r, k) of an iterate y from the points, the columns
    of YT, and their lengths."""
    diff = y[:, None] - YT
    return diff, np.sqrt(np.add.reduce(diff * diff, axis=0))


def _gain(move, old, new):
    """f(y + move) - f(y) from the offsets ``old`` of y and ``new`` of
    y + move, summed as the terms |y + move - p| - |y - p| =
    move . (2 y + move - 2 p) / (|y + move - p| + |y - p|), each exact to
    rounding of its own size where the difference of the two sums would
    cancel."""
    (diff, dist), (diff_new, dist_new) = old, new
    return float(np.add.reduce((move @ (diff + diff_new)) / (dist + dist_new)))


def _newton_step(s, M, g):
    """The solution of (s I - M) x = g, NaN where that matrix is singular; a
    2 x 2 system is solved by hand, where numpy's solver would cost more
    than the rest of the step."""
    if M.shape[0] == 2:
        (m00, m01), (_, m11) = M.tolist()
        a, b, c = s - m00, -m01, s - m11
        det = a * c - b * b
        if not det > 0.0:
            return np.full(2, np.nan)
        g0, g1 = g.tolist()
        return np.array([(c * g0 - b * g1) / det, (a * g1 - b * g0) / det])
    try:
        return np.linalg.solve(s * np.eye(M.shape[0]) - M, g)
    except np.linalg.LinAlgError:
        return np.full(g.shape, np.nan)


def _is_vertex(P, j, near):
    """Kuhn's test: the point P[j] is the geometric median of the rows of P
    when the pull of the other points, the sum of their unit vectors from
    P[j], is no longer than the number of rows equal to P[j].  Rows within
    ``near`` of P[j] count as equal to it, as an iterate meets them there;
    the test is exact where no row is that near without being equal."""
    diff = P - P[j]
    dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
    apart = dist > near
    pull = np.add.reduce(diff[apart] / dist[apart, None], axis=0)
    return math.sqrt(pull.dot(pull)) <= P.shape[0] - int(apart.sum())


def _line_positions(YT, scale):
    """Positions along a line through the points, the columns of YT (r, k),
    or None when some point lies off it."""
    Q = YT - YT[:, :1]
    far = np.add.reduce(Q * Q, axis=0)
    i = int(far.argmax())
    if far[i] == 0.0:
        return far
    u = Q[:, i] / math.sqrt(far[i])
    t = u @ Q
    off = Q - u[:, None] * t
    if np.add.reduce(off * off, axis=0).max() > (_COLLINEAR * scale) ** 2:
        return None
    return t


def _line_median(P, t):
    """The median of the rows of P, which lie on a line at positions t: the
    middle row, or the midpoint of the middle two."""
    order = np.argsort(t, kind="stable")
    k = t.size
    b = P[order[k // 2]]
    if k % 2:
        return b.copy()
    a = P[order[k // 2 - 1]]
    return b.copy() if np.array_equal(a, b) else 0.5 * (a + b)


def _median_steps(P, YT, y, scale, tol, max_iters, lift, stats):
    """The steps of ``geometric_median`` from y, in the coordinates of YT
    (r, k), whose columns are the points P (k, d) in an orthonormal frame;
    ``lift`` maps coordinates to a (d,) point.  Counts its steps in
    ``stats``."""
    near, small = _COINCIDENT * scale, tol * scale
    tested = set()

    def vertex(j):
        """Whether P[j] passes Kuhn's test, run once per point."""
        if j in tested:
            return False
        tested.add(j)
        return _is_vertex(P, j, near)

    diff, dist = _offsets(y, YT)
    j = int(dist.argmin())
    if dist[j] <= near and vertex(j):
        return P[j].copy()
    line_tested = False
    for _ in range(max_iters):
        stats["iterations"] += 1
        new = None  # the offsets of y + move, once taken
        if dist[j] <= near:
            # the iterate meets a point that is not the median: the others'
            # Weiszfeld point, damped by the multiplicity
            meet = dist <= near
            eta = int(meet.sum())
            inv = 1.0 / dist[~meet]
            pull = diff[:, ~meet] @ inv
            r = math.sqrt(pull.dot(pull))
            if r <= eta:
                return lift(y)
            move = (1.0 - eta / r) * ((YT[:, ~meet] @ inv) / inv.sum() - y)
            stats["weiszfeld_steps"] += 1
        else:
            inv = 1.0 / dist
            U = diff * inv
            move = -_newton_step(float(np.add.reduce(inv)), (U * inv) @ U.T,
                                 np.add.reduce(U, axis=1))
            if math.sqrt(move.dot(move)) <= small:
                return lift(y + move)
            new = _offsets(y + move, YT)
            if not _gain(move, (diff, dist), new) < 0.0:
                if not line_tested:
                    line_tested = True
                    t = _line_positions(YT, scale)
                    if t is not None:
                        return _line_median(P, t)
                if vertex(j):
                    return P[j].copy()
                move = (YT @ inv) / inv.sum() - y
                stats["weiszfeld_steps"] += 1
                new = None
        y = y + move
        diff, dist = _offsets(y, YT) if new is None else new
        length = math.sqrt(move.dot(move))
        j = int(dist.argmin())
        if dist[j] <= max(length, near) and vertex(j):
            return P[j].copy()
        if length <= small:
            return lift(y)
    stats["capped"] = True
    return lift(y)


def geometric_median(points, tol=1e-10, max_iters=1000, start=None, *, info=None):
    """Point minimizing the sum of Euclidean distances to ``points`` (k, d).

    Safeguarded Newton steps on the objective f(y) = sum_i |y - p_i|, whose
    Hessian is sum_i (I - u_i u_i^T) / |y - p_i| with u_i the unit vector
    from p_i to y, from the coordinate mean or from ``start``, a (d,) guess
    (ignored past ``_RESCALE`` in magnitude or when not finite).  When
    k <= d the steps are taken in the coordinates of an orthonormal basis
    of the points' affine hull, where the median lies.  A Newton point that
    does not lower f is replaced by a Weiszfeld step (Weiszfeld 1937), which
    does.  Iteration stops when a step moves no more than
    tol (1 + max |point|), or after ``max_iters`` steps.

    A data point is the median when the pull of the other points is no
    longer than its multiplicity (Kuhn 1973), points within ``_COINCIDENT``
    (1 + max |point|) of it counting as copies.  The point nearest the
    iterate is tested, and returned exactly when it passes, once the
    iterate comes within one step or ``_COINCIDENT`` (1 + max |point|) of
    it, or a Newton point is refused; each point is tested at most once.
    An iterate that meets a point that fails takes the others' Weiszfeld
    step damped by the point's multiplicity (Vardi & Zhang 2000), and stops
    where their pull is no larger than it.  Points on a line (two points,
    one column, or a collinear set, tested when a Newton point is refused)
    return their middle point, or the midpoint of the middle two.  One
    point returns a copy of itself; points that are not all finite return
    their coordinate mean at once, which is not finite either.  Finite
    points past ``_RESCALE`` in magnitude, whose squared distances could
    overflow, are solved divided by 1 + max |point|, and that median is
    scaled back.  The points are read as one C-ordered array, so the result
    does not depend on their memory order.

    ``info``, a dict when given, is filled with the steps taken
    (``iterations``), how many were Weiszfeld steps (``weiszfeld_steps``)
    and whether the call stopped at ``max_iters`` (``capped``); the median
    does not depend on it.
    """
    P = np.ascontiguousarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ValueError("points must be a non-empty (k, d) array")
    k, d = P.shape
    stats = {} if info is None else info
    stats.update(iterations=0, weiszfeld_steps=0, capped=False)
    if k == 1:
        return P[0].copy()
    mean = P.mean(axis=0)
    if not np.isfinite(P).all():
        return mean
    scale = 1.0 + float(np.abs(P).max())
    if scale > _RESCALE:
        if start is not None:
            start = np.asarray(start, dtype=float) / scale
        return scale * geometric_median(P / scale, tol, max_iters, start, info=info)
    if k == 2 or d == 1:
        return _line_median(P, P[:, 0] if d == 1 else np.arange(2.0))
    if k <= d:
        # an orthonormal basis B (d, k - 1) of a space holding the hull, and
        # the points' coordinates (k - 1, k) in it from P[0]
        B, R = np.linalg.qr((P[1:] - P[0]).T)
        YT = np.concatenate([np.zeros((k - 1, 1)), R], axis=1)

        def lift(z):
            return P[0] + B @ z

        def frame(x):
            return (x - P[0]) @ B
    else:
        YT = np.ascontiguousarray(P.T)
        lift = frame = np.asarray
    y = frame(mean)
    if start is not None:
        start = np.array(start, dtype=float)  # a copy, never returned as given
        if (np.abs(start) <= _RESCALE).all():
            y = frame(start)
    return _median_steps(P, YT, y, scale, tol, max_iters, lift, stats)


def default_partition_count(n, d):
    """Block count max(2, floor(n / (2 d))) used by the partition baseline."""
    return max(2, n // (2 * d))


def median_of_means_gd_run(model, dataset, partitions, state, stop, record_every=1):
    """Descent on geometric-median-aggregated block-mean gradients.

    Rows are split into ``partitions`` equal blocks of q = n // partitions
    rows (remainder rows joining the last block); each step takes the means
    of the first partitions - 1 blocks from one (partitions - 1, q, d)
    reshape of the gradient rows, the last block's mean on its own, and
    aggregates the block means by ``geometric_median``.  From the second
    step on, the median starts from the last step's median shifted by the
    change in the block means' coordinate mean.  The steps whose median
    took a Weiszfeld step are tallied in the trajectory's
    ``diagnostics["median_fallbacks"]``, and those whose median stopped at
    its iteration cap in ``diagnostics["median_capped"]``.
    """
    n = dataset.n
    partitions = int(partitions)
    if partitions < 2:
        raise ValueError("need at least 2 partitions")
    if n < partitions:
        raise ValueError("more partitions than observations")
    q = n // partitions
    head = (partitions - 1) * q
    last = []  # the last step's median and block-means' coordinate mean
    tally = {"median_fallbacks": 0, "median_capped": 0}

    def grad_fn(w, t):
        _, G = loss_and_grad_rows(model.with_weights(w), dataset)
        means = np.vstack([G[:head].reshape(partitions - 1, q, -1).mean(axis=1),
                           G[head:].mean(axis=0)])
        centre = means.mean(axis=0)
        start = last[0] + (centre - last[1]) if last else None
        info = {}
        median = geometric_median(means, start=start, info=info)
        last[:] = median, centre
        tally["median_fallbacks"] += info["weiszfeld_steps"] > 0
        tally["median_capped"] += info["capped"]
        return median

    traj = _descent(grad_fn, lambda t: n, state, stop, record_every)
    traj.diagnostics.update(tally)
    return traj
