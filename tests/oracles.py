"""Independent verification oracles shared by the test suite.

The ``*_reference`` formulas are the loss rho with its dilogarithm closed
form and the per-kind psi, psi', chi and chi' expressions, written out
separately; the library keeps only the fused kernel ``psi_dpsi`` and
``chi``, which must match them bit for bit, and the dispersion residual of
``rescale_columns``, which reads only the means of w = 1/(1+u^2) and w^2
and must match their means within a few ulp.  Everything here but the
coverage check, the ``*_reference_run`` descents and the
``*_columns_reference`` solvers avoids the library's solvers on purpose:
brute-force minimization, quadrature, finite differences and closed forms
are the reference implementations the fast paths are checked against.
``concentration_check`` measures how often the location estimate of
``robust_gradient`` breaks its deviation bound, and
``concentration_pipeline`` takes the same estimates stage by stage, which
pins how the solver stages compose; the reference runs drive the library's
descent loop with the gradient steps as first written, so a trajectory
comparison checks only the steps: the stochastic steps build a Dataset and
a model per step, and the full-batch ones build each trial's rows alone and
``np.hstack`` them for the robust solve.  The ``*_columns_reference``
solvers are the column solvers with their root loop as first written, for
bit comparisons.  ``CurvedQuadratic`` is a quadratic risk with a curvature
other than the identity, and ``result_rows`` an experiment's rows as
``results.csv`` holds them.  ``CountingNumpy`` counts the numpy calls a
module makes, and ``counting_solve_columns`` the residual evaluations of
the root solves, for tests that pin them.
"""

import inspect
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

import robustgd.datagen as datagen
import robustgd.mest as mest
from robustgd.datagen import noise_sd
from robustgd.mest import (
    DEFAULT_FP,
    GEMAN_C,
    SIGMA_FLOOR,
    ChiFunction,
    FixedPointSettings,
    RhoFunction,
    _BISECT_STEPS,
    _WIDTH,
    _open_rows,
    _row_medians,
    confidence_scale,
    locate_columns,
    rescale_columns,
)
from robustgd.models import Dataset, loss_and_grad_rows
from robustgd.optim import _as_batch, _batch_descent, _descent
from robustgd.robust_grad import RobustConfig, robust_gradient

LD = np.longdouble
_PI_2 = LD("1.5707963267948966192313216916398")
_CATALAN2 = LD("1.8319311883544380301092070298648")  # 2 * Catalan

# Catalan's constant, used by the closed form of the Gudermannian antiderivative.
_CATALAN = 0.915965594177219015
_LOG2 = np.log(2.0)


def rho_reference(kind, u):
    """The even loss rho of ``RhoFunction(kind)``, normalized so that
    rho(u) ~ u^2/2 near zero."""
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    if kind == "gudermannian":
        return _gudermannian_rho(a)
    if kind == "log_cosh":
        # log cosh(u) = |u| - log 2 + log1p(exp(-2|u|)), overflow-safe
        return a - _LOG2 + np.log1p(np.exp(-2.0 * a))
    if kind == "pseudo_huber":
        return 2.0 * (np.sqrt(1.0 + 0.5 * u * u) - 1.0)
    return 0.5 * u * u


def _gudermannian_rho(a):
    """Antiderivative of 2*atan(exp(u)) - pi/2 at |u| = a >= 0.

    For moderate a this is 2*Im(Li2(i e^a)) - 2G - (pi/2) a with G Catalan's
    constant; for large a the dilogarithm's tail is below double precision and
    the linear asymptote (pi/2) a - 2G + 2 e^-a is exact to machine accuracy.
    """
    scalar = np.ndim(a) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    out = np.empty_like(a)
    small = a <= 30.0
    if np.any(small):
        li2 = special.spence(1.0 - 1j * np.exp(a[small]))
        out[small] = 2.0 * li2.imag - 2.0 * _CATALAN - 0.5 * np.pi * a[small]
    if np.any(~small):
        big = a[~small]
        out[~small] = 0.5 * np.pi * big - 2.0 * _CATALAN + 2.0 * np.exp(-big)
    return float(out[0]) if scalar else out


def psi_reference(kind, u):
    """psi = rho' of ``RhoFunction(kind)``, one expression per kind."""
    u = np.asarray(u, dtype=float)
    if kind == "gudermannian":
        # gd(u); sinh overflows to +-inf past |u| ~ 710, where atan gives +-pi/2
        return np.arctan(np.sinh(u))
    if kind == "log_cosh":
        return np.tanh(u)
    if kind == "pseudo_huber":
        t = 1.0 + 0.5 * u * u
        # the bound sign(u) sqrt(2) where t overflows
        return np.where(t == np.inf, np.copysign(np.sqrt(2.0), u), u / np.sqrt(t))
    return u


def dpsi_reference(kind, u):
    """psi' of ``RhoFunction(kind)``, one expression per kind."""
    u = np.asarray(u, dtype=float)
    if kind == "gudermannian":
        return 1.0 / np.cosh(u)  # sech(u); 0 where cosh overflows
    if kind == "log_cosh":
        e = np.exp(-np.abs(u))
        s = 2.0 * e / (1.0 + e * e)
        return s * s
    if kind == "pseudo_huber":
        return (1.0 + 0.5 * u * u) ** -1.5
    return np.ones_like(u)


def chi_reference(u):
    """The dispersion criterion chi(u) = u^2/(1+u^2) - c of ``ChiFunction``,
    with c = ``GEMAN_C``."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        t = u * u
        return 1.0 - 1.0 / (1.0 + t) - GEMAN_C


def dchi_reference(u):
    """chi'(u) = 2u / (1+u^2)^2."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        w = 1.0 / (1.0 + u * u)
        return 2.0 * u * w * w


def golden_section_minimize(f, a, b, tol=1e-12):
    """Golden-section search for the minimizer of a unimodal f on [a, b]."""
    if a == b:
        return a
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _euler_series_coeffs(terms=34):
    # rho(u) = sum_k E_{2k} u^{2k+2} / ((2k+2) (2k+1)!) for |u| < pi/2,
    # with E_{2k} the Euler numbers
    eul = special.euler(2 * terms)
    coeffs = []
    fact = LD(1)  # (2k+1)!
    for k in range(terms):
        if k > 0:
            fact = fact * LD(2 * k) * LD(2 * k + 1)
        coeffs.append(LD(eul[2 * k]) / (LD(2 * k + 2) * fact))
    return coeffs


_RHO_COEFFS = _euler_series_coeffs()


def gudermannian_psi_ld(u):
    """gd(u) = atan(sinh u) = 2 atan(e^u) - pi/2 in extended precision;
    sinh overflows to +-inf past |u| ~ 11356, where atan gives +-pi/2."""
    with np.errstate(over="ignore"):
        return np.arctan(np.sinh(np.asarray(u, dtype=LD)))


def gudermannian_rho_ld(u):
    """Extended-precision antiderivative of the bounded influence function,
    built from series completely unlike the library's closed form: a Taylor
    series in Euler numbers near zero, and the exponential tail series
    rho(u) = (pi/2)|u| - 2G + 2 sum_m (-1)^m e^{-(2m+1)|u|} / (2m+1)^2
    elsewhere."""
    a = np.abs(np.asarray(u, dtype=LD))
    out = np.empty_like(a)
    small = a <= LD("0.75")
    if np.any(small):
        z = a[small] * a[small]
        acc = np.zeros_like(z)
        for c in reversed(_RHO_COEFFS):
            acc = acc * z + c
        out[small] = acc * z
    if np.any(~small):
        b = a[~small]
        q = np.exp(-b)
        q2 = q * q
        acc = np.zeros_like(b)
        power = q.copy()
        for m in range(48):
            term = power / LD((2 * m + 1) ** 2)
            acc = acc + (term if m % 2 == 0 else -term)
            power = power * q2
        out[~small] = _PI_2 * b - _CATALAN2 + 2 * acc
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = _GL_NODES.astype(LD)
_GL_WEIGHTS = _GL_WEIGHTS.astype(LD)


def _anchored_objective(x_ld, s_ld, anchor):
    """theta -> sum_i [rho((x_i-theta)/s) - rho((x_i-anchor)/s)] via
    per-term Gauss-Legendre integration of psi over the tiny intervals; the
    shift keeps rounding noise far below the objective's curvature.

    The (identical) interval length is computed once from anchor - theta
    directly: deriving it from the per-point integration limits would cancel
    catastrophically for points far from the pivot.
    """
    a_nodes = (x_ld - anchor) / s_ld

    def g(theta):
        delta = (anchor - LD(theta)) / s_ld  # signed interval length
        half = 0.5 * delta
        mid = a_nodes + half
        t = mid[:, None] + half * _GL_NODES[None, :]
        vals = (gudermannian_psi_ld(t) * _GL_WEIGHTS[None, :]).sum(axis=1)
        return float(half * vals.sum())

    return g


def locate_oracle(x, s, rho, tol=1e-12):
    """Brute-force location estimate: golden-section minimization of
    sum(rho((x - t)/s)) over the data range.

    For the bounded influence kind the objective is evaluated in extended
    precision (series formulas above) and the search is refined once around
    the first-stage minimizer with an anchored difference objective;
    otherwise the double-precision objective noise (~ spread * sqrt(eps))
    would drown tolerances near 1e-8.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo
    if rho.kind != "gudermannian":
        return golden_section_minimize(
            lambda t: float(rho_reference(rho.kind, (x - t) / s).sum()), lo, hi,
            tol=tol)
    x_ld = x.astype(LD)
    s_ld = LD(s)

    def f(theta):
        return float(gudermannian_rho_ld((x_ld - LD(theta)) / s_ld).sum())

    stage1 = golden_section_minimize(f, lo, hi, tol=max(tol, 1e-10))
    pad = 1e-5 * (1.0 + abs(stage1))
    g = _anchored_objective(x_ld, s_ld, LD(stage1))
    return golden_section_minimize(g, max(lo, stage1 - pad),
                                   min(hi, stage1 + pad), tol=min(tol, 1e-12))


def finite_difference_gradient(f, w, h=1e-6):
    """Central-difference gradient of a scalar function at w."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def quadratic_descent_iterates(sigma, w_star, w0, alpha, T):
    """Closed-form gradient-descent trajectory on the quadratic with
    curvature ``sigma`` (None = identity): w_t - w* = (I - alpha sigma)^t
    (w0 - w*)."""
    d = len(w0)
    A = np.eye(d) if sigma is None else np.asarray(sigma, dtype=float)
    M = np.eye(d) - alpha * A
    out = [np.asarray(w0, dtype=float).copy()]
    v = np.asarray(w0, dtype=float) - w_star
    for _ in range(T):
        v = M @ v
        out.append(w_star + v)
    return np.asarray(out)


def geometric_median_objective(m, points):
    """Sum of Euclidean distances from m to the point set."""
    return float(np.linalg.norm(np.asarray(points, dtype=float) - m, axis=1).sum())


def make_spd(d, rng, kappa=1.0, lam=4.0):
    """Random symmetric positive-definite matrix with eigenvalues spread
    linearly over [kappa, lam] (both attained)."""
    if not 0 < kappa <= lam:
        raise ValueError("need 0 < kappa <= lam")
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigs = np.linspace(kappa, lam, d)
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


class CurvedQuadratic:
    """The quadratic risk (w - w*)' sigma (w - w*) / 2 whose curvature
    sigma is ``make_spd(d, rng, kappa, lam)`` and whose minimum w* is drawn
    from ``rng`` after it: ``SyntheticRisk``'s exact gradient and excess
    risk for a curvature other than the identity."""

    def __init__(self, d, rng, kappa, lam):
        self.sigma = make_spd(d, rng, kappa=kappa, lam=lam)
        self.w_star = rng.normal(size=d)

    def exact_gradient(self, w):
        return self.sigma @ (np.asarray(w, dtype=float) - self.w_star)

    def exact_excess_risk(self, w):
        v = np.atleast_2d(np.asarray(w, dtype=float) - self.w_star)
        out = 0.5 * ((v @ self.sigma) * v).sum(axis=1)
        return float(out[0]) if np.ndim(w) == 1 else out


def has_finite_sd(spec):
    """Whether the noise family's standard deviation is finite."""
    return np.isfinite(noise_sd(spec))


def signal_noise_ratio(w_star, noise):
    """||w*||^2 over the noise variance; 0 when the variance diverges."""
    sd = noise_sd(noise)
    v = sd * sd
    if not np.isfinite(v):
        return 0.0
    if v == 0:
        return np.inf
    return float(w_star @ w_star / v)


def logistic_rows_oracle(model, dataset):
    """Reference per-row logistic losses and gradient rows, written the
    direct way: scores stacked with the zero reference column,
    ``scipy.special.logsumexp``, and a dense one-hot matrix."""
    X, y = dataset.inputs, np.asarray(dataset.targets)
    n, k = X.shape[0], model.classes - 1
    full = np.hstack([X @ model.weights.reshape(k, -1).T, np.zeros((n, 1))])
    lse = special.logsumexp(full, axis=1)
    losses = lse - full[np.arange(n), y]
    p = np.exp(full - lse[:, None])[:, :k]
    ind = np.zeros_like(p)
    rows = y < k
    ind[np.flatnonzero(rows), y[rows]] = 1.0
    G = ((p - ind)[:, :, None] * X[:, None, :]).reshape(n, model.dim)
    a = model.reg_strength
    if a > 0:
        losses = losses + a * model.weights @ model.weights
        G = G + 2.0 * a * model.weights
    return losses, G


class CountingNumpy:
    """numpy as seen through a module's ``np``: every call of a numpy
    function, or of one of its methods (``np.add.reduce``), counts.  The
    counts are call sites, not work: array operators (``hc - lc``,
    ``f > 0.0``) and array methods (``.nonzero()``, ``.any()``, ``.sum()``)
    do not go through ``np`` and are not counted, so a count under-reads a
    cut in such bookkeeping, and swapping a method for an ``np`` function
    of the same cost raises it."""

    def __init__(self, counts, target=np, name="np"):
        self._counts, self._target, self._name = counts, target, name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if callable(value):
            value = CountingNumpy(self._counts, value, attr)
        setattr(self, attr, value)  # later look-ups skip __getattr__
        return value

    def __call__(self, *args, **kwargs):
        self._counts[self._name] += 1
        return self._target(*args, **kwargs)


def counting_solve_columns(log):
    """A stand-in for ``mest._solve_columns`` that appends (solver, open
    columns, rows) to ``log`` at each residual evaluation, where solver is
    the function whose residual closure it is: "rescale_columns" or
    "locate_columns"."""
    solve = mest._solve_columns

    def counted(residual, *args):
        solver = residual.__qualname__.partition(".")[0]
        rows = int(inspect.getclosurevars(residual).nonlocals["n"])

        def counted_residual(z, cols):
            log.append((solver, cols.size, rows))
            return residual(z, cols)

        return solve(counted_residual, *args)

    return counted


def geometric_median_oracle(points, restarts=6, seed=0):
    """Nelder-Mead-based reference for the geometric median, restarted from
    the centroid, the coordinate-wise median and every data point."""
    P = np.asarray(points, dtype=float)
    starts = [P.mean(axis=0), np.median(P, axis=0)] + [p for p in P]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        starts.append(P.mean(axis=0) + rng.normal(scale=0.3, size=P.shape[1]))
    best = None
    best_val = np.inf
    for s in starts:
        res = optimize.minimize(lambda m: geometric_median_objective(m, P), s,
                                method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12,
                                         "maxiter": 20000, "maxfev": 20000})
        if res.fun < best_val:
            best_val = res.fun
            best = res.x
    return best, best_val


def weiszfeld_reference(points, tol=1e-10, max_iters=1000):
    """``optim.geometric_median`` as first written: ``np.linalg.norm`` for
    every distance and boolean-mask copies of the non-coincident points on
    every iteration.  The library must match it bit for bit on finite
    C-ordered points."""
    P = np.asarray(points, dtype=float)
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


def block_means_reference(G, partitions):
    """Block means of the rows of G as first written, one slice per block:
    ``partitions`` blocks of n // partitions rows, the remainder rows
    joining the last."""
    n = G.shape[0]
    q = n // partitions
    bounds = [(b * q, (b + 1) * q if b < partitions - 1 else n)
              for b in range(partitions)]
    return np.stack([G[lo:hi].mean(axis=0) for lo, hi in bounds])


def result_rows(result):
    """The long-format rows (experiment, method, trial, step, metric,
    value) of an ``ExperimentResult``, in ``trial_tables()`` order: the rows
    ``results.csv`` holds below its header."""
    out = []
    task = result.config.task
    for tr, keys, names, columns, terminal in result.trial_tables():
        for i, key in enumerate(keys):
            out += [(task, tr.method, tr.trial, key, m, col[i])
                    for m, col in zip(names, columns)]
        out += [(task, tr.method, tr.trial, *row) for row in terminal]
    return out


@dataclass
class KnownSampler:
    """Sampler with analytically known mean and variance, for coverage
    checks of the location estimate."""

    draw: callable
    mean: float
    var: float

    @classmethod
    def from_noise(cls, spec):
        sd = noise_sd(spec)
        if not np.isfinite(sd):
            raise ValueError("coverage checks need a finite-variance sampler")
        return cls(draw=lambda rng, size: datagen.sample_noise(spec, rng, size),
                   mean=0.0, var=sd * sd)


@dataclass
class ConcentrationResult:
    violation_rate: float
    trials: int
    skipped: bool
    precondition_value: float
    mean_bound: float


def concentration_check(sampler, n, delta, trials, C=2.0, seed=0):
    """Empirical coverage of the location-estimate deviation bound.

    Each trial draws n points, runs ``robust_gradient`` on them as one
    column (mean pivot, dispersion, confidence scale, locate) and tests
    |theta_hat - mean| <= 2 (C var / s + s log(2/delta) / n).
    When the sample-size sufficiency condition
    (C log(2/delta)/n)(1 + C) <= 1/4 fails (variance proxy for the
    dispersion estimate), the check is skipped and flagged: the bound is not
    guaranteed there.
    """
    precondition = (C * np.log(2.0 / delta) / n) * (1.0 + C)
    if precondition > 0.25:
        return ConcentrationResult(float("nan"), 0, True, precondition, float("nan"))
    cfg = RobustConfig(delta=delta)
    rng = np.random.default_rng(seed)
    violations = 0
    bounds = []
    log_term = np.log(2.0 / delta)
    for _ in range(trials):
        theta, info = robust_gradient(sampler.draw(rng, n)[:, None], cfg)
        s = info["s"][0]
        bound = 2.0 * (C * sampler.var / s + s * log_term / n)
        bounds.append(bound)
        if abs(theta[0] - sampler.mean) > bound:
            violations += 1
    return ConcentrationResult(violations / trials, trials, False, precondition,
                               float(np.mean(bounds)))


def concentration_pipeline(sampler, n, delta, trials, C=2.0, seed=0):
    """``concentration_check`` spelled out stage by stage: mean pivot,
    ``rescale_columns``, ``confidence_scale``, ``locate_columns``.  Returns
    (violation_rate, mean_bound)."""
    rho, chi, fp = RhoFunction("gudermannian"), ChiFunction(), FixedPointSettings()
    rng = np.random.default_rng(seed)
    log_term = np.log(2.0 / delta)
    violations, bounds = 0, []
    for _ in range(trials):
        x = sampler.draw(rng, n)[:, None]
        sigma, _ = rescale_columns(x, np.array([x.mean()]), chi, fp)
        s = confidence_scale(sigma, n, delta)
        theta, _ = locate_columns(x, np.asarray(s), rho, fp)
        bound = 2.0 * (C * sampler.var / s[0] + s[0] * log_term / n)
        bounds.append(bound)
        violations += int(abs(theta[0] - sampler.mean) > bound)
    return violations / trials, float(np.mean(bounds))


def _row_subset(dataset, idx):
    # Dataset.subset as first written: a fresh, re-checked Dataset per step
    return Dataset(dataset.inputs[idx], dataset.targets[idx])


def sgd_reference_run(model, dataset, state, stop, rng, batch_size=1):
    """``optim.sgd_run`` with its step as first written: a Dataset of the
    drawn rows and a model at the iterate per step, through
    ``loss_and_grad_rows``."""
    n = dataset.n

    def grad_fn(w, t):
        idx = rng.integers(n, size=batch_size)
        _, G = loss_and_grad_rows(model.with_weights(w), _row_subset(dataset, idx))
        return G.mean(axis=0)

    return _descent(grad_fn, lambda t: batch_size, state, stop, 1)


def svrg_reference_run(model, dataset, state, stop, rng):
    """``optim.svrg_run`` (default inner length) with its step as first
    written: the snapshot kept as a model, and the drawn row as a one-row
    Dataset evaluated through ``loss_and_grad_rows`` at both weights."""
    n = dataset.n
    inner_len = max(1, n // 2)
    snap = {}

    def epoch_start(t):
        return t % inner_len == 0

    def grad_fn(w, t):
        if epoch_start(t):
            snap["model"] = model.with_weights(w.copy())
            _, G = loss_and_grad_rows(snap["model"], dataset)
            snap["grad"] = G.mean(axis=0)
        row = _row_subset(dataset, [int(rng.integers(n))])
        _, gi = loss_and_grad_rows(model.with_weights(w), row)
        _, gi_snap = loss_and_grad_rows(snap["model"], row)
        return gi[0] - gi_snap[0] + snap["grad"]

    return _descent(grad_fn, lambda t: n + 1 if epoch_start(t) else 1, state, stop, 1)


def stacked_rows_reference(model, datasets, W):
    """The full-batch rows of T trials as the stacked descents first built
    them: trial k's rows from a model at ``W[k]`` through
    ``loss_and_grad_rows``, a mean per block, and the blocks ``np.hstack``ed
    into one (n, T d) sample.  Returns (blocks, means, sample)."""
    blocks = [loss_and_grad_rows(model.with_weights(w), ds)[1]
              for w, ds in zip(W, datasets)]
    return blocks, np.array([G.mean(axis=0) for G in blocks]), np.hstack(blocks)


def robust_descent_reference(rows, cfg, state, stop, record_every, cost, warm=False):
    """``optim._robust_descent`` with its per-trial glue as first written:
    ``rows(k, w)`` gives trial k's (n, d) rows alone, the row means are
    taken block by block, and the blocks of the trials whose mean is finite
    are ``np.hstack``ed into one (n, T d) sample for ``robust_gradient``.
    ``warm`` keeps each trial's (theta, log sigma) of its last three steps
    in a dict keyed by trial, a list oldest first, and starts the trial's
    next solve from their extrapolation: a2 after one step, 2 a2 - a1 after
    two, 3 a2 - 3 a1 + a0 after three or more, sigma at the exp of the
    extrapolated log sigma."""
    diags = [{"locate_fallbacks": 0, "scale_fallbacks": 0} for _ in state.w]
    last = {}

    def extrapolated(k):
        steps = last[k]
        if len(steps) == 1:
            return steps[0]
        if len(steps) == 2:
            a1, a2 = steps
            return a2 + (a2 - a1)
        a0, a1, a2 = steps
        return 3.0 * (a2 - a1) + a0

    def grad_fn(W, t, live):
        blocks = [rows(k, w) for k, w in zip(live, W)]
        g = np.array([G.mean(axis=0) for G in blocks])
        ok = np.flatnonzero(np.isfinite(g).all(axis=1))
        if not ok.size:
            return g
        D = blocks[ok[0]] if ok.size == 1 else np.hstack([blocks[i] for i in ok])
        start = None
        if warm and all(live[i] in last for i in ok):
            guess = np.concatenate([extrapolated(live[i]) for i in ok], axis=1)
            start = guess[0], np.exp(guess[1])
        theta, info = robust_gradient(D, cfg, start=start)
        g[ok] = theta.reshape(ok.size, -1)
        if warm:
            d = g.shape[1]
            for j, i in enumerate(ok):
                block = slice(j * d, (j + 1) * d)
                row = np.array([theta[block], np.log(info["sigma"][block])])
                last[live[i]] = last.get(live[i], [])[-2:] + [row]
        for key, mask in (("scale_fallbacks", info["scale_fallback"]),
                          ("locate_fallbacks", info["locate_fallback"])):
            for k, count in zip(live[ok], mask.reshape(ok.size, -1).sum(axis=1)):
                diags[k][key] += int(count)
        return g

    trajs = _batch_descent(grad_fn, lambda t: cost, state, stop, record_every)
    for traj, diag in zip(trajs, diags):
        traj.diagnostics.update(diag)
    return trajs


def trial_rows_reference(model, datasets):
    """``rows(k, w)`` as first written: a model at the iterate per trial and
    step, through ``loss_and_grad_rows``."""
    return lambda k, w: loss_and_grad_rows(model.with_weights(w), datasets[k])[1]


def rgd_stacked_reference_run(model, datasets, cfg, state, stop, record_every=1):
    """``optim.rgd_stacked_run`` with its steps as first written."""
    return robust_descent_reference(trial_rows_reference(model, datasets), cfg,
                                    state, stop, record_every, datasets[0].n, warm=True)


def erm_gd_stacked_reference_run(model, datasets, state, stop, record_every=1):
    """``optim.erm_gd_stacked_run`` with its steps as first written."""
    rows = trial_rows_reference(model, datasets)

    def grad_fn(W, t, live):
        return np.array([rows(k, w).mean(axis=0) for k, w in zip(live, W)])

    return _batch_descent(grad_fn, lambda t: datasets[0].n, state, stop,
                          record_every)


def rgd_mb_reference_run(model, dataset, cfg, state, stop, rng, batch_size):
    """``optim.rgd_run(batch_size=...)`` with its rows as first written:
    a Dataset of the drawn rows and a model at the iterate per step."""
    n = dataset.n

    def rows(k, w):
        idx = rng.choice(n, size=batch_size, replace=False)
        return loss_and_grad_rows(model.with_weights(w), _row_subset(dataset, idx))[1]

    traj, = robust_descent_reference(rows, cfg, _as_batch(state), stop, 1, batch_size)
    return traj


def solve_columns_reference(residual, z, lo, hi, fp):
    """``mest._solve_columns`` as first written: every step gathers the open
    columns' points and brackets from the full z, lo and hi arrays and
    scatters the brackets back, the Newton step runs in its own
    ``np.errstate`` block, and a closing column takes its Newton step where
    it lies strictly inside the shrunk bracket."""
    fell_back = np.zeros(z.shape, dtype=bool)
    cols = np.arange(z.size)
    for it in range(fp.max_iters + 1 + _BISECT_STEPS):
        lc, hc = lo[cols], hi[cols]
        cols = cols[hc - lc > _WIDTH * np.maximum(np.abs(lc), np.abs(hc))]
        if it == fp.max_iters + 1:
            fell_back[cols] = True
        if cols.size == 0:
            break
        zc = z[cols]
        f, slope = residual(zc, cols)
        lc = lo[cols] = np.where(f > 0, zc, lo[cols])
        hc = hi[cols] = np.where(f < 0, zc, hi[cols])
        step = 0.5 * (lc + hc)
        if it < fp.max_iters:
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = zc - f / slope
            inside = (lc < newton) & (newton < hc)
            step = np.where(inside, newton, step)
        still_open = np.abs(f) > fp.rel_tolerance
        if it < fp.max_iters:
            closing = ~still_open & inside
            z[cols[closing]] = newton[closing]
        cols = cols[still_open]
        z[cols] = step[still_open]
    return z, fell_back


def _clip_start(start, lo, hi):
    """start clipped into [lo, hi], a nan start at lo."""
    start = np.broadcast_to(start, lo.shape)
    return np.where(np.isnan(start), lo, np.clip(start, lo, hi))


def locate_columns_reference(x, s, rho, fp=DEFAULT_FP, start=None):
    """``mest.locate_columns`` as first written: its residual takes means
    with ``ndarray.mean`` (the slope divides its sum by -n s in one step),
    a start is clipped with ``np.clip`` (a nan start at the lower end), and
    it runs ``solve_columns_reference``."""
    s = np.broadcast_to(np.asarray(s, dtype=float), x.shape[1:])
    xt = np.ascontiguousarray(x.T)
    ub, pb, dpb = (np.empty(xt.shape) for _ in range(3))

    def residual(theta, cols):
        m, sc = cols.size, s[cols]
        u = np.subtract(_open_rows(xt, cols, ub[:m]), theta[:, None], out=ub[:m])
        np.divide(u, sc[:, None], out=u)
        psi, dpsi = rho.psi_dpsi(u, pb[:m], dpb[:m])
        return psi.mean(axis=1), dpsi.sum(axis=1) / (-x.shape[0] * sc)

    lo, hi = xt.min(axis=1), xt.max(axis=1)
    z = _row_medians(xt, ub) if start is None else _clip_start(start, lo, hi)
    return solve_columns_reference(residual, z, lo, hi, fp)


def rescale_columns_reference(x, pivots, chi, fp=DEFAULT_FP, start=None):
    """``mest.rescale_columns`` as first written, as
    ``locate_columns_reference`` is ``locate_columns``; a start is a guess
    of sigma, taken in log."""
    pivots = np.broadcast_to(np.asarray(pivots, dtype=float), x.shape[1:])
    rt, ub = np.empty(x.shape[::-1]), np.empty(x.shape[::-1])
    floor = SIGMA_FLOOR * (1.0 + np.abs(pivots))
    lo = np.log(floor)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.subtract(x.T, pivots[:, None], out=rt)
        a = np.abs(rt, out=ub)
        hi = np.maximum(np.log(2.0) + np.log(a.max(axis=1)), lo)
        start = np.log(a.mean(axis=1) if start is None else start)
    no_root = np.equal(rt, 0.0, out=ub).mean(axis=1) >= 1.0 - chi.c
    hi[no_root] = lo[no_root]

    def residual(z, cols):
        # mean chi = (1 - c) - mean w and its slope 2 (mean w^2 - mean w),
        # with w = 1/(1+u^2)
        m = cols.size
        with np.errstate(over="ignore"):  # u * u past |u| ~ 1.3e154
            u = np.multiply(_open_rows(rt, cols, ub[:m]), np.exp(-z)[:, None],
                            out=ub[:m])
            w = 1.0 / (1.0 + u * u)
        sw = w.mean(axis=1)
        return (1.0 - chi.c) - sw, 2.0 * ((w * w).mean(axis=1) - sw)

    z, fell_back = solve_columns_reference(residual, _clip_start(start, lo, hi), lo, hi,
                                           fp)
    return np.maximum(np.exp(z), floor), fell_back
