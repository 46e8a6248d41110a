"""Scalar M-estimation core: bounded-influence location and dispersion estimates.

The location estimate soft-truncates outliers through a bounded, increasing
influence function psi = rho'; the dispersion estimate is the root of a
centered chi statistic.  Both root equations are monotone and bracketed, so
one vectorised kernel solves them column by column: Newton steps that stay
inside the shrinking bracket, bisection where a step would leave it.
Location is solved in theta, dispersion in log sigma.  Each psi kind and
chi has one formula, a fused kernel that gives a residual evaluation's
value and slope in one call: ``RhoFunction.psi_dpsi`` and
``ChiFunction.chi_udchi``.  ``psi`` and ``chi`` return their first
outputs; the loss rho itself is never evaluated.  Each solve allocates one
buffer set and slices it to the columns still open, and carries those
columns' points and brackets compacted from step to step.
"""

from dataclasses import dataclass

import numpy as np

# Centering constant for the Geman-type chi: E[x^2/(1+x^2)] under a standard
# normal, fixed once by numerical integration (see tests for the re-derivation).
# With this value, unit-variance Gaussian data has dispersion estimate ~= 1.
GEMAN_C = 0.3443204575812013

RHO_KINDS = ("gudermannian", "log_cosh", "pseudo_huber", "quadratic_test_only")

_LOG2 = np.log(2.0)

# relative floor of the dispersion estimate: it is scaled by (1 + |pivot|), so
# degenerate zero-spread columns return a harmless positive value
SIGMA_FLOOR = 1e-12


class RhoFunction:
    """Even loss rho, given by its odd, increasing influence psi = rho'.

    All kinds are normalized so rho(u) ~ u^2/2 near zero.  The three robust
    kinds have bounded psi; ``quadratic_test_only`` has psi(u) = u and exists
    solely to realize the sample-mean reduction in tests and diagnostics.
    The estimators need only psi and psi', so rho itself is not computed.
    """

    def __init__(self, kind="gudermannian"):
        if kind not in RHO_KINDS:
            raise ValueError(f"unknown rho kind: {kind!r}; expected one of {RHO_KINDS}")
        self.kind = kind

    def psi(self, u):
        """Influence psi(u), the first output of ``psi_dpsi``; a scalar u
        gives a numpy scalar."""
        u = np.asarray(u, dtype=float)
        return self.psi_dpsi(u, np.empty_like(u), np.empty_like(u))[0][()]

    def psi_dpsi(self, u, p, dp):
        """(psi(u), psi'(u)) written into the float arrays p and dp.

        Per kind, with e = exp(-|u|): gudermannian
        sign(u) (pi/2 - 2 atan(e)) and sech(u) = 2e / (1 + e^2); log_cosh
        tanh(u) and sech(u)^2; pseudo_huber u / sqrt(1 + u^2/2) and
        (1 + u^2/2)^-1.5; quadratic_test_only u and 1.  The subexpression
        the two share (e, or 1 + u^2/2) is computed once and every
        intermediate lives in the two outputs.  The Gudermannian kind also
        takes sign(u) as one temporary.  u is left unchanged and must not
        share memory with either output.
        """
        if self.kind == "pseudo_huber":
            with np.errstate(over="ignore"):
                np.multiply(0.5, u, out=dp)
                np.multiply(dp, u, out=dp)
            np.add(1.0, dp, out=dp)  # 1 + u^2/2
            np.sqrt(dp, out=p)
            np.divide(u, p, out=p)
            # past |u| ~ 1.9e154, 1 + u^2/2 overflows and u / sqrt(inf) is 0
            # or nan: psi keeps its bound sign(u) sqrt(2) there
            np.copysign(np.sqrt(2.0), u, out=p, where=dp == np.inf)
            np.power(dp, -1.5, out=dp)
            return p, dp
        if self.kind == "quadratic_test_only":
            np.copyto(p, u)
            dp.fill(1.0)
            return p, dp
        # e = exp(-|u|) and sech(u) = 2 (e / (1 + e^2)); doubling is exact,
        # so it has the bits of 2e / (1 + e^2) and e survives in p.  abs and
        # negative, not copysign(u, -1): numpy vectorises only the former
        np.abs(u, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        np.multiply(p, p, out=dp)
        np.add(1.0, dp, out=dp)
        np.divide(p, dp, out=dp)
        np.multiply(2.0, dp, out=dp)
        if self.kind == "log_cosh":
            np.multiply(dp, dp, out=dp)
            np.tanh(u, out=p)
            return p, dp
        np.arctan(p, out=p)
        np.multiply(2.0, p, out=p)
        np.subtract(0.5 * np.pi, p, out=p)
        # not copysign: psi(-0.0) is +0.0
        np.multiply(np.sign(u), p, out=p)
        return p, dp

    def __repr__(self):
        return f"RhoFunction({self.kind!r})"


class ChiFunction:
    """Even dispersion criterion chi(u) = u^2/(1+u^2) - c: negative at 0,
    positive in the tails.

    The root of sum(chi((x_i - pivot)/sigma)) = 0 in sigma is a robust spread
    measure; the centering constant ``c`` (``GEMAN_C``) makes it match the
    standard deviation on Gaussian data.
    """

    c = GEMAN_C

    def chi(self, u):
        """chi(u), the first output of ``chi_udchi``; a scalar u gives a
        numpy scalar."""
        u = np.asarray(u, dtype=float)
        # u * u overflows past |u| ~ 1.3e154; u * dchi(u) is nan at u = +-inf
        with np.errstate(over="ignore", invalid="ignore"):
            return self.chi_udchi(u, np.empty_like(u), np.empty_like(u))[0][()]

    def chi_udchi(self, u, c, d):
        """(chi(u), u chi'(u)) written into the float arrays c and d.

        With w = 1/(1+u^2), computed once: chi(u) = 1 - w - c and
        u chi'(u) = u (2u w w).  Every intermediate lives in the two
        outputs.  u is left unchanged and must not share memory with either
        output.  The kernel sets no floating-point error state: u * u
        overflows past |u| ~ 1.3e154 (to w = 0, chi = 1 - c), so callers
        hold over="ignore" themselves, as ``rescale_columns`` does for its
        whole solve.
        """
        np.multiply(u, u, out=c)
        np.add(1.0, c, out=c)
        np.divide(1.0, c, out=c)  # w
        np.multiply(2.0, u, out=d)
        np.multiply(d, c, out=d)
        np.multiply(d, c, out=d)
        np.multiply(u, d, out=d)
        np.subtract(1.0, c, out=c)
        np.subtract(c, self.c, out=c)
        return c, d


@dataclass
class FixedPointSettings:
    """Stopping controls for the location and dispersion iterations.

    ``max_iters`` caps the Newton steps of each solve; columns still
    unresolved at the cap finish by bisection and are flagged as fallbacks.
    ``rel_tolerance`` bounds the mean residual (the root equation divided by
    n).
    """

    max_iters: int = 50
    rel_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")


DEFAULT_FP = FixedPointSettings()

# cap on the bisection steps that finish columns left open by the Newton phase
_BISECT_STEPS = 200
# relative bracket width at which a root is located to machine precision
_WIDTH = 1e-15


def _check_sample(x, ndim):
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("data must contain at least one observation")
    if not np.isfinite(x).all():
        raise ValueError("data contains non-finite entries")
    if x.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D sample")
    return x


def _solve_columns(residual, z, lo, hi, fp):
    """Per-column roots of decreasing residuals, each bracketed by [lo, hi].

    ``residual(z, cols)`` returns the mean residual of columns ``cols`` at
    points ``z`` and its slope in z.  Each step shrinks the brackets to the
    evaluated points, then takes the Newton step where it lands strictly
    inside and bisects otherwise.  A column is resolved once its residual is
    within ``fp.rel_tolerance`` or its bracket has collapsed; columns still
    open after ``fp.max_iters`` steps finish by bisection and are flagged.
    The open columns' points and brackets travel compacted between steps
    (lo and hi are overwritten), and divide and invalid warnings are off
    for the whole solve, residuals included.  The bisection point halves
    each end before adding, so it stays finite next to +-1.8e308.  Updates
    z in place; returns (z, fell_back).
    """
    fell_back = np.zeros(z.shape, dtype=bool)
    cols, zc, lc, hc = np.arange(z.size), z, lo, hi
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(fp.max_iters + 1 + _BISECT_STEPS):
            # max(|lc|, |hc|), as lc <= hc
            keep = (hc - lc > _WIDTH * np.maximum(np.negative(lc), hc)).nonzero()[0]
            if keep.size < cols.size:
                cols, zc, lc, hc = cols[keep], zc[keep], lc[keep], hc[keep]
            if it == fp.max_iters + 1:
                fell_back[cols] = True
            if cols.size == 0:
                break
            f, slope = residual(zc, cols)
            np.copyto(lc, zc, where=f > 0)
            np.copyto(hc, zc, where=f < 0)
            step = 0.5 * lc + 0.5 * hc
            if it < fp.max_iters:
                newton = zc - f / slope
                np.copyto(step, newton, where=(lc < newton) & (newton < hc))
            keep = (np.abs(f) > fp.rel_tolerance).nonzero()[0]
            if keep.size < cols.size:
                cols, step, lc, hc = cols[keep], step[keep], lc[keep], hc[keep]
            if cols.size == 0:
                break
            z[cols] = zc = step
    return z, fell_back


def _open_rows(a, cols, out):
    """Rows ``cols`` of the 2-D array a: a itself while every row is still
    open, else the rows gathered into ``out`` (the leading rows of a buffer).
    ``cols`` is increasing, so a full set is the identity."""
    if cols.size == len(a):
        return a
    return a.take(cols, 0, out, "clip")


def _row_medians(a, scratch):
    """``np.median(a, axis=1)`` of a finite 2-D array, bit for bit.

    numpy's median partitions every row at both middle ranks, which runs a
    scalar selection per row; partitioning a copy (in ``scratch``) at the
    upper middle rank alone takes the vectorised one, and the lower middle
    value is then the maximum below it.  The mean of the two is formed as
    np.mean forms it.  Only a zero median can depend on which signed zero
    the selection picked, so those rows take np.median itself.
    """
    h = a.shape[1] // 2
    np.copyto(scratch, a)
    scratch.partition(h, axis=1)
    med = scratch[:, h].copy()
    if a.shape[1] % 2 == 0:
        med += np.maximum.reduce(scratch[:, :h], 1)
        med /= 2
    zero = med == 0.0
    if zero.any():
        med[zero] = np.median(a[zero], axis=1)
    return med


def column_means(a):
    """Column means of an (n, k) matrix, each column reduced alone.

    The columns are copied into the rows of a C-contiguous (k, n) array and
    summed along them, so every mean has the bits of its column's own
    pairwise sum (as ``ndarray.mean`` sums), whatever the matrix's width or
    memory order.
    """
    return np.add.reduce(np.ascontiguousarray(a.T), 1) / a.shape[0]


def locate_columns(x, s, rho, fp=DEFAULT_FP):
    """Column-wise location M-estimates of an (n, k) sample matrix.

    Returns (theta, fell_back) where theta[j] solves
    sum_i psi((x[i,j] - theta)/s[j]) = 0, found from the column median by
    safeguarded Newton steps on [min x[:,j], max x[:,j]].  fell_back[j]
    marks columns still unresolved after ``fp.max_iters`` steps.  Every
    reduction runs over one column alone (see ``column_means``), so theta[j]
    depends on column j only, bit for bit.  x must be a finite float array;
    callers check it once (``locate``, ``robust_gradient``).
    """
    s = np.asarray(s, dtype=float)
    s = s if s.shape == x.shape[1:] else np.broadcast_to(s, x.shape[1:])
    if not ((s > 0).all() and np.isfinite(s).all()):
        raise ValueError("scale s must be positive and finite")
    xt = np.ascontiguousarray(x.T)
    # one buffer set per solve; a step writes into its leading open rows.
    # Each buffer is its own (k, n) array: a larger block, once freed, would
    # raise the C allocator's mmap threshold for the rest of the process
    ub, pb, dpb = (np.empty(xt.shape) for _ in range(3))
    n, k = x.shape

    def residual(theta, cols):
        m = cols.size
        sc = s if m == k else s[cols]
        u = np.subtract(_open_rows(xt, cols, ub[:m]), theta[:, None], out=ub[:m])
        np.divide(u, sc[:, None], out=u)
        psi, dpsi = rho.psi_dpsi(u, pb[:m], dpb[:m])
        # dividing by -n negates exactly, as -(sum / n) does
        return np.add.reduce(psi, 1) / n, np.add.reduce(dpsi, 1) / -n / sc

    return _solve_columns(residual, _row_medians(xt, ub), np.minimum.reduce(xt, 1),
                          np.maximum.reduce(xt, 1), fp)


def locate(data, s, rho, fp=DEFAULT_FP):
    """Location M-estimate of a 1-D sample at truncation scale s > 0.

    Solves sum_i psi((x_i - theta)/s) = 0 for the even loss ``rho``; the
    result always lies in [min(data), max(data)].  With the quadratic test
    kind this is exactly the sample mean.
    """
    data = _check_sample(data, 1)
    theta, _ = locate_columns(data[:, None], np.asarray([s], dtype=float), rho, fp)
    return float(theta[0])


def rescale_columns(x, pivots, chi, fp=DEFAULT_FP):
    """Column-wise dispersion estimates about per-column pivots.

    Returns (sigma, fell_back).  sigma[j] >= floor_j solves
    sum_i chi((x[i,j] - pivot_j)/sigma) = 0 when such a root exists; columns
    whose spread sits below the floor floor_j = SIGMA_FLOOR (1 + |pivot_j|)
    (including exactly constant columns, where the chi sum is negative for
    every sigma) return the floor.  The root is found in log sigma on
    [log floor_j, log(2 max_i |r_ij|)] from the mean absolute residual by
    the safeguarded Newton steps of ``locate_columns``, and fell_back means
    the same.  Columns are reduced alone and x must be checked, both as in
    ``locate_columns``.
    """
    pivots = np.asarray(pivots, dtype=float)
    pivots = pivots if pivots.shape == x.shape[1:] else np.broadcast_to(pivots, x.shape[1:])
    if not np.isfinite(pivots).all():
        raise ValueError("pivot must be finite")
    # one buffer set per solve, as in locate_columns: the residuals rt, then
    # the scaled residuals u and the chi terms of the open rows (also the
    # set-up's scratch)
    rt, ub, cb, db = (np.empty(x.shape[::-1]) for _ in range(4))
    np.subtract(x.T, pivots[:, None], out=rt)
    a = np.abs(rt, out=ub)
    floor = SIGMA_FLOOR * (1.0 + np.abs(pivots))
    lo = np.log(floor)
    n = x.shape[0]  # a mean is the sum over n divided by n, as ndarray.mean
    with np.errstate(divide="ignore", over="ignore"):
        # every chi term is negative once sigma > 2 max|r|
        hi = np.maximum(_LOG2 + np.log(np.maximum.reduce(a, 1)), lo)
        start = np.log(np.add.reduce(a, 1) / n)
    # as sigma -> 0 the mean chi tends to (1 - c) minus the share of zero
    # residuals; where that is <= 0 there is no root and the floor is returned
    no_root = np.add.reduce(np.equal(rt, 0.0, out=cb), 1) / n >= 1.0 - chi.c
    np.copyto(hi, lo, where=no_root)

    def residual(z, cols):
        m = cols.size
        u = np.multiply(_open_rows(rt, cols, ub[:m]), np.exp(-z)[:, None], out=ub[:m])
        c, udchi = chi.chi_udchi(u, cb[:m], db[:m])
        return np.add.reduce(c, 1) / n, np.add.reduce(udchi, 1) / -n

    with np.errstate(over="ignore"):  # rt * exp(-z) may overflow; chi(inf) = 1 - c
        z, fell_back = _solve_columns(residual, np.minimum(np.maximum(start, lo), hi),
                                      lo, hi, fp)
    return np.maximum(np.exp(z), floor), fell_back


def rescale(data, pivot, chi, fp=DEFAULT_FP):
    """Dispersion M-estimate of a 1-D sample about ``pivot``.

    The estimate is scale-equivariant (rescale(c*x, c*pivot) = c*rescale(x,
    pivot)) and equals the floor when the residuals carry no spread.
    """
    data = _check_sample(data, 1)
    sigma, _ = rescale_columns(data[:, None], np.asarray([pivot], dtype=float),
                               chi, fp)
    return float(sigma[0])


def confidence_scale(sigma_hat, n, delta):
    """Truncation scale from dispersion, sample size and confidence demand.

    Returns sigma_hat * sqrt(n / log(2/delta)): more data widens the scale
    (behaving more like the mean), stricter confidence (smaller delta)
    tightens it.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if (sigma_hat <= 0).any():
        raise ValueError("sigma_hat must be positive")
    out = sigma_hat * np.sqrt(n / np.log(2.0 / delta))
    return float(out) if out.shape == () else out
