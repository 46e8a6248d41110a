"""Scalar M-estimation core: bounded-influence location and dispersion estimates.

The location estimate soft-truncates outliers through a bounded, increasing
influence function psi = rho'; the dispersion estimate is the root of a
centered chi statistic.  Both root equations are monotone and bracketed, so
one vectorised kernel solves them column by column: Newton steps that stay
inside the shrinking bracket, bisection where a step would leave it.  A
column closes on the Newton step it has just computed once its residual is
within tolerance, so a root is as accurate as a far tighter solve's, and
where the solve starts (the column median and mean absolute residual, or a
caller's start such as the last step's estimates) moves only the path.
Location is solved in theta, dispersion in log sigma.  Each psi kind has
one formula, ``RhoFunction.psi_dpsi``, a fused kernel that gives a residual
evaluation's value and slope in one call; the dispersion residual reads
only the row means of w = 1/(1+u^2) and w^2 (see ``ChiFunction``).  The
loss rho is never evaluated.  The Gudermannian psi is gd(u) = atan(sinh
u), within 2 ulp, and psi' = 1 / cosh u, within 2 ulp up to |u| ~ 710.5,
where cosh overflows and psi' (a subnormal) is 0.  No kernel sets a
floating-point error state: sinh, cosh and u * u overflow for large |u| to
values that are correct in the limit, so ``psi``, ``chi`` and each root
solve hold over="ignore" themselves; on the solves' ``checked`` path the
caller does (``robust_gradient``, in one block over all its stages).  Each
solve takes one buffer set, slices it to the columns still open, and
carries those columns' points and brackets compacted from step to step; its
full collapsed-bracket test runs at the first step, and later only once some
bracket is no wider than its first collapse bound.  The buffer set is
allocated per solve, or lent by the caller as ``work``: three (K, n) float
arrays with K >= k, whose leading k rows the solve overwrites (the
dispersion solve uses the first two, the location solve all three).  A
full-batch descent lends one set for all its steps, so no step maps its
buffers in afresh (``optim._robust_descent``).
"""

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

# Centering constant for the Geman-type chi: E[x^2/(1+x^2)] under a standard
# normal, fixed once by numerical integration (see tests for the re-derivation).
# With this value, unit-variance Gaussian data has dispersion estimate ~= 1.
GEMAN_C = 0.3443204575812013

RHO_KINDS = ("gudermannian", "log_cosh", "pseudo_huber", "quadratic_test_only")

_LOG2 = np.log(2.0)
# 0-d constants: numpy converts a Python float operand anew on every call
_ZERO, _ONE, _TWO = np.zeros(()), np.ones(()), np.array(2.0)
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}

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
        with np.errstate(over="ignore"):  # sinh, cosh and u * u overflow
            return self.psi_dpsi(u, np.empty_like(u), np.empty_like(u))[0][()]

    def psi_dpsi(self, u, p, dp):
        """(psi(u), psi'(u)) written into the float arrays p and dp.

        Per kind: gudermannian atan(sinh u) and 1 / cosh u; log_cosh
        tanh(u) and sech(u)^2 = (2e / (1 + e^2))^2 with e = exp(-|u|);
        pseudo_huber u / sqrt(1 + u^2/2) and (1 + u^2/2)^-1.5;
        quadratic_test_only u and 1.  Every intermediate lives in the two
        outputs.  u is left unchanged and must not share memory with
        either output.  The kernel sets no floating-point error state:
        past |u| ~ 710 sinh and cosh overflow (psi is then +-pi/2 and psi'
        0), and past |u| ~ 1.9e154 u * u does, so callers hold
        over="ignore" themselves, as ``psi`` and the root solves do.
        """
        if self.kind == "gudermannian":
            # psi within 2 ulp, and odd to the signed zero, where the equal
            # form pi/2 - 2 atan(exp(-|u|)) cancels for small |u|; psi'
            # within 2 ulp until it is a subnormal that cosh's overflow
            # flushes to 0
            np.sinh(u, out=p)
            np.arctan(p, out=p)
            np.cosh(u, out=dp)
            np.divide(_ONE, dp, out=dp)
            return p, dp
        if self.kind == "pseudo_huber":
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
        # so it has the bits of 2e / (1 + e^2).  abs and negative, not
        # copysign(u, -1): numpy vectorises only the former
        np.abs(u, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        np.multiply(p, p, out=dp)
        np.add(1.0, dp, out=dp)
        np.divide(p, dp, out=dp)
        np.multiply(2.0, dp, out=dp)
        np.multiply(dp, dp, out=dp)
        np.tanh(u, out=p)
        return p, dp

    def __repr__(self):
        return f"RhoFunction({self.kind!r})"


class ChiFunction:
    """Even dispersion criterion chi(u) = u^2/(1+u^2) - c: negative at 0,
    positive in the tails.

    The root of sum(chi((x_i - pivot)/sigma)) = 0 in sigma is a robust spread
    measure; the centering constant ``c`` (``GEMAN_C``) makes it match the
    standard deviation on Gaussian data.  With w = 1/(1+u^2), chi(u) =
    1 - w - c and u chi'(u) = 2 w (1 - w), so ``rescale_columns`` solves
    its root from the means of w and w^2 alone.
    """

    c = GEMAN_C

    def chi(self, u):
        """chi(u) = 1 - 1/(1+u^2) - c; a scalar u gives a numpy scalar."""
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):  # u * u overflows past |u| ~ 1.3e154
            return (1.0 - 1.0 / (1.0 + u * u) - self.c)[()]


@dataclass
class FixedPointSettings:
    """Stopping controls for the location and dispersion iterations.

    ``max_iters`` caps the Newton steps of each solve; columns still
    unresolved at the cap finish by bisection and are flagged as fallbacks.
    A column closes once its mean residual (the root equation divided by n)
    is within ``rel_tolerance``, on the Newton step computed from that
    residual where the step lands strictly inside the column's bracket, and
    at the evaluated point otherwise (a bisection point is never closed
    on).  Newton converges quadratically, so at the default 1e-8 the
    closing step gives the roots of a solve at 1e-14 to about 1e-12 of the
    scale, at no extra residual evaluation.
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


def _solve_columns(residual, z, lo, hi, fp):
    """Per-column roots of decreasing residuals, each bracketed by [lo, hi].

    ``residual(z, cols)`` returns the mean residual of columns ``cols`` at
    points ``z`` and its slope in z.  Each step shrinks the brackets to the
    evaluated points, then takes the Newton step where it lands strictly
    inside and bisects otherwise (midpoints are formed only on a step where
    some Newton step leaves).  A column closes once its residual is within
    ``fp.rel_tolerance``: it takes the Newton step it has just computed
    where that lands strictly inside its shrunk bracket, and keeps its
    evaluated point otherwise, so a bisection midpoint never closes a
    column and closing costs no residual evaluation.  A column whose
    bracket has collapsed, to no wider than ``_WIDTH`` max(|lc|, |hc|),
    closes too.  That bound only falls as a bracket shrinks, so each step
    compares the widths with the first bound wc, and the full test runs at
    the first step and then only once some bracket is no wider than wc.
    Columns still open after ``fp.max_iters`` steps finish by bisection and
    are flagged.  The open columns' points and brackets travel compacted
    between steps (lo and hi are overwritten), and a column's point is
    written to z when it closes.
    The caller holds overflow, divide and invalid warnings off for the
    whole solve, residuals included.  The bisection point halves each end
    before adding, so it stays finite next to +-1.8e308.  Updates z in
    place; returns (z, fell_back).
    """
    fell_back = np.zeros(z.shape, dtype=bool)
    cols, zc, lc, hc = np.arange(z.size), z, lo, hi
    wc = _WIDTH * np.maximum(np.negative(lc), hc)  # max(|lc|, |hc|), as lc <= hc
    for it in range(fp.max_iters + 1 + _BISECT_STEPS):
        keep = (hc - lc > wc).nonzero()[0]
        if it and keep.size < cols.size:
            keep = (hc - lc > _WIDTH * np.maximum(np.negative(lc), hc)).nonzero()[0]
        if keep.size < cols.size:
            z[cols] = zc
            cols, zc, lc, hc, wc = cols[keep], zc[keep], lc[keep], hc[keep], wc[keep]
        if it == fp.max_iters + 1:
            fell_back[cols] = True
        if cols.size == 0:
            break
        f, slope = residual(zc, cols)
        np.putmask(lc, f > _ZERO, zc)
        np.putmask(hc, f < _ZERO, zc)
        inside = None
        if it < fp.max_iters:
            step = zc - f / slope
            inside = (lc < step) & (step < hc)
        if inside is None or inside.nonzero()[0].size < cols.size:
            mid = 0.5 * lc + 0.5 * hc
            step = mid if inside is None else np.where(inside, step, mid)
        keep = (np.abs(f) > fp.rel_tolerance).nonzero()[0]
        if keep.size < cols.size:
            if inside is not None:
                # a closing column takes its Newton step where it lies inside
                np.putmask(zc, inside, step)
            z[cols] = zc
            cols, step, lc, hc, wc = cols[keep], step[keep], lc[keep], hc[keep], wc[keep]
            if cols.size == 0:
                break
        zc = step
    else:
        z[cols] = zc
    return z, fell_back


def _buffers(work, shape, count):
    """``count`` float buffers of ``shape`` (k, n): the leading k rows of the
    first ``count`` arrays of a lent ``work`` set, or fresh arrays."""
    if work is None:
        return [np.empty(shape) for _ in range(count)]
    return [a[:shape[0]] for a in work[:count]]


def _open_rows(a, cols, out):
    """Rows ``cols`` of the 2-D array a: a itself while every row is still
    open, else the rows gathered into ``out`` (the leading rows of a buffer).
    ``cols`` is increasing, so a full set is the identity."""
    if cols.size == len(a):
        return a
    return a.take(cols, 0, out, "clip")


def _row_medians(a, scratch):
    """``np.median(a, axis=1)`` of a finite 2-D array, bit for bit, except
    where the mean of the two middle values overflows (np.median gives inf).

    numpy's median partitions every row at both middle ranks, which runs a
    scalar selection per row; sorting a copy (in ``scratch``) in place is
    one vectorised call, and the middle values are read at ranks h - 1 and
    h.  The mean of the two is formed as np.mean forms it, or as the sum of
    their halves where their sum overflows.  Only a zero median can depend
    on which signed zero the sort put there, so those rows take np.median
    itself.
    """
    h = a.shape[1] // 2
    np.copyto(scratch, a)
    scratch.sort(axis=1)
    med = scratch[:, h].copy()
    if a.shape[1] % 2 == 0:
        med += scratch[:, h - 1]
        med /= _TWO
        big = np.isinf(med).nonzero()[0]
        if big.size:
            med[big] = 0.5 * scratch[big, h - 1] + 0.5 * scratch[big, h]
    zero = (med == _ZERO).nonzero()[0]
    if zero.size:
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


def locate_columns(x, s, rho, fp=DEFAULT_FP, start=None, checked=False, *, work=None):
    """Column-wise location M-estimates of an (n, k) sample matrix.

    Returns (theta, fell_back) where theta[j] solves
    sum_i psi((x[i,j] - theta)/s[j]) = 0, found by safeguarded Newton steps
    on [min x[:,j], max x[:,j]] (see ``_solve_columns``).  They start from
    ``start[j]`` clipped into that bracket (a nan start takes its lower
    end), or, with no start, from the column median.  fell_back[j] marks
    columns still unresolved after ``fp.max_iters`` steps.  Every reduction
    runs over one column alone (see ``column_means``), so theta[j] depends
    on column j and its start only, bit for bit.  x must be a finite float
    array, which ``robust_gradient`` checks once; s must be positive and
    finite, which is checked unless ``checked`` says the caller has and
    passes s as a float array of k scales (as ``robust_gradient`` does).
    Overflow, divide and invalid warnings are off for the whole solve: the
    caller holds them off with ``checked``, this function otherwise.
    ``work``, when given, lends the solve's three (k, n) buffers as the
    leading rows of three float arrays (see the module docstring), which
    must not share memory with x: they are overwritten, never read first.
    """
    if not checked:
        s = np.asarray(s, dtype=float)
        s = s if s.shape == x.shape[1:] else np.broadcast_to(s, x.shape[1:])
        if not ((s > 0).all() and np.isfinite(s).all()):
            raise ValueError("scale s must be positive and finite")
    xt = np.ascontiguousarray(x.T)
    # one buffer set per solve, or the caller's; a step writes into its
    # leading open rows.  Each buffer is its own (k, n) array: a larger
    # block, once freed, would raise the C allocator's mmap threshold for
    # the rest of the process
    ub, pb, dpb = _buffers(work, xt.shape, 3)
    k = x.shape[1]
    n = float(x.shape[0])  # divides as the int does, without its conversion

    def residual(theta, cols):
        m = cols.size
        sc, nsc = (s, ns) if m == k else (s[cols], ns[cols])
        u = np.subtract(_open_rows(xt, cols, ub[:m]), theta[:, None], out=ub[:m])
        np.divide(u, sc[:, None], out=u)
        psi, dpsi = rho.psi_dpsi(u, pb[:m], dpb[:m])
        return np.add.reduce(psi, 1) / n, np.add.reduce(dpsi, 1) / nsc

    # -n s, the mean of two middle values, x - theta and psi may overflow
    with nullcontext() if checked else np.errstate(**_QUIET):
        ns = -n * s  # the slope's divisor
        lo, hi = np.minimum.reduce(xt, 1), np.maximum.reduce(xt, 1)
        z = _row_medians(xt, ub) if start is None else np.fmin(np.fmax(start, lo), hi)
        return _solve_columns(residual, z, lo, hi, fp)


def rescale_columns(x, pivots, chi, fp=DEFAULT_FP, start=None, checked=False, *,
                    work=None):
    """Column-wise dispersion estimates about per-column pivots.

    Returns (sigma, fell_back).  sigma[j] >= floor_j solves
    sum_i chi((x[i,j] - pivot_j)/sigma) = 0 when such a root exists; columns
    whose spread sits below the floor floor_j = SIGMA_FLOOR (1 + |pivot_j|)
    (including exactly constant columns, where the chi sum is negative for
    every sigma) return the floor.  The root is found in log sigma on
    [log floor_j, log(2 max_i |r_ij|)] by the safeguarded Newton steps of
    ``locate_columns`` (fell_back means the same), from the log of
    ``start[j]`` clipped into that bracket or, with no start, of the mean
    absolute residual.  Each residual evaluation reads only the row means
    of w = 1/(1+u^2) and w^2 (see ``ChiFunction``).  Columns are reduced
    alone and x must be checked, both as in ``locate_columns``; the pivots
    must be finite, which is checked unless ``checked`` says the caller has
    and passes them as a float array of k pivots; warnings as there.  A
    finite column spread past 1.8e308 overflows its residuals and returns
    sigma = inf.  ``work`` lends two buffers, the first two of the set, as
    in ``locate_columns``.
    """
    if not checked:
        pivots = np.asarray(pivots, dtype=float)
        pivots = pivots if pivots.shape == x.shape[1:] else np.broadcast_to(
            pivots, x.shape[1:])
        if not np.isfinite(pivots).all():
            raise ValueError("pivot must be finite")
    # one buffer set per solve, or the caller's, as in locate_columns: the
    # residuals rt, and the scaled residuals of the open rows, which also
    # serve the set-up
    rt, ub = _buffers(work, x.shape[::-1], 2)
    floor = SIGMA_FLOOR * (1.0 + np.abs(pivots))
    lo = np.log(floor)
    # a mean is the sum over n divided by n, as ndarray.mean; a float n
    # divides as the int does, without its conversion
    n = float(x.shape[0])

    def residual(z, cols):
        # mean chi = (1 - c) - mean w, and its slope in z = log sigma is
        # -mean(u chi'(u)) = 2 (mean w^2 - mean w), finite at u = +-inf
        m = cols.size
        u = np.multiply(_open_rows(rt, cols, ub[:m]), np.exp(-z)[:, None], out=ub[:m])
        np.multiply(u, u, out=u)
        np.add(_ONE, u, out=u)
        w = np.divide(_ONE, u, out=u)
        sw = np.add.reduce(w, 1) / n
        np.multiply(w, w, out=w)
        return (1.0 - chi.c) - sw, _TWO * (np.add.reduce(w, 1) / n - sw)

    # residuals and rt * exp(-z) may overflow (chi(inf) = 1 - c), and a
    # column of zero residuals starts at log 0
    with nullcontext() if checked else np.errstate(**_QUIET):
        np.subtract(x.T, pivots[:, None], out=rt)
        a = np.abs(rt, out=ub)
        # every chi term is negative once sigma > 2 max|r|
        hi = np.maximum(_LOG2 + np.log(np.maximum.reduce(a, 1)), lo)
        z = np.log(np.add.reduce(a, 1) / n if start is None else start)
        # as sigma -> 0 the mean chi tends to (1 - c) minus the share of zero
        # residuals; where that is <= 0 there is no root and the floor is
        # returned.  Only columns with a zero residual are counted
        if np.count_nonzero(a) < a.size:
            no_root = np.add.reduce(np.equal(rt, 0.0, out=ub), 1) / n >= 1.0 - chi.c
            np.copyto(hi, lo, where=no_root)
        z, fell_back = _solve_columns(residual, np.fmin(np.fmax(z, lo), hi), lo, hi, fp)
    return np.maximum(np.exp(z), floor), fell_back


def confidence_scale(sigma_hat, n, delta):
    """Truncation scale from dispersion, sample size and confidence demand.

    Returns sigma_hat * sqrt(n / log(2/delta)): more data widens the scale
    (behaving more like the mean), stricter confidence (smaller delta)
    tightens it.
    """
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError("n must be an integer >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if not (sigma_hat > 0).all():  # nan too; an overflowing column's inf passes
        raise ValueError("sigma_hat must be positive")
    out = sigma_hat * np.sqrt(n / np.log(2.0 / delta))
    return float(out) if out.shape == () else out
