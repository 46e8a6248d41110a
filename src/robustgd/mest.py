"""Scalar M-estimation core: bounded-influence location and dispersion estimates.

The location estimate soft-truncates outliers through a bounded, increasing
influence function psi = rho'; the dispersion estimate is the root of a
centered chi statistic.  Both root equations are monotone and bracketed, so
one vectorised kernel solves them column by column: Newton steps that stay
inside the shrinking bracket, bisection where a step would leave it.
Location is solved in theta, dispersion in log sigma.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

# Catalan's constant, used by the closed form of the Gudermannian antiderivative.
_CATALAN = 0.915965594177219015

# Centering constant for the Geman-type chi: E[x^2/(1+x^2)] under a standard
# normal, fixed once by numerical integration (see tests for the re-derivation).
# With this value, unit-variance Gaussian data has dispersion estimate ~= 1.
GEMAN_C = 0.3443204575812013

RHO_KINDS = ("gudermannian", "log_cosh", "pseudo_huber", "quadratic_test_only")
CHI_KINDS = ("geman_quadratic",)


class RhoFunction:
    """Even loss rho with odd, increasing influence psi = rho'.

    All kinds are normalized so rho(u) ~ u^2/2 near zero.  The three robust
    kinds have bounded psi; ``quadratic_test_only`` has psi(u) = u and exists
    solely to realize the sample-mean reduction in tests and diagnostics.
    """

    def __init__(self, kind="gudermannian"):
        if kind not in RHO_KINDS:
            raise ValueError(f"unknown rho kind: {kind!r}; expected one of {RHO_KINDS}")
        self.kind = kind

    @property
    def bounded(self):
        return self.kind != "quadratic_test_only"

    def rho(self, u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        if self.kind == "gudermannian":
            return _gudermannian_rho(a)
        if self.kind == "log_cosh":
            # log cosh(u) = |u| - log 2 + log1p(exp(-2|u|)), overflow-safe
            return a - np.log(2.0) + np.log1p(np.exp(-2.0 * a))
        if self.kind == "pseudo_huber":
            return 2.0 * (np.sqrt(1.0 + 0.5 * u * u) - 1.0)
        return 0.5 * u * u

    def psi(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "gudermannian":
            # odd reflection of pi/2 - 2*atan(exp(-|u|)) avoids exp overflow
            return np.sign(u) * (0.5 * np.pi - 2.0 * np.arctan(np.exp(-np.abs(u))))
        if self.kind == "log_cosh":
            return np.tanh(u)
        if self.kind == "pseudo_huber":
            return u / np.sqrt(1.0 + 0.5 * u * u)
        return u

    def dpsi(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "gudermannian":
            e = np.exp(-np.abs(u))  # sech(u), overflow-safe
            return 2.0 * e / (1.0 + e * e)
        if self.kind == "log_cosh":
            e = np.exp(-np.abs(u))
            s = 2.0 * e / (1.0 + e * e)
            return s * s
        if self.kind == "pseudo_huber":
            return (1.0 + 0.5 * u * u) ** -1.5
        return np.ones_like(u)

    def __repr__(self):
        return f"RhoFunction({self.kind!r})"


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


class ChiFunction:
    """Even dispersion criterion: negative at 0, positive in the tails.

    The root of sum(chi((x_i - pivot)/sigma)) = 0 in sigma is a robust spread
    measure; the centering constant makes it match the standard deviation on
    Gaussian data.
    """

    def __init__(self, kind="geman_quadratic", c=GEMAN_C):
        if kind not in CHI_KINDS:
            raise ValueError(f"unknown chi kind: {kind!r}; expected one of {CHI_KINDS}")
        if not c > 0:
            raise ValueError("centering constant c must be positive")
        self.kind = kind
        self.c = c

    def chi(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            t = u * u
            return 1.0 - 1.0 / (1.0 + t) - self.c

    def dchi(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            w = 1.0 / (1.0 + u * u)
            return 2.0 * u * w * w

    def __call__(self, u):
        return self.chi(u)

    def __repr__(self):
        return f"ChiFunction({self.kind!r}, c={self.c})"


@dataclass
class FixedPointSettings:
    """Stopping controls for the location and dispersion iterations.

    ``max_iters`` caps the Newton steps of each solve; columns still
    unresolved at the cap finish by bisection and are flagged as fallbacks.
    ``rel_tolerance`` bounds the mean residual (the root equation divided by
    n).  ``sigma_floor`` is scaled by (1 + |pivot|) inside the dispersion
    solver so degenerate zero-spread columns return a harmless positive value.
    """

    max_iters: int = 50
    rel_tolerance: float = 1e-8
    sigma_floor: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")
        if not self.sigma_floor > 0:
            raise ValueError("sigma_floor must be positive")


DEFAULT_FP = FixedPointSettings()

# cap on the bisection steps that finish columns left open by the Newton phase
_BISECT_STEPS = 200
# relative bracket width at which a root is located to machine precision
_WIDTH = 1e-15


def _check_sample(x, ndim):
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("data must contain at least one observation")
    if not np.all(np.isfinite(x)):
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
    Updates z, lo and hi in place; returns (z, fell_back).
    """
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
            step = np.where((lc < newton) & (newton < hc), newton, step)
        still_open = np.abs(f) > fp.rel_tolerance
        cols = cols[still_open]
        z[cols] = step[still_open]
    return z, fell_back


def column_means(a, width=None, cols=None):
    """Column means of an (n, k) matrix.

    With ``width``, the columns are the columns ``cols`` (default all) of a
    stack of independent blocks of ``width`` columns, and each mean comes out
    bit for bit as from its block's columns alone: numpy sums a lone column
    pairwise but several columns row by row.
    """
    out = a.mean(axis=0)
    if width is not None and width < out.size:
        block = (np.arange(out.size) if cols is None else cols) // width
        lone = np.bincount(block)[block] == 1
        if lone.any():
            out[lone] = a[:, lone].T.copy().mean(axis=1)
    return out


def locate_columns(x, s, rho, fp=DEFAULT_FP, width=None):
    """Column-wise location M-estimates of an (n, k) sample matrix.

    Returns (theta, fell_back) where theta[j] solves
    sum_i psi((x[i,j] - theta)/s[j]) = 0, found from the column median by
    safeguarded Newton steps on [min x[:,j], max x[:,j]].  fell_back[j]
    marks columns still unresolved after ``fp.max_iters`` steps.  ``width``
    marks x as a stack of independent blocks of that many columns (one per
    trial, say), each solved bit for bit as it would be alone.
    """
    x = _check_sample(x, 2)
    s = np.broadcast_to(np.asarray(s, dtype=float), x.shape[1:])
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ValueError("scale s must be positive and finite")

    def residual(theta, cols):
        u = (x[:, cols] - theta) / s[cols]
        return (column_means(rho.psi(u), width, cols),
                -column_means(rho.dpsi(u), width, cols) / s[cols])

    return _solve_columns(residual, np.median(x, axis=0), x.min(axis=0),
                          x.max(axis=0), fp)


def locate(data, s, rho, fp=DEFAULT_FP):
    """Location M-estimate of a 1-D sample at truncation scale s > 0.

    Solves sum_i psi((x_i - theta)/s) = 0 for the even loss ``rho``; the
    result always lies in [min(data), max(data)].  With the quadratic test
    kind this is exactly the sample mean.
    """
    data = _check_sample(data, 1)
    theta, _ = locate_columns(data[:, None], np.asarray([s], dtype=float), rho, fp)
    return float(theta[0])


def rescale_columns(x, pivots, chi, fp=DEFAULT_FP, sigma0=None, width=None):
    """Column-wise dispersion estimates about per-column pivots.

    Returns (sigma, fell_back).  sigma[j] >= floor_j solves
    sum_i chi((x[i,j] - pivot_j)/sigma) = 0 when such a root exists; columns
    whose spread sits below the floor (including exactly constant columns,
    where the chi sum is negative for every sigma) return the floor.  The
    root is found in log sigma on [log floor_j, log(2 max_i |r_ij|)] by the
    safeguarded Newton steps of ``locate_columns``, and fell_back means the
    same.  ``sigma0`` overrides the starting point (the mean absolute
    residual); any positive start reaches the same root.  ``width`` is that
    of ``locate_columns``.
    """
    x = _check_sample(x, 2)
    pivots = np.broadcast_to(np.asarray(pivots, dtype=float), x.shape[1:])
    if not np.all(np.isfinite(pivots)):
        raise ValueError("pivot must be finite")
    if sigma0 is not None and not np.all(np.asarray(sigma0) > 0):
        raise ValueError("sigma0 must be positive")
    r = x - pivots
    a = np.abs(r)
    floor = fp.sigma_floor * (1.0 + np.abs(pivots))
    lo = np.log(floor)
    with np.errstate(divide="ignore", over="ignore"):
        # every chi term is negative once sigma > 2 max|r|
        hi = np.maximum(np.log(2.0) + np.log(a.max(axis=0)), lo)
        start = np.log(column_means(a, width) if sigma0 is None else sigma0)
    # as sigma -> 0 the mean chi tends to (1 - c) minus the share of zero
    # residuals; where that is <= 0 there is no root and the floor is returned
    no_root = (r == 0.0).mean(axis=0) >= 1.0 - chi.c
    hi[no_root] = lo[no_root]

    def residual(z, cols):
        with np.errstate(over="ignore"):
            u = r[:, cols] * np.exp(-z)
        return (column_means(chi.chi(u), width, cols),
                -column_means(u * chi.dchi(u), width, cols))

    z, fell_back = _solve_columns(residual, np.clip(start, lo, hi), lo, hi, fp)
    return np.maximum(np.exp(z), floor), fell_back


def rescale(data, pivot, chi, fp=DEFAULT_FP, sigma0=None):
    """Dispersion M-estimate of a 1-D sample about ``pivot``.

    The estimate is scale-equivariant (rescale(c*x, c*pivot) = c*rescale(x,
    pivot)) and equals the floor when the residuals carry no spread.
    """
    data = _check_sample(data, 1)
    sigma, _ = rescale_columns(data[:, None], np.asarray([pivot], dtype=float),
                               chi, fp, sigma0=sigma0)
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
    if np.any(sigma_hat <= 0):
        raise ValueError("sigma_hat must be positive")
    out = sigma_hat * np.sqrt(n / np.log(2.0 / delta))
    return float(out) if out.shape == () else out


def psi_eval(u, rho):
    """Influence function psi = rho' at u."""
    if not np.all(np.isfinite(np.asarray(u, dtype=float))):
        raise ValueError("u must be finite")
    out = rho.psi(u)
    return float(out) if np.ndim(u) == 0 else out


def chi_eval(u, chi):
    """Dispersion criterion chi at u."""
    if not np.all(np.isfinite(np.asarray(u, dtype=float))):
        raise ValueError("u must be finite")
    out = chi.chi(u)
    return float(out) if np.ndim(u) == 0 else out
