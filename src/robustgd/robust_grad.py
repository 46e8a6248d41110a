"""Robust estimates of the risk gradient from per-observation loss gradients.

Given an (n, d) matrix whose rows are loss gradients at the current iterate,
every column is summarized by a location M-estimate instead of the sample
mean: pivot at the column mean, estimate the column dispersion, widen it by
the confidence multiplier, then locate.  Columns are independent, so the
whole pipeline is vectorized across coordinates.
"""

from dataclasses import dataclass, field

import numpy as np

from .mest import (
    ChiFunction,
    FixedPointSettings,
    RhoFunction,
    column_means,
    confidence_scale,
    locate_columns,
    rescale_columns,
)


# the dispersion criterion of every scale solve
_CHI = ChiFunction()


@dataclass
class RobustConfig:
    """Settings of the robust gradient estimator.

    ``rho`` is the loss whose bounded influence psi = rho' truncates each
    column, ``delta`` the confidence parameter of the scale multiplier, and
    ``fp`` controls the Newton/bisection root solves of both M-estimates.
    """

    rho: RhoFunction = field(default_factory=RhoFunction)
    delta: float = 0.005
    fp: FixedPointSettings = field(default_factory=FixedPointSettings)

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def column_scales(D, cfg, start=None, *, work=None):
    """Per-column truncation scales (sigma_hat, s) of a validated gradient
    sample, the scale stage of ``robust_gradient``.

    Pivot is the column mean, sigma_hat the dispersion root about it (from
    ``start``, a guess of sigma_hat, when given), and s widens sigma_hat by
    sqrt(n / log(2/delta)).  A finite column whose sum overflows takes the
    pivot sum(x_i / n) instead, which is bounded by max |x_i|; every other
    pivot keeps its bits.  It sets no error state: under
    ``robust_gradient``'s, the overflows of such a column's sum and of an s
    past 1.8e308 warn nothing.  ``work`` lends the dispersion solve its
    buffers (``rescale_columns``).  Returns (sigma_hat, s,
    scale_fallback_mask).
    """
    n = D.shape[0]
    pivots = column_means(D)
    big = (~np.isfinite(pivots)).nonzero()[0]
    if big.size:
        pivots[big] = np.add.reduce(np.ascontiguousarray(D.T[big]) / n, 1)
    sigma, fell_back = rescale_columns(D, pivots, _CHI, cfg.fp, start, checked=True,
                                       work=work)
    return sigma, confidence_scale(sigma, n, cfg.delta), fell_back


def robust_gradient(D, cfg, cols=None, start=None, *, work=None):
    """Coordinate-wise robust location estimate of the gradient sample rows.

    D is checked once (a finite, non-empty (n, d) matrix) and copied once
    into C-ordered (d, n) rows, which every stage reduces in place of its
    own transpose; the truncation scales then come from ``column_scales``
    and every column is located at its scale.  Each column is reduced
    alone, so theta[j] carries the same bits whatever other columns sit
    beside column j and whatever D's memory order: a stack of blocks gives
    each block's own estimate.  ``cols`` robustifies only those columns and
    gives every other column its plain mean (``column_means``); all d
    columns equal no ``cols``.  ``start``, when given, is a pair (theta,
    sigma) of guesses for the robustified columns, such as the estimates of
    the previous step of a full-batch descent: the dispersion and location
    solves start from them, clipped into each column's bracket, in place of
    the mean absolute residual and the column median.  ``work``, when
    given, is a buffer set the caller lends both root solves (see
    ``robustgd.mest``): three float (K, n) arrays sharing no memory with D,
    K at least the number of robustified columns, such as a descent
    allocates once for all its steps; the estimate does not depend on it.
    Returns (theta, info): info holds sigma, s and the scale_fallback and
    locate_fallback masks of the robustified columns.  Estimation never raises on a hard
    column: a root still open after ``cfg.fp.max_iters`` Newton steps is
    finished by bisection and flagged, and a finite column whose residuals
    or scale s overflow is estimated, from no start, scaled down by 2^-512,
    its theta, sigma and s scaled back (a sigma or s past 1.8e308 reads
    inf); none of this warns.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.size == 0:
        raise ValueError("gradient sample must be a non-empty (n, d) matrix")
    if not np.isfinite(D).all():
        raise ValueError("gradient sample contains non-finite entries")
    theta0, sigma0 = (None, None) if start is None else start
    Dt = np.ascontiguousarray(D.T)
    sub = (Dt if cols is None else Dt[cols]).T
    # the one error state of every stage (overflows warn nothing)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sigma, s, scale_fb = column_scales(sub, cfg, sigma0, work=work)
        big = (~np.isfinite(s)).nonzero()[0]
        if big.size:
            # a finite column spread past about 1e307 overflows its residuals
            # or its s: it is estimated on a copy scaled by 2^-512 (s = 1
            # here), with buffers of its own
            theta_b, info_b = robust_gradient(np.ldexp(sub[:, big], -512), cfg)
            s[big] = 1.0
        # s is now positive and finite, as sigma is at least its floor
        theta, loc_fb = locate_columns(sub, s, cfg.rho, cfg.fp, theta0, checked=True,
                                       work=work)
        if big.size:  # a sigma past 1.8e308 reads inf
            theta[big], sigma[big], s[big] = np.ldexp(
                [theta_b, info_b["sigma"], info_b["s"]], 512)
            scale_fb[big], loc_fb[big] = info_b["scale_fallback"], info_b["locate_fallback"]
    if cols is not None:
        full = column_means(Dt.T)
        full[cols] = theta
        theta = full
    return theta, {"sigma": sigma, "s": s, "scale_fallback": scale_fb,
                   "locate_fallback": loc_fb}

