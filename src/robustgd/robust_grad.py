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
    DEFAULT_FP,
    ChiFunction,
    FixedPointSettings,
    RhoFunction,
    column_means,
    confidence_scale,
    locate_columns,
    rescale_columns,
)


@dataclass
class RobustConfig:
    """Knobs of the robust gradient estimator.

    ``delta`` is the confidence parameter of the scale multiplier; ``C`` the
    curvature constant of the influence-function envelope, used only with
    ``known_variance``.  ``coordinate_subset_size`` switches on the
    randomized partial robustification, ``known_variance`` the prior-variance
    scaling sigma_j = sqrt(C * var_j) in place of the dispersion estimate.
    ``fp`` controls the Newton/bisection root solves of both M-estimates.
    """

    rho: RhoFunction = field(default_factory=RhoFunction)
    chi: ChiFunction = field(default_factory=ChiFunction)
    delta: float = 0.005
    C: float = 2.0
    fp: FixedPointSettings = field(default_factory=FixedPointSettings)
    coordinate_subset_size: int | None = None
    known_variance: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.C > 0:
            raise ValueError("C must be positive")
        if self.coordinate_subset_size is not None and self.coordinate_subset_size < 1:
            raise ValueError("coordinate_subset_size must be >= 1 when set")
        if self.known_variance is not None:
            kv = np.asarray(self.known_variance, dtype=float)
            if kv.ndim != 1 or np.any(kv <= 0) or not np.all(np.isfinite(kv)):
                raise ValueError("known_variance must be a 1-D positive vector")
            self.known_variance = kv


def _check_gradient_sample(D):
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise ValueError("gradient sample must be an (n, d) matrix")
    if D.shape[0] < 1 or D.shape[1] < 1:
        raise ValueError("gradient sample must be non-empty")
    if not np.all(np.isfinite(D)):
        raise ValueError("gradient sample contains non-finite entries")
    return D


def column_scales(D, cfg, width=None):
    """Per-column truncation scales (sigma_hat, s) for a gradient sample.

    Pivot is the column mean; sigma_hat the dispersion root (or sqrt(C * v)
    under known variance); s widens sigma_hat by sqrt(n / log(2/delta)).
    ``width`` marks D as a stack of independent blocks of that many columns,
    each estimated bit for bit as it would be alone (known variances then
    describe one block).  Returns (sigma_hat, s, scale_fallback_mask).
    """
    D = _check_gradient_sample(D)
    n, d = D.shape
    if cfg.known_variance is not None:
        block = width or d
        if cfg.known_variance.shape[0] != block or d % block:
            raise ValueError("known_variance length must match the number of columns")
        sigma = np.tile(np.sqrt(cfg.C * cfg.known_variance), d // block)
        fell_back = np.zeros(d, dtype=bool)
    else:
        pivots = column_means(D, width)
        sigma, fell_back = rescale_columns(D, pivots, cfg.chi, cfg.fp, width=width)
    s = confidence_scale(sigma, n, cfg.delta)
    return sigma, np.asarray(s, dtype=float), fell_back


def robust_gradient(D, cfg, scale=None, full_output=False, width=None):
    """Coordinate-wise robust location estimate of the gradient sample rows.

    The truncation scales come from ``column_scales``: the dispersion root,
    or the prior variance when ``cfg.known_variance`` is set.  ``scale`` may
    carry precomputed per-column scales s instead.  With ``full_output`` a
    diagnostics dict (sigma, s, per-column fallback flags) is returned too;
    estimation never raises on a hard column: a root still open after
    ``cfg.fp.max_iters`` Newton steps is finished by bisection and flagged.
    ``width`` is that of ``column_scales``.
    """
    D = _check_gradient_sample(D)
    n, d = D.shape
    if scale is None:
        sigma, s, scale_fb = column_scales(D, cfg, width)
    else:
        s = np.broadcast_to(np.asarray(scale, dtype=float), (d,))
        if np.any(s <= 0):
            raise ValueError("scale must be positive")
        sigma, scale_fb = None, np.zeros(d, dtype=bool)
    theta, loc_fb = locate_columns(D, s, cfg.rho, cfg.fp, width=width)
    if full_output:
        info = {"sigma": sigma, "s": s, "locate_fallback": loc_fb,
                "scale_fallback": scale_fb}
        return theta, info
    return theta


def robust_gradient_subset(D, cfg, rng, full_output=False):
    """Robustify a random subset of coordinates, sample-mean for the rest.

    The subset is drawn uniformly without replacement from ``rng`` at every
    call; with subset size d this reproduces ``robust_gradient`` exactly.
    """
    D = _check_gradient_sample(D)
    n, d = D.shape
    k = cfg.coordinate_subset_size
    if k is None:
        raise ValueError("coordinate_subset_size must be set for the subset variant")
    if k > d:
        raise ValueError("coordinate_subset_size cannot exceed the number of columns")
    idx = np.sort(rng.choice(d, size=k, replace=False))
    theta = D.mean(axis=0)
    sub, info = robust_gradient(D[:, idx], cfg, full_output=True)
    theta[idx] = sub
    if full_output:
        info["subset"] = idx
        return theta, info
    return theta


def robust_risk(losses, cfg):
    """Robust location estimate of a scalar loss sample.

    Same pipeline as a single gradient column: pivot at the mean, dispersion
    root, confidence widening, locate.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1:
        raise ValueError("expected a 1-D loss sample")
    theta = robust_gradient(losses[:, None], cfg)
    return float(theta[0])
