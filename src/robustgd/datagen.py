"""Synthetic task generators: noisy quadratic risk, regression data, noise
families with a calibrated standard-deviation ladder, and initializations.

Noise families come in two groups.  Nine scale families are calibrated so
levels 1..15 hit a linear sd ladder from 0.3 to 20.0 exactly (each family
keeps any shape parameter fixed and solves its scale in closed form, which
keeps the kurtosis moderate enough for Monte-Carlo verification).  Pareto and
Student-t tails are parameterized directly through a documented level table
instead; their variance may be infinite and they are flagged accordingly.
Asymmetric families are centered by subtracting the analytic mean.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .models import Dataset

EULER_GAMMA = float(np.euler_gamma)

SD_LADDER_MIN = 0.3
SD_LADDER_MAX = 20.0
N_LEVELS = 15

# fixed shape parameters of the ladder families
LOGNORMAL_LOG_SCALE = 1.0
LOGLOGISTIC_SHAPE = 5.0
WEIBULL_SHAPE = 1.5

LADDER_FAMILIES = (
    "normal", "lognormal", "loglogistic", "triangular_sym", "laplace",
    "gumbel", "weibull", "exponential", "logistic",
)
TABLE_FAMILIES = ("pareto", "student_t")
FAMILIES = LADDER_FAMILIES + TABLE_FAMILIES


def target_sd(level):
    """Linear sd ladder: level 1 -> 0.3, level 15 -> 20.0."""
    if not 1 <= level <= N_LEVELS:
        raise ValueError(f"level must lie in 1..{N_LEVELS}")
    return SD_LADDER_MIN + (level - 1) * (SD_LADDER_MAX - SD_LADDER_MIN) / (N_LEVELS - 1)


def pareto_shape(level):
    """Tail exponent table for the Pareto family: 3.0 down to 1.2."""
    if not 1 <= level <= N_LEVELS:
        raise ValueError(f"level must lie in 1..{N_LEVELS}")
    return 3.0 - (level - 1) * (1.8 / (N_LEVELS - 1))


def student_t_dof(level):
    """Degrees-of-freedom table for the Student-t family: 4.0 down to 1.2."""
    if not 1 <= level <= N_LEVELS:
        raise ValueError(f"level must lie in 1..{N_LEVELS}")
    return 4.0 - (level - 1) * (2.8 / (N_LEVELS - 1))


def _loglogistic_canonical_sd(shape):
    b = np.pi / shape
    if shape <= 2:
        return np.inf
    return float(np.sqrt(2 * b / np.sin(2 * b) - (b / np.sin(b)) ** 2))


def _weibull_canonical_sd(shape):
    return float(np.sqrt(gamma_fn(1 + 2 / shape) - gamma_fn(1 + 1 / shape) ** 2))


def calibrate_noise(family, level):
    """Distribution parameters realizing the level's target sd.

    Ladder families solve their scale parameter in closed form against the
    analytic sd; the tail families return their level-table parameters (sd
    may be infinite, see ``noise_sd``).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown noise family: {family!r}")
    if family == "pareto":
        return {"shape": pareto_shape(level), "scale": 1.0}
    if family == "student_t":
        return {"dof": student_t_dof(level)}
    sd = target_sd(level)
    if family == "normal":
        return {"scale": sd}
    if family == "lognormal":
        s1 = np.sqrt((np.e - 1.0) * np.e)  # sd of exp(Z) at log-scale 1
        return {"log_loc": float(np.log(sd / s1)), "log_scale": LOGNORMAL_LOG_SCALE}
    if family == "loglogistic":
        return {"scale": sd / _loglogistic_canonical_sd(LOGLOGISTIC_SHAPE),
                "shape": LOGLOGISTIC_SHAPE}
    if family == "triangular_sym":
        return {"half_width": sd * np.sqrt(6.0)}
    if family == "laplace":
        return {"scale": sd / np.sqrt(2.0)}
    if family == "gumbel":
        return {"scale": sd * np.sqrt(6.0) / np.pi}
    if family == "weibull":
        return {"scale": sd / _weibull_canonical_sd(WEIBULL_SHAPE),
                "shape": WEIBULL_SHAPE}
    if family == "exponential":
        return {"scale": sd}
    return {"scale": sd * np.sqrt(3.0) / np.pi}  # logistic


_FAMILY_PARAMS = {
    "normal": {"scale"},
    "lognormal": {"log_loc", "log_scale"},
    "loglogistic": {"scale", "shape"},
    "triangular_sym": {"half_width"},
    "laplace": {"scale"},
    "gumbel": {"scale"},
    "weibull": {"scale", "shape"},
    "exponential": {"scale"},
    "logistic": {"scale"},
    "pareto": {"shape", "scale"},
    "student_t": {"dof"},
}


@dataclass
class NoiseSpec:
    """A noise family at a calibrated level or with explicit parameters."""

    family: str
    level: int | None = None
    params: dict | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family: {self.family!r}")
        if (self.level is None) == (self.params is None):
            raise ValueError("give exactly one of level or params")
        if self.level is not None:
            self.params = calibrate_noise(self.family, self.level)
        else:
            expected = _FAMILY_PARAMS[self.family]
            given = set(self.params)
            if given != expected:
                raise ValueError(
                    f"{self.family} parameters must be exactly "
                    f"{sorted(expected)}, got {sorted(given)}")

    def label(self):
        if self.level is not None:
            return f"{self.family}-L{self.level}"
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def noise_mean(spec):
    """Analytic mean of the raw (uncentered) family draw."""
    p = spec.params
    f = spec.family
    if f in ("normal", "triangular_sym", "laplace", "logistic", "student_t"):
        return 0.0
    if f == "lognormal":
        return float(np.exp(p["log_loc"] + 0.5 * p["log_scale"] ** 2))
    if f == "loglogistic":
        b = np.pi / p["shape"]
        return float(p["scale"] * b / np.sin(b)) if p["shape"] > 1 else np.inf
    if f == "gumbel":
        return EULER_GAMMA * p["scale"]
    if f == "weibull":
        return float(p["scale"] * gamma_fn(1 + 1 / p["shape"]))
    if f == "exponential":
        return p["scale"]
    a = p["shape"]  # pareto
    return float(p["scale"] * a / (a - 1)) if a > 1 else np.inf


def noise_sd(spec):
    """Analytic standard deviation; np.inf when the variance diverges."""
    p = spec.params
    f = spec.family
    if f == "normal":
        return float(p["scale"])
    if f == "lognormal":
        s2 = p["log_scale"] ** 2
        return float(np.exp(p["log_loc"]) * np.sqrt((np.exp(s2) - 1) * np.exp(s2)))
    if f == "loglogistic":
        return float(p["scale"] * _loglogistic_canonical_sd(p["shape"]))
    if f == "triangular_sym":
        return float(p["half_width"] / np.sqrt(6.0))
    if f == "laplace":
        return float(p["scale"] * np.sqrt(2.0))
    if f == "gumbel":
        return float(p["scale"] * np.pi / np.sqrt(6.0))
    if f == "weibull":
        return float(p["scale"] * _weibull_canonical_sd(p["shape"]))
    if f == "exponential":
        return float(p["scale"])
    if f == "logistic":
        return float(p["scale"] * np.pi / np.sqrt(3.0))
    if f == "pareto":
        a = p["shape"]
        if a <= 2:
            return np.inf
        return float(p["scale"] * np.sqrt(a / ((a - 1) ** 2 * (a - 2))))
    nu = p["dof"]  # student_t
    return float(np.sqrt(nu / (nu - 2))) if nu > 2 else np.inf


def sample_noise(spec, rng, size):
    """Centered draws: raw family samples minus the analytic mean."""
    p = spec.params
    f = spec.family
    if f == "normal":
        raw = rng.normal(0.0, p["scale"], size)
    elif f == "lognormal":
        raw = rng.lognormal(p["log_loc"], p["log_scale"], size)
    elif f == "loglogistic":
        raw = np.exp(rng.logistic(np.log(p["scale"]), 1.0 / p["shape"], size))
    elif f == "triangular_sym":
        a = p["half_width"]
        raw = rng.triangular(-a, 0.0, a, size) if a > 0 else np.zeros(size)
    elif f == "laplace":
        raw = rng.laplace(0.0, p["scale"], size)
    elif f == "gumbel":
        raw = rng.gumbel(0.0, p["scale"], size)
    elif f == "weibull":
        raw = p["scale"] * rng.weibull(p["shape"], size)
    elif f == "exponential":
        raw = rng.exponential(p["scale"], size)
    elif f == "logistic":
        raw = rng.logistic(0.0, p["scale"], size)
    elif f == "pareto":
        raw = p["scale"] * (1.0 + rng.pareto(p["shape"], size))
    else:
        raw = rng.standard_t(p["dof"], size)
    mu = noise_mean(spec)
    if not np.isfinite(mu):
        raise ValueError(f"{spec.family} mean diverges; cannot center these parameters")
    return raw - mu


def w_star_sequence(k):
    """Deterministic target-coefficient sequence: pi/4, pi/8, pi/2, -pi/8, ..."""
    k = np.asarray(k)
    if np.any(k < 1):
        raise ValueError("sequence index starts at 1")
    sign = np.where(k % 2 == 1, 1.0, -1.0)
    return np.pi / 4 + sign * (k - 1) * np.pi / 8


def gen_w_star(d, rng):
    """Target vector with entries drawn from the deterministic sequence at
    uniformly sampled indices in [1, 500]."""
    idx = rng.integers(1, 501, size=d)
    return w_star_sequence(idx)


def gen_regression(n, d, noise, rng, w_star=None):
    """Linear-regression sample with isotropic Gaussian inputs and centered
    noise: y_i = <x_i, w*> + eps_i.  Returns (Dataset, w_star)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if w_star is None:
        w_star = gen_w_star(d, rng)
    w_star = np.asarray(w_star, dtype=float)
    X = rng.normal(size=(n, d))
    y = X @ w_star + sample_noise(noise, rng, n)
    return Dataset(X, y), w_star


def gen_classification(n, features, classes, rng, separation=3.0,
                       label_noise=0.0):
    """Gaussian class blobs with optional label flips: class c's mean sits at
    ``separation`` along coordinate c (mod features)."""
    if classes < 2 or features < 1 or n < 1:
        raise ValueError("need n >= 1, features >= 1, classes >= 2")
    means = np.zeros((classes, features))
    for c in range(classes):
        means[c, c % features] = separation
    y = rng.integers(classes, size=n)
    X = means[y] + rng.normal(size=(n, features))
    if label_noise > 0:
        flip = rng.random(n) < label_noise
        y = y.copy()
        y[flip] = rng.integers(classes, size=int(flip.sum()))
    return Dataset(X, y.astype(int))


def initial_point(w_star, delta, rng):
    """Uniform box initialization w* + Unif[-delta, delta] per coordinate."""
    w_star = np.asarray(w_star, dtype=float)
    return w_star + delta * rng.uniform(-1.0, 1.0, size=w_star.shape)


@dataclass
class SyntheticRisk:
    """Quadratic risk ||w - w_star||^2 / 2 with identity curvature and
    minimum at ``w_star``; exposes the exact excess risk and gradient for
    oracle runs and closed-form checks.
    """

    w_star: np.ndarray

    def __post_init__(self):
        self.w_star = np.asarray(self.w_star, dtype=float)

    def exact_gradient(self, w):
        return np.asarray(w, dtype=float) - self.w_star

    def exact_excess_risk(self, w):
        v = np.atleast_2d(np.asarray(w, dtype=float) - self.w_star)
        out = 0.5 * (v * v).sum(axis=1)
        return float(out[0]) if np.ndim(w) == 1 else out
