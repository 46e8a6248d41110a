"""Differentiable loss models producing per-observation gradient rows.

Two models: linear regression under squared loss, and multiclass logistic
regression with a fixed zero reference class and squared-l2 regularization.
Every model exposes the per-row losses and gradients so the robust gradient
estimator can summarize them column-wise; the row mean always equals the
(regularized) empirical risk gradient.

Each model has one row kernel at explicit weights.  ``loss_and_grad_rows``
checks a dataset against the model (``row_arrays``) and runs the kernel with
losses; ``model.grad_rows(w, X, y)`` runs it on plain arrays with no checks
and no losses, for descent loops that check their data once at entry and
then index rows of it every step.  Both give the same gradient bits.  Both
kernels also take leading axes: a stacked full-batch descent builds every
trial's rows in one call, and svrg builds a snapshot's n one-row gradients
in one call over (n, 1, F) inputs.  A ``Dataset`` stores its inputs
C-ordered, so a trial's rows have the same bits stacked or alone.  A
stacked descent also hands the kernels its inputs' C-ordered (T, F, n)
copy.  The linear kernel writes its outer products against the copy in
(T, d, n) memory, the layout the robust solve reads, and still takes the
residuals from the C-ordered X, whose memory order fixes a matmul's bits;
the logistic kernel ignores the copy, as no stacked classification run
is made by ``bench``.

A stochastic step's logistic call, a 1-D w against one (1, F) row, takes a
one-row branch: its few class scores go through the log-sum-exp as Python
floats, and numpy is called only where the bits are numpy's.  The branch
has the array kernel's bits; a row whose scores, score spread or
log-sum-exp is not finite goes to the array kernel, whose fallback handles
it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass
class Dataset:
    """Observations: (n, F) inputs and n targets (real or class index).

    The inputs are stored C-ordered: the bits of ``X @ w`` depend on X's
    memory order, and a stack of datasets is C-ordered too.  A stacked
    descent keeps a (T, F, n) copy of the stack beside it for the linear
    kernel's outer products, never for its matmul: at d = 3, 5, 32 and
    128 a gemv on the transposed view gives other bits.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be an (n, F) matrix")
        if self.inputs.shape[0] < 1:
            raise ValueError("need at least one observation")
        if len(self.targets) != self.inputs.shape[0]:
            raise ValueError("inputs and targets disagree on n")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite entries")

    @property
    def n(self):
        return self.inputs.shape[0]

    @property
    def n_features(self):
        return self.inputs.shape[1]


@dataclass
class LinearModel:
    """Linear predictor scored by squared error / 2."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be a finite 1-D vector")

    @property
    def dim(self):
        return self.weights.shape[0]

    def with_weights(self, w):
        return replace(self, weights=np.asarray(w, dtype=float))

    def grad_rows(self, w, X, y, Xt=None):
        """(n, d) gradient rows at weights ``w`` for inputs X and float
        targets y, unchecked (see ``row_arrays``).  Over a leading trial
        axis, ``w`` (T, d), X (T, n, d) and y (T, n), the (T, n, d) rows of
        every trial, each with the bits of its own call.  Given ``Xt``, X's
        C-ordered (..., F, n) copy, the rows are written in (..., d, n)
        memory and returned as the (..., n, d) view, with the same bits;
        the residuals still come from X."""
        return self._rows(w, X, y, False, Xt)[1]

    def _rows(self, w, X, y, want_loss, Xt=None):
        # against w as a column, matmul makes per trial the gemv call X @ w
        # makes; it always reads the C-ordered X, as a gemv's bits depend on
        # the memory order
        r = np.matmul(X, w[..., None])[..., 0] - y
        G = r[..., None] * X if Xt is None else (r[..., None, :] * Xt).swapaxes(-1, -2)
        return (0.5 * r * r if want_loss else None), G


@dataclass
class LogisticModel:
    """Multiclass logistic regression with class C-1 as the zero-scored
    reference, so d = (classes - 1) * features free parameters.

    ``reg_strength`` a adds a * ||w||^2 to every observation's loss (and
    2 a w to every gradient row), keeping each row an unbiased sample of the
    regularized risk gradient.
    """

    classes: int
    features: int
    weights: np.ndarray
    reg_strength: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.weights.shape[0] != (self.classes - 1) * self.features:
            raise ValueError("weights must have length (classes - 1) * features")
        if self.reg_strength < 0:
            raise ValueError("reg_strength must be non-negative")

    @property
    def dim(self):
        return self.weights.shape[0]

    def with_weights(self, w):
        return replace(self, weights=np.asarray(w, dtype=float))

    def _scores(self, w, X):
        """(..., classes) decision scores; the reference class scores zero."""
        # per item, matmul makes the BLAS call X @ w.reshape(k, F).T makes
        k = self.classes - 1
        out = np.empty(X.shape[:-1] + (k + 1,))
        out[..., :k] = np.matmul(X, w.reshape(w.shape[:-1] + (k, self.features))
                                 .swapaxes(-1, -2))
        out[..., k] = 0.0
        return out

    def grad_rows(self, w, X, y, Xt=None):
        """(n, d) gradient rows at weights ``w`` for inputs X and class
        indices y, unchecked (see ``row_arrays``).  Leading axes broadcast,
        each item with the bits of its own call: w (T, d) for a trial axis,
        or one w against X (n, 1, F) for n one-row calls.  ``Xt``, the
        column copy a stacked descent passes (``LinearModel.grad_rows``),
        is ignored: the rows are C-ordered.  A 1-D w against one (1, F)
        row, a stochastic step's call, runs ``_one_row`` with ``_rows``'
        bits; a row whose scores, score spread or log-sum-exp is not finite
        goes to ``_rows``."""
        if w.ndim == 1 and X.ndim == 2 and X.shape[0] == 1:
            G = self._one_row(w, X, int(y[0]))
            if G is not None:
                return G
        return self._rows(w, X, y, False)[1]

    def _one_row(self, w, X, label):
        """``_rows``' gradient row of one (1, F) row, or None where a score,
        the score spread or the log-sum-exp is not finite.  numpy makes
        the scores, the exps, their sum, log1p, the log of a tie count,
        the outer product and the regularizer, each as ``_rows`` makes it;
        the maximum, tie count, shifts, one-hot and the log-sum-exp's
        additions run on Python floats, whose IEEE operations have the
        same bits."""
        k = self.classes - 1
        # the matmul call _scores makes
        full, = np.matmul(X, w.reshape(k, self.features).T).tolist()
        full.append(0.0)  # the reference class
        top = max(full)
        # catches inf, an overflowing spread and a nan that max or min
        # returns; a nan they skip makes the exp sum and the lse nan
        if not math.isfinite(top - min(full)):
            return None
        m = full.count(top)
        # the maxima's exps are left out (exp(-inf) = 0) and counted in m
        s = float(np.add.reduce(np.exp([-math.inf if v == top else v - top
                                        for v in full])))
        lse = float(np.log1p(s / m))
        if m > 1:
            # at m = 1, _rows adds log(1) = +0.0 to a log1p >= +0.0: no bit moves
            lse += float(np.log(m))
        lse += top
        if not math.isfinite(lse):
            return None
        p = np.exp([v - lse for v in full[:k]])  # class probabilities
        if label < k:
            p[label] -= 1.0
        G = np.multiply.outer(p, X).reshape(1, w.shape[0])
        a = self.reg_strength
        if a > 0:
            G += 2.0 * a * w
        return G

    def _rows(self, w, X, y, want_loss):
        k = self.classes - 1
        full = self._scores(w, X)
        lse = _logsumexp_rows(full)
        losses = lse - full[np.arange(len(y)), y] if want_loss else None  # 2-D only
        p = np.exp(full[..., :k] - lse[..., None])  # class probabilities
        p -= y[..., None] == np.arange(k)  # one-hot of y; the reference class has none
        G = (p[..., None] * X[..., None, :]).reshape(X.shape[:-1] + w.shape[-1:])
        a = self.reg_strength
        if a > 0:
            if want_loss:
                losses = losses + a * w @ w
            G += 2.0 * a * w[..., None, :]
        return losses, G


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=-1)) for a float array, bit-identical to
    ``scipy.special.logsumexp(a, axis=-1)``: the row maxima are taken out of
    the shifted exp-sum s and counted as m, giving log1p(s/m) + log(m) + max.
    Rows whose result is not finite (an inf or nan score) take log(sum(exp))
    directly, as scipy does.  Reductions are the ufuncs' own, unwrapped."""
    top = np.maximum.reduce(a, -1)
    at_top = a == top[..., None]
    # inf - inf and 0 / 0 only arise on rows that end in the fallback; an
    # overflowing a - max is -inf, whose exp is 0 as in scipy
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e = np.exp(a - top[..., None])
        e[at_top] = 0.0
        m = np.add.reduce(at_top, -1, dtype=float)  # exact counts, as floats
        out = np.log1p(np.add.reduce(e, -1) / m) + np.log(m) + top
        if not np.isfinite(out).all():
            bad = ~np.isfinite(out)
            out[bad] = np.log(np.add.reduce(np.exp(a[bad]), -1))
    return out


def row_arrays(model, dataset):
    """The dataset's inputs and targets as the model's row kernel takes
    them: float targets for the linear model, class indices for the
    logistic one.  Raises ValueError when the data does not fit the model;
    ``grad_rows`` checks nothing, so its callers check here once, before
    their first step."""
    X = dataset.inputs
    if isinstance(model, LinearModel):
        if X.shape[1] != model.dim:
            raise ValueError("feature count does not match model dimension")
        return X, np.asarray(dataset.targets, dtype=float)
    if isinstance(model, LogisticModel):
        y = np.asarray(dataset.targets)
        if X.shape[1] != model.features:
            raise ValueError("feature count does not match model features")
        if y.dtype.kind not in "iu":
            raise ValueError("classification targets must be integer class indices")
        if y.min() < 0 or y.max() >= model.classes:
            raise ValueError("class index out of range")
        return X, y
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def loss_and_grad_rows(model, dataset):
    """Per-observation losses and gradient rows at the model's weights.

    Returns (losses, G) with losses (n,) and G (n, d); the mean of G over
    rows is the gradient of the (regularized) empirical risk.
    """
    X, y = row_arrays(model, dataset)
    return model._rows(model.weights, X, y, True)


def misclassification_rate(model, dataset):
    """Fraction of observations whose argmax class (lowest index wins ties)
    under a ``LogisticModel`` disagrees with the label."""
    preds = np.argmax(model._scores(model.weights, dataset.inputs), axis=1)
    return float(np.mean(preds != np.asarray(dataset.targets)))


def empirical_risk(model, dataset):
    """Mean per-observation loss at the model's weights."""
    losses, _ = loss_and_grad_rows(model, dataset)
    return float(losses.mean())
