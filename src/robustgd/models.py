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
then index rows of it every step.  Both give the same gradient bits.  The
linear kernel also takes a leading trial axis, so a stacked full-batch
descent builds every trial's rows in one call; a ``Dataset`` stores its
inputs C-ordered, so a trial's rows have the same bits stacked or alone.
"""

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class Dataset:
    """Observations: (n, F) inputs and n targets (real or class index).

    The inputs are stored C-ordered: the bits of ``X @ w`` depend on X's
    memory order, and a stack of datasets is C-ordered too.
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

    def grad_rows(self, w, X, y):
        """(n, d) gradient rows at weights ``w`` for inputs X and float
        targets y, unchecked (see ``row_arrays``).  Over a leading trial
        axis, ``w`` (T, d), X (T, n, d) and y (T, n), the (T, n, d) rows of
        every trial, each with the bits of its own call."""
        return self._rows(w, X, y, False)[1]

    def _rows(self, w, X, y, want_loss):
        # against w as a column, matmul makes per trial the gemv call X @ w makes
        r = np.matmul(X, w[..., None])[..., 0] - y
        return (0.5 * r * r if want_loss else None), r[..., None] * X


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

    def scores(self, inputs):
        """(n, classes) decision scores; the reference class scores zero."""
        return self._scores(self.weights, inputs)

    def _scores(self, w, X):
        k = self.classes - 1
        out = np.empty((X.shape[0], k + 1))
        out[:, :k] = X @ w.reshape(k, self.features).T
        out[:, k] = 0.0
        return out

    def grad_rows(self, w, X, y):
        """(n, d) gradient rows at weights ``w`` for inputs X and class
        indices y, unchecked (see ``row_arrays``)."""
        return self._rows(w, X, y, False)[1]

    def _rows(self, w, X, y, want_loss):
        n, k = X.shape[0], self.classes - 1
        full = self._scores(w, X)
        lse = _logsumexp_rows(full)
        losses = lse - full[np.arange(n), y] if want_loss else None
        p = np.exp(full[:, :k] - lse[:, None])  # (n, C-1) class probabilities
        p -= y[:, None] == np.arange(k)  # one-hot of y; the reference class has none
        G = (p[:, :, None] * X[:, None, :]).reshape(n, w.shape[0])
        a = self.reg_strength
        if a > 0:
            if want_loss:
                losses = losses + a * w @ w
            G = G + 2.0 * a * w
        return losses, G


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) for a 2-D float array, bit-identical to
    ``scipy.special.logsumexp(a, axis=1)``: the row maxima are taken out of
    the shifted exp-sum s and counted as m, giving log1p(s/m) + log(m) + max.
    Rows whose result is not finite (an inf or nan score) take log(sum(exp))
    directly, as scipy does."""
    top = a.max(axis=1)
    at_top = a == top[:, None]
    # inf - inf and 0 / 0 only arise on rows that end in the fallback; an
    # overflowing a - max is -inf, whose exp is 0 as in scipy
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e = np.exp(a - top[:, None])
        e[at_top] = 0.0
        m = at_top.sum(axis=1)
        out = np.log1p(e.sum(axis=1) / m) + np.log(m) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
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


def predict(model, dataset):
    """Predicted targets: real values for regression, argmax class (lowest
    index wins ties) for classification."""
    if isinstance(model, LinearModel):
        return dataset.inputs @ model.weights
    if isinstance(model, LogisticModel):
        return np.argmax(model.scores(dataset.inputs), axis=1)
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def misclassification_rate(model, dataset):
    """Fraction of observations whose argmax class disagrees with the label."""
    preds = predict(model, dataset)
    return float(np.mean(preds != np.asarray(dataset.targets)))


def empirical_risk(model, dataset):
    """Mean per-observation loss at the model's weights."""
    losses, _ = loss_and_grad_rows(model, dataset)
    return float(losses.mean())
