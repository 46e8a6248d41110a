"""Loss models: hand-evaluated examples, finite-difference oracles, and
convexity/regularizer consistency."""

import ast
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import robustgd.models as models
from robustgd.models import (
    Dataset,
    LinearModel,
    LogisticModel,
    empirical_risk,
    loss_and_grad_rows,
    misclassification_rate,
    row_arrays,
    _logsumexp_rows,
)

from oracles import (
    CountingNumpy,
    finite_difference_gradient,
    logistic_rows_oracle,
    stacked_rows_reference,
)


def random_logistic(seed=0, classes=3, features=2, n=20, reg=0.0):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.5, size=(classes - 1) * features)
    model = LogisticModel(classes, features, w, reg_strength=reg)
    ds = Dataset(rng.normal(size=(n, features)),
                 rng.integers(classes, size=n))
    return model, ds


class TestLinearModel:
    def test_zero_loss_at_truth(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=4)
        X = rng.normal(size=(9, 4))
        ds = Dataset(X, X @ w)
        losses, G = loss_and_grad_rows(LinearModel(w), ds)
        assert np.allclose(losses, 0.0, atol=1e-20)
        assert np.allclose(G, 0.0, atol=1e-10)

    def test_hand_evaluated_single_row(self):
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([0.0]))
        losses, G = loss_and_grad_rows(LinearModel(np.array([1.0, 0.0])), ds)
        assert losses[0] == pytest.approx(0.5)
        assert np.allclose(G[0], [1.0, 0.0])

    def test_row_mean_is_empirical_gradient(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=3)
        ds = Dataset(rng.normal(size=(30, 3)), rng.normal(size=30))
        _, G = loss_and_grad_rows(LinearModel(w), ds)
        fd = finite_difference_gradient(
            lambda v: empirical_risk(LinearModel(v), ds), w)
        assert np.allclose(G.mean(axis=0), fd, rtol=1e-6, atol=1e-8)

    def test_dimension_mismatch(self):
        ds = Dataset(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            loss_and_grad_rows(LinearModel(np.ones(4)), ds)


class TestLogisticModel:
    def test_row_gradients_match_finite_differences(self):
        model, ds = random_logistic(seed=3)
        _, G = loss_and_grad_rows(model, ds)
        for i in [0, 7, 19]:
            row = Dataset(ds.inputs[[i]], ds.targets[[i]])

            def row_loss(w):
                return loss_and_grad_rows(model.with_weights(w), row)[0][0]

            fd = finite_difference_gradient(row_loss, model.weights)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(G[i] - fd) / denom) < 1e-5

    @pytest.mark.parametrize("model_seed", range(5))
    def test_mean_gradient_matches_finite_differences(self, model_seed):
        model, ds = random_logistic(seed=model_seed, reg=0.01)
        _, G = loss_and_grad_rows(model, ds)
        fd = finite_difference_gradient(
            lambda w: empirical_risk(model.with_weights(w), ds), model.weights)
        assert np.max(np.abs(G.mean(axis=0) - fd)) < 1e-6 * (1 + np.abs(fd).max())

    def test_regularizer_adds_two_a_w_to_every_row(self):
        model, ds = random_logistic(seed=4)
        reg = LogisticModel(model.classes, model.features, model.weights,
                            reg_strength=0.7)
        _, G0 = loss_and_grad_rows(model, ds)
        _, G1 = loss_and_grad_rows(reg, ds)
        assert np.allclose(G1 - G0, 2 * 0.7 * model.weights, atol=1e-12)

    def test_convexity_midpoint_inequality(self):
        model, ds = random_logistic(seed=5, reg=0.001)
        rng = np.random.default_rng(6)
        for _ in range(5):
            w1 = rng.normal(size=model.dim)
            w2 = rng.normal(size=model.dim)
            mid = empirical_risk(model.with_weights(0.5 * (w1 + w2)), ds)
            avg = 0.5 * (empirical_risk(model.with_weights(w1), ds)
                         + empirical_risk(model.with_weights(w2), ds))
            assert mid <= avg + 1e-12

    def test_linear_convexity_midpoint_inequality(self):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.normal(size=(25, 3)), rng.normal(size=25))
        for _ in range(5):
            w1 = rng.normal(size=3)
            w2 = rng.normal(size=3)
            mid = empirical_risk(LinearModel(0.5 * (w1 + w2)), ds)
            avg = 0.5 * (empirical_risk(LinearModel(w1), ds)
                         + empirical_risk(LinearModel(w2), ds))
            assert mid <= avg + 1e-12

    def test_weight_shape_validation(self):
        with pytest.raises(ValueError):
            LogisticModel(3, 2, np.zeros(5))
        with pytest.raises(ValueError):
            LogisticModel(3, 2, np.zeros(4), reg_strength=-1.0)

    def test_label_range_validation(self):
        model, _ = random_logistic()
        ds = Dataset(np.ones((2, 2)), np.array([0, 3]))
        with pytest.raises(ValueError):
            loss_and_grad_rows(model, ds)


def bits(a):
    """The float64 bit patterns, so nan payloads and signed zeros count."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def lse_cases(n, C, seed):
    """(n, C) score matrices cycling through hard row kinds: plain, ties and
    all-equal rows, scores near +-700 and +-1e308, and rows holding inf,
    -inf or nan."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, C))
    kinds = [
        base,
        np.round(2.0 * base) / 2.0,
        np.repeat(base[:, :1], C, axis=1),
        700.0 + base,
        -700.0 + base,
        np.concatenate([700.0 + base[:, :1], -700.0 + base[:, 1:]], axis=1),
        1e308 * np.clip(base, -1.7, 1.7),
        np.concatenate([np.full((n, 1), 1.7e308), np.full((n, C - 1), -1.7e308)], axis=1),
    ]
    for special in (np.inf, -np.inf, np.nan):
        a = base.copy()
        a[np.arange(n), rng.integers(C, size=n)] = special
        kinds.append(a)
        kinds.append(np.full((n, C), special))
    mixed = np.concatenate(kinds, axis=0)[rng.permutation(len(kinds) * n)]
    return kinds + [mixed]


class TestLogSumExp:
    @pytest.mark.parametrize("n", [1, 10, 2000])
    @pytest.mark.parametrize("C", [2, 3, 4, 5])
    def test_bit_identical_to_scipy(self, n, C):
        for a in lse_cases(n, C, seed=100 * n + C):
            with np.errstate(all="ignore"):
                want = logsumexp(a, axis=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _logsumexp_rows(a)
            assert np.array_equal(bits(got), bits(want))


class TestLogisticKernel:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), classes=st.integers(2, 5), features=st.integers(1, 6),
           scale=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           reg=st.one_of(st.just(0.0), st.floats(1e-8, 10.0)),
           dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_oracle(self, n, classes, features, scale, reg, dtype, seed):
        rng = np.random.default_rng(seed)
        w = scale * rng.normal(size=(classes - 1) * features)
        model = LogisticModel(classes, features, w, reg_strength=reg)
        ds = Dataset(rng.normal(size=(n, features)),
                     rng.integers(classes, size=n).astype(dtype))
        losses, G = loss_and_grad_rows(model, ds)
        want_losses, want_G = logistic_rows_oracle(model, ds)
        assert np.array_equal(losses, want_losses)
        assert np.array_equal(G, want_G)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights_match_oracle(self, bad):
        model, ds = random_logistic(seed=4, classes=4, features=3, n=30, reg=1e-3)
        model.weights[[1, 4]] = bad
        with np.errstate(all="ignore"):
            got = loss_and_grad_rows(model, ds)
            want = logistic_rows_oracle(model, ds)
        for g, o in zip(got, want):
            assert np.array_equal(bits(g), bits(o))

    def test_validation_kept(self):
        model, ds = random_logistic()
        with pytest.raises(ValueError, match="feature count"):
            loss_and_grad_rows(model, Dataset(np.ones((2, 3)), np.array([0, 1])))
        with pytest.raises(ValueError, match="integer class indices"):
            loss_and_grad_rows(model, Dataset(np.ones((2, 2)), np.array([0.0, 1.0])))
        with pytest.raises(ValueError, match="out of range"):
            loss_and_grad_rows(model, Dataset(np.ones((2, 2)), np.array([-1, 0])))

    def test_models_module_does_not_import_scipy(self):
        import robustgd.models as models
        tree = ast.parse(Path(models.__file__).read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert not [m for m in imported if m and m.split(".")[0] == "scipy"]


class TestGradRows:
    @pytest.mark.parametrize("kind, reg", [("linear", 0.0), ("logistic", 0.0),
                                           ("logistic", 0.3)])
    @pytest.mark.parametrize("size", [1, 10, 40])
    def test_bits_equal_loss_and_grad_rows(self, kind, reg, size):
        # grad_rows runs loss_and_grad_rows's kernel without checks or
        # losses; zeros in the inputs and weights give -0.0 gradient entries
        rng = np.random.default_rng(size)
        n, F = 40, 4
        X = rng.normal(size=(n, F))
        X[rng.random((n, F)) < 0.2] = -0.0
        if kind == "linear":
            model, y = LinearModel(np.zeros(F)), rng.normal(size=n)
        else:
            model = LogisticModel(3, F, np.zeros(2 * F), reg_strength=reg)
            y = rng.integers(3, size=n)
        X, y = row_arrays(model, Dataset(X, y))
        negative_zeros = 0
        for _ in range(30):
            idx = rng.integers(n, size=size)
            w = rng.normal(size=model.dim)
            w[rng.random(model.dim) < 0.3] = -0.0
            got = model.grad_rows(w, X[idx], y[idx])
            _, want = loss_and_grad_rows(model.with_weights(w), Dataset(X[idx], y[idx]))
            assert np.array_equal(bits(got), bits(want))
            negative_zeros += int(np.sum((got == 0) & np.signbit(got)))
        assert negative_zeros > 0

    def test_row_arrays_casts_linear_targets_once(self):
        X, y = row_arrays(LinearModel(np.zeros(2)), Dataset(np.ones((3, 2)), np.arange(3)))
        assert y.dtype == float and np.array_equal(y, [0.0, 1.0, 2.0])
        _, y = row_arrays(LogisticModel(3, 2, np.zeros(4)),
                          Dataset(np.ones((3, 2)), np.arange(3, dtype=np.uint8)))
        assert y.dtype == np.uint8

    def test_unsupported_model_rejected(self):
        with pytest.raises(TypeError, match="unsupported model type"):
            row_arrays(object(), Dataset(np.ones((3, 2)), np.ones(3)))


class TestGradRowsTrialAxis:
    @pytest.mark.parametrize("n", [1, 10, 500])
    @pytest.mark.parametrize("d", [1, 2, 5, 32, 128])
    @pytest.mark.parametrize("T", [1, 3, 20])
    def test_bits_equal_the_per_trial_glue(self, T, d, n):
        # the linear kernel over a trial axis against each trial's own
        # loss_and_grad_rows; at d = 1 the row mean reduces a contiguous
        # axis, where numpy sums pairwise
        rng = np.random.default_rng(1000 * T + 10 * d + n)
        X = rng.standard_t(2.0, size=(T, n, d))
        X[rng.random(X.shape) < 0.1] = -0.0
        y = rng.normal(size=(T, n))
        W = rng.normal(size=(T, d))
        model = LinearModel(np.zeros(d))
        blocks, means, D = stacked_rows_reference(
            model, [Dataset(Xk, yk) for Xk, yk in zip(X, y)], W)
        G = model.grad_rows(W, X, y)
        assert G.shape == (T, n, d)
        assert np.array_equal(bits(G), bits(np.stack(blocks)))
        assert np.array_equal(bits(G.mean(axis=1)), bits(means))
        # the (T d, n) copy the robust solve reads, against the hstack
        assert np.array_equal(bits(G.transpose(0, 2, 1).reshape(-1, n).T), bits(D))

    @pytest.mark.parametrize("classes", [2, 3, 4, 5])
    @pytest.mark.parametrize("reg", [0.0, 0.01])
    @pytest.mark.parametrize("scores", ["plain", "near_700", "non_finite"])
    def test_logistic_bits_equal_the_lone_calls(self, classes, reg, scores):
        # a trial axis against each trial's 2-D call, and (n, 1, F) one-row
        # items against the n one-row calls; at scores near +-700 the class
        # probabilities underflow, and non-finite weights send rows through
        # the log-sum-exp fallback
        rng = np.random.default_rng(10 * classes + int(reg > 0))
        T, n, F = 3, 25, 4
        model = LogisticModel(classes, F, np.zeros((classes - 1) * F), reg_strength=reg)
        X = rng.normal(size=(T, n, F))
        X[rng.random(X.shape) < 0.1] = -0.0
        y = rng.integers(classes, size=(T, n))
        W = rng.normal(size=(T, model.dim))
        if scores == "near_700":
            X[..., 0] = rng.choice([-1.0, 1.0], size=(T, n))
            W[:, ::F] = 700.0 + rng.normal(size=(T, classes - 1))
        elif scores == "non_finite":
            W[0, 1], W[1, 0], W[2, -1] = np.inf, -np.inf, np.nan
        with np.errstate(all="ignore"):
            G = model.grad_rows(W, X, y)
            alone = [model.grad_rows(*trial) for trial in zip(W, X, y)]
            one_row = model.grad_rows(W[1], X[1][:, None, :], y[1][:, None])
            lone = [model.grad_rows(W[1], X[1, i:i + 1], y[1, i:i + 1]) for i in range(n)]
        assert G.shape == (T, n, model.dim) and one_row.shape == (n, 1, model.dim)
        assert np.array_equal(bits(G), bits(np.stack(alone)))
        assert np.array_equal(bits(one_row), bits(np.stack(lone)))
        if scores == "near_700":
            assert np.abs(model._scores(W[0], X[0])).max() > 690
        if scores == "non_finite":
            assert np.isnan(G).any()

    @pytest.mark.parametrize("T", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 2, 40])
    @pytest.mark.parametrize("weights", ["plain", "non_finite"])
    def test_column_copy_gives_the_same_bits(self, T, d, weights):
        # against X's C-ordered (T, d, n) copy the linear kernel writes its
        # rows in (T, d, n) memory and returns their (T, n, d) view
        rng = np.random.default_rng(10 * T + d)
        n = 30
        X = rng.normal(size=(T, n, d))
        X[rng.random(X.shape) < 0.1] = -0.0
        y = rng.normal(size=(T, n))
        W = rng.normal(size=(T, d))
        W[rng.random(W.shape) < 0.2] = -0.0
        if weights == "non_finite":
            W[0, 0], W[-1, -1] = np.inf, np.nan
        model, Xt = LinearModel(np.zeros(d)), np.ascontiguousarray(X.transpose(0, 2, 1))
        with np.errstate(all="ignore"):
            want = model.grad_rows(W, X, y)
            got = model.grad_rows(W, X, y, Xt)
        assert got.shape == want.shape == (T, n, d)
        assert got.transpose(0, 2, 1).flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))

    def test_dataset_stores_c_ordered_inputs(self):
        # X @ w has different bits for C- and F-ordered X
        X = np.asfortranarray(np.random.default_rng(0).normal(size=(50, 3)))
        ds = Dataset(X, np.zeros(50))
        assert ds.inputs.flags.c_contiguous and np.array_equal(ds.inputs, X)


def one_row_cases(classes, seed):
    """(w, x) pairs whose k = classes - 1 scores are the first k columns of
    the ``lse_cases`` rows, plus all-zero scores that tie the reference
    class.  x is k ones, a -0.0 and a normal draw; w puts each score on its
    own one, -0.0 against the normal draw and a normal draw against the
    -0.0, so the gradient rows hold signed zeros."""
    k = classes - 1
    rng = np.random.default_rng(seed)
    rows = np.concatenate(lse_cases(3, classes, seed)[:-1] + [np.zeros((1, classes))])
    x = np.concatenate([np.ones(k), [-0.0, rng.normal()]])
    out = []
    for scores in rows[:, :k]:
        W = np.zeros((k, k + 2))
        W[np.arange(k), np.arange(k)] = scores
        W[:, k] = rng.normal(size=k)
        W[:, k + 1] = -0.0
        out.append((W.ravel(), x))
    return out


class TestOneRow:
    """A 1-D w against one (1, F) row runs ``LogisticModel._one_row``."""

    @pytest.mark.parametrize("classes", [2, 3, 4, 5])
    @pytest.mark.parametrize("reg", [0.0, 0.05])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_bits_equal_rows_and_oracle_on_hard_rows(self, classes, reg, dtype):
        # every label, the reference class's included; where _rows is
        # silent the branch must be too
        model = LogisticModel(classes, classes + 1, np.zeros((classes - 1) * (classes + 1)),
                              reg_strength=reg)
        silent = 0
        for w, x in one_row_cases(classes, seed=classes):
            X = x[None]
            for label in range(classes):
                y = np.array([label], dtype=dtype)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    want = model._rows(w, X, y, False)[1]
                with warnings.catch_warnings():
                    warnings.simplefilter("error" if not caught else "ignore")
                    got = model.grad_rows(w, X, y)
                silent += not caught
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore")
                    _, oracle = logistic_rows_oracle(model.with_weights(w), Dataset(X, y))
                assert got.shape == (1, model.dim)
                assert np.array_equal(bits(got), bits(want))
                assert np.array_equal(bits(got), bits(oracle))
        assert silent > 0

    @pytest.mark.parametrize("classes", [2, 3, 10, 50])
    def test_bits_equal_rows_on_random_rows(self, classes):
        rng = np.random.default_rng(classes)
        F = 6
        model = LogisticModel(classes, F, np.zeros((classes - 1) * F), reg_strength=0.3)
        for i in range(300):
            w = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=model.dim)
            X = rng.normal(size=(1, F))
            if i % 3 == 0:  # rounded entries tie scores
                w, X = np.round(w), np.round(X)
            w[rng.random(model.dim) < 0.2] = -0.0
            X[rng.random((1, F)) < 0.2] = -0.0
            y = rng.integers(classes, size=1)
            assert np.array_equal(bits(model.grad_rows(w, X, y)),
                                  bits(model._rows(w, X, y, False)[1]))

    def test_only_non_finite_rows_enter_rows(self, monkeypatch):
        model, ds = random_logistic(seed=2, classes=3, features=4, n=5)
        X, y = row_arrays(model, ds)
        entered = []
        rows = LogisticModel._rows

        def counted(self, *args):
            entered.append(args[1].shape)
            return rows(self, *args)

        monkeypatch.setattr(LogisticModel, "_rows", counted)
        model.grad_rows(model.weights, X[:1], y[:1])
        assert entered == []
        # a non-finite first score, and a nan second one that max and min
        # skip, which the log-sum-exp check catches
        for i, bad in ((1, np.inf), (1, -np.inf), (1, np.nan), (5, np.nan)):
            w = model.weights.copy()
            w[i] = bad
            with np.errstate(all="ignore"):
                model.grad_rows(w, X[:1], y[:1])
        # finite scores whose spread overflows
        w = np.zeros(model.dim)
        w[0], w[4] = 1e308, -1e308
        with np.errstate(over="ignore"):
            model.grad_rows(w, np.array([[1.7, 0.0, 0.0, 0.0]]), y[:1])
        # every other shape: n rows, a trial axis, one-row items
        model.grad_rows(model.weights, X, y)
        model.grad_rows(model.weights[None], X[None, :1], y[None, :1])
        model.grad_rows(model.weights, X[:1, None, :], y[:1, None])
        assert entered == [(1, 4)] * 5 + [(5, 4), (1, 1, 4), (1, 1, 4)]

    def test_finite_row_never_enters_rows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_rows entered")

        monkeypatch.setattr(LogisticModel, "_rows", refuse)
        for classes in (2, 3, 10):
            model, ds = random_logistic(seed=classes, classes=classes, features=5,
                                        n=50, reg=0.1)
            X, y = row_arrays(model, ds)
            for i in range(50):
                model.grad_rows(model.weights, X[i:i + 1], y[i:i + 1])

    @pytest.mark.parametrize("reg", [0.0, 0.05])
    def test_numpy_calls_of_a_one_row_call_pinned(self, monkeypatch, reg):
        # a one-row call costs its calls into numpy, not its arithmetic;
        # array operators and array methods (tolist, reshape, +=) do not go
        # through ``np`` and are not counted
        model, ds = random_logistic(seed=1, classes=3, features=20, n=1, reg=reg)
        X, y = row_arrays(model, ds)
        branch, kernel = Counter(), Counter()
        monkeypatch.setattr(models, "np", CountingNumpy(branch))
        model.grad_rows(model.weights, X, y)
        monkeypatch.setattr(models, "np", CountingNumpy(kernel))
        model._rows(model.weights, X, y, False)
        assert sum(branch.values()) == 6, branch
        assert sum(kernel.values()) == 12, kernel


class TestPrediction:
    def test_zero_weights_tie_break_picks_lowest_class(self):
        # all scores are zero; argmax resolves ties to class 0
        model = LogisticModel(2, 3, np.zeros(3))
        X = np.ones((10, 3))
        assert misclassification_rate(model, Dataset(X, np.zeros(10, dtype=int))) == 0.0
        ds = Dataset(X, np.array([0] * 5 + [1] * 5))
        assert misclassification_rate(model, ds) == pytest.approx(0.5)

    def test_separable_two_points(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([0, 1])
        model = LogisticModel(2, 1, np.array([4.0]))
        assert misclassification_rate(model, Dataset(X, y)) == 0.0

    def test_hand_enumerated_rates(self):
        # three classes, two features, fixed weights; scores enumerated by hand
        w = np.array([[1.0, 0.0],   # class 0
                      [0.0, 1.0]])  # class 1; class 2 scores 0
        model = LogisticModel(3, 2, w.ravel())
        X = np.array([[2.0, 0.0],    # scores (2, 0, 0)  -> class 0
                      [0.0, 3.0],    # scores (0, 3, 0)  -> class 1
                      [-1.0, -1.0],  # scores (-1, -1, 0) -> class 2
                      [1.0, 1.0]])   # scores (1, 1, 0)  -> tie -> class 0
        assert misclassification_rate(model, Dataset(X, np.array([0, 1, 2, 0]))) == 0.0
        ds = Dataset(X, np.array([0, 1, 2, 1]))
        assert misclassification_rate(model, ds) == pytest.approx(0.25)
