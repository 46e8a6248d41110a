"""Kernel probes: per-call median time of public layer functions, fed with
inputs captured during a traced pass (solver iteration counts depend on the
data, so random inputs would mislead).

Bytes moved per call are computed from array sizes, not measured:
- ``rescale_columns`` / ``locate_columns``: 8 n k (evaluations + 1), one read
  of the (n, k) matrix per chi or psi evaluation plus the initial pass;
- ``loss_and_grad_rows``: 8 bytes per element of the inputs, targets,
  losses and gradient rows, each touched once;
- ``geometric_median``: 8 k d per iteration, one read of the points.
"""

import copy
import statistics
import time

import numpy as np

from tracing import patched, resolve

# probe family -> shapes ROADMAP item 1 lists
SHAPES = {
    "rescale_columns": ("500x2", "10x40", "2000x40", "500x128"),
    "locate_columns": ("500x2", "10x40", "2000x40", "500x128"),
    "loss_and_grad_rows": ("linear_500x2", "logistic_1x20", "logistic_10x20",
                           "logistic_2000x20"),
    "geometric_median": ("125x2",),
}
MAX_CAPTURES = 6
BUDGET_S = 0.25  # timed calls per probe, at least MIN_ROUNDS over every capture
MIN_ROUNDS = 3


def names():
    return [f"probe.{fam}.{shape}.{stat}" for fam, shapes in SHAPES.items()
            for shape in shapes for stat in ("us_p50", "bytes_computed")]


def _key(name, args):
    """Probe (family, shape) an intercepted call belongs to, or None."""
    fam = name.rpartition(".")[2]
    if fam in ("rescale_columns", "locate_columns", "geometric_median"):
        shape = "x".join(map(str, np.shape(args[0])))
    elif fam == "loss_and_grad_rows":
        model, ds = args[0], args[1]
        kind = type(model).__name__.replace("Model", "").lower()
        shape = f"{kind}_{ds.n}x{ds.n_features}"
    else:
        return None
    return (fam, shape) if shape in SHAPES.get(fam, ()) else None


class Capture:
    """Keeps copies of a probe's inputs at call numbers 1, 4, 16, 64, ... of
    each (family, shape), so captures span the pass, not only its start."""

    def __init__(self):
        self.seen = {}
        self.inputs = {}

    def __call__(self, name, args, kwargs):
        key = _key(name, args)
        if key is None:
            return
        k = self.seen[key] = self.seen.get(key, 0) + 1
        if k & (k - 1) == 0 and (k.bit_length() - 1) % 2 == 0:
            kept = self.inputs.setdefault(key, [])
            if len(kept) < MAX_CAPTURES:
                kept.append(copy.deepcopy((args, kwargs)))


def _counted(fn, owner_path, attr, args, kwargs):
    """Evaluations of owner.attr during one call of fn."""
    owner = resolve(owner_path)
    original = owner.__dict__[attr]
    calls = [0]

    def counting(*a, **k):
        calls[0] += 1
        return original(*a, **k)

    with patched([(owner, attr, counting)]):
        fn(*args, **kwargs)
    return calls[0]


def _gm_iterations(fn, args, kwargs):
    """Iterations geometric_median runs: the smallest cap that reproduces
    the uncapped result bit for bit."""
    full = fn(*args, **kwargs)
    cap = kwargs.get("max_iters", 1000)
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if np.array_equal(fn(*args, **{**kwargs, "max_iters": mid}), full):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bytes(fam, fn, args, kwargs):
    if fam == "rescale_columns":
        n, k = np.shape(args[0])
        return 8 * n * k * (_counted(fn, "robustgd.mest.ChiFunction", "chi", args, kwargs) + 1)
    if fam == "locate_columns":
        n, k = np.shape(args[0])
        return 8 * n * k * (_counted(fn, "robustgd.mest.RhoFunction", "psi", args, kwargs) + 1)
    if fam == "loss_and_grad_rows":
        losses, G = fn(*args, **kwargs)
        ds = args[1]
        return 8 * (ds.inputs.size + np.size(ds.targets) + losses.size + G.size)
    k, d = np.shape(args[0])
    return 8 * k * d * _gm_iterations(fn, args, kwargs)


def run(capture):
    """{probe metric: value}; probes of shapes the pass never produced
    read 0."""
    fns = {"rescale_columns": resolve("robustgd.mest").rescale_columns,
           "locate_columns": resolve("robustgd.mest").locate_columns,
           "loss_and_grad_rows": resolve("robustgd.models").loss_and_grad_rows,
           "geometric_median": resolve("robustgd.optim").geometric_median}
    out = dict.fromkeys(names(), 0.0)
    clock = time.perf_counter
    for (fam, shape), inputs in sorted(capture.inputs.items()):
        fn = fns[fam]
        nbytes = [_bytes(fam, fn, a, k) for a, k in inputs]
        times = []
        t_end = clock() + BUDGET_S
        rounds = 0
        while rounds < MIN_ROUNDS or clock() < t_end:
            for a, k in inputs:
                t0 = clock()
                fn(*a, **k)
                times.append(clock() - t0)
            rounds += 1
        prefix = f"probe.{fam}.{shape}"
        out[f"{prefix}.us_p50"] = statistics.median(times) * 1e6
        out[f"{prefix}.bytes_computed"] = statistics.fmean(nbytes)
    return out
