"""In-memory span tracer that wraps robustgd's public functions from outside.

Every wrapper is installed at the name its caller looks up (for example
``robustgd.optim.loss_and_grad_rows``, the name ``rgd_run`` resolves), so
the library's own files stay untouched.  A span is (name, start, end,
parent); a layer's self time is its span time minus the time its child
spans cover.  ``ChiFunction.chi`` and ``RhoFunction.psi`` are counted, not
spanned, and the counts are charged to the enclosing solver call.
"""

import gzip
import importlib
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module or class path, attribute, span name) for every public function the
# three workloads reach.  The span name's first component is the layer.
SPANNED = (
    ("robustgd.cli", "run_experiment", "bench.run_experiment"),
    ("robustgd.bench", "gen_w_star", "datagen.gen_w_star"),
    ("robustgd.bench", "gen_regression", "datagen.gen_regression"),
    ("robustgd.bench", "gen_classification", "datagen.gen_classification"),
    ("robustgd.bench", "noise_sd", "datagen.noise_sd"),
    ("robustgd.datagen", "initial_point", "datagen.initial_point"),
    ("robustgd.datagen.SyntheticRisk", "exact_excess_risk",
     "datagen.SyntheticRisk.exact_excess_risk"),
    ("robustgd.bench", "rgd_run", "optim.rgd_run"),
    ("robustgd.bench", "erm_gd_run", "optim.erm_gd_run"),
    ("robustgd.bench", "sgd_run", "optim.sgd_run"),
    ("robustgd.bench", "svrg_run", "optim.svrg_run"),
    ("robustgd.bench", "median_of_means_gd_run", "optim.median_of_means_gd_run"),
    ("robustgd.optim", "geometric_median", "optim.geometric_median"),
    ("robustgd.optim", "loss_and_grad_rows", "models.loss_and_grad_rows"),
    ("robustgd.models", "loss_and_grad_rows", "models.loss_and_grad_rows"),
    ("robustgd.bench", "empirical_risk", "models.empirical_risk"),
    ("robustgd.bench", "misclassification_rate", "models.misclassification_rate"),
    ("robustgd.optim", "column_scales", "robust_grad.column_scales"),
    ("robustgd.robust_grad", "column_scales", "robust_grad.column_scales"),
    ("robustgd.optim", "robust_gradient", "robust_grad.robust_gradient"),
    ("robustgd.robust_grad", "robust_gradient", "robust_grad.robust_gradient"),
    ("robustgd.robust_grad", "rescale_columns", "mest.rescale_columns"),
    ("robustgd.robust_grad", "locate_columns", "mest.locate_columns"),
    ("robustgd.robust_grad", "confidence_scale", "mest.confidence_scale"),
)
COUNTED = (
    ("robustgd.mest.ChiFunction", "chi", "chi"),
    ("robustgd.mest.RhoFunction", "psi", "psi"),
)
RUN_FNS = ("rgd_run", "erm_gd_run", "sgd_run", "svrg_run", "median_of_means_gd_run")
# solver span -> the counter whose evaluations it is charged with
_SOLVER_EVALS = {"mest.rescale_columns": "chi", "mest.locate_columns": "psi"}


def resolve(path):
    """Module or class object for a dotted path such as
    ``robustgd.datagen.SyntheticRisk``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


@contextmanager
def patched(replacements):
    """Install (owner, attribute, value) replacements; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Spans in flat arrays plus named counters; one instance per pass."""

    def __init__(self, capture=None):
        self.names = []  # span name per id
        self._name_id = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = []
        self.counts = {}
        self.capture = capture  # optional callback(name, args, kwargs)

    def _count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def span(self, name, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = _SOLVER_EVALS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.capture is not None:
                self.capture(name, args, kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            evals = self.counts.get(counter, 0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            self._record(name, args, out)
            if counter is not None:
                self._count(name + ".evals", self.counts.get(counter, 0) - evals)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name, args, out):
        if name in _SOLVER_EVALS:
            fell_back = out[1]
            self._count(name + ".cols", int(fell_back.size))
            self._count(name + ".fallback_cols", int(fell_back.sum()))
        elif name == "models.loss_and_grad_rows":
            self._count(name + ".rows", int(args[1].n))
        elif name.startswith("optim.") and name[len("optim."):] in RUN_FNS:
            self._count("optim.steps", int(out.steps[-1] - out.steps[0]))

    def replacements(self):
        """(owner, attribute, wrapper) for every traced lookup site."""
        out = [(resolve(p), a, self.span(n, resolve(p).__dict__[a]))
               for p, a, n in SPANNED]
        out += [(resolve(p), a, self.counter(k, resolve(p).__dict__[a]))
                for p, a, k in COUNTED]
        return out

    def self_times(self):
        """(duration, self time) arrays per span."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def write(self, path):
        """All spans as gzip CSV: name, start, end, parent (span index)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{i},{self.names[nid]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass whose outer timer read wall_s.

    Names follow <module>.<function>.<stat>.  Counts are exact; times are
    seconds except ``us_*``, which are microseconds per call.
    """
    dur, self_t = tracer.self_times()
    nid = np.frombuffer(tracer.name_of, dtype=np.int64)
    by_name = {name: idx for i, name in enumerate(tracer.names)
               if (idx := np.flatnonzero(nid == i)).size}
    counts = tracer.counts

    def calls(name):
        return int(by_name[name].size) if name in by_name else 0

    def self_s(name):
        return float(self_t[by_name[name]].sum()) if name in by_name else 0.0

    def us_p50(name):
        return float(np.median(dur[by_name[name]]) * 1e6) if name in by_name else 0.0

    def layer_self(layer, exclude=()):
        return sum(self_s(n) for n in by_name
                   if n.split(".")[0] == layer and n not in exclude)

    m = {}
    for name, counter in _SOLVER_EVALS.items():
        n_calls, cols = calls(name), counts.get(name + ".cols", 0)
        fb = counts.get(name + ".fallback_cols", 0)
        m.update({
            f"{name}.calls": n_calls, f"{name}.self_s": self_s(name),
            f"{name}.us_p50": us_p50(name), f"{name}.cols": cols,
            f"{name}.fallback_cols": fb,
            f"{name}.fallback_frac": fb / cols if cols else 0.0,
            f"{name}.{counter}_evals_per_call":
                counts.get(name + ".evals", 0) / n_calls if n_calls else 0.0,
        })
    for name in ("robust_grad.column_scales", "robust_grad.robust_gradient",
                 "models.misclassification_rate"):
        m[f"{name}.self_s"] = self_s(name)
    lg = "models.loss_and_grad_rows"
    m.update({f"{lg}.calls": calls(lg), f"{lg}.rows": counts.get(lg + ".rows", 0),
              f"{lg}.self_s": self_s(lg), f"{lg}.us_p50": us_p50(lg)})
    for fn in RUN_FNS:
        name = f"optim.{fn}"
        m[f"{name}.s"] = float(dur[by_name[name]].sum()) if name in by_name else 0.0
        m[f"{name}.calls"] = calls(name)
    steps = counts.get("optim.steps", 0)
    gm = "optim.geometric_median"
    optim_self = layer_self("optim", exclude=(gm,))
    m.update({
        "optim.steps": steps, "optim.self_s": optim_self,
        "optim.self_us_per_step": optim_self / steps * 1e6 if steps else 0.0,
        f"{gm}.calls": calls(gm), f"{gm}.self_s": self_s(gm), f"{gm}.us_p50": us_p50(gm),
        "datagen.self_s": layer_self("datagen"),
        "bench.run_experiment.self_s": self_s("bench.run_experiment"),
        "cli.main.self_s": self_s("cli.main"),
    })
    # the self times above partition the pass except for the spans no metric
    # reports (confidence_scale, empirical_risk) and the time outside cli.main
    m["trace.unattributed_s"] = wall_s - sum(v for k, v in m.items()
                                             if k.endswith("self_s"))
    return m


def median_metrics(per_pass):
    """Median of each time metric over passes; counts must repeat exactly.

    Returns (metrics, mismatched count names)."""
    out, mismatched = {}, []
    for key in per_pass[0]:
        vals = [p[key] for p in per_pass]
        if isinstance(vals[0], int):
            out[key] = vals[0]
            if any(v != vals[0] for v in vals):
                mismatched.append(key)
        else:
            out[key] = statistics.median(vals)
    return out, mismatched
