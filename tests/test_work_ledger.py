"""Exact work counts of one seed-0 pass of each benchmark workload.

Wall time on a small shared host cannot resolve gaps of a few percent, but
the work a pass does repeats exactly.  Each workload's config is built as
the benchmark builds it (``perfbench/workloads.py``) and one
``run_experiment`` pass is counted:

- numpy calls made through the ``np`` of each library module on the run
  path (``CountingNumpy``): call sites, not work.  Operators (``hc - lc``,
  ``f > 0.0``) and array methods (``.nonzero()``, ``.any()``) do not go
  through ``np`` and are not counted, so these pins under-read a change to
  such bookkeeping, and can rise on a change that does less work;
- residual evaluations of the location (psi) and dispersion (chi) root
  solves, and the elements they process, open columns times rows
  (``counting_solve_columns``, at ``mest._solve_columns``);
- ``robust_gradient`` calls by sample shape;
- ``grad_rows`` calls and the rows they compute;
- the steps ``geometric_median`` takes, summed over its calls (the
  ``iterations`` its ``info`` reports).

A change that alters the work updates the pins and gives the old and new
values.
"""

import math
from collections import Counter

import pytest

import robustgd.bench as bench
import robustgd.mest as mest
import robustgd.models as models
import robustgd.optim as optim
import robustgd.robust_grad as robust_grad
from robustgd.cli import load_config

from oracles import CountingNumpy, counting_solve_columns
from test_perfbench_hooks import workloads

MODULES = {"mest": mest, "robust_grad": robust_grad, "optim": optim,
           "models": models, "bench": bench}

# psi and chi are (evaluations, elements), grad_rows (calls, rows)
LEDGER = {
    "poc_heavy": {
        "np": {"mest": 4153, "robust_grad": 300, "optim": 489, "models": 380,
               "bench": 102},
        "psi": (102, 2035000), "chi": (123, 2173000),
        "robust_gradient": {"500x40": 50},
        "grad_rows": (100, 1000000),
        "median_iterations": 0,
    },
    "wide_d": {
        "np": {"mest": 12463, "robust_grad": 900, "optim": 4263, "models": 1242,
               "bench": 21},
        "psi": (306, 8183500), "chi": (369, 9070000),
        "robust_gradient": {"500x2": 50, "500x32": 50, "500x128": 50},
        "grad_rows": (300, 150000),
        "median_iterations": 327,
    },
    "cls_budget": {
        "np": {"mest": 84197, "robust_grad": 3618, "optim": 9274, "models": 56230,
               "bench": 6},
        "psi": (2408, 1334470), "chi": (3158, 1815780),
        "robust_gradient": {"10x40": 600, "2000x40": 3},
        "grad_rows": (8608, 30000),
        "median_iterations": 0,
    },
}


def count_pass(monkeypatch, tmp_path, name):
    """The counters of one seed-0 ``run_experiment`` pass of workload
    ``name``."""
    w = workloads.WORKLOADS[name]
    path = tmp_path / f"{name}.ini"
    path.write_text(w.config_text({**w.params, "seed": 0}), encoding="utf-8")
    cfg = load_config(path)
    calls = {m: Counter() for m in MODULES}
    solves, shapes, rows, medians = [], Counter(), Counter(), Counter()
    with monkeypatch.context() as mp:
        for m, module in MODULES.items():
            mp.setattr(module, "np", CountingNumpy(calls[m]))
        mp.setattr(mest, "_solve_columns", counting_solve_columns(solves))

        def counted_robust_gradient(D, *args, _fn=optim.robust_gradient, **kwargs):
            shapes["x".join(map(str, D.shape))] += 1
            return _fn(D, *args, **kwargs)

        mp.setattr(optim, "robust_gradient", counted_robust_gradient)

        def counted_geometric_median(points, *args, _fn=optim.geometric_median, **kwargs):
            info = kwargs.setdefault("info", {})
            median = _fn(points, *args, **kwargs)
            medians["iterations"] += info["iterations"]
            return median

        mp.setattr(optim, "geometric_median", counted_geometric_median)
        for cls in (models.LinearModel, models.LogisticModel):
            def counted_grad_rows(self, w, X, y, *args, _fn=cls.grad_rows):
                rows["calls"] += 1
                rows["rows"] += math.prod(X.shape[:-1])
                return _fn(self, w, X, y, *args)

            mp.setattr(cls, "grad_rows", counted_grad_rows)
        bench.run_experiment(cfg)
    evals = {"rescale_columns": [0, 0], "locate_columns": [0, 0]}
    for solver, cols, n in solves:
        evals[solver][0] += 1
        evals[solver][1] += cols * n
    return {"np": {m: sum(c.values()) for m, c in calls.items()},
            "psi": tuple(evals["locate_columns"]), "chi": tuple(evals["rescale_columns"]),
            "robust_gradient": dict(shapes),
            "grad_rows": (rows["calls"], rows["rows"]),
            "median_iterations": medians["iterations"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ledger_pinned(monkeypatch, tmp_path, name):
    assert count_pass(monkeypatch, tmp_path, name) == LEDGER[name]


@pytest.mark.parametrize("name", ["poc_heavy", "wide_d"])
def test_two_passes_count_alike(monkeypatch, tmp_path, name):
    # no cache or warm-up state carries work from one pass to the next;
    # cls_budget's second pass would take the file past 5 s
    first = count_pass(monkeypatch, tmp_path, name)
    assert count_pass(monkeypatch, tmp_path, name) == first
