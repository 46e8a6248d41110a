"""Byte-for-byte output check of a parent revision against the working tree.

    python3 scripts/results_identity.py --parent HEAD~

Exports ``--parent`` with ``git archive`` into a temporary directory outside
the repository (``paired_bench.export``), then runs ``robustgd run
--parallel 1`` on each side over a fixed list of configs: the three
perfbench workloads, read from ``perfbench/workloads.py``, at seeds 0 and 1;
one small config per task that runs every method kind the task accepts;
each production rho kind; classification at ``reg_strength`` 0 and 0.05;
a ``quadratic_poc`` config whose iterates diverge, with enough trials
that cells abort as ``diverged``, so ``manifest.echo``'s abort notes are
compared too; and a classification config at ``alpha = 10000`` whose sgd
cells abort as ``diverged`` after a one-row gradient whose scores are not
finite, so the one-row kernel's fallback is compared too.  For each config
it prints whether the sha256 of ``results.csv`` and of ``manifest.echo``
match the parent's.  Where ``results.csv`` differs it prints, per metric,
the largest relative change over the rows both sides wrote and the number
of rows only one side wrote.  It then compares the stdout bytes of
``robustgd mest`` on four columns (normal draws with two outliers,
[-1, 1], a constant column and [0, 0, 0, 10]), each at every rho kind and
delta 0.05 and 0.005, and once at ``--scale 1.0``.  Exits 1 if any config
or ``mest`` case differs or fails to run.
"""

import argparse
import csv
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
OUTPUTS = ("results.csv", "manifest.echo")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paired_bench = _load(Path(__file__).with_name("paired_bench.py"), "paired_bench")

_LOGNORMAL = "[noise]\nfamily = lognormal\nlog_loc = 0.0\nlog_scale = 1.75\n"
_REGRESSION_METHODS = "oracle, erm, rgd, rgd_mb10, rgd_sub2, mom, sgd, svrg"
_CLASSIFICATION = ("task = classification_budget\n"
                   "methods = erm, rgd, rgd_mb10, rgd_sub5, sgd, svrg\n"
                   "n = 200\nfeatures = 6\nclasses = 3\ntrials = 2\n"
                   "test_size = 100\nbudget_factor = 2\nalpha = 0.1\nseed = 3\n")
# (name, config text) of the small configs; each sets its own seed
SMALL = (
    ("quadratic_poc", "task = quadratic_poc\n"
     f"methods = {_REGRESSION_METHODS}\n"
     "n = 60\nd = 3\niters = 20\ntrials = 3\nseed = 2\n" + _LOGNORMAL),
    ("quadratic_poc.log_cosh", "task = quadratic_poc\nmethods = erm, rgd, rgd_mb10\n"
     "rho = log_cosh\nn = 60\nd = 3\niters = 20\ntrials = 3\nseed = 2\n" + _LOGNORMAL),
    ("quadratic_poc.pseudo_huber", "task = quadratic_poc\nmethods = erm, rgd, rgd_mb10\n"
     "rho = pseudo_huber\nn = 60\nd = 3\niters = 20\ntrials = 3\nseed = 2\n"
     + _LOGNORMAL),
    ("init_sweep", "task = init_sweep\n"
     f"methods = {_REGRESSION_METHODS}\n"
     "init_deltas = 2.5, 10\nn = 40\nd = 2\niters = 15\ntrials = 2\nseed = 4\n"
     + _LOGNORMAL),
    ("distribution_sweep", "task = distribution_sweep\n"
     f"methods = {_REGRESSION_METHODS}\n"
     "n = 40\nd = 2\niters = 10\ntrials = 1\nseed = 5\n"),
    ("n_sweep", "task = n_sweep\n"
     f"methods = {_REGRESSION_METHODS}\n"
     "n_values = 20, 80\nd = 2\niters = 10\ntrials = 2\nseed = 6\n" + _LOGNORMAL),
    ("d_sweep", "task = d_sweep\n"
     f"methods = {_REGRESSION_METHODS}\n"
     "d_values = 2, 12\nn = 60\niters = 10\ntrials = 2\nseed = 7\n" + _LOGNORMAL),
    ("regression_grid", "task = regression_grid\n"
     f"methods = ols, {_REGRESSION_METHODS}\n"
     "families = normal, lognormal\nlevels = 4\ngrid_n = 30\ngrid_d = 3\n"
     "iters = 10\ntrials = 2\ntest_size = 50\nseed = 8\n"),
    ("classification.reg0", _CLASSIFICATION + "reg_strength = 0\n"),
    ("classification.reg0.05", _CLASSIFICATION + "reg_strength = 0.05\n"),
    ("quadratic_poc.diverging", "task = quadratic_poc\nmethods = erm, rgd, mom\n"
     "n = 4\nd = 2\nalpha = 5\niters = 300\ntrials = 6\nseed = 11\n" + _LOGNORMAL),
    ("classification.diverging", _CLASSIFICATION.replace("alpha = 0.1", "alpha = 10000")
     + "reg_strength = 0.05\n"),
)


RHO_KINDS = ("gudermannian", "log_cosh", "pseudo_huber", "quadratic_test_only")


def mest_cases():
    """(name, column file text, flags) for every ``robustgd mest`` run, in
    a fixed order: each column at every rho kind and delta, then once at
    ``--scale 1.0``."""
    rng = np.random.default_rng(6)
    columns = (("outliers", np.concatenate([rng.normal(size=30), [80.0, 120.0]])),
               ("pair", [-1.0, 1.0]), ("constant", [3.5] * 5),
               ("spike", [0.0, 0.0, 0.0, 10.0]))
    out = []
    for col, values in columns:
        text = "".join(f"{float(v)!r}\n" for v in values)
        out += [(f"mest.{col}.{rho}.delta{delta}", text, ["--rho", rho, "--delta", delta])
                for rho in RHO_KINDS for delta in ("0.05", "0.005")]
        out.append((f"mest.{col}.scale1", text, ["--scale", "1.0"]))
    return out


def config_list():
    """(name, config text) for every run, in a fixed order."""
    wl = _load(ROOT / "perfbench" / "workloads.py", "workloads")
    out = [(f"{name}.seed{seed}", w.config_text({**w.params, "seed": seed}))
           for name, w in wl.WORKLOADS.items() for seed in (0, 1)]
    return out + [(name, "[experiment]\n" + text) for name, text in SMALL]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_rows(path):
    """{(experiment, method, trial, step, metric): value} of a results.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {(r["experiment"], r["method"], r["trial"], r["step"], r["metric"]):
                float(r["value"]) for r in csv.DictReader(fh)}


def relative_change(a, b):
    """|a - b| / max(|a|, |b|): 0 for equal values (two NaNs included), inf
    where only one is finite or NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_rows(parent, change):
    """{metric: {"max_rel": largest relative change over the rows both sides
    hold, "unmatched": rows only one side holds}} of two ``read_rows``."""
    out = {}
    for key in parent.keys() | change.keys():
        entry = out.setdefault(key[-1], {"max_rel": 0.0, "unmatched": 0})
        if key in parent and key in change:
            entry["max_rel"] = max(entry["max_rel"],
                                   relative_change(parent[key], change[key]))
        else:
            entry["unmatched"] += 1
    return dict(sorted(out.items()))


def run_config(checkout, config, out_dir):
    """``robustgd run --parallel 1`` of ``config`` with ``checkout``'s
    sources; returns the run directory, or None with the reason."""
    out_dir.mkdir(parents=True)
    cfg = out_dir / "config.ini"
    cfg.write_text(config, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "robustgd.cli", "run", "--config", str(cfg),
         "--out", str(out_dir), "--parallel", "1"],
        cwd=checkout, env=env, capture_output=True, text=True)
    runs = sorted(out_dir.glob("run-*"))
    if not runs or not all((runs[-1] / f).exists() for f in OUTPUTS):
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return runs[-1], None


def run_mest(checkout, column_path, flags):
    """stdout bytes of ``robustgd mest`` on ``column_path`` with
    ``checkout``'s sources; returns (stdout, None), or (None, the reason)."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "robustgd.cli", "mest", str(column_path), *flags],
        cwd=checkout, env=env, capture_output=True)
    if proc.returncode:
        return None, f"exit {proc.returncode}: {proc.stderr.decode().strip()[-300:]}"
    return proc.stdout, None


def compare_config(dirs):
    """Lines reporting one config's outputs on both sides; returns
    (identical, lines)."""
    same = {f: sha256(dirs["parent"] / f) == sha256(dirs["change"] / f)
            for f in OUTPUTS}
    lines = ["  ".join(f"{f} {'same' if s else 'DIFFERS'}" for f, s in same.items())]
    if not same["results.csv"]:
        changes = compare_rows(read_rows(dirs["parent"] / "results.csv"),
                               read_rows(dirs["change"] / "results.csv"))
        lines += [f"    {metric}: max relative change {c['max_rel']:.3g}, "
                  f"{c['unmatched']} unmatched rows" for metric, c in changes.items()]
    return all(same.values()), lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    configs = config_list()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="results-identity-") as tmp:
        tmp = Path(tmp)
        commit = paired_bench.export(args.parent, tmp / "parent")
        print(f"parent {args.parent} = {commit}", flush=True)
        checkouts = {"parent": tmp / "parent", "change": ROOT}
        for name, config in configs:
            dirs, why = {}, []
            for side in SIDES:
                dirs[side], reason = run_config(checkouts[side], config,
                                                tmp / "runs" / side / name)
                if reason:
                    why.append(f"{side} failed ({reason})")
            if why:
                failures += 1
                print(f"{name}: {'; '.join(why)}", flush=True)
                continue
            identical, lines = compare_config(dirs)
            failures += not identical
            print(f"{name}: {lines[0]}", *lines[1:], sep="\n", flush=True)
        cases = mest_cases()
        (tmp / "mest").mkdir()
        mest_failures = 0
        for name, text, flags in cases:
            column = tmp / "mest" / f"{name}.txt"
            column.write_text(text, encoding="utf-8")
            out = {side: run_mest(checkouts[side], column, flags) for side in SIDES}
            why = [f"{side} failed ({reason})" for side, (_, reason) in out.items() if reason]
            if why:
                verdict = "; ".join(why)
            else:
                verdict = "stdout same" if out["parent"] == out["change"] else "stdout DIFFERS"
            mest_failures += verdict != "stdout same"
            print(f"{name}: {verdict}", flush=True)
    print(f"{len(configs) - failures} of {len(configs)} configs byte-identical")
    print(f"{len(cases) - mest_failures} of {len(cases)} mest cases byte-identical")
    return 1 if failures or mest_failures else 0


if __name__ == "__main__":
    sys.exit(main())
