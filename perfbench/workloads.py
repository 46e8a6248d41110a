"""The three protocol workloads, their output checks and the pinned anchor.

Each workload is an INI config for ``robustgd run``.  The benchmark seed
replaces the config's ``seed``, so trial k of a pass draws its data from
``seed + k``.  Outputs are read back from the files ``robustgd run`` writes
(``results.csv`` and ``manifest.echo``), never from library internals.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

_NOISE = {"family": "lognormal", "log_loc": 0.0, "log_scale": 1.75}


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    methods: tuple
    params: dict = field(default_factory=dict)
    conditions: int = 1

    @property
    def classification(self):
        return self.task == "classification_budget"

    def cells(self, params):
        """(condition, trial, method) cells one pass attempts."""
        return self.conditions * int(params["trials"]) * len(self.methods)

    def config_text(self, params):
        lines = ["[experiment]", f"task = {self.task}",
                 f"methods = {', '.join(self.methods)}"]
        lines += [f"{k} = {v}" for k, v in params.items()]
        if not self.classification:
            lines += ["", "[noise]"] + [f"{k} = {v}" for k, v in _NOISE.items()]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload("poc_heavy", "quadratic_poc", ("erm", "rgd"),
             {"trials": 20, "iters": 50, "n": 500, "d": 2, "alpha": 0.1}),
    Workload("wide_d", "d_sweep", ("erm", "rgd", "mom"),
             {"d_values": "2, 32, 128", "trials": 1, "iters": 50, "n": 500,
              "alpha": 0.1}, conditions=3),
    Workload("cls_budget", "classification_budget",
             ("sgd", "svrg", "rgd_mb10", "erm", "rgd"),
             {"n": 2000, "features": 20, "classes": 3, "trials": 1,
              "test_size": 1000, "budget_factor": 3, "alpha": 0.1}),
)}

# Evaluations one update of a classification method consumes when it is not
# a full pass over the n rows; budget parity allows a method to stop short of
# the budget by at most one step.
_STEP_EVALS = {"sgd": 1, "rgd_mb10": 10}
# Methods criterion 10 requires to beat the all-zero baseline by 0.1.
_LEARNERS = ("sgd", "svrg", "rgd_mb10")

REFERENCES = Path(__file__).with_name("references.json")


def read_manifest(run_dir):
    out = {}
    for line in (Path(run_dir) / "manifest.echo").read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def terminal_rows(run_dir, workload):
    """{method: [one entry per (condition, trial)]} from results.csv.

    Regression: the excess risk at the last recorded step.  Classification:
    the dict of terminal rows (misclassification, budget_spent,
    baseline_misclassification).
    """
    last = {}
    with open(Path(run_dir) / "results.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            method, value = row["method"], float(row["value"])
            if workload.classification:
                if row["step"] == "terminal":
                    last.setdefault((method, row["trial"]), {})[row["metric"]] = value
            elif row["metric"] == "excess_risk":
                cond, _, step = row["step"].rpartition(":")
                key = (method, cond, row["trial"])
                if key not in last or int(step) > last[key][0]:
                    last[key] = (int(step), value)
    out = {}
    for key, val in last.items():
        out.setdefault(key[0], []).append(val if workload.classification else val[1])
    return out


def terminal_loss(rows, workload):
    """{method: mean terminal loss}: excess risk for regression, test
    misclassification for classification."""
    if workload.classification:
        rows = {m: [r["misclassification"] for r in v] for m, v in rows.items()}
    return {m: sum(v) / len(v) for m, v in rows.items()}


def check_cells(run_dir, workload, params):
    """Returns (problems, attempted, failed) from the run manifest."""
    problems = []
    manifest = read_manifest(run_dir)
    if manifest.get("status") != "ok":
        problems.append(f"run status: {manifest.get('status')}")
    expected = workload.cells(params)
    failed = int(manifest.get("aborted_trials", expected))
    attempted = failed + int(manifest.get("completed_trials", 0))
    if attempted != expected:
        problems.append(f"{attempted} cells attempted, expected {expected}")
    if failed:
        problems.append(f"{failed} of {attempted} cells aborted or diverged")
    return problems, attempted, failed


def check_protocol(rows, loss, workload, params):
    """The acceptance conditions the workload carries (criteria 04 and 10)."""
    if set(rows) != set(workload.methods):
        return [f"methods in results.csv: {sorted(rows)}"]
    problems = [f"terminal_loss.{m} = {v!r} is not positive"
                for m, v in loss.items() if not v > 0]
    if workload.name == "poc_heavy" and not loss["rgd"] <= 0.8 * loss["erm"]:
        problems.append(f"criterion 04: rgd {loss['rgd']:.4g} > 0.8 x erm "
                        f"{loss['erm']:.4g}")
    if workload.classification:
        n = int(params["n"])
        budget = int(params["budget_factor"]) * n
        for m, trials in rows.items():
            step = _STEP_EVALS.get(m, n)
            for r in trials:
                if abs(r["budget_spent"] - budget) > step:
                    problems.append(f"criterion 10 parity: {m} spent "
                                    f"{r['budget_spent']:g} of {budget}")
                target = r["baseline_misclassification"] - 0.1
                if m in _LEARNERS and not r["misclassification"] <= target:
                    problems.append(f"criterion 10 learning: {m} misclassification "
                                    f"{r['misclassification']:g} > {target:g}")
    return problems


def load_references():
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check_anchor(loss, reference):
    """Anchor terminal losses against the stored reference, within its
    stated tolerance: relative for regression, absolute for classification."""
    rel, absolute = reference.get("rel_tol", 0.0), reference.get("abs_tol", 0.0)
    problems = []
    for m, ref in reference["terminal_loss"].items():
        got = loss.get(m)
        if got is None or abs(got - ref) > max(rel * abs(ref), absolute):
            problems.append(f"anchor terminal_loss.{m} = {got!r}, reference "
                            f"{ref!r} (rel_tol {rel:g}, abs_tol {absolute:g})")
    return problems
