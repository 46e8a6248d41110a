"""scripts/results_identity.py: the output comparison on synthetic files, and
the config list it runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from robustgd.bench import TASKS, _TASK_KINDS, _parse_method
from robustgd.cli import load_config
from robustgd.mest import RHO_KINDS

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "results_identity.py"
_spec = importlib.util.spec_from_file_location("results_identity", _PATH)
results_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(results_identity)

HEADER = "experiment,method,trial,step,metric,value\n"


def write_run(path, rows, manifest="status = ok\n"):
    """A run directory holding results.csv with ``rows`` and manifest.echo."""
    path.mkdir()
    (path / "results.csv").write_text(HEADER + "".join(r + "\n" for r in rows))
    (path / "manifest.echo").write_text(manifest)
    return path


def test_relative_change():
    rc = results_identity.relative_change
    assert rc(2.0, 2.0) == 0.0 and rc(math.inf, math.inf) == 0.0
    assert rc(math.nan, math.nan) == 0.0
    assert rc(1.0, 1.5) == pytest.approx(1 / 3)
    assert rc(-4.0, 4.0) == 2.0
    assert rc(0.0, 1e-300) == 1.0
    assert rc(1.0, math.inf) == math.inf and rc(math.nan, 1.0) == math.inf


def test_compare_rows_per_metric(tmp_path):
    parent = write_run(tmp_path / "p", [
        "poc,rgd,0,1,excess_risk,1.0", "poc,rgd,0,2,excess_risk,0.5",
        "poc,erm,0,2,excess_risk,0.25", "poc,rgd,0,2,param_distance,3.0",
        "poc,rgd,1,2,param_distance,inf"])
    change = write_run(tmp_path / "c", [
        "poc,rgd,0,1,excess_risk,1.0", "poc,rgd,0,2,excess_risk,0.5000001",
        "poc,erm,0,2,excess_risk,0.2", "poc,rgd,0,2,param_distance,3.0",
        "poc,rgd,1,2,param_distance,inf", "poc,rgd,1,3,param_distance,2.0"])
    read = results_identity.read_rows
    out = results_identity.compare_rows(read(parent / "results.csv"),
                                        read(change / "results.csv"))
    assert list(out) == ["excess_risk", "param_distance"]
    assert out["excess_risk"] == {"max_rel": pytest.approx(0.2), "unmatched": 0}
    assert out["param_distance"] == {"max_rel": 0.0, "unmatched": 1}


def test_compare_config_reports_each_file(tmp_path):
    rows = ["poc,rgd,0,1,excess_risk,1.0"]
    same, lines = results_identity.compare_config(
        {"parent": write_run(tmp_path / "p", rows), "change": write_run(tmp_path / "c", rows)})
    assert same and lines == ["results.csv same  manifest.echo same"]
    same, lines = results_identity.compare_config(
        {"parent": write_run(tmp_path / "p2", rows),
         "change": write_run(tmp_path / "c2", ["poc,rgd,0,1,excess_risk,1.25"],
                             manifest="status = aborted\n")})
    assert not same
    assert lines == ["results.csv DIFFERS  manifest.echo DIFFERS",
                     "    excess_risk: max relative change 0.2, 0 unmatched rows"]


def test_config_list_covers_every_task_and_method_kind(tmp_path):
    configs = results_identity.config_list()
    names = [name for name, _ in configs]
    assert len(set(names)) == len(names)
    assert {f"{w}.seed{s}" for w in ("poc_heavy", "wide_d", "cls_budget")
            for s in (0, 1)} <= set(names)
    kinds, rhos, regs, alphas = {}, set(), set(), set()
    for name, text in configs:
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        cfg = load_config(path)
        kinds.setdefault(cfg.task, set()).update(_parse_method(m)[0] for m in cfg.methods)
        rhos.add(cfg.rho)
        if cfg.task == "classification_budget":
            regs.add(cfg.reg_strength)
            alphas.add(cfg.alpha)
    assert set(kinds) == set(TASKS)
    for task in TASKS:
        assert kinds[task] == set(_TASK_KINDS[task]), task
    assert rhos == {"gudermannian", "log_cosh", "pseudo_huber"}
    assert {0.0, 0.05} <= regs
    # a step size at which sgd diverges through a row with non-finite scores
    assert 10000.0 in alphas


def test_mest_cases_cover_every_rho_kind_delta_and_scale():
    cases = results_identity.mest_cases()
    names = [name for name, _, _ in cases]
    assert len(set(names)) == len(names)
    runs = {}
    for _, text, flags in cases:
        opts = dict(zip(flags[::2], flags[1::2]))
        runs.setdefault(text, set()).add(
            (opts.get("--rho"), opts.get("--delta"), opts.get("--scale")))
    columns = [[float(v) for v in text.split()] for text in runs]
    assert [-1.0, 1.0] in columns and [0.0, 0.0, 0.0, 10.0] in columns
    assert any(len(set(c)) == 1 for c in columns)
    assert any(len(c) > 20 and max(c) >= 80.0 for c in columns)
    want = {(rho, delta, None) for rho in RHO_KINDS for delta in ("0.05", "0.005")}
    assert all(seen == want | {(None, None, "1.0")} for seen in runs.values())


def test_run_mest_returns_the_commands_stdout(tmp_path):
    name, text, flags = results_identity.mest_cases()[-1]
    assert name == "mest.spike.scale1"
    column = tmp_path / "column.txt"
    column.write_text(text)
    out, reason = results_identity.run_mest(results_identity.ROOT, column, flags)
    assert reason is None
    got = json.loads(out)
    assert sorted(got) == ["n", "s", "sigma_hat", "theta_hat"]
    assert got["n"] == 4 and got["s"] == 1.0
    assert got["theta_hat"] == pytest.approx(0.5492456156742342, abs=1e-6)
    out, reason = results_identity.run_mest(results_identity.ROOT, column,
                                            ["--delta", "2"])
    assert out is None and reason.startswith("exit 2: mest error: --delta")
