"""Command-line interface: config handling, output artifacts, the command
set, and the standalone estimation utility."""

import csv
import io
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from robustgd.bench import ExperimentConfig, ExperimentResult, TrialResult, run_experiment
from robustgd.cli import _csv_field, _write_results_csv, load_config, main
from robustgd.mest import RhoFunction
from robustgd.robust_grad import RobustConfig, robust_gradient

from oracles import locate_oracle, result_rows

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL_CONFIG = """\
[experiment]
task = quadratic_poc
methods = erm, rgd
trials = 2
iters = 5
n = 40
d = 2
seed = 5

[noise]
family = lognormal
log_loc = 0.0
log_scale = 1.75
"""


def write_config(tmp_path, text=MINIMAL_CONFIG, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


# every [experiment] key: the fields of ExperimentConfig but noise, which is
# a section of its own
EXPERIMENT_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "noise"]


class TestRun:
    def test_minimal_run_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        run_dir = tmp_path / "out" / "run-001"
        assert (run_dir / "manifest.echo").exists()
        with open(run_dir / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "method", "trial", "step", "metric",
                           "value"]
        assert len(rows) - 1 == 2 * 2 * 5 * 3
        echo = (run_dir / "manifest.echo").read_text()
        assert "base_seed = 5" in echo and "status = ok" in echo

    def test_rerun_is_byte_identical_and_versioned(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        a = (tmp_path / "out" / "run-001" / "results.csv").read_bytes()
        b = (tmp_path / "out" / "run-002" / "results.csv").read_bytes()
        assert a == b

    def test_parallel_classification_run_is_byte_identical(self, tmp_path):
        # 3 classes on 20 features are 40 gradient columns, one chunk per
        # trial, so the two workers share the five trials
        cfg = write_config(tmp_path, "[experiment]\ntask = classification_budget\n"
                           "methods = sgd, rgd_mb10, rgd\nn = 60\nfeatures = 20\n"
                           "classes = 3\ntrials = 5\ntest_size = 30\n"
                           "budget_factor = 2\nseed = 9\n")
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        assert main(["run", "--config", str(cfg), "--out", out, "--parallel", "2"]) == 0
        a = (tmp_path / "out" / "run-001" / "results.csv").read_bytes()
        b = (tmp_path / "out" / "run-002" / "results.csv").read_bytes()
        assert a == b and a.count(b"\n") > 5 * 3

    def test_unknown_noise_family_exits_2(self, tmp_path, capsys):
        bad = MINIMAL_CONFIG.replace("family = lognormal", "family = cauchy")
        cfg = write_config(tmp_path, bad)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "family" in err and "cauchy" in err

    def test_unparseable_config_exits_2_with_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[experiment\ntask = quadratic_poc\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line" in capsys.readouterr().err.lower()

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        bad = MINIMAL_CONFIG.replace("seed = 5", "seed = 5\nwarp = 9")
        cfg = write_config(tmp_path, bad)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("n = 40", "n = abc", "[experiment] n: "),
        ("d = 2", "d = 2\nalpha = fast", "[experiment] alpha: "),
        ("d = 2", "d = 2\ngrad_norm_tol = none", "[experiment] grad_norm_tol: "),
        ("d = 2", "d = 2\nn_values = 10, 4x", "[experiment] n_values: "),
        ("d = 2", "d = 2\ninit_deltas = 2.5, wide", "[experiment] init_deltas: "),
        ("log_scale = 1.75", "log_scale = x", "[noise] log_scale: "),
        ("log_loc = 0.0\nlog_scale = 1.75", "level = 2.5", "[noise] level: "),
    ])
    def test_unconvertible_value_exits_2_naming_its_key(self, tmp_path, capsys,
                                                       old, new, named):
        cfg = write_config(tmp_path, MINIMAL_CONFIG.replace(old, new))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    def test_default_round_trips_through_config_text(self, tmp_path, key):
        # every key's resolved default, written as config text, loads back
        # equal and of the same type, element by element for lists
        want = getattr(ExperimentConfig(task="quadratic_poc"), key)
        text = ", ".join(map(str, want)) if isinstance(want, tuple) else str(want)
        settings = {"task": "quadratic_poc", key: text}
        body = "".join(f"{k} = {v}\n" for k, v in settings.items())
        got = getattr(load_config(write_config(tmp_path, "[experiment]\n" + body)), key)
        assert got == want and type(got) is type(want)
        if isinstance(want, tuple):
            assert list(map(type, got)) == list(map(type, want))

    def test_unknown_noise_param_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_CONFIG + "warp = 9\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "warp" in capsys.readouterr().err

    def test_bad_method_override_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--methods", "sorcery"])
        assert rc == 2
        assert "sorcery" in capsys.readouterr().err

    def test_method_unavailable_on_task_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[experiment]\ntask = classification_budget\n"
                                     "trials = 1\nn = 30\nfeatures = 3\n")
        out = tmp_path / "o"
        rc = main(["run", "--config", str(cfg), "--out", str(out),
                   "--methods", "sgd,mom"])
        assert rc == 2
        assert ("config error: method 'mom' not available on task "
                "'classification_budget'") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods, error", [
        ("erm,rgd_mb0", "method 'rgd_mb0' needs a size of at least 1"),
        ("erm,rgd_sub0", "method 'rgd_sub0' needs a size of at least 1"),
        ("erm,rgd_mb41", "method 'rgd_mb41' batch exceeds the smallest training n (40)")])
    def test_bad_method_size_exits_2(self, tmp_path, capsys, methods, error):
        out = tmp_path / "o"
        rc = main(["run", "--config", str(write_config(tmp_path)), "--out", str(out),
                   "--methods", methods])
        assert rc == 2
        assert f"config error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("settings, flags, error", [
        ({}, ["--seed", "-1"], "seed must be >= 0, got -1"),
        ({"alpha": "0"}, [], "step size alpha must be positive"),
        ({"delta": "0"}, [], "delta must lie in (0, 1)"),
        ({"delta": "1.5"}, [], "delta must lie in (0, 1)"),
        ({"iters": "0"}, [], "iters must be >= 1, got 0"),
        ({"n": "0"}, [], "training n must be >= 1 in every condition, got 0"),
        ({"d": "0"}, [], "training d must be >= 1 in every condition, got 0"),
        ({"task": "n_sweep", "n_values": "10, 0"}, [],
         "training n must be >= 1 in every condition, got 0"),
        ({"task": "d_sweep", "d_values": "0"}, [],
         "training d must be >= 1 in every condition, got 0"),
        ({"task": "regression_grid", "grid_n": "0"}, [],
         "training n must be >= 1 in every condition, got 0"),
        ({"task": "regression_grid", "test_size": "0"}, [],
         "test_size must be >= 1, got 0"),
        ({"task": "classification_budget", "test_size": "0"}, [],
         "test_size must be >= 1, got 0"),
        ({"task": "classification_budget", "classes": "1"}, [],
         "classes must be >= 2, got 1"),
        ({"task": "classification_budget", "features": "0"}, [],
         "features must be >= 1, got 0"),
        ({"task": "classification_budget", "budget_factor": "0"}, [],
         "budget_factor must be >= 1, got 0"),
        ({"task": "classification_budget", "reg_strength": "-0.1"}, [],
         "reg_strength must be >= 0, got -0.1"),
        ({"methods": "erm, mom", "n": "1"}, [],
         "method 'mom' needs a training n of at least 2 for its 2 blocks, got 1"),
    ])
    def test_unusable_value_exits_2(self, tmp_path, capsys, settings, flags, error):
        keys = {"task": "quadratic_poc", "trials": "1", "iters": "5", "n": "40",
                "d": "2", **settings}
        text = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        out = tmp_path / "o"
        rc = main(["run", "--config", str(write_config(tmp_path, text)),
                   "--out", str(out)] + flags)
        assert rc == 2
        assert f"config error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, key", [
        ("init_sweep", "init_deltas"), ("n_sweep", "n_values"),
        ("d_sweep", "d_values"), ("regression_grid", "families"),
        ("regression_grid", "levels"), ("regression_grid", "grid_n"),
        ("regression_grid", "grid_d")])
    @pytest.mark.parametrize("methods", ["erm", "rgd_mb5"])
    def test_empty_condition_list_exits_2(self, tmp_path, capsys, task, key, methods):
        text = (f"[experiment]\ntask = {task}\nmethods = {methods}\ntrials = 1\n"
                f"iters = 5\n{key} =\n")
        out = tmp_path / "o"
        rc = main(["run", "--config", str(write_config(tmp_path, text)),
                   "--out", str(out)])
        assert rc == 2
        assert (f"config error: {key} must list at least one value"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_below_one_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        out = tmp_path / "o"
        rc = main(["run", "--config", str(write_config(tmp_path)), "--out", str(out),
                   "--parallel", workers])
        assert rc == 2
        assert (f"config error: --parallel must be at least 1, got {workers}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_abort_notes_in_manifest(self, tmp_path):
        text = MINIMAL_CONFIG.replace("trials = 2", "trials = 2\nalpha = 1e6")
        text = text.replace("iters = 5", "iters = 60").replace("seed = 5", "seed = 11")
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        run_dir = tmp_path / "o" / "run-001"
        manifest = dict(line.partition(" = ")[::2] for line in
                        (run_dir / "manifest.echo").read_text().splitlines()
                        if " = " in line)
        assert manifest["status"] == "ok"
        assert manifest["aborted_trials"] == "4"
        assert manifest["completed_trials"] == "0"
        aborts = {k: v for k, v in manifest.items() if k.startswith("abort.")}
        assert aborts == {f"abort.{k}.{m}": "diverged"
                          for k in (0, 1) for m in ("erm", "rgd")}
        assert (run_dir / "results.csv").read_text().count("\n") == 1

    def test_abort_note_keys_carry_the_condition(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("two\nlines")

        monkeypatch.setattr("robustgd.bench.median_of_means_gd_run", broken)
        text = MINIMAL_CONFIG.replace("quadratic_poc", "init_sweep\ninit_deltas = 2.5")
        cfg = write_config(tmp_path, text.replace("erm, rgd", "erm, mom"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "run-001" / "manifest.echo").read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("abort.")] == [
            f"abort.del=2.5.{k}.mom = RuntimeError: two lines" for k in (0, 1)]
        assert "aborted_trials = 2" in lines and "completed_trials = 2" in lines

    def test_cli_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["run", "--config", str(cfg), "--out", out, "--seed", "9",
                   "--methods", "erm", "--trials", "1"])
        assert rc == 0
        echo = (tmp_path / "out" / "run-001" / "manifest.echo").read_text()
        assert "base_seed = 9" in echo
        with open(tmp_path / "out" / "run-001" / "results.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[1] for r in rows} == {"erm"}


HEADER = ["experiment", "method", "trial", "step", "metric", "value"]

# small runs that reach each kind of row: trace rows on a task without
# conditions, condition-prefixed trace rows, quoted grid labels, non-finite
# values beside aborted cells, and classification's terminal rows
CONTRACT_CONFIGS = {
    "quadratic_poc": dict(task="quadratic_poc", methods=("oracle", "erm", "rgd"),
                          n=40, d=2, iters=5, trials=2, seed=5),
    "init_sweep": dict(task="init_sweep", init_deltas=(2.5, 10.0), n=40, d=2,
                       iters=4, trials=2, seed=4),
    "regression_grid": dict(task="regression_grid", methods=("ols", "rgd", "mom"),
                            families=("normal", "lognormal"), levels=(4,),
                            grid_n=(30,), grid_d=(3,), iters=10, trials=2,
                            test_size=50, seed=8),
    "quadratic_poc.diverging": dict(task="quadratic_poc", methods=("erm", "rgd", "mom"),
                                    n=4, d=2, alpha=5.0, iters=300, trials=6, seed=11),
    "classification": dict(task="classification_budget", methods=("sgd", "rgd_mb10"),
                           n=200, features=6, classes=3, trials=2, test_size=100,
                           budget_factor=2, seed=3),
}


def csv_writer_bytes(rows):
    """What csv.writer writes for the header and ``rows``, each value as
    repr(float(value))."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for *fields_, value in rows:
        writer.writerow([*fields_, repr(float(value))])
    return buf.getvalue().encode("utf-8")


class TestResultsCsv:
    """results.csv is the header and the long-format rows of
    ``ExperimentResult.trial_tables()`` (``result_rows``), written as
    csv.writer writes them with every value as repr(float(value))."""

    def check(self, path, result):
        _write_results_csv(path, result)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        rows = result_rows(result)
        assert parsed == [HEADER] + [[e, m, str(t), k, metric, repr(float(v))]
                                     for e, m, t, k, metric, v in rows]
        assert path.read_bytes() == csv_writer_bytes(rows)
        return parsed[1:]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("name", CONTRACT_CONFIGS)
    def test_file_is_the_rows(self, tmp_path, name):
        result = run_experiment(ExperimentConfig(**CONTRACT_CONFIGS[name]))
        parsed = self.check(tmp_path / "results.csv", result)
        assert parsed
        if name == "regression_grid":
            raw = (tmp_path / "results.csv").read_text()
            assert raw.count('"fam=normal,lvl=4,n=30,d=3"') == 2 * 3 * 3
        if name == "quadratic_poc.diverging":
            assert result.n_aborted > 0
            assert {"nan", "inf"} & {row[-1] for row in parsed}
        if name == "classification":
            assert {"budget_spent", "baseline_misclassification"} <= {
                row[4] for row in parsed if row[3] == "terminal"}

    def test_values_and_labels_of_any_type(self, tmp_path):
        # an int column is written as floats (3.0); signed zeros, nan and
        # inf keep their repr; labels with commas, quotes or line breaks are
        # quoted as csv.writer quotes them
        trials = [
            TrialResult("erm", 'a,"b"', 0, [1, 2, 3],
                        {"count": np.array([3, 4, 5]), "z": [-0.0, np.nan, -np.inf]},
                        {"n": 3, "w": np.float64(0.1)}),
            TrialResult("rgd", "c\rd\ne", 1, [7], {"count": [True]}),
            TrialResult("rgd", "", 2, [], {}, aborted=True, note="diverged"),
            TrialResult("mom", "", 3, [], {}, {"only": np.int64(-2)}),
        ]
        result = ExperimentResult(ExperimentConfig(task="init_sweep"), trials)
        parsed = self.check(tmp_path / "results.csv", result)
        assert [row[-1] for row in parsed[:6]] == ["3.0", "-0.0", "4.0", "nan", "5.0", "-inf"]
        assert parsed[6:8] == [["init_sweep", "erm", "0", 'a,"b"', "n", "3.0"],
                               ["init_sweep", "erm", "0", 'a,"b"', "w", "0.1"]]
        assert parsed[-1] == ["init_sweep", "mom", "3", "terminal", "only", "-2.0"]

    @pytest.mark.parametrize("text", ["", "plain", "a b", "a,b", 'a"b', "a\nb",
                                      "a\rb", "a;b", " lead", "del=2.5:17"])
    def test_field_quoting_is_csv_writers(self, text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text, "x"])
        assert f"{_csv_field(text)},x\n" == buf.getvalue()


class TestMest:
    def write_column(self, tmp_path, values, name="col.txt"):
        p = tmp_path / name
        p.write_text("\n".join(str(v) for v in values) + "\n")
        return p

    def test_quadratic_mean(self, tmp_path, capsys):
        p = self.write_column(tmp_path, [1, 2, 3])
        assert main(["mest", str(p), "--rho", "quadratic_test_only"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theta_hat"] == pytest.approx(2.0, abs=1e-9)

    def test_symmetric_pair(self, tmp_path, capsys):
        p = self.write_column(tmp_path, [-1, 1])
        assert main(["mest", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theta_hat"] == pytest.approx(0.0, abs=1e-9)

    def test_heavy_tailed_fixture_matches_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(size=30), [80.0, 120.0]])
        p = self.write_column(tmp_path, x)
        assert main(["mest", str(p), "--delta", "0.05"]) == 0
        out = json.loads(capsys.readouterr().out)
        _, info = robust_gradient(x[:, None], RobustConfig(delta=0.05))
        assert out["sigma_hat"] == pytest.approx(info["sigma"][0], rel=1e-6)
        oracle = locate_oracle(x, info["s"][0], RhoFunction("gudermannian"))
        assert out["theta_hat"] == pytest.approx(oracle, abs=1e-6)

    def test_scale_override(self, tmp_path, capsys):
        p = self.write_column(tmp_path, [0.0, 0.0, 0.0, 10.0])
        assert main(["mest", str(p), "--scale", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["s"] == 1.0
        assert out["theta_hat"] == pytest.approx(0.5492456156742342, abs=1e-6)

    def test_bad_file_exits_2(self, tmp_path, capsys):
        p = self.write_column(tmp_path, ["abc"])
        assert main(["mest", str(p)]) == 2

    @pytest.mark.parametrize("where", ["missing.txt", "."])
    def test_unreadable_path_exits_2(self, tmp_path, capsys, where):
        # a path that does not exist, and a directory
        assert main(["mest", str(tmp_path / where)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mest error: cannot read data: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", [3, 4])
    def test_overflowing_column_sum(self, tmp_path, capsys, n):
        # the column's sum overflows, and so at n = 4 does its median's
        # midpoint: the pivot is the sum of x_i / n, the midpoint the sum
        # of the halves
        p = self.write_column(tmp_path, [1e308] * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor does it warn
            assert main(["mest", str(p)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["theta_hat"] == 1e308 and got["n"] == n
        assert np.isfinite(got["sigma_hat"]) and np.isfinite(got["s"])

    def test_column_whose_residuals_overflow(self, tmp_path, capsys):
        # x - pivot passes 1.8e308 for the two negative rows; the column is
        # estimated scaled down, and sigma (about 2.2e308) and s read inf
        p = self.write_column(tmp_path, [1.7e308] * 3 + [-1.7e308] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mest", str(p)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert -1.7e308 < got["theta_hat"] < 1.7e308
        assert got["sigma_hat"] == got["s"] == np.inf

    def test_column_whose_pairwise_sums_overflow_both_ways(self, tmp_path, capsys):
        # the pairwise sums of the column overflow to +inf and -inf, whose
        # sum is nan: the pivot is taken another way, with no warning
        p = self.write_column(tmp_path, [5e307, -5e307] * 250)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mest", str(p)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        line, = out.splitlines()
        got = json.loads(line)
        assert got["n"] == 500 and got["theta_hat"] == 0.0

    @pytest.mark.parametrize("values, flags, error", [
        ([1, 2, 3], ["--delta", "1.5"], "--delta must lie in (0, 1)"),
        ([1, 2, 3], ["--delta", "0"], "--delta must lie in (0, 1)"),
        ([1, 2, 3], ["--scale", "-1"], "--scale must be positive and finite"),
        ([1, 2, 3], ["--scale", "inf"], "--scale must be positive and finite"),
        ([1, "nan", 3], [], "line 2: not a finite number"),
    ])
    def test_unusable_input_exits_2(self, tmp_path, capsys, values, flags, error):
        p = self.write_column(tmp_path, values)
        assert main(["mest", str(p)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("mest error: ") and error in err


class TestListing:
    def test_families_csv(self, capsys):
        assert main(["families"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0][0] == "family"
        data = rows[1:]
        assert len(data) == 11 * 15
        by_family = {r[0] for r in data}
        assert "pareto" in by_family and "lognormal" in by_family
        # heavy pareto levels flagged as infinite variance
        heavy = [r for r in data if r[0] == "pareto" and r[1] == "15"]
        assert heavy[0][4] == "false"

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"


def parser_commands(capsys):
    """The subcommands of main's parser, read from its --help usage line."""
    with pytest.raises(SystemExit):
        main(["--help"])
    return re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")


class TestCommands:
    def test_ingest_is_an_unknown_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "x.csv", "--label", "y"])
        assert exc.value.code == 2
        assert "invalid choice: 'ingest'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_readme_command_block_names_the_parser_commands(self, capsys):
        block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        documented = re.findall(r"^robustgd (\S+)", block.split("```")[1], flags=re.M)
        assert sorted(documented) == sorted(parser_commands(capsys))

    def test_readme_config_grammar_names_the_experiment_keys(self):
        grammar = README.read_text(encoding="utf-8").split("### Config grammar", 1)[1]
        sentence = grammar.split("section sets", 1)[1].split("Lists are", 1)[0]
        assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(EXPERIMENT_KEYS)
