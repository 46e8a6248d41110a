"""Command-line interface: config handling, output artifacts, ingestion,
and the standalone estimation utility."""

import csv
import json

import numpy as np
import pytest

from robustgd.cli import main, ingest, min_max_normalize
from robustgd.mest import ChiFunction, FixedPointSettings, RhoFunction, confidence_scale, rescale

from oracles import locate_oracle

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


class TestIngest:
    def write_csv(self, tmp_path, rows, header=("x1", "x2", "y"),
                  name="data.csv"):
        p = tmp_path / name
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return p

    def test_min_max_feature_scaling(self, tmp_path):
        p = self.write_csv(tmp_path, [[2, 5, 0], [4, 5, 1], [6, 5, 0]])
        train, test, names = ingest(str(p), "y")
        assert names == ["x1", "x2"]
        assert np.allclose(train.inputs[:, 0], [0.0, 0.5, 1.0])
        # constant feature maps to zero
        assert np.allclose(train.inputs[:, 1], 0.0)
        assert test is None

    def test_idempotent_on_normalized_output(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.uniform(-3, 9, 20), rng.uniform(0, 2, 20),
                                rng.integers(0, 2, 20)])
        p = self.write_csv(tmp_path, rows.tolist())
        train, _, names = ingest(str(p), "y")
        out = tmp_path / "norm.csv"
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(names + ["y"])
            for xi, yi in zip(train.inputs, train.targets):
                w.writerow(list(xi) + [yi])
        again, _, _ = ingest(str(out), "y")
        assert np.allclose(again.inputs, train.inputs, atol=1e-12)

    def test_balanced_split_sizes(self, tmp_path):
        rng = np.random.default_rng(1)
        n_pos, n_neg = 1296, 2000
        rows = ([[rng.normal(), rng.normal(), 1] for _ in range(n_pos)]
                + [[rng.normal(), rng.normal(), 0] for _ in range(n_neg)])
        p = self.write_csv(tmp_path, rows)
        train, test, _ = ingest(str(p), "y", test_per_class=296,
                                train_per_class=1000, seed=4)
        assert test.n == 592
        assert train.n == 2000
        assert int((np.asarray(test.targets) == 1).sum()) == 296
        assert int((np.asarray(train.targets) == 1).sum()) == 1000

    def test_normalization_statistics_from_train_only(self, tmp_path):
        rows = [[i, 0, i % 2] for i in range(10)]
        p = self.write_csv(tmp_path, rows)
        train, test, _ = ingest(str(p), "y", test_fraction=0.3, seed=0)
        assert train.inputs[:, 0].min() == 0.0
        assert train.inputs[:, 0].max() == 1.0
        # test rows may fall outside [0,1]; they reuse train statistics
        assert test.n == 3

    def test_missing_values_error_lists_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,0\n,1\n2,\n")
        with pytest.raises(Exception) as exc:
            ingest(str(p), "y")
        assert "3" in str(exc.value) and "4" in str(exc.value)

    def test_non_numeric_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,0\nfoo,1\n")
        with pytest.raises(Exception) as exc:
            ingest(str(p), "y")
        assert "non-numeric" in str(exc.value)

    def test_cli_ingest_writes_files(self, tmp_path, capsys):
        p = self.write_csv(tmp_path, [[1, 2, 0], [3, 4, 1], [5, 6, 0],
                                      [7, 8, 1]])
        out = tmp_path / "ing"
        rc = main(["ingest", str(p), "--label", "y", "--test-per-class", "1",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "train.csv").exists() and (out / "test.csv").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["test_rows"] == 2

    def test_min_max_normalize_helper(self):
        train = np.array([[0.0, 1.0], [10.0, 1.0]])
        test = np.array([[5.0, 1.0], [20.0, 1.0]])
        tr, te = min_max_normalize(train, test)
        assert np.allclose(tr, [[0, 0], [1, 0]])
        assert np.allclose(te, [[0.5, 0], [2.0, 0]])


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
        sigma = rescale(x, x.mean(), ChiFunction())
        assert out["sigma_hat"] == pytest.approx(sigma, rel=1e-6)
        s = confidence_scale(sigma, len(x), 0.05)
        oracle = locate_oracle(x, s, RhoFunction("gudermannian"))
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
