"""Command-line interface: seeded experiment runs with CSV output, dataset
ingestion with train-split normalization, standalone location/scale
estimation, and noise-family listings.

Config files are flat key-value text with [sections]; the grammar is
documented in the README.  Exit codes: 0 success, 1 runtime abort (partial
results flagged), 2 unusable config or input.
"""

import argparse
import configparser
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import ExperimentConfig, run_experiment
from .datagen import (
    FAMILIES,
    LADDER_FAMILIES,
    N_LEVELS,
    NoiseSpec,
    calibrate_noise,
    noise_sd,
    target_sd,
)
from .mest import ChiFunction, FixedPointSettings, RhoFunction, confidence_scale, locate, rescale
from .models import Dataset

_INT_KEYS = ("n", "d", "iters", "trials", "test_size", "seed", "classes",
             "features", "budget_factor")
_FLOAT_KEYS = ("alpha", "delta", "init_delta", "grad_norm_tol", "reg_strength",
               "separation", "label_noise", "init_scale")
_STR_KEYS = ("task", "rho")
_TUPLE_FLOAT_KEYS = ("init_deltas",)
_TUPLE_INT_KEYS = ("n_values", "d_values", "levels", "grid_n", "grid_d")
_TUPLE_STR_KEYS = ("methods", "families")


class ConfigError(Exception):
    pass


def _split_list(raw):
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _parse_experiment_section(section):
    kwargs = {}
    for key, raw in section.items():
        if key in _INT_KEYS:
            kwargs[key] = int(raw)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(raw)
        elif key in _STR_KEYS:
            kwargs[key] = raw.strip()
        elif key in _TUPLE_FLOAT_KEYS:
            kwargs[key] = tuple(float(v) for v in _split_list(raw))
        elif key in _TUPLE_INT_KEYS:
            kwargs[key] = tuple(int(v) for v in _split_list(raw))
        elif key in _TUPLE_STR_KEYS:
            kwargs[key] = _split_list(raw)
        else:
            raise ConfigError(f"unknown key in [experiment]: {key!r}")
    return kwargs


def _parse_noise_section(section):
    family = None
    level = None
    params = {}
    for key, raw in section.items():
        if key == "family":
            family = raw.strip()
        elif key == "level":
            level = int(raw)
        else:
            params[key] = float(raw)
    if family is None:
        raise ConfigError("[noise] section needs a 'family' key")
    try:
        return NoiseSpec(family, level=level, params=params or None)
    except ValueError as exc:
        raise ConfigError(f"[noise] family: {exc}") from exc


def load_config(path):
    """Parse an experiment config file into an ExperimentConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        # configparser reports offending line numbers in its message
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("config needs an [experiment] section")
    kwargs = _parse_experiment_section(parser["experiment"])
    if "noise" in parser:
        kwargs["noise"] = _parse_noise_section(parser["noise"])
    unknown = set(parser.sections()) - {"experiment", "noise"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "task" not in kwargs:
        raise ConfigError("[experiment] section needs a 'task' key")
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _next_run_dir(out_root):
    """Fresh run-NNN subdirectory; existing outputs are never overwritten."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    k = 1
    while True:
        candidate = out_root / f"run-{k:03d}"
        if not candidate.exists():
            candidate.mkdir()
            return candidate
        k += 1


def _write_results_csv(path, result):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["experiment", "method", "trial", "step", "metric",
                         "value"])
        for exp, method, trial, step, metric, value in result.rows():
            writer.writerow([exp, method, trial, step, metric,
                             repr(float(value))])


def _echo_config(cfg, seed, parallelism):
    lines = ["[resolved]"]
    lines.append(f"version = {__version__}")
    lines.append(f"base_seed = {seed}")
    lines.append(f"parallelism = {parallelism}")
    for key in ("task", "methods", "n", "d", "alpha", "iters", "trials",
                "test_size", "delta", "rho", "grad_norm_tol", "init_delta",
                "init_deltas", "n_values", "d_values", "families", "levels",
                "grid_n", "grid_d", "classes", "features", "reg_strength",
                "budget_factor", "separation", "label_noise", "init_scale"):
        lines.append(f"{key} = {getattr(cfg, key)}")
    lines.append(f"noise = {cfg.noise.label()}")
    return lines


def cmd_run(args):
    try:
        cfg = load_config(args.config)
        overrides = {"seed": args.seed, "trials": args.trials,
                     "methods": _split_list(args.methods) if args.methods else None}
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        if args.parallel < 1:
            raise ValueError(f"--parallel must be at least 1, got {args.parallel}")
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    run_dir = _next_run_dir(args.out)
    status = "ok"
    result = None
    try:
        result = run_experiment(cfg, parallelism=args.parallel)
        _write_results_csv(run_dir / "results.csv", result)
    except Exception as exc:  # harness failure: flag and report
        status = f"aborted: {type(exc).__name__}: {exc}"
    lines = _echo_config(cfg, cfg.seed, args.parallel)
    lines.append(f"status = {status}")
    if result is not None:
        lines.append(f"aborted_trials = {result.n_aborted}")
        lines.append(f"completed_trials = {len(result.completed())}")
        for tr in result.trials:
            if tr.aborted:
                cond = f"{tr.condition}." if tr.condition else ""
                lines.append(f"abort.{cond}{tr.trial}.{tr.method} = "
                             f"{' '.join(tr.note.split())}")
    (run_dir / "manifest.echo").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    print(run_dir)
    if status != "ok":
        print(f"run failed: {status}", file=sys.stderr)
        return 1
    return 0


def _read_numeric_csv(path):
    """Header + float matrix from a CSV file; missing, non-numeric and
    non-finite cells are reported with their row numbers."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("empty CSV file") from None
        header = [h.strip() for h in header]
        rows = []
        missing = []
        bad = []
        nonfinite = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigError(
                    f"row {lineno}: expected {len(header)} fields, got {len(row)}")
            vals = []
            for cell in row:
                cell = cell.strip()
                if cell == "":
                    missing.append(lineno)
                    vals.append(np.nan)
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    bad.append(lineno)
                    vals.append(np.nan)
                    continue
                if not np.isfinite(vals[-1]):
                    nonfinite.append(lineno)
            rows.append(vals)
    if missing:
        raise ConfigError(f"missing values in rows: {sorted(set(missing))}")
    if bad:
        raise ConfigError(f"non-numeric values in rows: {sorted(set(bad))}")
    if nonfinite:
        raise ConfigError(f"non-finite values in rows: {sorted(set(nonfinite))}")
    if not rows:
        raise ConfigError("CSV contains a header but no data rows")
    return header, np.asarray(rows, dtype=float)


def min_max_normalize(train, test=None):
    """Per-feature min-max scaling to [0, 1] with statistics from the
    training block only; constant features map to 0."""
    lo = train.min(axis=0)
    hi = train.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)

    def apply(x):
        out = (x - lo) / safe
        out[:, span == 0] = 0.0
        return out

    return apply(train), (apply(test) if test is not None else None)


def _stratified_split(labels, test_per_class, train_per_class, rng):
    classes = np.unique(labels)
    test_idx = []
    train_idx = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        rng.shuffle(members)
        if test_per_class > len(members):
            raise ConfigError(
                f"class {c:g}: requested {test_per_class} test rows, "
                f"have {len(members)}")
        test_idx.extend(members[:test_per_class])
        rest = members[test_per_class:]
        if train_per_class is not None:
            if train_per_class > len(rest):
                raise ConfigError(
                    f"class {c:g}: requested {train_per_class} train rows, "
                    f"have {len(rest)} after the test split")
            rest = rest[:train_per_class]
        train_idx.extend(rest)
    return np.sort(np.asarray(train_idx)), np.sort(np.asarray(test_idx))


def ingest(path, label_col, feature_cols=None, test_per_class=None,
           train_per_class=None, test_fraction=None, seed=0):
    """Load a labeled CSV, split, and min-max normalize from the train split.

    Returns (train Dataset, test Dataset or None, feature names).  Ingestion
    is idempotent: re-ingesting an already normalized training file leaves
    the values unchanged.
    """
    header, mat = _read_numeric_csv(path)
    if label_col not in header:
        raise ConfigError(f"label column {label_col!r} not in header {header}")
    li = header.index(label_col)
    if feature_cols:
        for c in feature_cols:
            if c not in header:
                raise ConfigError(f"feature column {c!r} not in header")
        fidx = [header.index(c) for c in feature_cols]
    else:
        fidx = [i for i in range(len(header)) if i != li]
    names = [header[i] for i in fidx]
    X = mat[:, fidx]
    y = mat[:, li]

    if test_fraction is not None and not 0.0 <= test_fraction < 1.0:
        raise ConfigError(f"test fraction must lie in [0, 1), got {test_fraction}")
    for what, count in (("test", test_per_class), ("train", train_per_class)):
        if count is not None and count < 0:
            raise ConfigError(f"{what} rows per class must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    if test_per_class is not None:
        tr, te = _stratified_split(y, test_per_class, train_per_class, rng)
    elif test_fraction:
        perm = rng.permutation(len(y))
        n_test = int(round(test_fraction * len(y)))
        te = np.sort(perm[:n_test])
        tr = np.sort(perm[n_test:])
    else:
        tr = np.arange(len(y))
        te = np.array([], dtype=int)
    if not tr.size:
        raise ConfigError("the split leaves no training rows")

    X_train, X_test = min_max_normalize(X[tr], X[te] if te.size else None)
    train = Dataset(X_train, _as_labels(y[tr]))
    test = Dataset(X_test, _as_labels(y[te])) if te.size else None
    return train, test, names


def _as_labels(y):
    """Whole-number labels as class indices; any other labels as they are."""
    if np.all(y == np.round(y)):
        return np.round(y).astype(int)
    return y


def _write_dataset_csv(path, ds, names, label_col):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names + [label_col])
        for xi, yi in zip(ds.inputs, ds.targets):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def cmd_ingest(args):
    try:
        feature_cols = _split_list(args.features) if args.features else None
        train, test, names = ingest(
            args.csv, args.label, feature_cols=feature_cols,
            test_per_class=args.test_per_class,
            train_per_class=args.train_per_class,
            test_fraction=args.test_fraction, seed=args.seed)
    except ConfigError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_dataset_csv(out / "train.csv", train, names, args.label)
    summary = {"train_rows": train.n, "features": names, "seed": args.seed}
    if test is not None:
        _write_dataset_csv(out / "test.csv", test, names, args.label)
        summary["test_rows"] = test.n
    print(json.dumps(summary, sort_keys=True))
    return 0


def _read_column_file(path):
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ConfigError(f"line {lineno}: not a number: {line!r}") from None
            if not np.isfinite(values[-1]):
                raise ConfigError(f"line {lineno}: not a finite number: {line!r}")
    if not values:
        raise ConfigError("no numbers found in input file")
    return np.asarray(values)


def cmd_mest(args):
    try:
        x = _read_column_file(args.data)
        rho = RhoFunction(args.rho)
        if not 0.0 < args.delta < 1.0:
            raise ConfigError(f"--delta must lie in (0, 1), got {args.delta}")
        if args.scale is not None and not 0.0 < args.scale < np.inf:
            raise ConfigError(f"--scale must be positive and finite, got {args.scale}")
    except (ConfigError, ValueError) as exc:
        print(f"mest error: {exc}", file=sys.stderr)
        return 2
    chi = ChiFunction()
    fp = FixedPointSettings()
    sigma = rescale(x, float(x.mean()), chi, fp)
    s = args.scale if args.scale is not None else confidence_scale(
        sigma, len(x), args.delta)
    theta = locate(x, s, rho, fp)
    print(json.dumps({"n": len(x), "theta_hat": theta, "sigma_hat": sigma,
                      "s": s}, sort_keys=True))
    return 0


def cmd_families(args):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family", "level", "target_sd", "analytic_sd",
                     "finite_variance", "params"])
    for family in FAMILIES:
        for level in range(1, N_LEVELS + 1):
            params = calibrate_noise(family, level)
            spec = NoiseSpec(family, params=dict(params))
            sd = noise_sd(spec)
            tgt = f"{target_sd(level):.6g}" if family in LADDER_FAMILIES else "-"
            writer.writerow([
                family, level, tgt,
                f"{sd:.6g}" if np.isfinite(sd) else "inf",
                str(bool(np.isfinite(sd))).lower(),
                ";".join(f"{k}={v:.6g}" for k, v in sorted(params.items())),
            ])
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="robustgd",
        description="Robust gradient descent experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="INI-style config file")
    p_run.add_argument("--out", default="results", help="output root directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--methods", default=None,
                       help="override method list (comma-separated)")
    p_run.add_argument("--trials", type=int, default=None,
                       help="override trial count")
    p_run.add_argument("--parallel", type=int, default=1,
                       help="trial-level worker processes")

    p_ing = sub.add_parser("ingest", help="normalize and split a labeled CSV")
    p_ing.add_argument("csv")
    p_ing.add_argument("--label", required=True, help="label column name")
    p_ing.add_argument("--features", default=None,
                       help="feature columns (comma-separated; default: all others)")
    p_ing.add_argument("--test-per-class", type=int, default=None)
    p_ing.add_argument("--train-per-class", type=int, default=None)
    p_ing.add_argument("--test-fraction", type=float, default=None)
    p_ing.add_argument("--seed", type=int, default=0)
    p_ing.add_argument("--out", default="ingested")

    p_mest = sub.add_parser("mest", help="location/scale estimates of a 1-D sample")
    p_mest.add_argument("data", help="text file, one number per line")
    p_mest.add_argument("--rho", default="gudermannian",
                        help="influence family (gudermannian, log_cosh, "
                             "pseudo_huber, quadratic_test_only)")
    p_mest.add_argument("--delta", type=float, default=0.05)
    p_mest.add_argument("--scale", type=float, default=None,
                        help="override the confidence scale s")

    sub.add_parser("families", help="list noise families and levels")
    sub.add_parser("version", help="print the library version")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "ingest":
        return cmd_ingest(args)
    if args.command == "mest":
        return cmd_mest(args)
    if args.command == "families":
        return cmd_families(args)
    print(__version__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
