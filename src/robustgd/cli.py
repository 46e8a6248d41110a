"""Command-line interface: seeded experiment runs with CSV output, standalone
location/scale estimation, and noise-family listings.

Config files are flat key-value text with [sections]; the grammar is
documented in the README.  Exit codes: 0 success, 1 runtime abort (partial
results flagged), 2 unusable config or input.
"""

import argparse
import configparser
import csv
import io
import json
import re
import sys
import typing
from dataclasses import fields, replace
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
from .mest import RhoFunction, locate_columns
from .robust_grad import RobustConfig, robust_gradient


class ConfigError(Exception):
    pass


def _split_list(raw):
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _value(section, key, hint, raw):
    """``raw`` as a value of the field type ``hint``: a scalar type,
    ``T | None`` read as T, or a comma-separated ``tuple[T, ...]``.  A value
    that fails to convert names its key."""
    args = typing.get_args(hint)
    try:
        if typing.get_origin(hint) is tuple:
            return tuple(args[0](v) for v in _split_list(raw))
        return (args[0] if args else hint)(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


# the [experiment] keys and their types: ExperimentConfig's fields but noise,
# which has a section of its own
_EXPERIMENT_KEYS = {key: hint for key, hint
                    in typing.get_type_hints(ExperimentConfig).items() if key != "noise"}


def _parse_experiment_section(section):
    kwargs = {}
    for key, raw in section.items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key in [experiment]: {key!r}")
        kwargs[key] = _value("experiment", key, _EXPERIMENT_KEYS[key], raw)
    return kwargs


def _parse_noise_section(section):
    family = None
    level = None
    params = {}
    for key, raw in section.items():
        if key == "family":
            family = raw.strip()
        elif key == "level":
            level = _value("noise", key, int, raw)
        else:
            params[key] = _value("noise", key, float, raw)
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


# characters that make csv.writer quote a field under minimal quoting
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text):
    """``text`` as ``csv.writer(lineterminator="\\n")`` writes it inside a
    row: as is, or through the csv module where it needs quoting."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_results_csv(path, result):
    """Write the long-format rows (experiment, method, trial, step, metric,
    value) of ``result.trial_tables()`` as ``results.csv``, one trial at a
    time.

    The bytes are csv.writer's for those rows with every value as
    ``repr(float(value))``.  Each trial's rows are formatted as one string:
    its fixed fields once, each step key once, and each metric column
    converted to floats once.  The file is never held whole: at 250 trials
    it is megabytes, and freeing a block of 1 MB or more raises the C
    allocator's mmap threshold for the rest of the process.
    """
    task = _csv_field(result.config.task)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("experiment,method,trial,step,metric,value\n")
        for tr, keys, names, columns, terminal in result.trial_tables():
            head = f"{task},{_csv_field(tr.method)},{tr.trial},"
            names = [_csv_field(m) for m in names]
            columns = [np.asarray(col, dtype=float).tolist() for col in columns]
            lines = []
            for i, key in enumerate(keys):
                lead = f"{head}{_csv_field(key)},"
                lines += [f"{lead}{m},{col[i]!r}\n" for m, col in zip(names, columns)]
            lines += [f"{head}{_csv_field(key)},{_csv_field(m)},{float(value)!r}\n"
                      for key, m, value in terminal]
            fh.write("".join(lines))


def _echo_config(cfg, seed, parallelism):
    lines = ["[resolved]"]
    lines.append(f"version = {__version__}")
    lines.append(f"base_seed = {seed}")
    lines.append(f"parallelism = {parallelism}")
    # seed and noise have their own lines
    for f in fields(cfg):
        if f.name not in ("seed", "noise"):
            lines.append(f"{f.name} = {getattr(cfg, f.name)}")
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


def _read_column_file(path):
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read data: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
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
        cfg = RobustConfig(rho=rho, delta=args.delta)
    except (ConfigError, ValueError) as exc:
        print(f"mest error: {exc}", file=sys.stderr)
        return 2
    theta, info = robust_gradient(x[:, None], cfg)
    s = float(info["s"][0])
    if args.scale is not None:
        s = args.scale
        theta, _ = locate_columns(x[:, None], [s], rho)
    print(json.dumps({"n": len(x), "theta_hat": float(theta[0]),
                      "sigma_hat": float(info["sigma"][0]), "s": s}, sort_keys=True))
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
    if args.command == "mest":
        return cmd_mest(args)
    if args.command == "families":
        return cmd_families(args)
    print(__version__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
