"""Outside-in benchmark of robustgd's protocol runs.

    python3 perfbench/run.py --workload poc_heavy --seed 0 --seconds 25 --trace 0

Runs ``robustgd run`` (``robustgd.cli.main``, in this process, one worker)
on a seeded workload config, pass after pass, until ``--seconds`` have
passed and at least three passes are done.  ``--trace 0`` reports the
end-to-end metrics, timing a frozen reference kernel (reference.py) between
passes and reporting pass time normalised by it; ``--trace 1`` alternates untraced and traced passes and
reports per-layer metrics from the spans plus kernel probes.  Every run
checks the outputs and exits 1 on a violation.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  See NOTES.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probes
import reference
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_PASSES = 3
SETUP_REPEATS = 7


def import_program():
    """Import robustgd from this checkout's src/, never from elsewhere."""
    if not (SRC / "robustgd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no robustgd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import robustgd

    if Path(robustgd.__file__).resolve().parent != (SRC / "robustgd").resolve():
        raise SystemExit(f"perfbench: robustgd imported from {robustgd.__file__}")
    return robustgd


def setup_probe(config_path):
    """What a fresh process does before its first trial: import, parse the
    config, draw the first trial's data and take one robust gradient."""
    import_program()
    import numpy as np
    from robustgd import cli, datagen, models, robust_grad

    cfg = cli.load_config(config_path)
    rng = np.random.default_rng(cfg.seed)
    if cfg.task == "classification_budget":
        ds = datagen.gen_classification(cfg.n, cfg.features, cfg.classes, rng,
                                        separation=cfg.separation,
                                        label_noise=cfg.label_noise)
        d = (cfg.classes - 1) * cfg.features
        model = models.LogisticModel(cfg.classes, cfg.features, np.zeros(d),
                                     reg_strength=cfg.reg_strength)
    else:
        d = cfg.d_values[0] if cfg.task == "d_sweep" else cfg.d
        ds, _ = datagen.gen_regression(cfg.n, d, cfg.noise, rng)
        model = models.LinearModel(np.zeros(d))
    _, G = models.loss_and_grad_rows(model, ds)
    robust_grad.robust_gradient(G, cfg.robust_config())


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def environment(robustgd):
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "robustgd": robustgd.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": thread_env or "unset (library defaults)",
    }


def setup_seconds(config_path):
    """Median wall time of fresh processes running setup_probe."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                        str(config_path)], check=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(run_dir):
    return hashlib.sha256((run_dir / "results.csv").read_bytes()).hexdigest()


class Runner:
    """Runs passes of one config through ``robustgd run`` into a scratch dir."""

    def __init__(self, cli, config_path, out_dir, seed):
        self.cli = cli
        self.argv = ["run", "--config", str(config_path), "--out", str(out_dir),
                     "--seed", str(seed), "--parallel", "1"]
        self.out_dir = out_dir
        self.dirs = []

    def one(self, main=None):
        """Seconds one pass through ``main`` (default cli.main) takes."""
        main = main or self.cli.main
        t0 = time.perf_counter()
        rc = main(self.argv)
        elapsed = time.perf_counter() - t0
        run_dir = sorted(self.out_dir.glob("run-*"))[-1]
        if rc != 0:
            raise RuntimeError(f"robustgd run exited {rc} in {run_dir}")
        self.dirs.append(run_dir)
        return elapsed


def traced_pass(runner, capture):
    """One pass with every traced lookup site wrapped; returns
    (seconds, tracer, per-layer metrics)."""
    tracer = tracing.Tracer(capture)
    main = tracer.span("cli.main", runner.cli.main)
    with tracing.patched(tracer.replacements()):
        elapsed = runner.one(main)
    return elapsed, tracer, tracing.layer_metrics(tracer, elapsed)


def check_outputs(workload, params, runner, problems):
    """Output checks shared by both modes; returns (attempted, failed, loss)."""
    first = runner.dirs[0]
    cell_problems, attempted, failed = wl.check_cells(first, workload, params)
    problems += cell_problems
    rows = wl.terminal_rows(first, workload)
    loss = wl.terminal_loss(rows, workload)
    problems += wl.check_protocol(rows, loss, workload, params)
    digests = {digest(d) for d in runner.dirs}
    if len(digests) != 1:
        problems.append(f"{len(runner.dirs)} passes wrote {len(digests)} "
                        "different results.csv files")
    return attempted, failed, loss


def check_anchor(cli, workload, scratch, problems):
    """One pass of the pinned reference config; its terminal losses must
    match references.json."""
    ref = wl.load_references()[workload.name]
    cfg = scratch / "anchor.ini"
    cfg.write_text(workload.config_text(ref["params"]), encoding="utf-8")
    runner = Runner(cli, cfg, scratch / "anchor", ref["seed"])
    runner.one()
    loss = wl.terminal_loss(wl.terminal_rows(runner.dirs[0], workload), workload)
    problems += wl.check_anchor(loss, ref)
    return loss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    robustgd = import_program()
    from robustgd import cli

    workload = wl.WORKLOADS[args.workload]
    params = {**workload.params, "seed": args.seed}
    env = environment(robustgd)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        cfg = scratch / "workload.ini"
        cfg.write_text(workload.config_text(params), encoding="utf-8")
        runner = Runner(cli, cfg, scratch / "passes", args.seed)
        problems = []
        report = {"workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": env, "config": cfg.read_text(encoding="utf-8")}
        if args.trace:
            spans = OUT / f"{workload.name}-seed{args.seed}-spans.csv.gz"
            metrics, extra = measure_traced(runner, args.seconds, spans, problems)
            shown = dict(metrics)
        else:
            metrics, shown, extra = measure_untraced(runner, cfg, args.seconds)
            shown.update(metrics)
        attempted, failed, loss = check_outputs(workload, params, runner, problems)
        anchor = check_anchor(cli, workload, scratch, problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    unit = "misclassification" if workload.classification else "excess_risk"
    if not args.trace:
        shown.update({f"terminal_loss.{m}": {"value": v, "unit": unit}
                      for m, v in loss.items()})
        shown["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}
    report.update(metrics=shown, anchor_terminal_loss=anchor, problems=problems,
                  attempted=attempted, failed=failed, **extra)
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for key, value in env.items():
        print(f"env {key}: {value}")
    for name, m in shown.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"report: {report_path}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def measure_untraced(runner, cfg, seconds):
    setup_s = setup_seconds(cfg)
    ref = reference.Reference()
    times, refs = [], [ref.sample()]
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        times.append(runner.one())
        refs.append(ref.sample())
    # each pass against the mean of the reference samples on either side
    ratios = [t / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:])]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_norm_s": {"value": statistics.median(ratios) * reference.NOMINAL_S,
                               "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    shown = {"wall_s": {"value": statistics.median(times), "unit": "s"},
             "reference_s": {"value": statistics.median(refs), "unit": "s"}}
    return metrics, shown, {"pass_seconds": times, "reference_seconds": refs}


def measure_traced(runner, seconds, spans_path, problems):
    capture = probes.Capture()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    runner.one()  # warm-up: the first pass in a process runs slow
    while not traced or time.perf_counter() - start < seconds:
        elapsed, tracer, m = traced_pass(runner, capture if not traced else None)
        traced.append(elapsed)
        layers.append(m)
        plain.append(runner.one())
    tracer.write(spans_path)
    per_layer, mismatched = tracing.median_metrics(layers)
    problems += [f"count {k} differs between traced passes" for k in mismatched]
    per_layer["trace.overhead_frac"] = (statistics.median(traced)
                                        / statistics.median(plain) - 1.0)
    per_layer.update(probes.run(capture))
    units = {"s": "s", "self_s": "s", "unattributed_s": "s", "us_p50": "us",
             "self_us_per_step": "us", "bytes_computed": "B",
             "fallback_frac": "fraction", "overhead_frac": "fraction"}
    metrics = {k: {"value": v, "unit": units.get(k.rpartition(".")[2], "count")}
               for k, v in per_layer.items()}
    return metrics, {"untraced_pass_seconds": plain, "traced_pass_seconds": traced}


if __name__ == "__main__":
    sys.exit(main())
