"""The benchmark's traced run wraps library functions at the names their
callers look up; a rename or move must not silently drop a layer from it.
Its setup probe, which the benchmark runs with ``check=True``, must keep
running against the library."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.mark.parametrize(
    "owner, attr", [(p, a) for p, a, _ in tracing.SPANNED + tracing.COUNTED])
def test_hook_point_resolves(owner, attr):
    # the tracer patches owner.__dict__[attr], so inherited or module-level
    # look-ups elsewhere do not count
    assert attr in vars(tracing.resolve(owner))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_probe_exits_0(tmp_path, name):
    # each workload's config as the benchmark writes it, probed in a fresh
    # process as ``setup_seconds`` probes it
    w = workloads.WORKLOADS[name]
    cfg = tmp_path / "workload.ini"
    cfg.write_text(w.config_text({**w.params, "seed": 0}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "run.py"), "--setup-probe", str(cfg)],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
