"""The benchmark's anchors, run in the test suite.

``perfbench/run.py`` ends every pass with one run of the workload's pinned
reference config (``perfbench/references.json``) and fails the workload
when a terminal loss leaves the stored tolerance.  Each test here runs that
config the way the benchmark does, through ``robustgd run`` at the stored
seed, checks it with the benchmark's own ``check_anchor``, and echoes each
method's drift from its reference after the run, so a change that moves
result bits on purpose sees its headroom before the benchmark runs.
"""

import pytest

import conftest
from robustgd.cli import main

from test_perfbench_hooks import workloads

REFERENCES = workloads.load_references()


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_anchor_within_its_tolerance(tmp_path, name):
    w, ref = workloads.WORKLOADS[name], REFERENCES[name]
    cfg = tmp_path / "anchor.ini"
    cfg.write_text(w.config_text(ref["params"]), encoding="utf-8")
    out = tmp_path / "anchor"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed",
                 str(ref["seed"]), "--parallel", "1"]) == 0
    run_dir, = out.glob("run-*")
    loss = workloads.terminal_loss(workloads.terminal_rows(run_dir, w), w)
    rel, absolute = ref.get("rel_tol", 0.0), ref.get("abs_tol", 0.0)
    for m, want in ref["terminal_loss"].items():
        drift = loss[m] - want
        allowed = max(rel * abs(want), absolute)
        conftest.ANCHOR_LINES.append(
            f"{name}.{m}: {loss[m]!r}, reference {want!r}, drift {drift:+.3g} "
            f"({drift / want:+.2e} relative), {abs(drift) / allowed:.0%} of the "
            f"tolerance {allowed:.3g}")
    assert workloads.check_anchor(loss, ref) == []
