"""The benchmark's traced run wraps library functions at the names their
callers look up; a rename or move must not silently drop a layer from it."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "owner, attr", [(p, a) for p, a, _ in tracing.SPANNED + tracing.COUNTED])
def test_hook_point_resolves(owner, attr):
    # the tracer patches owner.__dict__[attr], so inherited or module-level
    # look-ups elsewhere do not count
    assert attr in vars(tracing.resolve(owner))
