"""The benchmark's traced run wraps named functions of the package; each
name it lists must still exist, or the benchmark fails instead of tier-1."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# run_path compiles the file without importing it or caching its bytecode
TARGETS = [(module, attr) for module, attr, _, _ in runpy.run_path(str(TRACER))["TARGETS"]]


@pytest.mark.parametrize("module, attr", TARGETS)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
