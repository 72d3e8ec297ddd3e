"""The benchmark's traced run wraps ajar's module-level names listed in
``perfbench/tracing.py``; a name that disappears would silently zero its
per-layer metric, so each must still resolve to a callable."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(module_name, attr) for module_name, attr, _, _ in module.BOUNDARIES]


@pytest.mark.parametrize("module_name,attr", _boundaries())
def test_boundary_resolves_to_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
