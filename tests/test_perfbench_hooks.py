"""The benchmark's per-layer hooks name live library callables.

`perfbench/tracer.py` wraps every (module, qualified name) of its `LAYERS`
list when the benchmark runs with `--trace 1`, so a renamed or deleted
function would otherwise break only that run.  Each entry is resolved the
way `Tracer.install` resolves it, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module_name, qualname", [layer[:2] for layer in tracer.LAYERS])
def test_layer_resolves(module_name, qualname):
    module = importlib.import_module(f"smt_kit.{module_name}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        target = getattr(module, owner_name).__dict__[attr]
        if isinstance(target, property):
            target = target.fget
    else:
        target = getattr(module, attr)
    assert callable(target)
