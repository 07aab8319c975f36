"""Every layer the benchmark's tracer wraps must still exist in qprism:
a renamed or deleted target would make `perfbench/run.py --trace 1` fail
with a KeyError that no other test sees."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


@pytest.mark.parametrize("target", _trace_targets(), ids=lambda t: t.name)
def test_trace_target_resolves(target):
    module = importlib.import_module(f"qprism.{target.module}")
    cls_name, _, attr = target.attr.rpartition(".")
    owner = getattr(module, cls_name) if cls_name else module
    # the tracer rebinds the entry of the module or of the class itself
    assert attr in vars(owner)
