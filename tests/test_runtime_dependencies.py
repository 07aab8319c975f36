"""numpy is the only runtime dependency: every `qprism` module imports with
the packages that only the tests use made unimportable."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TEST_ONLY = ("sympy", "scipy", "hypothesis")
PROBE = """
import importlib, pkgutil, sys
for name in {blocked!r}:
    sys.modules[name] = None  # importing it, or any submodule, raises ImportError
import qprism
names = [info.name for info in pkgutil.iter_modules(qprism.__path__, "qprism.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_the_test_only_packages():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = PROBE.format(blocked=TEST_ONLY)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    modules = [path for path in (SRC / "qprism").glob("*.py") if path.name != "__init__.py"]
    assert int(proc.stdout) == len(modules)
