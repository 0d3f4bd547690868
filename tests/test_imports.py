"""Runtime code depends on numpy alone: every ``xattn`` module must import
in a process where the test-only packages cannot be imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TEST_ONLY = ("scipy", "hypothesis", "pytest")

CHILD = f"""
import importlib, pkgutil, sys
for name in {TEST_ONLY!r}:
    sys.modules[name] = None  # any import of it now raises ImportError
import xattn
names = [m.name for m in pkgutil.walk_packages(xattn.__path__, "xattn.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_test_only_packages():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    modules = [p for p in (SRC / "xattn").glob("*.py") if p.name != "__init__.py"]
    assert int(result.stdout) == len(modules)
