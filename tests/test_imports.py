"""Runtime code depends on numpy alone: every ``xattn`` module must import
in a process where the test-only packages cannot be imported. Every
name a module imports is used in it, and every private module-level name
the package defines is read in the package."""

import ast
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


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads. A string annotation,
    such as ``"Path | str"``, reads the names in it."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                parsed = ast.parse(annotation.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
        if isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom typing import IO\n"
    assert unused_imports(source) == ["os (line 2)", "np (line 2)", "IO (line 3)"]
    assert unused_imports(source + "def f(x: 'IO | int') -> np.ndarray:\n    return os\n") == []


def test_every_imported_name_is_used():
    unused = {
        path.name: names
        for path in sorted((SRC / "xattn").glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}



def private_definitions(source: str) -> dict[str, int]:
    """Module-level names beginning with one ``_`` that ``source`` defines
    (functions, classes, assignments), by line."""
    defined: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names if name[:1] == "_" and name[:2] != "__")
    return defined


def unread_privates(sources: dict[str, str]) -> list[str]:
    """``module.name (line n)`` for each private module-level name that
    the package, given as module name -> source, never reads. A name is
    read where its module loads it, or where another module imports it
    (``from .module import name``), which the check above makes that
    module use."""
    read = {module: set() for module in sources}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[module].add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in read:
                read[node.module].update(alias.name for alias in node.names)
    return [
        f"{module}.{name} (line {line})"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read[module]
    ]


def test_unread_privates_are_found():
    helpers = "_SIZE = 4\n_a, (_b, c) = 1, (2, 3)\ndef _used():\n    return _SIZE\nclass _Kept:\n    pass\n"
    user = "from .helpers import _Kept\n_Kept\n"
    assert unread_privates({"helpers": helpers, "user": user}) == [
        "helpers._a (line 2)", "helpers._b (line 2)", "helpers._used (line 3)"
    ]
    assert unread_privates({"helpers": helpers + "print(_a, _b, _used())\n", "user": user}) == []


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in sorted((SRC / "xattn").glob("*.py"))}
    assert unread_privates(sources) == []
