"""Every name that a module of the package imports is used in that module,
every private module-level name is read somewhere in the package, and every
docstring reference to a name names something.

No linter is a dependency of the package; the first two checks walk the
modules' syntax trees with the standard ``ast`` module. ``__init__.py``
imports names to re-export them, and ``__future__`` imports are switches, so
both are left out of the first. The second counts only reads in the
package's own modules, so code kept for the tests alone fails it. The third
looks up the target of each ``:func:``, ``:class:``, ``:data:`` and
``:mod:`` reference in the imported module.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from functools import reduce
from pathlib import Path

import pytest

import somkit

SRC = Path(__file__).resolve().parents[1] / "src" / "somkit"
SOURCES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in SOURCES if name != "__init__.py"]
REFERENCE = re.compile(r":(?:func|class|data|mod):`([^`]+)`")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as read\n"
        "def f(x: np.ndarray):\n"
        "    return dumps(x)\n"
    )
    assert unused_imports(source) == ["os", "read"]


def test_the_package_has_modules():
    assert "som.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private functions, classes and constants that the modules of
    ``sources`` (module name -> source) define at module level and none of
    them reads, as "module.name", sorted. A read is a name loaded, an
    attribute of that name, or an import of it by another module."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_the_check_finds_unread_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_unused: int = 4\n"
            "__version__ = '1'\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _kept_for_tests():\n"
            "    return 1\n"
            "class _Gone:\n"
            "    pass\n"
        ),
        "b": "from .a import _helper\nimport a\nprint(a._LIMIT)\n",
    }
    assert unread_private_names(sources) == ["a._Gone", "a._kept_for_tests", "a._unused"]


def test_every_private_name_is_read_in_the_package():
    sources = {name.removesuffix(".py"): (SRC / name).read_text(encoding="utf-8")
               for name in SOURCES}
    assert unread_private_names(sources) == []


def unresolved_references(source: str, module) -> list[str]:
    """The targets of the references in ``source`` that name nothing, sorted:
    a bare name is looked up in ``module``, a dotted one from ``somkit``."""
    missing = []
    for name in sorted(set(REFERENCE.findall(source))):
        try:
            reduce(getattr, name.removeprefix("somkit.").split("."),
                   somkit if "." in name else module)
        except AttributeError:
            missing.append(name)
    return missing


def test_the_check_finds_references_that_name_nothing():
    source = (
        "Calls :func:`fit` on :data:`LIMIT` rows, then\n"
        ":func:`somkit.som.transform`; see :mod:`somkit.nowhere` and :class:`Gone`.\n"
    )
    module = types.SimpleNamespace(fit=print, LIMIT=1)
    assert unresolved_references(source, module) == ["Gone", "somkit.nowhere"]


@pytest.mark.parametrize("source", SOURCES)
def test_docstring_references_name_something(source):
    stem = source.removesuffix(".py")
    module = importlib.import_module("somkit" if stem == "__init__" else f"somkit.{stem}")
    assert unresolved_references((SRC / source).read_text(encoding="utf-8"), module) == []


def test_start_up_imports_neither_hashlib_nor_numpy_ma():
    """Every process pays for what ``import somkit.cli`` imports: hashlib
    about 4 ms, which only model files need, numpy.ma about 16 ms, and queue
    about 1.2 ms, which only online fits on two threads need."""
    code = ("import sys, somkit.cli\n"
            "print([m in sys.modules for m in ('hashlib', 'numpy.ma', 'queue')])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120)
    assert (proc.stdout, proc.stderr) == ("[False, False, False]\n", "")
