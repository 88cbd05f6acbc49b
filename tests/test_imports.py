"""Every name that a module of the package imports is used in that module,
and every docstring reference to a name names something.

No linter is a dependency of the package; the first check walks each
module's syntax tree with the standard ``ast`` module. ``__init__.py``
imports names to re-export them, and ``__future__`` imports are switches, so
both are left out. The second looks up the target of each ``:func:``,
``:class:``, ``:data:`` and ``:mod:`` reference in the imported module.
"""

import ast
import importlib
import re
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
