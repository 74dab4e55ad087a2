"""Every name a package module imports is used in that module, and the
package's ``__all__`` lists every name it re-exports.

Parses the module sources with :mod:`ast` only.  ``__init__.py`` is
skipped there: its imports are the package's re-exports.
"""

import ast
import types
from pathlib import Path

import pytest

import kleene_posets

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kleene_posets"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nfrom a.b import c, d as e\nfrom __future__ import annotations\ne()\n"
    assert _unused_imports(source) == [(1, "os"), (2, "c")]


def test_all_lists_every_public_name():
    """``from kleene_posets import *`` brings every public name the
    package binds, submodules aside, and no other."""
    public = {name for name, value in vars(kleene_posets).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(kleene_posets.__all__) - {"__version__"}
