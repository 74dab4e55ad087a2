"""Every name a package module imports is used in that module, and the
package's ``__all__`` lists every name it re-exports.

Parses the module sources with :mod:`ast` only.  ``__init__.py`` is
skipped there: its imports are the package's re-exports.

Importing the package loads none of :mod:`dataclasses`, :mod:`inspect`
(together about half of a cold import) and :mod:`typing`, and its result records stay
immutable, as does a :class:`ResiduatedStructure`, whose verdicts read
the tables it was built with.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kleene_posets
from kleene_posets.enumeration import CLAIMS, AuditReport, InstanceSpace
from kleene_posets.figures import figure
from kleene_posets.residuation import (ResiduatedStructure, ResiduationReport,
                                       Theorem54Item, Theorem54Report)
from kleene_posets.twist import TwistAuditReport

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


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter without ``site``, so nothing else loads them;
    nor ``typing``, which the records' ``collections.namedtuple`` bases
    do without."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, kleene_posets; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


RECORDS = (kleene_posets.Verdict, kleene_posets.Classification, ResiduationReport,
           Theorem54Item, Theorem54Report, TwistAuditReport,
           kleene_posets.PosetDocument, InstanceSpace, AuditReport)


@pytest.mark.parametrize("record, field",
                         [*((cls._make([None] * len(cls._fields)), cls._fields[0])
                            for cls in RECORDS),
                          (CLAIMS["Lem-4.1"], "claim_id"),
                          (ResiduatedStructure(figure("fig7")), "top")],
                         ids=[*(cls.__name__ for cls in RECORDS), "Claim",
                              "ResiduatedStructure"])
def test_records_are_immutable(record, field):
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_claim_fields_are_in_its_dict():
    """``benchmarks/tracing.py`` finds the evaluators' closures through
    ``vars(claim)``."""
    claim = CLAIMS["Lem-4.1"]
    assert vars(claim)["evaluate"] is claim.evaluate
    assert vars(claim._replace(default_n=3)) == dict(vars(claim), default_n=3)
