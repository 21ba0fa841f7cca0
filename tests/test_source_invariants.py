"""Two invariants of the package, read off its source with ``ast``: the
runtime imports only the standard library, and no code uses floating
point (``as_rational`` may still test ``isinstance(value, float)`` to
convert a JSON float through its decimal string)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tinopt").glob("*.py"))


def _violations(source: str) -> list:
    """(line, what) for each absolute import outside the standard library,
    each float or complex literal and each ``float(...)`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found += [(node.lineno, "import " + name) for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, "literal %r" % node.value))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
    return found


def test_the_scan_finds_planted_violations():
    planted = ("import os, numpy.linalg\nfrom scipy import optimize\n"
               "from . import model\nx = 0.5 + 1j\ny = float('1')\n"
               "z = isinstance(x, float)\n")
    assert sorted(_violations(planted)) == [
        (1, "import numpy.linalg"), (2, "import scipy"), (4, "literal 0.5"),
        (4, "literal 1j"), (5, "float() call")]


def test_sources_import_only_the_standard_library_and_use_no_floats():
    assert len(SOURCES) >= 9
    found = {path.name: _violations(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
