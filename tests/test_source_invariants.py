"""Invariants of the package, read off its source with ``ast``: the
runtime imports only the standard library, no code uses floating point
(``as_rational`` may still test ``isinstance(value, float)`` to convert a
JSON float through its decimal string), each module imports only modules
of lower layers, ``region`` alone holds the bound tables, only
``LinearProgram`` and ``solve_lp`` handle an "==" relation, and every
exported name is bound where it is listed: each name in a module's
``__all__`` is bound in that module, and each name the package's
``__init__`` imports is in its module's ``__all__``.  The README's Python
examples run as written."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tinopt").glob("*.py"))


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


# model -> {cycles, fixtures} -> optimize -> {region, detmodel} -> report -> cli;
# the package's __init__ and __main__ may import any module.  The fixtures
# sit directly above model, so a bundled example stays plain data
LAYERS = {"model": 0, "cycles": 1, "fixtures": 1, "optimize": 2, "region": 3,
          "detmodel": 3, "report": 4, "cli": 5}

# the per-K cycle table and the per-subset tables, read by region alone
BOUND_TABLES = {"_cycle_table", "_subset_sums", "_heaviest_cycles", "_partition_bounds"}


def _package_imports(node) -> list:
    """The package modules an import statement names: ``from .x import``,
    ``from . import x``, ``from tinopt import x``, ``import tinopt.x``."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level <= 1:
        base = ".".join((["tinopt"] if node.level else []) + [node.module or ""]).rstrip(".")
        dotted = [base + "." + alias.name for alias in node.names] if base == "tinopt" else [base]
    else:
        return []
    return [name.split(".")[1] for name in dotted if name.startswith("tinopt.")]


def _layer_violations(module: str, source: str) -> list:
    """(line, what) for each package module that ``module`` imports from its
    own layer or a higher one."""
    return [(node.lineno, "imports " + name)
            for node in ast.walk(ast.parse(source)) for name in _package_imports(node)
            if LAYERS.get(name, len(LAYERS)) >= LAYERS[module]]


def _table_violations(source: str) -> list:
    """(line, what) for each bound table the source defines or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "imports", alias.name) for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, "defines", node.name))
        elif isinstance(node, ast.Assign):
            found += [(node.lineno, "defines", target.id) for target in node.targets
                      if isinstance(target, ast.Name)]
    return [(line, verb + " " + name) for line, verb, name in found if name in BOUND_TABLES]


# the only places an "==" relation may appear: LinearProgram accepts it and
# solve_lp hands it to the simplex driver as a "<=" and a ">=" row, so every
# tableau row, a decomposition LP's user totals included, has its own slack
EQUALITY_OWNERS = {"optimize": {"_RELS", "LinearProgram", "solve_lp"}}


def _equality_violations(source: str, owners=frozenset()) -> list:
    """(line, where) for each "==" string constant outside the top-level
    definitions and assignments named in ``owners``."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names = [top.name]
        elif isinstance(top, ast.Assign):
            names = [target.id for target in top.targets if isinstance(target, ast.Name)]
        else:
            names = []
        if not owners.intersection(names):
            found += [(node.lineno, "in " + (names[0] if names else "<module>"))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Constant) and node.value == "=="]
    return sorted(found)


def test_the_equality_scan_finds_planted_violations():
    planted = ('_RELS = ("<=", "==")\nclass LinearProgram:\n    rel = "=="\n'
               'class _Tableau:\n    def __init__(self, rel):\n        self.eq = rel == "=="\n'
               'def _cutting_plane_lp():\n    return ">=", "=="\nif rel == "==":\n    pass\n'
               'def solve_lp():\n    """an "==" row in a docstring is no relation"""\n')
    assert _equality_violations(planted, EQUALITY_OWNERS["optimize"]) == [
        (6, "in _Tableau"), (8, "in _cutting_plane_lp"), (9, "in <module>")]
    assert _equality_violations(planted) == [
        (1, "in _RELS"), (3, "in LinearProgram"), (6, "in _Tableau"),
        (8, "in _cutting_plane_lp"), (9, "in <module>")]


def test_only_linear_program_and_solve_lp_handle_equalities():
    found = {path.stem: _equality_violations(path.read_text(),
                                             EQUALITY_OWNERS.get(path.stem, frozenset()))
             for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_layering_scan_finds_planted_violations():
    planted = ("from .region import tin_region\nfrom . import report, model\n"
               "from .optimize import solve_lp\nfrom .cycles import _cycle_table\n"
               "from tinopt import cli\nimport itertools, tinopt.fixtures\n"
               "def _heaviest_cycles(flat, k):\n    pass\n_subset_sums = None\n")
    assert _layer_violations("optimize", planted) == [
        (1, "imports region"), (2, "imports report"), (3, "imports optimize"),
        (5, "imports cli")]
    # a module of the same layer is no lower layer
    assert _layer_violations("region", planted) == [
        (1, "imports region"), (2, "imports report"), (5, "imports cli")]
    # the fixtures may import model alone
    assert _layer_violations("fixtures", planted) == [
        (1, "imports region"), (2, "imports report"), (3, "imports optimize"),
        (4, "imports cycles"), (5, "imports cli"), (6, "imports fixtures")]
    assert _table_violations(planted) == [
        (4, "imports _cycle_table"), (7, "defines _heaviest_cycles"),
        (9, "defines _subset_sums")]


def test_modules_import_only_lower_layers_and_region_alone_holds_the_tables():
    sources = {path.stem: path.read_text() for path in SOURCES}
    layered = sources.keys() - {"__init__", "__main__"}
    assert layered == LAYERS.keys()
    found = {name: (_layer_violations(name, source) if name in layered else [])
             + (_table_violations(source) if name != "region" else [])
             for name, source in sources.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


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


def _bound_names(tree) -> set:
    """The names a module's top-level statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names)
    return names


def _exported(tree) -> list:
    """The literal ``__all__`` of a module, or [] without one."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__"
                         for t in node.targets)), [])


def _export_violations(sources: dict) -> list:
    """(module, what) for each name a module's ``__all__`` lists but the
    module does not bind, and each name ``__init__`` imports from a package
    module whose ``__all__`` does not list it."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    found = [(name, "lists unbound " + export) for name, tree in trees.items()
             for export in _exported(tree) if export not in _bound_names(tree)]
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
            listed = _exported(trees[node.module])
            found += [("__init__", "imports %s.%s, not in its __all__"
                       % (node.module, alias.name))
                      for alias in node.names if alias.name not in listed]
    return found


def test_the_export_scan_finds_planted_violations():
    planted = {
        "detmodel": ('from .model import InputError\n__all__ = ["InputError", '
                     '"channel_output", "tin_feasible", "GUARD"]\n'
                     'GUARD = 1\ndef tin_feasible():\n    pass\n'),
        "model": '__all__ = ["as_rational"]\nclass as_rational:\n    pass\n',
        "__init__": ("from .detmodel import tin_feasible, best_tin_scheme\n"
                     "from .model import as_rational\nfrom os import path\n"),
    }
    assert _export_violations(planted) == [
        ("detmodel", "lists unbound channel_output"),
        ("__init__", "imports detmodel.best_tin_scheme, not in its __all__")]


def test_every_export_is_bound_and_listed():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert _exported(ast.parse(sources["detmodel"]))
    assert _export_violations(sources) == []


def test_readme_python_examples_run(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = [(text.count("\n", 0, match.start(1)) + 1, match.group(1))
              for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)]
    assert blocks
    for line, block in blocks:
        exec(compile("\n" * (line - 1) + block, "README.md", "exec"), {})
    assert capsys.readouterr().out
