"""Every function, method and class of the package is used by the package,
and the package imports nothing outside the standard library.

A name-based check on the syntax trees of `src/orbitlimits`: each function,
method or class that is not a dunder must be named (as a variable or an
attribute) somewhere in the package outside its own definition, or be listed
in ALLOWED with the reason it stays.  Names that tests alone call are dead
code unless they are listed.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitlimits"

ALLOWED = {
    # wrapped or imported by the benchmark's tracer (perfbench/tracing.py)
    # by name; they go with a change to the benchmark (ROADMAP item 2)
    "RationalFn": "the tracer's rref hook imports it",
    "lin_indep_subset": "the tracer wraps it",
    "coords_in_basis": "the tracer wraps it",
    "nullspace": "the tracer wraps it",
    "delta": "the tracer wraps LocalModel.delta",
    # library API from the paper, under test
    "solve_decomposition": "the slice decomposition s.(x + n) + n' = dv",
    "star": "the induced H-action on N",
}


def _names(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced() -> dict:
    """name -> module of each non-dunder function, method or class that the
    package names nowhere outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = sum((_names(t) for t in trees.values()), Counter())
    out = {}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) \
                        and total[name] == _names(node)[name]:
                    out[name] = mod
    return out


def test_every_definition_is_referenced_or_allowed():
    unreferenced = _unreferenced()
    assert {n: m for n, m in unreferenced.items() if n not in ALLOWED} == {}
    # an allowed name that is now referenced, or gone, leaves the list
    assert sorted(set(ALLOWED) - set(unreferenced)) == []


def test_the_package_imports_the_standard_library_alone():
    # every import, at any depth (a function-local one too), is relative or
    # names a standard-library module
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.stem}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
