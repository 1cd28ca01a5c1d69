"""Source hygiene.

Every module-level import of a sipkit module is used.  The package
``__init__`` is left out, since it imports to re-export.  A name counts
as used when the module refers to it anywhere (annotations included) or
lists it in ``__all__``.

Exact rate estimates are built in one place: outside ``measures`` the
exact kinds (EIGEN, EXACT, or their strings) appear only in
``pdelab.poincare_rate``, whose grid spectra are closed forms of their
own.  Every other exact rate comes from ``measures._operator_rates``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sipkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_are_found():
    assert {"measures.py", "pdelab.py", "spaces.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports {unused} and never uses them"


_EXACT_KINDS = {"EIGEN", "EXACT", "eigen-exact", "exact-closed-form"}
_EXACT_SITES = {("pdelab.py", "poincare_rate")}


def _exact_kind_uses(tree):
    """(top-level definition or None, line) of every exact kind used by name
    or as a string; imports are not uses."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                word = node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                word = node.value
            else:
                continue
            if word in _EXACT_KINDS:
                yield owner, node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "measures.py"], ids=lambda p: p.stem)
def test_exact_rate_kinds_stay_in_measures(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [(owner, line) for owner, line in _exact_kind_uses(tree) if (path.name, owner) not in _EXACT_SITES]
    assert not stray, f"{path.name} builds exact rates outside measures: {stray}"
