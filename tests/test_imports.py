"""Source hygiene and the package's exports.

Every module-level import of a sipkit module is used.  The package
``__init__`` is left out, since it holds the export table.  A name
counts as used when the module refers to it anywhere (annotations
included) or lists it in ``__all__``.  An import in a function's body
(such as the CLI handlers' imports of the modules they run) is used in
that function.

``sipkit.__all__`` names each public object once, and the package
resolves every name, on first access, to the object its home module
defines.  Every name a module lists in its ``__all__`` is one of them.

Exact rate estimates are built in one place: outside ``measures`` the
exact kinds (EIGEN, EXACT, or their strings) appear only in
``pdelab.poincare_rate``, whose grid spectra are closed forms of their
own.  Every other exact rate comes from ``measures._operator_rates``.

``invariants`` draws no random probes and imports no quotient kernel:
every invariant-set rate is an inner log norm from ``_operator_rates``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sipkit

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


def _module_all(tree):
    """The names a module lists in __all__ (none when it has no __all__)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _module_all(tree)


def test_modules_are_found():
    assert {"measures.py", "pdelab.py", "spaces.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert not unused, f"{path.name} imports {unused} and never uses them"


def _unused_function_imports(tree):
    """'function: name' of every import inside a function that the function never uses."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            yield from (f"{fn.name}: {name}" for name in _imported_names(fn) if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_function_level_import(path):
    unused = list(_unused_function_imports(ast.parse(path.read_text(), filename=str(path))))
    assert not unused, f"{path.name} imports names inside functions that never use them: {unused}"


def test_function_level_rule_sees_an_unused_import():
    tree = ast.parse("def f():\n    from .flows import integrate, overshoot_fit\n    return integrate\n")
    assert list(_unused_function_imports(tree)) == ["f: overshoot_fit"]


def test_every_export_resolves_to_its_home_modules_object():
    modules = {"errors", "spaces", "measures", "flows", "invariants", "couplings", "pdelab", "mirror"}
    assert len(sipkit.__all__) == len(set(sipkit.__all__)) == 108
    assert modules <= set(sipkit.__all__)
    for name in sipkit.__all__:
        value = getattr(sipkit, name)
        if name in modules:
            assert value is importlib.import_module(f"sipkit.{name}")
        else:
            home = f"sipkit.{sipkit._HOME[name]}"
            assert value is getattr(importlib.import_module(home), name), name
            assert value.__module__ == home, name  # defined there, not re-exported
        assert vars(sipkit)[name] is value  # bound: later lookups are plain reads
    assert set(sipkit.__all__) <= set(dir(sipkit))
    star = {}
    exec("from sipkit import *", star)
    assert set(star) - {"__builtins__"} == set(sipkit.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        sipkit.no_such_name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_exports_are_package_exports(path):
    # a name a module lists in __all__ is public, so the package exports it
    stray = sorted(_module_all(ast.parse(path.read_text(), filename=str(path))) - set(sipkit.__all__))
    assert not stray, f"{path.name} lists {stray} in __all__, which the package does not export"


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


_PROBE_DRAWS = {"default_rng", "normal"}
_PROBE_KERNELS = {"_quotient_rows", "sip_rows"}


def test_invariants_draw_no_probes():
    # every invariant-set rate is an inner log norm from _operator_rates;
    # a random draw or a quotient kernel here is a probe loop beside it
    tree = ast.parse((SRC / "invariants.py").read_text())
    draws = sorted(
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in _PROBE_DRAWS)
        or (isinstance(node, ast.Name) and node.id in _PROBE_DRAWS)
    )
    kernels = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1] in _PROBE_KERNELS
    )
    assert not draws, f"invariants.py draws random probes: {draws}"
    assert not kernels, f"invariants.py imports quotient kernels: {kernels}"
