"""Source hygiene and the package's exports.

Every module-level import of a sipkit module is used.  The package
``__init__`` is left out, since it holds the export table.  A name
counts as used when the module refers to it anywhere (annotations
included).  An import in a function's body (such as the CLI handlers'
imports of the modules they run) is used in that function.

``sipkit.__all__`` names each public object once, and the package
resolves every name, on first access, to the object its home module
defines.  The export table is the only export list: no module has an
``__all__``.

Exact rate estimates are built in one place: outside ``measures`` the
exact kinds (EIGEN, EXACT, or their strings) appear only in
``pdelab.poincare_rate``, whose grid spectra are closed forms of their
own.  Every other exact rate comes from ``measures._operator_rates``.

Every ``RateEstimate``, sampled ones included, is built in ``measures``
(and in ``poincare_rate``).  No module but ``measures`` and ``spaces``
draws random probes, calls ``eigvalsh`` or imports a quotient kernel:
every matrix is rated by ``_operator_rates``.  Two random draws start
simulations and are allowed: ``couplings.product_lp_rate``'s
perturbations and ``cli._run_poisson``'s random ``u0``.
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


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


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
    # sipkit._EXPORTS names every public object and its home, so no module
    # assigns __all__: a module list beside it would be a second copy
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert not lines, f"{path.name} assigns __all__ at lines {lines}"


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


_RATE_ESTIMATE_SITES = {("pdelab.py", "poincare_rate")}


def _calls(tree, names):
    """(top-level definition or None, called name, line) of every call of
    one of names, bare or as an attribute."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in names:
                    yield owner, name, node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "measures.py"], ids=lambda p: p.stem)
def test_rate_estimates_are_built_in_measures(path):
    # sampled estimates too: every one comes from a measures rate functional
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [
        (owner, line)
        for owner, _, line in _calls(tree, {"RateEstimate"})
        if (path.name, owner) not in _RATE_ESTIMATE_SITES
    ]
    assert not stray, f"{path.name} builds RateEstimates outside measures: {stray}"


_PROBE_DRAWS = {"default_rng", "normal", "uniform", "integers", "choice", "random"}
_PROBE_KERNELS = {"_quotient_rows", "sip_rows"}
# random starts of simulations, not probes of a rate
_SIMULATION_DRAWS = {("couplings.py", "product_lp_rate"), ("cli.py", "_run_poisson")}


def test_invariants_draw_no_probes():
    # every module but measures and spaces: a matrix is rated by
    # _operator_rates alone, so a random draw, a symmetric eigensolve or a
    # quotient kernel here would be a probe loop or a closed form beside it
    for path in MODULES:
        if path.name in ("measures.py", "spaces.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        draws = sorted(
            (owner, name, line)
            for owner, name, line in _calls(tree, _PROBE_DRAWS)
            if (path.name, owner) not in _SIMULATION_DRAWS
        )
        eigen = sorted(line for _, _, line in _calls(tree, {"eigvalsh"}))
        kernels = sorted(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.name.split(".")[-1] in _PROBE_KERNELS
        )
        assert not draws, f"{path.name} draws random probes: {draws}"
        assert not eigen, f"{path.name} calls eigvalsh at lines {eigen}"
        assert not kernels, f"{path.name} imports quotient kernels: {kernels}"
