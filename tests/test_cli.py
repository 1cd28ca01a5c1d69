import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sipkit
from sipkit.cli import emit_series, main
from sipkit.errors import SipkitError


def write_scenario(tmp_path, name, doc):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    return p


def run_scen(tmp_path, name, doc, seed=None):
    f = write_scenario(tmp_path, name, doc)
    out = tmp_path / f"{name}-out"
    args = ["run", str(f), "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    code = main(args)
    report = out / "report.json"
    return code, json.loads(report.read_text()) if report.exists() else None, out


# ------------------------------------------------------------ emit_series


def test_emit_series_two_points(tmp_path):
    path = emit_series("decay", [0.0, 1.0], [1.0, 0.5], tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,decay"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_emit_series_empty_is_header_only(tmp_path):
    path = emit_series("empty", [], [], tmp_path)
    assert path.read_text() == "t,empty\n"


def test_emit_series_length_mismatch(tmp_path):
    with pytest.raises(SipkitError):
        emit_series("bad", [0.0, 1.0], [1.0], tmp_path)


# ------------------------------------------------------------- exit codes


def test_measure_frozen_example(tmp_path):
    code, rep, _ = run_scen(
        tmp_path,
        "measure",
        {"kind": "measure", "parameters": {"matrix": [[-2, 1], [0, -3]], "p": "inf"}},
    )
    assert code == 0
    entry = rep["results"]["lognorm"]
    assert entry["value"] == -1.0
    assert entry["kind"] == "exact-closed-form"
    assert rep["passed"] is True


def test_measure_with_weight_rates_the_weighted_norm(tmp_path):
    from sipkit.measures import operator_rate
    from sipkit.spaces import NormSpec

    A, W = [[-2, 1], [0, -3]], [[1, 0], [0, 4]]
    code, rep, _ = run_scen(
        tmp_path, "mw", {"kind": "measure", "parameters": {"matrix": A, "p": 2, "weight": W}}
    )
    assert code == 0
    value = rep["results"]["lognorm"]["value"]
    # mu_2(W A W^-1) with W A W^-1 = [[-2, 1/4], [0, -3]]
    assert value == pytest.approx(-2.5 + math.sqrt(0.25 + 1.0 / 64.0), rel=1e-12)
    assert value == operator_rate(np.array(A, float), NormSpec(p=2, weight=np.array(W, float))).value
    _, plain, _ = run_scen(tmp_path, "mp", {"kind": "measure", "parameters": {"matrix": A, "p": 2}})
    assert plain["results"]["lognorm"]["value"] > value + 0.1


def test_verify_pass_and_overclaim(tmp_path):
    base = {"matrix": [[-2, 1], [0, -3]], "p": 2}
    code, rep, _ = run_scen(
        tmp_path, "v-ok", {"kind": "verify", "parameters": {**base, "rate": -0.5}}
    )
    assert code == 0
    code, rep, _ = run_scen(
        tmp_path, "v-bad", {"kind": "verify", "parameters": {**base, "rate": -10.0}}
    )
    assert code == 2
    assert rep["results"]["max_violation"] > 0
    assert rep["passed"] is False


def test_subspace_exit_codes(tmp_path):
    P = [[1, 0], [0, 0]]
    code, rep, _ = run_scen(
        tmp_path,
        "s-ok",
        {"kind": "subspace", "parameters": {"matrix": [[-1, 1], [0, -2]], "projection": P, "p": 2}},
    )
    assert code == 0
    assert rep["results"]["transverse_rate"]["value"] == -2.0
    code, rep, _ = run_scen(
        tmp_path,
        "s-bad",
        {"kind": "subspace", "parameters": {"matrix": [[-1, 1], [2, -2]], "projection": P, "p": 2}},
    )
    assert code == 2
    assert rep["results"]["invariance_residual"] > 0


def test_manifold_exit_codes(tmp_path):
    code, rep, _ = run_scen(tmp_path, "m-ok", {"kind": "manifold", "parameters": {"system": "hopf"}})
    assert code == 0
    assert abs(rep["results"]["constraint_rate"]["value"] + 2.0) < 1e-6
    code, rep, _ = run_scen(
        tmp_path, "m-bad", {"kind": "manifold", "parameters": {"system": "hopf", "tol": 1e-300}}
    )
    assert code == 2
    code, _, _ = run_scen(tmp_path, "m-err", {"kind": "manifold", "parameters": {"system": "torus"}})
    assert code == 1


def test_couple_exit_codes(tmp_path):
    doc = {"kind": "couple", "parameters": {"blocks": [[[-1]], [[-3]]], "coupling": [[2]]}}
    code, rep, _ = run_scen(tmp_path, "c-ok", doc)
    assert code == 0
    assert abs(rep["results"]["composite_rate"] + 1.0) < 1e-8
    doc["parameters"]["blocks"] = [[[0.5]], [[-3]]]
    code, rep, _ = run_scen(tmp_path, "c-bad", doc)
    assert code == 2


def test_pde_rd_exit_codes_and_series_roundtrip(tmp_path):
    params = {"n": 64, "bc": "periodic", "alpha": 1.0, "t_span": [0.0, 0.08]}
    code, rep, out = run_scen(tmp_path, "rd-ok", {"kind": "pde-rd", "parameters": params})
    assert code == 0
    fitted = rep["results"]["fitted_rate"]
    assert fitted["kind"] == "fitted"
    assert abs(fitted["value"] + 4.0 * math.pi**2) < 0.01 * 4.0 * math.pi**2
    # the emitted CSV reproduces the fitted slope
    rows = (out / rep["series"]["distance"]).read_text().splitlines()
    assert rows[0] == "t,distance"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    slope = np.polyfit(data[:, 0], np.log(data[:, 1]), 1)[0]
    assert abs(slope - fitted["value"]) <= 1e-6 * abs(fitted["value"])
    code, _, _ = run_scen(
        tmp_path, "rd-bad", {"kind": "pde-rd", "parameters": {**params, "claimed_rate": -100.0}}
    )
    assert code == 2


def test_pde_claw_exit_codes(tmp_path):
    params = {"n": 64, "flux": {"name": "advection", "speed": 2.0}, "t_span": [0.0, 1.0]}
    code, rep, _ = run_scen(tmp_path, "cl-ok", {"kind": "pde-claw", "parameters": params})
    assert code == 0
    assert abs(rep["results"]["rate"]["value"]) <= 1e-8
    assert rep["results"]["mass_drift"] <= 1e-8
    code, _, _ = run_scen(
        tmp_path, "cl-bad", {"kind": "pde-claw", "parameters": {**params, "tol": 1e-300}}
    )
    assert code == 2


def test_poisson_exit_codes(tmp_path):
    code, rep, out = run_scen(
        tmp_path, "p-ok", {"kind": "poisson", "parameters": {"n": 32, "forcing": "constant"}}
    )
    assert code == 0
    assert rep["results"]["converged"] is True
    assert rep["results"]["residual"] <= 1e-8
    assert (out / "solution.csv").exists()
    # the zero-mode Laplacian with an expanding reaction gets refused
    code, rep, _ = run_scen(
        tmp_path,
        "p-refuse",
        {"kind": "poisson", "parameters": {"n": 16, "bc": "neumann", "forcing": "tanh"}},
    )
    assert code == 2
    assert "refused" in rep["results"]


def test_poisson_starts_from_its_u0(tmp_path):
    base = {"n": 16, "forcing": "constant"}
    code, rep, out = run_scen(tmp_path, "p0", {"kind": "poisson", "parameters": base})
    assert code == 0
    solution = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 1]
    # started at the solution, the solve has nothing left to do
    code, rep_u0, out_u0 = run_scen(
        tmp_path, "p-u0", {"kind": "poisson", "parameters": {**base, "u0": solution.tolist()}}
    )
    assert code == 0
    residuals = np.loadtxt(out_u0 / "residual.csv", delimiter=",", skiprows=1, ndmin=2)
    assert residuals.shape == (1, 2)
    assert residuals[0, 1] == rep["results"]["residual"] == rep_u0["results"]["residual"]
    first = np.loadtxt(out / "residual.csv", delimiter=",", skiprows=1)[0, 1]
    code, _, out_r = run_scen(
        tmp_path, "p-rand", {"kind": "poisson", "parameters": {**base, "u0": "random"}}, seed=5
    )
    assert code == 0
    assert np.loadtxt(out_r / "residual.csv", delimiter=",", skiprows=1)[0, 1] != first


@pytest.mark.parametrize("u0", ["sin", "zeros", [0.0, 1.0], 5, {"name": "random"}, True])
def test_poisson_refuses_other_u0(tmp_path, capsys, u0):
    doc = {"kind": "poisson", "parameters": {"n": 16, "forcing": "constant", "u0": u0}}
    code, rep, _ = run_scen(tmp_path, "p-bad", doc)
    assert (code, rep) == (1, None)
    assert 'u0 must be "random" or an array of 16 numbers' in capsys.readouterr().err


def test_regress_exit_codes(tmp_path):
    params = {
        "p": 2,
        "features": [[1, 0], [0, 1], [1, 1]],
        "targets": [1.0, -0.5, 0.5],
        "alpha": 0.2,
        "steps": 400,
    }
    code, rep, out = run_scen(tmp_path, "r-ok", {"kind": "regress", "parameters": params})
    assert code == 0
    assert rep["results"]["final_risk"] <= 1e-8
    assert (out / "risk.csv").exists()
    code, _, _ = run_scen(
        tmp_path, "r-bad", {"kind": "regress", "parameters": {**params, "steps": 3}}
    )
    assert code == 2


def test_symmetry_exit_codes(tmp_path):
    R = [[0, -1], [1, 0]]
    code, rep, _ = run_scen(
        tmp_path,
        "y-ok",
        {"kind": "symmetry", "parameters": {"matrix": [[-1, 0], [0, -1]], "transform": R, "p": 2}},
    )
    assert code == 0
    code, rep, _ = run_scen(
        tmp_path,
        "y-bad",
        {"kind": "symmetry", "parameters": {"matrix": [[-1, 5], [0, -2]], "transform": R, "p": 2}},
    )
    assert code == 2
    assert rep["results"]["equivariance_residual"] > 0.1


def test_symmetry_needs_no_exponent(tmp_path):
    # the equivariance residual is Euclidean: p is optional and not read
    params = {"matrix": [[-1, 0], [0, -1]], "transform": [[0, -1], [1, 0]]}
    f = write_scenario(tmp_path, "y", {"kind": "symmetry", "parameters": params})
    assert main(["validate", str(f)]) == 0
    code, rep, _ = run_scen(tmp_path, "y-run", {"kind": "symmetry", "parameters": params}, seed=3)
    code_p, rep_p, _ = run_scen(tmp_path, "y-p", {"kind": "symmetry", "parameters": {**params, "p": 1}}, seed=3)
    assert code == code_p == 0
    assert rep["results"] == rep_p["results"]


# ------------------------------------------------------ errors and usage


def test_malformed_file_is_an_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", str(bad)]) == 1


def test_missing_file_is_an_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 1


def test_unknown_kind_is_usage_error(tmp_path):
    f = write_scenario(tmp_path, "uk", {"kind": "zorp", "parameters": {}})
    assert main(["run", str(f)]) == 64
    assert main(["validate", str(f)]) == 64


def test_validate_lists_missing_keys(tmp_path, capsys):
    f = write_scenario(tmp_path, "vm", {"kind": "measure", "parameters": {}})
    assert main(["validate", str(f)]) == 1
    err = capsys.readouterr().err
    assert "matrix" in err and "p" in err
    ok = write_scenario(
        tmp_path, "vo", {"kind": "measure", "parameters": {"matrix": [[1]], "p": 2}}
    )
    assert main(["validate", str(ok)]) == 0


def test_usage_paths():
    assert main([]) == 64
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 64
    assert main(["run"]) == 64
    assert main(["run", "f.json", "--bogus"]) == 64


def test_option_without_value_is_usage_error(tmp_path, monkeypatch, capsys):
    f = write_scenario(tmp_path, "m", {"kind": "measure", "parameters": {"matrix": [[-1]], "p": 2}})
    monkeypatch.chdir(tmp_path)
    for flag in ("--out", "--seed"):
        assert main(["run", str(f), flag]) == 64
        assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("bad", ["--5", "²", "1.5"])
def test_non_integer_seed_flag_is_usage_error(tmp_path, capsys, bad):
    f = write_scenario(tmp_path, "m", {"kind": "measure", "parameters": {"matrix": [[-1]], "p": 2}})
    out = tmp_path / "out"
    assert main(["run", str(f), "--out", str(out), "--seed", bad]) == 64
    assert "usage:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_non_integer_scenario_seed_is_an_error(tmp_path, capsys):
    doc = {"kind": "measure", "seed": "abc", "parameters": {"matrix": [[-1]], "p": 2}}
    code, rep, _ = run_scen(tmp_path, "badseed", doc)
    assert (code, rep) == (1, None)
    assert capsys.readouterr().err == "scenario invalid: seed 'abc' is not an integer\n"


def test_bad_parameter_payload_is_an_error(tmp_path):
    f = write_scenario(
        tmp_path, "ragged", {"kind": "measure", "parameters": {"matrix": [[1, 2], [3]], "p": 2}}
    )
    assert main(["run", str(f), "--out", str(tmp_path / "o")]) == 1


# -------------------------------------------------------------- plumbing


def test_reports_are_byte_identical(tmp_path):
    doc = {"kind": "measure", "seed": 4, "parameters": {"matrix": [[-2, 1], [0, -3]], "p": 3}}
    _, _, out1 = run_scen(tmp_path, "da", doc)
    _, _, out2 = run_scen(tmp_path, "db", doc)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "wall_time.txt").exists()  # timing lives outside the report


def test_sampled_rate_entry_keeps_its_counts(tmp_path):
    doc = {"kind": "measure", "seed": 4, "parameters": {"matrix": [[-2, 1], [0, -3]], "p": 3}}
    _, rep, out1 = run_scen(tmp_path, "ca", doc)
    _, _, out2 = run_scen(tmp_path, "cb", doc)
    entry = rep["results"]["lognorm"]
    assert entry["kind"] == "sampled-lower-bound"
    assert (entry["samples"], entry["ascent_iters"]) == (200, 40)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_seed_override_is_echoed(tmp_path):
    doc = {"kind": "measure", "seed": 4, "parameters": {"matrix": [[-1]], "p": 2}}
    _, rep, _ = run_scen(tmp_path, "seed", doc, seed=9)
    assert rep["seed"] == 9


def test_console_module_entry(tmp_path):
    f = write_scenario(
        tmp_path, "smoke", {"kind": "measure", "parameters": {"matrix": [[-1]], "p": 2}}
    )
    # The child must import the sipkit under test, installed or not: put the
    # directory holding this package first, then whatever the parent had.
    import_path = [str(Path(sipkit.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        import_path.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-m", "sipkit.cli", "validate", str(f)],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.pathsep.join(import_path),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is imported inside the few functions that need it, so
    # a fresh `import sipkit` (CLI start-up included) does not pay for it.
    import_path = [str(Path(sipkit.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        import_path.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-c", "import sipkit, sipkit.cli, sys; assert 'scipy.linalg' not in sys.modules"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(import_path), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_parameter_key_is_named_and_refused(tmp_path, capsys):
    params = {"matrix": [[-2, 1], [0, -3]], "p": "inf", "rate": -0.5, "pair": 4}  # "pairs" misspelled
    f = write_scenario(tmp_path, "typo", {"kind": "verify", "parameters": params})
    assert main(["validate", str(f)]) == 1
    assert "unknown keys: pair" in capsys.readouterr().err
    out = tmp_path / "typo-out"
    assert main(["run", str(f), "--out", str(out)]) == 1
    assert "unknown keys: pair" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    # missing and unknown keys are named together
    f = write_scenario(tmp_path, "both", {"kind": "measure", "parameters": {"p": 2, "wieght": [[1]]}})
    assert main(["validate", str(f)]) == 1
    assert "missing keys: matrix; unknown keys: wieght" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, message",
    [
        (
            "pde-claw",
            {"n": 16, "flux": {"name": "advection", "sped": 3}, "t_span": [0.0, 0.01]},
            "unknown flux keys: sped",
        ),
        ("poisson", {"n": 16, "forcing": {"name": "constant", "valu": 5}}, "unknown forcing keys: valu"),
        ("poisson", {"n": 16, "forcing": {"name": "tanh", "value": 5}}, "unknown forcing keys: value"),
    ],
    ids=["flux-speed", "forcing-value", "tanh-value"],
)
def test_misspelled_option_key_is_named_and_refused(tmp_path, capsys, kind, params, message):
    f = write_scenario(tmp_path, "opt", {"kind": kind, "parameters": params})
    assert main(["validate", str(f)]) == 1
    assert message in capsys.readouterr().err
    out = tmp_path / "opt-out"
    assert main(["run", str(f), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_unknown_option_name_is_refused_by_run(tmp_path, capsys):
    params = {"n": 16, "flux": {"name": "advektion", "speed": 3}, "t_span": [0.0, 0.01]}
    code, rep, _ = run_scen(tmp_path, "name", {"kind": "pde-claw", "parameters": params})
    assert (code, rep) == (1, None)
    assert "unknown flux 'advektion'; known: advection, burgers" in capsys.readouterr().err


def _benchmark_scenarios():
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    return [(kind, params) for kind, params, _, _ in workloads._scenarios(np.random.default_rng(0))]


def test_benchmark_scenarios_validate_and_read_only_listed_keys(tmp_path):
    from sipkit.cli import KINDS, parameter_keys

    scenarios = _benchmark_scenarios()
    assert sorted(kind for kind, _ in scenarios) == sorted(KINDS)
    for kind, params in scenarios:
        f = write_scenario(tmp_path, kind, {"kind": kind, "parameters": params})
        assert main(["validate", str(f)]) == 0, kind
        required, optional = parameter_keys(KINDS[kind])
        # a handler receives its parameters as keywords, so only declared ones
        KINDS[kind](0, tmp_path, **json.loads(json.dumps(params)))
        assert set(params) <= set(required) | set(optional), kind


def test_readme_parameter_keys_match_the_kind_table(tmp_path):
    import re

    from sipkit.cli import KINDS, parameter_keys

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Parameter keys per kind")[1].split("\n## ")[0]
    listed = {}
    for item in re.split(r"\n- ", section)[1:]:
        names = re.findall(r"`([^`]*)`", item)
        listed[names[0]] = {k for k in names[1:] if re.fullmatch(r"[a-z_0-9]+", k)}
    assert set(listed) == set(KINDS)
    for kind, keys in listed.items():
        required, optional = parameter_keys(KINDS[kind])
        assert keys == set(required) | set(optional), kind
        f = write_scenario(tmp_path, kind, {"kind": kind, "parameters": dict.fromkeys(keys, 1)})
        assert main(["validate", str(f)]) == 0, kind
    example = json.loads(readme.split("```json")[1].split("```")[0])
    f = write_scenario(tmp_path, "example", example)
    assert main(["validate", str(f)]) == 0


@pytest.mark.parametrize(
    "doc, code, message",
    [
        ({"kind": ["measure"], "parameters": {"matrix": [[-1]], "p": 2}}, 64, "unknown scenario kind"),
        ({"kind": "measure", "parameters": 5}, 1, "scenario invalid: parameters must be a JSON object"),
        (
            {"kind": "measure", "parameters": {"matrix": [[-1]], "p": 2}, "output_dir": 7},
            1,
            "scenario invalid: output_dir must be a string",
        ),
    ],
    ids=["kind-list", "parameters-number", "output-dir-number"],
)
def test_wrongly_typed_scenario_field_is_refused(tmp_path, capsys, doc, code, message):
    f = write_scenario(tmp_path, "typed", doc)
    assert main(["validate", str(f)]) == code
    assert message in capsys.readouterr().err
    out = tmp_path / "typed-out"
    assert main(["run", str(f), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err
    if code == 64:
        assert "usage: sipkit run" in err
    assert not (out / "report.json").exists()


def test_import_leaves_scipy_sparse_unloaded():
    # every `sipkit run` process pays for what `import sipkit` loads, and
    # scipy.sparse takes several times as long to import as numpy itself
    import_path = [str(Path(sipkit.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        import_path.append(os.environ["PYTHONPATH"])
    check = "assert not [m for m in sys.modules if m.startswith('scipy.sparse')]"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sipkit, sipkit.cli, sys; {check}"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(import_path), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr


def _child_env():
    """Environment of a fresh child that imports the sipkit under test and writes no bytecode."""
    import_path = [str(Path(sipkit.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        import_path.append(os.environ["PYTHONPATH"])
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(import_path), "PYTHONDONTWRITEBYTECODE": "1"}


# The analysis modules a `sipkit run` of each kind loads besides errors,
# spaces and measures, which the CLI itself imports.
_KIND_MODULES = {
    "measure": set(),
    "verify": {"flows"},
    "subspace": {"flows", "invariants"},
    "manifold": {"flows", "invariants"},
    "symmetry": {"flows", "invariants"},
    "couple": {"flows", "couplings"},
    "pde-rd": {"flows", "pdelab"},
    "pde-claw": {"flows", "pdelab"},
    "poisson": {"flows", "pdelab"},
    "regress": {"flows", "mirror"},
}


def test_each_kind_loads_only_the_modules_it_runs(tmp_path):
    # -X importtime names every module a process imports, once, on stderr:
    # the sipkit.* entries are the sipkit modules in the child's sys.modules
    # (the CLI itself runs as __main__).
    scenarios = dict(_benchmark_scenarios())
    assert set(scenarios) == set(_KIND_MODULES)
    loaded = {}
    for kind, params in scenarios.items():
        f = write_scenario(tmp_path, kind, {"kind": kind, "parameters": params})
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "sipkit.cli", "run", str(f), "--out", str(tmp_path / kind)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode in (0, 2), proc.stderr[-500:]
        names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
        loaded[kind] = {name for name in names if name.split(".")[0] == "sipkit"}
    expected = {
        kind: {"sipkit"} | {f"sipkit.{m}" for m in {"errors", "spaces", "measures"} | extra}
        for kind, extra in _KIND_MODULES.items()
    }
    assert loaded == expected


def test_bare_import_loads_no_analysis_module():
    code = "import sipkit, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sipkit'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['sipkit']"


def test_resolving_every_public_name_leaves_scipy_linalg_and_sparse_unloaded():
    # `import sipkit, sipkit.cli` alone loads errors, spaces and measures,
    # so the two guards above cannot see a scipy import at the top of the
    # other modules; this one loads all nine first
    code = (
        "import sipkit, sipkit.cli, sys; [getattr(sipkit, name) for name in sipkit.__all__]; "
        "assert len([m for m in sys.modules if m.startswith('sipkit.')]) == 9, sorted(sys.modules); "
        "assert not [m for m in sys.modules if m == 'scipy.linalg' or m.startswith('scipy.sparse')]"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
