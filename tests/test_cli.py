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


class _RecordingParams(dict):
    """A parameter dict that remembers every key a handler looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = set()

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.seen.add(key)
        return super().__contains__(key)


def _benchmark_scenarios():
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    return [(kind, params) for kind, params, _, _ in workloads._scenarios(np.random.default_rng(0))]


def test_benchmark_scenarios_validate_and_read_only_listed_keys(tmp_path):
    from sipkit.cli import KINDS

    scenarios = _benchmark_scenarios()
    assert sorted(kind for kind, _ in scenarios) == sorted(KINDS)
    for kind, params in scenarios:
        f = write_scenario(tmp_path, kind, {"kind": kind, "parameters": params})
        assert main(["validate", str(f)]) == 0, kind
        handler, required, optional = KINDS[kind]
        recorded = _RecordingParams(json.loads(json.dumps(params)))
        handler(recorded, 0, tmp_path)
        assert recorded.seen <= set(required) | set(optional), kind


def test_readme_parameter_keys_match_the_kind_table(tmp_path):
    import re

    from sipkit.cli import KINDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Parameter keys per kind")[1].split("\n## ")[0]
    listed = {}
    for item in re.split(r"\n- ", section)[1:]:
        names = re.findall(r"`([^`]*)`", item)
        listed[names[0]] = {k for k in names[1:] if re.fullmatch(r"[a-z_0-9]+", k)}
    assert set(listed) == set(KINDS)
    for kind, keys in listed.items():
        _, required, optional = KINDS[kind]
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
