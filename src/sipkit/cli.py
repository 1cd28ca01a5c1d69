"""Batch harness: JSON scenario files in, deterministic reports out.

Usage:
    sipkit run <scenario.json> [--out DIR] [--seed N]
    sipkit validate <scenario.json>

A scenario is a JSON object with keys "kind", "parameters", and optional
"seed" and "output_dir".  `run` writes report.json plus any CSV series
into the output directory and exits 0 on a passing certificate, 2 on a
failing one, 1 on errors (a seed that is not an integer among them), 64
on an unknown kind or a malformed command line.  report.json is
byte-identical across runs with the same scenario and seed; wall time is
written to a separate wall_time.txt sidecar to keep it that way.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .couplings import BlockSystem, feedback_certificate
from .errors import CertificateRefusedError, SipkitError
from .flows import integrate, overshoot_fit, verify_contraction
from .invariants import (
    LinearSymmetry,
    ManifoldSpec,
    SubspaceSpec,
    equivariance_residual,
    subspace_certificate,
    manifold_certificate,
)
from .measures import SAMPLED, Ball, DomainSampler, Points, RateEstimate, Sphere, VectorField, operator_rate
from .mirror import RegressionProblem, mirror_descent_run
from .pdelab import (
    Grid1D,
    _central_difference,
    build_laplacian,
    conservation_rate,
    demean,
    fixed_point_solve,
    poincare_rate,
    rd_simulate,
    total_mass,
)
from .spaces import NormSpec

USAGE = """usage: sipkit run <scenario.json> [--out DIR] [--seed N]
       sipkit validate <scenario.json>
scenario kinds: measure verify subspace manifold couple pde-rd pde-claw poisson regress symmetry"""

# ---------------------------------------------------------- serialization


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _render(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        rows = [f'{inner}{json.dumps(str(k))}: {_render(obj[k], indent + 1)}' for k in keys]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        rows = [f"{inner}{_render(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj))
    return json.dumps(str(obj))


def emit_series(name: str, times, values, output_dir) -> Path:
    """Write a two-column CSV with header "t,<name>" at 17 significant digits."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if times.shape != values.shape:
        raise SipkitError(f"series {name!r}: {times.shape[0]} times vs {values.shape[0]} values")
    path = Path(output_dir) / f"{name}.csv"
    lines = [f"t,{name}"]
    for t, v in zip(times, values):
        lines.append(f"{format(t, '.17g')},{format(v, '.17g')}")
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise SipkitError(f"failed writing series to {path}: {exc}")
    return path


def _rate_entry(est) -> dict:
    if isinstance(est, RateEstimate):
        out = {"value": est.value, "kind": est.kind}
        if est.kind == SAMPLED:
            out["samples"] = est.samples
            out["ascent_iters"] = est.ascent_iters
        if est.note:
            out["note"] = est.note
        return out
    return {"value": float(est), "kind": "fitted"}


# -------------------------------------------------------------- handlers


def _matrix(raw) -> np.ndarray:
    return np.asarray(raw, dtype=float)


def _ball_sampler(params, dim, count_key, count, seed):
    """Seeded probes in the ball of the scenario's radius (default 1) about 0."""
    ball = Ball(np.zeros(dim), float(params.get("radius", 1.0)))
    return DomainSampler(ball, count=int(params.get(count_key, count)), seed=seed)


def _run_measure(params, seed, outdir):
    A = _matrix(params["matrix"])
    spec = NormSpec(p=float(params["p"]))
    if "weight" in params:
        spec = NormSpec(p=spec.p, weight=_matrix(params["weight"]))
    est = operator_rate(A, spec, seed=seed)
    return {"lognorm": _rate_entry(est)}, {}, True


def _run_verify(params, seed, outdir):
    A = _matrix(params["matrix"])
    spec = NormSpec(p=float(params["p"]))
    f = VectorField.linear(A)
    sampler = _ball_sampler(params, A.shape[0], "pairs", 10, seed)
    a, b = sampler.pairs()
    res = verify_contraction(
        f,
        list(zip(a, b)),
        spec,
        rate=float(params["rate"]),
        overshoot=float(params.get("overshoot", 1.0)),
        t_span=tuple(params.get("t_span", (0.0, 1.0))),
        h=float(params.get("step", 1e-2)),
    )
    results = {
        "claimed_rate": res.claimed_rate,
        "max_violation": res.max_violation,
        "fitted_rate": _rate_entry(res.fitted_rate),
        "pairs_checked": res.pairs_checked,
    }
    return results, {}, bool(res.passed)


def _run_subspace(params, seed, outdir):
    A = _matrix(params["matrix"])
    f = VectorField.linear(A)
    sub = SubspaceSpec(_matrix(params["projection"]))
    sampler = _ball_sampler(params, A.shape[0], "samples", 100, seed)
    rep = subspace_certificate(
        f, sub, sampler, NormSpec(p=float(params["p"])), tol=float(params.get("tol", 1e-8))
    )
    results = {
        "invariance_residual": rep.invariance_residual,
        "transverse_rate": _rate_entry(rep.rate),
    }
    return results, {}, bool(rep.passed)


def _hopf_setup(params, seed):
    omega = float(params.get("omega", 3.0))
    mu = float(params.get("mu", 1.0))

    def fn(t, u):
        x, y = u
        s = mu - (x * x + y * y)
        return np.array([s * x - omega * y, omega * x + s * y])

    f = VectorField(fn, 2, name="hopf")
    man = ManifoldSpec(
        phi=lambda u: np.array([u @ u - mu]),
        dim=2,
        codim=1,
        dphi=lambda u: 2.0 * u[None, :],
    )
    seeds = DomainSampler(Ball(np.zeros(2), 1.5 * math.sqrt(mu)), count=12, seed=seed)
    ambient = DomainSampler(Sphere(np.zeros(2), math.sqrt(mu)), count=32, seed=seed)
    return f, man, seeds, ambient


def _run_manifold(params, seed, outdir):
    name = str(params["system"])
    if name != "hopf":
        raise SipkitError(f"unknown manifold system {name!r}; known: hopf")
    f, man, seeds, ambient = _hopf_setup(params, seed)
    rep = manifold_certificate(f, man, seeds, ambient, tol=float(params.get("tol", 1e-8)))
    results = {
        "tangency_residual": rep.tangency_residual,
        "constraint_rate": _rate_entry(rep.rate),
        "zero_points": rep.zero_points,
        "min_singular_value": rep.min_singular_value,
    }
    return results, {}, bool(rep.passed)


def _run_couple(params, seed, outdir):
    J1, J2 = (_matrix(b) for b in params["blocks"])
    B = _matrix(params["coupling"])
    sys_ = BlockSystem(
        blocks=[[J1, B], [-B.T, J2]],
        dims=(J1.shape[0], J2.shape[0]),
    )
    rep = feedback_certificate(sys_, NormSpec())
    results = {
        "composite_rate": rep.composite_rate,
        "block_rates": list(rep.block_rates),
        "skewness_residual": rep.skewness_residual,
        "collapse_gap": rep.equivalence_gap,
    }
    return results, {}, bool(rep.composite_rate < 0.0)


def _initial_profile(params, grid):
    raw = params.get("u0", "sin")
    if isinstance(raw, str):
        if raw == "sin":
            return demean(np.sin(2.0 * np.pi * grid.points / grid.length))
        if raw == "bump":
            return 0.5 + 0.3 * np.sin(2.0 * np.pi * grid.points / grid.length)
        raise SipkitError(f"unknown u0 profile {raw!r}; known: sin, bump")
    return np.asarray(raw, dtype=float)


def _run_pde_rd(params, seed, outdir):
    grid = Grid1D(int(params["n"]), str(params["bc"]), float(params.get("length", 1.0)))
    alpha = float(params["alpha"])
    c = float(params.get("reaction", 0.0))
    reaction = None if c == 0.0 else (lambda t, U: c * U)
    u0 = _initial_profile(params, grid)
    h_t = float(params.get("h_t", 0.9 * grid.h**2 / (2.0 * alpha)))
    tr = rd_simulate(alpha, reaction, grid, u0, tuple(params["t_span"]), h_t)
    dist = np.array([np.linalg.norm(demean(s)) for s in tr.states])
    fitted, kappa = overshoot_fit(tr.times, dist)
    drift = float(np.max(np.abs(total_mass(grid, tr.states) - total_mass(grid, tr.states[0]))))
    gap = poincare_rate(grid)
    results = {
        "fitted_rate": _rate_entry(fitted),
        "fitted_overshoot": kappa,
        "spectral_gap": _rate_entry(gap),
        "mass_drift": drift,
    }
    passed = True
    if "claimed_rate" in params:
        results["claimed_rate"] = float(params["claimed_rate"])
        passed = bool(fitted <= float(params["claimed_rate"]) + 1e-6)
    stride = max(1, len(tr.times) // 400)
    series = {"distance": (tr.times[::stride], dist[::stride])}
    return results, series, passed


def _run_pde_claw(params, seed, outdir):
    grid = Grid1D(int(params["n"]), "periodic", float(params.get("length", 1.0)))
    spec = params["flux"]
    name = spec["name"] if isinstance(spec, dict) else str(spec)
    amp = float(params.get("amplitude", 1.0))
    x = grid.points
    if name == "advection":
        c = float(spec.get("speed", 1.0)) if isinstance(spec, dict) else 1.0
        flux = lambda u: c * u
        rate_tol = float(params.get("tol", 1e-8))
    elif name == "burgers":
        flux = lambda u: 0.5 * u**2
        rate_tol = None
    else:
        raise SipkitError(f"unknown flux {name!r}; known: advection, burgers")
    profiles = np.array([a * np.sin(2.0 * np.pi * x / grid.length) for a in (0.5 * amp, amp)])
    sampler = DomainSampler(Points(profiles), count=len(profiles), seed=seed)
    rep = conservation_rate(flux, grid, sampler)
    Dc = _central_difference(grid)
    claw = VectorField(lambda t, u: -(Dc @ flux(u)), grid.n, name=name)
    u0 = 0.3 + 0.1 * amp * np.sin(2.0 * np.pi * x / grid.length)
    tr = integrate(claw, u0, tuple(params["t_span"]), float(params.get("h_t", 1e-3)))
    mass = total_mass(grid, tr.states)
    drift = float(np.max(np.abs(mass - mass[0])))
    results = {
        "rate": _rate_entry(rep.rate),
        "skewness_residual": rep.skewness_residual,
        "mass_drift": drift,
    }
    passed = drift <= 1e-8 and (rate_tol is None or abs(rep.rate.value) <= rate_tol)
    stride = max(1, len(tr.times) // 400)
    series = {"mass": (tr.times[::stride], mass[::stride])}
    return results, series, bool(passed)


def _run_poisson(params, seed, outdir):
    grid = Grid1D(int(params["n"]), str(params.get("bc", "dirichlet")))
    L = build_laplacian(grid)
    forcing = params["forcing"]
    name = forcing["name"] if isinstance(forcing, dict) else str(forcing)
    if name == "constant":
        b = float(forcing.get("value", 1.0)) if isinstance(forcing, dict) else 1.0
        F = VectorField.linear(L, b=np.full(grid.n, b))
    elif name == "tanh":
        F = VectorField(
            lambda t, u: L @ u + np.tanh(u),
            grid.n,
            jac=lambda t, u: L + np.diag(1.0 - np.tanh(u) ** 2),
        )
    else:
        raise SipkitError(f"unknown forcing {name!r}; known: constant, tanh")
    u0 = None
    if params.get("u0") == "random":
        u0 = np.random.default_rng(seed).normal(size=grid.n)
    try:
        u, rep = fixed_point_solve(F, grid, tol=float(params.get("tol", 1e-8)), u0=u0)
    except CertificateRefusedError as exc:
        return {"refused": str(exc)}, {}, False
    results = {
        "residual": rep.residuals[-1],
        "fitted_rate": _rate_entry(rep.fitted_rate),
        "precheck_rate": _rate_entry(rep.rate_estimate),
        "converged": bool(rep.converged),
    }
    series = {
        "residual": (rep.times, rep.residuals),
        "solution": (grid.points, u),
    }
    return results, series, bool(rep.converged)


def _run_regress(params, seed, outdir):
    rows = _matrix(params["features"])
    ys = np.asarray(params["targets"], dtype=float)
    if rows.shape[0] != ys.shape[0]:
        raise SipkitError(f"{rows.shape[0]} feature rows vs {ys.shape[0]} targets")
    prob = RegressionProblem(
        samples=tuple((i, ys[i]) for i in range(len(ys))),
        features=lambda i: rows[int(i)],
        p=float(params["p"]),
    )
    steps = int(params["steps"])
    alpha = float(params["alpha"])
    u0 = np.asarray(params.get("u0", np.zeros(rows.shape[1])), dtype=float)
    u, rep = mirror_descent_run(prob, alpha, steps, u0)
    tol = float(params.get("tol", 1e-8))
    results = {
        "final_risk": rep.final_risk,
        "gradient_norm": rep.gradient_norm,
        "fitted_rate": _rate_entry(rep.fitted_rate),
        "path_rate": _rate_entry(rep.path_rate),
        "stability_threshold": rep.stability_threshold,
        "warned": bool(rep.warned),
        "state": u,
    }
    times = alpha * np.arange(steps + 1)
    stride = max(1, len(times) // 400)
    series = {"risk": (times[::stride], rep.risks[::stride])}
    return results, series, bool(rep.final_risk <= tol and not rep.warned)


def _run_symmetry(params, seed, outdir):
    A = _matrix(params["matrix"])
    T = _matrix(params["transform"])
    f = VectorField.linear(A)
    sampler = _ball_sampler(params, A.shape[0], "samples", 50, seed)
    residual = equivariance_residual(f, LinearSymmetry(T), sampler)
    tol = float(params.get("tol", 1e-8))
    return {"equivariance_residual": residual, "tol": tol}, {}, bool(residual <= tol)


# kind: (handler, required parameter keys, optional parameter keys); a
# handler reads no key outside its two lists
KINDS = {
    "measure": (_run_measure, ("matrix", "p"), ("weight",)),
    "verify": (_run_verify, ("matrix", "p", "rate"), ("overshoot", "t_span", "step", "pairs", "radius")),
    "subspace": (_run_subspace, ("matrix", "projection", "p"), ("tol", "samples", "radius")),
    "manifold": (_run_manifold, ("system",), ("omega", "mu", "tol")),
    "couple": (_run_couple, ("blocks", "coupling"), ()),
    "pde-rd": (
        _run_pde_rd,
        ("n", "bc", "alpha", "t_span"),
        ("reaction", "u0", "h_t", "length", "claimed_rate"),
    ),
    "pde-claw": (_run_pde_claw, ("n", "flux", "t_span"), ("amplitude", "h_t", "tol", "length")),
    "poisson": (_run_poisson, ("n", "forcing"), ("bc", "tol", "u0")),
    "regress": (_run_regress, ("p", "features", "targets", "alpha", "steps"), ("u0", "tol")),
    "symmetry": (_run_symmetry, ("matrix", "transform", "p"), ("tol", "samples", "radius")),
}


# -------------------------------------------------------------- dispatch


def _key_problems(kind: str, params: dict) -> str:
    """Missing required and unknown parameter keys of a scenario, as one
    message ('' when there are none)."""
    _, required, optional = KINDS[kind]
    missing = [k for k in required if k not in params]
    unknown = sorted(str(k) for k in params if k not in required and k not in optional)
    problems = []
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    return "; ".join(problems)


def _fail(message, code=1) -> int:
    """Print message to stderr and return the exit code."""
    print(message, file=sys.stderr)
    return code


def _checked_scenario(path):
    """(document, 0) for a scenario object of a known kind, a parameter
    object with the right keys and no non-string output_dir; otherwise
    (None, exit code) after printing why: 64 for an unknown kind, else 1."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        return None, _fail(f"cannot read scenario file: {exc}")
    except json.JSONDecodeError as exc:
        return None, _fail(f"scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        return None, _fail("scenario must be a JSON object")
    kind, params = doc.get("kind"), doc.get("parameters", {})
    if not isinstance(kind, str) or kind not in KINDS:
        return None, _fail(f"unknown scenario kind {kind!r}\n{USAGE}", 64)
    if not isinstance(params, dict):
        return None, _fail("scenario invalid: parameters must be a JSON object")
    if not isinstance(doc.get("output_dir", "."), str):
        return None, _fail("scenario invalid: output_dir must be a string")
    problems = _key_problems(kind, params)
    if problems:
        return None, _fail(f"scenario invalid: {problems}")
    return doc, 0


def validate_scenario(path) -> int:
    doc, code = _checked_scenario(path)
    if doc is not None:
        print(f"ok: {doc['kind']} scenario with all required keys")
    return code


def run_scenario(path, out_override=None, seed_override=None) -> int:
    """Run a scenario file, with seed_override in place of its seed when given."""
    doc, code = _checked_scenario(path)
    if doc is None:
        return code
    kind, params = doc["kind"], doc.get("parameters", {})
    raw_seed = doc.get("seed", 0) if seed_override is None else seed_override
    try:
        seed = int(raw_seed)
    except (TypeError, ValueError, OverflowError):
        return _fail(f"scenario invalid: seed {raw_seed!r} is not an integer")
    outdir = Path(out_override if out_override is not None else doc.get("output_dir", "."))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create output directory {outdir}: {exc}")

    started = time.perf_counter()
    try:
        results, series, passed = KINDS[kind][0](params, seed, outdir)
    except SipkitError as exc:
        return _fail(f"error running {kind} scenario: {exc}")
    except Exception as exc:  # malformed parameter payloads land here
        return _fail(f"error running {kind} scenario: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started

    series_paths = {}
    try:
        for name, (ts, vs) in series.items():
            series_paths[name] = emit_series(name, ts, vs, outdir).name
        report = {
            "kind": kind,
            "seed": seed,
            "parameters": params,
            "results": results,
            "series": series_paths,
            "passed": bool(passed),
        }
        (outdir / "report.json").write_text(_render(report) + "\n")
        # wall time lives outside report.json so reports stay byte-identical
        (outdir / "wall_time.txt").write_text(f"{wall:.6f}\n")
    except (OSError, SipkitError) as exc:
        return _fail(f"error writing outputs: {exc}")
    print(f"{kind}: {'pass' if passed else 'FAIL'} (report at {outdir / 'report.json'})")
    return 0 if passed else 2


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(USAGE)
        return 0 if args else 64
    cmd, rest = args[0], args[1:]
    if cmd == "validate":
        if len(rest) != 1:
            return _fail(USAGE, 64)
        return validate_scenario(rest[0])
    if cmd == "run":
        path, opts = None, {"--out": None, "--seed": None}
        it = iter(rest)
        for tok in it:
            if tok in opts:
                opts[tok] = next(it, None)
                if opts[tok] is None:
                    return _fail(f"option {tok} needs a value\n{USAGE}", 64)
            elif tok.startswith("-"):
                return _fail(f"unknown option {tok}\n{USAGE}", 64)
            elif path is None:
                path = tok
            else:
                return _fail(USAGE, 64)
        if path is None:
            return _fail(USAGE, 64)
        try:
            seed = None if opts["--seed"] is None else int(opts["--seed"])
        except ValueError:
            return _fail(USAGE, 64)
        return run_scenario(path, out_override=opts["--out"], seed_override=seed)
    return _fail(f"unknown command {cmd!r}\n{USAGE}", 64)


if __name__ == "__main__":
    sys.exit(main())
