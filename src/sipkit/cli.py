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

Every run is a fresh process, so start-up counts: this module imports
only errors, spaces and measures, and each handler imports the analysis
modules it runs in its own body.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import CertificateRefusedError, SipkitError
from .measures import SAMPLED, Ball, DomainSampler, Points, RateEstimate, Sphere, VectorField, operator_rate
from .spaces import NormSpec

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


def _named_option(table, key, value):
    """(name, table entry, option keys) of a name or a {"name": name, **option keys} object."""
    options = dict(value) if isinstance(value, dict) else {"name": value}
    name = str(options.pop("name", None))
    if name not in table:
        raise SipkitError(f"unknown {key} {name!r}; known: {', '.join(table)}")
    return name, table[name], options


# A handler takes (seed, outdir) and the scenario's parameters as keyword-only
# arguments, which declare its kind: a key with no default is required, one
# with a default optional.  It returns (results, series, passed).


def _run_measure(seed, outdir, *, matrix, p, weight=None):
    spec = NormSpec(p=float(p), weight=None if weight is None else _matrix(weight))
    est = operator_rate(_matrix(matrix), spec, seed=seed)
    return {"lognorm": _rate_entry(est)}, {}, True


def _run_verify(
    seed, outdir, *, matrix, p, rate, overshoot=1.0, t_span=(0.0, 1.0), step=1e-2, pairs=10, radius=1.0
):
    from .flows import verify_contraction
    A = _matrix(matrix)
    spec = NormSpec(p=float(p))
    a, b = DomainSampler(Ball(np.zeros(A.shape[0]), float(radius)), count=int(pairs), seed=seed).pairs()
    res = verify_contraction(
        VectorField.linear(A),
        list(zip(a, b)),
        spec,
        rate=float(rate),
        overshoot=float(overshoot),
        t_span=tuple(t_span),
        h=float(step),
    )
    results = {
        "claimed_rate": res.claimed_rate,
        "max_violation": res.max_violation,
        "fitted_rate": _rate_entry(res.fitted_rate),
        "pairs_checked": res.pairs_checked,
    }
    return results, {}, bool(res.passed)


def _run_subspace(seed, outdir, *, matrix, projection, p, tol=1e-8, samples=100, radius=1.0):
    from .invariants import SubspaceSpec, subspace_certificate
    A = _matrix(matrix)
    f = VectorField.linear(A)
    sub = SubspaceSpec(_matrix(projection))
    sampler = DomainSampler(Ball(np.zeros(A.shape[0]), float(radius)), count=int(samples), seed=seed)
    rep = subspace_certificate(f, sub, sampler, NormSpec(p=float(p)), tol=float(tol))
    results = {
        "invariance_residual": rep.invariance_residual,
        "transverse_rate": _rate_entry(rep.rate),
    }
    return results, {}, bool(rep.passed)


def _run_manifold(seed, outdir, *, system, omega=3.0, mu=1.0, tol=1e-8):
    from .invariants import ManifoldSpec, manifold_certificate
    name = str(system)
    if name != "hopf":
        raise SipkitError(f"unknown manifold system {name!r}; known: hopf")
    omega, mu = float(omega), float(mu)

    def hopf(t, u):
        x, y = u
        s = mu - (x * x + y * y)
        return np.array([s * x - omega * y, omega * x + s * y])

    man = ManifoldSpec(
        phi=lambda u: np.array([u @ u - mu]),
        dim=2,
        codim=1,
        dphi=lambda u: 2.0 * u[None, :],
    )
    seeds = DomainSampler(Ball(np.zeros(2), 1.5 * math.sqrt(mu)), count=12, seed=seed)
    ambient = DomainSampler(Sphere(np.zeros(2), math.sqrt(mu)), count=32, seed=seed)
    rep = manifold_certificate(VectorField(hopf, 2, name="hopf"), man, seeds, ambient, tol=float(tol))
    results = {
        "tangency_residual": rep.tangency_residual,
        "constraint_rate": _rate_entry(rep.rate),
        "zero_points": rep.zero_points,
        "min_singular_value": rep.min_singular_value,
    }
    return results, {}, bool(rep.passed)


def _run_couple(seed, outdir, *, blocks, coupling):
    from .couplings import BlockSystem, feedback_certificate
    J1, J2 = (_matrix(b) for b in blocks)
    B = _matrix(coupling)
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


def _initial_profile(u0, grid):
    from .pdelab import demean
    if isinstance(u0, str):
        if u0 == "sin":
            return demean(np.sin(2.0 * np.pi * grid.points / grid.length))
        if u0 == "bump":
            return 0.5 + 0.3 * np.sin(2.0 * np.pi * grid.points / grid.length)
        raise SipkitError(f"unknown u0 profile {u0!r}; known: sin, bump")
    return np.asarray(u0, dtype=float)


def _run_pde_rd(
    seed, outdir, *, n, bc, alpha, t_span, reaction=0.0, u0="sin", h_t=None, length=1.0, claimed_rate=None
):
    from .flows import overshoot_fit
    from .pdelab import Grid1D, demean, poincare_rate, rd_simulate, total_mass
    grid = Grid1D(int(n), str(bc), float(length))
    alpha = float(alpha)
    c = float(reaction)
    reaction = None if c == 0.0 else (lambda t, U: c * U)
    u0 = _initial_profile(u0, grid)
    h_t = 0.9 * grid.h**2 / (2.0 * alpha) if h_t is None else float(h_t)
    tr = rd_simulate(alpha, reaction, grid, u0, tuple(t_span), h_t)
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
    if claimed_rate is not None:
        results["claimed_rate"] = float(claimed_rate)
        passed = bool(fitted <= float(claimed_rate) + 1e-6)
    stride = max(1, len(tr.times) // 400)
    series = {"distance": (tr.times[::stride], dist[::stride])}
    return results, series, passed


# Option tables: an entry's keyword-only parameters declare its option keys,
# as a handler's do.  A flux entry builds (flux, whether its rate must be 0).
_FLUXES = {
    "advection": lambda *, speed=1.0: ((lambda u, c=float(speed): c * u), True),
    "burgers": lambda: ((lambda u: 0.5 * u**2), False),
}


def _run_pde_claw(seed, outdir, *, n, flux, t_span, amplitude=1.0, h_t=1e-3, tol=1e-8, length=1.0):
    from .flows import integrate
    from .pdelab import Grid1D, _central_difference, conservation_rate, total_mass
    grid = Grid1D(int(n), "periodic", float(length))
    name, make_flux, options = _named_option(_FLUXES, "flux", flux)
    flux, rate_checked = make_flux(**options)
    amp = float(amplitude)
    x = grid.points
    profiles = np.array([a * np.sin(2.0 * np.pi * x / grid.length) for a in (0.5 * amp, amp)])
    sampler = DomainSampler(Points(profiles), count=len(profiles), seed=seed)
    rep = conservation_rate(flux, grid, sampler)
    Dc = _central_difference(grid)
    claw = VectorField(lambda t, u: -(Dc @ flux(u)), grid.n, name=name)
    u0 = 0.3 + 0.1 * amp * np.sin(2.0 * np.pi * x / grid.length)
    tr = integrate(claw, u0, tuple(t_span), float(h_t))
    mass = total_mass(grid, tr.states)
    drift = float(np.max(np.abs(mass - mass[0])))
    results = {
        "rate": _rate_entry(rep.rate),
        "skewness_residual": rep.skewness_residual,
        "mass_drift": drift,
    }
    passed = drift <= 1e-8 and (not rate_checked or abs(rep.rate.value) <= float(tol))
    stride = max(1, len(tr.times) // 400)
    series = {"mass": (tr.times[::stride], mass[::stride])}
    return results, series, bool(passed)


# Each forcing entry builds du/dt = L u + forcing from the Laplacian L.
_FORCINGS = {
    "constant": lambda L, *, value=1.0: VectorField.linear(L, b=np.full(L.shape[0], float(value))),
    "tanh": lambda L: VectorField(
        lambda t, u: L @ u + np.tanh(u), L.shape[0], jac=lambda t, u: L + np.diag(1.0 - np.tanh(u) ** 2)
    ),
}


def _run_poisson(seed, outdir, *, n, forcing, bc="dirichlet", tol=1e-8, u0=None):
    from .pdelab import Grid1D, build_laplacian, fixed_point_solve
    grid = Grid1D(int(n), str(bc))
    L = build_laplacian(grid)
    _, make_field, options = _named_option(_FORCINGS, "forcing", forcing)
    F = make_field(L, **options)
    if u0 == "random":
        u0 = np.random.default_rng(seed).normal(size=grid.n)
    elif u0 is not None and np.shape(u0) != (grid.n,):
        raise SipkitError(f'u0 must be "random" or an array of {grid.n} numbers')
    try:
        u, rep = fixed_point_solve(F, grid, tol=float(tol), u0=u0)
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


def _run_regress(seed, outdir, *, p, features, targets, alpha, steps, u0=None, tol=1e-8):
    from .mirror import RegressionProblem, mirror_descent_run
    rows = _matrix(features)
    ys = np.asarray(targets, dtype=float)
    if rows.shape[0] != ys.shape[0]:
        raise SipkitError(f"{rows.shape[0]} feature rows vs {ys.shape[0]} targets")
    prob = RegressionProblem(
        samples=tuple((i, ys[i]) for i in range(len(ys))),
        features=lambda i: rows[int(i)],
        p=float(p),
    )
    steps = int(steps)
    alpha = float(alpha)
    u0 = np.zeros(rows.shape[1]) if u0 is None else np.asarray(u0, dtype=float)
    u, rep = mirror_descent_run(prob, alpha, steps, u0)
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
    return results, series, bool(rep.final_risk <= float(tol) and not rep.warned)


def _run_symmetry(seed, outdir, *, matrix, transform, p=None, tol=1e-8, samples=50, radius=1.0):
    # p is accepted and not read: the equivariance residual is Euclidean
    from .invariants import LinearSymmetry, equivariance_residual
    A = _matrix(matrix)
    T = _matrix(transform)
    f = VectorField.linear(A)
    sampler = DomainSampler(Ball(np.zeros(A.shape[0]), float(radius)), count=int(samples), seed=seed)
    residual = equivariance_residual(f, LinearSymmetry(T), sampler)
    tol = float(tol)
    return {"equivariance_residual": residual, "tol": tol}, {}, bool(residual <= tol)


KINDS = {
    "measure": _run_measure,
    "verify": _run_verify,
    "subspace": _run_subspace,
    "manifold": _run_manifold,
    "couple": _run_couple,
    "pde-rd": _run_pde_rd,
    "pde-claw": _run_pde_claw,
    "poisson": _run_poisson,
    "regress": _run_regress,
    "symmetry": _run_symmetry,
}
_OPTIONS = {"flux": _FLUXES, "forcing": _FORCINGS}

USAGE = f"""usage: sipkit run <scenario.json> [--out DIR] [--seed N]
       sipkit validate <scenario.json>
scenario kinds: {' '.join(KINDS)}"""


# -------------------------------------------------------------- dispatch


def parameter_keys(fn):
    """(required, optional) keyword-only parameter names of a handler or of
    an option entry: those without a default and those with one."""
    import inspect  # loaded already: dataclasses imports it

    kw = [q for q in inspect.signature(fn).parameters.values() if q.kind is q.KEYWORD_ONLY]
    required = tuple(q.name for q in kw if q.default is q.empty)
    return required, tuple(q.name for q in kw if q.name not in required)


def _key_problems(fn, keys, label="") -> list:
    """Messages naming fn's required keywords missing from keys and the keys
    that are none of fn's keywords."""
    required, optional = parameter_keys(fn)
    missing = ", ".join(k for k in required if k not in keys)
    unknown = ", ".join(sorted(str(k) for k in keys if k not in required + optional))
    return [f"{what} {label}keys: {ks}" for what, ks in (("missing", missing), ("unknown", unknown)) if ks]


def _fail(message, code=1) -> int:
    """Print message to stderr and return the exit code."""
    print(message, file=sys.stderr)
    return code


def _checked_scenario(path):
    """(document, 0) for a scenario object of a known kind, a parameter
    object with the right keys and option keys, and no non-string output_dir;
    otherwise (None, exit code) after printing why: 64 for an unknown kind, else 1."""
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
    problems = _key_problems(KINDS[kind], params)
    for key, value in params.items():  # an unknown option name is refused by run
        if key in _OPTIONS and isinstance(value, dict) and str(value.get("name")) in _OPTIONS[key]:
            _, entry, options = _named_option(_OPTIONS[key], key, value)
            problems += _key_problems(entry, options, f"{key} ")
    if problems:
        return None, _fail(f"scenario invalid: {'; '.join(problems)}")
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
        results, series, passed = KINDS[kind](seed, outdir, **params)
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
