"""The benchmark's three workloads: inputs made from a seed, and one round of operations.

A round is a fixed list of operations.  Each operation is one public
call into sipkit (``rate-suprema``, ``stepping``) or one ``sipkit run``
process (``cli-batch``).  Sizes are fixed; the seed only changes values,
so every round and every seed does the same kind of work.

Every operation carries an independent check (see checks.py): ``call``
is the timed part, ``digest`` pulls out the values the check reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

INF = math.inf
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    digest: Callable[[Any], dict]
    check: Callable[[dict], list]


def _rate_digest(est):
    return {"value": est.value, "sampled": est.kind == "sampled-lower-bound"}


def _tanh_field(sk, W, c):
    """f(u) = -u + W tanh(u) + c, defined here so its cost is charged to ``user``."""
    n = W.shape[0]
    return sk.VectorField(
        fn=lambda t, u: -u + W @ np.tanh(u) + c,
        dim=n,
        jac=lambda t, u: -np.eye(n) + W * (1.0 - np.tanh(u) ** 2)[None, :],
        name="tanh-network",
    )


def _hopf(mu, omega):
    def fn(t, u):
        x, y = u
        s = mu - (x * x + y * y)
        return np.array([s * x - omega * y, omega * x + s * y])

    return fn


def _invariant_subspace(rng, n, k):
    """A with range(P) invariant for a non-coordinate orthogonal projection P."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = 0.3 * rng.normal(size=(n, n))
    M[k:, :k] = 0.0
    M[k:, k:] -= 2.0 * np.eye(n - k)
    return U @ M @ U.T, U[:, :k] @ U[:, :k].T, U[:, k:]


# ------------------------------------------------------------ rate-suprema


def rate_suprema(seed):
    """Closed-form log norms beside sampled suprema and certificates.

    Sorted by time a round of 28 is: 12 closed forms (tens of us), 6
    sampled operator_rate calls, the subspace and manifold certificates,
    3 integral_rate calls and 5 differential_rate calls.  The median of
    the 28 mean times falls among the sampled operator_rate calls, the
    90th percentile among the differential_rate calls; ops_per_s is set
    by the sampled work.
    """
    import sipkit as sk

    rng = np.random.default_rng([seed, 1])
    n = 8
    mats = [rng.normal(size=(n, n)) - 2.0 * np.eye(n) for _ in range(3)]
    weights = [2.0 * np.eye(n) + rng.normal(size=(n, n)) / math.sqrt(n) for _ in range(3)]
    ops = []

    def sampled(A, p, s):
        spec = sk.NormSpec(p=p)
        return Op(
            f"operator_rate p={p}",
            lambda: sk.operator_rate(A, spec, seed=s),
            _rate_digest,
            lambda d: checks.check_sampled_lognorm(d, A, p),
        )

    def closed(A, p, W):
        spec = sk.NormSpec(p=p, weight=W)
        return Op(
            f"operator_rate p={p}{'' if W is None else ' weighted'}",
            lambda: sk.operator_rate(A, spec),
            lambda est: {"value": est.value, "exact": est.is_exact},
            lambda d: checks.check_closed_lognorm(d, A, p, W),
        )

    for A in mats:
        for p in (1.5, 3.0):
            ops.append(sampled(A, p, int(rng.integers(2**31))))
    for A, W in zip(mats[:2], weights[:2]):
        for p in (1.0, 2.0, INF):
            ops.append(closed(A, p, None))
            ops.append(closed(A, p, W))

    d = 6
    box = sk.Box(tuple([-2.0] * d), tuple([2.0] * d))

    def network():
        W = 0.8 * rng.normal(size=(d, d)) / math.sqrt(d)
        return W, _tanh_field(sk, W, 0.1 * rng.normal(size=d))

    def integral(W, f, p, sampler):
        spec = sk.NormSpec(p=p)
        return Op(
            f"integral_rate p={p}",
            lambda: sk.integral_rate(f, sampler, spec),
            _rate_digest,
            lambda dg: checks.check_tanh_rate(dg, W, p),
        )

    def differential(W, f, sampler):
        spec = sk.NormSpec(p=3.0)
        return Op(
            "differential_rate p=3",
            # outer ascent off: one call stays near 0.25 s; the nested sampled
            # log norm at each point, which dominates the cost, is intact
            lambda: sk.differential_rate(f, sampler, spec, ascent_starts=0),
            _rate_digest,
            lambda dg: checks.check_tanh_rate(dg, W, 3.0),
        )

    W, f = network()
    pairs = sk.DomainSampler(box, count=40, seed=int(rng.integers(2**31)))
    for p in (2.0, 3.0, INF):
        ops.append(integral(W, f, p, pairs))
    for _ in range(5):
        W, f = network()
        ops.append(differential(W, f, sk.DomainSampler(box, count=16, seed=int(rng.integers(2**31)))))

    A, P, _ = _invariant_subspace(rng, 6, 2)
    Q = np.eye(6) - P
    sub_sampler = sk.DomainSampler(sk.Ball(tuple([0.0] * 6), 1.0), count=20, seed=int(rng.integers(2**31)))
    sub_field, sub_spec = sk.VectorField.linear(A), sk.NormSpec(p=3.0)
    ops.append(
        Op(
            "subspace_certificate p=3",
            lambda: sk.subspace_certificate(sub_field, sk.SubspaceSpec(P), sub_sampler, sub_spec),
            lambda rep: {"residual": rep.invariance_residual, "value": rep.rate.value, "passed": rep.passed},
            lambda dg: checks.check_subspace(dg, A, Q, 3.0, 1e-8),
        )
    )

    mu, omega = rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0)
    hopf = sk.VectorField(_hopf(mu, omega), 2, name="hopf")
    man = sk.ManifoldSpec(
        phi=lambda u: np.array([u @ u - mu]), dim=2, codim=1, dphi=lambda u: 2.0 * u[None, :]
    )
    s = int(rng.integers(2**31))
    seeds = sk.DomainSampler(sk.Ball((0.0, 0.0), 1.5 * math.sqrt(mu)), count=12, seed=s)
    ambient = sk.DomainSampler(sk.Sphere((0.0, 0.0), math.sqrt(mu)), count=32, seed=s)
    ops.append(
        Op(
            "manifold_certificate hopf",
            lambda: sk.manifold_certificate(hopf, man, seeds, ambient),
            lambda rep: {"value": rep.rate.value, "tangency": rep.tangency_residual, "passed": rep.passed},
            lambda dg: checks.check_hopf(dg, mu) + checks.equal("verdict", dg["passed"], True),
        )
    )
    return ops


# ---------------------------------------------------------------- stepping


def stepping(seed):
    """Operations that advance a state: RK4 trajectories, grid PDEs, a
    fixed-point solve and mirror descent.

    Sorted by time a round of 16 is: 2 1-d rd_simulate, the p=2 mirror
    descent, 2 integrate, the 2-d rd_simulate, 4 verify_contraction,
    poincare_rate, the p=1.5 mirror descent (its cost is the sampled
    rates at five checkpoints), the constant-forcing solve and 3 tanh
    fixed-point solves.  Sizes keep every operation near 0.25 s or less,
    so a round lasts one to two seconds and each operation repeats often.
    The median of the 16 mean times falls among the verify_contraction
    calls, the 90th percentile among the tanh solves.
    """
    import sipkit as sk

    rng = np.random.default_rng([seed, 2])
    ops = []

    # verify_contraction on a linear n=50 field
    n = 50
    A = -4.0 * np.eye(n) + 0.5 * rng.normal(size=(n, n)) / math.sqrt(n)
    lin = sk.VectorField.linear(A)
    pairs = [(rng.normal(size=n), rng.normal(size=n)) for _ in range(2)]
    abscissa = float(np.linalg.eigvals(A).real.max())

    def verify(p, rate, expect):
        spec = sk.NormSpec(p=p)
        return Op(
            f"verify_contraction p={p} {'pass' if expect else 'refuse'}",
            lambda: sk.verify_contraction(lin, pairs, spec, rate=rate, t_span=(0.0, 2.0), h=0.01),
            lambda res: {
                "passed": res.passed,
                "max_violation": res.max_violation,
                "claimed_rate": res.claimed_rate,
            },
            lambda d: checks.check_verify(d, rate, expect),
        )

    for p in (INF, 1.0):
        ops.append(verify(p, checks.lognorm(A, p), True))
    for p in (INF, 1.0):
        ops.append(verify(p, abscissa - 0.5, False))

    # integrate a conservation law: periodic advection, central differences
    m = 64
    grid = sk.Grid1D(m, "periodic")
    x = grid.points
    Dc = (np.roll(np.eye(m), -1, axis=1) - np.roll(np.eye(m), 1, axis=1)) / (2.0 * grid.h)

    def advection(speed):
        B = -speed * Dc
        u0 = 0.3 + sum(
            rng.uniform(0.05, 0.2) * np.sin(2.0 * np.pi * k * x + rng.uniform(0, 2 * np.pi)) for k in (1, 2)
        )
        f = sk.VectorField.linear(B, name="advection")
        return Op(
            "integrate advection",
            lambda: sk.integrate(f, u0, (0.0, 0.5), 1e-3),
            lambda tr: {"end": tr.states[-1], "mass": grid.h * tr.states[-1].sum()},
            lambda d: checks.check_linear_end_state(d, B, u0, 0.5, 500) + checks.check_mass(d, u0, grid.h),
        )

    ops.append(advection(rng.uniform(0.5, 2.0)))
    ops.append(advection(rng.uniform(0.5, 2.0)))

    # rd_simulate: 1-d Dirichlet diffusion
    g1 = sk.Grid1D(m, "dirichlet")
    L1 = checks.dirichlet_matrix(m, 1.0)

    def diffusion_1d(alpha):
        u0 = rng.normal(size=m)
        h_t = 0.9 * g1.h**2 / (2.0 * alpha)
        steps = 200
        T = steps * h_t
        return Op(
            "rd_simulate 1-d",
            lambda: sk.rd_simulate(alpha, None, g1, u0, (0.0, T), h_t),
            lambda tr: {"end": tr.states[-1]},
            lambda d: checks.check_linear_end_state(d, alpha * L1, u0, T, steps),
        )

    ops.append(diffusion_1d(rng.uniform(0.5, 1.5)))
    ops.append(diffusion_1d(rng.uniform(0.5, 1.5)))

    # rd_simulate and poincare_rate on a 32x32 Dirichlet grid (dense Laplacian 8.4 MB)
    shape = (32, 32)
    lengths = (rng.uniform(0.8, 1.25), rng.uniform(0.8, 1.25))
    g2 = sk.Grid2D(shape, "dirichlet", lengths)
    alpha2 = rng.uniform(0.5, 1.5)
    u2 = rng.normal(size=g2.size)
    h2 = 0.9 * g2.h**2 / (4.0 * alpha2)
    T2 = 20 * h2
    ops.append(
        Op(
            "rd_simulate 2-d",
            lambda: sk.rd_simulate(alpha2, None, g2, u2, (0.0, T2), h2),
            lambda tr: {"end": tr.states[-1]},
            lambda d: checks.check_rd_2d(d, shape, lengths, alpha2, u2, T2, 20),
        )
    )
    ops.append(
        Op(
            "poincare_rate 2-d",
            lambda: sk.poincare_rate(g2),
            lambda est: {"value": est.value},
            lambda d: checks.check_poincare_2d(d, shape, lengths),
        )
    )

    # fixed_point_solve of Lap u + tanh(u) = 0 from several starts, and a
    # constant forcing with a linear-solve reference
    k = 16
    gk = sk.Grid1D(k, "dirichlet")
    Lk = checks.dirichlet_matrix(k, 1.0)
    tanh_field = sk.VectorField(
        fn=lambda t, u: Lk @ u + np.tanh(u),
        dim=k,
        jac=lambda t, u: Lk + np.diag(1.0 - np.tanh(u) ** 2),
        name="poisson-tanh",
    )
    first = []

    def fixed_point(u0):
        return Op(
            "fixed_point_solve tanh",
            lambda: sk.fixed_point_solve(tanh_field, gk, u0=u0),
            lambda out: {"u": out[0], "converged": out[1].converged},
            lambda d: checks.check_fixed_point(d, gk.h, 1e-8, first),
        )

    b = np.full(k, rng.uniform(0.5, 2.0))
    forced = sk.VectorField.linear(Lk, b=b, name="poisson-constant")
    ops.append(
        Op(
            "fixed_point_solve constant",
            lambda: sk.fixed_point_solve(forced, gk),
            lambda out: {"u": out[0], "converged": out[1].converged},
            lambda d: checks.check_linear_solve(d, Lk, b),
        )
    )
    for _ in range(3):
        ops.append(fixed_point(rng.normal(size=k)))

    # mirror descent in l^1.5 and, as a cross-check, at p=2
    def mirror(p, steps):
        K = rng.normal(size=(20, 5))
        y = K @ rng.normal(size=5) + 0.1 * rng.normal(size=20)
        alpha = 0.5 / float(np.linalg.norm(K, 2)) ** 2 if p == 2.0 else 0.01
        prob = sk.RegressionProblem(
            samples=tuple((i, y[i]) for i in range(len(y))), features=lambda i: K[int(i)], p=p
        )
        u0 = np.zeros(5)
        return Op(
            f"mirror_descent_run p={p}",
            lambda: sk.mirror_descent_run(prob, alpha, steps, u0),
            lambda out: {"u": out[0], "risks": out[1].risks},
            lambda d: checks.check_mirror(d, K, y, p, alpha, steps, u0),
        )

    ops.append(mirror(1.5, 100))
    ops.append(mirror(2.0, 100))
    return ops


# --------------------------------------------------------------- cli-batch


def _read_series(path):
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def _scenarios(rng):
    """The ten scenario kinds with seeded parameters, each with its digest
    (report -> values) and its check (values -> problems)."""
    out = []

    n = 12
    A = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
    out.append(
        (
            "measure",
            {"matrix": A.tolist(), "p": 3},
            lambda r, o: _rate_digest_json(r["results"]["lognorm"]),
            lambda d, A=A: checks.check_sampled_lognorm(d, A, 3.0),
        )
    )

    n = 20
    A = -3.0 * np.eye(n) + 0.5 * rng.normal(size=(n, n)) / math.sqrt(n)
    mu_inf = checks.lognorm(A, INF)
    out.append(
        (
            "verify",
            {"matrix": A.tolist(), "p": "inf", "rate": mu_inf, "pairs": 10},
            lambda r, o: {
                "passed": r["passed"],
                "max_violation": r["results"]["max_violation"],
                "claimed_rate": r["results"]["claimed_rate"],
                "pairs": r["results"]["pairs_checked"],
            },
            lambda d, rate=mu_inf: checks.check_verify(d, rate, True) + checks.equal("pairs", d["pairs"], 10),
        )
    )

    A, P, V = _invariant_subspace(rng, 6, 2)
    out.append(
        (
            "subspace",
            {"matrix": A.tolist(), "projection": P.tolist(), "p": 2},
            lambda r, o: {
                "residual": r["results"]["invariance_residual"],
                "value": r["results"]["transverse_rate"]["value"],
            },
            lambda d, A=A, V=V: checks.check_subspace_exact(d, A, V),
        )
    )

    mu, omega = rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0)
    out.append(
        (
            "manifold",
            {"system": "hopf", "mu": mu, "omega": omega},
            lambda r, o: {
                "value": r["results"]["constraint_rate"]["value"],
                "tangency": r["results"]["tangency_residual"],
            },
            lambda d, mu=mu: checks.check_hopf(d, mu),
        )
    )

    J1 = -3.0 * np.eye(3) + 0.5 * rng.normal(size=(3, 3))
    J2 = -3.0 * np.eye(2) + 0.5 * rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 2))
    out.append(
        (
            "couple",
            {"blocks": [J1.tolist(), J2.tolist()], "coupling": B.tolist()},
            lambda r, o: {
                "composite": r["results"]["composite_rate"],
                "block_rates": r["results"]["block_rates"],
                "skewness": r["results"]["skewness_residual"],
            },
            lambda d, J1=J1, J2=J2: checks.check_couple(d, J1, J2),
        )
    )

    m, alpha, length = 64, rng.uniform(0.5, 1.5), rng.uniform(0.8, 1.25)
    gap = checks.periodic_gap(m, length)
    out.append(
        (
            "pde-rd",
            {"n": m, "bc": "periodic", "alpha": alpha, "length": length, "t_span": [0.0, 0.05]},
            lambda r, o: {
                "gap": r["results"]["spectral_gap"]["value"],
                "fitted": r["results"]["fitted_rate"]["value"],
                "mass_drift": r["results"]["mass_drift"],
                "series_rows": len(_read_series(o / r["series"]["distance"])),
            },
            lambda d, gap=gap, alpha=alpha, m=m, length=length: (
                checks.close("spectral gap", d["gap"], gap, 0.0, 1e-10 * 4.0 * (m / length) ** 2)
                + checks.close("fitted decay rate", d["fitted"], alpha * gap, 1e-7)
                + checks.at_most("mass drift", d["mass_drift"], 0.0, 1e-12)
                + checks.at_least("series rows", d["series_rows"], 3)
            ),
        )
    )

    speed, length = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.25)
    h = length / m
    u0 = 0.3 + 0.1 * np.sin(2.0 * np.pi * h * np.arange(m) / length)
    scale = speed / h
    out.append(
        (
            "pde-claw",
            {"n": m, "flux": {"name": "advection", "speed": speed}, "length": length, "t_span": [0.0, 0.5]},
            lambda r, o: {
                "rate": r["results"]["rate"]["value"],
                "skewness": r["results"]["skewness_residual"],
                "mass": _read_series(o / r["series"]["mass"])[:, 1],
            },
            lambda d, u0=u0, h=h, scale=scale: (
                checks.at_most("|rate| of a skew operator", abs(d["rate"]), 0.0, 1e-9 * scale)
                + checks.at_most("skewness residual", d["skewness"], 0.0, 1e-9 * scale)
                + checks.close("mass series", d["mass"], np.full(len(d["mass"]), h * u0.sum()), 0.0, 1e-12)
            ),
        )
    )

    k, value = 32, rng.uniform(0.5, 2.0)
    L = checks.dirichlet_matrix(k, 1.0)
    out.append(
        (
            "poisson",
            {"n": k, "forcing": {"name": "constant", "value": value}},
            lambda r, o: {
                "u": _read_series(o / r["series"]["solution"])[:, 1],
                "residual": r["results"]["residual"],
                "converged": r["results"]["converged"],
            },
            lambda d, L=L, b=np.full(k, value): (
                checks.check_linear_solve(d, L, b) + checks.at_most("residual", d["residual"], 1e-8)
            ),
        )
    )

    Q, _ = np.linalg.qr(rng.normal(size=(12, 4)))
    sv = rng.uniform(1.0, 2.0, size=4)
    K = Q * sv[None, :]
    y = K @ rng.normal(size=4)
    step = 0.9 / float(sv.max()) ** 2
    out.append(
        (
            "regress",
            {"p": 2, "features": K.tolist(), "targets": y.tolist(), "alpha": step, "steps": 300},
            lambda r, o: {
                "u": np.array(r["results"]["state"]),
                "final_risk": r["results"]["final_risk"],
                "warned": r["results"]["warned"],
            },
            lambda d, K=K, y=y, step=step: (
                checks.check_mirror(d, K, y, 2.0, step, 300, np.zeros(4))
                + checks.at_most("final risk", d["final_risk"], 1e-8)
                + checks.equal("warned", d["warned"], False)
            ),
        )
    )

    blocks, rots = [], []
    for _ in range(2):
        a, b, theta = rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0 * np.pi)
        blocks.append(np.array([[-a, -b], [b, -a]]))
        rots.append(np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]))
    A, T = np.zeros((4, 4)), np.zeros((4, 4))
    A[:2, :2], A[2:, 2:] = blocks
    T[:2, :2], T[2:, 2:] = rots
    out.append(
        (
            "symmetry",
            {"matrix": A.tolist(), "transform": T.tolist(), "p": 2},
            lambda r, o: {"residual": r["results"]["equivariance_residual"]},
            lambda d, A=A: checks.at_most("equivariance residual", d["residual"], 0.0, 1e-12 * (1 + np.abs(A).max())),
        )
    )
    return out


def _rate_digest_json(entry):
    return {"value": entry["value"], "sampled": entry["kind"] == "sampled-lower-bound"}


def cli_batch(seed, workdir, traced, sink):
    """Every scenario kind through ``sipkit run`` as a fresh process.

    ``sink`` collects, in a traced run, each child's span totals and its
    process and handler times.
    """
    import tracer

    rng = np.random.default_rng([seed, 3])
    scen_dir = workdir / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    runs = iter(range(10**9))
    ops = []

    def op(kind, params, digest, check):
        path = scen_dir / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, "parameters": params}))
        cli_seed = str(int(rng.integers(2**31)))
        seen = []  # output hash of the first run of this scenario

        def call():
            out = workdir / f"{kind}-{next(runs)}"
            args = ["run", str(path), "--out", str(out), "--seed", cli_seed]
            head = [sys.executable, str(HERE / "tracer.py"), str(out / "trace.json")] if traced else [
                sys.executable,
                "-m",
                "sipkit.cli",
            ]
            out.mkdir()
            start = time.perf_counter()
            proc = subprocess.run(head + args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=170)
            seconds = time.perf_counter() - start
            if proc.returncode not in (0, 2):
                shutil.rmtree(out, ignore_errors=True)
                raise RuntimeError(f"{kind}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.returncode, out, seconds

        def full_digest(res):
            code, out, seconds = res
            try:
                blob = hashlib.sha256()
                for f in sorted(out.iterdir()):
                    if f.name not in ("wall_time.txt", "trace.json"):
                        blob.update(f.name.encode() + b"\0" + f.read_bytes())
                report = json.loads((out / "report.json").read_text())
                d = digest(report, out)
                if traced:
                    sink["cli"]["process_s"] += seconds
                    sink["cli"]["handler_s"] += float((out / "wall_time.txt").read_text())
                    tracer.add_totals(sink, json.loads((out / "trace.json").read_text()))
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if not seen:
                seen.append(blob.hexdigest())
            return {**d, "exit_code": code, "output_hash": blob.hexdigest(), "first_hash": seen[0]}

        def full_check(d):
            out = checks.equal("exit code", d["exit_code"], 0)
            out += checks.equal("report bytes across runs", d["output_hash"], d["first_hash"])
            return out + check(d)

        return Op(f"sipkit run {kind}", call, full_digest, full_check)

    for kind, params, digest, check in _scenarios(rng):
        ops.append(op(kind, params, digest, check))
    return ops


def build(name, seed, workdir, traced, sink):
    if name == "rate-suprema":
        return rate_suprema(seed)
    if name == "stepping":
        return stepping(seed)
    return cli_batch(seed, workdir, traced, sink)
