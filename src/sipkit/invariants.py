"""Certificates for invariant structure: subspaces, zero sets of
constraint maps, symmetries, and limit cycles.

Contraction toward a structure is certified in two parts: an algebraic
residual showing the structure is dynamically consistent (invariance,
tangency, equivariance, periodicity) and a negative transverse rate.
Every transverse rate is the log norm of a compression R Df(u) G with
R G = I, taken by measures._operator_rates: exact over directions
wherever its closed forms reach, and sampled over states for a field
that is not affine.  A subspace is rated by differential_rate in the
seminorm ||Q x|| = ||W e|| of the spec (spaces._seminorm), e = W^T Q x
the coordinates of its complement; a zero set of phi, whose compression
depends on the state, through Dphi(u) Df(u) Dphi(u)^+ in the codomain
spec.  Sampled suprema are certified lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateArgumentError,
    DegenerateProjectionError,
    DimensionError,
    RegularityError,
    SymmetryError,
)
from .flows import Trajectory, overshoot_fit
from .measures import (
    SAMPLED,
    DomainSampler,
    RateEstimate,
    VectorField,
    _fd,
    _fd_jacobian,
    _inner_rates,
    _state_sup,
    differential_rate,
)
from .spaces import NormSpec, _seminorm, norm, norm_rows

__all__ = [
    "SubspaceSpec",
    "ManifoldSpec",
    "LinearSymmetry",
    "DiffeoSymmetry",
    "SubspaceReport",
    "ManifoldReport",
    "LimitCycleReport",
    "DecayFit",
    "subspace_certificate",
    "manifold_certificate",
    "equivariance_residual",
    "spatiotemporal_residual",
    "limit_cycle_certificate",
    "set_distance_decay",
    "newton_project",
]

PROJECTION_TOL = 1e-10
RANK_TOL = 1e-8
DISTANCE_FLOOR = 1e-300


# --------------------------------------------------------------- types


@dataclass(frozen=True)
class SubspaceSpec:
    """A projection P onto the target subspace; Q = I - P is derived."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionError(f"projection must be square, got {P.shape}")
        drift = np.linalg.norm(P @ P - P, 2)
        if drift > PROJECTION_TOL:
            raise DegenerateArgumentError(f"not a projection: ||P^2 - P|| = {drift:.3e}")
        object.__setattr__(self, "P", P)

    @property
    def Q(self):
        return np.eye(self.P.shape[0]) - self.P

    @property
    def dim(self):
        return self.P.shape[0]


@dataclass(frozen=True)
class ManifoldSpec:
    """Zero set of a constraint map phi: R^n -> R^m with full-rank Dphi."""

    phi: object
    dim: int
    codim: int
    dphi: object = None

    def value(self, u):
        out = np.atleast_1d(np.asarray(self.phi(np.asarray(u, dtype=float)), dtype=float))
        if out.shape != (self.codim,):
            raise DimensionError(f"constraint returned shape {out.shape}, expected ({self.codim},)")
        return out

    def jacobian(self, u):
        """Dphi(u): dphi when given, else _fd_jacobian of the constraint."""
        u = np.asarray(u, dtype=float)
        if self.dphi is not None:
            J = np.atleast_2d(np.asarray(self.dphi(u), dtype=float))
            if J.shape != (self.codim, self.dim):
                raise DimensionError(f"constraint jacobian has shape {J.shape}")
            return J
        return _fd_jacobian(self.value, u)


@dataclass(frozen=True)
class LinearSymmetry:
    T: np.ndarray

    def apply(self, u):
        return self.T @ u

    def push(self, u, w):
        return self.T @ w


@dataclass(frozen=True)
class DiffeoSymmetry:
    h: object
    dh: object = None
    h_inv: object = None

    def apply(self, u):
        return np.asarray(self.h(np.asarray(u)), dtype=float)

    def push(self, u, w):
        """Dh(u) w: dh when given, else _fd of h along w."""
        u = np.asarray(u, dtype=float)
        w = np.asarray(w, dtype=float)
        if self.dh is not None:
            return np.asarray(self.dh(u), dtype=float) @ w
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return np.zeros_like(w)
        return _fd(self.apply, u, w, 1e-6 * (1.0 + np.linalg.norm(u)) / nw)


@dataclass(frozen=True)
class SubspaceReport:
    invariance_residual: float
    rate: RateEstimate
    passed: bool
    tol: float


@dataclass(frozen=True)
class ManifoldReport:
    tangency_residual: float
    rate: RateEstimate
    passed: bool
    tol: float
    zero_points: int
    min_singular_value: float


@dataclass(frozen=True)
class LimitCycleReport:
    tangency_residual: float
    rate: RateEstimate
    periodicity_residual: float
    min_speed: float
    passed: bool
    tol: float


@dataclass(frozen=True)
class DecayFit:
    rate: float
    overshoot: float
    monotonicity_violations: int
    floored: bool
    samples: int


# ----------------------------------------------------------- subspaces


def _complement_coordinates(Q):
    """(C, G, note): coordinates e = C x of the complement range(Q), with
    C G = I and G C = Q, so ||Q x|| is the seminorm _seminorm(spec, C, G)
    of every spec.  G = W is the complement's coordinate columns for a
    0/1 diagonal Q, else the orthonormal basis of range(Q) by
    scipy.linalg.orth's rank rule, and C = W^T Q."""
    E = np.eye(len(Q))[:, np.abs(np.diag(Q) - 1.0) <= 1e-12]
    if np.linalg.norm(Q - E @ E.T, 2) <= 1e-12:
        W, note = E, "coordinate compression"
    else:
        U, sv, _ = np.linalg.svd(Q)
        W, note = U[:, sv > sv[0] * max(Q.shape) * np.finfo(float).eps], "compressed to complement range"
    return W.T @ Q, W, note


def subspace_certificate(
    f: VectorField,
    sub: SubspaceSpec,
    sampler: DomainSampler,
    spec: NormSpec = NormSpec(),
    times=(0.0,),
    tol: float = 1e-8,
) -> SubspaceReport:
    """Certify flow-invariance of range(P) plus transverse contraction.

    Invariance: sup ||Q f(t, P v)|| over sampled v must stay within tol;
    each time evaluates f once on the stack of the P v.
    Rate: differential_rate in the seminorm ||Q x|| of the spec (see
    _complement_coordinates), which rates the compression C Df(t,u) G:
    one operator rate for an affine field (probes seeded from the
    sampler off the closed forms), else the sup over the sampler's
    states of the inner rates, exact over directions where the closed
    forms reach (every p=2 spec; plain p in {1, inf} with a coordinate
    complement).  Passes when the residual is small and the rate is
    strictly negative.
    """
    if sub.dim != f.dim:
        raise DimensionError("projection and field dimensions differ")
    Q = sub.Q
    if np.linalg.norm(Q, 2) <= 1e-12:
        raise DegenerateProjectionError("projection covers the whole space; no complement to rate")
    PV = sampler.points() @ sub.P.T
    residual = 0.0
    for t in times:
        residual = max(residual, float(norm_rows(f(t, PV) @ Q.T, spec).max()))
    C, G, note = _complement_coordinates(Q)
    rate = replace(differential_rate(f, sampler, _seminorm(spec, C, G), times, ascent_starts=2), note=note)
    passed = bool(residual <= tol and rate.value < 0.0)
    return SubspaceReport(invariance_residual=float(residual), rate=rate, passed=passed, tol=tol)


# ----------------------------------------------------------- manifolds


def newton_project(man: ManifoldSpec, u0, iters: int = 15, tol: float = 1e-12):
    """Gauss-Newton projection of a seed point onto the zero set."""
    z = np.array(u0, dtype=float)
    for _ in range(iters):
        r = man.value(z)
        if np.linalg.norm(r) <= tol:
            return z
        J = man.jacobian(z)
        z = z - np.linalg.pinv(J) @ r
    if np.linalg.norm(man.value(z)) > 1e-8:
        raise RegularityError("projection onto the zero set did not converge", point=z)
    return z


def _zero_set(f, man: ManifoldSpec, seeds, spec: NormSpec, times):
    """Newton-project the seeds onto the zero set, evaluate Dphi once per
    zero point z and check its full row rank; returns (zero points, least
    singular value of Dphi, tangency sup ||Dphi(z) f(t, z)||, the values
    f(t, z) as one list per time)."""
    zs = [newton_project(man, u) for u in seeds]
    smin, jacs = math.inf, []
    for z in zs:
        J = man.jacobian(z)
        s = float(np.linalg.svd(J, compute_uv=False)[-1])
        if s <= RANK_TOL:
            raise RegularityError(f"constraint jacobian is rank-deficient (sigma_min = {s:.3e})", point=z)
        smin = min(smin, s)
        jacs.append(J)
    values = [[f(t, z) for z in zs] for t in times]
    tangency = max([0.0, *(norm(J @ v, spec) for row in values for J, v in zip(jacs, row))])
    return zs, smin, tangency, values


def _constraint_rate(f, man: ManifoldSpec, sampler: DomainSampler, spec: NormSpec, times):
    """sup over the sampler's states of the inner rate of the compression
    Dphi(u) Df(u) Dphi(u)^+ in the codomain spec: the rate of the
    constraint value phi, whose tangent directions lie in the kernel of
    Dphi.  States where Dphi loses row rank are skipped."""

    def rates_at(t, X):
        out = np.full(len(X), -math.inf)  # stays -inf where the constraint is blind
        Js = np.array([man.jacobian(u) for u in X])
        seen = np.linalg.svd(Js, compute_uv=False)[:, -1] > RANK_TOL
        if seen.any():
            Fs = np.array([f.jacobian(t, u) for u in X[seen]])
            out[seen] = _inner_rates(Js[seen] @ Fs @ np.linalg.pinv(Js[seen]), spec, sampler.seed)
        return out

    best, used, vals = _state_sup(rates_at, sampler, times, 2)
    finite = int(np.count_nonzero(np.isfinite(vals)))
    if not finite:
        raise DegenerateProjectionError("the constraint jacobian is rank-deficient at every sampled state")
    return RateEstimate(best, SAMPLED, samples=finite, ascent_iters=used)


def manifold_certificate(
    f: VectorField,
    man: ManifoldSpec,
    seed_sampler: DomainSampler,
    ambient_sampler: DomainSampler,
    spec: NormSpec = NormSpec(),
    times=(0.0,),
    tol: float = 1e-8,
) -> ManifoldReport:
    """Certify flow-invariance of the constraint zero set plus transverse
    contraction measured through the constraint map.

    Seeds are Newton-projected onto the zero set (each checked for full
    row rank of Dphi); tangency sup ||Dphi(z) f(t,z)|| must stay within
    tol and the constraint rate must be negative: the sup over the
    ambient sampler's states of the log norm of Dphi(u) Df(u) Dphi(u)^+
    in the codomain spec, exact over directions at p in {1, 2, inf}.
    States where Dphi loses row rank are skipped; if all of them do,
    DegenerateProjectionError is raised.
    """
    zs, smin, tangency, _ = _zero_set(f, man, seed_sampler.points(), spec, times)
    rate = _constraint_rate(f, man, ambient_sampler, spec, times)
    passed = bool(tangency <= tol and rate.value < 0.0)
    return ManifoldReport(
        tangency_residual=float(tangency),
        rate=rate,
        passed=passed,
        tol=tol,
        zero_points=len(zs),
        min_singular_value=float(smin),
    )


# ----------------------------------------------------------- symmetries


def equivariance_residual(f: VectorField, sym, sampler: DomainSampler, times=(0.0,)) -> float:
    """sup over samples of || f(t, T u) - T_* f(t, u) ||_2."""
    worst = 0.0
    for t in times:
        for u in sampler.points():
            lhs = f(t, sym.apply(u))
            rhs = sym.push(u, f(t, u))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def spatiotemporal_residual(
    f: VectorField, T, delta_t: float, order: int, sampler: DomainSampler, times=(0.0,)
) -> float:
    """sup over samples of || f(t, T u) - T f(t + delta_t, u) ||_2.

    T must be a k-th root of the identity (k = order); solutions of such
    systems approach order*delta_t-periodic behaviour when contracting.
    f is called on the stack of samples, once at t and once at t + delta_t.
    """
    T = np.asarray(T, dtype=float)
    if order < 1:
        raise DegenerateArgumentError("order must be a positive integer")
    drift = np.linalg.norm(np.linalg.matrix_power(T, order) - np.eye(T.shape[0]), 2)
    if drift > 1e-8:
        raise SymmetryError(f"T^{order} deviates from the identity by {drift:.3e}")
    X = sampler.points()
    worst = 0.0
    for t in times:
        worst = max(worst, float(np.linalg.norm(f(t, X @ T.T) - f(t + delta_t, X) @ T.T, axis=1).max()))
    return worst


# --------------------------------------------------------- limit cycles


def limit_cycle_certificate(
    g: VectorField,
    man: ManifoldSpec,
    period: float,
    loop_points,
    ambient_sampler: DomainSampler,
    spec: NormSpec = NormSpec(),
    times=(0.0,),
    tol: float = 1e-8,
    speed_floor: float = 1e-8,
) -> LimitCycleReport:
    """Certify an attracting periodic orbit supported on a closed curve.

    Four conditions: the loop is tangent to the flow, the constraint
    rate toward the loop (as in manifold_certificate) is negative, the
    field is period-periodic on the loop, and the speed never vanishes
    there (so the motion on the loop cannot stall).
    """
    if period <= 0:
        raise DegenerateArgumentError("period must be positive")
    loop = np.atleast_2d(np.asarray(loop_points, dtype=float))
    zs, _, tangency, values = _zero_set(g, man, loop, spec, times)
    gaps = [np.linalg.norm(v - g(t + period, z)) for t, row in zip(times, values) for z, v in zip(zs, row)]
    periodicity = max([0.0, *map(float, gaps)])
    speed = min([math.inf, *(float(np.linalg.norm(v)) for row in values for v in row)])
    rate = _constraint_rate(g, man, ambient_sampler, spec, times)
    passed = bool(
        tangency <= tol and rate.value < 0.0 and periodicity <= tol and speed > speed_floor
    )
    return LimitCycleReport(
        tangency_residual=float(tangency),
        rate=rate,
        periodicity_residual=float(periodicity),
        min_speed=float(speed),
        passed=passed,
        tol=tol,
    )


# ------------------------------------------------------ distance decay


def set_distance_decay(traj: Trajectory, distance_oracle, floor: float = DISTANCE_FLOOR) -> DecayFit:
    """Fit an exponential envelope to a distance-to-set signal along a
    trajectory.

    Distances are clamped at the floor before the log fit; a signal that
    sits entirely at the floor reports rate -inf (already inside the set).
    Counts strict monotonicity violations as a diagnostic.
    """
    raw = np.array([float(distance_oracle(s)) for s in traj.states])
    if np.any(raw < 0):
        raise DegenerateArgumentError("distance oracle returned a negative value")
    d = np.maximum(raw, floor)
    if np.all(d <= floor * 10.0):
        return DecayFit(
            rate=-math.inf, overshoot=1.0, monotonicity_violations=0, floored=True, samples=len(d)
        )
    viol = int(np.sum(d[1:] > d[:-1] * (1.0 + 1e-9) + 1e-15))
    lam, kap = overshoot_fit(traj.times, d)
    return DecayFit(
        rate=lam, overshoot=kap, monotonicity_violations=viol, floored=False, samples=len(d)
    )
