"""Contraction-rate functionals: log norms and sampled suprema.

Two routes to the same number are kept deliberately separate.  The closed
forms (lognorm_closed, operator_rate) evaluate known formulas; the limit
route (lognorm_limit), the reference they are tested against, extrapolates
(||I + hA|| - 1)/h directly.  Sampled suprema are certified lower bounds,
flagged as such in the returned RateEstimate.  They all run on one engine:
the probes are swept in one call of a stacked objective, and projected
forward-difference ascents refine the best few in lockstep (_ascent), one
call per iteration on the gradient stacks x + diag(h) of every problem
still running and one on their candidates.  _sampled_sup is a single
supremum over times and starts.  _operator_rates rates a (B, n, n) stack
of matrices at once, by stacked closed forms for p in {1, 2, inf} and
otherwise by one sweep and one lockstep ascent for all B; operator_rate is
its B = 1 case.  The closed forms take every p=2 norm and every norm
whose coordinates T are square: they rate spec.conjugate(A) = R A R^-1,
with the spec's cached factor R (for a tall T, stacked or a seminorm's
coordinates, ||Tu||_2 is ||Ru||_2 for T = QR).
Every exact matrix RateEstimate and every closed inner log norm comes
from _operator_rates, the one home of the closed forms and the one
reader of a seminorm's (C, G) (spaces._seminorm): it rates C A G in the
seminorm's coordinates, so every rate functional works in a seminorm
unchanged.  Its callers include every invariant-set and mass-zero rate,
pdelab's Sobolev, pattern and conservation rates, and mirror's step
threshold.
The quotients come from the fused row kernel spaces._quotient_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConditioningError,
    DegenerateArgumentError,
    DimensionError,
    EvaluationError,
    UnsupportedNormError,
)
from .spaces import NormSpec, _checked_weight, _ladder_limit, _quotient_rows, _raw_norm_rows

__all__ = [
    "RateEstimate",
    "Box",
    "Sphere",
    "Ball",
    "Points",
    "DomainSampler",
    "VectorField",
    "WeightFamily",
    "lognorm_closed",
    "lognorm_limit",
    "operator_norm",
    "operator_rate",
    "integral_rate",
    "differential_rate",
    "weighted_rate",
    "lp_comparison_bound",
]

EXACT = "exact-closed-form"
EIGEN = "eigen-exact"
SAMPLED = "sampled-lower-bound"

BLOWUP = 1e100


@dataclass(frozen=True)
class RateEstimate:
    """A rate value together with how it was obtained.

    kind is one of 'exact-closed-form', 'eigen-exact', or
    'sampled-lower-bound'; sampled estimates also carry how many probes
    and ascent iterations went into them.
    """

    value: float
    kind: str
    samples: int = 0
    ascent_iters: int = 0
    note: str = ""

    @property
    def is_exact(self) -> bool:
        return self.kind in (EXACT, EIGEN)


# ------------------------------------------------------------- sampling


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionError("box corners must be matching 1-d tuples")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi > lo)):
            raise DegenerateArgumentError("box must have finite corners and positive extent")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))

    @property
    def dim(self):
        return len(self.lo)

    def draw(self, rng, count):
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return rng.uniform(lo, hi, size=(count, self.dim))

    def project(self, x):
        return np.clip(x, np.asarray(self.lo), np.asarray(self.hi))

    @property
    def scale(self):
        return float(np.max(np.asarray(self.hi) - np.asarray(self.lo)))


@dataclass(frozen=True)
class _Round:
    """A center, a nonempty finite 1-d vector, and a finite positive radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise DimensionError("center must be a nonempty 1-d vector")
        r = float(self.radius)
        if not (np.all(np.isfinite(c)) and math.isfinite(r) and r > 0.0):
            raise DegenerateArgumentError("center must be finite and radius finite and positive")
        object.__setattr__(self, "center", tuple(c))
        object.__setattr__(self, "radius", r)

    @property
    def dim(self):
        return len(self.center)

    @property
    def scale(self):
        return self.radius


@dataclass(frozen=True)
class Sphere(_Round):
    """Points on the sphere surface of the given radius."""

    def draw(self, rng, count):
        g = rng.normal(size=(count, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return np.asarray(self.center) + self.radius * g

    def project(self, x):
        """Radial projection of a point or of every row of a stack; a row
        at the center maps to the first axis."""
        c = np.asarray(self.center)
        d = np.atleast_2d(np.array(x - c, dtype=float))
        r = np.linalg.norm(d, axis=1, keepdims=True)
        at_center = r[:, 0] == 0.0
        d[at_center] = 0.0
        d[at_center, 0] = 1.0
        r[at_center] = 1.0
        return (c + self.radius * d / r).reshape(np.shape(x))


@dataclass(frozen=True)
class Ball(_Round):
    """Points inside the ball (uniform in volume)."""

    def draw(self, rng, count):
        g = rng.normal(size=(count, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = rng.uniform(size=(count, 1)) ** (1.0 / self.dim)
        return np.asarray(self.center) + self.radius * r * g

    def project(self, x):
        """Nearest point of the ball to a point or to every row of a stack;
        rows inside are returned as they are."""
        c = np.asarray(self.center)
        d = x - c
        r = np.linalg.norm(d, axis=-1, keepdims=True)
        out = r > self.radius
        return np.where(out, c + self.radius * d / np.where(out, r, 1.0), x)


@dataclass(frozen=True)
class Points:
    """A nonempty list of finite probe points; sampling cycles through it."""

    points: tuple

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.points, dtype=float))
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionError(f"points must be a nonempty list of nonempty vectors, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DegenerateArgumentError("points must be finite")
        object.__setattr__(self, "points", tuple(map(tuple, arr)))

    @property
    def dim(self):
        return len(self.points[0])

    def draw(self, rng, count, start=0):
        """count points cycling through the list from index start."""
        arr = np.asarray(self.points)
        return arr[(start + np.arange(count)) % len(arr)]

    def project(self, x):
        return x

    @property
    def scale(self):
        return 0.0  # no ascent on explicit lists


@dataclass(frozen=True)
class DomainSampler:
    """Deterministic probe source: same seed, same points, every call."""

    region: object
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.count >= 1:
            raise DegenerateArgumentError(f"sampler count must be at least 1, got {self.count!r}")

    def points(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return self.region.draw(rng, self.count)

    def pairs(self):
        rng = np.random.default_rng((self.seed, 1))
        a = self.region.draw(rng, self.count)
        if self.region.scale == 0:  # a point list: each listed point with the next one
            b = self.region.draw(rng, self.count, start=1)
        else:
            b = self.region.draw(rng, self.count)
        # nudge coincident pairs apart; the quotient needs u != v
        bad = np.linalg.norm(a - b, axis=1) < 1e-10
        if np.any(bad):
            b[bad] = b[bad] + 1e-6 * (1.0 + np.abs(b[bad]))
        return a, b

    @property
    def dim(self):
        return self.region.dim


# ---------------------------------------------------------- vector fields


def _fd(g, x, d, h):
    """Central difference of g at x along d with step h:
    (g(x + h d) - g(x - h d)) / (2h)."""
    step = h * d
    return (g(x + step) - g(x - step)) / (2.0 * h)


def _fd_jacobian(g, u):
    """Jacobian of g at the vector u by central differences; column j
    steps along the j-th axis by 1e-6 (1 + |u_j|)."""
    cols = [_fd(g, u, e, 1e-6 * (1.0 + abs(uj))) for e, uj in zip(np.eye(len(u)), u)]
    return np.array(cols).T.copy()  # C order, as the columns of a filled matrix


def _shaped(u, out):
    """out as an array, after checking that it has u's shape."""
    out = np.asarray(out)
    if out.shape != u.shape:
        raise EvaluationError(f"field returned shape {out.shape} for input shape {u.shape}", point=u)
    return out


def _checked_value(u, out):
    """out as an array, after checking that it has u's shape and is finite;
    for a stack the error's point is the first row with a non-finite value."""
    out = _shaped(u, out)
    if not np.isfinite(out).all():
        point = u[np.argmin(np.isfinite(out).all(axis=1))] if u.ndim == 2 else u
        raise EvaluationError("field returned non-finite values", point=point)
    return out


@dataclass
class VectorField:
    """Time-varying field f(t, u) with an optional analytic Jacobian.

    ``matrix`` (and optional ``offset``) mark the field affine: rate
    functionals rate the matrix itself, through operator_rate, and RK4
    steps by R(hA) (flows._step_map) once a run is long enough.  Both
    then ignore ``fn``.

    Calling the field on a state u of shape (n,) evaluates fn(t, u).  An
    (m, n) stack of states returns the (m, n) stack of values: an affine
    field takes it in one product U @ matrix.T (+ offset); any other field
    is evaluated row by row, so fn only ever sees single states.  Each
    row's shape is checked as it comes back, and the stack is checked for
    finite values once, naming the first row that has a non-finite one.
    """

    fn: Callable
    dim: int
    jac: Callable | None = None
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    name: str = ""

    @classmethod
    def linear(cls, A, b=None, name="linear"):
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"linear field needs a square matrix, got {A.shape}")
        b = None if b is None else np.asarray(b, dtype=A.dtype)

        def fn(t, u):
            out = A @ u
            return out if b is None else out + b

        return cls(fn=fn, dim=A.shape[0], jac=lambda t, u: A, matrix=A, offset=b, name=name)

    @classmethod
    def autonomous(cls, g, dim, jac=None, name=""):
        jfn = None if jac is None else (lambda t, u: jac(u))
        return cls(fn=lambda t, u: g(u), dim=dim, jac=jfn, name=name)

    def __call__(self, t, u):
        u = np.asarray(u)
        if u.ndim != 2:
            return _checked_value(u, self.fn(float(t), u))
        if self.matrix is None:
            return _checked_value(u, np.stack([_shaped(row, self.fn(float(t), row)) for row in u]))
        out = u @ self.matrix.T
        return _checked_value(u, out if self.offset is None else out + self.offset)

    def jacobian(self, t, u):
        """The analytic Jacobian when given, else _fd_jacobian of the field."""
        u = np.asarray(u, dtype=float)
        if self.jac is not None:
            J = np.asarray(self.jac(float(t), u))
            if J.shape != (self.dim, self.dim):
                raise EvaluationError(f"jacobian returned shape {J.shape}", point=u)
            return J
        return _fd_jacobian(lambda v: self(t, v), u)


# ------------------------------------------------------------- ascent


def _ascent(objective, X0, step, project=None, iters=50):
    """Greedy forward-difference ascents from every row of X0, in lockstep.

    ``objective(X, rows)`` maps a stack of points, and the problem (row of
    X0) each one belongs to, to their values.  Every problem keeps its own
    point, value, step, iteration count and stop rule.  An iteration makes
    one call on the gradient stacks x + diag(h) of all problems still
    running, differenced against their known values, and one call on
    their candidates.  Returns (values, iterations used) per problem.
    """
    x = np.array(X0, dtype=float)
    m, d = x.shape
    fx = np.asarray(objective(x, np.arange(m)), dtype=float)
    out, used = fx.copy(), np.full(m, iters)
    run, steps = np.arange(m), np.full(m, float(step))

    def stop(done, it):
        nonlocal run, x, fx, steps
        out[run[done]], used[run[done]] = fx[done], it
        keep = ~done
        run, x, fx, steps = run[keep], x[keep], fx[keep], steps[keep]
        return keep

    for it in range(1, iters + 1):
        h = 1e-6 * (1.0 + np.abs(x))
        grad_stack = x.repeat(d, axis=0)  # d copies of each x, then + h on the diagonals
        grad_stack.reshape(-1, d * d)[:, :: d + 1] += h
        g = (objective(grad_stack, run.repeat(d)).reshape(-1, d) - fx[:, None]) / h
        ng = np.sqrt((g * g).sum(axis=1))
        # plain floats: cheaper than array reductions for a few problems
        if not all(0.0 < v < math.inf for v in ng.tolist()):
            keep = stop(~(np.isfinite(ng) & (ng != 0.0)), it)
            g, ng = g[keep], ng[keep]
            if not run.size:
                break
        cand = x + steps[:, None] * g / ng[:, None]
        if project is not None:
            cand = project(cand)
        fc = objective(cand, run)
        up = np.isfinite(fc) & (fc > fx)
        x, fx = np.where(up[:, None], cand, x), np.where(up, fc, fx)
        steps = steps * np.where(up, 1.3, 0.5)
        if min(steps.tolist()) < 1e-12:
            stop(steps < 1e-12, it)
            if not run.size:
                break
    out[run] = fx
    return out, used


def _ascend_best(objective, starts, vals, k, step, iters, project):
    """Lockstep ascents from the k best sweep values of every group.

    Row g of vals is group g's sweep: vals[g, j] is the value at start
    starts[j % S] (S = len(starts)) in slice j // S of the group, a slice
    being one time of a state supremum or one matrix of a stack.
    objective(X, slices) gets each row's slice numbered across groups,
    g * (vals.shape[1] // S) + j // S.  A NaN or -inf value never becomes
    a start.  Returns the best value seen and the ascent iterations, one
    of each per group.
    """
    S = len(starts)
    live = vals > -math.inf
    best = np.where(live, vals, -math.inf).max(axis=1)
    order = np.argsort(np.where(live, -vals, math.inf), axis=1, kind="stable")[:, :k]
    g, rank = np.nonzero(live[np.arange(len(vals))[:, None], order])
    used = np.zeros(len(vals), dtype=int)
    if not g.size:
        return best, used
    j = order[g, rank]
    slices = g * (vals.shape[1] // S) + j // S
    got, its = _ascent(lambda X, rows: objective(X, slices[rows]), starts[j % S], step, project, iters)
    np.fmax.at(best, g, got)
    np.add.at(used, g, its)
    return best, used


def _sampled_sup(objective_rows, starts, step, k, iters=50, project=None, times=(0.0,)):
    """Sampled supremum of objective_rows(t, X) over t in times and the rows of starts.

    Sweeps every start at each time in one call, then ascends in lockstep
    from the k best sweep values.  Returns (best value seen, ascent
    iterations, sweep values in time-major order).
    """
    vals = np.concatenate([objective_rows(t, starts) for t in times])

    def at_times(X, slices):
        if len(times) == 1:
            return objective_rows(times[0], X)
        out = np.empty(len(X))
        for i, t in enumerate(times):
            rows = slices == i
            if rows.any():
                out[rows] = objective_rows(t, X[rows])
        return out

    best, used = _ascend_best(at_times, starts, vals[None, :], k, step, iters, project)
    return float(best[0]), int(used[0]), vals


def _region_ascent(region, k):
    """(step, starts) of the ascents on a region: 5% of its scale from the
    k best sweeps; none on a point list, the one region of scale 0."""
    return 0.05 * max(region.scale, 1e-6), k if region.scale > 0 else 0


def _state_sup(rates_at, sampler, times, k):
    """_sampled_sup over the sampler's points of a stacked rate
    rates_at(t, X) (one value per row of X), with 25-step ascents."""
    return _sampled_sup(
        rates_at,
        sampler.points(),
        *_region_ascent(sampler.region, k),
        iters=25,
        project=sampler.region.project,
        times=times,
    )


# ------------------------------------------------------------ log norms


def _as_square(A):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    return A


def lognorm_closed(A, p) -> RateEstimate:
    """Closed-form log norm (matrix measure) for p in {1, 2, inf}.

    p=1 runs over columns, p=inf over rows, p=2 is the largest eigenvalue
    of the symmetric (Hermitian) part; the B=1 case of _operator_rates.
    """
    A = _as_square(A)
    if p not in (1.0, 2.0, math.inf):
        raise UnsupportedNormError(f"no closed-form log norm for p={p}; use operator_rate")
    return _operator_rates(A[None], NormSpec(p=p))[0]


def operator_norm(A, p, samples=200, seed=0):
    """Operator p-norm of an (m, n) matrix from l^p(n) to l^p(m); exact for
    p in {1, 2, inf}, otherwise the sampled ratio, a lower bound."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {A.shape}")
    if p == 1.0:
        return float(np.abs(A).sum(axis=0).max()), EXACT
    if p == math.inf:
        return float(np.abs(A).sum(axis=1).max()), EXACT
    if p == 2.0:
        return float(np.linalg.norm(A, 2)), EIGEN
    # sampled sphere maximization with ascent refinement
    rng = np.random.default_rng(seed)
    vs = rng.normal(size=(samples, A.shape[1]))
    vs /= _raw_norm_rows(vs, p)[:, None]

    def ratio(_, V):
        nv = _raw_norm_rows(V, p)
        out = np.full(len(V), -math.inf)
        ok = nv >= 1e-300
        out[ok] = _raw_norm_rows(V[ok] @ A.T, p) / nv[ok]
        return out

    best, _, _ = _sampled_sup(ratio, vs, step=0.1, k=1)
    return best, SAMPLED


def lognorm_limit(A, spec: NormSpec = NormSpec(), samples=200, seed=0) -> RateEstimate:
    """Log norm by its definition: extrapolated limit of (||I+hA||-1)/h.

    Independent of the closed forms; for p outside {1, 2, inf} the operator
    norm inside the quotient is itself a sampled lower bound (the probe set
    is frozen across the h ladder so the quotient stays smooth in h).
    """
    B, p = spec.conjugate(_as_square(A)), spec.p
    n = B.shape[0]
    eye = np.eye(n, dtype=B.dtype)
    if p in (1.0, 2.0, math.inf):

        def quot(h):
            return (operator_norm(eye + h * B, p)[0] - 1.0) / h

        val = _ladder_limit(quot)
        kind = EIGEN if p == 2.0 else EXACT
        return RateEstimate(float(val), kind, note="h-ladder limit")
    rng = np.random.default_rng(seed)
    vs = rng.normal(size=(samples, n))
    vs /= _raw_norm_rows(vs, p)[:, None]

    def quot(h):
        M = eye + h * B
        return (_raw_norm_rows(vs @ M.T, p).max() - 1.0) / h

    val = _ladder_limit(quot)
    return RateEstimate(float(val), SAMPLED, samples=samples, note="h-ladder limit")


def _operator_rates(As, spec: NormSpec = NormSpec(), samples=200, seed=0) -> list:
    """operator_rate of every matrix of a (B, n, n) stack, as a list.

    A seminorm from spaces._seminorm first compresses every A to C A G
    and rates it in its coordinate spec.  Closed forms run stacked for
    every p=2 spec (plain, or with a square or tall T) and for specs with
    no T or a square one at p in {1, inf}.
    Otherwise every matrix is swept over the same seeded probes in one
    kernel call, and the best probe of each is refined by one lockstep
    ascent.
    """
    As = np.asarray(As)
    if As.ndim != 3 or As.shape[1] != As.shape[2]:
        raise DimensionError(f"expected a stack of square matrices, got shape {As.shape}")
    if spec._compression is not None:  # a seminorm: rate C A G in its coordinates
        C, G, spec = spec._compression
        As = C @ As @ G
    if spec.p == 2.0 or (not spec._tall and spec.p in (1.0, math.inf)):
        kind = EIGEN if spec.p == 2.0 else EXACT
        note = "" if spec.transform is None else "stack-conjugated" if spec._tall else "weight-conjugated"
        Bs = spec.conjugate(As)
        if spec.p == 2.0:  # top eigenvalue of the symmetric (Hermitian) part
            values = np.linalg.eigvalsh((Bs + Bs.conj().transpose(0, 2, 1)) / 2.0)[:, -1]
        else:  # p=1 runs over columns, p=inf over rows
            d = np.diagonal(Bs, axis1=1, axis2=2)
            values = (np.real(d) + (np.abs(Bs).sum(axis=1 if spec.p == 1.0 else 2) - np.abs(d))).max(axis=1)
        return [RateEstimate(float(v), kind, note=note) for v in values]
    # sampled numerical range in the (possibly weighted/stacked) norm
    B, n, _ = As.shape
    vs = np.random.default_rng(seed).normal(size=(samples, n))
    images = (vs @ As.transpose(0, 2, 1)).reshape(-1, n)
    vals = _quotient_rows(np.concatenate([vs] * B), images, spec, 1e-150).reshape(B, samples)

    def quotients(X, owner):
        # every row under its own matrix; a single matrix takes the plain
        # product, a third of the cost of the gathered product per call
        AX = X @ As[0].T if B == 1 else (As[owner] @ X[:, :, None])[:, :, 0]
        return _quotient_rows(X, AX, spec, 1e-150)

    best, used = _ascend_best(quotients, vs, vals, 1, 0.1, 50, None)
    return [RateEstimate(float(b), SAMPLED, samples=samples, ascent_iters=int(u)) for b, u in zip(best, used)]


def operator_rate(A, spec: NormSpec = NormSpec(), samples=200, seed=0) -> RateEstimate:
    """sup of sip(v, Av)/||v||^2 over v != 0 in the given norm.

    Equals the log norm; closed forms where available, otherwise a sampled
    numerical-range supremum with ascent refinement.  The one-matrix case
    of _operator_rates.
    """
    return _operator_rates(_as_square(A)[None], spec, samples, seed)[0]


# --------------------------------------------------------- rate functionals


def _inner_rates(mats, spec: NormSpec = NormSpec(), seed=0):
    """Values of the inner log norms of matrices, one _operator_rates batch (64 probes off the closed forms)."""
    return np.array([est.value for est in _operator_rates(np.array(mats), spec, samples=64, seed=seed)])


def _affine_rate(f: VectorField, sampler: DomainSampler | None, spec: NormSpec):
    """An affine field's rate, operator_rate of its matrix under any spec;
    None for any other field, which needs a sampler."""
    if f.matrix is not None:
        return _operator_rates(f.matrix[None], spec, seed=sampler.seed if sampler else 0)[0]
    if sampler is None:
        raise DegenerateArgumentError("sampled rate needs a DomainSampler")
    return None


def integral_rate(
    f: VectorField,
    sampler: DomainSampler,
    spec: NormSpec = NormSpec(),
    times=(0.0,),
    ascent_starts=5,
) -> RateEstimate:
    """One-sided Lipschitz rate: sup over pairs of
    sip(u - v, f(t,u) - f(t,v)) / ||u - v||^2.

    An affine field's rate is operator_rate(f.matrix, spec,
    seed=sampler.seed); any other field gets a sampled lower bound over
    the sampler's region, refined by ascent from the best starting pairs.
    Per sweep or step, f is called once per run of equal consecutive
    states of each side's stack: a gradient row moves one side of its
    pair only, so the other side repeats the pair's state down one run.
    """
    est = _affine_rate(f, sampler, spec)
    if est is not None:
        return est
    a, b = sampler.pairs()
    n = sampler.dim
    proj = sampler.region.project

    def field(t, U):
        # f once per run of equal consecutive rows, compared by their bits
        # (so 0.0 and -0.0 differ); the first row of a run in error is the
        # state a row-by-row call would name
        bits = U.view(np.uint64)
        new = np.ones(len(U), dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        return f(t, U[new])[np.cumsum(new) - 1]

    def quot(t, X):
        return _quotient_rows(X[:, :n] - X[:, n:], field(t, X[:, :n]) - field(t, X[:, n:]), spec, 1e-12)

    def project(X):
        return np.hstack([proj(X[:, :n]), proj(X[:, n:])])

    best, used, vals = _sampled_sup(
        quot, np.hstack([a, b]), *_region_ascent(sampler.region, ascent_starts), project=project, times=times
    )
    return RateEstimate(best, SAMPLED, samples=len(vals), ascent_iters=used)


def differential_rate(
    f: VectorField,
    sampler: DomainSampler,
    spec: NormSpec = NormSpec(),
    times=(0.0,),
    ascent_starts=3,
) -> RateEstimate:
    """sup over states of the log norm of the Jacobian.

    The inner log norm is exact for p in {1, 2, inf} (weighted included);
    the outer sup over states is sampled with ascent.  An affine field's
    rate is operator_rate(f.matrix, spec, seed=sampler.seed).
    """
    est = _affine_rate(f, sampler, spec)
    if est is not None:
        return est

    def rates_at(t, X):
        return _inner_rates([f.jacobian(t, u) for u in X], spec, sampler.seed)

    best, used, vals = _state_sup(rates_at, sampler, times, ascent_starts)
    return RateEstimate(best, SAMPLED, samples=len(vals), ascent_iters=used)


# ----------------------------------------------------------- weights


@dataclass
class WeightFamily:
    """State- and time-dependent weight Theta(t, u).

    ``dt`` is the partial time derivative, ``du`` the directional state
    derivative (t, u, w) -> D Theta(t,u)[w]; both fall back to the central
    difference _fd when omitted.
    """

    theta: Callable
    dt: Callable | None = None
    du: Callable | None = None

    def matrix(self, t, u):
        return _checked_weight(np.asarray(self.theta(float(t), np.asarray(u)), dtype=float), "weight family")

    def total_derivative(self, t, u, direction):
        """d/dt Theta along a trajectory moving with the given velocity."""
        if self.dt is not None:
            Wt = np.asarray(self.dt(float(t), np.asarray(u)), dtype=float)
        else:
            Wt = _fd(lambda s: self.matrix(s, u), t, 1.0, 1e-6 * (1.0 + abs(t)))
        w = np.asarray(direction, dtype=float)
        if self.du is not None:
            Wu = np.asarray(self.du(float(t), np.asarray(u), w), dtype=float)
        else:
            nw = np.linalg.norm(w)
            if nw == 0.0:
                Wu = np.zeros_like(Wt)
            else:
                h = 1e-6 * (1.0 + np.linalg.norm(u)) / nw
                Wu = _fd(lambda v: self.matrix(t, v), u, w, h)
        return Wt + Wu


def weighted_rate(
    f: VectorField,
    theta,
    spec: NormSpec = NormSpec(),
    mode: str = "constant",
    sampler: DomainSampler | None = None,
    times=(0.0,),
) -> RateEstimate:
    """Contraction rate of f measured through the weight.

    mode='constant' conjugates by a fixed matrix: integral_rate in the
    weighted norm (for an affine field, operator_rate of its matrix).  mode='varying' evaluates the generator
    d(Theta)/dt + Theta Df at sampled states and returns the sup of the
    log norm of (generator) Theta^{-1} in the base norm.
    """
    if spec.transform is not None:
        raise ConditioningError("pass the weight via `theta`, not inside spec")
    if mode == "constant":
        return integral_rate(f, sampler, NormSpec(p=spec.p, weight=theta, field_kind=spec.field_kind), times=times)
    if mode != "varying":
        raise DegenerateArgumentError(f"unknown mode {mode!r}")
    fam = theta if isinstance(theta, WeightFamily) else WeightFamily(theta=theta)
    if sampler is None:
        raise DegenerateArgumentError("varying weights need a DomainSampler")

    def generator(t, u):
        W = fam.matrix(t, u)
        G = fam.total_derivative(t, u, f(t, u)) + W @ f.jacobian(t, u)
        return G @ np.linalg.inv(W)

    def rates_at(t, X):
        return _inner_rates([generator(t, u) for u in X], spec, sampler.seed)

    best, used, vals = _state_sup(rates_at, sampler, times, 2)
    return RateEstimate(best, SAMPLED, samples=len(vals), ascent_iters=used, note="varying weight")


# ----------------------------------------------------- norm comparison


def lp_comparison_bound(lambda2, p, t, init_dist, measure_e=None, box_bound=None) -> float:
    """Distance bound in the l^p norm driven by a mean-square rate.

    Below p=2 the domain measure enters; above p=2 a uniform box bound
    does as well, with the decay exponent scaled by 2/p.
    """
    if t < 0:
        raise DegenerateArgumentError("t must be nonnegative")
    if init_dist < 0:
        raise DegenerateArgumentError("init_dist must be nonnegative")
    if p == 2.0:
        return float(math.exp(lambda2 * t) * init_dist)
    if p < 2.0:
        if measure_e is None or measure_e <= 0:
            raise DegenerateArgumentError("p < 2 needs a positive domain measure")
        return float(measure_e ** (1.0 / p - 0.5) * math.exp(lambda2 * t) * init_dist)
    # p > 2, including p = inf
    if box_bound is None or box_bound <= 0:
        raise DegenerateArgumentError("p > 2 needs a positive uniform box bound")
    expo = 2.0 / p if p != math.inf else 0.0
    if expo > 0.0:
        if measure_e is None or measure_e <= 0:
            raise DegenerateArgumentError("finite p > 2 needs a positive domain measure")
        inner = math.exp(lambda2 * t) * measure_e ** (0.5 - 1.0 / p) * init_dist
        return float(box_bound ** (1.0 - expo) * inner**expo)
    return float(box_bound)
