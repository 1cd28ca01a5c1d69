"""Grid-discretized PDE applications.

Finite-difference Laplacians for dirichlet, neumann, and periodic
boundaries (all built as -D^T D from the bc-consistent first difference,
hence symmetric with exact summation by parts), spectral-gap rates in
closed form (no operator is built or eigensolved), method-of-lines
reaction-diffusion simulation (the Laplacian is applied as a Kronecker
sum of its axis operators, so a 2-d grid needs memory O(nx^2 + ny^2),
not the N x N matrix), pattern suppression and excitation reports,
Sobolev-type stacked rates (the mass-zero ones in a seminorm of the
mean-zero subspace), conservation-law rate analysis on the mass-zero
subspace, and a contraction-backed fixed-point solver for
time-independent equations.  Every mass-zero quantity is rated in the l2
seminorm _seminorm(NormSpec(), W^T, W) of its subspace range(W), whose
compression W^T A W only measures applies.  Every rate but
poincare_rate's grid spectra comes from measures (exact Sobolev rates of
affine fields at p=2 among them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CertificateRefusedError,
    DegenerateArgumentError,
    DimensionError,
    DivergenceError,
    StepSizeError,
    UnsupportedNormError,
)
from .flows import Trajectory, integrate
from .measures import (
    BLOWUP,
    EIGEN,
    Ball,
    DomainSampler,
    Points,
    RateEstimate,
    VectorField,
    _fd,
    _operator_rates,
    _zero_range_residual,
    differential_rate,
    integral_rate,
    operator_rate,
    overshoot_fit,
)
from .spaces import NormSpec, _seminorm, as_count, norm

_BCS = ("dirichlet", "neumann", "periodic")


# ------------------------------------------------------------------ grids


def _spacing(n, bc, length):
    if bc == "dirichlet":
        return length / (n + 1)
    if bc == "periodic":
        return length / n
    return length / (n - 1)  # neumann, vertex-centered


@dataclass(frozen=True)
class Grid1D:
    """n points (an integer, at least 3) on [0, length] under boundary condition bc."""

    n: int
    bc: str = "dirichlet"
    length: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "grid size", DimensionError))
        if self.n < 3:
            raise DimensionError("grid needs at least 3 interior points")
        if self.bc not in _BCS:
            raise DegenerateArgumentError(f"unknown boundary condition '{self.bc}'")
        if self.length <= 0:
            raise DegenerateArgumentError("domain length must be positive")

    @property
    def axes(self):
        return (self,)

    @property
    def h(self):
        return _spacing(self.n, self.bc, self.length)

    @property
    def points(self):
        if self.bc == "dirichlet":
            return self.h * np.arange(1, self.n + 1)
        return self.h * np.arange(self.n)

    @property
    def size(self):
        return self.n

    @property
    def ndim(self):
        return 1


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid of two Grid1D axes, kept in `axes` (not a field), which
    check each size, the bc and each length; a single size n means (n, n)."""

    n: tuple
    bc: str = "dirichlet"
    lengths: tuple = (1.0, 1.0)

    def __post_init__(self):
        n = (self.n, self.n) if np.ndim(self.n) == 0 else tuple(self.n)
        lengths = tuple(self.lengths)
        if len(n) != 2 or len(lengths) != 2:
            raise DimensionError(f"a 2-d grid needs two sizes and two lengths, got {n} and {lengths}")
        axes = tuple(Grid1D(k, self.bc, ell) for k, ell in zip(n, lengths))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "n", tuple(ax.n for ax in axes))
        object.__setattr__(self, "lengths", tuple(ax.length for ax in axes))

    @property
    def h(self):
        return min(ax.h for ax in self.axes)

    @property
    def size(self):
        return self.n[0] * self.n[1]

    @property
    def ndim(self):
        return 2


# -------------------------------------------------------------- operators


def _first_difference(grid: Grid1D):
    """bc-consistent forward difference; the Laplacian is -D^T D.

    dirichlet: (n+1) x n with zero boundary values folded in;
    periodic: n x n circulant; neumann: (n-1) x n interior differences
    (the symmetrized mirror-ghost realization).
    """
    n, h = grid.n, grid.h
    if grid.bc == "periodic":
        return (np.roll(np.eye(n), -1, axis=1) - np.eye(n)) / h
    if grid.bc == "dirichlet":
        return (np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)) / h
    return np.diff(np.eye(n), axis=0) / h


def _central_difference(grid: Grid1D):
    """Periodic central difference (u_{i+1} - u_{i-1}) / (2h), skew."""
    D = _first_difference(grid)
    return (D - D.T) / 2.0


def difference_operator(grid, order: int = 1):
    """Order-th difference operator consistent with the grid's bc.

    Periodic grids compose the circulant first difference; bounded grids
    take interior forward differences of the bc-aware first one.
    2-d grids support order 1 only (stacked axis gradients).
    """
    if order < 1 or order > 4:
        raise DegenerateArgumentError("difference order must be in 1..4")
    if isinstance(grid, Grid2D):
        if order != 1:
            raise UnsupportedNormError("2-d stacks support first differences only")
        gx, gy = grid.axes
        Dx = _first_difference(gx)
        Dy = _first_difference(gy)
        return np.vstack(
            [np.kron(Dx, np.eye(gy.n)), np.kron(np.eye(gx.n), Dy)]
        )
    D = _first_difference(grid)
    if grid.bc == "periodic":
        return np.linalg.matrix_power(D, order)
    for _ in range(order - 1):
        D = np.diff(D, axis=0) / grid.h
    return D


def build_laplacian(grid):
    """Second-difference Laplacian; symmetric for every bc by the
    -D^T D construction (summation by parts is exact)."""
    if isinstance(grid, Grid2D):
        gx, gy = grid.axes
        Lx = build_laplacian(gx)
        Ly = build_laplacian(gy)
        # kron(Lx, I) + kron(I, Ly) with one N x N array: Ly is added into
        # the diagonal blocks in place, through a 4-d view
        L = np.kron(Lx, np.eye(gy.n))
        idx = np.arange(gx.n)
        L.reshape(gx.n, gy.n, gx.n, gy.n)[idx, :, idx, :] += Ly
        return L
    D = _first_difference(grid)
    return -(D.T @ D)


def _laplacian_apply(grid):
    """Map an (m, N) stack of grid states to the Laplacian of each row.

    On a Grid2D the Laplacian kron(Lx, I) + kron(I, Ly) is applied as the
    Kronecker sum Lx V + V Ly^T of its axis operators, with V a row
    reshaped to (nx, ny), so memory is O(nx^2 + ny^2), not O(N^2).
    """
    if isinstance(grid, Grid2D):
        Lx, Ly = (build_laplacian(ax) for ax in grid.axes)
        shape = (-1,) + grid.n

        def apply(U):
            V = U.reshape(shape)
            return (Lx @ V + V @ Ly.T).reshape(U.shape)

        return apply
    L = build_laplacian(grid)
    return lambda U: U @ L.T


@dataclass(frozen=True)
class SobolevSpec:
    """Stacked-difference norm of order k: ||u||^p = sum_j ||D^j u||_p^p,
    j = 0..k."""

    k: int
    p: float = 2.0

    def __post_init__(self):
        if not (0 <= self.k <= 4):
            raise DegenerateArgumentError("stacking order k must be in 0..4")

    def norm_spec(self, grid) -> NormSpec:
        return NormSpec(p=self.p, stack=tuple(difference_operator(grid, j) for j in range(1, self.k + 1)))


# ------------------------------------------------------- mass-zero tools


def mass_zero_basis(n: int):
    """Orthonormal basis of the mean-zero subspace (columns): the Q
    factor of the n - 1 neighbour differences, which span it."""
    return np.linalg.qr(np.diff(np.eye(n), axis=0).T)[0]


def demean(u):
    """u minus its mean; a stack of states is demeaned row by row."""
    u = np.asarray(u, dtype=float)
    return u - u.mean(axis=-1, keepdims=True)


# ---------------------------------------------------------- spectral gap


def poincare_rate(grid) -> RateEstimate:
    """l2 rate of the (projected) Laplacian: the negated spectral gap.

    Closed forms of the Kronecker-summed axis spectra.  dirichlet: the
    top eigenvalue, sum over axes of -(4/h^2) sin^2(pi / (2(n+1))) (tends
    to -pi^2 per unit axis); periodic: the top eigenvalue off the
    constant mode, max over axes of -(4/h^2) sin^2(pi / n) (tends to
    -4 pi^2); neumann: the constant mode stays, so the rate degenerates
    to 0 (flagged, not an error).
    """
    if grid.bc == "dirichlet":
        val = sum(-(4.0 / g.h**2) * math.sin(math.pi / (2 * (g.n + 1))) ** 2 for g in grid.axes)
        return RateEstimate(val, EIGEN)
    if grid.bc == "periodic":
        val = max(-(4.0 / g.h**2) * math.sin(math.pi / g.n) ** 2 for g in grid.axes)
        return RateEstimate(val, EIGEN, note="mass-zero projection applied")
    return RateEstimate(0.0, EIGEN, note="degenerate: constant mode is invariant")


def total_mass(grid, u):
    """Discrete integral h * sum(u); rows of a trajectory give a series."""
    u = np.asarray(u, dtype=float)
    return math.prod(ax.h for ax in grid.axes) * u.sum(axis=-1)


# ------------------------------------------------------------- simulation


def rd_simulate(alphas, reaction, grid, u0, t_span, h_t=None) -> Trajectory:
    """Method-of-lines reaction-diffusion integration (RK4 in time).

    State stacks the components: u = (u_1, ..., u_m), du_i/dt =
    alpha_i Lap u_i + reaction_i(t, U).  reaction takes (t, U) with U of
    shape (m, N) and returns the same shape; None means pure diffusion.
    The Laplacian is applied as the Kronecker sum of its axis operators,
    never built as an N x N matrix: memory O(nx^2 + ny^2) on a Grid2D.
    The explicit stepper enforces h_t <= h^2 / (2 d max(alpha)); h_t
    defaults to 0.9 of that limit.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if np.any(alphas <= 0):
        raise DegenerateArgumentError("diffusivities must be positive")
    m = alphas.size
    N = grid.size
    u0 = np.asarray(u0, dtype=float)
    if u0.shape == (N,) and m == 1:
        u0 = u0[None, :]
    if u0.shape != (m, N):
        raise DimensionError(f"initial state has shape {u0.shape}, expected {(m, N)}")
    limit = grid.h**2 / (2.0 * grid.ndim * alphas.max())
    if h_t is None:
        h_t = 0.9 * limit
    elif h_t > limit:
        raise StepSizeError(
            f"explicit step {h_t:.3e} exceeds the diffusion stability limit",
            suggested=limit,
        )
    lap = _laplacian_apply(grid)

    def field(t, w):
        U = w.reshape(m, N)
        dU = alphas[:, None] * lap(U)
        if reaction is not None:
            dU = dU + np.asarray(reaction(t, U), dtype=float)
        return dU.ravel()

    return integrate(VectorField(field, m * N, name="reaction-diffusion"), u0.ravel(), t_span, h_t)


# ---------------------------------------------------------------- patterns


@dataclass(frozen=True)
class SuppressionReport:
    invariance_residual: float
    reaction_rate: float
    diffusion_rate: float
    condition_implemented: bool
    condition_unscaled: bool
    predicted_bound: float
    simulated_rate: float
    mode1_growth: float
    passed: bool


@dataclass(frozen=True)
class ExcitationReport:
    stationarity_residuals: tuple
    sum_mode_rate: float
    pattern_mode_rate: float
    simulated_sum_ratio: float
    simulated_pattern_ratio: float
    passed: bool


def _suppression_report(alpha, f, grid, sampler, times, t_span, h_t, tol):
    N = grid.size
    V = mass_zero_basis(N)
    mass_zero = _seminorm(NormSpec(), V.T, V)
    field = VectorField(f, N)
    X = sampler.points()
    # invariance of the constant subspace under the reaction
    C = np.repeat(X.mean(axis=1, keepdims=True), N, axis=1)
    inv = max(float(np.linalg.norm(r)) for t in times for r in demean(field(t, C)))
    m_f = differential_rate(field, sampler, mass_zero, times, ascent_starts=0).value
    m_lap = operator_rate(build_laplacian(grid), mass_zero).value
    cond_impl = m_f < alpha * abs(m_lap)
    cond_unscaled = m_f < m_lap  # no alpha scaling; dimension-inconsistent, logged only
    predicted = alpha * m_lap + m_f

    x = grid.points
    u0 = 0.5 + 0.3 * np.sin(2.0 * np.pi * x / grid.length)
    tr = rd_simulate(
        (alpha,), lambda t, U: np.asarray(f(t, U[0]))[None, :], grid, u0, (0.0, t_span), h_t
    )
    dist = np.array([np.linalg.norm(demean(s)) for s in tr.states])
    mode = np.sin(2.0 * np.pi * x / grid.length)
    mode /= np.linalg.norm(mode)
    amp0 = abs(float(mode @ demean(tr.states[0])))
    amp1 = abs(float(mode @ demean(tr.states[-1])))
    growth = amp1 / amp0 if amp0 > 0 else math.inf
    if np.all(dist > 1e-280):
        sim_rate, _ = overshoot_fit(tr.times, dist)
    else:
        sim_rate = -math.inf
    passed = bool(cond_impl and inv <= tol and sim_rate <= predicted + 1e-3)
    return SuppressionReport(
        invariance_residual=inv,
        reaction_rate=m_f,
        diffusion_rate=m_lap,
        condition_implemented=cond_impl,
        condition_unscaled=cond_unscaled,
        predicted_bound=predicted,
        simulated_rate=float(sim_rate),
        mode1_growth=float(growth),
        passed=passed,
    )


def _excitation_report(alphas, f, grid, witness, times, t_span, h_t, tol):
    a1, a2 = float(alphas[0]), float(alphas[1])
    N = grid.size
    L = build_laplacian(grid)
    ustar = np.asarray(witness, dtype=float)
    if ustar.shape != (N,) or np.linalg.norm(ustar) == 0.0:
        raise DegenerateArgumentError("excitation mode needs a nonzero grid witness")
    # stationarity of the anti-synchronized pair (u*, -u*) at every time:
    # each component's reaction must cancel its own diffusion there
    Lu = L @ ustar
    r1 = max(float(np.linalg.norm(np.asarray(f(t, ustar, -ustar)) + a1 * Lu)) for t in times)
    r2 = max(float(np.linalg.norm(np.asarray(f(t, -ustar, ustar)) - a2 * Lu)) for t in times)

    def stacked(t, w):
        u1, u2 = w[:N], w[N:]
        return np.concatenate(
            [a1 * (L @ u1) + np.asarray(f(t, u1, u2)), a2 * (L @ u2) + np.asarray(f(t, u2, u1))]
        )

    F = VectorField(stacked, 2 * N)
    anti = np.concatenate([ustar, -ustar])
    Js = np.array([F.jacobian(t, anti) for t in times])
    Vz = mass_zero_basis(N)
    # the synchronized (sum) and the anti-synchronized (pattern) modes
    Ws = [np.vstack([Vz, Vz]) / math.sqrt(2.0), np.vstack([Vz, -Vz]) / math.sqrt(2.0)]
    sum_rate, diff_rate = (max(est.value for est in _operator_rates(Js, _seminorm(NormSpec(), W.T, W))) for W in Ws)

    x = grid.points
    bump = demean(0.2 * np.cos(4.0 * np.pi * x / grid.length) + 0.1 * np.sin(2.0 * np.pi * x / grid.length))
    u0 = np.vstack([ustar + bump, -ustar + bump])
    tr = rd_simulate(
        (a1, a2),
        lambda t, U: np.vstack([f(t, U[0], U[1]), f(t, U[1], U[0])]),
        grid,
        u0,
        (0.0, t_span),
        h_t,
    )
    s0 = demean(tr.states[0][:N] + tr.states[0][N:])
    sT = demean(tr.states[-1][:N] + tr.states[-1][N:])
    d0 = tr.states[0][:N] - tr.states[0][N:]
    dT = tr.states[-1][:N] - tr.states[-1][N:]
    sum_ratio = float(np.linalg.norm(sT) / np.linalg.norm(s0)) if np.linalg.norm(s0) > 0 else 0.0
    pat_ratio = float(np.linalg.norm(dT) / np.linalg.norm(d0)) if np.linalg.norm(d0) > 0 else 0.0
    passed = bool(
        r1 <= tol
        and r2 <= tol
        and sum_rate < 0.0
        and sum_ratio < 0.5
        and pat_ratio > 0.25
    )
    return ExcitationReport(
        stationarity_residuals=(r1, r2),
        sum_mode_rate=sum_rate,
        pattern_mode_rate=diff_rate,
        simulated_sum_ratio=sum_ratio,
        simulated_pattern_ratio=pat_ratio,
        passed=passed,
    )


def pattern_report(
    alphas,
    f,
    grid,
    sampler: DomainSampler = None,
    mode: str = "suppression",
    witness=None,
    times=(0.0,),
    t_span: float = 0.3,
    h_t=None,
    tol: float = 1e-8,
):
    """Pattern analysis on a diffusion-coupled system.

    suppression: scalar reaction f(t, u); checks that the reaction keeps
    grid constants invariant, evaluates the sufficient rate condition
    M_Q(f) < alpha |M_Q(Lap)| (the unscaled comparison against M_Q(Lap)
    itself is evaluated and logged but not enforced), and verifies by
    simulation that the distance to constants decays no slower than the
    predicted bound.

    excitation: two components with cross reaction f(t, own, other);
    checks the stationarity residuals of the anti-synchronized witness
    pair and the contraction of the synchronized (sum) mode at every
    time in times, and by simulation that the sum decays while the
    pattern persists.

    Both modes run on a Grid1D only.
    """
    if not isinstance(grid, Grid1D):
        raise DimensionError(f"pattern reports need a Grid1D, got {type(grid).__name__}")
    if mode == "suppression":
        alpha = float(np.atleast_1d(alphas)[0])
        if sampler is None:
            raise DegenerateArgumentError("suppression mode needs a state sampler")
        return _suppression_report(alpha, f, grid, sampler, times, t_span, h_t, tol)
    if mode == "excitation":
        pair = np.atleast_1d(np.asarray(alphas, dtype=float))
        if pair.size == 1:
            pair = np.repeat(pair, 2)
        return _excitation_report(pair, f, grid, witness, times, t_span, h_t, tol)
    raise DegenerateArgumentError(f"unknown pattern mode '{mode}'")


# ---------------------------------------------------------- Sobolev rates


def sobolev_rate(
    F: VectorField,
    grid,
    sob: SobolevSpec,
    sampler: DomainSampler = None,
    times=(0.0,),
    mass_zero: bool = False,
) -> RateEstimate:
    """Rate of F in the stacked difference norm of order k: integral_rate
    in that norm, so operator_rate of an affine F's matrix (exact at p=2).

    mass_zero rates F in the seminorm ||S V C u|| (spaces._seminorm) of
    the mean-zero subspace range(V), V = mass_zero_basis, with S the
    stack [I; D_1; ...; D_k] and C = (S V)^+ S = R_s^-1 Q_s^T S from
    S V = Q_s R_s (V^T for k = 0): differential_rate there, which
    sups over states anywhere in the sampler's region the log norm of
    C Df(u) V, over directions in the mean-zero subspace.  It is exact
    at p=2 for an affine F (a sampler is then optional), and exact over
    directions at p=2 for any F with 1^T Df = 0.
    """
    spec = sob.norm_spec(grid)
    if not mass_zero:
        return integral_rate(F, sampler, spec, times)
    V = mass_zero_basis(F.dim)
    S = np.eye(F.dim) if spec.transform is None else spec.transform
    Q_s, R_s = np.linalg.qr(S @ V)
    return differential_rate(F, sampler, _seminorm(spec, np.linalg.solve(R_s, Q_s.T @ S), V), times)


# ------------------------------------------------------ conservation laws


@dataclass(frozen=True)
class ConservationReport:
    rate: RateEstimate
    skewness_residual: float


def _conservation_law(flux, grid: Grid1D) -> VectorField:
    """u' = -d/dx f(u) by periodic central differences, with the Jacobian
    A(u) = -Dc diag(f'(u)) whose f' is taken by _fd with step 1e-6, state
    by state, since a flux may take single states only."""
    Dc = _central_difference(grid)

    def linearized(t, u):
        return -Dc @ np.diag(_fd(lambda v: np.asarray(flux(v)), u, 1.0, 1e-6))

    return VectorField(lambda t, u: -(Dc @ np.asarray(flux(u))), grid.n, jac=linearized)


def conservation_rate(
    flux,
    grid: Grid1D,
    sampler: DomainSampler = None,
    flux_prime_operator=None,
) -> ConservationReport:
    """Rate of the linearized conservation law A(u)v = -d/dx (f'(u) v)
    on the mass-zero subspace (periodic grid, central differences).

    flux is the scalar flux f: the Jacobian of _conservation_law is rated
    by differential_rate over the demeaned sampled states, no ascent;
    alternatively flux_prime_operator gives f' directly as a (possibly
    nonlocal) matrix.  The skewness residual is the largest zero-range
    residual of the compressed linearization M = V^T A V, ||sym M||_2,
    zero exactly when M is skew (linear advection, odd difference
    operators).
    """
    if grid.bc != "periodic":
        raise DegenerateArgumentError("conservation analysis assumes a periodic grid")
    V = mass_zero_basis(grid.n)
    mass_zero = _seminorm(NormSpec(), V.T, V)

    if flux_prime_operator is not None:
        A = -_central_difference(grid) @ np.asarray(flux_prime_operator, dtype=float)
        return ConservationReport(replace(operator_rate(A, mass_zero), samples=1), _zero_range_residual(A, mass_zero))
    if sampler is None:
        raise DegenerateArgumentError("state-dependent flux needs a sampler")

    X = demean(sampler.points())
    law = _conservation_law(flux, grid)
    est = differential_rate(law, DomainSampler(Points(X), len(X), sampler.seed), mass_zero)
    skew = _zero_range_residual([law.jacobian(0.0, u) for u in X], mass_zero)
    return ConservationReport(replace(est, note="eigen-exact per sampled state"), skew)


# ----------------------------------------------------------- fixed points


@dataclass(frozen=True)
class FixedPointReport:
    rate_estimate: RateEstimate
    times: np.ndarray
    residuals: np.ndarray
    fitted_rate: float
    converged: bool
    forced: bool


# Newton iterations per implicit step, and the update size (relative to
# the iterate, max norm) below which the step counts as solved.
_NEWTON_ITERS = 8
_NEWTON_RTOL = 1e-10
# Halvings below the first step after which a rejected step ends the solve.
_MAX_HALVINGS = 20


def _implicit_step(F: VectorField, u, f, h):
    """One backward-Euler step from u (with f = F(u)): solve
    v - u - h F(v) = 0 by Newton on the matrix I - h DF(v).

    An affine field needs one exact solve.  Returns (v, F(v)), or None
    when the Newton matrix is singular or an iterate is non-finite or
    past the blow-up sentinel.
    """
    eye = np.eye(u.shape[0])
    v = u
    for _ in range(_NEWTON_ITERS):
        try:
            J = F.matrix if F.matrix is not None else F.jacobian(0.0, v)
            dv = np.linalg.solve(eye - h * J, v - u - h * f)
        except np.linalg.LinAlgError:
            return None
        v = v - dv
        if not np.max(np.abs(v)) <= BLOWUP:  # also rejects NaN and inf
            return None
        f = F(0.0, v)
        if F.matrix is not None or np.max(np.abs(dv)) <= _NEWTON_RTOL * (1.0 + np.max(np.abs(v))):
            break
    return v, f


def fixed_point_solve(
    F: VectorField,
    grid,
    spec: NormSpec = NormSpec(),
    tol: float = 1e-8,
    max_t: float = 50.0,
    u0=None,
    h_t=None,
    sampler: DomainSampler = None,
    force: bool = False,
):
    """Solve F(u) = 0 by implicit pseudo-time stepping of du/dt = F(u).

    The contraction rate c of F in spec's norm is measured first, by
    differential_rate on the sampler (default: 12 points of the unit
    ball, seed 0), so operator_rate of an affine F's matrix; a
    nonnegative rate refuses the certificate (force=True steps anyway).
    Each pseudo-time step is backward Euler, v = u + h F(v), solved by
    Newton.  If c < 0 bounds the rate from above (an affine F), every
    step shrinks the residual ||F|| by 1/(1 - h c) whatever h is; for any
    other F, c is a sampled lower bound and the halving rule enforces the
    decrease.  The step starts at h_t (default 0.2 h^2 for grid spacing
    h), doubles after each accepted step (the iteration turns into
    Newton's method on F = 0), and is halved and retried when a step gives
    a larger residual or leaves the finite range.  Forced solves with
    c >= 0 take fixed steps of h_t and raise DivergenceError once the
    state passes the blow-up sentinel.
    Pseudo-time stops at max_t.

    Returns (u*, report).  The report holds the pseudo-times and
    residuals (in spec's norm) of the accepted steps, and as fitted_rate
    the rate the last step implies, (1 - r_prev / r_last) / h_last with
    r_last = ||v - u|| / h_last (equal to ||F(v)|| for a solved step):
    the inverse of the backward-Euler amplification 1/(1 - h lambda),
    exact for the slowest mode of a linear field.
    """
    N = F.dim
    if sampler is None:
        sampler = DomainSampler(Ball(np.zeros(N), 1.0), count=12, seed=0)
    est = differential_rate(F, sampler, spec, times=(0.0,), ascent_starts=1)
    if F.matrix is None:
        est = replace(est, note="sampled lower bound; contraction not globally certified")
    if est.value >= 0.0 and not force:
        raise CertificateRefusedError(
            f"measured rate {est.value:.3e} is not negative; pass force=True to integrate anyway"
        )
    contracting = est.value < 0.0
    if u0 is None:
        u0 = np.zeros(N)
    u = np.asarray(u0, dtype=float).copy()
    if h_t is None:
        h_t = 0.2 * grid.h**2
    if not h_t > 0:
        raise DegenerateArgumentError("pseudo-time step must be positive")
    floor = h_t / 2.0**_MAX_HALVINGS
    f = F(0.0, u)
    t, h = 0.0, h_t
    ts, res = [0.0], [norm(f, spec)]
    fitted = -math.inf
    while res[-1] > tol and t < max_t * (1.0 - 1e-12):
        step = min(h, max_t - t)
        trial = _implicit_step(F, u, f, step)
        r = math.inf if trial is None else norm(trial[1], spec)
        if contracting and r > res[-1]:
            if step <= floor:
                break
            h = step / 2.0
            continue
        if trial is None:
            raise DivergenceError(f"state blew up at t = {t + step:.6g}", t=t + step)
        # ||v - u|| / h is ||F(v)|| for a solved step, without the
        # cancellation that evaluating F near its zero suffers
        moved = norm(trial[0] - u, spec) / step
        fitted = (1.0 - res[-1] / moved) / step if moved > 0.0 else -math.inf
        u, f = trial
        t += step
        ts.append(t)
        res.append(r)
        if contracting:
            h = 2.0 * step
    report = FixedPointReport(
        rate_estimate=est,
        times=np.array(ts),
        residuals=np.array(res),
        fitted_rate=float(fitted),
        converged=bool(res[-1] <= tol),
        forced=bool(force),
    )
    return u, report
