"""Combination calculus for interconnected systems.

Given contraction rates of subsystems, these routines bound the rate of
the assembled system: nonnegative additive mixes, skew-adjoint feedback
pairs, block-diagonal products in l^p product norms, feedforward
cascades, and continuum (quadrature-weighted) families.  Each bound is
paired with a direct computation on the combined system so conservatism
is visible; the feedback and product certificates assemble every sampled
Jacobian once and rate slices of that one stack in one call each; every
matrix rate, zero-range residuals included, comes from measures.  The
zero-diagonal unitary used by the divergence corollary exists for every
trace-zero matrix; one sweep through a Schur basis per deflation step
builds it, with no eigenvalue search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArgumentError, DimensionError
from .flows import pair_distances
from .measures import (
    DomainSampler,
    RateEstimate,
    VectorField,
    _operator_rates,
    _zero_range_residual,
    integral_rate,
    overshoot_fit,
)
from .spaces import NormSpec, as_count, norm_rows


# ----------------------------------------------------------------- types


def _as_block_callback(entry):
    if entry is None:
        return None
    if callable(entry):
        return entry
    M = np.asarray(entry, dtype=float)
    return lambda t, u, M=M: M


class BlockSystem:
    """An n-of-blocks square grid of jacobian-block callbacks J_ij(t, u).

    Entries may be callables, constant matrices, or None (zero block).
    The state u handed to callbacks is the full stacked vector.  Block
    norms and the product norm share the exponent product_p, so the
    product norm coincides with the plain l^p norm of the stacked vector.
    """

    def __init__(self, blocks, dims, product_p: float = 2.0):
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise DimensionError("block dimensions must be positive")
        n = len(dims)
        if len(blocks) != n or any(len(row) != n for row in blocks):
            raise DimensionError(f"blocks must form a {n}x{n} grid")
        if not (1.0 <= product_p or product_p == math.inf):
            raise DegenerateArgumentError(f"product exponent {product_p} outside [1, inf]")
        self.blocks = tuple(tuple(_as_block_callback(e) for e in row) for row in blocks)
        self.dims = dims
        self.product_p = float(product_p)

    @property
    def n_blocks(self):
        return len(self.dims)

    @property
    def total_dim(self):
        return int(sum(self.dims))

    def block(self, i, j, t, u):
        cb = self.blocks[i][j]
        if cb is None:
            return np.zeros((self.dims[i], self.dims[j]))
        M = np.atleast_2d(np.asarray(cb(t, u), dtype=float))
        if M.shape != (self.dims[i], self.dims[j]):
            raise DimensionError(
                f"block ({i},{j}) returned shape {M.shape}, expected {(self.dims[i], self.dims[j])}"
            )
        return M

    def assemble(self, t, u):
        n = self.n_blocks
        return np.block([[self.block(i, j, t, u) for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class AdditiveReport:
    bound: float
    direct: RateEstimate
    component_rates: tuple


@dataclass(frozen=True)
class FeedbackReport:
    skewness_residual: float
    block_rates: tuple
    composite_rate: float
    zero_range_residual: float
    equivalence_gap: float


@dataclass(frozen=True)
class ProductReport:
    per_block: tuple
    product_rate: float
    simulated_rate: float
    dominance_ok: bool


@dataclass(frozen=True)
class ContinuumReport:
    pointwise_rate: float
    weighted_mass: float
    bound: float
    direct: RateEstimate
    nodes: int


# -------------------------------------------------------------- additive


def _as_time_callback(a):
    if callable(a):
        return a
    val = float(a)
    return lambda t: val


def additive_rate(
    f1: VectorField,
    f2: VectorField,
    alpha1,
    alpha2,
    spec: NormSpec = NormSpec(),
    sampler: DomainSampler = None,
    times=(0.0,),
) -> AdditiveReport:
    """Subadditive rate bound for a nonnegative mix a1 f1 + a2 f2.

    Bound: sup_t a1(t) M1 + a2(t) M2 with M_i the component rates over
    the sampled region.  A direct sampled rate of the combined field is
    attached; it can only improve on the bound.
    """
    if f1.dim != f2.dim:
        raise DimensionError("component fields have different dimensions")
    a1, a2 = _as_time_callback(alpha1), _as_time_callback(alpha2)
    vals = [(float(a1(t)), float(a2(t))) for t in times]
    if any(v1 < 0 or v2 < 0 for v1, v2 in vals):
        raise DegenerateArgumentError("mixing weights must be nonnegative")
    if min(v1 + v2 for v1, v2 in vals) <= 0:
        raise DegenerateArgumentError("mixing weights must not vanish simultaneously")
    m1 = integral_rate(f1, sampler, spec, times).value
    m2 = integral_rate(f2, sampler, spec, times).value
    bound = max(v1 * m1 + v2 * m2 for v1, v2 in vals)

    def g(t, u):
        return a1(t) * f1(t, u) + a2(t) * f2(t, u)

    direct = integral_rate(VectorField(g, f1.dim, name="additive-mix"), sampler, spec, times)
    return AdditiveReport(bound=float(bound), direct=direct, component_rates=(m1, m2))


# -------------------------------------------------------------- feedback


def _sampled_jacobians(sys: BlockSystem, sampler: DomainSampler, times):
    """The assembled Jacobian at every time and sampled state (the zero state
    without a sampler) as one stack, and the index slice of every block."""
    states = [np.zeros(sys.total_dim)] if sampler is None else sampler.points()
    if len(states[0]) != sys.total_dim:
        raise DimensionError("sampler dimension does not match the block system")
    Js = np.array([sys.assemble(t, u) for t in times for u in states])
    ends = np.cumsum(sys.dims)
    return Js, [slice(end - d, end) for d, end in zip(sys.dims, ends)]


def _block_rates(Js, blocks, spec: NormSpec):
    """Largest rate of every diagonal block over the stack."""
    return [max(est.value for est in _operator_rates(Js[:, b, b], spec)) for b in blocks]


def feedback_certificate(
    sys: BlockSystem,
    spec: NormSpec = NormSpec(),
    sampler: DomainSampler = None,
    times=(0.0,),
) -> FeedbackReport:
    """Rate report for a two-block feedback interconnection.

    Reports the skew-adjointness residual sup ||J12 + J21^T||_2 of the
    coupling, per-block rates, the composite rate of the assembled
    jacobian, and the zero-range residual max(mu(J_off), mu(-J_off)) of
    the off-diagonal part (measures._zero_range_residual).
    When the coupling is skew-adjoint and the norm is plain l2, the
    composite rate collapses to the larger block rate (equivalence_gap
    reports the observed difference).
    """
    if sys.n_blocks != 2:
        raise DimensionError("feedback certificate needs exactly two blocks")
    Js, (b0, b1) = _sampled_jacobians(sys, sampler, times)
    skew = np.linalg.norm(Js[:, b0, b1] + Js[:, b1, b0].transpose(0, 2, 1), 2, axis=(1, 2))
    rates = _block_rates(Js, (b0, b1), spec)
    composite = max(est.value for est in _operator_rates(Js, spec))
    off = Js.copy()
    off[:, b0, b0] = off[:, b1, b1] = 0.0
    return FeedbackReport(
        skewness_residual=float(skew.max(initial=0.0)),
        block_rates=tuple(rates),
        composite_rate=float(composite),
        zero_range_residual=_zero_range_residual(off, spec),
        equivalence_gap=float(composite - max(rates)),
    )


# --------------------------------------------------------------- product


def product_lp_rate(
    sys: BlockSystem,
    sampler: DomainSampler = None,
    times=(0.0,),
    horizon: float = 4.0,
    step: float = 1e-2,
    n_perturbations: int = 3,
    seed: int = 0,
) -> ProductReport:
    """Product-norm rate of a block system from its diagonal blocks.

    per_block[i] = sup over samples of the rate of J_ii in l^product_p;
    the diagonal-operator rate in the product norm is their maximum.
    A perturbation of the assembled system (frozen at the first sampled
    state) is integrated and its fitted decay rate must not exceed the
    product rate; off-diagonal coupling must be zero-range for that to
    hold, which is exactly what the dominance flag probes.
    """
    spec = NormSpec(p=sys.product_p)
    Js, blocks = _sampled_jacobians(sys, sampler, times)
    per = _block_rates(Js, blocks, spec)
    product = max(per)
    lin = VectorField.linear(Js[0])
    fitted = -math.inf
    if n_perturbations > 0:
        # each perturbation is paired with the rest state 0, which the
        # linear flow keeps at exactly 0
        D0 = np.random.default_rng(seed).normal(size=(n_perturbations, sys.total_dim))
        D0 /= norm_rows(D0, spec)[:, None]
        rest = np.zeros(sys.total_dim)
        ts, dist = pair_distances(lin, [(d0, rest) for d0 in D0], (0.0, horizon), step, spec)
        fitted = max(overshoot_fit(ts, d)[0] for d in dist.T)
    return ProductReport(
        per_block=tuple(per),
        product_rate=float(product),
        simulated_rate=float(fitted),
        dominance_ok=bool(fitted <= product + 1e-6),
    )


# ------------------------------------------------------------ feedforward


def feedforward_bound(lam1, lam2, gain, d1_0, d2_0, t, formula: str = "convolution") -> float:
    """Perturbation bound for a cascade where block 1 drives block 2.

    formula="convolution" is the standard variation-of-constants bound
    d2_0 e^{lam2 t} + gain d1_0 (e^{lam1 t} - e^{lam2 t})/(lam1 - lam2),
    with the t e^{lam1 t} limit form at lam1 = lam2.  formula="rate-sum"
    evaluates d2_0 e^{lam2 t} + gain d1_0 / (lam1 + lam2) e^{lam1 t},
    an alternative closed form whose denominator is the sum of the two
    rates; for stable rates it can go negative, so it is reported for
    comparison only and never used as a dominance-tested bound.
    """
    if not (lam1 < 0 and lam2 < 0):
        raise DegenerateArgumentError("cascade rates must be negative")
    if gain < 0:
        raise DegenerateArgumentError("gain must be nonnegative")
    base = d2_0 * math.exp(lam2 * t)
    if formula == "rate-sum":
        return base + gain * d1_0 / (lam1 + lam2) * math.exp(lam1 * t)
    if formula != "convolution":
        raise DegenerateArgumentError(f"unknown formula '{formula}'")
    if abs(lam1 - lam2) < 1e-12:
        return base + gain * d1_0 * t * math.exp(lam1 * t)
    return base + gain * d1_0 * (math.exp(lam1 * t) - math.exp(lam2 * t)) / (lam1 - lam2)


# -------------------------------------------------------------- continuum


def trapezoid_rule(n: int = 64, length: float = 1.0):
    """Composite trapezoid nodes/weights on [0, length]."""
    n = as_count(n, "quadrature node count")
    if n < 2:
        raise DegenerateArgumentError("need at least two quadrature nodes")
    nodes = np.linspace(0.0, length, n)
    h = length / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    return nodes, weights


def continuum_rate(
    f_family,
    phi,
    spec: NormSpec = NormSpec(),
    sampler: DomainSampler = None,
    nodes=None,
    weights=None,
    times=(0.0,),
) -> ContinuumReport:
    """Rate bound for a quadrature-weighted continuum of fields.

    f_family(t, x, u) is a field for every index x; phi >= 0 weights the
    indices.  Bound: (sum_i w_i phi(x_i)) * sup_i rate(f(.,x_i,.)).  The
    direct rate of the combined field sum_i w_i phi(x_i) f(t, x_i, u) is
    attached; subadditivity puts it at or below the bound.  nodes and
    weights are given together or not at all (the 64-node trapezoid rule
    on [0, 1]).  Without a sampler it is refused, as every sampled rate is.
    """
    if sampler is None:
        raise DegenerateArgumentError("sampled rate needs a DomainSampler")
    if (nodes is None) != (weights is None):
        raise DegenerateArgumentError("give quadrature nodes and weights together, or neither")
    if nodes is None:
        nodes, weights = trapezoid_rule()
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.shape != weights.shape or nodes.ndim != 1:
        raise DimensionError("nodes and weights must be matching 1-d arrays")
    phis = np.array([float(phi(x)) for x in nodes])
    if np.any(phis < 0):
        raise DegenerateArgumentError("continuum weight must be nonnegative at every node")
    mass = float(np.sum(weights * phis))
    if mass <= 0:
        raise DegenerateArgumentError("continuum weight has zero total mass")
    dim = sampler.dim

    pointwise = -math.inf
    for x in nodes:
        fx = VectorField(lambda t, u, x=x: np.asarray(f_family(t, x, u), dtype=float), dim)
        pointwise = max(pointwise, integral_rate(fx, sampler, spec, times, ascent_starts=2).value)

    coeff = weights * phis

    def g(t, u):
        acc = np.zeros(dim)
        for c, x in zip(coeff, nodes):
            if c != 0.0:
                acc += c * np.asarray(f_family(t, x, u), dtype=float)
        return acc

    direct = integral_rate(VectorField(g, dim, name="continuum-mix"), sampler, spec, times)
    return ContinuumReport(
        pointwise_rate=float(pointwise),
        weighted_mass=mass,
        bound=float(mass * pointwise),
        direct=direct,
        nodes=len(nodes),
    )


# ------------------------------------------------- zero-diagonal unitary


def _range_point(t00, t01, t11, target):
    """Unit (xi0, xi1) with xi* B xi = target for the upper-triangular
    B = [[t00, t01], [0, t11]], the target lying at most halfway along
    the segment from t00 to t11.

    The numerical range of B is an ellipse with foci t00 and t11, so it
    holds the segment.  With xi = (sqrt(1-s), sqrt(s) e^{i phi}) the
    quotient is (1-s) t00 + s t11 + sqrt(s(1-s)) t01 e^{i phi}; matching
    moduli gives a s^2 - b s + c = 0, whose smaller root lies in [0, 1/2]
    for such a target and is taken as 2c / (b + sqrt(disc)).  The
    discriminant is written as |t01|^2 (|t01|^2 + 4(Re z - c)) - 4(Im z)^2
    with z = conj(t11 - t00)(target - t00), so no digits cancel when the
    target lies on the segment; phi then matches the direction.
    """
    d, w = t11 - t00, target - t00
    z = np.conj(d) * w
    c, g = abs(w) ** 2, abs(t01) ** 2
    disc = max(g * (g + 4.0 * (z.real - c)) - 4.0 * z.imag**2, 0.0)
    den = 2.0 * z.real + g + math.sqrt(disc)
    s = min(2.0 * c / den, 1.0) if den > 0 else 0.0
    p = (w - s * d) * np.conj(t01)
    return math.sqrt(1.0 - s), math.sqrt(s) * (p / abs(p) if abs(p) > 0 else 1.0)


def _rayleigh_zero_vector(A):
    """Unit v with v* A v = tr A / n, so zero for a trace-free A.

    In a Schur basis A = Z T Z* every span(z_1..z_k) is invariant, so for
    a unit y in it the compression of A to span(y, z_{k+1}) is the
    triangular [[y*Ay, y*A z_{k+1}], [0, lambda_{k+1}]].  One step of
    _range_point in that plane moves the quotient from the mean of
    lambda_1..lambda_k to the mean of lambda_1..lambda_{k+1}.
    """
    from scipy.linalg import schur

    T, Z = schur(A, output="complex")
    means = np.cumsum(np.diag(T)) / np.arange(1, A.shape[0] + 1)
    y = np.zeros(A.shape[0], dtype=complex)
    y[0] = 1.0
    for k in range(1, A.shape[0]):
        xi0, xi1 = _range_point(np.vdot(y, T @ y), np.vdot(y, T[:, k]), T[k, k], means[k])
        y *= xi0
        y[k] = xi1
    v = Z @ y
    return v / np.linalg.norm(v)


def zero_diagonal_unitary(A, tol: float = 1e-8) -> np.ndarray:
    """Unitary U such that U* A U has (numerically) zero diagonal.

    Requires Tr A = 0 up to tol relative to ||A||.  A Schur sweep finds a
    unit v with v* A v = 0 (_rayleigh_zero_vector); a unitary whose first
    column is v moves it to the first coordinate, and the trace-free
    block that is left is deflated the same way.  Every trace-zero matrix
    has such a U.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"operator must be square, got {A.shape}")
    n = A.shape[0]
    nrm = np.linalg.norm(A, 2)
    if nrm == 0.0:
        return np.eye(n, dtype=complex)
    if abs(np.trace(A)) > tol * nrm:
        raise DegenerateArgumentError(
            f"trace {np.trace(A):.3e} is not zero relative to the operator norm"
        )
    if np.max(np.abs(np.diag(A))) <= tol * nrm:
        return np.eye(n, dtype=complex)
    U = np.eye(n, dtype=complex)
    B = A.copy()
    for k in range(n - 1):
        sub = B[k:, k:]
        v = _rayleigh_zero_vector(sub)
        U1 = np.linalg.qr(np.column_stack([v, np.eye(n - k)]))[0]
        E = np.eye(n, dtype=complex)
        E[k:, k:] = U1
        U = U @ E
        B = E.conj().T @ B @ E
    return U
