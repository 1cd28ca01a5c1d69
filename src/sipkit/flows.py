"""Trajectory integration and empirical contraction certificates.

A fixed-step classical Runge-Kutta integrator (deterministic and
reproducible by construction), co-integration of linearized
perturbations, and the certificate machinery that checks claimed decay
envelopes kappa * exp(lambda (t - s)) against simulated pair distances.
One stepper, _rk4, advances a single state or an (m, n) stack of states:
integrate is its single-state case, and pair_distances integrates every
start of a list of pairs as one stack.  It keeps only the pair distances,
taken with norm_rows over blocks of steps, so its memory grows with the
number of pairs times the number of steps, not times the dimension.
verify_contraction and couplings.product_lp_rate step through it.
An affine field u' = A u + b is stepped by RK4's step map
u -> R(hA) u + h P(hA) b, formed once per call, when the run is long
enough to pay for it (steps x rows >= dim); any other field, or a
shorter run, is stepped stage by stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArgumentError, DimensionError, DivergenceError
from .measures import BLOWUP, VectorField
from .spaces import NormSpec, norm_rows

__all__ = [
    "Trajectory",
    "CertificateResult",
    "integrate",
    "variational_flow",
    "distance_series",
    "pair_distances",
    "verify_contraction",
    "overshoot_fit",
]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced solution samples: states[k] at times[k]."""

    times: np.ndarray
    states: np.ndarray
    step: float

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise DegenerateArgumentError("trajectory needs 1-d times and 2-d states")
        if self.times.shape[0] != self.states.shape[0]:
            raise DegenerateArgumentError("times and states disagree in length")
        dt = np.diff(self.times)
        if dt.size and (np.max(dt) - np.min(dt)) > 1e-12 * max(1.0, abs(float(self.times[-1]))):
            raise DegenerateArgumentError("trajectory spacing is not uniform")

    @property
    def dim(self):
        return self.states.shape[1]

    def state(self, k):
        return self.states[k]


def _span(t_span, h):
    try:
        t0, t1 = float(t_span[0]), float(t_span[1])
    except TypeError:
        t0, t1 = 0.0, float(t_span)
    if not t1 > t0:
        raise DegenerateArgumentError(f"need t1 > t0, got ({t0}, {t1})")
    if not h > 0:
        raise DegenerateArgumentError("step must be positive")
    return t0, t1


# states per block that pair_distances reduces at once (512 KiB of floats)
_BLOCK_ENTRIES = 1 << 16


def _step_map(A, b, h):
    """RK4's step map of u' = A u + b: one step takes u to M u + c.

    M = R(hA) = I + hA P and c = h P b, with P = I + hA/2 + (hA)^2/6 +
    (hA)^3/24 by Horner.  Returns (M^T, c), c None without an offset.
    """
    hA = h * A
    eye = np.eye(len(A))
    P = eye + hA / 4.0
    P = eye + hA @ P / 3.0
    P = eye + hA @ P / 2.0
    return (eye + hA @ P).T, None if b is None else h * (P @ b)


def _rk4(f, U, t0, t1, h, reduce=None):
    """Classical RK4 from t0 to t1 of one state (n,) or a stack (m, n).

    The step is rescaled to divide the span exactly so the sample grid is
    uniform; DivergenceError is raised at the first step where any entry
    is non-finite or past the blow-up sentinel.  An affine field (one
    with ``matrix``) is stepped by _step_map when steps x rows >= dim:
    forming the map costs about 3 dim^3, the four stages about 4 rows
    dim^2 per step, so a shorter run keeps the stages.  Returns
    (times, values, effective step).  Without ``reduce``, values[k] is
    the state or stack at times[k].  With it, the states are buffered in
    blocks of about _BLOCK_ENTRIES numbers, each block S (k, *U.shape) is
    replaced by the new array reduce(S) (k, ...), and values is the
    concatenation of those, so no more than one block of states is held.
    """
    n = max(1, int(round((t1 - t0) / h)))
    h_eff = (t1 - t0) / n
    affine = f.matrix is not None and n * (1 if U.ndim == 1 else len(U)) >= f.dim
    if affine:
        MT, c = _step_map(f.matrix, f.offset, h_eff)
    size = n + 1 if reduce is None else max(1, min(n + 1, _BLOCK_ENTRIES // U.size))
    buf = np.empty((size,) + U.shape)
    buf[0] = U
    j, parts = 1, []
    for k in range(n):
        if j == size:
            parts.append(reduce(buf))
            j = 0
        t = t0 + k * h_eff
        if affine:
            U = U @ MT if c is None else U @ MT + c
        else:
            k1 = f(t, U)
            k2 = f(t + 0.5 * h_eff, U + 0.5 * h_eff * k1)
            k3 = f(t + 0.5 * h_eff, U + 0.5 * h_eff * k2)
            k4 = f(t + h_eff, U + h_eff * k3)
            U = U + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # the max carries a NaN through, so this also rejects NaN and inf
        if not np.abs(U).max() <= BLOWUP:
            raise DivergenceError(f"state blew up at t = {t + h_eff:.6g}", t=t + h_eff)
        buf[j] = U
        j += 1
    if reduce is None:
        values = buf
    else:
        parts.append(reduce(buf[:j]))
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return t0 + np.arange(n + 1) * h_eff, values, h_eff


def integrate(f: VectorField, u0, t_span, h: float) -> Trajectory:
    """Classical fixed-step RK4 of one initial state.

    The start must have shape (f.dim,), or DimensionError is raised.  The
    step is rescaled to divide the span exactly so the sample grid is
    uniform; integration aborts with DivergenceError once the largest
    entry of the state is non-finite or past the blow-up sentinel.  An
    affine field over at least dim steps is stepped by RK4's step map.
    """
    t0, t1 = _span(t_span, h)
    u = np.array(u0, dtype=float)
    if u.ndim != 1:
        raise DegenerateArgumentError("initial state must be a vector")
    if u.shape != (f.dim,):
        raise DimensionError(f"initial state of shape {u.shape} for a field of dimension {f.dim}")
    times, states, step = _rk4(f, u, t0, t1, h)
    return Trajectory(times=times, states=states, step=step)


def variational_flow(f: VectorField, u0, du0, t_span, h: float):
    """Co-integrate the state and a linearized perturbation with one stepper.

    Returns (state trajectory, perturbation trajectory) on the same grid;
    the perturbation obeys d(du)/dt = Df(t, u(t)) du.
    """
    u0 = np.asarray(u0, dtype=float)
    du0 = np.asarray(du0, dtype=float)
    if u0.shape != du0.shape:
        raise DegenerateArgumentError("state and perturbation dimensions differ")
    n = u0.shape[0]

    def stacked(t, z):
        u, du = z[:n], z[n:]
        return np.concatenate([f(t, u), f.jacobian(t, u) @ du])

    joint = integrate(VectorField(fn=stacked, dim=2 * n), np.concatenate([u0, du0]), t_span, h)
    base = Trajectory(times=joint.times, states=joint.states[:, :n], step=joint.step)
    pert = Trajectory(times=joint.times, states=joint.states[:, n:], step=joint.step)
    return base, pert


def distance_series(tr_a: Trajectory, tr_b: Trajectory, spec: NormSpec = NormSpec()) -> np.ndarray:
    if tr_a.states.shape != tr_b.states.shape:
        raise DegenerateArgumentError("trajectories have different shapes")
    return norm_rows(tr_a.states - tr_b.states, spec)


def overshoot_fit(times, distances):
    """Least-squares fit of log d(t) = log kappa + lambda t.

    Returns (lambda, kappa) with kappa clamped up to 1 when the fit lands
    within its own residual noise of 1 (an overshoot constant below one
    is never reported).  Needs at least three positive samples.
    """
    times = np.asarray(times, dtype=float)
    distances = np.asarray(distances, dtype=float)
    keep = distances > 0.0
    if keep.sum() < 3:
        raise DegenerateArgumentError("overshoot fit needs at least 3 positive distances")
    t, d = times[keep], np.log(distances[keep])
    lam, logk = np.polyfit(t, d, 1)
    resid = d - (lam * t + logk)
    noise = float(np.sqrt(np.mean(resid**2)))
    kappa = math.exp(logk)
    if kappa < 1.0 and logk > -(3.0 * noise + 1e-9):
        kappa = 1.0
    return float(lam), float(kappa)


def pair_distances(f: VectorField, pairs, t_span, h: float, spec: NormSpec = NormSpec()):
    """Integrate both starts of every pair (u0, v0) and return their distances.

    All starts are stepped by RK4 as one stack, so a blow-up of any of
    them raises DivergenceError; a start whose shape is not (f.dim,)
    raises DimensionError before any step.  Returns (times, d) with
    d[k, j] = ||u_j(times[k]) - v_j(times[k])||.  Only the distances are
    kept, never the trajectories.
    """
    if not pairs:
        raise DegenerateArgumentError("need at least one initial pair")
    t0, t1 = _span(t_span, h)
    starts = [np.asarray(u, dtype=float) for pair in pairs for u in pair]
    if len(starts) != 2 * len(pairs) or any(u.shape != (f.dim,) for u in starts):
        raise DimensionError(f"every pair needs two initial states of shape ({f.dim},)")

    def distances(S):
        # S[k, 2j] and S[k, 2j + 1] are pair j's states at step k
        return norm_rows((S[:, 0::2] - S[:, 1::2]).reshape(-1, f.dim), spec).reshape(len(S), -1)

    times, d, _ = _rk4(f, np.array(starts), t0, t1, h, distances)
    return times, d


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of an empirical decay-envelope check."""

    passed: bool
    claimed_rate: float
    claimed_overshoot: float
    max_violation: float
    fitted_rate: float
    fitted_overshoot: float
    pairs_checked: int
    grid_points: int
    tolerance: float


def verify_contraction(
    f: VectorField,
    pairs,
    spec: NormSpec = NormSpec(),
    rate: float = 0.0,
    overshoot: float = 1.0,
    t_span=(0.0, 1.0),
    h: float = 1e-2,
    atol: float = 1e-6,
    rtol: float = 1e-6,
) -> CertificateResult:
    """Integrate initial pairs and test d(t) <= overshoot e^{rate (t-s)} d(s).

    The inequality is checked on strided grid anchors (stride ~ N/50) for
    every s <= t, with tolerance atol + rtol * envelope.  The returned
    fitted rate/overshoot come from the worst-decaying pair.  The pairs
    are integrated by pair_distances, as one stack, so a blow-up of any
    of them raises DivergenceError.
    """
    if overshoot < 1.0:
        raise DegenerateArgumentError("overshoot constant below 1 is vacuous")
    t, dist = pair_distances(f, pairs, t_span, h, spec)
    stride = max(1, len(t) // 50)
    idx = np.arange(0, len(t), stride)
    if idx[-1] != len(t) - 1:
        idx = np.append(idx, len(t) - 1)
    ts = t[idx]
    growth = overshoot * np.exp(rate * (ts[None, :] - ts[:, None]))
    upper = np.triu_indices(len(idx))
    worst_violation = -math.inf
    fitted = []
    for d in dist.T:
        ds = d[idx]
        # all anchor pairs s <= t at once
        envelope = growth * ds[:, None]
        viol = ds[None, :] - (envelope + atol + rtol * np.abs(envelope))
        worst_violation = max(worst_violation, float(viol[upper].max()))
        try:
            fitted.append(overshoot_fit(t, d))
        except DegenerateArgumentError:
            fitted.append((-math.inf, 1.0))
    worst_fit = max(fitted, key=lambda lk: lk[0])
    return CertificateResult(
        passed=bool(worst_violation <= 0.0),
        claimed_rate=float(rate),
        claimed_overshoot=float(overshoot),
        max_violation=float(worst_violation),
        fitted_rate=worst_fit[0],
        fitted_overshoot=worst_fit[1],
        pairs_checked=len(pairs),
        grid_points=len(idx),
        tolerance=atol,
    )
