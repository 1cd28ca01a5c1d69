"""Regression in l^p coordinates via duality maps and mirror descent.

The state of the regression lives in a smooth l^p space (1 < p < inf).
Predictions pair the state with per-sample feature vectors through the
semi-inner product, the risk gradient is assembled from duality-mapped
features, and descent runs as an explicit Euler step on the dual flow
u* <- u* - step * DL(u).  The p=2 case collapses to plain gradient
descent, which doubles as a regression oracle for every other exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DegenerateArgumentError, DimensionError, UnsupportedNormError
from .measures import RateEstimate, _fd_jacobian, _inner_rates, _operator_rates, overshoot_fit
from .spaces import NormSpec, _duality_rows, as_vector, conjugate_exponent

ROUNDTRIP_TOL = 1e-10


def _check_exponent(p: float) -> float:
    p = float(p)
    if p in (1.0, math.inf):
        raise UnsupportedNormError(
            "duality map is set-valued at p=1 and p=inf; need 1 < p < inf"
        )
    if not 1.0 < p < math.inf:
        raise DegenerateArgumentError(f"exponent must lie in (1, inf), got {p}")
    return p


def duality_map(u, p: float) -> np.ndarray:
    """Normalized duality map of l^p: components ||u||^(2-p) |u_i|^(p-1) sgn(u_i).

    The one-row case of spaces._duality_rows: maps 0 to 0, is a copy of u
    at p=2, and pairs against the semi-inner product,
    sum_i duality_map(u)_i v_i == sip(u, v) for every v.
    """
    p = _check_exponent(p)
    return _duality_rows(as_vector(u)[None], p)[0]


def inverse_duality(u_star, p: float) -> np.ndarray:
    """Read the primal vector out of dual coordinates.

    `p` is the primal exponent; the inverse is the duality map of the
    conjugate space l^q, q = p/(p-1).
    """
    p = _check_exponent(p)
    return duality_map(u_star, conjugate_exponent(p))


@dataclass(frozen=True)
class Loss:
    """Convex scalar loss with its derivative in the prediction slot."""

    value: Callable[[float, float], float]
    derivative: Callable[[float, float], float]


SQUARED_LOSS = Loss(
    value=lambda r, y: 0.5 * (r - y) ** 2,
    derivative=lambda r, y: r - y,
)


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Samples, a feature map into dense coordinates, a loss, and the exponent."""

    samples: Tuple[Tuple[object, float], ...]
    features: Callable[[object], np.ndarray]
    loss: Loss = SQUARED_LOSS
    p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple((x, float(y)) for x, y in self.samples))
        if len(self.samples) == 0:
            raise DegenerateArgumentError("regression needs at least one sample")
        object.__setattr__(self, "p", _check_exponent(self.p))

    def feature_matrix(self) -> np.ndarray:
        rows = [as_vector(self.features(x)) for x, _ in self.samples]
        dims = {r.shape[0] for r in rows}
        if len(dims) != 1:
            raise DimensionError(f"feature vectors disagree in length: {sorted(dims)}")
        return np.array(rows)

    def targets(self) -> np.ndarray:
        return np.array([y for _, y in self.samples])


@dataclass(frozen=True)
class DualState:
    """A point carried in both coordinate systems at once."""

    u_star: np.ndarray
    p: float
    primal: np.ndarray

    @classmethod
    def from_primal(cls, u, p: float) -> "DualState":
        u = as_vector(u)
        return cls(u_star=duality_map(u, p), p=p, primal=u)

    @classmethod
    def from_dual(cls, u_star, p: float) -> "DualState":
        primal = inverse_duality(u_star, p)  # checks u_star as a vector
        return cls(u_star=np.asarray(u_star), p=p, primal=primal)

    def shifted(self, delta: np.ndarray) -> "DualState":
        return DualState.from_dual(self.u_star + delta, self.p)


def _dual_rows(prob: RegressionProblem, u: np.ndarray) -> np.ndarray:
    """Duality-mapped feature rows, once the state u is checked to pair with them."""
    K = prob.feature_matrix()
    if K.shape[1] != u.shape[0]:
        raise DimensionError(f"state has {u.shape[0]} coordinates, features {K.shape[1]}")
    return _duality_rows(K, prob.p)


def predictions(u, prob: RegressionProblem) -> np.ndarray:
    """Predicted values at every sample: the state paired with each feature.

    Linear in u: prediction_i = sum_j duality_map(feature_i)_j u_j, which
    equals sip(feature_i, u) whenever the feature is nonzero.
    """
    u = as_vector(u)
    return _dual_rows(prob, u) @ u


def _risk_grad_from(D: np.ndarray, y: np.ndarray, loss: Loss, u: np.ndarray):
    preds = D @ u
    risk = float(sum(loss.value(r, t) for r, t in zip(preds, y)))
    lp = np.array([loss.derivative(r, t) for r, t in zip(preds, y)])
    return risk, D.T @ lp


def risk_and_gradient(u, prob: RegressionProblem) -> Tuple[float, np.ndarray]:
    """Empirical risk and its gradient in dual coordinates.

    gradient = sum_i loss'(pred_i, y_i) * duality_map(feature_i); because
    predictions are linear in u this coincides with the coordinate
    gradient of the risk, so a finite-difference oracle applies directly.
    """
    u = as_vector(u)
    return _risk_grad_from(_dual_rows(prob, u), prob.targets(), prob.loss, u)


def _dual_hessian(u: np.ndarray, prob: RegressionProblem) -> np.ndarray:
    """H = d(DL)/d(u*): _fd_jacobian, at u* = duality_map(u), of the risk
    gradient through the inverse map, on dual rows built once."""
    D, y = _dual_rows(prob, u), prob.targets()

    def gradient(ustar):
        return _risk_grad_from(D, y, prob.loss, inverse_duality(ustar, prob.p))[1]

    return _fd_jacobian(gradient, duality_map(u, prob.p))


@dataclass
class MirrorReport:
    """Descent diagnostics: trajectory, fitted decay, path-sampled stability."""

    risks: np.ndarray
    final_risk: float
    gradient_norm: float
    fitted_rate: float
    path_rate: RateEstimate
    stability_threshold: float
    warned: bool
    note: str = ""


def _fit_risk_decay(times: np.ndarray, risks: np.ndarray) -> float:
    # fit on the excess over the best value seen; flat runs fit nothing
    excess = risks - risks.min()
    keep = excess > max(1e-14 * max(risks[0], 1.0), 1e-300)
    if np.count_nonzero(keep) < 3:
        return 0.0
    try:
        lam, _ = overshoot_fit(times[keep], excess[keep])
    except DegenerateArgumentError:
        return 0.0
    return lam


def mirror_descent_run(
    prob: RegressionProblem,
    alpha: float,
    steps: int,
    u0,
    theta=None,
    rate_checkpoints: int = 5,
) -> Tuple[np.ndarray, MirrorReport]:
    """Explicit Euler on the dual flow u* <- u* - alpha*DL(u), stepped as
    DualState.shifted.

    Reports the risk trajectory, a fitted decay rate, and the worst sampled
    rate of -H along the visited path measured in the conjugate-exponent
    norm (optionally weighted by a constant theta).  Ten consecutive risk
    increases raise a step-size warning flag in the report; the run is not
    aborted.
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise DegenerateArgumentError("step alpha must be nonnegative")
    steps = int(steps)
    if steps < 0:
        raise DegenerateArgumentError("steps must be nonnegative")
    state = DualState.from_primal(u0, prob.p)

    checkpoints = np.unique(np.linspace(0, steps, num=min(rate_checkpoints, steps + 1), dtype=int))
    snapshots = {}

    D = _dual_rows(prob, state.primal)
    y = prob.targets()

    risks = np.empty(steps + 1)
    rises = 0
    warned = False
    for k in range(steps + 1):
        risk, grad = _risk_grad_from(D, y, prob.loss, state.primal)
        risks[k] = risk
        if k > 0 and risks[k] > risks[k - 1]:
            rises += 1
            if rises >= 10:
                warned = True
        else:
            rises = 0
        if k in checkpoints:
            snapshots[k] = state.primal.copy()
        if k == steps:
            break
        if alpha > 0.0:
            state = state.shifted(-alpha * grad)

    q = conjugate_exponent(prob.p)
    if theta is None:
        dual_spec = NormSpec(p=q)
    else:
        theta = np.asarray(theta, dtype=float)
        dual_spec = NormSpec(p=q, weight=np.diag(theta) if theta.ndim == 1 else theta)
    worst = None
    threshold = math.inf
    if snapshots:
        Hs = np.array([_dual_hessian(us, prob) for us in snapshots.values()])
        worst = max(_operator_rates(-Hs, dual_spec), key=lambda est: est.value)
        lmax = _inner_rates(Hs)
        if (lmax > 0.0).any():
            threshold = float((2.0 / lmax[lmax > 0.0]).min())

    times = alpha * np.arange(steps + 1) if alpha > 0 else np.arange(steps + 1, dtype=float)
    fitted = _fit_risk_decay(times, risks)
    note = "risk increased over 10 consecutive steps; reduce the step" if warned else ""
    report = MirrorReport(
        risks=risks,
        final_risk=float(risks[-1]),
        gradient_norm=float(np.linalg.norm(grad)),  # the last pass's, at the final state
        fitted_rate=fitted,
        path_rate=worst,
        stability_threshold=float(threshold),
        warned=warned,
        note=note,
    )
    return state.primal, report
