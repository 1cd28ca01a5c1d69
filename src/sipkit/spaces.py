"""Norms, one-sided semi-inner products, and Dini derivative estimates.

Every rate computed by this package is a supremum of quotients built from
a norm and the semi-inner product compatible with it.  This module owns
those primitives: weighted and stacked l^p norms ||u|| = ||T u||_p, whose
T and square factor R only NormSpec decides, the seminorms ||G C u||
(C G = I) that _seminorm builds from them, and their right/left
semi-inner products, with one closed-form kernel for each that works on
stacks of rows.  The single-vector forms (norm, sip, complex_sip) are its
one-row case, the row-wise forms (norm_rows, sip_rows, and the fused
quotient kernel _quotient_rows that every sampled supremum runs on) its
stacked case.  Beside them sit a slow difference-quotient reference for
the same quantity and one-sided derivative estimates for scalar signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConditioningError,
    DegenerateArgumentError,
    DimensionError,
    UnsupportedNormError,
)

__all__ = [
    "NormSpec",
    "norm",
    "norm_rows",
    "sip",
    "sip_rows",
    "complex_sip",
    "gateaux_sip",
    "dini_plus",
    "conjugate_exponent",
]

# Absolute tolerance for treating a coordinate as zero in the p=1 forms.
ZERO_COORD_TOL = 1e-14
# Relative tolerance for membership in the max-attaining set for p=inf.
ARGMAX_REL_TOL = 1e-12
# Condition-number ceiling for weights.
COND_LIMIT = 1e12

# Difference-quotient ladder shared by the Gateaux reference and dini_plus.
_H_LADDER = tuple(10.0 ** (-k) for k in range(4, 10))


def as_vector(entries, dtype=None) -> np.ndarray:
    """Validate and return a 1-d array with finite entries."""
    v = np.asarray(entries, dtype=dtype)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DegenerateArgumentError("vector has non-finite entries")
    return v


def conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _checked_weight(W, what: str = "weight") -> np.ndarray:
    """W, after checking that it is square with a condition number of at most COND_LIMIT."""
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConditioningError(f"{what} must be square, got shape {W.shape}")
    c = np.linalg.cond(W)
    if not np.isfinite(c) or c > COND_LIMIT:
        raise ConditioningError(f"{what} condition number {c:.3e} exceeds {COND_LIMIT:.0e}")
    return W


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Which norm a computation runs in: ||u|| = ||T u||_p.

    p=2 with no weight is the plain Euclidean case (T is None).  A square
    invertible ``weight`` W gives T = W; ``stack`` holds grid difference
    operators D_1..D_k for the stacked norm (p-th powers of the derivative
    levels summed), T = [I; D_1; ...; D_k].  Both are kept as read-only
    copies and ``transform`` = T is built from them once.  A tall T of
    full column rank (a stack, or the coordinate spec of a _seminorm)
    measures a restriction of ||.||_p: exactly at p=2, where its R from
    T = QR is square, and by sampling at any other p.  A seminorm's own
    T is T_e C; its (C, G, coordinate spec) sit in ``_compression``,
    None for every other spec.
    """

    p: float = 2.0
    weight: np.ndarray | None = None
    stack: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    field_kind: str = "real"
    _compression = None  # not a field: set by _seminorm only

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise UnsupportedNormError(f"p must satisfy p >= 1, got {self.p}")
        if self.field_kind not in ("real", "complex"):
            raise DegenerateArgumentError(f"unknown field {self.field_kind!r}")
        if self.weight is not None and self.stack is not None:
            raise ConditioningError("weight and stack are mutually exclusive")
        T = None
        if self.weight is not None:
            T = _checked_weight(np.array(self.weight, dtype=complex if self.field_kind == "complex" else float))
            object.__setattr__(self, "weight", T)
        elif self.stack:
            ops = tuple(np.array(op) for op in self.stack)
            if any(op.ndim != 2 or op.shape[1] != ops[0].shape[1] for op in ops):
                raise DimensionError("stack operators must be matrices acting on one dimension")
            T = np.vstack((np.eye(ops[0].shape[1]),) + ops)
            object.__setattr__(self, "stack", ops)
        if T is not None:  # the spec's coordinates never change after this
            for a in (T, *(self.stack or ())):
                a.flags.writeable = False
        object.__setattr__(self, "transform", T)

    @property
    def _tall(self) -> bool:
        """Whether T has more rows than columns."""
        return self.transform is not None and self.transform.shape[0] > self.transform.shape[1]

    @cached_property
    def _square(self):
        """(R, R^-1), ||u|| = ||R u||_p: T when it is square, or at p=2 the R of a tall T = QR."""
        if self._tall and self.p != 2.0:
            raise UnsupportedNormError("tall norm coordinates have no square conjugation off p=2; use sampled rates")
        R = np.linalg.qr(self.transform, mode="r") if self._tall else self.transform
        return R, np.linalg.inv(R)

    def conjugate(self, A):
        """R A R^-1 for a square A or a stack of them (A itself for a plain
        norm), whose plain l^p log norm is A's log norm in this norm."""
        if self.transform is None:
            return A
        R, R_inv = self._square
        return R @ A @ R_inv


def _with_transform(spec: NormSpec, T) -> NormSpec:
    """A spec of spec's p and field whose transform is T (None, or a read-only copy)."""
    out = NormSpec(p=spec.p, field_kind=spec.field_kind)
    if T is not None:
        T = np.array(T)
        T.flags.writeable = False
    object.__setattr__(out, "transform", T)
    return out


def _seminorm(spec: NormSpec, C, G) -> NormSpec:
    """The seminorm x -> ||G C x|| of spec, for C G = I and G with
    orthonormal columns.  Its coordinates e = C x are measured in the
    coordinate spec e -> ||G e||: plain where G keeps l^p norms (a plain
    p=2 spec, or signed coordinate columns), else with transform T_e =
    T G (G itself for a plain spec).  Rows are measured through T_e C (C
    for a plain coordinate spec); measures._operator_rates rates a
    matrix A as C A G in the coordinate spec."""
    plain = spec.transform is None and (spec.p == 2.0 or np.isin(np.abs(G), (0.0, 1.0)).all())
    coords = _with_transform(spec, None if plain else G if spec.transform is None else spec.transform @ G)
    out = _with_transform(spec, C if plain else coords.transform @ C)
    object.__setattr__(out, "_compression", (C, G, coords))
    return out


def _dtype(spec: NormSpec):
    return complex if spec.field_kind == "complex" else None


def _transform_rows(V: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Map every row of V into the coordinates the norm actually measures."""
    T = spec.transform
    if T is None:
        return V
    if T.shape[1] != V.shape[1]:
        raise DimensionError(f"norm coordinates act on dimension {T.shape[1]}, vectors have {V.shape[1]}")
    return V @ T.T


def _raw_norm_rows(X: np.ndarray, p: float) -> np.ndarray:
    """l^p norm of every row of X."""
    return _abs_norm_rows(np.abs(X), p)


def _abs_norm_rows(a: np.ndarray, p: float) -> np.ndarray:
    """_raw_norm_rows of X, given a = |X|."""
    if p == math.inf:
        return a.max(axis=1)
    if p == 1.0:
        return a.sum(axis=1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=1))
    return (a**p).sum(axis=1) ** (1.0 / p)


def _powers(a: np.ndarray, p: float) -> np.ndarray:
    """|u_i|^(p-2), with zero coordinates contributing nothing (below p=2
    their power is infinite)."""
    return a ** (p - 2.0) if p > 2.0 else np.power(a, p - 2.0, out=np.zeros(a.shape), where=a > 0.0)


def _sip_rows_raw(U: np.ndarray, W: np.ndarray, p: float, a: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Right semi-inner product of every row pair of transformed U and W,
    given a = |U| and its row norms nu, none of them zero.

    The right derivative ||u|| d/dh ||u + h w|| at h -> 0+, scaled so
    that the form of (u, u) is the squared norm; the left form is minus
    the right form of (u, -w).  For 1 < p < inf the norm is Gateaux
    differentiable, both sides agree and the closed form is the classical
    one.  At p=1 a coordinate of u at zero contributes |w_i| from the
    right (and -|w_i| from the left); everywhere else the modulus is
    differentiable.  At p=inf the right form takes the largest slope over
    the coordinates that attain the maximum (the left form the smallest).
    """
    re = np.real((U.conj() if np.iscomplexobj(U) else U) * W)
    if p == 2.0:
        return re.sum(axis=1)
    if p == 1.0:
        zero = a <= ZERO_COORD_TOL
        live = np.divide(re, a, out=np.zeros(a.shape), where=~zero)
        return nu * (live.sum(axis=1) + np.where(zero, np.abs(W), 0.0).sum(axis=1))
    if p == math.inf:
        top = a >= a.max(axis=1, keepdims=True) * (1.0 - ARGMAX_REL_TOL)
        slopes = np.divide(re, a, out=np.full(a.shape, -math.inf), where=top)
        return nu * slopes.max(axis=1)
    return nu ** (2.0 - p) * (_powers(a, p) * re).sum(axis=1)


def _sip_plus_rows(TU: np.ndarray, TW: np.ndarray, p: float) -> np.ndarray:
    """_sip_rows_raw of transformed rows, raising where a row of TU is zero."""
    a = np.abs(TU)
    nu = _abs_norm_rows(a, p)
    if (nu == 0.0).any():
        raise DegenerateArgumentError("semi-inner product undefined at u = 0")
    return _sip_rows_raw(TU, TW, p, a, nu)


def _as_rows(entries, dtype=None) -> np.ndarray:
    """Validate and return a 2-d stack of nonempty rows with finite entries."""
    V = np.asarray(entries, dtype=dtype)
    if V.ndim != 2 or V.shape[1] == 0:
        raise DimensionError(f"expected a 2-d stack of nonempty rows, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise DegenerateArgumentError("vector has non-finite entries")
    return V


def _checked_pair(U, W, spec: NormSpec, as_=_as_rows):
    """U and W validated by as_ (as stacks of rows, or as_vector for one
    vector each) and of matching shape."""
    U = as_(U, dtype=_dtype(spec))
    W = as_(W, dtype=_dtype(spec))
    if U.shape != W.shape:
        raise DimensionError(f"shape mismatch {U.shape} vs {W.shape}")
    return U, W


def _transformed_pair(U, W, spec: NormSpec, as_=_as_rows):
    """_checked_pair of U and W, transformed as stacks of rows."""
    U, W = _checked_pair(U, W, spec, as_)
    return _transform_rows(np.atleast_2d(U), spec), _transform_rows(np.atleast_2d(W), spec)


def _side_sign(side: str) -> float:
    """+1 for side 'plus' and -1 for 'minus'; any other side is refused."""
    if side not in ("plus", "minus"):
        raise DegenerateArgumentError(f"side must be 'plus' or 'minus', got {side!r}")
    return 1.0 if side == "plus" else -1.0


def norm(v, spec: NormSpec = NormSpec()) -> float:
    """Weighted (or stacked) l^p norm of v under spec."""
    v = as_vector(v, dtype=_dtype(spec))
    return float(_raw_norm_rows(_transform_rows(v[None], spec), spec.p)[0])


def norm_rows(V, spec: NormSpec = NormSpec()) -> np.ndarray:
    """Row-wise norm: entry i equals norm(V[i], spec)."""
    V = _as_rows(V, dtype=_dtype(spec))
    return _raw_norm_rows(_transform_rows(V, spec), spec.p)


def sip(u, v, spec: NormSpec = NormSpec(), side: str = "plus") -> float:
    """Semi-inner product (u, v) compatible with norm(.., spec).

    Returns the one-sided derivative ||u|| * d/dh ||u + h v|| at h -> 0
    from the requested side, in closed form.  Positive-homogeneous and
    subadditive in v; sip(u, u) recovers norm(u)^2.
    """
    sgn = _side_sign(side)
    TU, TV = _transformed_pair(u, v, spec, as_=as_vector)
    return sgn * float(_sip_plus_rows(TU, sgn * TV, spec.p)[0])


def sip_rows(U, W, spec: NormSpec = NormSpec()) -> np.ndarray:
    """Row-wise right semi-inner product: entry i equals sip(U[i], W[i], spec).

    Same closed forms and the same checks as sip with side='plus', applied
    to every row at once: a zero row of U, a non-finite entry or a shape
    mismatch raises as sip would.
    """
    return _sip_plus_rows(*_transformed_pair(U, W, spec), spec.p)


def _quotient_rows(U, W, spec: NormSpec, floor: float) -> np.ndarray:
    """sip(u, w)/||u||^2 for every row pair of U and W, -inf where ||u|| < floor.

    One fused pass of norm_rows and sip_rows with the checks they make
    (shapes, finite entries; a zero row falls below the floor > 0): U
    and W are validated and transformed once, and ||u|| is taken once.
    """
    TU, TW = _transformed_pair(U, W, spec)
    a = np.abs(TU)
    nu = _abs_norm_rows(a, spec.p)
    ok = nu >= floor
    if ok.all():
        return _sip_rows_raw(TU, TW, spec.p, a, nu) / nu**2
    out = np.full(len(nu), -math.inf)
    out[ok] = _sip_rows_raw(TU[ok], TW[ok], spec.p, a[ok], nu[ok]) / nu[ok] ** 2
    return out


def complex_sip(u, v, spec: NormSpec) -> complex:
    """Complex-valued semi-inner product for complex l^p, 1 < p < inf.

    Conjugate-homogeneous in u, linear in v, with real part equal to
    sip(u, v); at p=2 it is the Hermitian inner product.  The p=1 and
    p=inf norms are not smooth enough to support it.
    """
    if spec.field_kind != "complex":
        raise UnsupportedNormError("complex_sip requires a complex-field spec")
    if spec.p in (1.0, math.inf):
        raise UnsupportedNormError("complex semi-inner product needs 1 < p < inf")
    TU, TV = _transformed_pair(u, v, spec, as_=as_vector)
    a = np.abs(TU)
    nu = _abs_norm_rows(a, spec.p)[0]
    if nu == 0.0:
        raise DegenerateArgumentError("semi-inner product undefined at u = 0")
    return complex(nu ** (2.0 - spec.p) * (_powers(a, spec.p) * TU.conj() * TV).sum())


def _ladder_limit(q):
    """Extrapolate difference quotients q(h) over the shared h ladder.

    Richardson-extrapolates successive ladder pairs (geometric ratio 0.1)
    and returns the pair whose extrapolant agrees best with its neighbour,
    which self-selects the window where truncation and cancellation
    balance.  Returns +/-inf when the quotients grow without bound.
    """
    vals = np.array([q(h) for h in _H_LADDER])
    if not np.all(np.isfinite(vals)):
        bad = vals[~np.isfinite(vals)]
        return math.inf if (bad > 0).any() else -math.inf
    mags = np.abs(vals)
    if mags[-1] > 1e10 and mags[-1] > 50.0 * max(mags[0], 1.0):
        return math.inf if vals[-1] > 0 else -math.inf
    # Quotients that keep growing geometrically as h shrinks have no limit.
    if mags[0] > 0 and np.all(mags[1:] >= 1.5 * mags[:-1]) and mags[-1] >= 50.0 * mags[0]:
        return math.inf if vals[-1] > 0 else -math.inf
    # q(h) = L + c h: with h' = h/10, L = (10 q(h') - q(h)) / 9.
    exts = (10.0 * vals[1:] - vals[:-1]) / 9.0
    if len(exts) == 1:
        return float(exts[0])
    gaps = np.abs(np.diff(exts))
    k = int(np.argmin(gaps))
    return float(exts[k + 1])


def gateaux_sip(u, v, spec: NormSpec = NormSpec(), side: str = "plus") -> float:
    """Difference-quotient reference for sip().

    Evaluates ||u|| (||u + h v|| - ||u||)/h over a shrinking ladder of h
    and extrapolates.  Slow; used to cross-check the closed forms.  Checks
    side, shapes and entries as sip does.
    """
    sgn = _side_sign(side)
    u, v = _checked_pair(u, v, spec, as_vector)
    nu = norm(u, spec)
    if nu == 0.0:
        raise DegenerateArgumentError("semi-inner product undefined at u = 0")

    def quot(h):
        hh = sgn * h
        return (norm(u + hh * v, spec) - nu) / hh

    return nu * _ladder_limit(quot)


def dini_plus(signal, t: float) -> float:
    """Upper right Dini derivative estimate of a scalar signal at t.

    ``signal`` is either a callable s(t) or a pair (times, values) of
    sampled data with strictly increasing times (others are refused).
    Callables go through the extrapolated ladder; sampled data uses the
    forward quotient from the last sample at or before t to the next one.
    Divergent quotients return +/-inf rather than raising.
    """
    if callable(signal):
        s0 = float(signal(t))

        def quot(h):
            return (float(signal(t + h)) - s0) / h

        return _ladder_limit(quot)
    times, values = signal
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise DimensionError("sampled signal needs matching 1-d times and values")
    if not (np.diff(times) > 0.0).all():
        raise DegenerateArgumentError("sampled times must be strictly increasing")
    ahead = times > t + 1e-15
    if not ahead.any():
        raise DegenerateArgumentError(f"no samples to the right of t = {t}")
    j = int(ahead.argmax())
    if j == 0:
        raise DegenerateArgumentError(f"no sample lies at or before t = {t}")
    return float((values[j] - values[j - 1]) / (times[j] - times[j - 1]))
