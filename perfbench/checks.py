"""Independent references for every output the benchmark receives.

Nothing here imports sipkit.  Each reference is a closed form (column
sums, row sums, the symmetric part), an interpolation bound, an exact
grid spectrum, or a plain numpy/scipy computation such as ``expm`` or
``np.linalg.solve``.  Every check takes the digest of one operation (a
dict of plain numbers, flags and arrays) and returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


# ------------------------------------------------------------ primitives


def close(name, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, reference {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    limit = atol + rtol * float(np.max(np.abs(want))) if want.size else atol
    if not err <= limit:  # also rejects nan
        return [f"{name}: off by {err:.3e} from its reference (allowed {limit:.3e})"]
    return []


def at_most(name, got, bound, tol=0.0):
    if not float(got) <= float(bound) + tol:
        return [f"{name}: {float(got)!r} exceeds its bound {float(bound)!r}"]
    return []


def at_least(name, got, bound, tol=0.0):
    if not float(got) >= float(bound) - tol:
        return [f"{name}: {float(got)!r} is below its bound {float(bound)!r}"]
    return []


def equal(name, got, want):
    if got != want:
        return [f"{name}: got {got!r}, expected {want!r}"]
    return []


# --------------------------------------------------------------- log norms


def lognorm(A, p):
    """Closed-form log norm: column sums (p=1), row sums (inf), symmetric part (2)."""
    A = np.asarray(A, dtype=float)
    d = np.diag(A)
    if p == 1.0:
        return float(np.max(d + np.abs(A).sum(axis=0) - np.abs(d)))
    if p == INF:
        return float(np.max(d + np.abs(A).sum(axis=1) - np.abs(d)))
    if p == 2.0:
        return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
    raise ValueError(f"no closed form for p={p}")


def weighted(A, W):
    """The matrix whose plain log norm is the W-weighted log norm of A."""
    return W @ A @ np.linalg.inv(W)


def riesz_thorin_lognorm(A, p):
    """Upper bound on mu_p(A) from interpolation between mu_1, mu_2, mu_inf.

    Riesz-Thorin gives ||B||_p <= ||B||_p0^(1-t) ||B||_p1^t; applied to
    B = I + hA and h -> 0 it bounds mu_p by the matching convex
    combination.  The tighter of the (1, inf) and the through-mu_2
    combinations is returned.
    """
    m1, m2, mi = lognorm(A, 1.0), lognorm(A, 2.0), lognorm(A, INF)
    bounds = [m1 / p + (1.0 - 1.0 / p) * mi]
    if p > 2.0:
        bounds.append((2.0 / p) * m2 + (1.0 - 2.0 / p) * mi)
    else:
        bounds.append((2.0 / p - 1.0) * m1 + (2.0 - 2.0 / p) * m2)
    return min(bounds)


def riesz_thorin_norm(W, p):
    """||W||_p <= ||W||_1^(1/p) ||W||_inf^(1-1/p)."""
    n1 = float(np.abs(W).sum(axis=0).max())
    ni = float(np.abs(W).sum(axis=1).max())
    return n1 ** (1.0 / p) * ni ** (1.0 - 1.0 / p) if p != INF else ni


def check_closed_lognorm(d, A, p, W=None):
    """d: value, exact.  Reference: the formulas above on W A W^-1."""
    B = A if W is None else weighted(A, W)
    want = lognorm(B, p)
    return equal("exact", d["exact"], True) + close("log norm", d["value"], want, 1e-9, 1e-12)


def check_sampled_lognorm(d, A, p):
    """d: value, sampled.  A sampled rate may not exceed the interpolation bound."""
    bound = riesz_thorin_lognorm(A, p)
    scale = 1e-9 * (1.0 + np.abs(A).max())
    out = equal("sampled", d["sampled"], True)
    return out + at_most("sampled log norm", d["value"], bound, scale)


def check_tanh_rate(d, W, p):
    """d: value.  For f(u) = -u + W tanh(u) + c every rate quotient lies in
    -1 -/+ ||W||_p, and ||W||_p is bounded by Riesz-Thorin."""
    r = riesz_thorin_norm(W, p)
    tol = 1e-9 * (1.0 + r)
    out = equal("sampled", d["sampled"], True)
    out += at_most("tanh-field rate", d["value"], -1.0 + r, tol)
    return out + at_least("tanh-field rate", d["value"], -1.0 - r, tol)


def check_subspace(d, A, Q, p, tol):
    """d: residual, value, passed.  range(P) is invariant by construction,
    the transverse rate is bounded by the interpolation bound of QAQ, and
    the verdict must follow from the two."""
    scale = 1.0 + np.abs(A).max()
    out = at_most("invariance residual", d["residual"], 0.0, 1e-12 * scale)
    out += at_most("transverse rate", d["value"], riesz_thorin_lognorm(Q @ A @ Q, p), 1e-9 * scale)
    return out + equal("verdict", d["passed"], bool(d["residual"] <= tol and d["value"] < 0.0))


def check_subspace_exact(d, A, V):
    """p=2: the transverse rate is the top eigenvalue of the symmetric part of
    V^T A V, V an orthonormal basis of range(Q)."""
    M = V.T @ A @ V
    scale = 1.0 + np.abs(A).max()
    out = at_most("invariance residual", d["residual"], 0.0, 1e-12 * scale)
    return out + close("transverse rate", d["value"], lognorm(M, 2.0), 0.0, 1e-10 * scale)


def check_hopf(d, mu):
    """On the circle |u|^2 = mu the constraint rate of the Hopf normal form is -2 mu."""
    out = close("constraint rate", d["value"], -2.0 * mu, 1e-8)
    return out + at_most("tangency residual", d["tangency"], 1e-8)


def check_couple(d, J1, J2):
    """Skew coupling leaves the symmetric part block diagonal, so the
    composite mu_2 is the larger block mu_2."""
    blocks = [lognorm(J1, 2.0), lognorm(J2, 2.0)]
    scale = 1.0 + max(np.abs(J1).max(), np.abs(J2).max())
    out = close("block rates", d["block_rates"], blocks, 0.0, 1e-10 * scale)
    out += close("composite rate", d["composite"], max(blocks), 0.0, 1e-10 * scale)
    return out + at_most("skewness residual", d["skewness"], 0.0, 1e-12 * scale)


# ------------------------------------------------------------ grid spectra


def dirichlet_top(n, length):
    """Largest eigenvalue of the 1-d Dirichlet second difference."""
    h = length / (n + 1)
    return -(4.0 / h**2) * math.sin(math.pi / (2 * (n + 1))) ** 2


def periodic_gap(n, length):
    """Largest eigenvalue off the constant mode of the periodic second difference."""
    h = length / n
    return -(4.0 / h**2) * math.sin(math.pi / n) ** 2


def check_poincare_2d(d, n, lengths):
    """Dirichlet 2-d: the Laplacian is a Kronecker sum, so its top
    eigenvalue is the sum of the axes' top eigenvalues."""
    want = dirichlet_top(n[0], lengths[0]) + dirichlet_top(n[1], lengths[1])
    scale = 8.0 / min(lengths[0] / (n[0] + 1), lengths[1] / (n[1] + 1)) ** 2
    return close("spectral gap", d["value"], want, 0.0, 1e-10 * scale)


def dirichlet_matrix(n, length):
    h = length / (n + 1)
    return (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / h**2


def stencil_laplacian(u, h):
    """Dirichlet second difference applied by slicing, without a matrix."""
    padded = np.concatenate([[0.0], u, [0.0]])
    return (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / h**2


def sine_basis(n):
    """Orthonormal eigenvectors of the 1-d Dirichlet second difference (DST-I)."""
    k = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


# -------------------------------------------------------------- stepping


def rk4_factor(z):
    """Amplification of one classical RK4 step on y' = lambda y, z = h lambda."""
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def check_linear_end_state(d, A, u0, T, steps):
    """End state of RK4 on u' = A u against expm(T A) u0.

    The allowed distance is twice RK4's own truncation error on this
    problem, R(hA)^N u0 - expm(TA) u0 with R the RK4 polynomial, plus
    rounding.
    """
    from scipy.linalg import expm

    exact = expm(T * A) @ u0
    h = T / steps
    stepped = np.array(u0, dtype=float)
    hA = h * A
    for _ in range(steps):
        k = stepped.copy()
        term = stepped.copy()
        for j in range(1, 5):
            term = hA @ term / j
            k = k + term
        stepped = k
    trunc = float(np.linalg.norm(stepped - exact))
    err = float(np.linalg.norm(np.asarray(d["end"]) - exact))
    limit = 2.0 * trunc + 1e-10 * float(np.linalg.norm(u0))
    if not err <= limit:
        return [f"end state: {err:.3e} from expm (allowed {limit:.3e})"]
    return []


def check_mass(d, u0, h):
    return close("mass", d["mass"], h * np.sum(u0), 0.0, 1e-12 * (1.0 + h * np.abs(u0).sum()))


def check_rd_2d(d, n, lengths, alpha, u0, T, steps):
    """2-d Dirichlet diffusion in the sine basis: each mode (i, j) decays by
    exp(T alpha (lx_i + ly_j)).  The allowed distance is twice RK4's own
    truncation error, computed mode by mode, plus rounding."""
    Sx, Sy = sine_basis(n[0]), sine_basis(n[1])
    hx, hy = lengths[0] / (n[0] + 1), lengths[1] / (n[1] + 1)
    lx = -(4.0 / hx**2) * np.sin(np.arange(1, n[0] + 1) * np.pi / (2 * (n[0] + 1))) ** 2
    ly = -(4.0 / hy**2) * np.sin(np.arange(1, n[1] + 1) * np.pi / (2 * (n[1] + 1))) ** 2
    lam = alpha * (lx[:, None] + ly[None, :])
    modes = Sx @ np.asarray(u0).reshape(n) @ Sy
    exact = Sx @ (np.exp(T * lam) * modes) @ Sy
    trunc = float(np.linalg.norm((rk4_factor(T / steps * lam) ** steps - np.exp(T * lam)) * modes))
    err = float(np.linalg.norm(np.asarray(d["end"]).reshape(n) - exact))
    limit = 2.0 * trunc + 1e-10 * float(np.linalg.norm(u0))
    if not err <= limit:
        return [f"2-d end state: {err:.3e} from the exact sine-basis solution (allowed {limit:.3e})"]
    return []


def check_verify(d, rate, expect_pass):
    """A certificate at mu (a true bound) must pass; one below the spectral
    abscissa (no envelope can hold) must be refused."""
    out = equal("verdict", d["passed"], expect_pass)
    out += close("claimed rate", d["claimed_rate"], rate, 0.0, 0.0)
    if expect_pass:
        return out + at_most("max violation", d["max_violation"], 0.0)
    return out + at_least("max violation", d["max_violation"], 1e-6)


def check_fixed_point(d, h, tol, first):
    """Residual of Lap u + tanh u recomputed with the stencil; every start
    must reach the solution the first start reached (kept in ``first``)."""
    u = np.asarray(d["u"])
    res = float(np.linalg.norm(stencil_laplacian(u, h) + np.tanh(u)))
    out = equal("converged", d["converged"], True) + at_most("stencil residual", res, tol, 1e-12)
    if not first:
        first.append(u.copy())
    return out + close("agreement between starts", u, first[0], 0.0, 1e-6)


def check_linear_solve(d, L, b):
    """Constant forcing: the fixed point of Lu + b solves Lu = -b."""
    want = np.linalg.solve(L, -b)
    return equal("converged", d["converged"], True) + close("solution", d["u"], want, 1e-7)


def dual_map(v, p):
    """l^p duality map ||v||^(2-p) |v|^(p-1) sgn(v)."""
    if p == 2.0:
        return np.array(v, dtype=float)
    nv = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
    if nv == 0.0:
        return np.zeros_like(v)
    return nv ** (2.0 - p) * np.abs(v) ** (p - 1.0) * np.sign(v)


def mirror_reference(K, y, p, alpha, steps, u0):
    """Mirror descent re-derived: predictions pair the state with the
    duality-mapped features, the dual state takes Euler steps, the primal
    state is read back through the conjugate duality map."""
    q = p / (p - 1.0)
    D = np.array([dual_map(k, p) for k in K])
    u = np.array(u0, dtype=float)
    ustar = dual_map(u, p)
    risks = []
    for k in range(steps + 1):
        r = D @ u - y
        risks.append(0.5 * float(r @ r))
        if k == steps:
            break
        ustar = ustar - alpha * (D.T @ r)
        u = dual_map(ustar, q)
    return u, np.array(risks)


def gradient_descent(K, y, alpha, steps, u0):
    """Plain least-squares gradient descent and its risk series; mirror
    descent at p=2 is this."""
    u = np.array(u0, dtype=float)
    risks = []
    for k in range(steps + 1):
        r = K @ u - y
        risks.append(0.5 * float(r @ r))
        if k < steps:
            u = u - alpha * (K.T @ r)
    return u, np.array(risks)


def check_mirror(d, K, y, p, alpha, steps, u0):
    if p == 2.0:
        want_u, want_risks = gradient_descent(K, y, alpha, steps, u0)
    else:
        want_u, want_risks = mirror_reference(K, y, p, alpha, steps, u0)
    out = close("state", d["u"], want_u, 1e-9, 1e-12)
    if "risks" in d:
        out += close("risk series", d["risks"], want_risks, 1e-9, 1e-12)
    return out
