"""Exact rates in stacked l2 norms.

At p=2 the stacked norm ||u||^2 = sum_j ||D_j u||^2 is ||Su||_2 with
S = [I; D_1; ...; D_k], and with S = QR it is the weighted norm ||Ru||_2.
So an affine field's rate is the closed form mu_2(R A R^-1), and
operator_rate, integral_rate and sobolev_rate give the same eigen-exact
number.  The periodic Laplacian commutes with every difference operator,
so its stacked rates are known exactly at every order: 0 for L (the
constant mode) and -1 for L - I; on mean-zero states, the spectral gap.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

from sipkit.measures import Ball, DomainSampler, VectorField, differential_rate, integral_rate, operator_rate
from sipkit.pdelab import Grid1D, SobolevSpec, build_laplacian, mass_zero_basis, poincare_rate, sobolev_rate

_BCS = ("periodic", "dirichlet", "neumann")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_periodic_laplacian_sobolev_rates_are_exact(k):
    g = Grid1D(64, "periodic")
    L = build_laplacian(g)
    sob = SobolevSpec(k=k)
    heat = sobolev_rate(VectorField.linear(L), g, sob)
    damped = sobolev_rate(VectorField.linear(L - np.eye(64)), g, sob)
    assert abs(heat.value) <= 1e-6
    assert abs(damped.value + 1.0) <= 1e-6
    assert heat.kind == damped.kind == "eigen-exact"


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_mass_zero_sobolev_rate_is_the_spectral_gap(k):
    g = Grid1D(64, "periodic")
    gap = poincare_rate(g).value
    est = sobolev_rate(VectorField.linear(build_laplacian(g)), g, SobolevSpec(k=k), mass_zero=True)
    assert est.kind == "eigen-exact"
    assert est.value == pytest.approx(gap, rel=1e-6)


def _fields(n):
    rng = np.random.default_rng(n)
    yield rng.normal(size=(n, n)) - np.eye(n)
    for bc in _BCS:
        yield build_laplacian(Grid1D(n, bc)) + rng.normal(size=(n, n))


@pytest.mark.parametrize("bc", _BCS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_l2_routes_agree(bc, k):
    n = 12
    g = Grid1D(n, bc)
    sob = SobolevSpec(k=k)
    spec = sob.norm_spec(g)
    sampler = DomainSampler(Ball(np.zeros(n), 1.0), count=10, seed=2)
    for A in _fields(n):
        want = operator_rate(A, spec)
        assert want.kind == "eigen-exact"
        f = VectorField.linear(A, b=np.ones(n))
        for got in (integral_rate(f, sampler, spec), sobolev_rate(f, g, sob), sobolev_rate(f, g, sob, sampler)):
            assert got == want


def _generalized_reference(A, S, V=None):
    """Top eigenvalue of sym(S^T S A) against the Gram matrix S^T S,
    compressed to range(V) when V is given."""
    G = S.T @ S
    M = G @ A
    H = (M + M.T) / 2.0
    if V is not None:
        H, G = V.T @ H @ V, V.T @ G @ V
    return float(eigh(H, G, eigvals_only=True)[-1])


@pytest.mark.parametrize("bc", _BCS)
@pytest.mark.parametrize("n", [8, 16])
def test_stacked_l2_rate_matches_the_generalized_eigenproblem(bc, n):
    g = Grid1D(n, bc)
    for k in (0, 1):
        sob = SobolevSpec(k=k)
        S = np.vstack([np.eye(n), *(sob.norm_spec(g).stack or ())])
        for A in _fields(n):
            scale = 1.0 + np.abs(A).max()
            f = VectorField.linear(A)
            assert sobolev_rate(f, g, sob).value == pytest.approx(_generalized_reference(A, S), abs=1e-9 * scale)
            want = _generalized_reference(A, S, mass_zero_basis(n))
            assert sobolev_rate(f, g, sob, mass_zero=True).value == pytest.approx(want, abs=1e-9 * scale)


def test_stacked_specs_off_p2_stay_sampled():
    g = Grid1D(12, "periodic")
    A = build_laplacian(g)
    for p in (1.0, 3.0, math.inf):
        assert operator_rate(A, SobolevSpec(k=1, p=p).norm_spec(g), samples=16).kind == "sampled-lower-bound"


def test_stacked_spec_factors_its_stack_once(monkeypatch):
    g = Grid1D(16, "periodic")
    L = build_laplacian(g)
    spec = SobolevSpec(k=2).norm_spec(g)
    f = VectorField.autonomous(lambda u: L @ u - u**3, 16, jac=lambda u: L - np.diag(3.0 * u**2))
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
    est = differential_rate(f, DomainSampler(Ball(tuple(np.zeros(16)), 1.0), count=12), spec, ascent_starts=1)
    assert len(calls) == 1
    assert est.ascent_iters > 0
