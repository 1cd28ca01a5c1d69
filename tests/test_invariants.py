import dataclasses
import json
import math

import numpy as np
import pytest

from sipkit.errors import (
    DegenerateArgumentError,
    DegenerateProjectionError,
    DimensionError,
    RegularityError,
    SymmetryError,
)
from sipkit.flows import Trajectory, integrate
from sipkit.invariants import (
    DiffeoSymmetry,
    LinearSymmetry,
    ManifoldSpec,
    SubspaceSpec,
    equivariance_residual,
    limit_cycle_certificate,
    manifold_certificate,
    newton_project,
    set_distance_decay,
    spatiotemporal_residual,
    subspace_certificate,
)
from sipkit.measures import Ball, Box, DomainSampler, Points, Sphere, VectorField
from sipkit.spaces import NormSpec, norm, sip


def box_sampler(lo, hi, count=40, seed=1):
    return DomainSampler(Box(np.asarray(lo, float), np.asarray(hi, float)), count=count, seed=seed)


def hopf_field(omega=3.0):
    def g(t, u):
        r2 = u[0] ** 2 + u[1] ** 2
        return np.array([u[0] * (1 - r2) - omega * u[1], u[1] * (1 - r2) + omega * u[0]])

    return VectorField(g, 2, name="hopf")


def circle_manifold():
    return ManifoldSpec(
        phi=lambda u: np.array([u[0] ** 2 + u[1] ** 2 - 1.0]),
        dim=2,
        codim=1,
        dphi=lambda u: np.array([[2.0 * u[0], 2.0 * u[1]]]),
    )


# ------------------------------------------------------------ subspaces


def test_subspace_exact_rates_linear_axis():
    # axis e1 is invariant for the triangular field; transverse rate is -2
    A = np.array([[-1.0, 1.0], [0.0, -2.0]])
    f = VectorField.linear(A)
    sub = SubspaceSpec(np.diag([1.0, 0.0]))
    samp = box_sampler([-2, -2], [2, 2])
    for p, kind in ((1.0, "exact-closed-form"), (2.0, "eigen-exact"), (math.inf, "exact-closed-form")):
        rep = subspace_certificate(f, sub, samp, NormSpec(p=p))
        assert rep.invariance_residual == 0.0
        assert rep.rate.kind == kind
        assert abs(rep.rate.value - (-2.0)) < 1e-12
        assert rep.passed


def test_subspace_sampled_rate_tracks_exact():
    A = np.array([[-1.0, 1.0], [0.0, -2.0]])
    f = VectorField.linear(A)
    sub = SubspaceSpec(np.diag([1.0, 0.0]))
    samp = box_sampler([-2, -2], [2, 2])
    rep = subspace_certificate(f, sub, samp, NormSpec(p=3.0))
    assert rep.rate.kind == "sampled-lower-bound"
    # one-dimensional complement: every direction gives the scalar rate -2
    assert abs(rep.rate.value - (-2.0)) < 1e-9
    assert rep.passed


def test_subspace_invariance_failure_detected():
    # lower-triangular coupling pushes flow off the e1 axis
    B = np.array([[-1.0, 0.0], [1.0, -2.0]])
    sub = SubspaceSpec(np.diag([1.0, 0.0]))
    rep = subspace_certificate(VectorField.linear(B), sub, box_sampler([-2, -2], [2, 2]))
    assert rep.invariance_residual > 0.5
    assert not rep.passed


def test_subspace_nonlinear_field_sampled():
    # e1 axis invariant, transverse quotient -2 - 3*u1^2 with sup -2 at u1 = 0
    def g(u):
        return np.array([-u[0] + u[1] ** 2, -2.0 * u[1] - u[1] ** 3])

    f = VectorField.autonomous(g, 2)
    sub = SubspaceSpec(np.diag([1.0, 0.0]))
    rep = subspace_certificate(f, sub, box_sampler([-1, -1], [1, 1], count=60))
    assert rep.invariance_residual <= 1e-10
    assert rep.rate.value <= -2.0 + 1e-4
    assert rep.rate.value >= -2.2
    assert rep.passed


def test_subspace_random_linear_two_routes():
    # the closed rate of the affine matrix against the state-by-state
    # route of the same field left non-affine (finite-difference
    # Jacobians, sampled over states): its Jacobian is the same at every
    # state, so the two agree to the differencing error
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 5)
        A = rng.normal(size=(n, n))
        V = np.linalg.qr(rng.normal(size=(n, n)))[0][:, : rng.integers(1, n)]
        P = V @ V.T
        sub = SubspaceSpec(P)
        samp = DomainSampler(Ball(np.zeros(n), 1.0), count=10, seed=int(rng.integers(1e6)))
        exact = subspace_certificate(VectorField.linear(A), sub, samp, NormSpec(p=2.0)).rate
        sampled = subspace_certificate(VectorField(lambda t, u: A @ u, n), sub, samp, NormSpec(p=2.0)).rate
        assert exact.kind == "eigen-exact"
        assert sampled.kind == "sampled-lower-bound"
        assert sampled.value == pytest.approx(exact.value, rel=1e-7, abs=1e-7)


def test_subspace_coordinate_compression_p1_pinf():
    rng = np.random.default_rng(11)
    from sipkit.measures import lognorm_closed

    for _ in range(20):
        n = 5
        A = rng.normal(size=(n, n))
        keep = np.zeros(n)
        idx = rng.choice(n, size=2, replace=False)
        keep[idx] = 1.0
        sub = SubspaceSpec(np.diag(1.0 - keep))  # complement = chosen coordinates
        f = VectorField.linear(A)
        samp = DomainSampler(Ball(np.zeros(n), 1.0), count=5, seed=3)
        for p in (1.0, math.inf):
            rep = subspace_certificate(f, sub, samp, NormSpec(p=p))
            want = lognorm_closed(A[np.ix_(sorted(idx), sorted(idx))], p).value
            assert abs(rep.rate.value - want) < 1e-12


def _transverse_tanh_field(rng, keep, normal):
    """f = keep (-y1 + tanh(C y1)) + normal (K y2 + 0.8 tanh(N y2) (1 + 0.5 sin sum y1)),
    y1 = keep^T u and y2 = normal^T u, for orthonormal column blocks keep
    and normal; range(keep) is invariant.  Returns the field (finite-
    difference Jacobian) and the exact transverse block u -> d(y2')/d(y2)."""
    k, m = keep.shape[1], normal.shape[1]
    K = -np.eye(m) + 0.9 * rng.normal(size=(m, m)) / math.sqrt(m)
    N = rng.normal(size=(m, m)) / math.sqrt(m)
    C = rng.normal(size=(k, k))

    def g(u):
        y1, y2 = keep.T @ u, normal.T @ u
        y2_dot = K @ y2 + 0.8 * np.tanh(N @ y2) * (1.0 + 0.5 * np.sin(y1.sum()))
        return keep @ (-y1 + np.tanh(C @ y1)) + normal @ y2_dot

    def transverse(u):
        y1, y2 = keep.T @ u, normal.T @ u
        return K + 0.8 * (1.0 + 0.5 * np.sin(y1.sum())) * (1.0 - np.tanh(N @ y2) ** 2)[:, None] * N

    return VectorField.autonomous(g, keep.shape[0]), transverse


def test_subspace_nonlinear_p2_rate_bounds_every_sweep_point():
    # the transverse rate at u is the top eigenvalue of sym(W^T J(u) W),
    # which is +0.212 at one of the 40 sweep points; the certificate's
    # rate must bound it there and refuse
    rng = np.random.default_rng(0)
    VW = np.linalg.qr(rng.normal(size=(10, 10)))[0]
    V, W = VW[:, :3], VW[:, 3:]
    f, transverse = _transverse_tanh_field(rng, V, W)
    sampler = DomainSampler(Ball(np.zeros(10), 2.0), count=40, seed=1)
    rep = subspace_certificate(f, SubspaceSpec(V @ V.T), sampler, NormSpec(p=2.0))
    worst = max(np.linalg.eigvalsh((M + M.T) / 2.0)[-1] for M in map(transverse, sampler.points()))
    assert rep.invariance_residual <= 1e-12
    assert worst > 0.2
    assert rep.rate.value >= worst - 1e-7
    assert rep.rate.samples == 40
    assert not rep.passed


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_subspace_nonlinear_coordinate_rate_bounds_every_sweep_point(p):
    # complement = coordinates 1 and 3: the rate at u is mu_p of J(u)[idx, idx]
    idx, rest = [1, 3], [0, 2, 4]
    E = np.eye(5)
    f, transverse = _transverse_tanh_field(np.random.default_rng(0), E[:, rest], E[:, idx])
    sampler = DomainSampler(Ball(np.zeros(5), 2.0), count=40, seed=1)
    rep = subspace_certificate(f, SubspaceSpec(np.diag([1.0, 0.0, 1.0, 0.0, 1.0])), sampler, NormSpec(p=p))
    assert rep.invariance_residual == 0.0
    axis = 1 if p == math.inf else 0
    for u in sampler.points():
        M = transverse(u)
        mu = (np.diag(M) + np.abs(M).sum(axis=axis) - np.abs(np.diag(M))).max()
        assert rep.rate.value >= mu - 1e-7


def test_subspace_weighted_p2_affine_rate_is_exact():
    # ||Q x|| = ||Theta W e||_2 = ||R_W e||_2 for e = W^T x and Theta W = Q_W R_W
    rng = np.random.default_rng(3)
    for _ in range(5):
        n, k = 6, 2
        U = np.linalg.qr(rng.normal(size=(n, n)))[0]
        M = rng.normal(size=(n, n))
        M[k:, :k] = 0.0
        A, V, W = U @ M @ U.T, U[:, :k], U[:, k:]
        theta = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        samp = DomainSampler(Ball(np.zeros(n), 1.0), count=5, seed=2)
        rep = subspace_certificate(VectorField.linear(A), SubspaceSpec(V @ V.T), samp, NormSpec(p=2.0, weight=theta))
        R_W = np.linalg.qr(theta @ W, mode="r")
        C = R_W @ (W.T @ A @ W) @ np.linalg.inv(R_W)
        assert rep.rate.kind == "eigen-exact"
        assert rep.rate.value == pytest.approx(np.linalg.eigvalsh((C + C.T) / 2.0)[-1], rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("weighted", [False, True])
def test_subspace_line_complement_rate_off_p2(p, weighted):
    # a one-dimensional complement span(w) that is not a coordinate axis:
    # e = w^T x is measured as ||w e||, a tall coordinate map, so the rate
    # is sampled; on a line every direction gives the scalar w^T A w
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    M = rng.normal(size=(3, 3))
    M[2, :2] = 0.0
    A, V = U @ M @ U.T, U[:, :2]
    spec = NormSpec(p=p, weight=np.eye(3) + 0.2 * rng.normal(size=(3, 3)) if weighted else None)
    samp = DomainSampler(Ball(np.zeros(3), 1.0), count=5, seed=2)
    rep = subspace_certificate(VectorField.linear(A), SubspaceSpec(V @ V.T), samp, spec)
    assert rep.rate.kind == "sampled-lower-bound"
    assert rep.rate.value == pytest.approx(M[2, 2], rel=1e-12, abs=1e-12)


def test_subspace_projection_validation():
    with pytest.raises(DegenerateArgumentError):
        SubspaceSpec(np.array([[1.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(DimensionError):
        SubspaceSpec(np.ones((2, 3)))
    sub = SubspaceSpec(np.eye(2))
    with pytest.raises(DegenerateProjectionError):
        subspace_certificate(
            VectorField.linear(-np.eye(2)), sub, box_sampler([-1, -1], [1, 1])
        )
    with pytest.raises(DimensionError, match="projection and field dimensions differ"):
        subspace_certificate(
            VectorField.linear(-np.eye(3)), SubspaceSpec(np.diag([1.0, 0.0])), box_sampler([-1] * 3, [1] * 3)
        )


# ------------------------------------------------------------ manifolds


def test_newton_projection_accuracy():
    man = circle_manifold()
    z = newton_project(man, np.array([2.0, 0.0]))
    assert abs(np.linalg.norm(z) - 1.0) < 1e-12
    z2 = newton_project(man, np.array([0.3, -0.4]))
    assert abs(np.linalg.norm(z2) - 1.0) < 1e-10


def test_manifold_spec_refuses_a_constraint_of_the_wrong_shape():
    u = np.array([0.3, -0.2])
    with pytest.raises(DimensionError, match=r"constraint returned shape \(2,\), expected \(1,\)"):
        ManifoldSpec(lambda v: v, dim=2, codim=1).value(u)
    with pytest.raises(DimensionError, match=r"constraint jacobian has shape \(2, 2\)"):
        ManifoldSpec(lambda v: np.array([v @ v]), dim=2, codim=1, dphi=lambda v: np.eye(2)).jacobian(u)


def test_newton_projection_without_a_zero_set_is_refused():
    # u.u + 1 never vanishes: the iterations end short of the zero set
    man = ManifoldSpec(lambda u: np.array([u @ u + 1.0]), dim=2, codim=1)
    with pytest.raises(RegularityError, match="did not converge"):
        newton_project(man, np.array([0.3, -0.2]))


def test_manifold_certificate_circle():
    gf = hopf_field()
    man = circle_manifold()
    seeds = DomainSampler(Sphere(np.zeros(2), 1.3), count=12, seed=2)
    amb = DomainSampler(Sphere(np.zeros(2), 1.0), count=30, seed=3)
    rep = manifold_certificate(gf, man, seeds, amb)
    assert rep.tangency_residual <= 1e-10
    assert abs(rep.rate.value - (-2.0)) < 1e-6
    assert rep.min_singular_value > 1.0
    assert rep.zero_points == 12
    assert rep.passed


def test_manifold_tangency_failure():
    # radial drift through the circle: phi' f = 2 r^2 (1 - r^2) + 2 r^2 * 0.5 on r=1
    def g(t, u):
        r2 = u[0] ** 2 + u[1] ** 2
        return np.array([u[0] * (1 - r2) + 0.5 * u[0], u[1] * (1 - r2) + 0.5 * u[1]])

    gf = VectorField(g, 2)
    man = circle_manifold()
    seeds = DomainSampler(Sphere(np.zeros(2), 1.3), count=8, seed=2)
    amb = DomainSampler(Sphere(np.zeros(2), 1.0), count=20, seed=3)
    rep = manifold_certificate(gf, man, seeds, amb)
    assert rep.tangency_residual > 0.5
    assert not rep.passed


def test_manifold_regularity_error():
    # duplicated constraint rows make Dphi rank deficient everywhere
    man = ManifoldSpec(
        phi=lambda u: np.array([u[0] - u[1], u[0] - u[1]]),
        dim=2,
        codim=2,
        dphi=lambda u: np.array([[1.0, -1.0], [1.0, -1.0]]),
    )
    f = VectorField.linear(-np.eye(2))
    seeds = box_sampler([-1, -1], [1, 1], count=4)
    amb = box_sampler([-1, -1], [1, 1], count=4, seed=9)
    with pytest.raises(RegularityError):
        manifold_certificate(f, man, seeds, amb)


def test_manifold_linear_constraint_two_routes():
    # linear constraint Cu = 0 with linear field: the constraint-weighted
    # quotient is the Rayleigh quotient of sym(C A C^+), eigen oracle
    rng = np.random.default_rng(13)
    for _ in range(15):
        n, m = 4, 2
        C = rng.normal(size=(m, n))
        A_mat = rng.normal(size=(n, n))
        man = ManifoldSpec(phi=lambda u, C=C: C @ u, dim=n, codim=m, dphi=lambda u, C=C: C)
        f = VectorField.linear(A_mat)
        seeds = DomainSampler(Ball(np.zeros(n), 1.0), count=4, seed=5)
        amb = DomainSampler(Ball(np.zeros(n), 1.0), count=6, seed=6)
        rep = manifold_certificate(f, man, seeds, amb)
        M = C @ A_mat @ np.linalg.pinv(C)
        want = float(np.linalg.eigvalsh((M + M.T) / 2.0)[-1])
        assert rep.rate.value <= want + 1e-9
        assert want - rep.rate.value <= 0.3


def test_manifold_projection_consistency_with_subspace():
    # the subspace certificate and the constraint certificate describe the
    # same structure when phi(u) = Q u; rates must agree
    A = np.array([[-1.0, 1.0], [0.0, -2.0]])
    f = VectorField.linear(A)
    Q = np.diag([0.0, 1.0])
    sub = SubspaceSpec(np.eye(2) - Q)
    man = ManifoldSpec(phi=lambda u: np.array([u[1]]), dim=2, codim=1, dphi=lambda u: np.array([[0.0, 1.0]]))
    samp = box_sampler([-2, -2], [2, 2])
    seeds = box_sampler([-2, -2], [2, 2], count=6, seed=8)
    r1 = subspace_certificate(f, sub, samp, NormSpec(p=2.0)).rate.value
    r2 = manifold_certificate(f, man, seeds, samp, NormSpec(p=2.0)).rate.value
    assert abs(r1 - r2) < 1e-9


def test_manifold_codim7_rate_bounds_every_sweep_point():
    # phi(u) = W^T u: the constraint rate at u is the top eigenvalue of
    # sym(W^T J(u) W); 16 fixed codomain directions per state read -0.338
    # here and passed, while one of the 40 sweep points has +0.764
    rng = np.random.default_rng(1)
    VW = np.linalg.qr(rng.normal(size=(10, 10)))[0]
    V, W = VW[:, :3], VW[:, 3:]
    f, transverse = _transverse_tanh_field(rng, V, W)
    man = ManifoldSpec(phi=lambda u: W.T @ u, dim=10, codim=7, dphi=lambda u: W.T)
    seeds = DomainSampler(Ball(np.zeros(10), 2.0), count=12, seed=2)
    amb = DomainSampler(Ball(np.zeros(10), 2.0), count=40, seed=1)
    rep = manifold_certificate(f, man, seeds, amb)
    worst = max(np.linalg.eigvalsh((M + M.T) / 2.0)[-1] for M in map(transverse, amb.points()))
    assert worst > 0.7
    assert rep.rate.value >= worst - 1e-6
    assert rep.rate.samples == 40
    assert not rep.passed


def _skewed_codim2():
    """A field on R^3 with its Jacobian, and two constraints with theirs."""

    def g(t, v):
        return np.array([-v[0] + np.sin(v[1]), -2 * v[1] + v[0] * v[2], -v[2] + 0.3 * v[0]])

    def jac(t, v):
        return np.array([[-1.0, np.cos(v[1]), 0.0], [v[2], -2.0, v[0]], [0.3, 0.0, -1.0]])

    man = ManifoldSpec(
        phi=lambda v: np.array([v @ v - 1.0, v[0] * v[2] - np.sin(v[1])]),
        dim=3,
        codim=2,
        dphi=lambda v: np.array([2.0 * v, [v[2], -np.cos(v[1]), v[0]]]),
    )
    return VectorField(g, 3, jac=jac), man


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_manifold_rate_on_a_point_list_is_the_closed_compressed_rate(p):
    # no ascent on a point list: the rate is the largest closed log norm
    # of Dphi J Dphi^+ over the listed states, exact over directions
    from sipkit.measures import lognorm_closed

    f, man = _skewed_codim2()
    listed = np.random.default_rng(4).uniform(-1.0, 1.0, size=(8, 3))
    amb = DomainSampler(Points(listed), count=8)
    seeds = DomainSampler(Ball(np.zeros(3), 1.2), count=5, seed=1)
    rep = manifold_certificate(f, man, seeds, amb, NormSpec(p=p))
    want = max(
        lognorm_closed(man.jacobian(u) @ f.jacobian(0.0, u) @ np.linalg.pinv(man.jacobian(u)), p).value
        for u in listed
    )
    assert (rep.rate.samples, rep.rate.ascent_iters) == (8, 0)
    assert rep.rate.value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_manifold_rate_skips_states_where_the_constraint_is_blind():
    # Dphi = 2u vanishes at the origin, which carries no constraint rate
    seeds = DomainSampler(Sphere(np.zeros(2), 1.3), count=6, seed=2)
    amb = DomainSampler(Points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), count=3)
    rate = manifold_certificate(hopf_field(), circle_manifold(), seeds, amb).rate
    assert rate.samples == 2
    assert abs(rate.value - (-2.0)) < 1e-6
    blind = DomainSampler(Points([[0.0, 0.0]]), count=2)
    with pytest.raises(DegenerateProjectionError) as err:
        manifold_certificate(hopf_field(), circle_manifold(), seeds, blind)
    assert "probe" not in str(err.value)


def test_sampled_certificate_rates_pinned():
    # (samples, ascent_iters, value) at fixed seeds, recorded from the
    # per-probe implementation (one scalar sip call per probe direction and
    # one scalar objective call per gradient coordinate) at commit 694cde0,
    # before these rates moved onto the batched sampling engine; the engine must take the same
    # probes and ascent steps.  samples count states since both rates are
    # inner log norms of compressions, exact over directions.
    def g(u):
        return np.array([-u[0] + u[1] ** 2, -2.0 * u[1] - u[1] ** 3])

    sub = SubspaceSpec(np.diag([1.0, 0.0]))
    samp = box_sampler([-1, -1], [1, 1], count=30, seed=11)
    rate = subspace_certificate(VectorField.autonomous(g, 2), sub, samp, NormSpec(p=3.0)).rate
    assert (rate.kind, rate.samples, rate.ascent_iters) == ("sampled-lower-bound", 30, 50)
    assert rate.value == pytest.approx(-2.0000000000010223, rel=1e-8)

    seeds = DomainSampler(Sphere(np.zeros(2), 1.3), count=6, seed=2)
    amb = DomainSampler(Ball(np.zeros(2), 1.5), count=20, seed=4)
    rate = manifold_certificate(hopf_field(), circle_manifold(), seeds, amb).rate
    assert (rate.kind, rate.samples, rate.ascent_iters) == ("sampled-lower-bound", 20, 50)
    assert rate.value == pytest.approx(0.9999999998961467, rel=1e-8)


# ----------------------------------------------------------- symmetries


def test_equivariance_rotation_of_rotational_field():
    gf = hopf_field()
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    samp = DomainSampler(Ball(np.zeros(2), 1.5), count=50, seed=4)
    assert equivariance_residual(gf, LinearSymmetry(R), samp) <= 1e-12


def test_equivariance_violation_detected():
    f = VectorField.linear(np.diag([-1.0, -2.0]))
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    samp = DomainSampler(Ball(np.zeros(2), 1.5), count=50, seed=4)
    assert equivariance_residual(f, LinearSymmetry(R), samp) > 0.1


def test_equivariance_diffeo_finite_difference_push():
    # scaling commutes with any linear field; push-forward taken by
    # finite differences when no derivative is supplied
    f = VectorField.linear(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    sym = DiffeoSymmetry(h=lambda u: 2.0 * u)
    samp = DomainSampler(Ball(np.zeros(2), 1.0), count=30, seed=5)
    assert equivariance_residual(f, sym, samp) <= 1e-7


def test_spatiotemporal_rotating_drive():
    # quarter-turn spatial shift compensates a quarter-period time shift
    def fd(t, u):
        return -u + np.array([np.cos(t), np.sin(t)])

    fdf = VectorField(fd, 2)
    dt = np.pi / 2
    T = np.array([[np.cos(dt), np.sin(dt)], [-np.sin(dt), np.cos(dt)]])
    samp = DomainSampler(Ball(np.zeros(2), 1.5), count=30, seed=6)
    res = spatiotemporal_residual(fdf, T, dt, 4, samp, times=(0.0, 0.3, 1.7))
    assert res <= 1e-12


def test_spatiotemporal_requires_root_of_identity():
    def fd(t, u):
        return -u

    fdf = VectorField(fd, 2)
    T = np.array([[0.0, 1.0], [-1.0, 0.0]])
    samp = DomainSampler(Ball(np.zeros(2), 1.0), count=5, seed=6)
    with pytest.raises(SymmetryError):
        spatiotemporal_residual(fdf, T, 0.1, 3, samp)
    with pytest.raises(DegenerateArgumentError):
        spatiotemporal_residual(fdf, T, 0.1, 0, samp)


# --------------------------------------------------------- limit cycles


def test_limit_cycle_certificate_hopf():
    gf = hopf_field(omega=3.0)
    man = circle_manifold()
    amb = DomainSampler(Sphere(np.zeros(2), 1.0), count=30, seed=3)
    theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    loop = np.c_[np.cos(theta), np.sin(theta)]
    rep = limit_cycle_certificate(gf, man, period=2 * np.pi / 3.0, loop_points=loop, ambient_sampler=amb)
    assert rep.tangency_residual <= 1e-10
    assert abs(rep.rate.value - (-2.0)) < 1e-6
    assert rep.periodicity_residual <= 1e-10
    assert abs(rep.min_speed - 3.0) < 1e-10
    assert rep.passed


def test_constraint_rates_carry_plain_ints():
    # a sampled constraint rate must serialise like every other rate
    man = circle_manifold()
    amb = DomainSampler(Sphere(np.zeros(2), 1.0), count=30, seed=3)
    seeds = DomainSampler(Sphere(np.zeros(2), 1.3), count=12, seed=2)
    theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    loop = np.c_[np.cos(theta), np.sin(theta)]
    reps = [
        manifold_certificate(hopf_field(), man, seeds, amb),
        limit_cycle_certificate(hopf_field(), man, period=2 * np.pi / 3.0, loop_points=loop, ambient_sampler=amb),
    ]
    for rep in reps:
        assert type(rep.rate.samples) is int
        assert type(rep.rate.ascent_iters) is int
        json.dumps(dataclasses.asdict(rep.rate))


def test_limit_cycle_speed_floor_fails_gradient_field():
    # purely radial field: circle is invariant and attracting but motion
    # on it stalls, so no periodic orbit certificate
    def g(t, u):
        r2 = u[0] ** 2 + u[1] ** 2
        return np.array([u[0] * (1 - r2), u[1] * (1 - r2)])

    gf = VectorField(g, 2)
    man = circle_manifold()
    amb = DomainSampler(Sphere(np.zeros(2), 1.0), count=20, seed=3)
    theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    loop = np.c_[np.cos(theta), np.sin(theta)]
    rep = limit_cycle_certificate(gf, man, period=1.0, loop_points=loop, ambient_sampler=amb)
    assert rep.tangency_residual <= 1e-10
    assert rep.rate.value < 0
    assert rep.min_speed <= 1e-8
    assert not rep.passed


def test_limit_cycle_period_validation():
    gf = hopf_field()
    man = circle_manifold()
    amb = DomainSampler(Sphere(np.zeros(2), 1.0), count=5, seed=3)
    with pytest.raises(DegenerateArgumentError):
        limit_cycle_certificate(gf, man, period=0.0, loop_points=[[1.0, 0.0]], ambient_sampler=amb)


# ------------------------------------------------------- distance decay


def test_set_distance_decay_hopf_radius():
    gf = hopf_field()
    tr = integrate(gf, np.array([1.6, 0.0]), (0.0, 4.0), 1e-3)
    fit = set_distance_decay(tr, lambda s: abs(np.hypot(s[0], s[1]) - 1.0))
    # linearized radial rate at the circle is -2; transient is faster
    assert fit.rate <= -1.9
    assert not fit.floored
    assert fit.monotonicity_violations == 0
    assert fit.samples == len(tr.times)


def test_set_distance_decay_floored_sentinel():
    f = VectorField.linear(np.array([[-1.0]]))
    tr = integrate(f, np.array([0.0]), (0.0, 1.0), 1e-2)
    fit = set_distance_decay(tr, lambda s: abs(s[0]))
    assert fit.rate == -math.inf
    assert fit.floored


def test_set_distance_decay_counts_violations():
    times = np.linspace(0.0, 5.0, 200)
    states = (np.exp(-times) * (1.1 + np.cos(8.0 * times)))[:, None]
    tr = Trajectory(times=times, states=states, step=times[1] - times[0])
    fit = set_distance_decay(tr, lambda s: abs(s[0]))
    assert fit.monotonicity_violations > 10
    assert fit.rate < -0.5


def test_set_distance_decay_rejects_negative_oracle():
    f = VectorField.linear(np.array([[-1.0]]))
    tr = integrate(f, np.array([1.0]), (0.0, 1.0), 1e-2)
    with pytest.raises(DegenerateArgumentError):
        set_distance_decay(tr, lambda s: -1.0)


def test_zero_set_jacobian_is_evaluated_once_per_zero_point():
    # the loop lies on the circle, so Newton projection never differentiates
    # there; only the regularity check and the tangency see Dphi at the loop
    from sipkit.measures import Points

    loop = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    on_loop = {z.tobytes() for z in loop}
    calls = []

    def dphi(u):
        calls.append(u.tobytes() in on_loop)
        return np.array([[2.0 * u[0], 2.0 * u[1]]])

    man = ManifoldSpec(phi=lambda u: np.array([u @ u - 1.0]), dim=2, codim=1, dphi=dphi)
    amb = DomainSampler(Box((-1.5, -1.5), (1.5, 1.5)), count=8, seed=3)
    times = (0.0, 0.5, 1.0)
    limit_cycle_certificate(hopf_field(), man, 2 * np.pi / 3.0, loop, amb, times=times)
    assert sum(calls) == len(loop)
    calls.clear()
    manifold_certificate(hopf_field(), man, DomainSampler(Points(loop), count=4), amb, times=times)
    assert sum(calls) == len(loop)
