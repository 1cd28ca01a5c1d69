"""Log norms and rate functionals.

The closed forms are validated against the definitional h-ladder limit
(the independent route) and against brute-force pair grids for the
sampled rate functionals.
"""

import math

import numpy as np
import pytest

from sipkit.errors import (
    ConditioningError,
    DegenerateArgumentError,
    DimensionError,
    EvaluationError,
    UnsupportedNormError,
)
from sipkit.measures import (
    Ball,
    Box,
    DomainSampler,
    Points,
    Sphere,
    VectorField,
    WeightFamily,
    differential_rate,
    integral_rate,
    lognorm_closed,
    lognorm_limit,
    lp_comparison_bound,
    operator_norm,
    operator_rate,
    weighted_rate,
)
from sipkit.spaces import NormSpec

P_CLOSED = (1.0, 2.0, math.inf)


# ------------------------------------------------------------ log norms


def test_lognorm_closed_triangular_example():
    A = np.array([[-2.0, 1.0], [0.0, -3.0]])
    assert lognorm_closed(A, math.inf).value == pytest.approx(-1.0, abs=1e-15)
    assert lognorm_closed(A, 1.0).value == pytest.approx(-2.0, abs=1e-15)


def test_lognorm_closed_p2_is_symmetric_part_eigenvalue():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    H = (A + A.T) / 2.0
    assert lognorm_closed(A, 2.0).value == pytest.approx(np.linalg.eigvalsh(H)[-1], rel=1e-12)


def test_lognorm_closed_rejects_general_p():
    with pytest.raises(UnsupportedNormError):
        lognorm_closed(np.eye(2), 3.0)


def test_lognorm_limit_refuses_a_stacked_norm_off_p2():
    spec = NormSpec(p=3.0, stack=(np.eye(3) - np.eye(3, k=1),))
    with pytest.raises(UnsupportedNormError, match="no square conjugation off p=2"):
        lognorm_limit(-np.eye(3), spec)


def test_lognorm_limit_identity_any_p():
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        est = lognorm_limit(np.eye(3), NormSpec(p=p))
        assert est.value == pytest.approx(1.0, abs=1e-6)


def test_lognorm_closed_matches_limit_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = rng.normal(size=(5, 5))
        for p in P_CLOSED:
            c = lognorm_closed(A, p).value
            l = lognorm_limit(A, NormSpec(p=p)).value
            assert abs(c - l) <= 1e-6


def test_lognorm_shift_homogeneity_subadditivity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        A = rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4))
        c = float(rng.normal())
        a = float(rng.uniform(0.0, 3.0))
        for p in P_CLOSED:
            mu = lambda M: lognorm_closed(M, p).value
            assert mu(A + c * np.eye(4)) == pytest.approx(mu(A) + c, rel=1e-12, abs=1e-12)
            assert mu(a * A) == pytest.approx(a * mu(A), rel=1e-12, abs=1e-12)
            assert mu(A + B) <= mu(A) + mu(B) + 1e-12


def test_lognorm_dominates_spectral_abscissa():
    rng = np.random.default_rng(3)
    for _ in range(100):
        A = rng.normal(size=(5, 5))
        alpha = float(np.max(np.linalg.eigvals(A).real))
        for p in P_CLOSED:
            assert lognorm_closed(A, p).value >= alpha - 1e-10


def test_dissipativity_p2():
    # mu_2(A) <= 0 exactly when every Rayleigh quotient of the symmetric
    # part is <= 0; check both directions with random probes and the
    # extremal eigenvector as witness.
    rng = np.random.default_rng(4)
    for shift in (-3.0, 0.5):
        A = rng.normal(size=(5, 5))
        A = A - (lognorm_closed(A, 2.0).value - shift) * np.eye(5)
        mu = lognorm_closed(A, 2.0).value
        assert mu == pytest.approx(shift, abs=1e-10)
        vs = rng.normal(size=(1000, 5))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        rayleigh = np.einsum("ij,jk,ik->i", vs, (A + A.T) / 2.0, vs)
        assert np.max(rayleigh) <= mu + 1e-12
        if mu <= 0:
            assert np.all(rayleigh <= 1e-12)
        else:
            H = (A + A.T) / 2.0
            w = np.linalg.eigh(H)[1][:, -1]
            assert w @ A @ w > 0


def test_operator_norm_exact_and_sampled():
    A = np.array([[1.0, -2.0], [0.0, 3.0]])
    assert operator_norm(A, 1.0)[0] == pytest.approx(5.0)
    assert operator_norm(A, math.inf)[0] == pytest.approx(3.0)
    assert operator_norm(A, 2.0)[0] == pytest.approx(np.linalg.norm(A, 2))
    val, kind = operator_norm(A, 3.0, seed=5)
    assert kind == "sampled-lower-bound"
    # sampled lower bound, sandwiched by the exact 2 and interpolation
    assert val <= np.linalg.norm(A, 1) ** (1 / 3) * np.linalg.norm(A, math.inf) ** (0) * 6
    assert val >= 3.0  # at least the largest column image it saw


def test_operator_norm_rectangular_block():
    A = np.random.default_rng(31).normal(size=(3, 4))
    for p in P_CLOSED:
        val, kind = operator_norm(A, p)
        assert kind != "sampled-lower-bound"
        assert val == pytest.approx(np.linalg.norm(A, p), rel=1e-12)
        assert operator_norm(A.T, p)[0] == pytest.approx(np.linalg.norm(A.T, p), rel=1e-12)
    val, kind = operator_norm(A, 3.0, seed=2)
    assert kind == "sampled-lower-bound"
    # a lower bound: at least every column's image, at most Riesz-Thorin
    assert val >= (np.abs(A) ** 3).sum(axis=0).max() ** (1 / 3)
    assert val <= np.linalg.norm(A, 1) ** (1 / 3) * np.linalg.norm(A, math.inf) ** (2 / 3)
    with pytest.raises(DimensionError):
        operator_norm(np.ones(3), 1.0)


def test_operator_rate_agrees_with_closed_forms():
    rng = np.random.default_rng(6)
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        for p in P_CLOSED:
            assert operator_rate(A, NormSpec(p=p)).value == pytest.approx(
                lognorm_closed(A, p).value, rel=1e-12, abs=1e-12
            )


def test_operator_rate_sampled_p3_consistent_with_limit():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4))
    spec = NormSpec(p=3.0)
    srate = operator_rate(A, spec, samples=300, seed=1).value
    lrate = lognorm_limit(A, spec, samples=300, seed=1).value
    # both are certified lower bounds of the same supremum computed by
    # independent routes (ascent-refined numerical range vs frozen-probe
    # operator-norm quotients); they must land in the same neighbourhood
    assert abs(srate - lrate) <= 0.2
    # and the interpolation-free sanity cap: mu_3 is below the closed p=1
    # and p=inf values' max
    cap = max(lognorm_closed(A, 1.0).value, lognorm_closed(A, math.inf).value)
    assert srate <= cap + 1e-9


# --------------------------------------------------------- rate functionals


def test_integral_rate_affine_is_exact():
    A = np.array([[-2.0, 1.0], [0.0, -3.0]])
    f = VectorField.linear(A, b=np.array([1.0, -1.0]))
    samp = DomainSampler(Box((-1.0, -1.0), (1.0, 1.0)), count=10, seed=0)
    for p in P_CLOSED:
        est = integral_rate(f, samp, NormSpec(p=p))
        assert est.is_exact
        assert est.value == pytest.approx(lognorm_closed(A, p).value, abs=1e-14)


def _one_route_specs(n):
    """Plain and weighted specs at every p of the grid, and stacked specs
    (first differences on a periodic grid) at p in {2, 3}."""
    from sipkit.pdelab import Grid1D, SobolevSpec

    W = np.eye(n) + 0.3 * np.random.default_rng(4).normal(size=(n, n))
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        yield NormSpec(p=p)
        yield NormSpec(p=p, weight=W)
    for p in (2.0, 3.0):
        yield SobolevSpec(k=1, p=p).norm_spec(Grid1D(n, "periodic"))


def test_affine_rates_are_operator_rate():
    from sipkit.pdelab import Grid1D, fixed_point_solve

    n = 5
    A = np.random.default_rng(11).normal(size=(n, n)) - np.eye(n)
    f = VectorField.linear(A, b=np.ones(n))
    samp = DomainSampler(Ball(np.zeros(n), 1.0), count=20, seed=3)
    for spec in _one_route_specs(n):
        want = operator_rate(A, spec, seed=samp.seed)
        got = [integral_rate(f, samp, spec), differential_rate(f, samp, spec)]
        if spec.weight is not None:
            got.append(weighted_rate(f, spec.weight, NormSpec(p=spec.p), sampler=samp))
        # F(0) = 0 without the offset, so the solve stops at its precheck
        _, rep = fixed_point_solve(VectorField.linear(A), Grid1D(n), spec, sampler=samp, force=True)
        got.append(rep.rate_estimate)
        for est in got:
            assert est == want, spec  # value, kind, samples, ascent_iters and note
    # the default precheck sampler has seed 0, operator_rate's default
    _, rep = fixed_point_solve(VectorField.linear(A), Grid1D(n), NormSpec(p=3.0), force=True)
    assert rep.rate_estimate == operator_rate(A, NormSpec(p=3.0))


def test_integral_rate_cubic_saturates_at_zero():
    f = VectorField.autonomous(lambda u: -(u**3), 1)
    samp = DomainSampler(Box((-1.0,), (1.0,)), count=200, seed=1)
    est = integral_rate(f, samp)
    # brute-force pair grid as reference
    g = np.linspace(-1.0, 1.0, 101)
    uu, vv = np.meshgrid(g, g)
    mask = np.abs(uu - vv) > 1e-9
    quot = -(uu**2 + uu * vv + vv**2)
    grid_best = quot[mask].max()
    assert est.kind == "sampled-lower-bound"
    assert grid_best - 1e-9 <= est.value <= 1e-9


def test_integral_rate_tanh_unit_slope():
    f = VectorField.autonomous(np.tanh, 1)
    samp = DomainSampler(Box((-3.0,), (3.0,)), count=200, seed=1)
    est = integral_rate(f, samp)
    g = np.linspace(-3.0, 3.0, 201)
    uu, vv = np.meshgrid(g, g)
    mask = np.abs(uu - vv) > 1e-9
    du = np.where(mask, uu - vv, 1.0)
    quot = np.where(mask, (np.tanh(uu) - np.tanh(vv)) / du, -np.inf)
    grid_best = quot[mask].max()
    assert grid_best - 1e-9 <= est.value <= 1.0 + 1e-9
    assert est.value == pytest.approx(1.0, abs=1e-2)


def test_integral_below_differential_on_nonlinear_fields():
    rng = np.random.default_rng(8)
    f = VectorField.autonomous(
        lambda u: np.array([-u[0] + 0.5 * math.sin(u[1]), -2.0 * u[1] + 0.3 * u[0] ** 2]), 2
    )
    samp = DomainSampler(Box((-2.0, -2.0), (2.0, 2.0)), count=150, seed=9)
    for p in P_CLOSED:
        spec = NormSpec(p=p)
        ir = integral_rate(f, samp, spec)
        dr = differential_rate(f, samp, spec)
        assert ir.value <= dr.value + 1e-2


def test_differential_rate_affine_and_fd_jacobian():
    A = np.array([[-1.0, 2.0], [0.0, -4.0]])
    f_exact = VectorField.linear(A)
    samp = DomainSampler(Box((-1.0, -1.0), (1.0, 1.0)), count=20, seed=0)
    est = differential_rate(f_exact, samp, NormSpec(p=2.0))
    assert est.is_exact
    # same field with no analytic jacobian: finite differences take over
    f_fd = VectorField(fn=lambda t, u: A @ u, dim=2)
    J = f_fd.jacobian(0.0, np.array([0.3, -0.7]))
    assert np.allclose(J, A, atol=1e-6)
    est_fd = differential_rate(f_fd, samp, NormSpec(p=2.0))
    assert est_fd.value == pytest.approx(est.value, abs=1e-5)


# ------------------------------------------------- sampled-engine pins

# (samples, ascent_iters, value) at fixed seeds, recorded from the
# per-probe implementation (scalar sip/norm calls and one scalar objective
# call per gradient coordinate) at commit 694cde0, before the sampled
# suprema moved onto the batched engine.  The engine evaluates the same
# probes and takes the same ascent steps, so the counts must match exactly
# and the values up to rounding in the row kernels.
_PINNED_A = np.random.default_rng(21).normal(size=(5, 5)) - 1.5 * np.eye(5)
_PINNED_W = np.random.default_rng(22).normal(size=(3, 3))
_BOX3 = Box((-2.0,) * 3, (2.0,) * 3)


def _pinned_tanh_net():
    W = _PINNED_W
    return VectorField(
        fn=lambda t, u: -u + W @ np.tanh(u),
        dim=3,
        jac=lambda t, u: -np.eye(3) + W * (1.0 - np.tanh(u) ** 2)[None, :],
    )


def _assert_pinned(est, samples, ascent_iters, value):
    assert est.kind == "sampled-lower-bound"
    assert (est.samples, est.ascent_iters) == (samples, ascent_iters)
    assert est.value == pytest.approx(value, rel=1e-8)


def test_operator_rate_sampled_pinned():
    diff = np.eye(5, k=1) - np.eye(5)
    cases = (
        (NormSpec(p=1.5), 0.20675264745565353),
        (NormSpec(p=3.0), 0.7151028411037733),
        (NormSpec(p=3.0, stack=(diff,)), 0.7719680786362477),
    )
    for spec, value in cases:
        _assert_pinned(operator_rate(_PINNED_A, spec, seed=4), 200, 50, value)


def test_integral_and_differential_rate_pinned():
    f = _pinned_tanh_net()
    spec = NormSpec(p=3.0)
    est = integral_rate(f, DomainSampler(_BOX3, count=30, seed=5), spec)
    _assert_pinned(est, 30, 250, 0.9190120473872431)
    est = differential_rate(f, DomainSampler(_BOX3, count=8, seed=6), spec, ascent_starts=1)
    _assert_pinned(est, 8, 25, 0.9594020044034365)


def test_weighted_rate_varying_pinned():
    f = VectorField.autonomous(
        lambda u: np.array([-u[0] + 0.5 * math.sin(u[1]), -2.0 * u[1] + 0.3 * u[0] ** 2]), 2
    )
    fam = WeightFamily(theta=lambda t, u: np.array([[1.0 + 0.2 * u[0] ** 2, 0.0], [0.1 * u[1], 1.0]]))
    samp = DomainSampler(Box((-1.0, -1.0), (1.0, 1.0)), count=20, seed=7)
    est = weighted_rate(f, fam, NormSpec(p=2.0), sampler=samp)
    _assert_pinned(est, 20, 50, -0.9212277899052711)


def test_integral_rate_weighted_two_times_pinned():
    W = _PINNED_W
    f = VectorField(fn=lambda t, u: -u + (1.0 + 0.5 * t) * (W @ np.tanh(u)), dim=3)
    spec = NormSpec(p=1.5, weight=np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.4], [0.2, 0.0, 1.5]]))
    sampler = DomainSampler(_BOX3, count=12, seed=8)
    est = integral_rate(f, sampler, spec, times=(0.0, 1.0), ascent_starts=3)
    # recorded with every row of a stack evaluated, repeats included
    assert est.kind == "sampled-lower-bound"
    assert (est.value, est.samples, est.ascent_iters) == (1.1954970943289533, 24, 150)


def test_integral_rate_evaluates_each_state_once_per_stack():
    W = _PINNED_W
    stacks = []

    def fn(t, u):
        stacks[-1].append(u.tobytes())
        return -u + W @ np.tanh(u)

    class Recorded(VectorField):
        def __call__(self, t, u):
            stacks.append([])
            return super().__call__(t, u)

    est = integral_rate(Recorded(fn=fn, dim=3), DomainSampler(_BOX3, count=30, seed=5), NormSpec(p=3.0))
    _assert_pinned(est, 30, 250, 0.9190120473872431)
    assert all(len(set(states)) == len(states) for states in stacks)
    # 60 sweep states and 10 at the 5 ascent starts; in each of the 50
    # lockstep steps a gradient row moves one half of its pair, so each
    # half-stack's 5 x 6 rows hold 5 x 4 distinct states, and the 5
    # candidates hold 10
    assert sum(map(len, stacks)) == 60 + 10 + 50 * (40 + 10)


def test_stacked_field_wrong_shape_names_the_row():
    U = np.arange(12.0).reshape(4, 3)
    for k in range(4):
        f = VectorField(fn=lambda t, u, k=k: u[:2] if u[0] == U[k, 0] else -u, dim=3)
        with pytest.raises(EvaluationError, match=r"shape \(2,\) for input shape \(3,\)") as err:
            f(0.0, U)
        assert np.array_equal(err.value.point, U[k])


def test_analytic_jacobian_of_the_wrong_shape_is_refused():
    f = VectorField(lambda t, u: -u, 3, jac=lambda t, u: -np.eye(2))
    with pytest.raises(EvaluationError, match=r"jacobian returned shape \(2, 2\)") as err:
        f.jacobian(0.0, [1.0, 2.0, 3.0])
    assert np.array_equal(err.value.point, [1.0, 2.0, 3.0])


def test_sampled_sup_never_ascends_from_nan_or_minus_inf():
    from sipkit.measures import _sampled_sup

    starts = np.array([[0.0], [1.0], [2.0], [3.0]])

    def objective_rows(t, X):
        if X is starts:
            return np.array([np.nan, -np.inf, 1.0, 0.5])
        return -((X[:, 0] - 2.5) ** 2)

    best, used, vals = _sampled_sup(objective_rows, starts, step=0.1, k=4, iters=1)
    assert used == 2  # one iteration from each of the two finite starts
    assert best == 1.0
    assert vals.shape == (4,)


# ------------------------------------------------------------- weights


def test_weighted_rate_constant_rebalances_shear():
    A = np.array([[-1.0, 10.0], [0.0, -1.0]])
    f = VectorField.linear(A)
    spec = NormSpec(p=math.inf)
    plain = lognorm_closed(A, math.inf).value
    est = weighted_rate(f, np.diag([1.0, 10.0]), spec)
    assert plain == pytest.approx(9.0)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert est.is_exact


def test_weighted_rate_varying_scalar_analytic():
    # theta(t) = e^{a t} on a scalar field: generator rate is a + f'(u).
    a = 0.7
    f = VectorField.autonomous(lambda u: -2.0 * u + 0.1 * u**3, 1)
    fam = WeightFamily(theta=lambda t, u: np.array([[math.exp(a * t)]]))
    samp = DomainSampler(Box((-1.0,), (1.0,)), count=50, seed=3)
    est = weighted_rate(f, fam, NormSpec(p=2.0), sampler=samp, times=(0.0, 0.5))
    fprime_max = -2.0 + 0.3  # at |u| = 1
    assert est.kind == "sampled-lower-bound"
    assert est.value == pytest.approx(a + fprime_max, abs=1e-3)


def test_weighted_rate_callable_weight_varies_like_its_family():
    f = VectorField.autonomous(lambda u: -2.0 * u + 0.1 * u**3, 1)
    theta = lambda t, u: np.array([[1.0 + u[0] ** 2]])  # noqa: E731
    samp = DomainSampler(Box((-1.0,), (1.0,)), count=20, seed=3)
    est = weighted_rate(f, theta, NormSpec(p=2.0), sampler=samp)
    assert est == weighted_rate(f, WeightFamily(theta=theta), NormSpec(p=2.0), sampler=samp)
    assert est.note == "varying weight"


def test_weighted_rate_rejects_weight_inside_spec():
    f = VectorField.linear(-np.eye(2))
    with pytest.raises(ConditioningError):
        weighted_rate(f, np.eye(2), NormSpec(p=2.0, weight=np.eye(2)))


def test_weight_family_conditioning_guard():
    fam = WeightFamily(theta=lambda t, u: np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ConditioningError):
        fam.matrix(0.0, np.zeros(2))


# ------------------------------------------------------ norm comparison


def test_lp_comparison_frozen_values():
    assert lp_comparison_bound(-1.0, 1.0, 1.0, 1.0, measure_e=1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    assert lp_comparison_bound(-1.0, 4.0, 0.0, 1.0, measure_e=1.0, box_bound=2.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    assert lp_comparison_bound(-1.0, math.inf, 5.0, 1.0, box_bound=2.0) == pytest.approx(2.0)
    assert lp_comparison_bound(-0.5, 2.0, 2.0, 3.0) == pytest.approx(3.0 * math.exp(-1.0))


def test_lp_comparison_requires_measure_and_box():
    with pytest.raises(DegenerateArgumentError):
        lp_comparison_bound(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateArgumentError):
        lp_comparison_bound(-1.0, 4.0, 1.0, 1.0, measure_e=1.0)
    with pytest.raises(DegenerateArgumentError):
        lp_comparison_bound(-1.0, 2.0, -1.0, 1.0)
    with pytest.raises(DegenerateArgumentError, match="init_dist"):
        lp_comparison_bound(-1.0, 2.0, 1.0, -1.0)
    with pytest.raises(DegenerateArgumentError, match="finite p > 2 needs a positive domain measure"):
        lp_comparison_bound(-1.0, 4.0, 1.0, 1.0, box_bound=2.0)


def test_lp_comparison_monotone_in_time_for_negative_rate():
    ts = np.linspace(0.0, 3.0, 20)
    vals = [lp_comparison_bound(-1.5, 1.5, t, 2.0, measure_e=0.5) for t in ts]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- sampling


def test_sampler_deterministic_and_seed_sensitive():
    samp = DomainSampler(Box((-1.0, 0.0), (1.0, 2.0)), count=50, seed=11)
    p1, p2 = samp.points(), samp.points()
    assert np.array_equal(p1, p2)
    a1, b1 = samp.pairs()
    a2, b2 = samp.pairs()
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    other = DomainSampler(Box((-1.0, 0.0), (1.0, 2.0)), count=50, seed=12)
    assert not np.array_equal(p1, other.points())
    assert np.all(p1 >= [-1.0, 0.0]) and np.all(p1 <= [1.0, 2.0])


def test_sphere_ball_and_point_regions():
    sph = DomainSampler(Sphere((1.0, 1.0), 2.0), count=40, seed=0)
    radii = np.linalg.norm(sph.points() - [1.0, 1.0], axis=1)
    assert np.allclose(radii, 2.0)
    ball = DomainSampler(Ball((0.0, 0.0), 1.5), count=40, seed=0)
    assert np.all(np.linalg.norm(ball.points(), axis=1) <= 1.5 + 1e-12)
    pts = DomainSampler(Points(((0.0, 1.0), (2.0, 3.0))), count=5, seed=0)
    drawn = pts.points()
    assert np.array_equal(drawn[0], [0.0, 1.0]) and np.array_equal(drawn[2], [0.0, 1.0])


@pytest.mark.parametrize("region", [Ball, Sphere])
@pytest.mark.parametrize(
    "center, radius, error",
    [
        ((0.0, 0.0), -1.0, DegenerateArgumentError),
        ((0.0, 0.0), 0.0, DegenerateArgumentError),
        ((0.0, 0.0), math.inf, DegenerateArgumentError),
        ((0.0, 0.0), math.nan, DegenerateArgumentError),
        ((0.0, math.inf), 1.0, DegenerateArgumentError),
        ((0.0, math.nan), 1.0, DegenerateArgumentError),
        ((), 1.0, DimensionError),
        (((0.0, 0.0),), 1.0, DimensionError),
        (0.0, 1.0, DimensionError),
    ],
)
def test_round_regions_refuse_bad_center_or_radius(region, center, radius, error):
    with pytest.raises(error):
        region(center, radius)


def test_round_regions_keep_their_values():
    for region in (Ball(np.array([1, -2]), 3), Sphere([1.0, -2.0], 3.0)):
        assert (region.center, region.radius, region.scale, region.dim) == ((1.0, -2.0), 3.0, 3.0, 2)
    assert Ball((0.0, 1.0), 2.0) == Ball(np.array([0.0, 1.0]), 2)


@pytest.mark.parametrize("hi", [(1.0, math.nan), (1.0, math.inf), (1.0, 0.0)])
def test_box_refuses_corners_that_are_not_finite_or_ordered(hi):
    with pytest.raises(DegenerateArgumentError):
        Box((0.0, 0.0), hi)


def test_box_refuses_corners_of_different_lengths():
    with pytest.raises(DimensionError, match="matching 1-d"):
        Box((0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("points", [[], [[]], np.zeros((2, 0)), np.zeros((2, 2, 2))])
def test_points_refuse_an_empty_list(points):
    with pytest.raises(DimensionError):
        Points(points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_points_refuse_non_finite_entries(bad):
    with pytest.raises(DegenerateArgumentError, match="finite"):
        Points(((0.0, 1.0), (2.0, bad)))


@pytest.mark.parametrize("count", [0, -3, 0.5])
def test_sampler_refuses_a_count_below_one(count):
    with pytest.raises(DegenerateArgumentError, match="count"):
        DomainSampler(Box((0.0,), (1.0,)), count=count)


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(4.0), "3"], ids=["2.5", "3.0", "float64", "str"])
def test_sampler_refuses_a_count_that_is_not_an_integer(count):
    with pytest.raises(DegenerateArgumentError, match="count must be an integer"):
        DomainSampler(Box((0.0,), (1.0,)), count=count)
    # numpy integers are integers
    samp = DomainSampler(Box((0.0,), (1.0,)), count=np.int64(3))
    assert samp.count == 3 and samp.points().shape == (3, 1)


def test_pairs_never_coincide():
    samp = DomainSampler(Points(((1.0, 2.0),)), count=8, seed=0)
    a, b = samp.pairs()
    assert np.all(np.linalg.norm(a - b, axis=1) > 0)


def test_sphere_and_ball_project_stacks_row_by_row():
    sph = Sphere((1.0, -1.0, 0.5), 2.0)
    ball = Ball((1.0, -1.0, 0.5), 2.0)
    X = np.array(
        [
            [1.0, -1.0, 0.5],  # at the center: a zero offset
            [4.0, 2.0, -3.0],  # outside the ball
            [1.5, -0.5, 0.0],  # inside the ball
            [1.0, -1.0, 2.5],  # on the sphere
        ]
    )
    for region in (sph, ball):
        rows = np.array([region.project(x) for x in X])
        assert region.project(X).shape == X.shape
        assert np.array_equal(region.project(X), rows)
    # the sphere maps the center to the first axis; the ball keeps inside rows as they are
    assert np.array_equal(sph.project(X)[0], [3.0, -1.0, 0.5])
    assert np.array_equal(ball.project(X)[[0, 2, 3]], X[[0, 2, 3]])
    assert np.allclose(np.linalg.norm(sph.project(X) - sph.center, axis=1), 2.0)
    assert np.linalg.norm(ball.project(X)[1] - ball.center) == pytest.approx(2.0)


def _spec_cases():
    rng = np.random.default_rng(31)
    W = 2.0 * np.eye(5) + rng.normal(size=(5, 5)) / math.sqrt(5)
    diff = np.eye(5, k=1) - np.eye(5)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        yield NormSpec(p=p)
        yield NormSpec(p=p, weight=W)
        yield NormSpec(p=p, stack=(diff,))


def test_operator_rates_match_per_matrix_operator_rate():
    from sipkit.measures import _operator_rates

    As = np.random.default_rng(32).normal(size=(6, 5, 5)) - 1.5 * np.eye(5)
    for spec in _spec_cases():
        batch = _operator_rates(As, spec, samples=64, seed=9)
        assert len(batch) == len(As)
        for A, got in zip(As, batch):
            want = operator_rate(A, spec, samples=64, seed=9)
            assert (got.kind, got.note, got.samples, got.ascent_iters) == (
                want.kind,
                want.note,
                want.samples,
                want.ascent_iters,
            )
            assert got.value == pytest.approx(want.value, rel=1e-8)


def test_lockstep_ascent_problems_stop_on_their_own():
    from sipkit.measures import _ascent

    fns = (
        lambda x: 1.0,  # zero gradient: stops in its first iteration
        lambda x: -abs(x[0]),  # ascends into the kink; the step halves below 1e-12
        lambda x: -((x[0] - 3.0) ** 2),  # smooth: runs every iteration
    )
    calls = []

    def objective(X, rows):
        calls.append(sorted(set(rows.tolist())))
        return np.array([fns[r](x) for x, r in zip(X, rows)])

    X0 = np.zeros((3, 1))
    vals, used = _ascent(objective, X0, 0.1, iters=50)
    # 0.1 * 0.5**k first drops below 1e-12 at k = 37
    assert used.tolist() == [1, 37, 50]
    # one call at the starts, then per iteration one gradient and one candidate call
    assert calls[0] == [0, 1, 2]
    assert calls[1] == [0, 1, 2] and calls[2] == [1, 2]
    assert calls[2 * 37] == [1, 2] and calls[2 * 37 + 1] == [2]
    assert len(calls) == 1 + 2 * 50
    for i in range(3):
        solo_vals, solo_used = _ascent(lambda X, rows, i=i: objective(X, rows + i), X0[i : i + 1], 0.1, iters=50)
        assert (solo_vals[0], solo_used[0]) == (vals[i], used[i])
    assert vals[:2].tolist() == [1.0, 0.0] and vals[2] == pytest.approx(0.0, abs=1e-9)


def test_differential_rate_batches_inner_log_norms(monkeypatch):
    import sipkit.measures as measures

    f = _pinned_tanh_net()
    sampler = DomainSampler(_BOX3, count=16, seed=6)
    plain = differential_rate(f, sampler, NormSpec(p=3.0), ascent_starts=1)
    kernel_rows, batches = [], []
    kernel, rates = measures._quotient_rows, measures._operator_rates

    def counted_kernel(U, W, spec, floor):
        kernel_rows.append(len(U))
        return kernel(U, W, spec, floor)

    def counted_rates(As, *args, **kwargs):
        before = len(kernel_rows)
        out = rates(As, *args, **kwargs)
        batches.append((len(As), len(kernel_rows) - before, max(e.ascent_iters for e in out)))
        return out

    monkeypatch.setattr(measures, "_quotient_rows", counted_kernel)
    monkeypatch.setattr(measures, "_operator_rates", counted_rates)
    est = differential_rate(f, sampler, NormSpec(p=3.0), ascent_starts=1)
    assert (est.value, est.samples, est.ascent_iters) == (plain.value, plain.samples, plain.ascent_iters)
    # the sweep rates all 16 states in one batch: one kernel call on 16 x 64 probes
    assert batches[0][0] == 16 and kernel_rows[0] == 16 * 64
    # then one batch at the ascent start and, per outer step, one for the
    # gradient stack (3 states) and at most one for the candidate
    assert batches[1][0] == 1 and batches[2][0] == 3
    assert len(batches) <= 2 + 2 * est.ascent_iters
    # inside a batch: one sweep, one call at the starts, and per inner
    # step one gradient call and at most one candidate call
    for _, calls, inner in batches:
        assert calls in (2 * inner + 1, 2 * inner + 2)


def test_sampled_sup_ascends_each_start_at_its_own_time():
    from sipkit.measures import _ascent, _sampled_sup

    times = (0.0, 1.0)
    starts = np.array([[0.0], [0.5], [2.0]])

    def objective_rows(t, X):
        return t - (X[:, 0] - 1.0 - t) ** 2  # peak t at x = 1 + t

    best, used, vals = _sampled_sup(objective_rows, starts, step=0.1, k=3, iters=20, times=times)
    order = np.argsort(-vals, kind="stable")[:3]
    assert {i // len(starts) for i in order} == {0, 1}  # the ascents run at both times at once
    solo = [
        _ascent(lambda X, rows, t=times[i // len(starts)]: objective_rows(t, X), starts[[i % len(starts)]], 0.1, iters=20)
        for i in order
    ]
    assert used == sum(int(its[0]) for _, its in solo)
    assert best == max(vals.max(), *(float(v[0]) for v, _ in solo))
    assert best == pytest.approx(1.0, abs=1e-9)


def test_explicit_point_lists_get_no_ascent():
    # a Points region has scale 0: the rates are the sweep maxima over the list
    f = VectorField.autonomous(lambda u: -(u**3) + np.sin(u[::-1]), 2)
    pts = np.random.default_rng(0).normal(size=(6, 2))
    sampler = DomainSampler(Points(pts), count=6, seed=0)
    a, b = sampler.pairs()
    quot = [float((u - v) @ (f(0.0, u) - f(0.0, v)) / ((u - v) @ (u - v))) for u, v in zip(a, b)]
    est = integral_rate(f, sampler)
    assert (est.samples, est.ascent_iters) == (6, 0)
    assert est.value == pytest.approx(max(quot), rel=1e-12)
    est = differential_rate(f, sampler)
    assert (est.samples, est.ascent_iters) == (6, 0)
    assert est.value == max(lognorm_closed(f.jacobian(0.0, u), 2.0).value for u in pts)


def test_point_list_pairs_each_point_with_the_next():
    pts = np.random.default_rng(3).normal(size=(6, 2))
    for count in (6, 8):
        a, b = DomainSampler(Points(pts), count=count, seed=4).pairs()
        i = np.arange(count)
        assert np.array_equal(a, pts[i % 6]) and np.array_equal(b, pts[(i + 1) % 6])
    # points() still cycles from the first listed point
    assert np.array_equal(DomainSampler(Points(pts), count=8).points(), pts[np.arange(8) % 6])
    # other regions still draw both halves from one generator
    for region in (Box((-1.0, -1.0), (1.0, 2.0)), Ball((0.0, 1.0), 2.0), Sphere((1.0, 0.0), 0.5)):
        rng = np.random.default_rng((9, 1))
        want = region.draw(rng, 10), region.draw(rng, 10)
        got = DomainSampler(region, count=10, seed=9).pairs()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_weighted_spec_inverts_its_weight_once(monkeypatch):
    rng = np.random.default_rng(8)
    spec = NormSpec(p=1.0, weight=2.0 * np.eye(5) + 0.2 * rng.normal(size=(5, 5)))
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda M: calls.append(1) or inv(M))
    mats = [rng.normal(size=(5, 5)) for _ in range(4)]
    got = [operator_rate(A, spec).value for A in mats]
    assert len(calls) == 1
    monkeypatch.undo()
    W = spec.weight
    assert got == [lognorm_closed(W @ A @ np.linalg.inv(W), 1.0).value for A in mats]
