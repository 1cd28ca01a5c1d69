"""Integration and certificate machinery.

Matrix exponentials from scipy serve as the independent reference for
the fixed-step integrator and the variational flow.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from sipkit.errors import DegenerateArgumentError, DimensionError, DivergenceError, EvaluationError
from sipkit.flows import (
    CertificateResult,
    Trajectory,
    _rk4,
    distance_series,
    integrate,
    overshoot_fit,
    pair_distances,
    variational_flow,
    verify_contraction,
)
from sipkit.measures import VectorField, lognorm_closed
from sipkit.spaces import NormSpec, dini_plus, norm, sip


def test_integrate_scalar_decay_against_closed_form():
    f = VectorField.linear(np.array([[-1.0]]))
    tr = integrate(f, [1.0], (0.0, 2.0), 1e-3)
    assert tr.states[-1, 0] == pytest.approx(math.exp(-2.0), abs=1e-10)
    assert tr.times[-1] == pytest.approx(2.0, abs=1e-12)


def test_integrate_rk4_order():
    # halving the step should cut the error by ~16x
    f = VectorField.autonomous(lambda u: np.array([u[1], -u[0]]), 2)
    exact = np.array([math.cos(1.0), -math.sin(1.0)])
    errs = []
    for h in (0.1, 0.05):
        tr = integrate(f, [1.0, 0.0], (0.0, 1.0), h)
        errs.append(np.linalg.norm(tr.states[-1] - exact))
    assert errs[0] / errs[1] > 12.0


def test_integrate_matrix_against_expm():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    A -= (lognorm_closed(A, 2.0).value + 0.5) * np.eye(4)
    u0 = rng.normal(size=4)
    tr = integrate(VectorField.linear(A), u0, (0.0, 1.0), 1e-3)
    assert np.allclose(tr.states[-1], expm(A) @ u0, atol=1e-9)


def test_integrate_uniform_grid_and_validation():
    f = VectorField.linear(np.array([[-1.0]]))
    tr = integrate(f, [1.0], (0.0, 1.0), 0.3)  # step rescaled to fit
    dt = np.diff(tr.times)
    assert np.max(dt) - np.min(dt) <= 1e-15
    with pytest.raises(DegenerateArgumentError):
        integrate(f, [1.0], (1.0, 0.0), 0.1)
    with pytest.raises(DegenerateArgumentError):
        integrate(f, [1.0], (0.0, 1.0), -0.1)


def test_integrate_blowup_sentinel():
    f = VectorField.autonomous(lambda u: u**2, 1)
    with pytest.raises(DivergenceError) as err:
        integrate(f, [2.0], (0.0, 5.0), 1e-3)
    assert err.value.t is not None and 0.0 < err.value.t < 5.0


def test_integrate_rejects_a_nan_state_from_finite_field_values():
    # the stages are finite, but 1e308 + 2 (-1e308) + 2 (1e308) is inf - inf
    f = VectorField.autonomous(lambda u: np.array([-1e308 if u[0] > 0 else 1e308]), 1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        integrate(f, [0.0], (0.0, 0.1), 0.01)
    assert err.value.t == pytest.approx(0.01)


def test_variational_flow_matches_expm():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    du0 = rng.normal(size=3)
    base, pert = variational_flow(VectorField.linear(A), rng.normal(size=3), du0, (0.0, 1.0), 1e-3)
    assert np.allclose(pert.states[-1], expm(A) @ du0, atol=1e-8)


def test_variational_flow_nonlinear_tracks_pair_difference():
    f = VectorField.autonomous(lambda u: -(u**3) - u, 1, jac=lambda u: np.array([[-3 * u[0] ** 2 - 1]]))
    eps = 1e-6
    base, pert = variational_flow(f, [0.8], [1.0], (0.0, 1.0), 1e-3)
    tr_a = integrate(f, [0.8], (0.0, 1.0), 1e-3)
    tr_b = integrate(f, [0.8 + eps], (0.0, 1.0), 1e-3)
    finite = (tr_b.states[-1, 0] - tr_a.states[-1, 0]) / eps
    assert pert.states[-1, 0] == pytest.approx(finite, rel=1e-5)


def test_dini_of_distance_bounded_by_rate_times_distance():
    # upper Dini derivative of ||u1 - u2|| along the flow is at most the
    # one-sided Lipschitz rate times the distance
    A = np.array([[-1.0, 2.0], [0.0, -2.0]])
    f = VectorField.linear(A)
    for p in (1.0, 2.0, math.inf):
        spec = NormSpec(p=p)
        mu = lognorm_closed(A, p).value
        u0, v0 = np.array([1.0, -0.5]), np.array([-0.3, 0.4])

        def dist(s):
            if s <= 0.0:
                return norm(u0 - v0, spec)
            tr_u = integrate(f, u0, (0.0, s), 1e-4)
            tr_v = integrate(f, v0, (0.0, s), 1e-4)
            return norm(tr_u.states[-1] - tr_v.states[-1], spec)

        d0 = norm(u0 - v0, spec)
        slope = dini_plus(dist, 0.0)
        assert slope <= mu * d0 + 1e-4
        # and the slope is exactly the semi-inner-product quotient
        ref = sip(u0 - v0, A @ (u0 - v0), spec) / d0
        assert slope == pytest.approx(ref, abs=1e-4)


def test_overshoot_fit_recovers_exponential():
    ts = np.linspace(0.0, 2.0, 80)
    lam, kap = overshoot_fit(ts, 3.0 * np.exp(-1.7 * ts))
    assert lam == pytest.approx(-1.7, abs=1e-10)
    assert kap == pytest.approx(3.0, rel=1e-10)


def test_overshoot_fit_clamps_kappa_to_one():
    ts = np.linspace(0.0, 1.0, 50)
    lam, kap = overshoot_fit(ts, np.exp(-2.0 * ts))
    assert kap == 1.0
    with pytest.raises(DegenerateArgumentError):
        overshoot_fit([0.0, 1.0], [1.0, 0.1])


def test_verify_contraction_passes_scalar_decay():
    f = VectorField.linear(np.array([[-1.0]]))
    res = verify_contraction(
        f, [([1.0], [0.0]), ([0.2], [-0.4])], rate=-1.0, overshoot=1.0, t_span=(0.0, 2.0), h=1e-3
    )
    assert res.passed
    assert res.fitted_rate == pytest.approx(-1.0, abs=1e-3)
    assert res.fitted_overshoot == pytest.approx(1.0, abs=1e-6)


def test_verify_contraction_rejects_overclaimed_rate():
    # symmetric system with slowest mode -1: claiming -1.5 must fail when
    # that mode is excited
    A = np.diag([-1.0, -3.0])
    f = VectorField.linear(A)
    res = verify_contraction(
        f, [([1.0, 0.0], [0.0, 0.0])], rate=-1.5, overshoot=1.0, t_span=(0.0, 1.0), h=1e-3
    )
    assert not res.passed
    assert res.max_violation > 0.0
    assert res.fitted_rate == pytest.approx(-1.0, abs=1e-3)


def test_verify_contraction_weighted_envelope_with_overshoot():
    # rate certified in a weighted norm transfers to the plain norm with
    # the weight's condition number as overshoot
    A = np.array([[-1.0, 10.0], [0.0, -1.0]])
    th = np.diag([1.0, 10.0])
    wspec = NormSpec(p=2.0, weight=th)
    lam = lognorm_closed(th @ A @ np.linalg.inv(th), 2.0).value
    kappa = np.linalg.cond(th)
    f = VectorField.linear(A)
    pairs = [([1.0, 0.3], [-0.2, 0.1]), ([0.0, 1.0], [0.0, 0.0])]
    res_plain = verify_contraction(
        f, pairs, NormSpec(p=2.0), rate=lam, overshoot=kappa * (1 + 1e-9), t_span=(0.0, 3.0), h=1e-3
    )
    assert res_plain.passed
    res_weighted = verify_contraction(
        f, pairs, wspec, rate=lam, overshoot=1.0, t_span=(0.0, 3.0), h=1e-3
    )
    assert res_weighted.passed


def test_verify_contraction_validates_inputs():
    f = VectorField.linear(np.array([[-1.0]]))
    with pytest.raises(DegenerateArgumentError):
        verify_contraction(f, [], rate=-1.0)
    with pytest.raises(DegenerateArgumentError):
        verify_contraction(f, [([1.0], [0.0])], rate=-1.0, overshoot=0.5)


def test_trajectory_shape_guards():
    with pytest.raises(DegenerateArgumentError):
        Trajectory(times=np.array([0.0, 0.1, 0.3]), states=np.zeros((3, 1)), step=0.1)
    with pytest.raises(DegenerateArgumentError):
        Trajectory(times=np.array([0.0, 0.1]), states=np.zeros((3, 1)), step=0.1)


def test_distance_series_in_requested_norm():
    t = np.arange(3) * 0.5
    a = Trajectory(times=t, states=np.array([[1.0, 1.0]] * 3), step=0.5)
    b = Trajectory(times=t, states=np.zeros((3, 2)), step=0.5)
    assert np.allclose(distance_series(a, b, NormSpec(p=1.0)), 2.0)
    assert np.allclose(distance_series(a, b, NormSpec(p=math.inf)), 1.0)


# ------------------------------------------------------- stacked stepping


def hopf_field(omega=3.0):
    def fn(t, u):
        assert u.ndim == 1  # a stack is evaluated row by row
        x, y = u
        s = 1.0 - (x * x + y * y)
        return np.array([s * x - omega * y, omega * x + s * y])

    return VectorField(fn, 2, name="hopf")


def random_linear(n, seed):
    rng = np.random.default_rng(seed)
    A = -2.0 * np.eye(n) + 0.4 * rng.normal(size=(n, n)) / math.sqrt(n)
    return VectorField.linear(A, b=rng.normal(size=n)), rng


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_rk4_stack_matches_per_row_integrate_linear(p):
    f, rng = random_linear(5, 21)
    U = rng.normal(size=(4, 5))
    times, states, step = _rk4(f, U, 0.0, 1.3, 0.01)
    for i, u in enumerate(U):
        tr = integrate(f, u, (0.0, 1.3), 0.01)
        assert np.array_equal(times, tr.times) and step == tr.step
        assert np.allclose(states[:, i], tr.states, rtol=1e-12, atol=0.0)
    spec = NormSpec(p=p)
    trs = [integrate(f, u, (0.0, 1.3), 0.01) for u in U[:2]]
    d = distance_series(Trajectory(times, states[:, 0], step), Trajectory(times, states[:, 1], step), spec)
    assert np.allclose(d, distance_series(trs[0], trs[1], spec), rtol=1e-12, atol=0.0)


def test_rk4_stack_matches_per_row_integrate_hopf():
    f = hopf_field()
    U = np.random.default_rng(22).normal(size=(3, 2))
    _, states, _ = _rk4(f, U, 0.0, 2.0, 0.01)
    for i, u in enumerate(U):
        assert np.allclose(states[:, i], integrate(f, u, (0.0, 2.0), 0.01).states, rtol=1e-12, atol=0.0)


# (passed, max_violation, fitted_rate, fitted_overshoot, grid_points),
# recorded at commit a42036a, before the pairs were integrated as one stack
VERIFY_RECORDED = {
    "linear p=1.0": (True, -1.2465705014896855e-06, -1.6760935060637068, 7.139629743255239, 51),
    "linear p=2.0": (True, -1.1203310679303025e-06, -1.6324946643589724, 3.2724982195016077, 51),
    "linear p=inf": (True, -1.0923466740447862e-06, -1.6899197774764043, 1.4939208580021517, 51),
    "affine weighted refuse": (False, 0.3850135393514643, -1.6450519353641857, 5.746919948962742, 51),
    "hopf": (True, -1.970831167263931e-06, -0.04361287525827769, 1.7410757141538473, 51),
}


def verify_cases():
    rng = np.random.default_rng(6)
    n = 6
    A = -2.0 * np.eye(n) + 0.4 * rng.normal(size=(n, n)) / math.sqrt(n)
    b = rng.normal(size=n)
    pairs = [(rng.normal(size=n), rng.normal(size=n)) for _ in range(3)]
    for p in (1.0, 2.0, math.inf):
        yield f"linear p={p}", VectorField.linear(A), pairs, NormSpec(p=p), lognorm_closed(A, p).value, 1.0
    W = np.diag(rng.uniform(0.5, 2.0, size=n))
    yield "affine weighted refuse", VectorField.linear(A, b), pairs, NormSpec(p=2.0, weight=W), -2.5, 1.5
    pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(2)]
    yield "hopf", hopf_field(), pairs, NormSpec(p=2.0), 0.5, 1.0


def test_verify_contraction_matches_recorded_values():
    for name, f, pairs, spec, rate, overshoot in verify_cases():
        res = verify_contraction(f, pairs, spec, rate=rate, overshoot=overshoot, t_span=(0.0, 1.5), h=0.01)
        passed, violation, lam, kappa, grid = VERIFY_RECORDED[name]
        assert res.passed is passed and res.grid_points == grid and res.pairs_checked == len(pairs), name
        assert res.max_violation == pytest.approx(violation, rel=1e-12), name
        assert res.fitted_rate == pytest.approx(lam, rel=1e-12), name
        assert res.fitted_overshoot == pytest.approx(kappa, rel=1e-12), name


def test_stack_evaluation_reports_the_non_finite_row():
    U = np.array([[1.0, 2.0], [np.inf, 0.0], [0.5, np.nan]])
    for f in (VectorField.linear(-np.eye(2)), hopf_field()):
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
            f(0.0, U)
        assert np.array_equal(err.value.point, U[1])


def test_verify_contraction_stack_blowup_in_second_pair():
    # only the first coordinate grows (e^{300 t}), and only the second
    # pair starts with it nonzero
    f = VectorField.linear(np.diag([300.0, -1.0]))
    pairs = [([0.0, 1.0], [0.0, -1.0]), ([1.0, 0.0], [0.0, 0.0])]
    with pytest.raises(DivergenceError, match=r"^state blew up at t = ") as err:
        verify_contraction(f, pairs, rate=-1.0, t_span=(0.0, 1.0), h=1e-3)
    assert 0.76 < err.value.t < 0.78  # e^{300 t} = 1e100 at t = 0.7675
    verify_contraction(f, pairs[:1], rate=0.0, t_span=(0.0, 1.0), h=1e-3)


def test_verify_contraction_wrong_length_pair_raises_before_stepping():
    calls = [0]

    def fn(t, u):
        calls[0] += 1
        return -u

    f = VectorField(fn, 2)
    for pairs in ([([1.0, 0.0], [0.0, 1.0]), ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])], [([1.0, 0.0], [1.0])]):
        with pytest.raises(DimensionError):
            verify_contraction(f, pairs, rate=-1.0)
    assert calls[0] == 0


@pytest.mark.parametrize("affine", [False, True])
def test_integrate_wrong_length_start_raises_before_stepping(affine):
    calls = [0]

    def fn(t, u):
        calls[0] += 1
        return -u

    f = VectorField.linear(np.eye(3)) if affine else VectorField(fn, 3)
    for u0 in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(DimensionError, match=r"dimension 3"):
            integrate(f, u0, (0.0, 1.0), 0.1)
    assert calls[0] == 0


def test_shape_refusals_of_integrate_variational_flow_and_distance_series():
    f = VectorField.linear(-np.eye(2))
    with pytest.raises(DegenerateArgumentError, match="initial state must be a vector"):
        integrate(f, np.zeros((2, 2)), (0.0, 1.0), 0.1)
    with pytest.raises(DegenerateArgumentError, match="perturbation dimensions differ"):
        variational_flow(f, [1.0, 0.0], [1.0, 0.0, 0.0], (0.0, 1.0), 0.1)
    tr = integrate(f, [1.0, 0.0], (0.0, 1.0), 0.1)
    with pytest.raises(DegenerateArgumentError, match="different shapes"):
        distance_series(tr, integrate(f, [1.0, 0.0], (0.0, 2.0), 0.1))


def test_rk4_calls_the_field_only_off_the_step_map(monkeypatch):
    calls = []
    evaluate = VectorField.__call__

    def counted(self, t, u):
        calls.append(np.shape(u))
        return evaluate(self, t, u)

    monkeypatch.setattr(VectorField, "__call__", counted)
    # an affine field with steps x rows >= dim is stepped by its step map
    f, rng = random_linear(4, 23)
    pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(3)]
    verify_contraction(f, pairs, rate=0.0, t_span=(0.0, 1.0), h=0.01)
    g, rng = random_linear(40, 26)
    _rk4(g, rng.normal(size=(2, 40)), 0.0, 0.2, 0.01)  # 20 steps x 2 rows = 40
    assert calls == []
    # below the size rule it keeps the four stages per step
    _rk4(g, rng.normal(size=40), 0.0, 0.2, 0.01)  # 20 steps x 1 row < 40
    integrate(f, rng.normal(size=4), (0.0, 0.02), 0.01)  # 2 steps < 4
    assert calls == [(40,)] * (4 * 20) + [(4,)] * (4 * 2)
    # any other field is evaluated four times per step, as one stack
    calls.clear()
    pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(2)]
    verify_contraction(hopf_field(), pairs, rate=0.5, t_span=(0.0, 1.0), h=0.01)
    assert calls == [(4, 2)] * (4 * 100)


def staged(f):
    """The same field without ``matrix``, which RK4 steps stage by stage."""
    return VectorField(f.fn, f.dim)


@pytest.mark.parametrize("offset", [False, True])
def test_step_map_matches_per_stage_rk4(offset):
    f, rng = random_linear(8, 27)
    if not offset:
        f = VectorField.linear(f.matrix)
    for U in (rng.normal(size=8), rng.normal(size=(3, 8))):
        times, states, step = _rk4(f, U, 0.0, 2.0, 0.01)
        ref_times, ref, ref_step = _rk4(staged(f), U, 0.0, 2.0, 0.01)
        assert np.array_equal(times, ref_times) and step == ref_step
        # relative to the largest entry of the state at each sample
        scale = np.abs(ref).reshape(len(ref), -1).max(axis=1)
        gap = np.abs(states - ref).reshape(len(ref), -1).max(axis=1)
        assert np.all(gap <= 1e-12 * scale)


@pytest.mark.parametrize("offset", [False, True])
def test_step_map_pair_distances_match_per_stage_across_blocks(offset):
    # 40 starts of dimension 50 fill a block every 32 steps, so 301
    # samples span 9 blocks and a partial last one
    f, rng = random_linear(50, 28)
    if not offset:
        f = VectorField.linear(f.matrix)
    pairs = [(rng.normal(size=50), rng.normal(size=50)) for _ in range(20)]
    spec = NormSpec(p=1.0)
    times, d = pair_distances(f, pairs, (0.0, 3.0), 0.01, spec)
    ref_times, ref = pair_distances(staged(f), pairs, (0.0, 3.0), 0.01, spec)
    assert d.shape == (301, 20) and np.array_equal(times, ref_times)
    assert np.allclose(d, ref, rtol=1e-12, atol=0.0)


def test_step_map_blows_up_at_the_per_stage_time():
    f = VectorField.linear(np.diag([300.0, -1.0]))
    pairs = [([0.0, 1.0], [0.0, -1.0]), ([1.0, 0.0], [0.0, 0.0])]
    ts = []
    for g in (f, staged(f)):
        with pytest.raises(DivergenceError) as err:
            verify_contraction(g, pairs, rate=-1.0, t_span=(0.0, 1.0), h=1e-3)
        ts.append(err.value.t)
    assert ts[0] == ts[1] and 0.76 < ts[0] < 0.78


def test_pair_distances_match_per_pair_integrate_across_blocks():
    # 40 starts of dimension 50 fill a block every 32 steps, so 1001
    # samples span 32 blocks and a partial last one; with no offset the
    # states shrink with their distances, which keeps roundoff relative
    g, rng = random_linear(50, 24)
    f = VectorField.linear(g.matrix)
    pairs = [(rng.normal(size=50), rng.normal(size=50)) for _ in range(20)]
    spec = NormSpec(p=1.0)
    times, d = pair_distances(f, pairs, (0.0, 10.0), 0.01, spec)
    assert d.shape == (1001, 20)
    for j in (0, 7, 19):
        tr_u, tr_v = (integrate(f, u, (0.0, 10.0), 0.01) for u in pairs[j])
        assert np.array_equal(times, tr_u.times)
        assert np.allclose(d[:, j], distance_series(tr_u, tr_v, spec), rtol=1e-12, atol=0.0)


def test_verify_contraction_memory_does_not_grow_with_trajectories():
    # 20 pairs in dimension 50 over 2000 steps: the stacked trajectories
    # alone would take 32 MB; the distances take 320 KB
    f, rng = random_linear(50, 25)
    pairs = [(rng.normal(size=50), rng.normal(size=50)) for _ in range(20)]
    tracemalloc.start()
    try:
        res = verify_contraction(f, pairs, rate=0.0, t_span=(0.0, 20.0), h=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed and res.pairs_checked == 20
    assert peak < 4 * 2**20
