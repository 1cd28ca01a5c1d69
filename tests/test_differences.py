"""Central-difference sites and the stacked residual loops.

The six sites that differentiate numerically (VectorField.jacobian,
ManifoldSpec.jacobian, DiffeoSymmetry.push, WeightFamily.total_derivative,
mirror._dual_hessian and conservation_rate's flux derivative) are pinned
bit for bit on fixed inputs, and the analytic derivatives that replace
two of them are checked against the differences.  The residuals that
evaluate a whole stack of points in one call are checked against
per-point loops.  The zero-range residual is the pair of log norms
max(mu(F), mu(-F)): checked against the closed forms, against a sip loop
and against a dense sweep of 2 x 2 directions.
"""

import math

import numpy as np
import pytest

from sipkit.invariants import (
    DiffeoSymmetry,
    ManifoldSpec,
    SubspaceSpec,
    spatiotemporal_residual,
    subspace_certificate,
)
from sipkit.measures import (
    Ball,
    Box,
    DomainSampler,
    VectorField,
    WeightFamily,
    _zero_range_residual,
    lognorm_closed,
    operator_rate,
)
from sipkit.mirror import RegressionProblem, _dual_hessian
from sipkit.pdelab import Grid1D, conservation_rate
from sipkit.spaces import NormSpec, norm, norm_rows, sip, sip_rows

_POINTS = (np.array([0.3, -1.2, 2.5]), np.array([0.0, 0.7, -0.4]))


def _fd_site_outputs():
    """Outputs of the six central-difference sites, each as a nested list."""
    f = VectorField(
        lambda t, v: np.array([np.sin(v[0]) * v[1] + t, v[0] ** 2 - np.tanh(v[2]), np.exp(-v[1]) * v[2] * t]),
        3,
    )
    man = ManifoldSpec(lambda v: np.array([v @ v - 1.0, v[0] * v[2] - np.sin(v[1])]), dim=3, codim=2)
    sym = DiffeoSymmetry(h=lambda v: np.array([v[0] + 0.1 * v[1] ** 2, np.exp(0.2 * v[1]), v[2] * v[0]]))
    fam = WeightFamily(
        theta=lambda t, v: np.array([[2.0 + np.sin(t), v[0]], [0.1 * v[1], 1.0 + v[1] ** 2 + t * t]])
    )
    K = np.array([[1.0, 0.5, -0.2], [0.3, -1.0, 0.4], [-0.6, 0.2, 1.1], [0.7, 0.7, 0.1]])
    prob = RegressionProblem(
        samples=tuple(enumerate([0.4, -0.3, 0.9, 0.2])), features=lambda i: K[int(i)], p=1.5
    )
    grid = Grid1D(12, "periodic")
    burgers = conservation_rate(
        lambda v: 0.5 * v**2, grid, DomainSampler(Ball(np.zeros(12), 1.0), count=4, seed=3)
    )
    w = np.array([0.5, -0.25, 1.5])
    return {
        "VectorField.jacobian": [f.jacobian(0.4, u).tolist() for u in _POINTS],
        "ManifoldSpec.jacobian": [man.jacobian(u).tolist() for u in _POINTS],
        "DiffeoSymmetry.push": [sym.push(u, w).tolist() for u in _POINTS],
        "WeightFamily.total_derivative": [
            fam.total_derivative(t, u[:2], w[:2]).tolist() for t, u in zip((0.7, 0.0), _POINTS)
        ],
        "_dual_hessian": [_dual_hessian(u, prob).tolist() for u in _POINTS],
        "conservation_rate": [burgers.rate.value, burgers.skewness_residual],
    }


# recorded before the sites shared one central-difference helper
_FD_PINS = {
    "VectorField.jacobian": [
        [
            [-1.1464037869215802, 0.2955202066516489, 0.0],
            [0.5999999999830926, 0.0, -0.02659222667463926],
            [0.0, -3.3201169227024185, 1.3280467691271067],
        ],
        [
            [0.700000000020129, 0.0, 0.0],
            [0.0, 0.0, -0.8556387860736425],
            [0.0, 0.07945364860729263, 0.1986341215170654],
        ],
    ],
    "ManifoldSpec.jacobian": [
        [
            [0.6000000001111954, -2.399999999947898, 5.000000000064476],
            [2.499999999922436, -0.36235775450906127, 0.29999999998483623],
        ],
        [
            [0.0, 1.3999999999814816, -0.8000000000150744],
            [-0.40000000001150227, -0.7648421872638753, 0.0],
        ],
    ],
    "DiffeoSymmetry.push": [
        [0.559999999992435, -0.03933139303949601, 1.6999999999523279],
        [0.46500000000004543, -0.05751369001169083, -0.2],
    ],
    "WeightFamily.total_derivative": [
        [
            [0.7648421872312217, 0.5000000000008847],
            [-0.024999999999697424, 2.000000000015837],
        ],
        [
            [1.0000000000287557, 0.5],
            [-0.025000000001495576, -0.35000000001637455],
        ],
    ],
    "_dual_hessian": [
        [
            [2.125538225610761, 0.3690721840488058, -1.238971639789058],
            [0.4427223351851072, 3.2084144836823016, 0.6297227932760142],
            [-0.811797237706598, 0.47606526699692503, 2.8030511830475247],
        ],
        [
            [3.715694418815474e-06, 0.2349770478211701, -0.9537990287422625],
            [5.719869022868806e-07, 3.3565401863711504, 0.7895608150137713],
            [-1.1194378757295453e-06, 0.597227395432641, 2.702492972766022],
        ],
    ],
    # the skewness residual re-recorded when it became the zero-range
    # residual of the compressed linearization (last digit)
    "conservation_rate": [3.7049573972626733, 3.802829689468422],
}


def test_central_difference_sites_are_pinned_bit_for_bit():
    got = _fd_site_outputs()
    assert got.keys() == _FD_PINS.keys()
    for site, value in got.items():
        assert value == _FD_PINS[site], site


def test_stacked_residuals_match_per_point_loops():
    W = np.random.default_rng(11).normal(size=(3, 3))
    f = VectorField(lambda t, u: -u + W @ np.tanh(u) + math.sin(t) * u[::-1], 3)
    times = (0.0, 0.5)
    sampler = DomainSampler(Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), count=12, seed=2)

    # subspace residual: weighted norm, projection onto a non-coordinate line
    v = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
    P = np.outer(v, v)
    Q = np.eye(3) - P
    spec = NormSpec(p=3.0, weight=np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.5]]))
    want = max(norm(Q @ f(t, P @ x), spec) for t in times for x in sampler.points())
    got = subspace_certificate(f, SubspaceSpec(P), sampler, spec, times=times).invariance_residual
    assert want > 0.1
    assert got == pytest.approx(want, rel=1e-12)

    # spatiotemporal residual under a quarter turn of the first two axes
    T = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    want = max(
        float(np.linalg.norm(f(t, T @ x) - T @ f(t + 0.2, x))) for t in times for x in sampler.points()
    )
    got = spatiotemporal_residual(f, T, 0.2, 4, sampler, times=times)
    assert want > 0.1
    assert got == pytest.approx(want, rel=1e-12)

    # zero-range residual: the larger log norm of F and -F, at least every
    # probe of a scalar sip loop
    F = np.random.default_rng(5).normal(size=(4, 4))
    specs = (NormSpec(p=1.0), NormSpec(p=math.inf), NormSpec(p=3.0))
    for spec in specs + (NormSpec(p=1.5, weight=np.diag([1.0, 2.0, 0.5, 3.0])),):
        want = max(operator_rate(F, spec).value, operator_rate(-F, spec).value)
        got = _zero_range_residual(F, spec)
        assert got == pytest.approx(want, rel=1e-9)
        probes = np.random.default_rng(0).normal(size=(200, 4))
        assert got >= max(abs(sip(x / norm(x, spec), F @ (x / norm(x, spec)), spec)) for x in probes)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_zero_range_residual_is_the_closed_log_norm_pair(p):
    rng = np.random.default_rng(5)
    for F in [rng.normal(size=(n, n)) for n in (2, 3, 4, 6)]:
        want = max(lognorm_closed(F, p).value, lognorm_closed(-F, p).value)
        assert _zero_range_residual(F, NormSpec(p=p)) == want
    # the rotation generator's numerical range is [-1, 1] at p in {1, inf}
    assert _zero_range_residual(np.array([[0.0, 1.0], [-1.0, 0.0]]), NormSpec(p=p)) == 1.0


def test_zero_range_residual_matches_a_dense_angle_sweep():
    # every 2 x 2 direction is (cos a, sin a) up to sign and scale; at p in
    # {1, inf} the pairing has kinks, so the sweep reaches the supremum to
    # about two grid steps (pi / 1e5 each)
    a = np.linspace(0.0, math.pi, 100_001)
    V = np.column_stack([np.cos(a), np.sin(a)])
    rng = np.random.default_rng(3)
    for _ in range(20):
        F = rng.normal(size=(2, 2))
        for p, tol in ((1.0, 2e-4), (math.inf, 2e-4), (3.0, 2e-9)):
            spec = NormSpec(p=p)
            want = float(np.max(np.abs(sip_rows(V, V @ F.T, spec)) / norm_rows(V, spec) ** 2))
            got = _zero_range_residual(F, spec)
            assert got == pytest.approx(want, abs=tol * max(1.0, want))
            assert got >= want - 1e-12 * max(1.0, want)  # no swept angle exceeds it


def test_weight_family_analytic_derivatives_match_the_differences():
    def theta(t, v):
        return np.array([[2.0 + np.sin(t), v[0]], [0.1 * v[1], 1.0 + v[1] ** 2 + t * t]])

    analytic = WeightFamily(
        theta=theta,
        dt=lambda t, v: np.array([[np.cos(t), 0.0], [0.0, 2.0 * t]]),
        du=lambda t, v, w: np.array([[0.0, w[0]], [0.1 * w[1], 2.0 * v[1] * w[1]]]),
    )
    differenced = WeightFamily(theta=theta)
    u, w = np.array([0.4, -0.7]), np.array([0.5, -0.25])
    want = analytic.total_derivative(0.7, u, w)
    assert np.abs(want - differenced.total_derivative(0.7, u, w)).max() <= 1e-9
    # a zero direction leaves the time derivative alone
    dt = analytic.dt(0.7, u)
    assert analytic.total_derivative(0.7, u, np.zeros(2)).tolist() == dt.tolist()
    assert np.abs(differenced.total_derivative(0.7, u, np.zeros(2)) - dt).max() <= 1e-9


def test_diffeo_symmetry_analytic_push_matches_the_difference():
    def h(v):
        return np.array([v[0] + 0.1 * v[1] ** 2, np.exp(0.2 * v[1]), v[2] * v[0]])

    def dh(v):
        return np.array([[1.0, 0.2 * v[1], 0.0], [0.0, 0.2 * np.exp(0.2 * v[1]), 0.0], [v[2], 0.0, v[0]]])

    w = np.array([0.5, -0.25, 1.5])
    for u in _POINTS:
        want = DiffeoSymmetry(h=h, dh=dh).push(u, w)
        assert np.abs(want - DiffeoSymmetry(h=h).push(u, w)).max() <= 1e-10
        assert DiffeoSymmetry(h=h).push(u, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
