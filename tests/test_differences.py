"""Central-difference sites and the stacked residual loops.

The six sites that differentiate numerically (VectorField.jacobian,
ManifoldSpec.jacobian, DiffeoSymmetry.push, WeightFamily.total_derivative,
mirror._dual_hessian and conservation_rate's flux derivative) are pinned
bit for bit on fixed inputs.  The residuals that evaluate a whole stack
of points in one call are checked against per-point loops.
"""

import math

import numpy as np
import pytest

from sipkit.couplings import _zero_range_residual
from sipkit.invariants import (
    DiffeoSymmetry,
    ManifoldSpec,
    SubspaceSpec,
    spatiotemporal_residual,
    subspace_certificate,
)
from sipkit.measures import Ball, Box, DomainSampler, VectorField, WeightFamily
from sipkit.mirror import RegressionProblem, _dual_hessian
from sipkit.pdelab import Grid1D, conservation_rate
from sipkit.spaces import NormSpec, norm, sip

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
    "conservation_rate": [3.7049573972626733, 3.802829689468425],
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

    # zero-range residual against the scalar sip loop
    F = np.random.default_rng(5).normal(size=(4, 4))
    for spec in (NormSpec(p=3.0), NormSpec(p=1.5, weight=np.diag([1.0, 2.0, 0.5, 3.0]))):
        probes = np.random.default_rng(0).normal(size=(200, 4))
        want = max(abs(sip(x / norm(x, spec), F @ (x / norm(x, spec)), spec)) for x in probes)
        assert _zero_range_residual(F, spec) == pytest.approx(want, rel=1e-12)
