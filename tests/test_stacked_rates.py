"""Matrix rates taken over stacks of sampled Jacobians.

The coupling certificates assemble each (time, state) Jacobian once and
rate every block of every state in one call; they are compared with a
per-state operator_rate loop and their block callbacks are counted.  The
pattern reports and the manifold certificate, which rate stacks too, are
pinned bit for bit on fixed inputs.
"""

import math

import numpy as np
import pytest

from sipkit.couplings import BlockSystem, _zero_range_residual, feedback_certificate, product_lp_rate
from sipkit.invariants import ManifoldSpec, manifold_certificate
from sipkit.measures import Ball, Box, DomainSampler, Sphere, VectorField, operator_rate
from sipkit.pdelab import Grid1D, demean, pattern_report
from sipkit.spaces import NormSpec

_TIMES = (0.0, 0.5)


def _blocks():
    """Two state-dependent blocks of dimensions 2 and 1 with a coupling
    that is neither skew nor constant."""
    return [
        [
            lambda t, u: np.array([[-1.0 - u[0] ** 2, math.sin(u[1]) + t], [0.3, -2.0 + 0.5 * u[2]]]),
            lambda t, u: np.array([[u[2]], [math.cos(t) - u[0]]]),
        ],
        [
            lambda t, u: np.array([[-u[2], 0.5 * u[0] * (1.0 + t)]]),
            lambda t, u: np.array([[-1.5 + t * u[1]]]),
        ],
    ]


def _sampler():
    return DomainSampler(Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), count=6, seed=8)


def _close(got, want, p):
    if p in (1.0, 2.0, math.inf):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_coupling_certificates_match_per_state_operator_rate_loops(p):
    spec = NormSpec(p=p)
    sys = BlockSystem(_blocks(), dims=(2, 1), product_p=p)
    rates, composite, skew, zr = [-math.inf, -math.inf], -math.inf, 0.0, 0.0
    for t in _TIMES:
        for u in _sampler().points():
            J = sys.assemble(t, u)
            rates[0] = max(rates[0], operator_rate(J[:2, :2], spec).value)
            rates[1] = max(rates[1], operator_rate(J[2:, 2:], spec).value)
            composite = max(composite, operator_rate(J, spec).value)
            skew = max(skew, float(np.linalg.norm(J[:2, 2:] + J[2:, :2].T, 2)))
            off = J.copy()
            off[:2, :2] = off[2:, 2:] = 0.0
            zr = max(zr, _zero_range_residual(off, spec))

    rep = feedback_certificate(sys, spec, _sampler(), _TIMES)
    for got, want in zip(rep.block_rates, rates):
        _close(got, want, p)
    _close(rep.composite_rate, composite, p)
    _close(rep.equivalence_gap, composite - max(rates), p)
    assert rep.skewness_residual == skew
    assert rep.zero_range_residual == pytest.approx(zr, rel=1e-12)

    prod = product_lp_rate(sys, _sampler(), _TIMES, horizon=0.5, n_perturbations=1)
    for got, want in zip(prod.per_block, rates):
        _close(got, want, p)
    _close(prod.product_rate, max(rates), p)


def test_coupling_certificates_call_each_block_once_per_state():
    calls = {}

    def counted(i, j, cb):
        def wrapped(t, u):
            calls[i, j] = calls.get((i, j), 0) + 1
            return cb(t, u)

        return wrapped

    blocks = [[counted(i, j, cb) for j, cb in enumerate(row)] for i, row in enumerate(_blocks())]
    sys = BlockSystem(blocks, dims=(2, 1), product_p=3.0)
    states = len(_TIMES) * _sampler().count
    feedback_certificate(sys, NormSpec(p=3.0), _sampler(), _TIMES)
    assert calls == dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1)], states)
    calls.clear()
    product_lp_rate(sys, _sampler(), _TIMES, horizon=0.5, n_perturbations=1)
    assert calls == dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1)], states)


def test_demean_of_a_stack_is_row_by_row():
    X = np.random.default_rng(3).normal(size=(5, 7))
    got = demean(X)
    assert got.shape == X.shape
    for row, want in zip(got, X):
        assert row.tolist() == demean(want).tolist()


def _pinned_outputs():
    """Pattern and manifold rates on fixed inputs, each as plain floats and ints."""
    grid = Grid1D(12, "periodic")
    x = grid.points

    def reaction(t, u):
        return -(u**3) + 0.5 * np.cos(t) * u + 0.2 * np.sin(u) + 0.01 * np.cos(2.0 * np.pi * x)

    sup = pattern_report(
        0.8,
        reaction,
        grid,
        DomainSampler(Box((-1.0,) * 12, (1.0,) * 12), count=6, seed=4),
        times=_TIMES,
        t_span=0.05,
    )
    exc_grid = Grid1D(16, "periodic")
    exc = pattern_report(
        (1.0, 0.7),
        lambda t, own, other: 3.0 * (own - other) + 0.1 * np.tanh(own) * other,
        exc_grid,
        mode="excitation",
        witness=np.sin(2.0 * np.pi * exc_grid.points),
        t_span=0.01,
    )
    out = {
        "suppression": [
            sup.invariance_residual,
            sup.reaction_rate,
            sup.diffusion_rate,
            sup.predicted_bound,
            sup.simulated_rate,
            sup.mode1_growth,
        ],
        "excitation": [exc.sum_mode_rate, exc.pattern_mode_rate],
    }

    def hopf(t, u):
        s = 1.0 - u @ u
        return np.array([s * u[0] - 3.0 * u[1], 3.0 * u[0] + s * u[1]])

    def hopf_jac(t, u):
        x, y = u
        xy = 2.0 * x * y
        return np.array([[1.0 - 3.0 * x * x - y * y, -3.0 - xy], [3.0 - xy, 1.0 - x * x - 3.0 * y * y]])

    def skewed(t, v):
        return np.array([-v[0] + np.sin(v[1]), -2 * v[1] + t * v[0] * v[2], -v[2] + 0.3 * v[0]])

    circle = dict(phi=lambda u: np.array([u @ u - 1.0]), dim=2, codim=1)
    cases = {
        "hopf-analytic": (
            VectorField(hopf, 2, jac=hopf_jac),
            ManifoldSpec(**circle, dphi=lambda u: 2.0 * u[None, :]),
        ),
        "hopf-difference": (VectorField(hopf, 2), ManifoldSpec(**circle)),
        # two constraints in R^3, some sampled states close to rank-deficient
        "codim2-difference": (
            VectorField(skewed, 3),
            ManifoldSpec(lambda v: np.array([v @ v - 1.0, v[0] * v[2] - np.sin(v[1])]), dim=3, codim=2),
        ),
    }
    ambient = {
        2: DomainSampler(Sphere(np.zeros(2), 1.0), count=16, seed=2),
        3: DomainSampler(Box((-1.0,) * 3, (1.0,) * 3), count=10, seed=1),
    }
    for name, (f, man) in cases.items():
        rep = manifold_certificate(
            f,
            man,
            DomainSampler(Ball(np.zeros(man.dim), 1.2), count=5, seed=1),
            ambient[man.dim],
            NormSpec(p=3.0),
            times=_TIMES,
        )
        rate = rep.rate
        out[name] = [rep.tangency_residual, rate.value, rate.samples, rate.ascent_iters]
        out[name].append(rep.min_singular_value)
    return out


# recorded before the coupling, pattern and manifold rates ran on stacks;
# the manifold entries re-recorded when the constraint rate became the
# inner log norm of Dphi Df Dphi^+ (samples count states)
_PINS = {
    "suppression": [
        0.024494897427831792,
        0.6999723775296036,
        -38.58468371008163,
        -30.1677745905357,
        -30.975794677594806,
        0.21247877326301626,
    ],
    "excitation": [-33.12762744631738, -27.127627445824654],
    "hopf-analytic": [2.407108739279898e-13, -1.9999999999999976, 32, 50, 1.9999999999999998],
    "hopf-difference": [1.187606279685513e-10, -1.9999999998892162, 32, 50, 1.9999999999420286],
    "codim2-difference": [2.58607826183603, 544.6724336844369, 20, 50, 1.1682909878594228],
}


def test_stacked_pattern_and_manifold_rates_are_pinned_bit_for_bit():
    got = _pinned_outputs()
    assert got.keys() == _PINS.keys()
    for name, value in got.items():
        assert value == _PINS[name], name
