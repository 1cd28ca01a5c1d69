import math

import numpy as np
import pytest

from sipkit.couplings import (
    BlockSystem,
    additive_rate,
    continuum_rate,
    feedback_certificate,
    feedforward_bound,
    product_lp_rate,
    trapezoid_rule,
    zero_diagonal_unitary,
)
from sipkit.errors import DegenerateArgumentError, DimensionError
from sipkit.flows import integrate
from sipkit.measures import Ball, Box, DomainSampler, VectorField, lognorm_closed
from sipkit.spaces import NormSpec


def interval_sampler(count=60, seed=1):
    return DomainSampler(Box(np.array([-1.0]), np.array([1.0])), count=count, seed=seed)


# -------------------------------------------------------------- additive


def test_additive_identity_sum():
    f = VectorField.linear(np.array([[-1.0]]))
    rep = additive_rate(f, f, 1.0, 1.0, NormSpec(), interval_sampler())
    assert abs(rep.bound - (-2.0)) < 1e-12
    assert abs(rep.direct.value - (-2.0)) < 1e-12
    assert rep.component_rates == (-1.0, -1.0)


def test_additive_cubic_component():
    f1 = VectorField.linear(np.array([[-1.0]]))
    f2 = VectorField.autonomous(lambda u: -u**3, 1)
    rep = additive_rate(f1, f2, 1.0, 1.0, NormSpec(), interval_sampler())
    # cubic rate tops out at zero, so the bound sits at the linear rate
    assert -1.05 < rep.bound <= -1.0 + 1e-3
    assert rep.direct.value <= rep.bound + 1e-9
    assert rep.direct.value <= -1.0 + 1e-9


def test_additive_zero_weight_passthrough():
    f1 = VectorField.linear(np.array([[-1.0]]))
    f2 = VectorField.linear(np.array([[-3.0]]))
    rep = additive_rate(f1, f2, 0.0, 1.0, NormSpec(), interval_sampler())
    assert rep.bound == rep.component_rates[1] == -3.0
    assert abs(rep.direct.value - (-3.0)) < 1e-9


def test_additive_time_varying_weights():
    f1 = VectorField.linear(np.array([[-1.0]]))
    f2 = VectorField.linear(np.array([[-2.0]]))
    times = (0.0, 0.5, 1.0)
    rep = additive_rate(f1, f2, lambda t: 1.0 + t, 1.0, NormSpec(), interval_sampler(), times)
    assert abs(rep.bound - (-3.0)) < 1e-12
    assert rep.direct.value <= rep.bound + 1e-9


def test_additive_weight_validation():
    f = VectorField.linear(np.array([[-1.0]]))
    with pytest.raises(DegenerateArgumentError):
        additive_rate(f, f, -0.5, 1.0, NormSpec(), interval_sampler())
    with pytest.raises(DegenerateArgumentError):
        additive_rate(f, f, 0.0, 0.0, NormSpec(), interval_sampler())
    g = VectorField.linear(-np.eye(2))
    with pytest.raises(DimensionError):
        additive_rate(f, g, 1.0, 1.0, NormSpec(), interval_sampler())


def test_additive_subadditivity_property():
    # direct rate of the mix never exceeds the weighted component bound
    rng = np.random.default_rng(21)
    samp = DomainSampler(Ball(np.zeros(2), 1.0), count=40, seed=2)
    for _ in range(10):
        A1 = rng.normal(size=(2, 2))
        A2 = rng.normal(size=(2, 2))
        a1, a2 = rng.uniform(0.1, 2.0, size=2)
        rep = additive_rate(
            VectorField.linear(A1), VectorField.linear(A2), a1, a2, NormSpec(), samp
        )
        assert rep.direct.value <= rep.bound + 1e-9


# -------------------------------------------------------------- feedback


def test_feedback_skew_coupling_collapses():
    om = 2.0
    sys = BlockSystem(
        [[np.array([[-1.0]]), np.array([[om]])], [np.array([[-om]]), np.array([[-2.0]])]],
        dims=(1, 1),
    )
    rep = feedback_certificate(sys)
    assert rep.skewness_residual == 0.0
    assert rep.block_rates == (-1.0, -2.0)
    assert abs(rep.composite_rate - (-1.0)) < 1e-12
    assert rep.zero_range_residual <= 1e-12
    assert abs(rep.equivalence_gap) <= 1e-12


def test_feedback_symmetric_coupling_degrades():
    sys = BlockSystem(
        [[np.array([[-1.0]]), np.array([[1.0]])], [np.array([[1.0]]), np.array([[-2.0]])]],
        dims=(1, 1),
    )
    rep = feedback_certificate(sys)
    assert abs(rep.skewness_residual - 2.0) < 1e-12
    want = (-3.0 + math.sqrt(5.0)) / 2.0
    assert abs(rep.composite_rate - want) < 1e-12
    assert rep.composite_rate > max(rep.block_rates)


def test_feedback_equivalence_property_random():
    # skew-adjoint coupling: composite equals the larger block rate in l2
    rng = np.random.default_rng(31)
    for _ in range(15):
        n1, n2 = rng.integers(1, 4), rng.integers(1, 4)
        A11 = rng.normal(size=(n1, n1))
        A22 = rng.normal(size=(n2, n2))
        B = rng.normal(size=(n1, n2))
        sys = BlockSystem([[A11, B], [-B.T, A22]], dims=(n1, n2))
        rep = feedback_certificate(sys)
        assert rep.skewness_residual <= 1e-10
        assert abs(rep.equivalence_gap) <= 1e-8
        assert rep.zero_range_residual <= 1e-10


def test_feedback_state_dependent_blocks():
    # coupling strength depends on the state; certificate samples it
    def j12(t, u):
        return np.array([[math.sin(u[1])]])

    def j21(t, u):
        return np.array([[-math.sin(u[1])]])

    sys = BlockSystem(
        [[np.array([[-1.0]]), j12], [j21, np.array([[-2.0]])]], dims=(1, 1)
    )
    samp = DomainSampler(Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0])), count=30, seed=3)
    rep = feedback_certificate(sys, sampler=samp)
    assert rep.skewness_residual <= 1e-12
    assert abs(rep.composite_rate - (-1.0)) < 1e-10


def test_feedback_dimension_errors():
    one = np.array([[-1.0]])
    with pytest.raises(DimensionError):
        feedback_certificate(BlockSystem([[one] * 3] * 3, dims=(1, 1, 1)))
    bad = BlockSystem([[one, np.ones((1, 2))], [one, one]], dims=(1, 1))
    with pytest.raises(DimensionError):
        feedback_certificate(bad)
    with pytest.raises(DimensionError):
        BlockSystem([[one, one]], dims=(1, 1))
    with pytest.raises(DegenerateArgumentError):
        BlockSystem([[one, one], [one, one]], dims=(1, 1), product_p=0.5)


# --------------------------------------------------------------- product


def test_product_rate_frozen_example():
    sys = BlockSystem(
        [[np.array([[-1.0]]), None], [None, np.array([[-3.0]])]],
        dims=(1, 1),
        product_p=math.inf,
    )
    rep = product_lp_rate(sys)
    assert rep.per_block == (-1.0, -3.0)
    assert rep.product_rate == -1.0
    assert rep.simulated_rate <= -1.0 + 1e-6
    assert rep.dominance_ok


def test_product_single_block_is_identity():
    A = np.array([[-2.0, 1.0], [0.0, -1.0]])
    sys = BlockSystem([[A]], dims=(2,), product_p=2.0)
    rep = product_lp_rate(sys)
    assert abs(rep.product_rate - lognorm_closed(A, 2.0).value) < 1e-12


def test_product_collapse_property():
    # block-diagonal operators: product rate equals the full-matrix rate
    rng = np.random.default_rng(41)
    for p in (1.0, 2.0, math.inf):
        for _ in range(10):
            d1, d2, d3 = (int(k) for k in rng.integers(1, 4, size=3))
            B1 = rng.normal(size=(d1, d1))
            B2 = rng.normal(size=(d2, d2))
            B3 = rng.normal(size=(d3, d3))
            sys = BlockSystem(
                [[B1, None, None], [None, B2, None], [None, None, B3]],
                dims=(d1, d2, d3),
                product_p=p,
            )
            rep = product_lp_rate(sys, horizon=1.0)
            full = np.zeros((d1 + d2 + d3, d1 + d2 + d3))
            full[:d1, :d1] = B1
            full[d1 : d1 + d2, d1 : d1 + d2] = B2
            full[d1 + d2 :, d1 + d2 :] = B3
            assert abs(rep.product_rate - lognorm_closed(full, p).value) <= 1e-9


def test_product_simulated_rate_matches_per_perturbation_integrate():
    # the perturbations are integrated as one stack; each must decay as it
    # does alone, with the same seeded starts
    from sipkit.flows import overshoot_fit
    from sipkit.spaces import norm

    rng = np.random.default_rng(42)
    B1, B2 = -2.0 * np.eye(2) + 0.3 * rng.normal(size=(2, 2)), -np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    sys = BlockSystem([[B1, None], [None, B2]], dims=(2, 3), product_p=1.0)
    rep = product_lp_rate(sys, horizon=2.0, n_perturbations=4, seed=5)
    lin = VectorField.linear(sys.assemble(0.0, np.zeros(5)))
    starts = np.random.default_rng(5)
    want = -math.inf
    for _ in range(4):
        d0 = starts.normal(size=5)
        tr = integrate(lin, d0 / norm(d0, NormSpec(p=1.0)), (0.0, 2.0), 1e-2)
        want = max(want, overshoot_fit(tr.times, [norm(s, NormSpec(p=1.0)) for s in tr.states])[0])
    assert rep.simulated_rate == pytest.approx(want, rel=1e-12)


def test_product_zero_range_coupling_decay():
    om = 2.0
    sys = BlockSystem(
        [[np.array([[-1.0]]), np.array([[om]])], [np.array([[-om]]), np.array([[-3.0]])]],
        dims=(1, 1),
        product_p=2.0,
    )
    rep = product_lp_rate(sys)
    assert rep.product_rate == -1.0
    assert rep.simulated_rate <= -1.0 + 1e-6
    assert rep.dominance_ok


# ------------------------------------------------------------ feedforward


def test_feedforward_frozen_values():
    conv = feedforward_bound(-1.0, -2.0, 1.0, 1.0, 0.0, 1.0, formula="convolution")
    assert abs(conv - (math.exp(-1.0) - math.exp(-2.0))) < 1e-15
    assert abs(conv - 0.23254415793482963) < 1e-15
    alt = feedforward_bound(-1.0, -2.0, 1.0, 1.0, 0.0, 1.0, formula="rate-sum")
    assert abs(alt - (-math.exp(-1.0) / 3.0)) < 1e-15
    assert abs(alt - (-0.12262648039048077)) < 1e-15
    assert alt < 0  # the rate-sum form can go negative; recorded, never used as a bound


def test_feedforward_decoupled_agrees():
    for mode in ("convolution", "rate-sum"):
        got = feedforward_bound(-1.0, -2.0, 0.0, 3.0, 0.7, 1.5, formula=mode)
        assert abs(got - 0.7 * math.exp(-3.0)) < 1e-15


def test_feedforward_equal_rates_limit():
    lim = feedforward_bound(-1.0, -1.0, 1.0, 1.0, 0.5, 2.0)
    near = feedforward_bound(-1.0, -1.0 - 1e-9, 1.0, 1.0, 0.5, 2.0)
    assert abs(lim - (0.5 * math.exp(-2.0) + 2.0 * math.exp(-2.0))) < 1e-14
    assert abs(lim - near) < 1e-7


def test_feedforward_dominates_simulated_cascade():
    # variation-of-constants: the convolution form bounds the true
    # second-block perturbation on random stable cascades
    rng = np.random.default_rng(51)
    for _ in range(10):
        lam1, lam2 = -rng.uniform(0.2, 3.0, size=2)
        if abs(lam1 - lam2) < 1e-3:
            lam2 -= 0.1
        B = rng.uniform(0.0, 2.0)
        d1_0 = rng.uniform(0.1, 2.0)
        d2_0 = rng.uniform(-1.0, 1.0)
        A = np.array([[lam1, 0.0], [B, lam2]])
        tr = integrate(VectorField.linear(A), np.array([d1_0, d2_0]), (0.0, 3.0), 1e-3)
        for k in range(0, len(tr.times), 50):
            t = tr.times[k]
            bound = feedforward_bound(lam1, lam2, B, d1_0, abs(d2_0), t)
            assert abs(tr.states[k, 1]) <= bound + 1e-6


def test_feedforward_validation():
    with pytest.raises(DegenerateArgumentError):
        feedforward_bound(0.1, -1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateArgumentError):
        feedforward_bound(-1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateArgumentError):
        feedforward_bound(-1.0, -1.0, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateArgumentError):
        feedforward_bound(-1.0, -2.0, 1.0, 1.0, 1.0, 1.0, formula="midpoint")


# -------------------------------------------------------------- continuum


def test_continuum_uniform_family():
    rep = continuum_rate(lambda t, x, u: -u, lambda x: 1.0, NormSpec(), interval_sampler())
    assert rep.nodes == 64
    assert abs(rep.weighted_mass - 1.0) < 1e-12
    assert abs(rep.pointwise_rate - (-1.0)) < 1e-9
    assert abs(rep.bound - (-1.0)) < 1e-9
    assert abs(rep.direct.value - (-1.0)) < 1e-9


def test_continuum_varying_family_direct_beats_bound():
    rep = continuum_rate(
        lambda t, x, u: -(1.0 + x) * u, lambda x: 1.0, NormSpec(), interval_sampler()
    )
    assert abs(rep.pointwise_rate - (-1.0)) < 1e-9
    assert abs(rep.bound - (-1.0)) < 1e-9
    # trapezoid integrates the linear profile exactly: direct rate -1.5
    assert abs(rep.direct.value - (-1.5)) < 1e-9
    assert rep.direct.value <= rep.bound + 1e-9


def test_continuum_weight_validation():
    samp = interval_sampler()
    with pytest.raises(DegenerateArgumentError):
        continuum_rate(lambda t, x, u: -u, lambda x: 0.0, NormSpec(), samp)
    with pytest.raises(DegenerateArgumentError):
        continuum_rate(lambda t, x, u: -u, lambda x: -1.0, NormSpec(), samp)


def test_continuum_subadditivity_property():
    rng = np.random.default_rng(61)
    samp = interval_sampler(count=30, seed=7)
    for _ in range(6):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.0, 3.0)
        c = rng.uniform(0.1, 1.5)
        rep = continuum_rate(
            lambda t, x, u, a=a, b=b: -(a + b * x * x) * u,
            lambda x, c=c: c * (1.0 + x),
            NormSpec(),
            samp,
        )
        assert rep.direct.value <= rep.bound + 1e-9


def test_trapezoid_rule_basics():
    nodes, weights = trapezoid_rule(9, length=2.0)
    assert abs(weights.sum() - 2.0) < 1e-12
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    with pytest.raises(DegenerateArgumentError):
        trapezoid_rule(1)


# ------------------------------------------------- zero-diagonal unitary


def test_zero_diagonal_rotation_example():
    A = np.diag([1.0, -1.0])
    U = zero_diagonal_unitary(A)
    D = U.conj().T @ A @ U
    assert np.max(np.abs(np.diag(D))) <= 1e-12
    # the quarter-turn rotation: every entry has modulus 1/sqrt(2)
    assert np.allclose(np.abs(U), 1.0 / math.sqrt(2.0), atol=1e-12)


def test_zero_diagonal_identity_when_already_zero():
    A = np.array([[0.0, 2.0], [3.0, 0.0]])
    U = zero_diagonal_unitary(A)
    assert np.allclose(U, np.eye(2))


def test_zero_diagonal_random_property():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = 6
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A -= np.trace(A) / n * np.eye(n)
        U = zero_diagonal_unitary(A)
        assert np.max(np.abs(np.diag(U.conj().T @ A @ U))) <= 1e-8
        assert np.linalg.norm(U.conj().T @ U - np.eye(n), 2) <= 1e-10


def test_zero_diagonal_repeated_eigenvalues():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]])
    U = zero_diagonal_unitary(A)
    assert np.max(np.abs(np.diag(U.conj().T @ A @ U))) <= 1e-8
    assert np.linalg.norm(U.conj().T @ U - np.eye(3), 2) <= 1e-10


def _rotation_120():
    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    A = np.zeros((3, 3))
    A[0, 0] = 1.0
    A[1:, 1:] = [[c, -s], [s, c]]
    return A


def _trace_free_normal(n, seed):
    A = np.random.default_rng(seed).normal(size=(n, n))
    return A - np.trace(A) / n * np.eye(n)


_JORDAN8 = np.diag(np.ones(7), 1)
_BASIS8 = np.linalg.qr(np.random.default_rng(8).normal(size=(8, 8)))[0]


@pytest.mark.parametrize(
    "A",
    [
        _rotation_120(),
        np.diag(np.exp(2j * np.pi * np.arange(3) / 3.0)),
        _JORDAN8,
        _BASIS8 @ _JORDAN8 @ _BASIS8.T,
        _trace_free_normal(20, 20),
    ],
    ids=["one-plus-rotation-120", "cube-roots-of-unity", "jordan-8", "jordan-8-rotated", "normal-20"],
)
def test_zero_diagonal_every_trace_free_input(A):
    U = zero_diagonal_unitary(A)
    nrm = np.linalg.norm(A, 2)
    assert np.max(np.abs(np.diag(U.conj().T @ A @ U))) <= 1e-12 * nrm
    assert np.linalg.norm(U.conj().T @ U - np.eye(len(A)), 2) <= 1e-12


def test_zero_diagonal_trace_precondition():
    with pytest.raises(DegenerateArgumentError):
        zero_diagonal_unitary(np.diag([1.0, 1.0]))
    with pytest.raises(DimensionError):
        zero_diagonal_unitary(np.ones((2, 3)))


def test_divergence_shift_corollary():
    # a field with divergence -c*n is, after the +cI shift, unitarily
    # similar to a zero-diagonal operator; the l2 rate is unchanged by
    # the unitary, so M(J) = M(U* Jbar U) - c
    rng = np.random.default_rng(81)
    c = 0.7
    for _ in range(8):
        n = 4
        J0 = rng.normal(size=(n, n))
        J = J0 - (np.trace(J0) / n) * np.eye(n) - c * np.eye(n)
        assert abs(np.trace(J) + c * n) < 1e-10
        Jbar = J + c * np.eye(n)
        U = zero_diagonal_unitary(Jbar)
        lhs = lognorm_closed(J, 2.0).value
        rhs = lognorm_closed(U.conj().T @ Jbar @ U, 2.0).value - c
        assert lhs <= rhs + 1e-8
        assert abs(lhs - rhs) <= 1e-8
