import math

import numpy as np
import pytest
from scipy.linalg import orth

from sipkit.errors import DegenerateArgumentError, DimensionError, UnsupportedNormError
from sipkit.mirror import (
    SQUARED_LOSS,
    DualState,
    RegressionProblem,
    duality_map,
    inverse_duality,
    mirror_descent_run,
    predictions,
    risk_and_gradient,
)
from sipkit.spaces import NormSpec, sip


def spread_row_problem(p=1.5, seed=7):
    """Five well-conditioned unit feature rows with a consistent linear target."""
    rng = np.random.default_rng(seed)
    R = orth(rng.normal(size=(5, 3)))
    utrue = np.array([0.8, -0.5, 0.3])
    D = np.array([duality_map(R[i], p) for i in range(5)])
    ys = D @ utrue
    prob = RegressionProblem(
        samples=tuple((i, ys[i]) for i in range(5)),
        features=lambda i: R[int(i)],
        p=p,
    )
    return prob, utrue, D, ys


# ------------------------------------------------------------ duality map


def test_duality_map_frozen_example():
    d = duality_map([1.0, -2.0], 4.0)
    assert np.max(np.abs(d - np.array([1.0, -8.0]) / math.sqrt(17.0))) < 1e-15


def test_duality_map_p2_is_identity():
    u = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(duality_map(u, 2.0), u)
    assert np.array_equal(inverse_duality(u, 2.0), u)


def test_duality_map_zero_and_unit_vectors():
    assert np.array_equal(duality_map(np.zeros(3), 3.0), np.zeros(3))
    assert np.allclose(inverse_duality([1.0, 0.0], 4.0), [1.0, 0.0])


def test_duality_map_rejects_endpoints():
    with pytest.raises(UnsupportedNormError):
        duality_map([1.0, 2.0], 1.0)
    with pytest.raises(UnsupportedNormError):
        duality_map([1.0, 2.0], math.inf)
    with pytest.raises(DegenerateArgumentError):
        duality_map([1.0, 2.0], 0.5)


def test_roundtrip_and_norm_preservation():
    rng = np.random.default_rng(2)
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        q = p / (p - 1.0)
        for _ in range(200):
            u = rng.normal(size=6)
            du = duality_map(u, p)
            assert np.max(np.abs(inverse_duality(du, p) - u)) <= 1e-10
            assert abs(np.linalg.norm(du, ord=q) - np.linalg.norm(u, ord=p)) <= 1e-10


def test_pairing_identity_against_sip():
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0):
        spec = NormSpec(p=p)
        for _ in range(100):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            assert abs(duality_map(u, p) @ v - sip(u, v, spec)) <= 1e-9


def test_dual_state_keeps_both_coordinates():
    st = DualState.from_primal([1.0, -2.0], 4.0)
    assert np.max(np.abs(st.primal - inverse_duality(st.u_star, 4.0))) <= 1e-10
    moved = st.shifted(np.array([0.1, 0.0]))
    assert np.max(np.abs(moved.primal - inverse_duality(moved.u_star, 4.0))) <= 1e-10


# ------------------------------------------------------ risk and gradient


def test_predictions_are_linear_pairings():
    prob, utrue, D, ys = spread_row_problem()
    rng = np.random.default_rng(4)
    u = rng.normal(size=3)
    preds = predictions(u, prob)
    for i in range(5):
        k = prob.features(i)
        assert abs(preds[i] - sip(k, u, NormSpec(p=1.5))) <= 1e-12
    # linearity in the state
    v = rng.normal(size=3)
    assert np.max(np.abs(predictions(u + v, prob) - preds - predictions(v, prob))) <= 1e-12


def test_gradient_matches_finite_differences():
    prob, *_ = spread_row_problem(p=1.5)
    rng = np.random.default_rng(5)
    u = rng.normal(size=3)
    _, g = risk_and_gradient(u, prob)
    for j in range(3):
        h = 1e-6
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        fd = (risk_and_gradient(up, prob)[0] - risk_and_gradient(um, prob)[0]) / (2.0 * h)
        assert abs(g[j] - fd) <= 1e-5


def test_gradient_vanishes_at_interpolant():
    prob, utrue, *_ = spread_row_problem()
    risk, g = risk_and_gradient(utrue, prob)
    assert risk <= 1e-28
    assert np.linalg.norm(g) <= 1e-13


def test_single_sample_p2_reduces_to_least_squares():
    k = np.array([0.4, -0.2, 0.9])
    prob = RegressionProblem(samples=((0, 1.2),), features=lambda i: k, p=2.0)
    u = np.array([0.3, 0.1, -0.5])
    _, g = risk_and_gradient(u, prob)
    assert np.max(np.abs(g - (k @ u - 1.2) * k)) == 0.0


def test_problem_validation():
    with pytest.raises(DegenerateArgumentError):
        RegressionProblem(samples=(), features=lambda x: np.ones(2), p=1.5)
    with pytest.raises(UnsupportedNormError):
        RegressionProblem(samples=((0, 1.0),), features=lambda x: np.ones(2), p=1.0)
    ragged = {0: np.ones(2), 1: np.ones(3)}
    prob = RegressionProblem(samples=((0, 1.0), (1, 2.0)), features=lambda x: ragged[x], p=2.0)
    with pytest.raises(DimensionError):
        prob.feature_matrix()


# ----------------------------------------------------------- descent runs


def test_p2_descent_is_bitwise_gradient_descent():
    prob, utrue, D, ys = spread_row_problem(p=2.0)
    u0 = np.array([0.2, -0.4, 0.9])
    umd, rep = mirror_descent_run(prob, 0.05, 200, u0)
    ug = u0.copy()
    for _ in range(200):
        _, g = risk_and_gradient(ug, prob)
        ug = ug - 0.05 * g
    assert np.max(np.abs(umd - ug)) <= 1e-12
    assert not rep.warned


def test_p15_converges_from_multiple_starts():
    prob, utrue, D, ys = spread_row_problem(p=1.5)
    finals = []
    for start in (np.zeros(3), np.full(3, 0.5), np.array([1.0, -1.0, 1.0])):
        u, rep = mirror_descent_run(prob, 0.1, 10_000, start)
        assert rep.final_risk <= 1e-8
        assert rep.gradient_norm <= 1e-8
        assert rep.fitted_rate < 0
        assert not rep.warned
        finals.append(u)
    spread = max(np.max(np.abs(a - b)) for a in finals for b in finals)
    assert spread <= 1e-6
    # optimality: matches the direct convex solve through the dual features
    uls, *_ = np.linalg.lstsq(D, ys, rcond=None)
    direct = 0.5 * np.sum((D @ uls - ys) ** 2)
    assert rep.final_risk <= direct + 1e-8


def test_path_rate_and_threshold_certify_stability():
    prob, *_ = spread_row_problem(p=1.5)
    u, rep = mirror_descent_run(prob, 0.1, 2000, np.zeros(3))
    assert rep.path_rate.value < 0  # contracting along the visited path
    assert rep.path_rate.kind == "sampled-lower-bound"
    assert rep.stability_threshold > 0.1  # the step used was admissible


def test_zero_step_is_a_noop():
    prob, utrue, *_ = spread_row_problem()
    u0 = utrue + 0.1
    u, rep = mirror_descent_run(prob, 0.0, 50, u0)
    assert np.array_equal(u, u0)
    assert np.ptp(rep.risks) == 0.0


def test_monotone_descent_below_threshold():
    prob, *_ = spread_row_problem(p=1.5)
    _, probe = mirror_descent_run(prob, 0.1, 100, np.zeros(3))
    step = 0.5 * probe.stability_threshold
    _, rep = mirror_descent_run(prob, step, 400, np.zeros(3))
    assert np.all(np.diff(rep.risks) <= 1e-12 * max(1.0, rep.risks[0]))


def test_oversized_step_sets_warning():
    prob, *_ = spread_row_problem(p=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, rep = mirror_descent_run(prob, 5.0, 100, np.array([0.2, -0.4, 0.9]))
    assert rep.warned
    assert "step" in rep.note


def test_constant_weight_in_path_rate():
    prob, *_ = spread_row_problem(p=1.5)
    _, rep = mirror_descent_run(prob, 0.1, 500, np.zeros(3), theta=np.array([1.0, 2.0, 0.5]))
    assert np.isfinite(rep.path_rate.value)


def test_run_validation():
    prob, *_ = spread_row_problem()
    with pytest.raises(DegenerateArgumentError):
        mirror_descent_run(prob, -0.1, 10, np.zeros(3))
    with pytest.raises(DimensionError):
        mirror_descent_run(prob, 0.1, 10, np.zeros(4))


def test_path_rate_equals_per_checkpoint_loop():
    from sipkit.measures import operator_rate
    from sipkit.mirror import _dual_hessian

    prob, *_ = spread_row_problem(p=1.5)
    u0 = np.array([0.3, -0.2, 0.1])
    steps = 40
    for theta in (None, np.array([1.0, 2.0, 0.5])):
        _, rep = mirror_descent_run(prob, 0.1, steps, u0, theta=theta)
        spec = NormSpec(p=3.0, weight=None if theta is None else np.diag(theta))
        worst = None
        for k in np.unique(np.linspace(0, steps, num=5, dtype=int)):
            uk, _ = mirror_descent_run(prob, 0.1, int(k), u0, rate_checkpoints=1)
            est = operator_rate(-_dual_hessian(uk, prob), spec)
            if worst is None or est.value > worst.value:
                worst = est
        got = rep.path_rate
        assert (got.kind, got.samples, got.ascent_iters) == (worst.kind, worst.samples, worst.ascent_iters)
        assert got.value == pytest.approx(worst.value, rel=1e-8)
