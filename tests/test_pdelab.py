import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sipkit.errors import (
    CertificateRefusedError,
    DegenerateArgumentError,
    DimensionError,
    DivergenceError,
    StepSizeError,
    UnsupportedNormError,
)
from sipkit.flows import integrate, overshoot_fit
from sipkit.measures import Ball, DomainSampler, Points, VectorField
from sipkit.pdelab import (
    Grid1D,
    Grid2D,
    SobolevSpec,
    build_laplacian,
    conservation_rate,
    demean,
    difference_operator,
    fixed_point_solve,
    mass_zero_basis,
    pattern_report,
    poincare_rate,
    rd_simulate,
    sobolev_rate,
    total_mass,
)
from sipkit.spaces import NormSpec, norm


def central_difference(grid):
    N = grid.n
    return (np.roll(np.eye(N), -1, axis=1) - np.roll(np.eye(N), 1, axis=1)) / (2.0 * grid.h)


def discrete_gap(grid):
    # first nonconstant Fourier mode of the periodic second difference
    h = grid.h
    return -(2.0 / h**2) * (1.0 - math.cos(2.0 * math.pi * h / grid.length))


# ------------------------------------------------------------- operators


def test_laplacian_frozen_stencil():
    L = build_laplacian(Grid1D(3, "dirichlet"))
    want = np.array([[-32.0, 16.0, 0.0], [16.0, -32.0, 16.0], [0.0, 16.0, -32.0]])
    assert np.array_equal(L, want)


def test_laplacian_symmetric_and_dissipative_all_bcs():
    rng = np.random.default_rng(3)
    for bc in ("dirichlet", "neumann", "periodic"):
        L = build_laplacian(Grid1D(24, bc))
        assert np.array_equal(L, L.T)
        for v in rng.normal(size=(100, 24)):
            assert v @ L @ v <= 1e-10
        if bc != "dirichlet":
            assert np.max(np.abs(L.sum(axis=1))) <= 1e-10  # constants in kernel


def test_laplacian_dirichlet_spectrum():
    g = Grid1D(128, "dirichlet")
    L = build_laplacian(g)
    h = g.h
    want = -(4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
    assert abs(np.linalg.eigvalsh(L)[-1] - want) < 1e-8


def test_difference_operator_shapes_and_composition():
    g = Grid1D(10, "dirichlet")
    D1 = difference_operator(g, 1)
    assert D1.shape == (11, 10)
    assert np.allclose(-(D1.T @ D1), build_laplacian(g))
    gp = Grid1D(10, "periodic")
    for k in range(1, 5):
        assert difference_operator(gp, k).shape == (10, 10)
    gn = Grid1D(10, "neumann")
    assert difference_operator(gn, 2).shape == (8, 10)
    with pytest.raises(DegenerateArgumentError):
        difference_operator(g, 5)
    with pytest.raises(UnsupportedNormError):
        difference_operator(Grid2D(4, "dirichlet"), 2)


@pytest.mark.parametrize("bc", ("dirichlet", "neumann", "periodic"))
def test_grid2d_difference_operator_stacks_the_axis_differences(bc):
    g = Grid2D((4, 6), bc, (0.8, 1.3))
    gx, gy = g.axes
    Dx, Dy = difference_operator(gx), difference_operator(gy)
    D = difference_operator(g)
    assert D.shape == (Dx.shape[0] * 6 + 4 * Dy.shape[0], 24)
    U = np.random.default_rng(2).normal(size=(4, 6))
    assert np.allclose(D @ U.ravel(), np.concatenate([(Dx @ U).ravel(), (U @ Dy.T).ravel()]), rtol=0.0, atol=1e-12)
    assert np.allclose(-(D.T @ D), build_laplacian(g), rtol=0.0, atol=1e-9)


def forward_stencil(m, k, h):
    # k-th forward difference on m points: row i holds (-1)^(k-j) C(k, j) / h^k at i + j
    S = np.zeros((m - k, m))
    for i in range(m - k):
        for j in range(k + 1):
            S[i, i + j] = (-1) ** (k - j) * math.comb(k, j) / h**k
    return S


def test_difference_operator_higher_orders_match_stencils():
    for n, length in ((10, 1.0), (13, 2.5)):
        gn = Grid1D(n, "neumann", length)
        gd = Grid1D(n, "dirichlet", length)
        for k in (2, 3, 4):
            # neumann: interior differences; dirichlet: differences of the
            # zero-padded vector (u_0 = u_{n+1} = 0), padded columns dropped
            for D, S in (
                (difference_operator(gn, k), forward_stencil(n, k, gn.h)),
                (difference_operator(gd, k), forward_stencil(n + 2, k, gd.h)[:, 1:-1]),
            ):
                assert D.shape == S.shape
                assert np.max(np.abs(D - S)) <= 1e-12 * np.max(np.abs(S))
    g = Grid1D(6, "neumann")
    D2 = difference_operator(g, 2) * g.h**2
    assert np.allclose(D2[1], [0.0, 1.0, -2.0, 1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)


def test_grid_validation_and_spacing():
    assert Grid1D(7, "dirichlet").h == 1.0 / 8.0
    assert Grid1D(8, "periodic").h == 1.0 / 8.0
    assert Grid1D(9, "neumann").h == 1.0 / 8.0
    with pytest.raises(DimensionError):
        Grid1D(2)
    with pytest.raises(DegenerateArgumentError):
        Grid1D(5, "robin")
    with pytest.raises(DegenerateArgumentError):
        Grid1D(5, "dirichlet", length=0.0)


def test_grid2d_laplacian_kron_structure():
    g = Grid2D((3, 4), "dirichlet")
    L2 = build_laplacian(g)
    gx, gy = g.axes
    Lx, Ly = build_laplacian(gx), build_laplacian(gy)
    rng = np.random.default_rng(4)
    U = rng.normal(size=(3, 4))
    assert np.allclose(L2 @ U.ravel(), (Lx @ U + U @ Ly.T).ravel())
    assert np.array_equal(L2, L2.T)


@pytest.mark.parametrize("bc", ("dirichlet", "neumann", "periodic"))
def test_grid2d_laplacian_is_the_kronecker_sum(bc):
    g = Grid2D((5, 9), bc, (0.8, 1.3))
    gx, gy = g.axes
    want = np.kron(build_laplacian(gx), np.eye(9)) + np.kron(np.eye(5), build_laplacian(gy))
    assert np.array_equal(build_laplacian(g), want)


def test_grid2d_laplacian_holds_one_dense_array():
    # the sum of two N x N Kronecker products held three N x N arrays at its peak
    tracemalloc.start()
    try:
        L = build_laplacian(Grid2D((32, 32)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * L.nbytes


# ---------------------------------------------------------- spectral gap


def test_poincare_dirichlet_second_order_convergence():
    errs = []
    for n in (16, 32, 64, 128):
        rate = poincare_rate(Grid1D(n, "dirichlet")).value
        errs.append(abs(rate + math.pi**2))
    assert errs[-1] <= 0.01 * math.pi**2
    for a, b in zip(errs, errs[1:]):
        assert 3.5 <= a / b <= 4.5  # O(h^2)


def test_poincare_periodic_mass_zero():
    g = Grid1D(128, "periodic")
    r = poincare_rate(g)
    assert abs(r.value + 4.0 * math.pi**2) <= 0.005 * 4.0 * math.pi**2
    assert abs(r.value - discrete_gap(g)) < 1e-9


def test_poincare_neumann_degenerate_flag():
    r = poincare_rate(Grid1D(32, "neumann"))
    assert r.value == 0.0
    assert "degenerate" in r.note


def test_poincare_rejects_other_norms():
    with pytest.raises(UnsupportedNormError):
        poincare_rate(Grid1D(16, "dirichlet"), NormSpec(p=1.0))


GAP_GRIDS = (
    Grid1D(17, "dirichlet"),
    Grid1D(11, "dirichlet", length=2.5),
    Grid1D(16, "periodic"),
    Grid1D(9, "periodic", length=0.7),
    Grid2D((5, 9), "dirichlet", lengths=(0.8, 1.3)),
    Grid2D((5, 9), "periodic", lengths=(0.8, 1.3)),
)


@pytest.mark.parametrize("grid", GAP_GRIDS, ids=lambda g: f"{g.bc}-{g.ndim}d-{g.size}")
def test_poincare_matches_dense_spectrum(grid):
    L = build_laplacian(grid)
    if grid.bc == "periodic":
        V = mass_zero_basis(grid.size)
        L = V.T @ L @ V
    want = np.linalg.eigvalsh(L)[-1]
    assert abs(poincare_rate(grid).value - want) <= 1e-12 * abs(want)


def test_poincare_builds_no_operator(monkeypatch):
    import sipkit.pdelab as pdelab

    def refuse(*args, **kwargs):
        raise AssertionError("poincare_rate must not build or eigensolve an operator")

    monkeypatch.setattr(pdelab, "build_laplacian", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    g = Grid2D((60, 60), "dirichlet", lengths=(1.0, 2.0))
    want = sum(-(4.0 / ax.h**2) * math.sin(math.pi / 122) ** 2 for ax in g.axes)
    assert abs(poincare_rate(g).value - want) <= 1e-12 * abs(want)
    r = poincare_rate(Grid2D((60, 60), "periodic"))
    assert abs(r.value + 4.0 * math.pi**2) <= 0.01 * 4.0 * math.pi**2
    assert r.note == "mass-zero projection applied"


def test_poincare_neumann_2d_degenerate_flag():
    r = poincare_rate(Grid2D((5, 9), "neumann", lengths=(0.8, 1.3)))
    assert r.value == 0.0
    assert "degenerate" in r.note


@pytest.mark.parametrize("n", (3, 8, 64))
def test_mass_zero_basis_orthonormal_and_mean_free(n):
    V = mass_zero_basis(n)
    assert V.shape == (n, n - 1)
    assert np.max(np.abs(V.T @ V - np.eye(n - 1))) <= 1e-12
    assert np.max(np.abs(V.sum(axis=0))) <= 1e-12


# -------------------------------------------------------------- simulate


def test_rd_heat_mode_decay_periodic():
    g = Grid1D(64, "periodic")
    u0 = demean(np.sin(2.0 * np.pi * g.points))
    h_t = 0.9 * g.h**2 / 2.0
    tr = rd_simulate(1.0, None, g, u0, (0.0, 0.1), h_t)
    d = np.array([np.linalg.norm(s) for s in tr.states])
    assert d[-1] <= math.exp(-4.0 * math.pi**2 * (1.0 - 0.02) * tr.times[-1]) * d[0]
    lam, _ = overshoot_fit(tr.times, d)
    assert abs(lam - discrete_gap(g)) <= 0.005 * abs(discrete_gap(g))


def test_rd_mean_channel_decays_with_reaction():
    # the mean is untouched by diffusion and obeys d/dt mean = -mean
    g = Grid1D(32, "periodic")
    u0 = 1.0 + 0.2 * np.sin(2.0 * np.pi * g.points)
    h_t = 0.9 * g.h**2 / 2.0
    tr = rd_simulate(1.0, lambda t, U: -U, g, u0, (0.0, 0.5), h_t)
    m0 = tr.states[0].mean()
    mT = tr.states[-1].mean()
    assert abs(mT - m0 * math.exp(-tr.times[-1])) < 1e-8


def test_rd_neumann_conserves_mass():
    g = Grid1D(33, "neumann")
    u0 = 1.0 + np.cos(np.pi * g.points)
    tr = rd_simulate(1.0, None, g, u0, (0.0, 0.2), 0.9 * g.h**2 / 2.0)
    m = total_mass(g, tr.states)
    assert np.max(np.abs(m - m[0])) <= 1e-10


def test_rd_stability_guard():
    g = Grid1D(32, "periodic")
    u0 = np.zeros(32)
    limit = g.h**2 / 2.0
    with pytest.raises(StepSizeError) as ei:
        rd_simulate(1.0, None, g, u0, (0.0, 0.1), 2.0 * limit)
    assert ei.value.suggested <= limit + 1e-15
    tr = rd_simulate(1.0, None, g, np.sin(2 * np.pi * g.points), (0.0, 0.05), ei.value.suggested)
    assert np.all(np.isfinite(tr.states))


def test_rd_validation():
    g = Grid1D(16, "periodic")
    with pytest.raises(DegenerateArgumentError):
        rd_simulate(0.0, None, g, np.zeros(16), (0.0, 0.1), 1e-4)
    with pytest.raises(DimensionError):
        rd_simulate(1.0, None, g, np.zeros(7), (0.0, 0.1), 1e-4)


@pytest.mark.parametrize("bc", ("dirichlet", "neumann", "periodic"))
def test_rd_2d_matches_the_dense_laplacian(bc):
    g = Grid2D((5, 9), bc, (0.8, 1.3))
    N = g.size
    alphas = np.array([0.7, 1.1])
    L = build_laplacian(g)

    def reaction(t, U):
        return np.vstack([U[0] - U[0] * U[1], 0.5 * U[0] - U[1] ** 3])

    def dense(t, w):
        U = w.reshape(2, N)
        return (alphas[:, None] * (U @ L.T) + reaction(t, U)).ravel()

    u0 = 0.5 * np.random.default_rng(12).normal(size=(2, N))
    h_t = 0.9 * g.h**2 / (4.0 * alphas.max())
    t_span = (0.0, 30 * h_t)
    tr = rd_simulate(alphas, reaction, g, u0, t_span, h_t)
    ref = integrate(VectorField(dense, 2 * N), u0.ravel(), t_span, h_t)
    assert len(tr.times) == len(ref.times) == 31
    assert np.max(np.abs(tr.states - ref.states)) <= 1e-13 * np.max(np.abs(ref.states))


def test_rd_2d_builds_no_grid_operator(monkeypatch):
    # a dense 200 x 200 grid Laplacian would take 12.8 GB
    import sipkit.pdelab as pdelab

    build = pdelab.build_laplacian

    def axes_only(grid):
        if isinstance(grid, Grid2D):
            raise AssertionError("rd_simulate must not build the N x N Laplacian")
        return build(grid)

    monkeypatch.setattr(pdelab, "build_laplacian", axes_only)
    g = Grid2D((200, 200))
    gx, gy = g.axes
    # the product of the axes' first sine modes is an exact grid eigenvector
    u0 = np.outer(np.sin(np.pi * gx.points), np.sin(np.pi * gy.points)).ravel()
    lam = sum(-(4.0 / ax.h**2) * math.sin(math.pi / (2 * (ax.n + 1))) ** 2 for ax in g.axes)
    h_t = 0.9 * g.h**2 / 4.0
    tr = rd_simulate(1.0, None, g, u0, (0.0, 2 * h_t), h_t)
    z = h_t * lam
    amp = (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) ** 2  # two RK4 steps
    assert len(tr.times) == 3
    assert np.max(np.abs(tr.states[-1] - amp * u0)) <= 1e-12


def test_rd_2d_loads_no_scipy_sparse():
    import sipkit

    import_path = [str(Path(sipkit.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        import_path.append(os.environ["PYTHONPATH"])
    run = (
        "import sys, numpy as np; from sipkit.pdelab import Grid2D, rd_simulate; "
        "rd_simulate((1.0, 2.0), None, Grid2D((8, 6)), np.ones((2, 48)), (0.0, 1e-3), 1e-4); "
        "assert not [m for m in sys.modules if m.startswith('scipy.sparse')]"
    )
    proc = subprocess.run(
        [sys.executable, "-c", run],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.pathsep.join(import_path),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------- patterns


def test_pattern_suppression_passes_for_decay_reaction():
    g = Grid1D(64, "periodic")
    samp = DomainSampler(Ball(np.zeros(64), 1.0), count=8, seed=0)
    rep = pattern_report(1.0, lambda t, u: -u, g, samp, mode="suppression")
    assert rep.invariance_residual <= 1e-12
    assert abs(rep.reaction_rate + 1.0) < 1e-8
    assert rep.condition_implemented
    # unscaled comparison is against the (negative) diffusion rate itself;
    # it fails here and is recorded, not enforced
    assert not rep.condition_unscaled
    gap = discrete_gap(g)
    assert abs(rep.predicted_bound - (gap - 1.0)) < 1e-6
    assert rep.simulated_rate <= rep.predicted_bound + 1e-3
    assert rep.mode1_growth < 1.0
    assert rep.passed


def test_pattern_suppression_fails_above_gap():
    g = Grid1D(64, "periodic")
    samp = DomainSampler(Ball(np.zeros(64), 1.0), count=8, seed=0)
    lam = 1.2 * 4.0 * math.pi**2
    rep = pattern_report(1.0, lambda t, u: lam * u, g, samp, mode="suppression", t_span=0.15)
    assert not rep.condition_implemented
    assert rep.predicted_bound > 0
    assert rep.mode1_growth > 1.0
    assert not rep.passed


def test_pattern_excitation_anti_synchronized_mode():
    g = Grid1D(64, "periodic")
    L = build_laplacian(g)
    ustar = np.sin(2.0 * np.pi * g.points)
    lam1 = float(ustar @ (L @ ustar) / (ustar @ ustar))  # exact grid eigenvalue
    c = abs(lam1) / 2.0
    rep = pattern_report(
        (1.0, 1.0),
        lambda t, own, other: c * (own - other),
        g,
        mode="excitation",
        witness=ustar,
        t_span=0.4,
    )
    assert max(rep.stationarity_residuals) <= 1e-8
    assert rep.sum_mode_rate < -30.0
    assert abs(rep.pattern_mode_rate) <= 1e-6  # marginal: the pattern persists
    assert rep.simulated_sum_ratio < 1e-3
    assert rep.simulated_pattern_ratio > 0.9
    assert rep.passed


def test_pattern_excitation_rates_every_time():
    # the coupling (3 + 10 t)(own - other) adds 2(3 + 10 t) to the pattern
    # mode and nothing to the sum mode, so t = 5 lifts the pattern rate by 100
    g = Grid1D(16, "periodic")

    def report(times):
        return pattern_report(
            (1.0, 0.7),
            lambda t, own, other: (3.0 + 10.0 * t) * (own - other),
            g,
            mode="excitation",
            witness=np.sin(2.0 * np.pi * g.points),
            times=times,
            t_span=0.01,
        )

    at0, both, at5 = report((0.0,)), report((0.0, 5.0)), report((5.0,))
    assert abs(both.pattern_mode_rate - at0.pattern_mode_rate - 100.0) <= 1e-6
    assert abs(both.sum_mode_rate - at0.sum_mode_rate) <= 1e-9
    # the residuals grow with the coupling, so their largest is at t = 5
    assert both.stationarity_residuals == at5.stationarity_residuals
    assert min(at5.stationarity_residuals) > max(at0.stationarity_residuals)


def test_pattern_excitation_needs_witness():
    g = Grid1D(16, "periodic")
    with pytest.raises(DegenerateArgumentError):
        pattern_report((1.0, 1.0), lambda t, a, b: a - b, g, mode="excitation", witness=None)
    with pytest.raises(DegenerateArgumentError):
        pattern_report(
            (1.0, 1.0), lambda t, a, b: a - b, g, mode="excitation", witness=np.zeros(16)
        )
    with pytest.raises(DegenerateArgumentError):
        pattern_report(1.0, lambda t, u: -u, g, mode="bloom")


@pytest.mark.parametrize(
    "alphas, f, kwargs",
    [
        (1.0, lambda t, u: -u, {"mode": "suppression"}),
        ((1.0, 1.0), lambda t, a, b: a - b, {"mode": "excitation", "witness": np.ones(16)}),
    ],
    ids=("suppression", "excitation"),
)
def test_pattern_report_refuses_a_2d_grid(alphas, f, kwargs):
    g = Grid2D((4, 4), "periodic")
    samp = DomainSampler(Ball(np.zeros(16), 1.0), count=4, seed=0)
    with pytest.raises(DimensionError, match="Grid1D"):
        pattern_report(alphas, f, g, samp, **kwargs)


# ----------------------------------------------------------------- sobolev


def test_sobolev_scalar_field_rate_is_minus_one():
    g = Grid1D(32, "periodic")
    F = VectorField.linear(-np.eye(32))
    for k in (0, 1, 2):
        r = sobolev_rate(F, g, SobolevSpec(k=k, p=2.0))
        assert abs(r.value + 1.0) < 1e-9
    samp = DomainSampler(Ball(np.zeros(32), 1.0), count=20, seed=1)
    r = sobolev_rate(F, g, SobolevSpec(k=1, p=3.0), sampler=samp)
    assert abs(r.value + 1.0) < 1e-9


def test_sobolev_laplacian_mass_zero_hits_gap():
    g = Grid1D(64, "periodic")
    F = VectorField.linear(build_laplacian(g))
    r = sobolev_rate(F, g, SobolevSpec(k=1, p=2.0), mass_zero=True)
    assert abs(r.value - discrete_gap(g)) < 1e-6
    assert r.value <= -4.0 * math.pi**2 + 0.05


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_sobolev_linear_mass_zero_excludes_the_constant_mode(p):
    g = Grid1D(16, "periodic")
    L = build_laplacian(g)
    sampler = DomainSampler(Ball(np.zeros(16), 1.0), count=20, seed=0)
    sob = SobolevSpec(k=0, p=p)
    r = sobolev_rate(VectorField.linear(L), g, sob, sampler, mass_zero=True)
    # L's constant mode has rate 0; directions in the mean-zero subspace
    # never see it, whether the affine matrix is rated (operator_rate of
    # its compression, 200 probes) or the field's Jacobian state by state
    assert r.value < 0.0
    assert (r.kind, r.samples) == ("sampled-lower-bound", 200)
    plain = VectorField(lambda t, u: L @ u, 16)
    assert sobolev_rate(plain, g, sob, sampler, mass_zero=True).value < 0.0


def test_mass_zero_rate_on_a_demeaned_point_list_is_the_closed_compressed_rate():
    # no ascent on a point list: the rate is the closed log norm of the
    # compression V^T A V at each listed state, exact over directions
    pts = np.random.default_rng(7).normal(size=(4, 3))
    sampler = DomainSampler(Points(demean(pts)), count=4, seed=0)
    A = np.random.default_rng(8).normal(size=(3, 3))
    field = VectorField(lambda t, u: u @ A.T, 3, jac=lambda t, u: A)
    r = sobolev_rate(field, Grid1D(3, "periodic"), SobolevSpec(k=0), sampler, mass_zero=True)
    V = mass_zero_basis(3)
    M = V.T @ A @ V
    assert (r.samples, r.ascent_iters) == (4, 0)
    assert r.value == pytest.approx(np.linalg.eigvalsh((M + M.T) / 2.0)[-1], rel=1e-12, abs=1e-12)


def test_mass_conserving_nonlinear_field_mass_zero_rate_is_exact():
    # 1^T A = 0, so the Jacobian maps into the mean-zero subspace and the
    # state-by-state rate of the field equals its affine eigen-exact rate
    g = Grid1D(16, "periodic")
    B = np.random.default_rng(1).normal(size=(16, 16))
    A = build_laplacian(g) + B - B.mean(axis=0)
    sob = SobolevSpec(k=1)
    sampler = DomainSampler(Ball(np.zeros(16), 1.0), count=12, seed=0)
    want = sobolev_rate(VectorField.linear(A), g, sob, mass_zero=True)
    field = VectorField(lambda t, u: A @ u, 16, jac=lambda t, u: A)
    got = sobolev_rate(field, g, sob, sampler, mass_zero=True)
    assert want.kind == "eigen-exact"
    assert got.kind == "sampled-lower-bound"
    assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-9)


def test_sobolev_shift_property():
    g = Grid1D(48, "periodic")
    L = build_laplacian(g)
    base = sobolev_rate(VectorField.linear(L), g, SobolevSpec(k=1), mass_zero=True).value
    shifted = sobolev_rate(
        VectorField.linear(L + 3.0 * np.eye(48)), g, SobolevSpec(k=1), mass_zero=True
    ).value
    assert abs(shifted - base - 3.0) < 1e-8


def test_sobolev_regularity_envelope_on_pairs():
    # simulated pairs never violate the stacked-norm exponential envelope
    g = Grid1D(32, "periodic")
    L = build_laplacian(g)
    F = VectorField.linear(L - np.eye(32))
    sob = SobolevSpec(k=1, p=2.0)
    lam = sobolev_rate(F, g, sob).value
    assert abs(lam + 1.0) < 1e-9  # constants decay slowest
    spec = sob.norm_spec(g)
    h_t = 0.9 * g.h**2 / 2.0
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        ta = integrate(F, a, (0.0, 0.2), h_t)
        tb = integrate(F, b, (0.0, 0.2), h_t)
        d0 = norm(a - b, spec)
        for t, sa, sb in zip(ta.times[::40], ta.states[::40], tb.states[::40]):
            assert norm(sa - sb, spec) <= math.exp(lam * t) * d0 * (1.0 + 1e-5)


def test_sobolev_spec_validation():
    with pytest.raises(DegenerateArgumentError):
        SobolevSpec(k=5)
    g = Grid1D(16, "periodic")
    F = VectorField.autonomous(lambda u: -(u**3), 16)
    with pytest.raises(DegenerateArgumentError):
        sobolev_rate(F, g, SobolevSpec(k=1))  # nonlinear path needs a sampler


# ----------------------------------------------------------- conservation


def test_conservation_linear_advection_skew():
    g = Grid1D(64, "periodic")
    samp = DomainSampler(Ball(np.zeros(64), 1.0), count=6, seed=0)
    rep = conservation_rate(lambda u: 2.0 * u, g, samp)
    assert abs(rep.rate.value) <= 1e-8
    assert rep.skewness_residual <= 1e-8


def test_conservation_quadratic_flux_matches_gradient_estimate():
    g = Grid1D(64, "periodic")
    x = g.points
    profiles = np.array([a * np.sin(2.0 * np.pi * x) for a in (0.5, 1.0, 1.5)])
    samp = DomainSampler(Points(profiles), count=3, seed=0)
    rep = conservation_rate(lambda u: 0.5 * u**2, g, samp)
    Dc = central_difference(g)
    target = max(-np.min(Dc @ u) / 2.0 for u in profiles)
    assert rep.rate.value > 0
    assert 0.5 * target <= rep.rate.value <= 1.5 * target


def test_conservation_odd_difference_operators():
    g = Grid1D(64, "periodic")
    Dc = central_difference(g)
    # flux linearization = third difference: composite operator is the
    # symmetric fourth difference whose Nyquist mode is neutral (even n)
    rep = conservation_rate(None, g, flux_prime_operator=np.linalg.matrix_power(Dc, 3))
    assert abs(rep.rate.value) <= 1e-8
    # flux linearization = second difference: composite is the odd third
    # difference, skew on the periodic grid
    rep2 = conservation_rate(None, g, flux_prime_operator=np.linalg.matrix_power(Dc, 2))
    assert abs(rep2.rate.value) <= 1e-8
    assert rep2.skewness_residual <= 1e-8


def test_conservation_simulation_preserves_mass():
    g = Grid1D(64, "periodic")
    Dc = central_difference(g)
    u0 = 0.1 * np.sin(2.0 * np.pi * g.points) + 0.3

    def claw(t, u):
        return -(Dc @ (0.5 * u**2))

    tr = integrate(VectorField(claw, 64, name="burgers"), u0, (0.0, 1.0), 1e-3)
    m = total_mass(g, tr.states)
    assert np.max(np.abs(m - m[0])) <= 1e-8


def test_conservation_preconditions():
    with pytest.raises(DegenerateArgumentError):
        conservation_rate(lambda u: u, Grid1D(16, "dirichlet"))
    with pytest.raises(DegenerateArgumentError):
        conservation_rate(lambda u: u**2, Grid1D(16, "periodic"))


# ----------------------------------------------------------- fixed points


def test_fixed_point_linear_poisson_matches_direct_solve():
    g = Grid1D(64, "dirichlet")
    L = build_laplacian(g)
    F = VectorField.linear(L, b=np.ones(64))
    u, rep = fixed_point_solve(F, g, tol=1e-8)
    direct = np.linalg.solve(L, -np.ones(64))
    assert np.max(np.abs(u - direct)) <= 1e-8
    assert rep.converged
    assert rep.rate_estimate.value < 0
    assert rep.residuals[-1] <= 1e-8
    assert rep.fitted_rate < -5.0


def test_fixed_point_pure_diffusion_returns_zero():
    g = Grid1D(32, "dirichlet")
    F = VectorField.linear(build_laplacian(g))
    u, rep = fixed_point_solve(F, g, tol=1e-9, u0=np.linspace(-1, 1, 32))
    assert np.max(np.abs(u)) <= 1e-8
    assert rep.converged


def test_fixed_point_nonlinear_multistart_agreement():
    g = Grid1D(64, "dirichlet")
    L = build_laplacian(g)
    F = VectorField(
        lambda t, u: L @ u + np.tanh(u),
        64,
        jac=lambda t, u: L + np.diag(1.0 - np.tanh(u) ** 2),
    )
    rng = np.random.default_rng(11)
    sols = []
    for _ in range(2):
        u, rep = fixed_point_solve(F, g, tol=1e-8, u0=rng.normal(size=64))
        assert rep.converged
        assert "sampled" in rep.rate_estimate.note
        sols.append(u)
    assert np.max(np.abs(sols[0] - sols[1])) <= 1e-6


def test_fixed_point_refuses_nonnegative_rate():
    g = Grid1D(16, "dirichlet")
    F = VectorField.linear(0.5 * np.eye(3))
    with pytest.raises(CertificateRefusedError):
        fixed_point_solve(F, g, tol=1e-6)
    u, rep = fixed_point_solve(F, g, tol=1e-6, u0=np.full(3, 1e-3), h_t=1e-3, max_t=1.0, force=True)
    assert rep.forced
    assert not rep.converged  # expanding flow cannot reach stationarity


def tanh_poisson_field(g, counter=None):
    L = build_laplacian(g)

    def fn(t, u):
        if counter is not None:
            counter[0] += 1
        return L @ u + np.tanh(u)

    return VectorField(fn, g.n, jac=lambda t, u: L + np.diag(1.0 - np.tanh(u) ** 2))


def test_fixed_point_fitted_rate_is_the_dirichlet_gap():
    # the last implicit step's implied rate is the slowest Laplacian mode
    n = 64
    g = Grid1D(n, "dirichlet")
    F = VectorField.linear(build_laplacian(g), b=np.ones(n))
    _, rep = fixed_point_solve(F, g, tol=1e-8)
    gap = -(4.0 / g.h**2) * math.sin(math.pi / (2 * (n + 1))) ** 2
    assert rep.converged
    assert rep.fitted_rate == pytest.approx(gap, rel=1e-6)


def test_fixed_point_nonlinear_step_and_evaluation_budget():
    g = Grid1D(64, "dirichlet")
    calls = [0]
    F = tanh_poisson_field(g, calls)
    u0 = np.random.default_rng(5).normal(size=64)
    _, rep = fixed_point_solve(F, g, tol=1e-8, u0=u0)
    assert rep.converged
    assert len(rep.times) - 1 <= 40  # accepted implicit steps
    assert calls[0] < 500


def test_fixed_point_certified_residuals_never_increase():
    g = Grid1D(32, "dirichlet")
    L = build_laplacian(g)
    u0 = np.random.default_rng(6).normal(size=32)
    for F in (VectorField.linear(L, b=np.ones(32)), VectorField.linear(L), tanh_poisson_field(g)):
        _, rep = fixed_point_solve(F, g, tol=1e-9, u0=u0)
        assert rep.converged and not rep.forced
        assert np.all(np.diff(rep.residuals) <= 0.0)


def test_fixed_point_residual_is_measured_in_spec_norm():
    # mu_inf of the dirichlet Laplacian is exactly 0 (interior rows sum to
    # zero), so the max-norm solve is forced and takes fixed steps of h_t
    n = 32
    g = Grid1D(n, "dirichlet")
    F = VectorField.linear(build_laplacian(g), b=np.ones(n))
    spec = NormSpec(p=math.inf)
    with pytest.raises(CertificateRefusedError):
        fixed_point_solve(F, g, spec=spec)
    u, rep = fixed_point_solve(F, g, spec=spec, tol=1e-8, h_t=0.5, force=True)
    assert rep.converged
    assert np.max(np.abs(F(0.0, u))) <= 1e-8
    assert rep.residuals[-1] == np.max(np.abs(F(0.0, u)))


def test_fixed_point_forced_expanding_solve_ends():
    # a growing implicit step would settle on the repelling equilibrium 0;
    # a forced non-contracting solve steps at h_t up to max_t instead
    F = VectorField.linear(0.5 * np.eye(3))
    started = time.perf_counter()
    u, rep = fixed_point_solve(F, Grid1D(16, "dirichlet"), force=True, u0=np.full(3, 1e-3))
    assert time.perf_counter() - started < 20.0
    assert not rep.converged
    assert np.all(np.diff(rep.times) > 0.0)
    assert rep.times[-1] == pytest.approx(50.0)
    assert rep.residuals[-1] > rep.residuals[0]


def test_fixed_point_halves_and_retries_a_rejected_step(monkeypatch):
    import sipkit.pdelab as pdelab

    g = Grid1D(16, "dirichlet")
    F = VectorField.linear(build_laplacian(g), b=np.ones(16))
    h_t = 0.2 * g.h**2
    real = pdelab._implicit_step
    tried = []

    def capped(F, u, f, h):  # a step longer than 4 h_t leaves the finite range
        tried.append(h)
        return None if h > 4.0 * h_t * (1.0 + 1e-12) else real(F, u, f, h)

    monkeypatch.setattr(pdelab, "_implicit_step", capped)
    u, rep = fixed_point_solve(F, g, tol=1e-8)
    assert rep.converged
    assert np.max(np.diff(rep.times)) == pytest.approx(4.0 * h_t)
    assert max(tried) == pytest.approx(8.0 * h_t)  # rejected, then retried at half
    assert np.max(np.abs(u - np.linalg.solve(build_laplacian(g), -np.ones(16)))) <= 1e-8


def test_fixed_point_ends_after_the_last_halving(monkeypatch):
    import sipkit.pdelab as pdelab

    tried = []
    monkeypatch.setattr(pdelab, "_implicit_step", lambda F, u, f, h: tried.append(h))
    g = Grid1D(16, "dirichlet")
    u0 = np.linspace(-1.0, 1.0, 16)
    u, rep = fixed_point_solve(VectorField.linear(build_laplacian(g)), g, u0=u0, h_t=1e-3)
    assert tried == [1e-3 / 2.0**k for k in range(pdelab._MAX_HALVINGS + 1)]
    assert not rep.converged
    assert np.array_equal(rep.times, [0.0]) and np.array_equal(u, u0)


def test_fixed_point_blowup_and_bad_step_raise():
    F = VectorField.linear(50.0 * np.eye(2))
    with pytest.raises(DivergenceError):
        fixed_point_solve(F, Grid1D(16, "dirichlet"), force=True, u0=np.ones(2), h_t=0.01)
    g = Grid1D(16, "dirichlet")
    for h_t in (0.0, -1e-3):
        with pytest.raises(DegenerateArgumentError):
            fixed_point_solve(VectorField.linear(build_laplacian(g)), g, u0=np.ones(16), h_t=h_t)
