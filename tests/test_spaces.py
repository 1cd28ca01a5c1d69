"""Norm and semi-inner-product primitives.

Expected values for the smooth-exponent cases were computed with the
difference-quotient reference (gateaux_sip) before being frozen here; the
one-sided p=1 / p=inf values are hand limits of ||u + h v||.
"""

import math

import numpy as np
import pytest

from sipkit.errors import (
    ConditioningError,
    DegenerateArgumentError,
    DimensionError,
    UnsupportedNormError,
)
from sipkit.measures import operator_rate
from sipkit.spaces import (
    NormSpec,
    complex_sip,
    conjugate_exponent,
    dini_plus,
    gateaux_sip,
    norm,
    norm_rows,
    sip,
    sip_rows,
)

P_GRID = (1.0, 1.5, 2.0, 3.0, math.inf)


def spec_of(p):
    return NormSpec(p=p)


# ---------------------------------------------------------------- norms


def test_norm_euclidean_triangle():
    assert norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)


def test_norm_p1_and_pinf():
    v = [1.0, -2.0, 3.0]
    assert norm(v, spec_of(1.0)) == pytest.approx(6.0, abs=1e-15)
    assert norm(v, spec_of(math.inf)) == pytest.approx(3.0, abs=1e-15)


def test_norm_weighted_is_norm_of_transformed():
    th = np.array([[2.0, 0.0], [0.0, 0.5]])
    spec = NormSpec(p=2.0, weight=th)
    v = np.array([1.0, 4.0])
    assert norm(v, spec) == pytest.approx(np.linalg.norm(th @ v), rel=1e-15)


def test_norm_rejects_nonfinite_and_empty():
    with pytest.raises(DegenerateArgumentError):
        norm([1.0, np.nan])
    with pytest.raises(DimensionError):
        norm([])


def test_weight_conditioning_guard():
    with pytest.raises(ConditioningError):
        NormSpec(p=2.0, weight=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ConditioningError):
        NormSpec(p=2.0, weight=np.ones((2, 3)))
    with pytest.raises(ConditioningError, match="mutually exclusive"):
        NormSpec(p=2.0, weight=np.eye(2), stack=(np.eye(2),))


def test_p_below_one_rejected():
    with pytest.raises(UnsupportedNormError):
        NormSpec(p=0.5)


def test_unknown_field_kind_rejected():
    with pytest.raises(DegenerateArgumentError, match="unknown field 'quaternion'"):
        NormSpec(p=2.0, field_kind="quaternion")


# ------------------------------------------------- semi-inner products


def test_sip_p1_one_sided_at_zero_coordinate():
    # d/dh ||(1,0) + h(1,1)||_1 from the right is 1 + |1|, from the left 1 - |1|.
    assert sip([1.0, 0.0], [1.0, 1.0], spec_of(1.0), "plus") == pytest.approx(2.0, abs=1e-14)
    assert sip([1.0, 0.0], [1.0, 1.0], spec_of(1.0), "minus") == pytest.approx(0.0, abs=1e-14)


def test_sip_p3_norm_compatibility_value():
    # ||(1,2)||_3^2 = 9^(2/3), frozen; ladder reference agrees to 1e-6.
    got = sip([1.0, 2.0], [1.0, 2.0], spec_of(3.0))
    assert got == pytest.approx(9.0 ** (2.0 / 3.0), rel=1e-13)
    assert got == pytest.approx(gateaux_sip([1.0, 2.0], [1.0, 2.0], spec_of(3.0)), abs=1e-6)


def test_sip_pinf_max_coordinate_rule():
    assert sip([3.0, 1.0], [5.0, -7.0], spec_of(math.inf)) == pytest.approx(15.0, abs=1e-12)
    # Tied max coordinates: right side takes the best slope, left the worst.
    assert sip([2.0, -2.0], [1.0, 1.0], spec_of(math.inf), "plus") == pytest.approx(2.0)
    assert sip([2.0, -2.0], [1.0, 1.0], spec_of(math.inf), "minus") == pytest.approx(-2.0)


def test_sip_zero_base_rejected():
    for p in P_GRID:
        with pytest.raises(DegenerateArgumentError):
            sip([0.0, 0.0], [1.0, 1.0], spec_of(p))
    for p in (1.5, 2.0, 4.0):
        with pytest.raises(DegenerateArgumentError, match="u = 0"):
            complex_sip([0.0, 0.0], [1.0, 1.0j], NormSpec(p=p, field_kind="complex"))


def test_sip_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        sip([1.0, 2.0], [1.0], spec_of(2.0))


def test_gateaux_sip_checks_like_sip():
    for fn in (sip, gateaux_sip):
        with pytest.raises(DimensionError):
            fn([1.0, 2.0, 3.0], [1.0])
        with pytest.raises(DimensionError):
            fn([1.0, 2.0], [[1.0, 0.5]])
        with pytest.raises(DegenerateArgumentError, match="side must be"):
            fn([1.0, 2.0], [1.0, 0.5], side="left")
        with pytest.raises(DegenerateArgumentError):
            fn([1.0, math.nan], [1.0, 0.5])


def test_sip_matches_ladder_reference_randomized():
    rng = np.random.default_rng(42)
    for p in P_GRID:
        spec = spec_of(p)
        worst = 0.0
        for _ in range(1000):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            for side in ("plus", "minus"):
                worst = max(worst, abs(sip(u, v, spec, side) - gateaux_sip(u, v, spec, side)))
        assert worst <= 1e-6, f"p={p}: closed form drifted {worst:.2e} from ladder"


def test_sip_axioms_randomized():
    rng = np.random.default_rng(7)
    for p in P_GRID:
        spec = spec_of(p)
        for _ in range(1000):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            w = rng.normal(size=4)
            nu, nv = norm(u, spec), norm(v, spec)
            # norm compatibility and positive definiteness
            assert sip(u, u, spec) == pytest.approx(nu * nu, rel=1e-12, abs=1e-12)
            assert sip(u, u, spec) > 0.0
            # Cauchy-Schwarz
            assert abs(sip(u, v, spec)) <= nu * nv * (1.0 + 1e-12) + 1e-12
            # subadditivity and positive homogeneity in the second slot
            lhs = sip(u, v + w, spec)
            assert lhs <= sip(u, v, spec) + sip(u, w, spec) + 1e-9
            a = float(rng.uniform(0.0, 3.0))
            assert sip(u, a * v, spec) == pytest.approx(a * sip(u, v, spec), rel=1e-10, abs=1e-10)
            b = float(rng.uniform(0.1, 3.0))
            assert sip(b * u, v, spec) == pytest.approx(b * sip(u, v, spec), rel=1e-10, abs=1e-10)
            # the right derivative dominates the left one
            assert sip(u, v, spec, "plus") >= sip(u, v, spec, "minus") - 1e-12


def test_sip_sides_agree_for_smooth_exponents():
    rng = np.random.default_rng(11)
    for p in (1.5, 2.0, 3.0):
        spec = spec_of(p)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            assert sip(u, v, spec, "plus") == pytest.approx(
                sip(u, v, spec, "minus"), rel=1e-12, abs=1e-12
            )


def test_sip_weighted_equals_sip_of_transformed():
    rng = np.random.default_rng(3)
    th = np.diag([1.0, 3.0, 0.2])
    for p in P_GRID:
        wspec = NormSpec(p=p, weight=th)
        plain = spec_of(p)
        for _ in range(100):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            assert sip(u, v, wspec) == pytest.approx(sip(th @ u, th @ v, plain), rel=1e-12)


# ------------------------------------------------------------ row kernels


def _row_specs(p):
    rng = np.random.default_rng(19)
    weight = 2.0 * np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    diff = np.eye(4, k=1) - np.eye(4)
    return [NormSpec(p=p), NormSpec(p=p, weight=weight), NormSpec(p=p, stack=(diff, diff @ diff))]


def _row_probes(rng, complex_field=False):
    U = rng.normal(size=(40, 4))
    W = rng.normal(size=(40, 4))
    if complex_field:
        U = U + 1j * rng.normal(size=U.shape)
        W = W + 1j * rng.normal(size=W.shape)
    U[:6, 1] = 0.0  # exact zeros: the p=1 kink
    U[6:9, :2] = 0.0
    U[9] = [2.0, -2.0, 1.0, 2.0]  # tied maxima: the p=inf argmax set
    U[10] = [-1.0, 1.0, -1.0, 1.0]
    U[11] = [0.0, 3.0, 0.0, -3.0]
    return U, W


def test_row_kernels_match_scalar_forms():
    rng = np.random.default_rng(23)
    for p in P_GRID:
        cases = [(spec, False) for spec in _row_specs(p)]
        cases.append((NormSpec(p=p, field_kind="complex"), True))
        for spec, complex_field in cases:
            U, W = _row_probes(rng, complex_field)
            want_norm = [norm(u, spec) for u in U]
            want_sip = [sip(u, w, spec) for u, w in zip(U, W)]
            np.testing.assert_allclose(norm_rows(U, spec), want_norm, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(sip_rows(U, W, spec), want_sip, rtol=1e-12, atol=0.0)
            # norm compatibility carries over row by row
            np.testing.assert_allclose(sip_rows(U, U, spec), norm_rows(U, spec) ** 2, rtol=1e-12)
        # real bases against complex images, as for a complex matrix in a real spec
        U, W = _row_probes(rng, complex_field=True)
        U = U.real
        want_sip = [sip(u, w, spec_of(p)) for u, w in zip(U, W)]
        np.testing.assert_allclose(sip_rows(U, W, spec_of(p)), want_sip, rtol=1e-12, atol=0.0)


def test_row_kernel_matches_gateaux_reference():
    # the closed-form kernel behind sip, sip(.., "minus") and sip_rows,
    # against the difference-quotient reference, on both sides
    rng = np.random.default_rng(29)
    for p in P_GRID:
        cases = [(spec, False) for spec in _row_specs(p)]
        cases.append((NormSpec(p=p, field_kind="complex"), True))
        for spec, complex_field in cases:
            U, W = _row_probes(rng, complex_field)
            if p == 1.5:
                # next to a zero coordinate the ladder converges like h^(1/2)
                keep = (U != 0.0).all(axis=1)
                U, W = U[keep], W[keep]
            want_plus = [gateaux_sip(u, w, spec) for u, w in zip(U, W)]
            want_minus = [gateaux_sip(u, w, spec, "minus") for u, w in zip(U, W)]
            got_minus = [sip(u, w, spec, "minus") for u, w in zip(U, W)]
            np.testing.assert_allclose(sip_rows(U, W, spec), want_plus, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(got_minus, want_minus, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("p", P_GRID)
def test_quotient_rows_are_minus_inf_below_the_floor(p):
    from sipkit.spaces import _quotient_rows

    rng = np.random.default_rng(37)
    U, W = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    U[1] = 0.0
    U[3] *= 1e-9
    spec = spec_of(p)
    got = _quotient_rows(U, W, spec, 1e-6)
    assert got[1] == got[3] == -math.inf
    for i in (0, 2, 4):
        assert got[i] == pytest.approx(sip(U[i], W[i], spec) / norm(U[i], spec) ** 2, rel=1e-12)
    # the rows above the floor get what they get without the small ones
    keep = [0, 2, 4]
    assert np.array_equal(got[keep], _quotient_rows(U[keep], W[keep], spec, 1e-6))


def test_row_kernels_one_sided_cases():
    # p=1: a zero coordinate of u contributes |w_i| from the right
    assert sip_rows([[1.0, 0.0]], [[0.0, -2.0]], spec_of(1.0))[0] == pytest.approx(2.0)
    # p=inf: the right form takes the largest slope over the tied maxima
    assert sip_rows([[2.0, -2.0]], [[1.0, 1.0]], spec_of(math.inf))[0] == pytest.approx(2.0)


def test_row_kernels_raise_the_scalar_errors():
    for p in P_GRID:
        spec = spec_of(p)
        with pytest.raises(DegenerateArgumentError):
            sip_rows([[1.0, 2.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]], spec)
        with pytest.raises(DegenerateArgumentError):
            sip_rows([[1.0, 2.0]], [[1.0, np.nan]], spec)
        with pytest.raises(DegenerateArgumentError):
            sip_rows([[np.inf, 2.0]], [[1.0, 1.0]], spec)
        with pytest.raises(DegenerateArgumentError):
            norm_rows([[1.0, 2.0], [np.nan, 0.0]], spec)
        with pytest.raises(DimensionError):
            sip_rows([[1.0, 2.0]], [[1.0, 2.0, 3.0]], spec)
        with pytest.raises(DimensionError):
            norm_rows([1.0, 2.0], spec)
        with pytest.raises(DimensionError):
            norm_rows([[1.0, 2.0, 3.0]], NormSpec(p=p, weight=np.eye(2)))
        with pytest.raises(DimensionError):
            sip_rows([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]], NormSpec(p=p, stack=(np.eye(2),)))


# ------------------------------------------------------- complex field


def test_complex_sip_hermitian_at_p2():
    spec = NormSpec(p=2.0, field_kind="complex")
    assert complex_sip([1.0], [1.0j], spec) == pytest.approx(1.0j)
    assert complex_sip([1.0, 0.0], [1.0, 0.0], spec) == pytest.approx(1.0)


def test_complex_sip_disjoint_support_vanishes():
    spec = NormSpec(p=4.0, field_kind="complex")
    assert complex_sip([1.0 + 1.0j, 0.0], [0.0, 1.0], spec) == pytest.approx(0.0, abs=1e-15)


def test_complex_sip_rejects_nonsmooth_exponents():
    for p in (1.0, math.inf):
        with pytest.raises(UnsupportedNormError):
            complex_sip([1.0], [1.0], NormSpec(p=p, field_kind="complex"))
    with pytest.raises(UnsupportedNormError):
        complex_sip([1.0], [1.0], NormSpec(p=2.0))


def test_complex_sip_axioms_randomized():
    rng = np.random.default_rng(23)
    for p in (1.5, 2.0, 4.0):
        spec = NormSpec(p=p, field_kind="complex")
        for _ in range(300):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            z = complex_sip(u, v, spec)
            # real part is the real-restriction semi-inner product
            assert z.real == pytest.approx(sip(u, v, spec), rel=1e-12, abs=1e-12)
            # norm compatibility
            nu = norm(u, spec)
            self_z = complex_sip(u, u, spec)
            assert self_z == pytest.approx(nu * nu, rel=1e-12)
            # linear in v, conjugate-homogeneous in u
            lam = complex(rng.normal(), rng.normal())
            assert complex_sip(u, lam * v, spec) == pytest.approx(lam * z, rel=1e-10, abs=1e-10)
            assert complex_sip(lam * u, v, spec) == pytest.approx(
                np.conj(lam) * z, rel=1e-10, abs=1e-10
            )


# -------------------------------------------------------- dini / misc


def test_dini_plus_kink_and_smooth():
    assert dini_plus(lambda s: abs(s), 0.0) == pytest.approx(1.0, abs=1e-7)
    assert dini_plus(lambda s: s * s, 1.0) == pytest.approx(2.0, abs=1e-6)


def test_dini_plus_divergence_sentinel():
    assert dini_plus(lambda s: math.sqrt(abs(s)), 0.0) == math.inf
    assert dini_plus(lambda s: -math.sqrt(abs(s)), 0.0) == -math.inf


def test_dini_plus_sampled_series():
    ts = np.linspace(0.0, 1.0, 101)
    vals = np.exp(-2.0 * ts)
    got = dini_plus((ts, vals), 0.5)
    assert got == pytest.approx(-2.0 * math.exp(-1.0), abs=2e-2)
    with pytest.raises(DegenerateArgumentError):
        dini_plus((ts, vals), 1.0)


def test_dini_plus_sampled_between_samples():
    ts = np.linspace(0.0, 1.0, 101)
    vals = np.exp(-2.0 * ts)
    # the base is the last sample at or before t, not the nearest one
    want = (vals[51] - vals[50]) / (ts[51] - ts[50])
    assert dini_plus((ts, vals), 0.504) == want
    assert dini_plus((ts, vals), 0.506) == want
    with pytest.raises(DegenerateArgumentError, match="no sample lies at or before"):
        dini_plus((ts, vals), -0.2)


def test_dini_plus_refuses_unordered_times():
    with pytest.raises(DegenerateArgumentError, match="strictly increasing"):
        dini_plus(([0.0, 2.0, 1.0], [0.0, 4.0, 1.0]), 1.5)
    for ts in ([0.0, 1.0, 1.0, 2.0], [0.0, math.nan, 2.0, 3.0]):
        with pytest.raises(DegenerateArgumentError, match="strictly increasing"):
            dini_plus((ts, [0.0, 1.0, 2.0, 3.0]), 1.5)


def test_dini_plus_refuses_times_and_values_of_different_lengths():
    with pytest.raises(DimensionError, match="matching 1-d times and values"):
        dini_plus(([0.0, 1.0, 2.0], [0.0, 1.0]), 0.5)


def test_dini_matches_sip_identity_along_norm():
    # d+/dt ||u + t v|| = sip(u, v)/||u|| for smooth exponents.
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0):
        spec = spec_of(p)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        lhs = dini_plus(lambda s: norm(u + s * v, spec), 0.0)
        assert lhs == pytest.approx(sip(u, v, spec) / norm(u, spec), abs=1e-6)


def test_conjugate_exponent_pairs():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.5) == 3.0
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0


def test_spec_keeps_its_own_read_only_coordinates():
    # a weight or stack changed in place after construction changes nothing
    rng = np.random.default_rng(11)
    W = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1 * np.triu(np.ones((4, 4)), 1)
    D = np.diff(np.eye(5), axis=0)[:, :4] + np.eye(4)
    u, v = rng.normal(size=4), rng.normal(size=4)
    A = rng.normal(size=(4, 4))
    for kw, arr in (({"weight": W}, W), ({"stack": (D,)}, D)):
        spec = NormSpec(p=2.0, **kw)
        before = (norm(u, spec), sip(u, v, spec), operator_rate(A, spec).value)
        arr[0, 0] = 1e-20  # cond(W) 1e20 once applied: must not get past COND_LIMIT
        assert (norm(u, spec), sip(u, v, spec), operator_rate(A, spec).value) == before
        for a in (spec.transform, spec.weight, *(spec.stack or ())):
            if a is not None:
                with pytest.raises(ValueError):
                    a[0, 0] = 0.0
    with pytest.raises(ConditioningError):
        NormSpec(weight=W)


def test_spec_transform_is_its_coordinates():
    D = np.diff(np.eye(4), axis=0)
    assert NormSpec(p=3.0).transform is None
    assert NormSpec(stack=()).transform is None
    assert np.array_equal(NormSpec(weight=2.0 * np.eye(3)).transform, 2.0 * np.eye(3))
    assert np.array_equal(NormSpec(stack=(D.T @ D, D.T @ D)).transform, np.vstack([np.eye(4), D.T @ D, D.T @ D]))
    with pytest.raises(DimensionError, match="one dimension"):
        NormSpec(stack=(np.eye(3), np.eye(4)))
    with pytest.raises(DimensionError, match="act on dimension 4"):
        norm(np.ones(3), NormSpec(stack=(np.eye(4),)))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_seminorm_measures_rows_through_its_compression(p):
    # ||x|| in _seminorm(spec, C, G) is ||G C x|| in spec, for an oblique
    # C (C G = I) in a weighted spec and for C = G^T in a plain one
    from sipkit.spaces import _seminorm

    rng = np.random.default_rng(12)
    G = np.linalg.qr(rng.normal(size=(5, 5)))[0][:, :3]
    M = rng.normal(size=(7, 5))
    X = rng.normal(size=(6, 5))
    weighted = NormSpec(p=p, weight=np.eye(5) + 0.2 * rng.normal(size=(5, 5)))
    for spec, C in ((weighted, np.linalg.pinv(M @ G) @ M), (NormSpec(p=p), G.T)):
        semi = _seminorm(spec, C, G)
        assert np.allclose(C @ G, np.eye(3))
        assert norm_rows(X, semi) == pytest.approx(norm_rows(X @ (G @ C).T, spec), rel=1e-12)
    A = rng.normal(size=(5, 5))
    if p == 2.0:  # the rate of the compression G^T A G in the coordinates
        want = np.linalg.eigvalsh((G.T @ (A + A.T) @ G) / 2.0)[-1]
        assert operator_rate(A, semi).value == pytest.approx(want, rel=1e-12)
