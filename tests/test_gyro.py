"""Core algebra: gamma factors, Einstein addition, gyrations, coaddition."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gyrokin as gk
from gyrokin import (
    AdmissibilityError,
    BetaVector,
    DimensionError,
    Gyration,
    GyrokinError,
    Particle,
    ParticleSystem,
    add_speeds,
    coadd,
    coadd_via_gyration,
    cosub,
    einstein_add,
    einstein_sub,
    gamma,
    gyrate,
    gyrate_definitional,
    gyromidpoint,
    speed_of_gamma,
    triangle_from_vertices,
    decompose,
)
from gyrokin.gyro import _gyr_coeffs
from helpers import ball_points, ball_vectors, max_abs

U_FIX = np.array([0.6, 0.0, 0.0])
V_FIX = np.array([0.0, 0.6, 0.0])


@st.composite
def speeds(draw, max_norm=0.95):
    return draw(st.floats(0.0, max_norm, allow_nan=False))


class TestGamma:
    def test_zero_velocity(self):
        assert float(gamma(np.zeros(3))) == 1.0

    def test_point_six(self):
        # 1/sqrt(1 - 0.36) = 1/0.8
        assert float(gamma(U_FIX)) == pytest.approx(1.25, abs=1e-15)

    def test_norm_point_eight(self):
        # (0.48, 0.64, 0) has norm 0.8, so gamma = 1/0.6
        v = np.array([0.48, 0.64, 0.0])
        assert float(gamma(v)) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_reciprocal_identity_batch(self, rng):
        v = ball_points(rng, 5000, 3, max_norm=0.999)
        g = gamma(v)
        lhs = (g * g - 1.0) / (g * g)
        assert max_abs(lhs - np.sum(v * v, axis=-1)) < 5e-14

    @given(s=speeds(max_norm=0.999))
    def test_reciprocal_identity_hypothesis(self, s):
        g = float(gamma(np.array([s])))
        assert (g * g - 1.0) / (g * g) == pytest.approx(s * s, abs=5e-14)

    def test_rejects_unit_norm(self):
        with pytest.raises(AdmissibilityError):
            gamma(np.array([1.0, 0.0]))

    def test_rejects_near_boundary(self):
        v = np.array([math.sqrt(1.0 - 1e-13), 0.0])
        with pytest.raises(AdmissibilityError):
            gamma(v)

    def test_rejects_nan(self):
        with pytest.raises(AdmissibilityError):
            gamma(np.array([np.nan, 0.0]))

    def test_speed_of_gamma_rejects_non_finite(self):
        assert float(speed_of_gamma(1.25)) == pytest.approx(0.6, abs=1e-15)
        for g in (math.inf, math.nan):
            with pytest.raises(AdmissibilityError):
                speed_of_gamma(g)


class TestEinsteinAdd:
    def test_left_identity(self, rng):
        v = ball_points(rng, 50, 3, max_norm=0.99)
        assert np.array_equal(einstein_add(np.zeros(3), v), v)

    def test_parallel_half_plus_half(self):
        out = einstein_add(np.array([0.5, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.8, 0.0, 0.0], atol=1e-15)

    def test_orthogonal_fixture(self):
        out = einstein_add(U_FIX, V_FIX)
        np.testing.assert_allclose(out, [0.6, 0.48, 0.0], atol=1e-15)
        assert float(gamma(out)) == pytest.approx(1.5625, rel=1e-14)
        # cross-check via the gamma identity with u.v = 0
        assert float(gamma(U_FIX) * gamma(V_FIX)) == pytest.approx(1.5625, rel=1e-15)

    def test_gamma_identity_batch(self, rng):
        for dim in (1, 2, 3):
            u = ball_points(rng, 3000, dim, max_norm=0.95)
            v = ball_points(rng, 3000, dim, max_norm=0.95)
            lhs = gamma(einstein_add(u, v))
            rhs = gamma(u) * gamma(v) * (1.0 + np.sum(u * v, axis=-1))
            assert max_abs((lhs - rhs) / rhs) < 1e-12

    def test_parallel_inputs_use_scalar_formula(self, rng):
        for _ in range(200):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            x, y = rng.uniform(-0.9, 0.9, size=2)
            out = einstein_add(x * d, y * d)
            expected = float(add_speeds(x, y)) * d
            assert max_abs(out - expected) < 1e-14

    def test_norm_symmetric_but_not_commutative(self, rng):
        u = ball_points(rng, 500, 3, max_norm=0.95, min_norm=0.2)
        v = ball_points(rng, 500, 3, max_norm=0.95, min_norm=0.2)
        uv = einstein_add(u, v)
        vu = einstein_add(v, u)
        norms = np.linalg.norm(uv, axis=-1) - np.linalg.norm(vu, axis=-1)
        assert max_abs(norms) < 1e-14
        assert np.max(np.linalg.norm(uv - vu, axis=-1)) > 1e-3

    def test_result_admissible(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.999)
        v = ball_points(rng, 2000, 3, max_norm=0.999)
        out = einstein_add(u, v)
        assert np.all(np.linalg.norm(out, axis=-1) < 1.0)

    def test_newtonian_limit_third_order(self, rng):
        # |(u (+) v) - (u + v)| must shrink ~8x when both speeds are halved
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            err = np.linalg.norm(einstein_add(eps * d1, eps * d2) - (eps * d1 + eps * d2))
            errs.append(err)
        for big, small in zip(errs, errs[1:]):
            assert 6.0 < big / small < 10.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            einstein_add(np.zeros(2), np.zeros(3))

    def test_inadmissible_input(self):
        with pytest.raises(AdmissibilityError):
            einstein_add(np.array([1.5, 0.0]), np.zeros(2))

    def test_accepts_beta_vectors(self):
        out = einstein_add(BetaVector(U_FIX), BetaVector(V_FIX))
        np.testing.assert_allclose(out, [0.6, 0.48, 0.0], atol=1e-15)

    def test_mismatched_batch_shapes(self):
        a, b = np.zeros((3, 3)), np.zeros((2, 3))
        with pytest.raises(DimensionError):
            einstein_add(a, b)
        with pytest.raises(DimensionError):
            gyrate(a, a, b)
        with pytest.raises(DimensionError):
            gyromidpoint(a, b)

    @pytest.mark.parametrize("bad", [
        [0.1 + 0.1j, 0.0, 0.0],
        np.array([0.1j, 0.0, 0.0]),
        ["fast", "slow", "still"],
        [[0.1, 0.0], [0.1]],
    ], ids=["complex-list", "complex-array", "non-numeric", "ragged"])
    def test_non_real_input_names_argument(self, bad):
        with pytest.raises(GyrokinError, match="^v "):
            einstein_add(np.zeros(3), bad)


class TestEinsteinSub:
    def test_self_inverse(self, rng):
        v = ball_points(rng, 1000, 3, max_norm=0.99)
        assert max_abs(einstein_sub(v, v)) < 1e-13

    def test_automorphic_inverse_fixture(self):
        # -(u (+) v) = (-u) (-) v
        lhs = -einstein_add(U_FIX, V_FIX)
        rhs = einstein_sub(-U_FIX, V_FIX)
        np.testing.assert_allclose(lhs, [-0.6, -0.48, 0.0], atol=1e-15)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_left_cancellation(self, rng):
        for dim in (1, 2, 3):
            u = ball_points(rng, 2000, dim, max_norm=0.95)
            v = ball_points(rng, 2000, dim, max_norm=0.95)
            assert max_abs(einstein_add(-u, einstein_add(u, v)) - v) < 1e-12

    def test_no_naive_right_cancellation(self, rng):
        # (u (+) v) (-) v != u in general; cosubtraction is what repairs this
        u = ball_points(rng, 200, 3, max_norm=0.9, min_norm=0.3)
        v = ball_points(rng, 200, 3, max_norm=0.9, min_norm=0.3)
        bad = einstein_sub(einstein_add(u, v), v)
        assert np.max(np.linalg.norm(bad - u, axis=-1)) > 1e-3

    def test_zero_minus_v_is_negation(self):
        out = einstein_sub(np.zeros(3), V_FIX)
        np.testing.assert_array_equal(out, -V_FIX)


class TestGyration:
    def test_trivial_left_zero(self, rng):
        v = ball_points(rng, 100, 3, max_norm=0.99)
        w = rng.normal(size=(100, 3))
        assert np.array_equal(gyrate(np.zeros(3), v, w), w)

    def test_trivial_right_zero(self, rng):
        u = ball_points(rng, 100, 3, max_norm=0.99)
        w = rng.normal(size=(100, 3))
        assert np.array_equal(gyrate(u, np.zeros(3), w), w)

    def test_trivial_parallel(self, rng):
        for _ in range(100):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            u = rng.uniform(-0.95, 0.95) * d
            v = rng.uniform(-0.95, 0.95) * d
            w = rng.normal(size=3)
            assert max_abs(gyrate(u, v, w) - w) < 1e-13

    def test_ambient_vector_with_overflowing_norm_rejected(self):
        # Each component is finite, but |w|^2 overflows to inf, and the norm
        # is what a gyration keeps.
        w = np.array([1e300, 0.0, 0.0])
        for apply in (lambda w: gyrate(U_FIX, V_FIX, w), Gyration(U_FIX, V_FIX).apply):
            with pytest.raises(AdmissibilityError, match="^w has a squared norm"):
                apply(w)
            assert np.linalg.norm(apply(1e-150 * w)) == pytest.approx(1e150, rel=1e-15)

    def test_closed_form_matches_definitional_fixture(self):
        w = np.array([0.1, 0.2, 0.3])
        closed = gyrate(U_FIX, V_FIX, w)
        defn = gyrate_definitional(U_FIX, V_FIX, w)
        assert max_abs(closed - defn) < 1e-12

    def test_closed_form_matches_definitional_batch(self, rng):
        for dim in (1, 2, 3):
            u = ball_points(rng, 3000, dim, max_norm=0.99)
            v = ball_points(rng, 3000, dim, max_norm=0.99)
            w = ball_points(rng, 3000, dim, max_norm=0.99)
            assert max_abs(gyrate(u, v, w) - gyrate_definitional(u, v, w)) < 1e-10

    def test_inverse_gyration(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.99)
        v = ball_points(rng, 2000, 3, max_norm=0.99)
        w = rng.normal(size=(2000, 3))
        assert max_abs(gyrate(v, u, gyrate(u, v, w)) - w) < 1e-11

    def test_definitional_inverse(self, rng):
        u = ball_points(rng, 500, 3, max_norm=0.95)
        v = ball_points(rng, 500, 3, max_norm=0.95)
        w = ball_points(rng, 500, 3, max_norm=0.95)
        roundtrip = gyrate_definitional(v, u, gyrate_definitional(u, v, w))
        assert max_abs(roundtrip - w) < 1e-11

    def test_isometry(self, rng):
        u = ball_points(rng, 3000, 3, max_norm=0.99)
        v = ball_points(rng, 3000, 3, max_norm=0.99)
        a = ball_points(rng, 3000, 3, max_norm=0.99)
        b = ball_points(rng, 3000, 3, max_norm=0.99)
        ga, gb = gyrate(u, v, a), gyrate(u, v, b)
        assert max_abs(np.linalg.norm(ga, axis=-1) - np.linalg.norm(a, axis=-1)) < 1e-12
        assert max_abs(np.sum(ga * gb, axis=-1) - np.sum(a * b, axis=-1)) < 1e-12

    def test_automorphism(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        a = ball_points(rng, 2000, 3, max_norm=0.95)
        b = ball_points(rng, 2000, 3, max_norm=0.95)
        lhs = gyrate(u, v, einstein_add(a, b))
        rhs = einstein_add(gyrate(u, v, a), gyrate(u, v, b))
        assert max_abs(lhs - rhs) < 1e-11

    def test_left_loop_property(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        w = ball_points(rng, 2000, 3, max_norm=0.95)
        assert max_abs(gyrate(einstein_add(u, v), v, w) - gyrate(u, v, w)) < 1e-11

    def test_right_loop_property(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        w = ball_points(rng, 2000, 3, max_norm=0.95)
        assert max_abs(gyrate(u, einstein_add(v, u), w) - gyrate(u, v, w)) < 1e-11

    def test_left_gyroassociativity(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        w = ball_points(rng, 2000, 3, max_norm=0.95)
        lhs = einstein_add(u, einstein_add(v, w))
        rhs = einstein_add(einstein_add(u, v), gyrate(u, v, w))
        assert max_abs(lhs - rhs) < 1e-11

    def test_right_gyroassociativity(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        w = ball_points(rng, 2000, 3, max_norm=0.95)
        lhs = einstein_add(einstein_add(u, v), w)
        rhs = einstein_add(u, einstein_add(v, gyrate(v, u, w)))
        assert max_abs(lhs - rhs) < 1e-11

    def test_gyrocommutativity(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        lhs = einstein_add(u, v)
        rhs = gyrate(u, v, einstein_add(v, u))
        assert max_abs(lhs - rhs) < 1e-11

    def test_d_coefficient_exceeds_one(self, rng):
        # D of the closed-form kernel, gyr[u,v]w = w + (A u + B v)/D; it does
        # not depend on w.
        u = ball_points(rng, 500, 3, max_norm=0.999)
        v = ball_points(rng, 500, 3, max_norm=0.999)
        assert np.all(_gyr_coeffs(u, v, np.zeros(3))[2] > 1.0)

    def test_d_coefficient_is_sum_gamma_plus_one(self, rng):
        for uu, vv in zip(ball_points(rng, 50, 3, 0.95),
                          ball_points(rng, 50, 3, 0.95)):
            d = float(_gyr_coeffs(uu, vv, np.zeros(3))[2])
            expected = float(gamma(einstein_add(uu, vv))) + 1.0
            assert d == pytest.approx(expected, rel=1e-12)

    def test_extends_to_ambient_vectors(self):
        w = np.array([3.0, -7.0, 2.0])
        out = gyrate(U_FIX, V_FIX, w)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(w), rel=1e-14)

    def test_matrix_is_orthogonal(self, rng):
        for dim in (2, 3):
            g = Gyration(*ball_points(rng, 2, dim, max_norm=0.95, min_norm=0.3))
            m = g.matrix()
            assert max_abs(m @ m.T - np.eye(dim)) < 1e-14

    def test_matrix_agrees_with_apply(self, rng):
        g = Gyration(U_FIX, V_FIX)
        w = rng.normal(size=3)
        assert max_abs(g.matrix() @ w - g.apply(w)) < 1e-14

    def test_rotation_angle_fixture(self):
        # angle of the canonical generator pair, frozen from the x-axis image
        g = Gyration(U_FIX, V_FIX)
        assert g.rotation_angle() == pytest.approx(0.2213144423477913, abs=1e-14)

    def test_rotation_angle_trivial(self):
        assert Gyration(np.zeros(3), V_FIX).rotation_angle() == 0.0
        assert Gyration(U_FIX, 0.5 * U_FIX).rotation_angle() == 0.0

    def test_inverse_object(self):
        g = Gyration(U_FIX, V_FIX)
        w = np.array([0.2, -0.1, 0.4])
        inv = g.inverse()
        assert inv.u is g.v and inv.v is g.u
        assert max_abs(inv.apply(g.apply(w)) - w) < 1e-14


class TestCoadd:
    def test_identity(self, rng):
        u = ball_points(rng, 500, 3, max_norm=0.99)
        assert max_abs(coadd(u, np.zeros(3)) - u) < 1e-14

    def test_commutativity_exact(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.99)
        v = ball_points(rng, 2000, 3, max_norm=0.99)
        assert np.array_equal(coadd(u, v), coadd(v, u))

    def test_two_routes_agree(self, rng):
        for dim in (1, 2, 3):
            u = ball_points(rng, 2000, dim, max_norm=0.95)
            v = ball_points(rng, 2000, dim, max_norm=0.95)
            assert max_abs(coadd(u, v) - coadd_via_gyration(u, v)) < 1e-10

    def test_self_coadd_is_doubling(self):
        # u [+] u = 2 (x) u; for u = 0.6 along x this is 1.2/1.36
        out = coadd(U_FIX, U_FIX)
        np.testing.assert_allclose(out, [1.2 / 1.36, 0.0, 0.0], atol=1e-15)

    def test_commutativity_fixture(self):
        assert np.array_equal(coadd(U_FIX, V_FIX), coadd(V_FIX, U_FIX))


class TestCosub:
    def test_self_cancel(self, rng):
        u = ball_points(rng, 500, 3, max_norm=0.99)
        assert max_abs(cosub(u, u)) < 1e-12

    def test_right_cancellation_fixture(self):
        # ((0.6,0,0) (+) (0,0.6,0)) [-] (0,0.6,0) = (0.6,0,0)
        out = cosub(einstein_add(U_FIX, V_FIX), V_FIX)
        np.testing.assert_allclose(out, U_FIX, atol=1e-14)

    def test_right_cancellation_batch(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        assert max_abs(cosub(einstein_add(v, u), u) - v) < 1e-11

    def test_dual_right_cancellation_batch(self, rng):
        u = ball_points(rng, 2000, 3, max_norm=0.95)
        v = ball_points(rng, 2000, 3, max_norm=0.95)
        assert max_abs(einstein_sub(coadd(v, u), u) - v) < 1e-11

    def test_solves_equation(self):
        # x (+) a = b has the unique solution x = b [-] a
        a, b = V_FIX, np.array([0.6, 0.48, 0.0])
        x = cosub(b, a)
        assert max_abs(einstein_add(x, a) - b) < 1e-12

    def test_solves_equation_batch(self, rng):
        a = ball_points(rng, 1000, 3, max_norm=0.9)
        b = ball_points(rng, 1000, 3, max_norm=0.9)
        x = cosub(b, a)
        assert max_abs(einstein_add(x, a) - b) < 1e-11


class TestAddSpeeds:
    def test_fixture(self):
        assert float(add_speeds(0.5, 0.5)) == pytest.approx(0.8, abs=1e-15)

    @given(x=speeds(), y=speeds())
    @settings(max_examples=200)
    def test_stays_in_unit_interval(self, x, y):
        assert 0.0 <= float(add_speeds(x, y)) < 1.0


class TestHypothesisLaws:
    @given(u=ball_vectors(), v=ball_vectors())
    @settings(max_examples=300)
    def test_gyrocommutativity(self, u, v):
        lhs = einstein_add(u, v)
        rhs = gyrate(u, v, einstein_add(v, u))
        assert max_abs(lhs - rhs) < 1e-11

    @given(u=ball_vectors(), v=ball_vectors(), w=ball_vectors())
    @settings(max_examples=300)
    def test_left_gyroassociativity(self, u, v, w):
        lhs = einstein_add(u, einstein_add(v, w))
        rhs = einstein_add(einstein_add(u, v), gyrate(u, v, w))
        assert max_abs(lhs - rhs) < 1e-11

    @given(u=ball_vectors(dim=2), v=ball_vectors(dim=2))
    @settings(max_examples=300)
    def test_coaddition_commutes(self, u, v):
        assert np.array_equal(coadd(u, v), coadd(v, u))

    @given(u=ball_vectors(), v=ball_vectors())
    @settings(max_examples=300)
    def test_right_cancellation(self, u, v):
        assert max_abs(cosub(einstein_add(v, u), u) - v) < 1e-11


class TestBetaVector:
    def test_valid_construction(self):
        b = BetaVector([0.1, 0.2, 0.3])
        assert b.dim == 3
        assert b.gamma == pytest.approx(1.0 / math.sqrt(1.0 - 0.14), rel=1e-15)

    def test_rejects_boundary(self):
        with pytest.raises(AdmissibilityError):
            BetaVector([1.0, 0.0])

    def test_rejects_matrix(self):
        with pytest.raises(DimensionError):
            BetaVector(np.zeros((2, 2)))

    def test_rejects_complex(self):
        with pytest.raises(AdmissibilityError, match="not real-valued"):
            BetaVector([0.1j, 0.0, 0.0])

    def test_components_read_only(self):
        b = BetaVector([0.1, 0.2])
        with pytest.raises(ValueError):
            b.components[0] = 0.5

    def test_negative_zero_equals_identity(self):
        assert BetaVector([-0.0, 0.0]) == BetaVector.zero(2)
        assert BetaVector([1e-301, -1e-305]) == BetaVector.zero(2)
        assert BetaVector([1e-299, 0.0]) != BetaVector.zero(2)

    def test_dimension_mismatch_not_equal(self):
        assert BetaVector.zero(2) != BetaVector.zero(3)

    def test_negation(self):
        b = BetaVector([0.3, -0.4])
        assert np.array_equal((-b).components, [-0.3, 0.4])

    def test_is_zero(self):
        assert BetaVector.zero(3).is_zero
        assert not BetaVector([0.1, 0.0, 0.0]).is_zero


# Scalar arguments that are not real numbers: each raises AdmissibilityError.
NOT_REAL = {
    "gamma_of_speed-str": lambda: gk.gamma_of_speed("x"),
    "gamma_of_speed-complex": lambda: gk.gamma_of_speed(0.1j),
    "gamma_of_speed-huge-int": lambda: gk.gamma_of_speed(10 ** 400),
    "speed_of_gamma-str": lambda: gk.speed_of_gamma("x"),
    "scalar_mul-complex": lambda: gk.scalar_mul(1j, U_FIX),
    "gyroline_point-str": lambda: gk.gyroline_point(U_FIX, V_FIX, "x"),
    "classical-str": lambda: gk.classical_aberration("x", 0.1, 1),
    "relativistic-complex": lambda: gk.relativistic_aberration(1.0, 0.1j, 1),
    "scene-complex": lambda: gk.aberration_scene(0.5j, 0.1, 1.0),
    "sides-str": lambda: gk.triangle_from_sides("a", 0.3, 0.3),
    "c_value-str": lambda: gk.parse_particles("1,0.1", c_value="x"),
}

# Batches, or a fractional count, where one whole value is due: each raises
# DimensionError.
NOT_SCALAR = {
    "sss-one-batch": lambda: gk.sss_to_aaa(np.array([1.1, 1.2]), 1.2, 1.3),
    "sss-all-batches": lambda: gk.sss_to_aaa(*np.full((3, 2), 1.2)),
    "aaa-batch": lambda: gk.aaa_to_sss(np.array([0.1, 0.2]), 0.3, 0.4),
    "sides-batch": lambda: gk.triangle_from_sides(np.array([0.3, 0.4]), 0.3, 0.3),
    "scene-batch": lambda: gk.aberration_scene(np.array([0.1, 0.2]), 0.3, 0.4),
    "sweep-fractional-rows": lambda: gk.aberration_sweep(0.3, 0.5, 2.7),
}


def _failing(*args, **kwargs):
    raise AssertionError("kernel of the other route was called")


class TestValidationBoundary:
    def test_oracle_routes_stay_independent(self, monkeypatch):
        w = np.array([0.2, -0.1, 0.4])
        closed, coadded = gyrate(U_FIX, V_FIX, w), coadd(U_FIX, V_FIX)
        gyro = importlib.import_module("gyrokin.gyro")
        with monkeypatch.context() as m:
            m.setattr(gyro, "_gyr_coeffs", _failing)
            m.setattr(gyro, "_gyrate", _failing)
            assert max_abs(gyrate_definitional(U_FIX, V_FIX, w) - closed) < 1e-14
        with monkeypatch.context() as m:
            m.setattr(gyro, "_coadd", _failing)
            m.setattr(gyro, "_midpoint", _failing)
            assert max_abs(coadd_via_gyration(U_FIX, V_FIX) - coadded) < 1e-14

    def test_each_operand_validated_once(self, validation_calls):
        calls = validation_calls
        system = ParticleSystem((Particle(1.0, U_FIX), Particle(2.0, V_FIX)))

        def count(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        assert count(einstein_add, U_FIX, V_FIX) == 2
        assert count(triangle_from_vertices, U_FIX, V_FIX, np.zeros(3)) == 3
        assert count(decompose, system) == 0
        assert count(Gyration(U_FIX, V_FIX).inverse) == 0

    @pytest.mark.parametrize("call, error", [
        pytest.param(call, error, id=name)
        for cases, error in [(NOT_REAL, AdmissibilityError),
                             (NOT_SCALAR, DimensionError)]
        for name, call in cases.items()])
    def test_scalar_arguments_raise_gyrokin_errors(self, call, error):
        with pytest.raises(error):
            call()
