"""Core algebra: gamma factors, Einstein addition, gyrations, coaddition."""

import dataclasses
import importlib
import inspect
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gyrokin as gk
from gyrokin import (
    AdmissibilityError,
    DimensionError,
    Gyration,
    GyrokinError,
    Particle,
    ParticleSystem,
    RootedGyrovector,
    add_speeds,
    are_gyrocollinear,
    classical_aberration,
    classical_aberration_inv,
    classical_matched_p_e,
    coadd,
    coadd_via_gyration,
    cosub,
    einstein_add,
    einstein_sub,
    gamma,
    gamma_of_speed,
    gamma_rel_minus_1,
    gyrate,
    gyrate_definitional,
    gyrodistance,
    gyroline_point,
    gyromidpoint,
    gyroparallelogram_fourth,
    gyrovector_between,
    left_sub,
    relativistic_aberration,
    relativistic_aberration_inv,
    relativistic_matched_p_e,
    scalar_mul,
    speed_of_gamma,
    stellar_aberration,
    stellar_aberration_inv,
    translate_to,
    triangle_area,
    triangle_from_vertices,
    decompose,
)
from gyrokin import ball
from gyrokin.ball import BALL_MARGIN, MAX_NORM
from gyrokin.gyro import _gyr_coeffs, _gyr_factors, _unit_angle
from helpers import (BLOCK_LENGTHS, LAYOUTS, TEST_BLOCK, ball_points, ball_vectors,
                     broadcast_error, coercion_error, cosub_error_ratio, cosub_via_gyration,
                     gyr_coeffs_oracle, gyrate_oracle, in_blocks, layout_operands, max_abs,
                     raised, same_bits)

U_FIX = np.array([0.6, 0.0, 0.0])
V_FIX = np.array([0.0, 0.6, 0.0])


def norm_sq(v):
    """np.sum(v * v, axis=-1): the squared norms of an array's rows."""
    return np.sum(v * v, axis=-1)


def gyr_coeffs(u, v, w):
    """The closed-form coefficients A, B, D of gyr[u, v]w, from arrays."""
    n2 = [norm_sq(u), norm_sq(v)]
    u, v, w = map(ball._components, (u, v, w))
    return _gyr_coeffs(u, v, w, _gyr_factors(u, v, n2))


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

    def test_speed_of_gamma_past_square_overflow(self):
        # g*g overflows past about 1.34e154; the speed rounds to 1 there.
        assert speed_of_gamma([1e200, np.finfo(float).max]).tolist() == [1.0, 1.0]

    def test_speed_of_gamma_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        g = np.unique(np.concatenate([1.0 + np.geomspace(1e-16, 1.0, 400),
                                      np.geomspace(2.0, 1e300, 400)]))
        with mpmath.workdps(50):
            exact = [mpmath.sqrt(1 - 1 / mpmath.mpf(x) ** 2) for x in g]

            def rel_err(s):
                return np.array([float(abs(mpmath.mpf(a) / e - 1)) if e else abs(a)
                                 for a, e in zip(s.tolist(), exact)])

            err = rel_err(speed_of_gamma(g))
            with np.errstate(over="ignore"):
                square_form = np.sqrt(g * g - 1.0) / g
            finite = np.isfinite(square_form)
            err_square = rel_err(np.where(finite, square_form, 0.0))
        eps = np.finfo(float).eps
        assert err.max() <= eps
        # No worse than sqrt(g^2 - 1)/g wherever that is finite, up to one
        # rounding; near g = 1 it was off by up to 2.6e-9.
        assert np.all(err[finite] <= np.maximum(err_square[finite], eps))
        assert err[finite].max() <= err_square[finite].max()


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
        assert np.all(gyr_coeffs(u, v, np.zeros(3))[2] > 1.0)

    def test_d_coefficient_is_sum_gamma_plus_one(self, rng):
        for uu, vv in zip(ball_points(rng, 50, 3, 0.95),
                          ball_points(rng, 50, 3, 0.95)):
            d = float(gyr_coeffs(uu, vv, np.zeros(3))[2])
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

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_matrix_is_the_image_of_the_basis_bit_for_bit(self, rng, dim):
        # Column j of the matrix is gyr[u, v] e_j, as apply and gyrate compute
        # it, and the closed form I + (u a^T + v b^T)/d assembled from outer
        # products.
        eye = np.eye(dim)
        for u, v in ball_points(rng, 400, dim, max_norm=0.999).reshape(200, 2, dim):
            g = Gyration(u, v)
            a, b, d = gyr_coeffs(u, v, eye)
            assert same_bits(g.matrix(), np.ascontiguousarray(g.apply(eye).T))
            assert same_bits(g.matrix(), (np.outer(u, a) + np.outer(v, b)) / d + eye)
            for j in range(dim):
                assert same_bits(g.matrix()[:, j], gyrate(u, v, eye[j]))

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

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_made_once_it_gives_the_bits_of_the_functions(self, rng, dim):
        # apply is gyrate, inverse() is the gyration of the swapped pair, and
        # rotation_angle() measures the image of u/|u|, bit for bit.
        u, v = ball_points(rng, 60, dim, max_norm=0.999).reshape(2, 30, dim)
        u[0], v[1] = -0.0, 0.0
        w = rng.normal(size=(30, dim))
        w[2] = -0.0
        for i in range(30):
            g = Gyration(u[i], v[i])
            assert same_bits(g.apply(w[i]), gyrate(u[i], v[i], w[i]))
            assert same_bits(g.apply(w), gyrate(u[i], v[i], w))
            inv, swapped = g.inverse(), Gyration(v[i], u[i])
            assert same_bits(inv.apply(w), swapped.apply(w))
            assert same_bits(inv.matrix(), swapped.matrix())
            assert inv.rotation_angle() == swapped.rotation_angle()
            if g.is_trivial():
                assert g.rotation_angle() == 0.0
                continue
            e = u[i] / np.sqrt(norm_sq(u[i]))
            f = gyrate(u[i], v[i], e)
            want = 2.0 * math.atan2(math.sqrt(norm_sq(e - f)), math.sqrt(norm_sq(e + f)))
            assert g.rotation_angle() == want

    def test_generators_are_read_only_copies(self):
        u, v, w = U_FIX.copy(), V_FIX.copy(), np.array([0.2, -0.1, 0.4])
        g = Gyration(u, v)
        matrix, image, angle = g.matrix(), g.apply(w), g.rotation_angle()
        u[:], v[0] = 0.0, 0.3  # the caller's arrays change; the gyration does not
        assert same_bits(g.u, U_FIX) and same_bits(g.v, V_FIX)
        assert same_bits(g.matrix(), matrix) and same_bits(g.apply(w), image)
        assert g.rotation_angle() == angle
        copied = pickle.loads(pickle.dumps(g))
        for h in (g, copied):
            for name in ("u", "v"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(h, name, w)
                with pytest.raises(ValueError, match="read-only"):
                    getattr(h, name)[0] = 0.1
            assert same_bits(h.matrix(), matrix) and h.rotation_angle() == angle


@pytest.mark.parametrize("dim", range(1, 10))
def test_closed_form_split_keeps_the_bits_of_one_expression(rng, dim):
    # The factors that depend only on u and v, applied to w, give the bits of
    # the coefficients and of gyr[u, v]w written each as one expression: for
    # one vector, in Python floats, and for a batch, on its columns.
    u, v = ball_points(rng, 80, dim, max_norm=0.999).reshape(2, 40, dim)
    w = rng.normal(size=(40, dim)) * np.exp(rng.uniform(-30.0, 30.0, (40, 1)))
    u[0], v[1], w[2] = 0.0, -0.0, -0.0
    u[3], v[3] = -0.0, 0.5 * u[4]
    w[4] = u[4]
    for rows in [slice(None), slice(0, 1)] + list(range(8)):
        args = u[rows], v[rows], w[rows]
        for got, want in zip(gyr_coeffs(*args), gyr_coeffs_oracle(*args)):
            assert same_bits(np.asarray(got), np.asarray(want))
        assert same_bits(gyrate(*args), gyrate_oracle(*args))


def test_unit_angle_within_an_ulp_of_the_exact_angle(rng):
    # 2 atan2(|e - f|, |e + f|) against the 50-digit angle of the same two
    # float norms: math.atan2 of one pair is within an ulp, and doubling is exact.
    mpmath = pytest.importorskip("mpmath")
    e, f = (x / np.linalg.norm(x, axis=-1, keepdims=True) for x in rng.normal(size=(2, 2000, 3)))
    worst = 0.0
    with mpmath.workdps(50):
        for p, q in zip(e.tolist(), f.tolist()):
            gap, span = (ball._norm([x + s * y for x, y in zip(p, q)]) for s in (-1.0, 1.0))
            exact = 2 * mpmath.atan2(mpmath.mpf(gap), mpmath.mpf(span))
            worst = max(worst, float(abs(_unit_angle(p, q) - exact)) / math.ulp(float(exact)))
    assert worst <= 1.0


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

    @given(u=ball_vectors(), v=ball_vectors())
    @settings(max_examples=300)
    def test_is_coaddition_of_the_negation(self, u, v):
        assert same_bits(cosub(u, v), coadd(u, -v))
        assert max_abs(cosub(u, v) - cosub_via_gyration(u, v)) < 1e-11

    def test_near_c_error_profile(self, rng):
        # 1 - |u| and 1 - |v| log-uniform down to 1e-11.  Against 60-digit
        # mpmath, the error per eps gamma^2 peaked at 0.20 for the one-pass
        # cosub and at 0.83 for the gyration route on these rows (plain
        # errors: maxima 3.4e-7 and 2.2e-6, medians 5.6e-12 and 6.1e-12);
        # neither route raised.
        pytest.importorskip("mpmath")
        u, v = near_c_pairs(rng, 400, low=-11.0, at_max=0.0)
        one_pass, via = cosub_error_ratio(u, v)
        assert np.max(one_pass) <= COSUB_ERROR_RATIO
        assert np.max(via) <= GYRATION_ERROR_RATIO


# Bounds on cosub's near-c error per eps gamma^2 (see test_near_c_error_profile):
# twice the largest ratio measured over six seeds, 0.35 for the one-pass cosub
# and 1.44 for the gyration route.
COSUB_ERROR_RATIO = 0.7
GYRATION_ERROR_RATIO = 2.9


def near_c_pairs(rng, n, low=-12.0, at_max=0.25):
    """Admissible pairs with 1 - |u| and 1 - |v| log-uniform in [10**low, 0.1].

    A share ``at_max`` of the v sit at MAX_NORM instead.  Rows whose rounded
    squared norm leaves the ball are dropped.
    """
    u = ball_points(rng, n, 3, max_norm=1.0, min_norm=1.0)
    v = ball_points(rng, n, 3, max_norm=1.0, min_norm=1.0)
    u *= 1.0 - 10.0 ** rng.uniform(low, -1.0, (n, 1))
    v *= np.where(rng.uniform(size=(n, 1)) < at_max, MAX_NORM,
                  1.0 - 10.0 ** rng.uniform(low, -1.0, (n, 1)))
    keep = (norm_sq(u) <= 1.0 - BALL_MARGIN) & (norm_sq(v) <= 1.0 - BALL_MARGIN)
    return u[keep], v[keep]


# The seed of the near-boundary slice of the bench's scalar workload
# (bench/workloads.py, EDGE_SEED).
EDGE_SEED = 20130227


def edge_pairs(n=256):
    """The scalar workload's near-boundary pairs, drawn as Scalar._edge_pairs draws them.

    1 - |v| is log-uniform in [1 - MAX_NORM, 1e-4], and each vector is
    nudged down until its squared norm is within 1 - BALL_MARGIN.
    """
    rng = np.random.default_rng(EDGE_SEED)
    low, high = math.log(1.0 - MAX_NORM), math.log(1e-4)
    pairs = []
    for _ in range(n):
        pair = []
        for _ in range(2):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            x = (1.0 - math.exp(rng.uniform(low, high))) * d
            while float(np.dot(x, x)) > 1.0 - BALL_MARGIN:
                x = x * (1.0 - 2.0 ** -52)
            pair.append(x)
        pairs.append(tuple(pair))
    return pairs


def test_near_c_slice_of_the_scalar_workload():
    """gamma(u (+) v) of the 256 near-boundary pairs: 208 sums leave the ball.

    Each of the other 48 lies within 64 EPS gamma^3 of the gamma identity
    at 50 digits, the workload's own tolerance.  No float rounding of any of
    the 208 exact sums is admissible, so a more accurate 1 - |v|^2 of the
    inputs leaves the split as it is; only a result that carries its own
    deficit can move it.
    """
    mpmath = pytest.importorskip("mpmath")
    eps, left = float(np.finfo(float).eps), 0
    for u, v in edge_pairs():
        try:
            got = float(gamma(einstein_add(u, v)))
        except AdmissibilityError:
            left += 1
            continue
        with mpmath.workdps(50):
            mu, mv = ([mpmath.mpf(float(x)) for x in w] for w in (u, v))
            gu, gv = (1 / mpmath.sqrt(1 - mpmath.fsum(x * x for x in w)) for w in (mu, mv))
            want = float(gu * gv * (1 + mpmath.fsum(a * b for a, b in zip(mu, mv))))
        assert abs(got - want) <= 64 * eps * want ** 3
    assert left == 208


class TestAddSpeeds:
    def test_fixture(self):
        assert float(add_speeds(0.5, 0.5)) == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("bad", [1.5, -1.0, 1.0, math.nan, math.inf, -math.inf])
    def test_rejects_speeds_outside_the_open_interval(self, bad):
        for x, y in ((bad, 0.9), (0.9, bad), (np.array([0.1, bad]), 0.2)):
            with pytest.raises(AdmissibilityError):
                add_speeds(x, y)

    @given(x=speeds(), y=speeds())
    @settings(max_examples=200)
    def test_stays_in_unit_interval(self, x, y):
        assert 0.0 <= float(add_speeds(x, y)) < 1.0


BINARY_OPS = [einstein_add, einstein_sub, cosub, coadd, gyromidpoint,
              lambda u, v: gyrate(u, v, 2.0 * v)]

# Every gyro operation that long batches evaluate in row blocks.
BLOCKED_OPS = BINARY_OPS + [left_sub, coadd_via_gyration,
                            lambda u, v: gyrate_definitional(u, v, -v),
                            lambda u, v: gamma(u), lambda u, v: gamma(v), gamma_rel_minus_1]


# Draws of n rows of an argument with dim components: a velocity ("v"), a
# point that lies on the first axis in every even row ("x"), an ambient
# vector ("w"), or a scalar.
DRAWS = {
    "v": lambda rng, n, dim: ball_points(rng, n, dim, max_norm=0.99),
    "x": lambda rng, n, dim: ball_points(rng, n, dim, max_norm=0.9)
    * np.where(np.arange(n)[:, None] % 2, 1.0, np.eye(dim)[0]),
    "w": lambda rng, n, dim: rng.normal(size=(n, dim)),
    "t": lambda rng, n, dim: rng.uniform(-2.0, 2.0, n),
    "angle": lambda rng, n, dim: rng.uniform(0.1, 3.0, n),
    "speed": lambda rng, n, dim: rng.uniform(0.05, 0.9, n),
    "gamma": lambda rng, n, dim: rng.uniform(1.0, 10.0, n),
}
SCALAR_DRAWS = ("t", "angle", "speed", "gamma")


def gyration_of(dim):
    """gyr[0.6 e_0, 0.6 e_1] in dim dimensions (gyr[U_FIX, V_FIX] for dim = 3)."""
    eye = np.eye(dim)
    return Gyration(0.6 * eye[0], 0.6 * eye[min(1, dim - 1)])


# Every public function that accepts a batch, with the draws of its arguments.
BATCH_OPS = {
    "gamma": (gamma, ("v",)),
    "einstein_add": (einstein_add, ("v", "v")),
    "einstein_sub": (einstein_sub, ("v", "v")),
    "left_sub": (left_sub, ("v", "v")),
    "coadd": (coadd, ("v", "v")),
    "coadd_via_gyration": (coadd_via_gyration, ("v", "v")),
    "cosub": (cosub, ("v", "v")),
    "gyrate": (gyrate, ("v", "v", "w")),
    "gyrate_definitional": (gyrate_definitional, ("v", "v", "v")),
    "Gyration.apply": (lambda w: gyration_of(np.shape(w)[-1]).apply(w), ("w",)),
    "gamma_of_speed": (gamma_of_speed, ("speed",)),
    "speed_of_gamma": (speed_of_gamma, ("gamma",)),
    "add_speeds": (add_speeds, ("speed", "speed")),
    "scalar_mul": (scalar_mul, ("t", "v")),
    "gyrodistance": (gyrodistance, ("v", "v")),
    "gyromidpoint": (gyromidpoint, ("v", "v")),
    "gyroline_point": (gyroline_point, ("v", "v", "t")),
    "gyroparallelogram_fourth": (gyroparallelogram_fourth, ("v", "v", "v")),
    "gyrovector_between": (lambda p, q: gyrovector_between(p, q).value, ("v", "v")),
    "gyrolength": (lambda p, q: gyrovector_between(p, q).gyrolength, ("v", "v")),
    "translate_to": (lambda t, v: translate_to(RootedGyrovector(v, v, v), t).head,
                     ("v", "v")),
    "triangle_area": (triangle_area, ("x", "x", "x")),
    "are_gyrocollinear": (are_gyrocollinear, ("x", "x", "x")),
    "gamma_rel_minus_1": (gamma_rel_minus_1, ("v", "v")),
    "classical_aberration": (classical_aberration, ("angle", "speed", "speed")),
    "classical_aberration_inv": (classical_aberration_inv, ("angle", "speed", "speed")),
    "relativistic_aberration": (relativistic_aberration, ("angle", "speed", "speed")),
    "relativistic_aberration_inv": (relativistic_aberration_inv,
                                    ("angle", "speed", "speed")),
    "stellar_aberration": (stellar_aberration, ("angle", "speed")),
    "stellar_aberration_inv": (stellar_aberration_inv, ("angle", "speed")),
    "classical_matched_p_e": (classical_matched_p_e, ("angle", "angle", "speed")),
    "relativistic_matched_p_e": (relativistic_matched_p_e, ("angle", "angle", "speed")),
    "as_velocity": (ball.as_velocity, ("v",)),
}
# The operations above with a vector argument, and the type of a result
# that is not a vector, for one vector: np.float64 unless named here.
VECTOR_OPS = [op for op, (_, kinds) in BATCH_OPS.items() if set(kinds) - set(SCALAR_DRAWS)]
SCALAR_RESULT = {"are_gyrocollinear": bool, "gyrolength": float}

# Batch shapes of the first argument, the second, and any others; the last
# two are batches of a few hundred rows.
BATCH_SHAPES = [((4, 1), (5,), (5,)), ((), (6,), (6,)), ((6,), (), ()), ((5,), (5,), (5,)),
                ((), (4, 1), (5,)), ((256,), (), ()), ((257,), (257,), (257,))]


def draw_batch(rng, kind, shape, dim=3):
    """An argument drawn by DRAWS[kind] with the batch shape ``shape``."""
    core = () if kind in SCALAR_DRAWS else (dim,)
    return DRAWS[kind](rng, math.prod(shape), dim).reshape(shape + core)


def failure(op, *args):
    """The class, name, row and message of the GyrokinError op(*args) raises, or None."""
    try:
        op(*args)
    except GyrokinError as exc:
        return type(exc), exc.name, exc.row, exc.args
    return None


class TestBroadcast:
    """Broadcast operands give, row for row, the bits of single-vector calls."""

    @pytest.mark.parametrize("op", list(BATCH_OPS))
    @pytest.mark.parametrize("shapes", BATCH_SHAPES)
    def test_rows_match_single_calls(self, rng, monkeypatch, op, shapes):
        fn, kinds = BATCH_OPS[op]
        shapes = [shapes[min(i, 2)] for i in range(len(kinds))]
        args = [draw_batch(rng, kind, s) for kind, s in zip(kinds, shapes)]
        out = np.asarray(fn(*args))
        assert same_bits(np.asarray(in_blocks(monkeypatch, fn, *args)), out)
        batch = np.broadcast_shapes(*shapes)
        assert out.shape[:len(batch)] == batch
        rows = [np.broadcast_to(a, batch + a.shape[len(s):]).reshape((-1,) + a.shape[len(s):])
                for a, s in zip(args, shapes)]
        want = np.array([fn(*row) for row in zip(*rows)])
        assert same_bits(out, want.reshape(out.shape))

    @pytest.mark.parametrize("op", VECTOR_OPS)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_one_vector_against_rows_in_every_dimension(self, rng, monkeypatch, op, dim):
        # The n-kn layout, with dim on both sides of ball._IN_ORDER_TERMS: the
        # first of two or more arguments is one vector (or scalar), the others
        # have k rows, and the j-th velocity batch has a +0.0 and a -0.0
        # vector in rows 2j and 2j + 1.  Every row gives the bits and type of
        # its single call, whole and in blocks; where rows raise, the batch
        # raises the first one's error, with its row.
        fn, kinds = BATCH_OPS[op]
        k = 3 * TEST_BLOCK + 1
        batch = [i > 0 or len(kinds) == 1 for i in range(len(kinds))]
        args = [draw_batch(rng, kind, (k,) if b else (), dim) for kind, b in zip(kinds, batch)]
        zeros = [arg for arg, kind, b in zip(args, kinds, batch) if b and kind not in SCALAR_DRAWS]
        for j, arg in enumerate(zeros):
            arg[2 * j], arg[2 * j + 1] = 0.0, -0.0
        rows = [[arg[r] if b else arg for arg, b in zip(args, batch)] for r in range(k)]
        alone = [failure(fn, *row) for row in rows]
        bad = [r for r, error in enumerate(alone) if error]
        if bad:
            cls, name, _, message = alone[bad[0]]
            want = (cls, name, (bad[0],), message)
            assert failure(fn, *args) == want
            assert in_blocks(monkeypatch, failure, fn, *args) == want
            return
        out = fn(*args)
        assert type(out) is np.ndarray
        assert same_bits(in_blocks(monkeypatch, fn, *args), out)
        singles = [fn(*row) for row in rows]
        assert same_bits(out, np.array(singles))
        one = np.ndarray if out.ndim > 1 else SCALAR_RESULT.get(op, np.float64)
        assert all(type(single) is one for single in singles)

    @pytest.mark.parametrize("op", BLOCKED_OPS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("k", BLOCK_LENGTHS)
    def test_blocks_give_the_bits_of_one_call(self, rng, monkeypatch, op, layout, k):
        u, v = layout_operands(rng, layout, k)
        assert same_bits(in_blocks(monkeypatch, op, u, v), op(u, v))

    @pytest.mark.parametrize("bad", [[1.5, 0.0, 0.0], [0.5, np.nan, 0.0]])
    @pytest.mark.parametrize("op", BLOCKED_OPS)
    def test_bad_input_row_in_last_block(self, rng, monkeypatch, op, bad):
        u = ball_points(rng, BLOCK_LENGTHS[-1], 3, max_norm=0.9)
        v = ball_points(rng, BLOCK_LENGTHS[-1], 3, max_norm=0.9)
        u[-1] = v[-1] = bad
        whole = raised(op, u, v)
        assert whole is not None
        assert in_blocks(monkeypatch, raised, op, u, v) == whole

    @pytest.mark.parametrize("op", [cosub, coadd_via_gyration,
                                    lambda u, v: gyrate_definitional(u, v, -v)])
    def test_intermediate_leaving_the_ball_in_late_blocks(self, rng, monkeypatch, op):
        # Rows near c, a quarter of them at MAX_NORM, where an intermediate
        # result can round or add its way out of the ball.
        u, v = near_c_pairs(rng, 400)
        alone = [raised(op, a, b) for a, b in zip(u, v)]
        if op is cosub:
            # One pass has no intermediate: no row raises, alone, whole or
            # in blocks, and every row keeps the near-c error bound.
            pytest.importorskip("mpmath")
            assert alone == [None] * len(u) and raised(op, u, v) is None
            assert in_blocks(monkeypatch, raised, op, u, v) is None
            assert np.max(cosub_error_ratio(u, v)[0]) <= COSUB_ERROR_RATIO
            return
        good = [i for i, e in enumerate(alone) if e is None]
        bad = [i for i, e in enumerate(alone) if e is not None]
        assert len(good) >= 16 and len(bad) >= 1
        i = bad[0]
        # The bad row in the last block, in the first, and in both: the error
        # is the first bad row's own, with its index, whole or in blocks.
        for rows, first in [(good[:15] + [i], 15), ([i] + good[:16], 0),
                            ([i] + good[:15] + [i], 0)]:
            want = at_row(alone[i], first)
            assert raised(op, u[rows], v[rows]) == want
            assert in_blocks(monkeypatch, raised, op, u[rows], v[rows]) == want


OUT = "has norm 1.5 outside the admissible ball (limit 0.99999999999949996)"
NAN = "has non-finite components"
BAD, OK = [1.5, 0.0, 0.0], [0.1, 0.2, 0.3]
ROWS = BLOCK_LENGTHS[-1]


def at_row(error, row, name=None):
    """A single call's (class, message) ``error`` as a batch raises it for row ``row``.

    The message starts with ``name``: by default, the words before " has ".
    """
    cls, text = error
    name = name or text.split(" has ", 1)[0]
    return cls, f"{name} row {row}{text[len(name):]}"


def mismatch(names, *shapes):
    """The DimensionError of operands ``names`` whose shapes do not broadcast."""
    return DimensionError, f"{names}: {broadcast_error(*[np.empty(s) for s in shapes])}"


# Operands with two faults each, alone and as batches of ROWS rows with the
# faults in the last row.  The operands are coerced and their shapes matched
# before any row is checked, so the coercion or the shape match fails first,
# whatever the other operand's fault.
TWO_FAULTS = {
    "u-bad-v-ragged": ((BAD, [[0.1, 0.2], [0.3]]),
                       ([OK] * (ROWS - 1) + [BAD], [OK] * (ROWS - 1) + [[0.3]])),
    "u-bad-v-complex": ((BAD, [0.1j, 0.0, 0.0]),
                        ([OK] * (ROWS - 1) + [BAD], [[0.1j, 0.0, 0.0]] * ROWS)),
    "u-bad-v-2d": ((BAD, [0.1, 0.2]),
                   ([OK] * (ROWS - 1) + [BAD], [[0.1, 0.2]] * ROWS)),
    "u-bad-v-scalar": ((BAD, 0.5), ([OK] * (ROWS - 1) + [BAD], 0.5)),
    "u-nan-v-complex": (([np.nan, 0.0, 0.0], [0.1j, 0.0, 0.0]),
                        ([OK] * (ROWS - 1) + [[np.nan, 0.0, 0.0]], [[0.1j, 0.0, 0.0]] * ROWS)),
    "v-bad-dims": ((OK, [1.5, 0.0]), ([OK] * ROWS, [[0.1, 0.2]] * (ROWS - 1) + [[1.5, 0.0]])),
    "v-bad-rows": (([OK] * 4, [BAD] * 5), ([OK] * (ROWS - 1), [OK] * (ROWS - 1) + [BAD])),
    "v-inf-rows": (([OK] * 4, [[np.inf, 0.0, 0.0]] * 5),
                   ([OK] * (ROWS - 1), [OK] * (ROWS - 1) + [[np.inf, 0.0, 0.0]])),
}

# Each op on the two faulty operands, the names of all its operands, and
# the shapes its shape match sees when the faulty ones have shapes s and t.
TWO_FAULT_OPS = {
    "einstein_add": (einstein_add, ("u", "v"), lambda s, t: (s, t)),
    "left_sub": (left_sub, ("a", "b"), lambda s, t: (s, t)),
    "cosub": (cosub, ("u", "v"), lambda s, t: (s, t)),
    "gyrodistance": (gyrodistance, ("a", "b"), lambda s, t: (s, t)),
    "gyromidpoint": (gyromidpoint, ("a", "b"), lambda s, t: (s, t)),
    "gyrate_definitional": (lambda u, v: gyrate_definitional(OK, u, v), ("u", "v", "w"),
                            lambda s, t: ((3,), s, t)),
    "gyrate": (lambda u, w: gyrate(u, OK, w), ("u", "v", "w"), lambda s, t: (s, (3,), t)),
    "scalar_mul": (scalar_mul, ("scalar factor", "v"), lambda s, t: (s + (1,), t[:-1] + (1,))),
}


def two_fault_golden(op, case):
    """The (single, batch) class and message of TWO_FAULTS[case] for ``op``."""
    _, names, seen = TWO_FAULT_OPS[op]
    joined, last = ", ".join(names), names[-1]
    if case.endswith("ragged"):
        return [(AdmissibilityError, f"{last} is not real-valued: {coercion_error(args[1])}")
                for args in TWO_FAULTS[case]]
    if case.endswith("complex"):
        return [(AdmissibilityError, f"{last} is not real-valued: complex components")] * 2
    if case.endswith("scalar"):
        return [(DimensionError, f"{last} must have at least one component")] * 2
    if case in ("u-bad-v-2d", "v-bad-dims"):
        dims = [3] * (len(names) - 1) + [2]
        return [(DimensionError, f"{joined} have dimensions {dims}")] * 2
    return [mismatch(joined, *seen((4, 3), (5, 3))),
            mismatch(joined, *seen((ROWS - 1, 3), (ROWS, 3)))]


GOLDEN = {(op, case): two_fault_golden(op, case)
          for op in list(TWO_FAULT_OPS)[:6] for case in TWO_FAULTS}
GOLDEN.update({(op, case): two_fault_golden(op, case) for op, case in [
    ("gyrate", "u-bad-v-ragged"), ("gyrate", "u-bad-v-complex"),
    ("gyrate", "u-nan-v-complex"), ("gyrate", "v-bad-dims"), ("gyrate", "v-inf-rows"),
    ("scalar_mul", "u-bad-v-complex"), ("scalar_mul", "v-bad-rows"),
    ("scalar_mul", "v-inf-rows")]})
# scalar_mul's factor r = OK has three rows, and v = [1.5, 0] one: a single v
# broadcasts against them, so its norm fails; a batch of v does not broadcast.
GOLDEN["scalar_mul", "v-bad-dims"] = [
    (AdmissibilityError, f"v {OUT}"),
    mismatch("scalar factor, v", (ROWS, 3, 1), (ROWS, 1))]

NOT_FINITE = {"nan": [np.nan, 0.0, 0.0], "inf": [0.0, -np.inf, 0.0],
              "overflow": [1e300, 0.0, 0.0], "overflow-sum": [1e154, 1e154, 1e154]}

# Every checked operation, the names its checks give its operands, and which
# operand need only be finite (None: all must be admissible).
CHECKED_OPS = {
    "as_velocity": (ball.as_velocity, ("velocity",), None),
    "gamma": (gamma, ("v",), None),
    "einstein_add": (einstein_add, ("u", "v"), None),
    "einstein_sub": (einstein_sub, ("u", "v"), None),
    "left_sub": (left_sub, ("a", "b"), None),
    "gyrate": (gyrate, ("u", "v", "w"), 2),
    "gyrate_definitional": (gyrate_definitional, ("u", "v", "w"), None),
    "coadd": (coadd, ("u", "v"), None),
    "coadd_via_gyration": (coadd_via_gyration, ("u", "v"), None),
    "cosub": (cosub, ("u", "v"), None),
    "gyrodistance": (gyrodistance, ("a", "b"), None),
    "gyromidpoint": (gyromidpoint, ("a", "b"), None),
    "gamma_rel_minus_1": (gamma_rel_minus_1, ("u", "v"), None),
    "scalar_mul": (lambda v: scalar_mul(0.5, v), ("v",), None),
    "gyroline_point": (lambda a, b: gyroline_point(a, b, 0.5), ("a", "b"), None),
    "gyroparallelogram_fourth": (gyroparallelogram_fourth, ("a", "b", "c"), None),
    "gyrovector_between": (lambda p, q: gyrovector_between(p, q).value, ("p", "q"), None),
    "translate_to": (lambda t, v: translate_to(RootedGyrovector(v, v, v), t).head,
                     ("new_tail", "value"), None),
    "Gyration.apply": (Gyration(U_FIX, V_FIX).apply, ("w",), 0),
}

def near_c_fault(rng, op):
    """A near-c pair (a, b) that op rejects: an intermediate leaves the ball."""
    u, v = near_c_pairs(rng, 400)
    i = next(i for i in range(len(u)) if raised(op, u[i], v[i]))
    return u[i], v[i]


def collinear_fault(rng, op):
    """A pair (a, b) with a on the gyroline through b and -b."""
    b = ball_points(rng, 1, 3, max_norm=0.9)[0]
    return 0.5 * b, b


# Operations on (u, v) whose rows can fail after both operands pass: each
# with a draw of a failing pair and the name its error starts with (None:
# the words before " has ").
ROW_FAULTS = {
    "coadd_via_gyration": (coadd_via_gyration, near_c_fault, None),
    "gyrate_definitional": (lambda u, v: gyrate_definitional(u, v, -v), near_c_fault, None),
    "gyroline_point": (lambda u, v: gyroline_point(u, v, 0.5), near_c_fault, None),
    "gyroparallelogram_fourth": (lambda u, v: gyroparallelogram_fourth(OK, u, v),
                                 near_c_fault, None),
    "gyroparallelogram_fourth-collinear": (lambda u, v: gyroparallelogram_fourth(u, v, -v),
                                           collinear_fault, "a, b, c"),
}

# Where a single fault sits: the first row, the last of the first block, the
# first of the second, and the last row of the batch.
FAULT_ROWS = [0, TEST_BLOCK - 1, TEST_BLOCK, ROWS - 1]


def faulty_operands(rng, op, layout, row, arg):
    """Operands of CHECKED_OPS[op] with one fault in operand ``arg``, and its error.

    ``kn-kn``: every operand is (ROWS, 3).  ``k1n-mn``: the first is
    (ROWS, 1, 3), so a batch has two axes, and the others (3, 3); those take
    part whole in every block, and their fault sits in row ``row % 3``.
    """
    names, ambient = CHECKED_OPS[op][1:]
    ops = [ball_points(rng, ROWS, 3, max_norm=0.9) for _ in names]
    if layout == "k1n-mn":
        ops = [ops[0][:, None]] + [x[:3] for x in ops[1:]]
        where = (row, 0) if arg == 0 else row % 3
    else:
        where = row
    ops[arg][where] = [np.nan, 0.0, 0.0] if arg == ambient else BAD
    text = f"{names[arg]} {NAN if arg == ambient else OUT}"
    return ops, (AdmissibilityError, text), where


class TestOnePass:
    """Coerce, match shapes, then check and evaluate row block after row block."""

    @pytest.mark.parametrize("op, case", list(GOLDEN))
    def test_first_fault_wins(self, monkeypatch, op, case):
        fn = TWO_FAULT_OPS[op][0]
        for args, want in zip(TWO_FAULTS[case], GOLDEN[op, case]):
            assert raised(fn, *args) == want
            assert in_blocks(monkeypatch, raised, fn, *args) == want

    def test_first_failing_block_wins(self, monkeypatch):
        # u's bad row is in the last block and v's in the first: one call
        # checks u before v, and blocks check the first block first.
        u, v = [OK] * (ROWS - 1) + [BAD], [BAD] + [OK] * (ROWS - 1)
        assert raised(einstein_add, u, v) == (AdmissibilityError, f"u row {ROWS - 1} {OUT}")
        assert in_blocks(monkeypatch, raised, einstein_add, u, v) == (AdmissibilityError,
                                                                      f"v row 0 {OUT}")

    @pytest.mark.parametrize("op", list(CHECKED_OPS))
    @pytest.mark.parametrize("layout", ["kn-kn", "k1n-mn"])
    @pytest.mark.parametrize("row", FAULT_ROWS)
    def test_single_fault_names_its_row(self, rng, monkeypatch, op, layout, row):
        fn, names, _ = CHECKED_OPS[op]
        for arg in range(len(names)):
            ops, alone, where = faulty_operands(rng, op, layout, row, arg)
            want = at_row(alone, where)
            assert raised(fn, *ops) == want
            assert in_blocks(monkeypatch, raised, fn, *ops) == want
            if layout == "kn-kn":  # the row alone: a single vector's message
                assert raised(fn, *[x[row] for x in ops]) == alone

    @pytest.mark.parametrize("op", list(ROW_FAULTS))
    @pytest.mark.parametrize("layout", ["kn-n", "k1n-mn"])
    @pytest.mark.parametrize("row", FAULT_ROWS)
    def test_single_intermediate_fault_names_its_row(self, rng, monkeypatch, op, layout,
                                                     row):
        # A pair (a, b) that fails although both operands pass, among rows u
        # that pass with the same v = b.
        fn, draw, name = ROW_FAULTS[op]
        a, b = draw(rng, fn)
        good = ball_points(rng, 4 * ROWS, 3, max_norm=0.9)
        good = good[[raised(fn, c, b) is None for c in good]][:ROWS]
        assert len(good) == ROWS
        good[row] = a
        args = (good, b) if layout == "kn-n" else (good[:, None], np.array([b] * 3))
        want = at_row(raised(fn, a, b), row if layout == "kn-n" else (row, 0), name)
        assert raised(fn, *args) == want
        assert in_blocks(monkeypatch, raised, fn, *args) == want

    @pytest.mark.parametrize("op", list(CHECKED_OPS))
    def test_failing_call_checks_each_block_once(self, rng, monkeypatch, checked_rows, op):
        # Counted as aberration's test_each_block_evaluated_once counts its
        # blocks: no check sees more than a block, and the first operand's
        # check of the last block, which fails, is the last one made.
        fn, names, _ = CHECKED_OPS[op]
        ops, _, _ = faulty_operands(rng, op, "kn-kn", ROWS - 1, 0)
        in_blocks(monkeypatch, raised, fn, *ops)
        assert max(rows for _, rows in checked_rows) <= TEST_BLOCK
        assert checked_rows[-1] == (names[0], (ROWS - 1) % TEST_BLOCK + 1)

    @pytest.mark.parametrize("bad", NOT_FINITE)
    @pytest.mark.parametrize("op", BLOCKED_OPS + [gyrodistance,
                                                  lambda u, v: scalar_mul(0.5, u)])
    def test_non_finite_rows_raise_without_warning(self, rng, monkeypatch, op, bad):
        want = "non-finite" if bad in ("nan", "inf") else "norm inf"
        u = ball_points(rng, ROWS, 3, max_norm=0.9)
        v = ball_points(rng, ROWS, 3, max_norm=0.9)
        u[-1] = v[-1] = NOT_FINITE[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = raised(op, u[-1], v[-1])
            whole = raised(op, u, v)
            assert in_blocks(monkeypatch, raised, op, u, v) == whole
        assert single[0] is whole[0] is AdmissibilityError
        assert want in single[1] and want in whole[1]

    @pytest.mark.parametrize("bad, want", [("nan", "w has non-finite components"),
                                           ("overflow", "w has a squared norm that overflows")])
    def test_ambient_rows_raise_without_warning(self, rng, monkeypatch, bad, want):
        u, v, w = ball_points(rng, 3 * ROWS, 3, max_norm=0.9).reshape(3, ROWS, 3)
        w[-1] = [1e200, 1e200, 0.0] if bad == "overflow" else NOT_FINITE[bad]
        batch = at_row((AdmissibilityError, want), ROWS - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert raised(gyrate, u[-1], v[-1], w[-1]) == (AdmissibilityError, want)
            assert raised(gyrate, u, v, w) == batch
            assert in_blocks(monkeypatch, raised, gyrate, u, v, w) == batch

    def test_unblocked_call_checks_each_array_once(self, validation_calls):
        calls = validation_calls
        for op, args, want in [
                (gamma, (BAD,), ["v"]),
                (einstein_add, (BAD, OK), ["u"]),
                (einstein_add, (OK, BAD), ["u", "v"]),
                (gyrate, ([OK] * 5, OK, BAD), ["u", "v", "w"]),
                (cosub, (OK, OK), ["u", "v"]),
                (gyrate_definitional, (OK, OK, OK), ["u", "v", "w", "v", "v", "u"])]:
            calls.clear()
            raised(op, *args)
            assert calls == want

    def test_each_block_checks_its_rows(self, rng, monkeypatch, validation_calls):
        u = ball_points(rng, ROWS, 3)
        in_blocks(monkeypatch, einstein_add, u, u[0])
        assert validation_calls == ["u", "v"] * math.ceil(ROWS / TEST_BLOCK)

    def test_gyration_apply_checks_w_alone(self, rng, monkeypatch, validation_calls):
        # u was checked when the gyration was made: apply checks w, once per
        # row block (three of 8192 rows for 20,000), and u never again.
        g = Gyration(U_FIX, V_FIX)
        w = rng.normal(size=(20_000, 3))
        for arg, want in [(w[0], ["w"]), (w, ["w"] * 3), (w[:ROWS], ["w"])]:
            validation_calls.clear()
            g.apply(arg)
            assert validation_calls == want
        validation_calls.clear()
        in_blocks(monkeypatch, g.apply, w[:ROWS])
        assert validation_calls == ["w"] * math.ceil(ROWS / TEST_BLOCK)
        # Its length is still matched against u's, first: w is not finite either.
        w[:, 0] = np.nan
        for bad in (w[0, :2], w[:ROWS, :2]):
            assert raised(g.apply, bad) == (DimensionError, "u, w have dimensions [3, 2]")



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


# Scalar arguments that are not real numbers: each raises AdmissibilityError.
NOT_REAL = {
    "gamma_of_speed-str": lambda: gk.gamma_of_speed("x"),
    "gamma_of_speed-complex": lambda: gk.gamma_of_speed(0.1j),
    "gamma_of_speed-huge-int": lambda: gk.gamma_of_speed(10 ** 400),
    "speed_of_gamma-str": lambda: gk.speed_of_gamma("x"),
    "add_speeds-str": lambda: gk.add_speeds("x", 0.5),
    "scalar_mul-complex": lambda: gk.scalar_mul(1j, U_FIX),
    "gyroline_point-str": lambda: gk.gyroline_point(U_FIX, V_FIX, "x"),
    "classical-str": lambda: gk.classical_aberration("x", 0.1, 1),
    "relativistic-complex": lambda: gk.relativistic_aberration(1.0, 0.1j, 1),
    "scene-complex": lambda: gk.aberration_scene(0.5j, 0.1, 1.0),
    "sides-str": lambda: gk.triangle_from_sides("a", 0.3, 0.3),
    "triangle_q-str": lambda: gk.triangle_q("x", 1.2, 1.3),
    "triangle_q-complex": lambda: gk.triangle_q(1.1, 1.2j, 1.3),
    "c_value-str": lambda: gk.parse_particles("1,0.1", c_value="x"),
}

# Batches, or a fractional count, where one whole value is due: each raises
# DimensionError.
NOT_SCALAR = {
    "sss-one-batch": lambda: gk.sss_to_aaa(np.array([1.1, 1.2]), 1.2, 1.3),
    "sss-all-batches": lambda: gk.sss_to_aaa(*np.full((3, 2), 1.2)),
    "aaa-batch": lambda: gk.aaa_to_sss(np.array([0.1, 0.2]), 0.3, 0.4),
    "sides-batch": lambda: gk.triangle_from_sides(np.array([0.3, 0.4]), 0.3, 0.3),
    "triangle_q-batch": lambda: gk.triangle_q(np.array([1.1, 1.2]), 1.2, 1.3),
    "triangle_q-list": lambda: gk.triangle_q(1.1, 1.2, [1.3]),
    "scene-batch": lambda: gk.aberration_scene(np.array([0.1, 0.2]), 0.3, 0.4),
    "sweep-fractional-rows": lambda: gk.aberration_sweep(0.3, 0.5, 2.7),
}


# The operations that take single vectors only: the names their checks give
# their vector arguments, and valid values of those.
SINGLE_VECTOR_OPS = {
    "gyroangle": (gk.gyroangle, ("vertex", "p", "q"), (U_FIX, V_FIX, OK)),
    "triangle_from_vertices": (triangle_from_vertices, ("a", "b", "c"), (U_FIX, V_FIX, OK)),
    "Gyration": (Gyration, ("u", "v"), (U_FIX, V_FIX)),
    "metric_tensor": (gk.metric_tensor, ("x",), (U_FIX,)),
    "Particle": (lambda v: Particle(1.0, v), ("particle velocity",), (U_FIX,)),
    "boost": (lambda u: gk.boost(ParticleSystem((Particle(1.0, V_FIX),)), u), ("u",),
              (U_FIX,)),
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

    def test_each_operand_validated_once(self, rng, monkeypatch, validation_calls):
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
        # Every operand and intermediate once per row block: (-a) (+) b and
        # its scaled image are gyroline_point's v, and b [+] c is the u of
        # gyroparallelogram_fourth.
        a = ball_points(rng, ROWS, 3, max_norm=0.9)
        for fn, args, names in [(gyroline_point, (a, V_FIX, 0.5), ["a", "b", "v", "v"]),
                                (gyroparallelogram_fourth, (a, U_FIX, V_FIX),
                                 ["a", "b", "c", "u"])]:
            assert count(fn, *args) == 4 and calls == names
            calls.clear()
            in_blocks(monkeypatch, fn, *args)
            assert calls == names * math.ceil(ROWS / TEST_BLOCK)

    @pytest.mark.parametrize("op", list(SINGLE_VECTOR_OPS))
    def test_single_vector_ops_name_their_argument(self, op):
        fn, names, args = SINGLE_VECTOR_OPS[op]
        for i, name in enumerate(names):
            batch = list(args)
            batch[i] = np.array([args[i], args[i]])
            assert raised(fn, *batch) == (DimensionError,
                                          f"{name} must be a single vector, not a batch")
            bad = list(args)
            bad[i] = BAD
            assert raised(fn, *bad) == (AdmissibilityError, f"{name} {OUT}")

    @pytest.mark.parametrize("call, error", [
        pytest.param(call, error, id=name)
        for cases, error in [(NOT_REAL, AdmissibilityError),
                             (NOT_SCALAR, DimensionError)]
        for name, call in cases.items()])
    def test_scalar_arguments_raise_gyrokin_errors(self, call, error):
        with pytest.raises(error):
            call()


W_FIX = np.array([0.2, -0.1, 0.4])

# Each callable that takes an object argument, called with None (or a list
# holding None) in its place, and the name its error gives that argument.
OBJECT_ARGUMENTS = {
    "decompose": (lambda: decompose(None), "sys"),
    "boost": (lambda: gk.boost(None, U_FIX), "sys"),
    "collide_and_stick": (lambda: gk.collide_and_stick(Particle(1.0, U_FIX), None), "p2"),
    "translate_to": (lambda: translate_to(None, U_FIX), "g"),
    "equivalent": (lambda: gk.equivalent(gyrovector_between(U_FIX, V_FIX), None), "g2"),
    "right_triangle_relations": (lambda: gk.right_triangle_relations(None), "tri"),
    "law_of_gyrosines_ratios": (lambda: gk.law_of_gyrosines_ratios(None), "tri"),
    "parse_particles": (lambda: gk.parse_particles(None), "text"),
    "ParticleSystem": (lambda: ParticleSystem(None), "particles"),
    "ParticleSystem-item": (lambda: ParticleSystem([Particle(1.0, U_FIX), None]),
                            "particles[1]"),
}


@pytest.mark.parametrize("op", list(OBJECT_ARGUMENTS))
def test_object_argument_of_wrong_type_raises_one_error_class(op):
    call, name = OBJECT_ARGUMENTS[op]
    with pytest.raises(gk.OperandTypeError) as info:
        call()
    assert isinstance(info.value, GyrokinError) and isinstance(info.value, TypeError)
    assert info.value.name == name
    assert str(info.value).startswith(f"{name} must be ")
    assert str(info.value).endswith("not NoneType")


# The arguments with which each operation of CHECKED_OPS and SINGLE_VECTOR_OPS
# is called by its own name, where those tables call it through a lambda or a
# bound method: one vector for each vector argument.  The others take
# SINGLE_VECTOR_OPS's values or one of U_FIX, V_FIX and W_FIX per operand.
OWN_ARGS = {
    "scalar_mul": (0.5, U_FIX),
    "gyroline_point": (U_FIX, V_FIX, 0.5),
    "translate_to": (gyrovector_between(U_FIX, V_FIX), W_FIX),
    "Gyration.apply": (Gyration(U_FIX, V_FIX), W_FIX),
    "Particle": (1.0, U_FIX),
    "boost": (ParticleSystem((Particle(1.0, V_FIX),)), U_FIX),
}

# The operations of those tables that run row blocks on one vector too: boost
# runs its system's velocities.
ALWAYS_ROW_BLOCKS = {"boost"}


def own_call(op):
    """The callable named ``op`` in gyrokin (or its ball), and its one-vector arguments."""
    head, *attrs = op.split(".")
    fn = getattr(gk, head, None) or getattr(ball, head)
    for attr in attrs:
        fn = getattr(fn, attr)
    if op in OWN_ARGS:
        return fn, OWN_ARGS[op]
    if op in SINGLE_VECTOR_OPS:
        return fn, SINGLE_VECTOR_OPS[op][2]
    return fn, (U_FIX, V_FIX, W_FIX)[:len(CHECKED_OPS[op][1])]


def same_result(x, y):
    """Results of one type whose arrays and floats, nested as they are, have same_bits."""
    if type(x) is not type(y):
        return False
    if isinstance(x, (np.ndarray, np.generic, float)):
        return same_bits(np.asarray(x), np.asarray(y))
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(same_result, x, y))
    if hasattr(x, "__dict__"):
        return same_result(sorted(vars(x).items()), sorted(vars(y).items()))
    return x == y


class TestDeclaredOperations:
    """Each operation's checked boundary is built once and takes two routes."""

    @pytest.fixture
    def entered(self, monkeypatch):
        """Names of the row-block helpers of ball entered since the test began."""
        calls = []
        for name in ("_by_rows", "_components"):
            original = getattr(ball, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(ball, name, spy)
        return calls

    @pytest.mark.parametrize("op", [op for op in [*CHECKED_OPS, *SINGLE_VECTOR_OPS]
                                    if op not in ALWAYS_ROW_BLOCKS])
    def test_one_vector_takes_no_row_blocks(self, entered, op):
        fn, args = own_call(op)
        fn(*args)
        assert entered == []
        # The first vector argument as a batch of four rows: the row blocks
        # run it, or an operation on single vectors rejects it, and either
        # way no row-block function is made for the call.
        i = next(i for i, x in enumerate(args) if isinstance(x, np.ndarray))
        batch = list(args)
        batch[i] = np.array([args[i]] * 4)
        if op in SINGLE_VECTOR_OPS:
            with pytest.raises(DimensionError):
                fn(*batch)
            assert entered == []
        else:
            fn(*batch)
            assert "_by_rows" in entered and "_components" in entered

    @pytest.mark.parametrize("op", [*CHECKED_OPS, *SINGLE_VECTOR_OPS])
    def test_keyword_call_gives_the_positional_bits(self, op):
        fn, args = own_call(op)
        keywords = inspect.signature(fn).bind(*args).arguments
        assert same_result(fn(**keywords), fn(*args))

    @pytest.mark.parametrize("op", [*CHECKED_OPS, *SINGLE_VECTOR_OPS])
    def test_defined_where_its_module_says(self, op):
        fn = own_call(op)[0]
        found = importlib.import_module(fn.__module__)
        for part in fn.__qualname__.split("."):
            found = getattr(found, part)
        assert found is fn


# One value of each real operand: the operations on reals, and on a finite
# real beside vectors, with a function the real reaches as it is: a kernel,
# or the check of a finite real, which gets what the kernel gets.
ONE_REAL_CALLS = {
    "gamma_of_speed": (lambda: gamma_of_speed(0.5), "gyrokin.gyro._gamma_of_speed"),
    "speed_of_gamma": (lambda: speed_of_gamma(1.25), "gyrokin.gyro._speed_of_gamma"),
    "relativistic_aberration": (lambda: relativistic_aberration(1.0, 0.3, 0.5),
                                "gyrokin.aberration._gamma_of_speed"),
    "relativistic_matched_p_e": (lambda: relativistic_matched_p_e(1.0, 1.2, 0.5),
                                 "gyrokin.aberration._gamma_of_speed"),
    "scalar_mul": (lambda: scalar_mul(0.5, U_FIX), "gyrokin.ball._require_finite"),
    "gyroline_point": (lambda: gyroline_point(U_FIX, V_FIX, 0.5),
                       "gyrokin.ball._require_finite"),
}


@pytest.mark.parametrize("op", list(ONE_REAL_CALLS))
def test_one_real_reaches_its_kernel_as_a_numpy_float(monkeypatch, op):
    """A real of one value passes no row blocks, and its kernel sees an np.float64."""
    call, kernel = ONE_REAL_CALLS[op]
    seen = []
    module, name = kernel.rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(kernel, lambda x, *rest: seen.append(type(x)) or original(x, *rest))
    monkeypatch.setattr("gyrokin.ball._by_rows", _failing)
    call()
    assert seen and set(seen) == {np.float64}


@pytest.mark.parametrize("call, want", [
    (lambda: scalar_mul(np.nan, [1.5, 0.0]), (gk.NonFinite, "scalar factor must be finite")),
    (lambda: scalar_mul([0.5, np.inf], [[0.1, 0.0], [1.5, 0.0]]),
     (gk.NonFinite, "scalar factor row 1 must be finite")),
    (lambda: gyroline_point([0.1, 0.0], [1.5, 0.0], np.nan),
     (gk.AdmissibilityError, f"b {OUT}")),
    (lambda: gyroline_point([0.1, 0.0], [0.2, 0.0], [0.5, np.nan]),
     (gk.NonFinite, "t row 1 must be finite")),
], ids=["scalar_mul", "scalar_mul-rows", "gyroline_point", "gyroline_point-rows"])
def test_finite_reals_checked_in_argument_order(call, want):
    """A finite real is checked in its place among the vectors' checks."""
    assert raised(call) == want
