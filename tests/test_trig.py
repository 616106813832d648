"""Gyrotrigonometry: angles, conversion laws, right-triangle identities."""

import math

import numpy as np
import pytest

from gyrokin import (
    MAX_NORM,
    AdmissibilityError,
    CollinearPoints,
    DegenerateAngle,
    DimensionError,
    InvalidTriangle,
    NoSuchTriangle,
    NotRightTriangle,
    aaa_to_sss,
    einstein_add,
    gamma_of_speed,
    gyroangle,
    gyrodistance,
    law_of_gyrosines_ratios,
    right_triangle_relations,
    sss_to_aaa,
    triangle_from_angles,
    triangle_from_sides,
    triangle_from_vertices,
    triangle_area,
    triangle_q,
)
from gyrokin.ball import _real_value
from gyrokin.trig import CLAMP_TOL, _clamped_cos, _triangle_q
from helpers import ball_points, max_abs, random_rotation

A_FIX = np.array([0.6, 0.0, 0.0])
B_FIX = np.array([0.0, 0.6, 0.0])
C_FIX = np.zeros(3)

# canonical right gyrotriangle: legs 0.6, hypotenuse sqrt(0.5904);
# the acute angle is arccos(0.6/sqrt(0.5904)) by the leg-over-hypotenuse rule
ACUTE_FIX = math.acos(0.6 / math.sqrt(0.5904))


def random_triangle(rng, max_norm=0.9, min_area=1e-3):
    while True:
        a, b, c = ball_points(rng, 3, 3, max_norm=max_norm)
        ab = np.linalg.norm(b - a)
        ac = np.linalg.norm(c - a)
        bc = np.linalg.norm(c - b)
        if min(ab, ac, bc) < 0.05:
            continue
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
        if area > min_area:
            return a, b, c


def random_right_triangle(rng, max_leg=0.7):
    """Right angle at C by construction: legs along orthogonal axes from the
    origin, then the whole figure is left gyrotranslated (angle-preserving)."""
    x = rng.uniform(0.1, max_leg)
    y = rng.uniform(0.1, max_leg)
    a = np.array([x, 0.0, 0.0])
    b = np.array([0.0, y, 0.0])
    c = np.zeros(3)
    t = ball_points(rng, 1, 3, max_norm=0.5)[0]
    return tuple(einstein_add(t, p) for p in (a, b, c))


class TestGyroangle:
    def test_coincident_rays_zero(self):
        assert gyroangle(A_FIX, B_FIX, B_FIX) == 0.0

    def test_orthogonal_at_origin(self):
        assert gyroangle(C_FIX, A_FIX, B_FIX) == math.pi / 2.0

    def test_fixture_at_moving_vertex(self):
        # unit(-0.6,0,0) . unit((-0.6,0.48,0)/sqrt(0.5904)) = 0.6/sqrt(0.5904)
        ang = gyroangle(A_FIX, C_FIX, B_FIX)
        assert ang == pytest.approx(ACUTE_FIX, abs=1e-14)
        assert ang == pytest.approx(0.674741, abs=5e-7)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateAngle):
            gyroangle(A_FIX, A_FIX, B_FIX)
        with pytest.raises(DegenerateAngle):
            gyroangle(A_FIX, B_FIX, A_FIX)

    def test_batch_input_rejected(self):
        # Scalar-only ops: a batch is a DimensionError, not a numpy TypeError.
        batch = np.zeros((2, 3))
        with pytest.raises(DimensionError):
            gyroangle(batch, A_FIX, B_FIX)
        with pytest.raises(DimensionError):
            triangle_from_vertices(batch, A_FIX, B_FIX)

    def test_left_gyrotranslation_invariance(self, rng):
        for _ in range(200):
            v, p, q, t = ball_points(rng, 4, 3, max_norm=0.9)
            if min(np.linalg.norm(p - v), np.linalg.norm(q - v)) < 1e-3:
                continue
            before = gyroangle(v, p, q)
            after = gyroangle(*[einstein_add(t, p) for p in (v, p, q)])
            assert abs(before - after) < 1e-10

    def test_rotation_invariance(self, rng):
        for _ in range(100):
            v, p, q = ball_points(rng, 3, 3, max_norm=0.9)
            if min(np.linalg.norm(p - v), np.linalg.norm(q - v)) < 1e-3:
                continue
            rot = random_rotation(rng, 3)
            before = gyroangle(v, p, q)
            after = gyroangle(rot @ v, rot @ p, rot @ q)
            assert abs(before - after) < 1e-10


class TestTriangleFromVertices:
    def test_canonical_right_triangle(self):
        tri = triangle_from_vertices(A_FIX, B_FIX, C_FIX)
        assert tri.side_a == pytest.approx(0.6, abs=1e-15)
        assert tri.side_b == pytest.approx(0.6, abs=1e-15)
        assert tri.side_c == pytest.approx(math.sqrt(0.5904), rel=1e-15)
        assert tri.gamma_a == pytest.approx(1.25, rel=1e-14)
        assert tri.gamma_b == pytest.approx(1.25, rel=1e-14)
        assert tri.gamma_c == pytest.approx(1.5625, rel=1e-14)
        assert tri.gamma == pytest.approx(math.pi / 2.0, abs=1e-14)
        assert tri.alpha == pytest.approx(ACUTE_FIX, abs=1e-13)
        assert tri.beta == pytest.approx(ACUTE_FIX, abs=1e-13)
        # hypotenuse gamma is the product of the leg gammas
        assert tri.gamma_a * tri.gamma_b == pytest.approx(tri.gamma_c, abs=1e-12)

    def test_vertices_are_read_only_copies(self):
        """Writing to the points a triangle was made from leaves its vertices as they were."""
        points = [np.array(A_FIX), np.array(B_FIX), np.array(C_FIX)]
        tri = triangle_from_vertices(*points)
        for p in points:
            p[0] = 0.9
        assert [v.tolist() for v in tri.vertices] == [list(A_FIX), list(B_FIX), list(C_FIX)]
        for v in tri.vertices:
            assert not v.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 0.0

    def test_positive_defect(self, rng):
        for _ in range(200):
            tri = triangle_from_vertices(*random_triangle(rng))
            assert tri.defect > 0.0
            assert tri.q >= 0.0

    def test_equilateral_by_rotation(self):
        # three points at pairwise gyrodistance 0.6, built by rotating a
        # radial point through 2*pi/3; the radius is solved by bisection
        def pair_distance(r):
            p0 = np.array([r, 0.0])
            rot = np.array([[math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3)],
                            [math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)]])
            return float(gyrodistance(p0, rot @ p0))

        lo, hi = 0.0, 0.6
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if pair_distance(mid) < 0.6:
                lo = mid
            else:
                hi = mid
        r = 0.5 * (lo + hi)
        rot = np.array([[math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3)],
                        [math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)]])
        p0 = np.array([r, 0.0])
        p1 = rot @ p0
        p2 = rot @ p1
        tri = triangle_from_vertices(p0, p1, p2)
        assert tri.side_a == pytest.approx(0.6, abs=1e-9)
        assert tri.alpha == pytest.approx(tri.beta, abs=1e-10)
        assert tri.beta == pytest.approx(tri.gamma, abs=1e-10)

    def test_collinear_raises(self):
        with pytest.raises(CollinearPoints):
            triangle_from_vertices(
                np.zeros(3),
                np.array([0.1, 0.0, 0.0]),
                np.array([0.7, 0.0, 0.0]),
            )

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_stacked_rows_give_the_bits_of_pairwise_calls(self, rng, dim):
        """The six gyrovectors and three angles, one row each, as if one by one."""
        for a, b, c in ball_points(rng, 60, dim, max_norm=0.9).reshape(20, 3, dim):
            if float(triangle_area(a, b, c)) < 1e-3:
                continue
            tri = triangle_from_vertices(a, b, c)
            sides = [float(gyrodistance(b, c)), float(gyrodistance(a, c)),
                     float(gyrodistance(a, b))]
            want = sides + gamma_of_speed(sides).tolist() + [
                gyroangle(a, b, c), gyroangle(b, a, c), gyroangle(c, a, b)]
            got = [tri.side_a, tri.side_b, tri.side_c, tri.gamma_a, tri.gamma_b,
                   tri.gamma_c, tri.alpha, tri.beta, tri.gamma]
            assert [type(x) for x in got] == [float] * 9
            assert got == want

    @pytest.mark.parametrize("order, side, ends", [((0, 1, 2), "c", "a and b"),
                                                    ((2, 0, 1), "a", "b and c"),
                                                    ((0, 2, 1), "b", "a and c")])
    def test_side_rounding_to_one_is_named(self, order, side, ends):
        # Two admissible vertices at opposite ends of a diameter: the side
        # between them rounds to gyrolength 1.
        points = [[MAX_NORM, 0.0], [-MAX_NORM, 0.0], [0.0, 0.5]]
        with pytest.raises(AdmissibilityError) as info:
            triangle_from_vertices(*[points[i] for i in order])
        assert str(info.value) == (f"side {side}, between vertices {ends}, "
                                   "has gyrolength 1, not below 1")

    def test_no_second_range_check_in_gyro(self, monkeypatch):
        calls = []
        monkeypatch.setattr("gyrokin.ball._real_value",
                            lambda *args: calls.append(args) or _real_value(*args))
        tri = triangle_from_vertices(A_FIX, B_FIX, C_FIX)
        triangle_from_sides(tri.side_a, tri.side_b, tri.side_c)
        triangle_from_angles(tri.alpha, tri.beta, tri.gamma)
        assert calls == []

    def test_geometric_equals_analytic_angles(self, rng):
        for _ in range(300):
            tri = triangle_from_vertices(*random_triangle(rng))
            alpha, beta, gamma = sss_to_aaa(tri.gamma_a, tri.gamma_b, tri.gamma_c)
            assert abs(alpha - tri.alpha) < 1e-10
            assert abs(beta - tri.beta) < 1e-10
            assert abs(gamma - tri.gamma) < 1e-10


class TestSssToAaa:
    def test_canonical_fixture(self):
        alpha, beta, gamma = sss_to_aaa(1.25, 1.25, 1.5625)
        # cos(alpha) = (-1.25 + 1.25*1.5625)/(0.75*sqrt(1.5625^2-1))
        expected = math.acos(0.703125 / (0.75 * math.sqrt(1.5625 ** 2 - 1.0)))
        assert alpha == pytest.approx(expected, abs=1e-15)
        assert alpha == pytest.approx(ACUTE_FIX, abs=1e-14)
        assert beta == pytest.approx(alpha, abs=1e-15)
        assert gamma == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_near_euclidean_limit(self):
        # equal tiny sides approach the equilateral Euclidean triangle
        g = float(gamma_of_speed(1e-6))
        alpha, beta, gamma = sss_to_aaa(g, g, g)
        for ang in (alpha, beta, gamma):
            assert ang == pytest.approx(math.pi / 3.0, abs=1e-3)

    def test_near_euclidean_limit_unit_gammas(self):
        # the same limit phrased on the gamma factors themselves
        alpha, beta, gamma = sss_to_aaa(1.0 + 1e-6, 1.0 + 1e-6, 1.0 + 1e-6)
        for ang in (alpha, beta, gamma):
            assert ang == pytest.approx(math.pi / 3.0, abs=1e-3)

    def test_roundtrip(self, rng):
        for _ in range(300):
            tri = triangle_from_vertices(*random_triangle(rng))
            angles = sss_to_aaa(tri.gamma_a, tri.gamma_b, tri.gamma_c)
            back = aaa_to_sss(*angles)
            assert abs(back[0] - tri.gamma_a) < 1e-9
            assert abs(back[1] - tri.gamma_b) < 1e-9
            assert abs(back[2] - tri.gamma_c) < 1e-9

    def test_invalid_sides_raise(self):
        # one side longer than the other two can close
        with pytest.raises(InvalidTriangle):
            sss_to_aaa(float(gamma_of_speed(0.9)), 1.0005, 1.0005)

    def test_gamma_at_most_one_raises(self):
        with pytest.raises(InvalidTriangle):
            sss_to_aaa(1.0, 1.25, 1.25)

    def test_negative_q_means_beyond_the_rounding_band(self, rng):
        # sss_to_aaa rejects the sides where _triangle_q, which clamps the
        # band -CLAMP_TOL (1 + 2 g_a g_b g_c) <= q < 0 to 0, stays negative:
        # exactly where q lies below the band, NaN and overflow included.
        ga, gb = rng.uniform(1.0, 10.0, size=(2, 200))
        flat = ga * gb + np.sqrt((ga * ga - 1.0) * (gb * gb - 1.0))  # q = 0
        triples = [(a, b, c * (1.0 + d)) for a, b, c in zip(ga, gb, flat)
                   for d in (0.0, 1e-16, -1e-16, 1e-14, 1e-13, 1e-12, 1e-10, 1e-6, -1e-6)]
        triples += [(1.5, 1.5, math.inf), (math.inf, math.inf, 2.0), (1e200, 1.0 + 1e-7, 1.5),
                    (1e200, 1e200, 1e200), (math.nan, 1.5, 1.5), (1.5, 1.5, 1.5)]
        below = 0
        for a, b, c in triples:
            q = 1.0 + 2.0 * a * b * c - a * a - b * b - c * c
            want = q < -CLAMP_TOL * (1.0 + 2.0 * a * b * c)
            assert (_triangle_q(a, b, c) < 0.0) == want
            below += want
            if want and min(a, b, c) > 1.0:
                with pytest.raises(InvalidTriangle, match="negative triangle quantity"):
                    sss_to_aaa(a, b, c)
        assert 0 < below < len(triples)

    def test_cosine_past_the_clamp_raises(self):
        # Admissible side gammas whose cos(beta) rounds 5.1e-11 below -1,
        # past the clamp: the cosine check, not the q check, rejects them.
        with pytest.raises(InvalidTriangle) as err:
            sss_to_aaa(1.0001907664224359, 1.0000000032153429, 1.0001923360840048)
        assert str(err.value) == "side gammas give cos = -1.0000000000514331, outside [-1, 1]"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_clamped_cos(self, sign):
        # A cosine up to CLAMP_TOL past +-1 is rounding and clamps; past that
        # the sides form no triangle.
        assert _clamped_cos(sign * (1.0 + 5e-13), 1.0) == sign
        assert _clamped_cos(sign * (1.0 + CLAMP_TOL), 1.0) == sign
        with pytest.raises(InvalidTriangle, match=r"outside \[-1, 1\]"):
            _clamped_cos(sign * math.nextafter(1.0 + CLAMP_TOL, 2.0), 1.0)

    def test_q_formula_matches_sin(self, rng):
        # sqrt(1 - cos^2) equals the closed form with the triangle quantity
        for _ in range(100):
            tri = triangle_from_vertices(*random_triangle(rng))
            ga, gb, gc = tri.gamma_a, tri.gamma_b, tri.gamma_c
            alpha, _, _ = sss_to_aaa(ga, gb, gc)
            q = triangle_q(ga, gb, gc)
            closed = math.sqrt(q) / math.sqrt((gb * gb - 1.0) * (gc * gc - 1.0))
            assert math.sin(alpha) == pytest.approx(closed, abs=1e-10)


class TestAaaToSss:
    def test_inverse_of_canonical(self):
        ga, gb, gc = aaa_to_sss(ACUTE_FIX, ACUTE_FIX, math.pi / 2.0)
        assert ga == pytest.approx(1.25, abs=1e-13)
        assert gb == pytest.approx(1.25, abs=1e-13)
        assert gc == pytest.approx(1.5625, abs=1e-13)

    def test_euclidean_angle_sum_rejected(self):
        with pytest.raises(NoSuchTriangle):
            aaa_to_sss(math.pi / 3.0, math.pi / 3.0, math.pi / 3.0)

    def test_equal_half_radian_angles(self):
        ga, gb, gc = aaa_to_sss(0.5, 0.5, 0.5)
        expected = (math.cos(0.5) + math.cos(0.5) ** 2) / math.sin(0.5) ** 2
        for g in (ga, gb, gc):
            assert g == pytest.approx(expected, rel=1e-15)
        # squared-form consistency used to derive the law
        alpha = 0.5
        lhs = ((math.cos(alpha) + math.cos(alpha) * math.cos(alpha)) /
               (math.sin(alpha) * math.sin(alpha))) ** 2
        rhs = (math.cos(alpha) + math.cos(alpha) ** 2) ** 2 / (
            (1 - math.cos(alpha) ** 2) * (1 - math.cos(alpha) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert ga == pytest.approx(math.sqrt(rhs), rel=1e-12)

    def test_side_gamma_at_one_rejected(self):
        # The angle sum falls 2e-12 short of pi, so it passes the defect test
        # (tol 1e-12), but a side gamma factor comes out at most 1.
        b = (math.pi - 1e-5 - 2e-12) / 2
        with pytest.raises(NoSuchTriangle) as err:
            aaa_to_sss(1e-5, b, b)
        assert str(err.value) == "angles yield a side gamma factor <= 1"

    def test_tiny_angles_rejected(self):
        # sin(1e-200)^2 underflows to 0, so gamma_c would divide by zero.
        with pytest.raises(NoSuchTriangle):
            aaa_to_sss(1e-200, 1e-200, 1.0)

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(NoSuchTriangle):
            aaa_to_sss(0.0, 0.5, 0.5)
        with pytest.raises(NoSuchTriangle):
            aaa_to_sss(3.2, 0.1, 0.1)

    def test_roundtrip(self, rng):
        for _ in range(200):
            angles = rng.uniform(0.15, 1.0, size=3)
            if angles.sum() >= math.pi - 0.05:
                continue
            gammas = aaa_to_sss(*angles)
            back = sss_to_aaa(*gammas)
            assert max_abs(np.array(back) - angles) < 1e-9


class TestTriangleConstructors:
    def test_from_sides_matches_vertices(self):
        tri_v = triangle_from_vertices(A_FIX, B_FIX, C_FIX)
        tri_s = triangle_from_sides(tri_v.side_a, tri_v.side_b, tri_v.side_c)
        assert tri_s.alpha == pytest.approx(tri_v.alpha, abs=1e-12)
        assert tri_s.gamma == pytest.approx(tri_v.gamma, abs=1e-12)

    def test_from_sides_rejects_bad_lengths(self):
        with pytest.raises(InvalidTriangle):
            triangle_from_sides(0.5, 0.5, 1.2)
        with pytest.raises(InvalidTriangle):
            triangle_from_sides(0.9, 0.01, 0.01)

    @pytest.mark.parametrize("small", [1e-160, 1e-100, 1e-10])
    def test_from_angles_rejects_a_side_at_one(self, small):
        # gamma_c overflows, or it is finite and its side rounds to 1.
        with pytest.raises(NoSuchTriangle):
            triangle_from_angles(small, small, 0.5)

    def test_from_angles_small_but_solvable(self):
        tri = triangle_from_angles(1e-3, 1e-3, 0.5)
        assert 0.0 < tri.side_a < 1.0 and 0.0 < tri.side_c < 1.0

    def test_from_angles_sides(self):
        tri = triangle_from_angles(ACUTE_FIX, ACUTE_FIX, math.pi / 2.0)
        assert tri.side_a == pytest.approx(0.6, abs=1e-13)
        assert tri.side_c == pytest.approx(math.sqrt(0.5904), abs=1e-13)


class TestRightTriangle:
    def test_canonical_report(self):
        tri = triangle_from_vertices(A_FIX, B_FIX, C_FIX)
        report = right_triangle_relations(tri)
        assert report.max_residual < 1e-12
        assert tri.gamma_a * tri.gamma_b == pytest.approx(1.5625, abs=1e-13)
        assert report.cos_alpha == pytest.approx(0.6 / math.sqrt(0.5904), abs=1e-13)

    def test_random_constructed_right_triangles(self, rng):
        for _ in range(200):
            a, b, c = random_right_triangle(rng)
            tri = triangle_from_vertices(a, b, c)
            report = right_triangle_relations(tri)
            assert report.max_residual < 1e-10

    def test_euclidean_limit(self):
        # shrink the legs; both Pythagorean identities collapse to a^2+b^2=c^2
        residuals = []
        for lam in (1e-2, 1e-3):
            tri = triangle_from_vertices(
                np.array([0.6 * lam, 0.0, 0.0]),
                np.array([0.0, 0.45 * lam, 0.0]),
                np.zeros(3),
            )
            residuals.append(
                abs((tri.side_a ** 2 + tri.side_b ** 2) / tri.side_c ** 2 - 1.0)
            )
        assert residuals[0] < 1e-3
        # O(lambda^2) decay
        assert 30.0 < residuals[0] / residuals[1] < 300.0

    def test_not_right_raises(self, rng):
        tri = triangle_from_vertices(*random_triangle(rng))
        if abs(tri.gamma - math.pi / 2.0) > 1e-6:
            with pytest.raises(NotRightTriangle):
                right_triangle_relations(tri)


class TestLawOfGyrosines:
    def test_ratios_equal(self, rng):
        for _ in range(200):
            tri = triangle_from_vertices(*random_triangle(rng))
            r1, r2, r3 = law_of_gyrosines_ratios(tri)
            assert abs(r1 - r2) / r1 < 1e-10
            assert abs(r1 - r3) / r1 < 1e-10
