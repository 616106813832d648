"""Gyrovector-space layer: scaling, distance, lines, midpoints, metric."""

import math

import numpy as np
import pytest

from gyrokin import (
    AdmissibilityError,
    CollinearPoints,
    DimensionError,
    MAX_NORM,
    NonFinite,
    add_speeds,
    are_gyrocollinear,
    coadd,
    einstein_add,
    equivalent,
    gyrodistance,
    gyroline_point,
    gyromidpoint,
    gyroparallelogram_fourth,
    gyrovector_between,
    left_sub,
    metric_tensor,
    scalar_mul,
    translate_to,
    triangle_area,
)
from helpers import (BLOCK_LENGTHS, LAYOUTS, ball_points, in_blocks, layout_operands,
                     max_abs, raised, same_bits)

U_FIX = np.array([0.6, 0.0, 0.0])
V_FIX = np.array([0.0, 0.6, 0.0])


# Every space operation that long batches evaluate in row blocks.  The
# scalar_mul factor takes u's batch shape: (k, 1), () or (k,).
BLOCKED_OPS = [gyrodistance, gyromidpoint, lambda u, v: scalar_mul(-1.5, v),
               lambda u, v: scalar_mul(4.0 * u[..., 0], v)]


@pytest.mark.parametrize("op", BLOCKED_OPS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", BLOCK_LENGTHS)
def test_blocks_give_the_bits_of_one_call(rng, monkeypatch, op, layout, k):
    u, v = layout_operands(rng, layout, k)
    assert same_bits(in_blocks(monkeypatch, op, u, v), op(u, v))


@pytest.mark.parametrize("op", BLOCKED_OPS)
def test_bad_input_row_in_last_block(rng, monkeypatch, op):
    u = ball_points(rng, BLOCK_LENGTHS[-1], 3, max_norm=0.9)
    v = ball_points(rng, BLOCK_LENGTHS[-1], 3, max_norm=0.9)
    v[-1] = [0.6, 0.9, 0.0]
    whole = raised(op, u, v)
    assert whole is not None
    assert in_blocks(monkeypatch, raised, op, u, v) == whole


class TestScalarMul:
    def test_unit_scalar(self, rng):
        v = ball_points(rng, 200, 3, max_norm=0.99)
        assert max_abs(scalar_mul(1.0, v) - v) < 1e-15

    def test_doubling(self):
        out = scalar_mul(2.0, np.array([0.5, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.8, 0.0, 0.0], atol=1e-15)

    def test_halving(self):
        # artanh 0.8 = ln 3, tanh(ln(3)/2) = (3-1)/(3+1)
        out = scalar_mul(0.5, np.array([0.8, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0], atol=1e-15)

    def test_zero_vector(self):
        assert np.array_equal(scalar_mul(7.3, np.zeros(3)), np.zeros(3))

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_float_factor_of_one_vector_runs_on_floats(self, rng, dim):
        # A Python float r and one vector take their own route: the bits,
        # errors and check order of the array route, which np.float64 takes.
        vectors = list(ball_points(rng, 4, dim, max_norm=MAX_NORM)) + [
            np.zeros(dim), np.full(dim, -0.0), np.full(dim, 2.0), np.full(dim, np.nan),
            np.zeros((dim, 1)), 0.5, np.full(dim, 1j)]
        for r in (0.0, -0.0, 0.7, -2.5, 1e300, math.inf, math.nan):
            for v in vectors:
                got, want = raised(scalar_mul, r, v), raised(scalar_mul, np.float64(r), v)
                assert got == want
                if got is None:
                    assert same_bits(scalar_mul(r, v), scalar_mul(np.float64(r), v))

    def test_nonfinite_scalar(self):
        with pytest.raises(NonFinite):
            scalar_mul(math.inf, U_FIX)
        with pytest.raises(NonFinite):
            scalar_mul(math.nan, U_FIX)

    def test_factor_batch_must_broadcast(self, rng, monkeypatch):
        v = ball_points(rng, 4, 3)
        for r in (np.ones(5), np.ones(8)):
            with pytest.raises(DimensionError, match="scalar factor, v"):
                scalar_mul(r, v)
            # 8 factors make two blocks of 4 rows, each of which would
            # broadcast against v on its own.
            with pytest.raises(DimensionError, match="scalar factor, v"):
                in_blocks(monkeypatch, scalar_mul, r, v)

    def test_result_admissible_for_huge_scalars(self):
        out = scalar_mul(1e12, np.array([0.9, 0.0]))
        assert np.linalg.norm(out) <= MAX_NORM

    def test_negative_scalar_antiparallel(self):
        out = scalar_mul(-1.0, U_FIX)
        np.testing.assert_allclose(out, -U_FIX, atol=1e-15)

    def test_scalar_distributive_law(self, rng):
        v = ball_points(rng, 2000, 3, max_norm=0.9)
        r1, r2 = 1.7, -0.6
        lhs = scalar_mul(r1 + r2, v)
        rhs = einstein_add(scalar_mul(r1, v), scalar_mul(r2, v))
        assert max_abs(lhs - rhs) < 1e-11

    def test_scalar_associative_law(self, rng):
        v = ball_points(rng, 2000, 3, max_norm=0.9)
        r1, r2 = 0.8, 2.3
        assert max_abs(scalar_mul(r1 * r2, v) - scalar_mul(r1, scalar_mul(r2, v))) < 1e-11

    def test_integer_scalar_is_repeated_addition(self, rng):
        v = ball_points(rng, 500, 3, max_norm=0.8)
        acc = v
        for n in (2, 3, 4):
            acc = einstein_add(acc, v)
            assert max_abs(scalar_mul(float(n), v) - acc) < 1e-11

    def test_monodistributive_law(self, rng):
        a = ball_points(rng, 1000, 3, max_norm=0.9)
        r, r1, r2 = 1.3, 0.7, -1.1
        lhs = scalar_mul(r, einstein_add(scalar_mul(r1, a), scalar_mul(r2, a)))
        rhs = einstein_add(scalar_mul(r, scalar_mul(r1, a)),
                           scalar_mul(r, scalar_mul(r2, a)))
        assert max_abs(lhs - rhs) < 1e-11

    def test_distributivity_fails_for_nonparallel(self):
        # documented witness: r = 2 with the canonical orthogonal pair
        r = 2.0
        lhs = scalar_mul(r, einstein_add(U_FIX, V_FIX))
        rhs = einstein_add(scalar_mul(r, U_FIX), scalar_mul(r, V_FIX))
        assert np.linalg.norm(lhs - rhs) > 1e-3


class TestGyrodistance:
    def test_self_distance(self, rng):
        a = ball_points(rng, 200, 3, max_norm=0.99)
        assert max_abs(gyrodistance(a, a)) < 1e-14

    def test_distance_from_origin_is_norm(self):
        assert float(gyrodistance(np.zeros(3), U_FIX)) == pytest.approx(0.6, abs=1e-15)

    def test_fixture(self):
        expected = math.sqrt(0.5904)
        assert float(gyrodistance(U_FIX, V_FIX)) == pytest.approx(expected, rel=1e-15)

    def test_symmetry(self, rng):
        a = ball_points(rng, 2000, 3, max_norm=0.99)
        b = ball_points(rng, 2000, 3, max_norm=0.99)
        assert max_abs(gyrodistance(a, b) - gyrodistance(b, a)) < 1e-14

    def test_zero_iff_equal(self, rng):
        a = ball_points(rng, 200, 3, max_norm=0.9, min_norm=0.0)
        b = ball_points(rng, 200, 3, max_norm=0.9, min_norm=0.0)
        d = gyrodistance(a, b)
        distinct = np.linalg.norm(a - b, axis=-1) > 1e-12
        assert np.all(d[distinct] > 0.0)

    def test_gyrotriangle_inequality(self, rng):
        a = ball_points(rng, 3000, 3, max_norm=0.95)
        b = ball_points(rng, 3000, 3, max_norm=0.95)
        p = ball_points(rng, 3000, 3, max_norm=0.95)
        lhs = gyrodistance(a, b)
        rhs = add_speeds(gyrodistance(a, p), gyrodistance(p, b))
        assert np.all(lhs <= rhs + 1e-12)

    def test_gyrotriangle_equality_on_segments(self, rng):
        a = ball_points(rng, 1000, 3, max_norm=0.95)
        b = ball_points(rng, 1000, 3, max_norm=0.95)
        t = rng.uniform(0.0, 1.0, size=(1000,))
        p = gyroline_point(a, b, t)
        lhs = add_speeds(gyrodistance(a, p), gyrodistance(p, b))
        assert max_abs(lhs - gyrodistance(a, b)) < 1e-12


class TestGyroline:
    def test_endpoints(self, rng):
        a = ball_points(rng, 500, 3, max_norm=0.95)
        b = ball_points(rng, 500, 3, max_norm=0.95)
        assert max_abs(gyroline_point(a, b, 0.0) - a) < 1e-15
        assert max_abs(gyroline_point(a, b, 1.0) - b) < 1e-12

    def test_midpoint_from_origin(self):
        out = gyroline_point(np.zeros(3), np.array([0.8, 0.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0], atol=1e-15)

    def test_degenerate_returns_tail(self):
        a = U_FIX
        for t in (-2.0, 0.0, 0.3, 5.0):
            assert np.array_equal(gyroline_point(a, a, t), a)

    def test_points_are_chords(self, rng):
        a = ball_points(rng, 300, 3, max_norm=0.9)
        b = ball_points(rng, 300, 3, max_norm=0.9)
        p1 = gyroline_point(a, b, 0.37)
        p2 = gyroline_point(a, b, -1.4)
        p3 = gyroline_point(a, b, 2.2)
        assert float(np.max(triangle_area(p1, p2, p3))) < 1e-10

    def test_chords_in_dimension_two(self, rng):
        a = ball_points(rng, 300, 2, max_norm=0.9)
        b = ball_points(rng, 300, 2, max_norm=0.9)
        p = gyroline_point(a, b, 0.7)
        assert float(np.max(triangle_area(a, b, p))) < 1e-10


class TestGyromidpoint:
    def test_self_midpoint(self, rng):
        a = ball_points(rng, 200, 3, max_norm=0.99)
        assert max_abs(gyromidpoint(a, a) - a) < 1e-15

    def test_gamma_weighted_fixture(self):
        # (gamma_b b)/(1 + gamma_b) with gamma_b = 5/3
        out = gyromidpoint(np.zeros(3), np.array([0.8, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0], atol=1e-15)

    def test_symmetry_exact(self, rng):
        a = ball_points(rng, 1000, 3, max_norm=0.99)
        b = ball_points(rng, 1000, 3, max_norm=0.99)
        assert np.array_equal(gyromidpoint(a, b), gyromidpoint(b, a))

    def test_three_routes_agree(self, rng):
        a = ball_points(rng, 2000, 3, max_norm=0.95)
        b = ball_points(rng, 2000, 3, max_norm=0.95)
        m1 = gyromidpoint(a, b)
        m2 = gyroline_point(a, b, 0.5)
        m3 = scalar_mul(0.5, coadd(a, b))
        assert max_abs(m1 - m2) < 1e-11
        assert max_abs(m1 - m3) < 1e-11

    def test_equidistance(self, rng):
        a = ball_points(rng, 2000, 3, max_norm=0.95)
        b = ball_points(rng, 2000, 3, max_norm=0.95)
        m = gyromidpoint(a, b)
        assert max_abs(gyrodistance(m, a) - gyrodistance(m, b)) < 1e-12


class TestGyroparallelogram:
    def test_fixture_from_origin(self):
        d = gyroparallelogram_fourth(np.zeros(3), U_FIX, V_FIX)
        np.testing.assert_allclose(
            d, [0.6 / 1.18, 0.6 / 1.18, 0.0], atol=1e-15
        )

    def test_diagonal_midpoints_coincide(self, rng):
        count = 0
        while count < 1000:
            a, b, c = ball_points(rng, 3, 3, max_norm=0.9)
            if are_gyrocollinear(a, b, c, 1e-6):
                continue
            count += 1
            d = gyroparallelogram_fourth(a, b, c)
            m1 = scalar_mul(0.5, coadd(a, d))
            m2 = scalar_mul(0.5, coadd(b, c))
            assert max_abs(m1 - m2) < 1e-10

    def test_collinear_raises(self, monkeypatch):
        a = np.zeros(3)
        b = np.array([0.2, 0.0, 0.0])
        c = np.array([0.5, 0.0, 0.0])
        with pytest.raises(CollinearPoints):
            gyroparallelogram_fourth(a, b, c)
        # Of these two triples only the second is collinear: the batch
        # raises for that row, as the row alone does.
        a, b, c = np.zeros((2, 2)), np.array([[0.3, 0.0]] * 2), np.array([[0.0, 0.3], [0.5, 0.0]])
        text = "lie on one gyroline; no gyroparallelogram"
        assert raised(gyroparallelogram_fourth, a[1], b[1], c[1]) == (CollinearPoints,
                                                                     f"a, b, c {text}")
        want = (CollinearPoints, f"a, b, c row 1 {text}")
        assert raised(gyroparallelogram_fourth, a, b, c) == want
        assert in_blocks(monkeypatch, raised, gyroparallelogram_fourth, a, b, c) == want

    def test_degenerate_coincident_tail(self):
        # a = b collapses the figure; the raw formula returns c by the dual
        # right cancellation law
        b = U_FIX
        c = V_FIX
        d = gyroparallelogram_fourth(b, b, c, allow_degenerate=True)
        assert max_abs(d - c) < 1e-14


class TestRootedGyrovectors:
    def test_value_and_length(self):
        g = gyrovector_between(np.zeros(3), U_FIX)
        assert np.array_equal(g.value, U_FIX)
        assert g.gyrolength == pytest.approx(0.6, abs=1e-15)

    def test_self_equivalence(self):
        g = gyrovector_between(U_FIX, V_FIX)
        assert equivalent(g, g)

    def test_translate_preserves_value_exactly(self):
        g = gyrovector_between(np.zeros(3), U_FIX)
        moved = translate_to(g, V_FIX)
        assert np.array_equal(moved.value, g.value)
        assert moved.gyrolength == g.gyrolength

    def test_translate_to_own_tail_is_identity(self):
        g = gyrovector_between(U_FIX, V_FIX)
        back = translate_to(g, g.tail)
        assert np.array_equal(back.value, g.value)
        assert max_abs(back.head - g.head) < 1e-13

    def test_translate_fixture(self):
        g = gyrovector_between(np.zeros(3), U_FIX)
        moved = translate_to(g, V_FIX)
        np.testing.assert_allclose(moved.head, [0.48, 0.6, 0.0], atol=1e-15)

    def test_translated_head_recovers_value(self, rng):
        p, q, t = ball_points(rng, 3, 3, max_norm=0.9)
        g = gyrovector_between(p, q)
        moved = translate_to(g, t)
        assert max_abs(left_sub(moved.tail, moved.head) - g.value) < 1e-12

    def test_different_values_not_equivalent(self):
        g1 = gyrovector_between(np.zeros(3), U_FIX)
        g2 = gyrovector_between(np.zeros(3), V_FIX)
        assert not equivalent(g1, g2)

    @pytest.mark.parametrize("shape", [(2,), (5, 4), (3, 1)])
    def test_gyrolength_of_a_batch_is_the_gyrodistance_of_its_rows(self, rng, shape):
        p, q = ball_points(rng, 2 * math.prod(shape), 3, max_norm=0.99).reshape(2, *shape, 3)
        lengths = gyrovector_between(p, q).gyrolength
        want = gyrodistance(p, q)
        assert type(lengths) is np.ndarray and lengths.shape == shape
        assert lengths.tobytes() == want.tobytes()
        one = gyrovector_between(p.reshape(-1, 3)[0], q.reshape(-1, 3)[0]).gyrolength
        assert type(one) is float and one == float(want.flat[0])

    def test_records_hold_read_only_copies(self):
        """Writing to the points a record was made from leaves it as it was made."""
        p, q, t = np.array(U_FIX), np.array(V_FIX), np.array([0.1, -0.2, 0.3])
        g = gyrovector_between(p, q)
        moved = translate_to(g, t)
        batch = gyrovector_between(np.array([p, q]), np.array([q, t]))
        records = [g, moved, batch]
        arrays = [(r.tail, r.head, r.value) for r in records]
        made = [[a.tobytes() for a in fields] for fields in arrays]
        for x in (p, q, t):
            x[0] = 0.9
        assert [[a.tobytes() for a in fields] for fields in arrays] == made
        assert moved.value is g.value  # re-rooting reuses the value
        for a in (a for fields in arrays for a in fields):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[..., 0] = 0.0

    def test_equivalent_batches_row_by_row(self):
        # A bool per row for batches, one bool for one pair, and False for
        # values of different shapes.
        tails = np.zeros((2, 3))
        g1 = gyrovector_between(tails, np.array([U_FIX, U_FIX]))
        g2 = gyrovector_between(tails, np.array([U_FIX, V_FIX]))
        same = equivalent(g1, g2)
        assert same.dtype == bool and same.tolist() == [True, False]
        assert equivalent(g1, g1).tolist() == [True, True]
        one = equivalent(gyrovector_between(tails[0], U_FIX), gyrovector_between(tails[1], U_FIX))
        assert one is True
        assert equivalent(g1, gyrovector_between(tails[0], U_FIX)) is False

    def test_paper_identities(self, rng):
        # The gyrolength of the gyrovector from p to q is the gyrodistance
        # d(p, q); moved to the tail t it stays the same gyrovector, with
        # head t (+) value.  Checked on a batch and on its first row.
        p, q, t = ball_points(rng, 21, 3, max_norm=0.9).reshape(3, 7, 3)
        assert gyrovector_between(p, q).gyrolength.tobytes() == gyrodistance(p, q).tobytes()
        for tail, head, new_tail in [(p, q, t), (p[0], q[0], t[0])]:
            g = gyrovector_between(tail, head)
            moved = translate_to(g, new_tail)
            same = equivalent(moved, g)
            assert np.all(same) and np.shape(same) == tail.shape[:-1]
            assert same_bits(moved.head, einstein_add(new_tail, g.value))


class TestGyrovectorCoadd:
    def test_identity(self):
        assert max_abs(coadd(U_FIX, np.zeros(3)) - U_FIX) < 1e-14

    def test_diagonal_fixture(self):
        # tail at the origin: the diagonal is the fourth vertex itself
        d = gyroparallelogram_fourth(np.zeros(3), U_FIX, V_FIX)
        assert max_abs(coadd(U_FIX, V_FIX) - d) < 1e-14

    def test_matches_geometric_construction(self, rng):
        # build the gyroparallelogram at a random nonzero tail and compare
        # its diagonal gyrovector with the coaddition of the side gyrovectors
        count = 0
        while count < 300:
            a, b, c = ball_points(rng, 3, 3, max_norm=0.9)
            if are_gyrocollinear(a, b, c, 1e-6):
                continue
            count += 1
            d = gyroparallelogram_fourth(a, b, c)
            diagonal = left_sub(a, d)
            algebraic = coadd(left_sub(a, b), left_sub(a, c))
            assert max_abs(diagonal - algebraic) < 1e-10


class TestMetricTensor:
    def test_identity_at_origin(self):
        assert np.array_equal(metric_tensor(np.zeros(3)), np.eye(3))

    def test_fixture_diagonal(self):
        g = metric_tensor(U_FIX)
        expected = np.diag([1.0 / 0.64 + 0.36 / 0.4096, 1.5625, 1.5625])
        np.testing.assert_allclose(g, expected, atol=1e-14)
        assert g[0, 0] == pytest.approx(2.44140625, abs=1e-14)

    def test_symmetric_positive_definite(self, rng):
        for _ in range(50):
            x = ball_points(rng, 1, 3, max_norm=0.95)[0]
            g = metric_tensor(x)
            assert max_abs(g - g.T) == 0.0
            assert np.all(np.linalg.eigvalsh(g) > 0.0)

    def test_finite_difference_consistency(self, rng):
        # |(x+h) (-) x|^2 - h.G(x).h is third order: halving h cuts it ~8x
        for _ in range(50):
            x = ball_points(rng, 1, 3, max_norm=0.85, min_norm=0.2)[0]
            h = rng.normal(size=3)
            h /= np.linalg.norm(h)
            res = []
            for scale in (1e-2, 5e-3):
                step = scale * h
                d2 = float(gyrodistance(x, x + step)) ** 2
                quad = float(step @ metric_tensor(x) @ step)
                res.append(abs(d2 - quad))
            if res[0] < 1e-11:
                continue  # cubic coefficient vanishes for this direction
            assert 6.5 < res[0] / res[1] < 9.5

    def test_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            metric_tensor(np.array([1.1, 0.0]))
