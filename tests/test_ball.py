"""The validation layer: last-axis sums and the admissibility check."""

import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from gyrokin import (AdmissibilityError, DimensionError, add_speeds, are_gyrocollinear,
                     classical_aberration, classical_aberration_inv, classical_matched_p_e,
                     gamma, relativistic_aberration, relativistic_matched_p_e, triangle_area)
from gyrokin.ball import as_ambient, as_velocity, dot, norm_sq
from helpers import broadcast_error, in_blocks, raised

DIMS = range(1, 11)


def same_bits(got, want):
    """Equal values, equal signs of zero, equal shapes and equal types."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def spread(rng, shape):
    """Components of both signs over 60 decades, so summation order shows."""
    return rng.standard_normal(shape) * np.exp(rng.uniform(-70.0, 70.0, shape))


@pytest.mark.parametrize("n", DIMS)
class TestSumOrder:
    """dot and norm_sq give the bits of np.sum(..., axis=-1)."""

    def check(self, u, v):
        assert same_bits(dot(u, v), np.sum(u * v, axis=-1))
        assert same_bits(norm_sq(u), np.sum(u * u, axis=-1))

    def test_one_vector(self, rng, n):
        u, v = spread(rng, (2, n))
        self.check(u, v)
        assert type(dot(u, v)) is np.float64
        assert type(norm_sq(u)) is np.float64

    def test_batch(self, rng, n):
        self.check(spread(rng, (4000, n)), spread(rng, (4000, n)))

    def test_broadcast(self, rng, n):
        self.check(spread(rng, (40, 1, n)), spread(rng, (30, n)))
        self.check(spread(rng, (n,)), spread(rng, (50, n)))

    def test_non_contiguous(self, rng, n):
        self.check(spread(rng, (300, 2 * n))[::3, ::2], spread(rng, (n, 100)).T)

    def test_empty_batch(self, n):
        self.check(np.zeros((0, n)), np.zeros((0, n)))

    def test_negative_zeros(self, rng, n):
        u = np.full((6, n), -0.0)
        v = spread(rng, (6, n))
        v[3] = -0.0
        self.check(u, v)
        self.check(u[0], np.abs(v[0]))


def test_empty_component_axis():
    # triangle_area passes raw arrays, which may have no components.
    for shape in [(0,), (5, 0), (2, 3, 0)]:
        x = np.zeros(shape)
        assert same_bits(dot(x, x), np.sum(x * x, axis=-1))
        assert same_bits(norm_sq(x), np.sum(x * x, axis=-1))


class TestOverflowingVelocity:
    """A finite velocity whose |v|^2 overflows is rejected, and nothing warns."""

    @pytest.mark.parametrize("v", [
        [1e300, 0.0, 0.0],
        [[0.1, 0.2, 0.3], [0.0, -1e200, 0.0]],
        [1e300] * 9,
    ])
    def test_rejected_without_warning(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdmissibilityError, match="norm inf outside"):
                as_velocity(v, name="u")
            with pytest.raises(AdmissibilityError):
                gamma(v)

    def test_non_finite_still_named(self):
        with pytest.raises(AdmissibilityError, match="non-finite"):
            as_velocity([np.inf, 0.0, 0.0], name="u")


@pytest.mark.parametrize("bad, velocity, ambient", [
    ({16: 1.5}, "norm 1.506", None),
    ({0: 1.2, 16: 1.5}, "norm 1.208", None),
    ({0: 1.5, 16: 1.2}, "norm 1.506", None),
    ({3: np.nan, 16: 1.5}, "non-finite", "non-finite"),
    ({16: 1e300}, "norm inf", "overflows"),
    ({}, None, None),
    ({0: 1.5, 16: np.nan}, "norm 1.506", "non-finite"),
    ({16: np.nan}, "non-finite", "non-finite"),
])
def test_checked_in_blocks_as_a_whole(monkeypatch, bad, velocity, ambient):
    """A long batch is checked block by block; an error names its first failing row.

    The message is that row's own message, with the row's index in the whole
    batch after the name, whether or not the batch runs in blocks.
    """
    v = np.full((17, 3), 0.1)
    for row, x in bad.items():
        v[row, 0] = x
    for check, want, name in ((as_velocity, velocity, "velocity"),
                              (as_ambient, ambient, "vector")):
        got = in_blocks(monkeypatch, raised, check, v)
        assert got == raised(check, v)
        if want is None:
            assert got is None
            continue
        first = min(row for row in bad if raised(check, v[row]))
        cls, text = raised(check, v[first])
        assert want in text
        assert got == (cls, text.replace(f"{name} ", f"{name} row {first} ", 1))


def test_error_row_indexes_the_whole_batch(monkeypatch):
    """The error's row is a tuple over the batch axes, offset by its block's first row."""
    v = np.full((9, 2, 3), 0.1)
    v[6, 1, 0] = 1.5
    with pytest.raises(AdmissibilityError) as info:
        in_blocks(monkeypatch, as_velocity, v)
    err = info.value
    assert (err.name, err.row) == ("velocity", (6, 1))
    assert str(err).startswith("velocity row (6, 1) has norm 1.50665")
    assert str(pickle.loads(pickle.dumps(err))) == str(err)


ANGLES, MORE_ANGLES = [0.1, 0.2], [0.1, 0.2, 0.3]
POINTS = ([[0.1, 0.0, 0.0]] * 2, [[0.0, 0.1, 0.0]] * 3, [0.0, 0.0, 0.1])


@pytest.mark.parametrize("op, args, names", [
    (classical_aberration, (ANGLES, MORE_ANGLES, 0.5), "theta_s, v, p_s"),
    (classical_aberration_inv, (ANGLES, MORE_ANGLES, 0.5), "theta_e, v, p_e"),
    (classical_matched_p_e, (ANGLES, MORE_ANGLES, 0.5), "theta_s, theta_e, p_s"),
    (relativistic_matched_p_e, (ANGLES, MORE_ANGLES, 0.5), "theta_s, theta_e, p_s"),
    (relativistic_aberration, (ANGLES, MORE_ANGLES, 0.5), "theta_s, v, p_s"),
    (add_speeds, (ANGLES, MORE_ANGLES), "x, y"),
    (triangle_area, POINTS, "a, b, c"),
    (are_gyrocollinear, POINTS, "a, b, c"),
], ids=lambda x: getattr(x, "__name__", None))
def test_batches_that_do_not_broadcast(op, args, names):
    """Scalar and ambient batches that do not broadcast raise DimensionError, naming them."""
    want = broadcast_error(*[np.asarray(a, dtype=float) for a in args])
    assert raised(op, *args) == (DimensionError, f"{names}: {want}")


def test_long_batch_checked_without_a_norm_array():
    """Validation keeps one block's squared norms, not the whole batch's."""
    v = np.full((32 * 8192, 3), 0.1)
    tracemalloc.start()
    try:
        as_velocity(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v.shape[0] * v.itemsize / 4


def test_empty_batch_is_admissible():
    for check in (as_velocity, as_ambient):
        assert check(np.zeros((0, 3))).shape == (0, 3)
