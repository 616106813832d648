"""The validation layer: last-axis sums and the admissibility check."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gyrokin import AdmissibilityError, gamma
from gyrokin.ball import as_ambient, as_velocity, dot, norm_sq
from helpers import in_blocks, raised

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
    ({0: 1.2, 16: 1.5}, "norm 1.506", None),
    ({0: 1.5, 16: 1.2}, "norm 1.506", None),
    ({3: np.nan, 16: 1.5}, "non-finite", "non-finite"),
    ({16: 1e300}, "norm inf", "overflows"),
    ({}, None, None),
    ({0: 1.5, 16: np.nan}, "non-finite", "non-finite"),
    ({16: np.nan}, "non-finite", "non-finite"),
])
def test_checked_in_blocks_as_a_whole(monkeypatch, bad, velocity, ambient):
    """A long batch is checked block by block; an error names its worst row."""
    v = np.full((17, 3), 0.1)
    for row, x in bad.items():
        v[row, 0] = x
    for check, want in ((as_velocity, velocity), (as_ambient, ambient)):
        got = in_blocks(monkeypatch, raised, check, v)
        assert got == raised(check, v)
        assert got is None if want is None else want in got[1]


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
