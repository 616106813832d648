"""The validation layer: last-axis sums and the admissibility check."""

import dataclasses
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from gyrokin import (MAX_NORM, AdmissibilityError, AngleDegenerate, DimensionError,
                     GyrokinError, Gyrotriangle, NonFinite, Particle, ParticleSystem,
                     aberration_scene, aberration_sweep, add_speeds, are_gyrocollinear,
                     classical_aberration, classical_aberration_inv, classical_matched_p_e,
                     coadd, coadd_via_gyration, decompose, einstein_add, einstein_sub, gamma,
                     gamma_of_speed, gyrate, gyrodistance, gyroline_point, left_sub,
                     parse_particles, relativistic_aberration, relativistic_aberration_inv,
                     relativistic_matched_p_e, scalar_mul, speed_of_gamma, stellar_aberration,
                     stellar_aberration_inv, triangle_area, triangle_from_angles,
                     triangle_from_sides, triangle_from_vertices)
from gyrokin.ball import _SINGLE_REAL, _operation, _record, as_velocity, dot, norm_sq
from helpers import ball_points, broadcast_error, in_blocks, raised

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
    # dot and norm_sq take raw arrays, which may have no components.
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


def gyrate_w(w):
    """gyr[u, v]w for fixed admissible u, v: w is the one ambient operand."""
    return gyrate(np.full(3, 0.1), np.full(3, 0.2), w)


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
    for check, want, name in ((as_velocity, velocity, "velocity"), (gyrate_w, ambient, "w")):
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


@pytest.mark.parametrize("op", [triangle_area, are_gyrocollinear],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("points, error, want", [
    (([0.5], [0.1, 0.2, 0.3], [0.0, 0.0, 0.1]), DimensionError,
     "a, b, c have dimensions [1, 3, 3]"),
    (([[0.5]] * 2, [0.1, 0.2, 0.3], [[0.0, 0.0, 0.1]] * 2), DimensionError,
     "a, b, c have dimensions [1, 3, 3]"),
    (([0.1, 0.2, 0.3], [0.0, 0.1, 0.0], [0.3, 0.4]), DimensionError,
     "a, b, c have dimensions [3, 3, 2]"),
    ((0.5, [0.1, 0.2, 0.3], [0.0, 0.0, 0.1]), DimensionError,
     "a must have at least one component"),
    (([0.1, 0.2], [0.0, 0.1], 0.3), DimensionError, "c must have at least one component"),
    (([], [], []), DimensionError, "a must have at least one component"),
    # The points are ambient vectors: each must be finite, and so must its
    # squared norm.
    (([math.nan, 0.0], [0.1, 0.0], [0.0, 0.1]), AdmissibilityError,
     "a has non-finite components"),
    (([0.1, 0.0], [1e200, 0.0], [0.0, 0.1]), AdmissibilityError,
     "b has a squared norm that overflows"),
    (([0.1, 0.0], [0.0, 0.1], [[0.2, 0.0], [0.0, -math.inf]]), AdmissibilityError,
     "c row 1 has non-finite components"),
    (([[0.1, 0.0], [1e200, 0.0]], [0.0, 0.1], [0.2, 0.2]), AdmissibilityError,
     "a row 1 has a squared norm that overflows"),
], ids=["1-vs-3", "batch-1-vs-3", "3-vs-2", "0-d-a", "0-d-c", "no-components", "nan-a",
        "overflow-b", "inf-c-row", "overflow-a-row"])
def test_points_of_other_dimensions(op, points, error, want):
    """The three points share one dimension, and each is finite: no component axis broadcasts."""
    assert raised(op, *points) == (error, want)


K = 7
UNIT = [0.1, 0.2, 0.3]

# Every range check on a batch argument, as (op, args, which argument is
# the batch, a bad value, error, name, message): the batch is an array of K
# rows, the other arguments single values.
ROW_CHECKS = {
    "gamma_of_speed": (gamma_of_speed, [np.full(K, 0.5)], 0, 1.0,
                       AdmissibilityError, "speed", "must lie in [0, 1)"),
    "speed_of_gamma": (speed_of_gamma, [np.full(K, 1.5)], 0, np.inf,
                       AdmissibilityError, "gamma factor", "must be finite and >= 1"),
    "add_speeds-x": (add_speeds, [np.full(K, 0.5), 0.3], 0, -1.0,
                     AdmissibilityError, "speeds", "must lie in (-1, 1)"),
    "add_speeds-y": (add_speeds, [0.3, np.full(K, 0.5)], 1, np.nan,
                     AdmissibilityError, "speeds", "must lie in (-1, 1)"),
    "scalar_mul": (scalar_mul, [np.full(K, 0.5), UNIT], 0, np.inf,
                   NonFinite, "scalar factor", "must be finite"),
    "gyroline_point": (gyroline_point, [UNIT, [0.0, 0.1, 0.0], np.full(K, 0.5)], 2, np.nan,
                       NonFinite, "t", "must be finite"),
    "classical-angle": (classical_aberration, [np.full(K, 1.0), 0.3, 0.5], 0, 0.0,
                        AngleDegenerate, "theta_s", "must lie strictly between 0 and pi"),
    "classical-sin": (classical_aberration, [np.full(K, 1.0), 0.3, 0.5], 0, 1e-300,
                      AngleDegenerate, "sin(theta_s)", "vanishes; formulas degenerate"),
    "classical-v": (classical_aberration, [1.0, np.full(K, 0.3), 0.5], 1, 1.5,
                    AdmissibilityError, "v", "must lie in [0, 1]"),
    "classical-p": (classical_aberration, [1.0, 0.3, np.full(K, 0.5)], 2, -0.5,
                    AdmissibilityError, "p_s", "must be positive and finite"),
    "classical_inv-angle": (classical_aberration_inv, [np.full(K, 1.0), 0.3, 0.5], 0,
                            np.pi, AngleDegenerate, "theta_e",
                            "must lie strictly between 0 and pi"),
    "classical_matched-angle": (classical_matched_p_e, [1.0, np.full(K, 1.0), 0.5], 1,
                                -1.0, AngleDegenerate, "theta_e",
                                "must lie strictly between 0 and pi"),
    "relativistic_matched-p": (relativistic_matched_p_e, [1.0, 1.2, np.full(K, 0.5)], 2,
                               1.0, AdmissibilityError, "p_s", "must lie in [0, 1)"),
    "relativistic-angle": (relativistic_aberration, [np.full(K, 1.0), 0.3, 0.5], 0,
                           np.nan, AngleDegenerate, "theta_s",
                           "must lie strictly between 0 and pi"),
    "relativistic-v": (relativistic_aberration, [1.0, np.full(K, 0.3), 0.5], 1, 1.0,
                       AdmissibilityError, "v", "must lie in [0, 1)"),
    "relativistic-p-light": (relativistic_aberration, [1.0, 0.3, np.full(K, 0.5)], 2, 1.5,
                             AdmissibilityError, "p_s", "must lie in [0, 1]"),
    "relativistic-p-positive": (relativistic_aberration, [1.0, 0.3, np.full(K, 0.5)], 2,
                                0.0, AdmissibilityError, "p_s", "must be positive"),
    "relativistic_inv-angle": (relativistic_aberration_inv, [np.full(K, 1.0), 0.3, 0.5], 0,
                               0.0, AngleDegenerate, "theta_e",
                               "must lie strictly between 0 and pi"),
    "stellar-v": (stellar_aberration, [1.0, np.full(K, 0.3)], 1, 1.0,
                  AdmissibilityError, "v", "must lie in [0, 1)"),
    "stellar_inv-angle": (stellar_aberration_inv, [np.full(K, 1.0), 0.3], 0, np.pi,
                          AngleDegenerate, "theta_e", "must lie strictly between 0 and pi"),
}


@pytest.mark.parametrize("case", ROW_CHECKS)
@pytest.mark.parametrize("row", [0, 3, K - 1])
def test_range_check_names_its_row(monkeypatch, case, row):
    """A batch's range error names its first failing row, blocked or not.

    The row alone, passed as a single value, gives the message without it.
    """
    op, args, arg, bad, error, name, text = ROW_CHECKS[case]
    args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    args[arg][row] = bad
    if row < K - 1:
        args[arg][K - 1] = bad  # a later failing row does not win
    want = (error, f"{name} row {row} {text}")
    assert raised(op, *args) == want
    assert in_blocks(monkeypatch, raised, op, *args) == want
    single = [a[row] if isinstance(a, np.ndarray) else a for a in args]
    assert raised(op, *single) == (error, f"{name} {text}")


def test_range_error_row_is_a_tuple_over_the_batch_axes(monkeypatch):
    # In blocks of 4 rows the bad row sits in the second block.
    theta = np.full((9, 2), 1.0)
    theta[6, 1] = 0.0
    for run in (lambda: relativistic_aberration(theta, 0.3, 0.5),
                lambda: in_blocks(monkeypatch, relativistic_aberration, theta, 0.3, 0.5),
                lambda: classical_aberration(theta, 0.3, 0.5)):
        with pytest.raises(AngleDegenerate) as info:
            run()
        assert (info.value.name, info.value.row) == ("theta_s", (6, 1))
        assert str(info.value) == "theta_s row (6, 1) must lie strictly between 0 and pi"


@pytest.mark.parametrize("op, args, want", [
    (aberration_scene, (-0.5, 0.5, 1.0), (AdmissibilityError, "v", "v must lie in [0, 1)")),
    (aberration_scene, (0.0, 0.5, 1.0),
     (AngleDegenerate, "v", "v must be positive; E and S coincide otherwise")),
    (aberration_scene, (0.5, 0.0, 1.0), (AdmissibilityError, "p_s", "p_s must be positive")),
    (aberration_sweep, (0.5, 0.5, 1),
     (DimensionError, "n_samples", "n_samples must be at least 2")),
    (aberration_sweep, (0.5, 0.5, 2.5), (DimensionError, "n_samples", "n_samples must be whole")),
    (aberration_sweep, (0.5, 0.5, 1j),
     (AdmissibilityError, "n_samples", "n_samples is not real-valued: complex components")),
    (Particle, (-1.0, [0.1, 0.0, 0.0]),
     (AdmissibilityError, "particle mass", "particle mass must be positive and finite")),
    (gamma, (0.5,), (DimensionError, "v", "v must have at least one component")),
    (einstein_add, ([1j, 0, 0], [0.1, 0, 0]),
     (AdmissibilityError, "u", "u is not real-valued: complex components")),
    # A batch passed as one scalar argument carries that argument's name.
    (aberration_sweep, (0.5, 0.5, [2, 3]),
     (DimensionError, "n_samples", "n_samples is a batch, not a scalar")),
    (lambda c: parse_particles("1,0.1,0,0", c_value=c), ([1.0, 2.0],),
     (DimensionError, "c_value", "c_value is a batch, not a scalar")),
    # Each of several single reals is coerced, and named, on its own.
    (triangle_from_sides, (0.5, [0.5, 0.5], 0.5),
     (DimensionError, "side_b", "side_b is a batch, not a scalar")),
    (triangle_from_sides, (1j, 0.5, 0.5),
     (AdmissibilityError, "side_a", "side_a is not real-valued: complex components")),
])
def test_error_about_one_argument_carries_its_name(op, args, want):
    with pytest.raises(GyrokinError) as info:
        op(*args)
    assert (type(info.value), info.value.name, str(info.value)) == want


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
    for check in (as_velocity, gyrate_w):
        assert check(np.zeros((0, 3))).shape == (0, 3)


# A checked boundary of three single reals whose kernel returns the floats it gets.
single_reals = _operation(lambda *floats: list(floats), ("x", "y", "z"), _SINGLE_REAL)


@pytest.mark.parametrize("values", [(-0.0, 0.0, 1.0), (math.nan, -math.inf, math.inf),
                                    (5e-324, -5e-324, 1.7976931348623157e308)])
def test_python_floats_are_taken_as_they_are(values):
    """The route of Python floats returns what coercion through numpy returns, bit for bit."""
    got = single_reals(*values)
    via_numpy = single_reals(np.float64(values[0]), *values[1:])
    assert type(got) is list and [type(x) for x in got] == [float] * 3
    assert np.array(got).tobytes() == np.array(via_numpy).tobytes()


def test_other_scalars_are_coerced():
    """np.float64 and int go through numpy, which returns Python floats."""
    got = single_reals(np.float64(-0.0), 2, True)
    assert [type(x) for x in got] == [float] * 3
    assert np.array(got).tobytes() == np.array([-0.0, 2.0, 1.0]).tobytes()
    with pytest.raises(DimensionError, match="^y is a batch"):
        single_reals(0.5, [0.5, 0.5], 0.5)
    with pytest.raises(DimensionError, match="^z is a batch"):  # ragged
        single_reals(0.5, 0.5, [[0.5], [0.5, 0.6]])
    with pytest.raises(AdmissibilityError, match="^y is not real-valued"):
        single_reals(0.5, 1j, 0.5)


TRIANGLE = triangle_from_vertices([0.1, 0.2], [-0.3, 0.1], [0.2, -0.4])
SYSTEM = ParticleSystem((Particle(1.0, [0.5, 0.0]), Particle(2.0, [-0.1, 0.3])))
RECORDS = {
    "triangle_from_vertices": TRIANGLE,
    "triangle_from_sides": triangle_from_sides(TRIANGLE.side_a, TRIANGLE.side_b,
                                               TRIANGLE.side_c),
    "triangle_from_angles": triangle_from_angles(TRIANGLE.alpha, TRIANGLE.beta,
                                                 TRIANGLE.gamma),
    "aberration_scene": aberration_scene(0.5, 0.6, 1.0),
    "decompose": decompose(SYSTEM),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_the_dataclass_its_init_makes(name):
    """A record set in one step has every field, as __init__ would set them."""
    record = RECORDS[name]
    cls = type(record)
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
    assert vars(record).keys() == fields.keys()
    made = cls(**fields)
    assert repr(made) == repr(record) == repr(_record(cls, **fields))
    first = dataclasses.fields(cls)[0].name
    assert repr(dataclasses.replace(record, **{first: 0.25})) == repr(
        dataclasses.replace(made, **{first: 0.25}))
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, 0.25)
    if cls is Gyrotriangle:
        assert record.defect == made.defect and record.q == made.q


# The velocity operations whose checked floats route (op.floats) the CLI
# calls on lists of floats, and gyrodistance's, which it replaces by the
# norm of left_sub's.
FLOAT_ROUTES = {op.__name__: op for op in [
    gamma, einstein_add, einstein_sub, left_sub, coadd, coadd_via_gyration, gyrodistance]}


def outcome(op, *args):
    """The shape and bytes of op(*args) as a float array, or the error it raises."""
    try:
        result = np.asarray(op(*args), dtype=float)
    except GyrokinError as exc:
        return type(exc), exc.args, exc.name, exc.row
    return result.shape, result.tobytes()


def route_points(n):
    """Seeded velocities of n components: anywhere in the ball, and at its edge.

    The edge points have norms from MAX_NORM down to 2.5e-15 below it, in
    steps of about half an ulp of 1; rounding leaves some of them outside.
    """
    rng = np.random.default_rng(n)
    inside = ball_points(rng, 24, n, max_norm=MAX_NORM)
    unit = ball_points(rng, 24, n, max_norm=1.0, min_norm=1.0)
    return [*inside, *(d * (MAX_NORM - k * 1.1e-16) for k, d in enumerate(unit))]


def operand_lists(op, n):
    """Seeded operand tuples of ``op``'s arity with n components each."""
    points = route_points(n)
    if op is gamma:
        return [(p,) for p in points]
    return list(zip(points, points[1:] + points[:1]))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("name", FLOAT_ROUTES)
def test_floats_route_has_the_bits_of_the_library(name, n):
    op = FLOAT_ROUTES[name]
    outcomes = set()
    for operands in operand_lists(op, n):
        lists = [p.tolist() for p in operands]
        want = outcome(op, *operands)
        assert outcome(op.floats, *lists) == want, operands
        outcomes.add(type(want[0]))
    assert tuple in outcomes  # some results, and not only errors


def bad_operands(op, n):
    """Operands that fail: each kind of bad vector in each place, and two at once."""
    good = route_points(n)[3].tolist()
    bad = [[math.nan] + good[1:], [-math.inf] + good[1:], [1.5] + [0.0] * (n - 1),
           [1.0] + [0.0] * (n - 1), [MAX_NORM * 1.0000000000001] + [0.0] * (n - 1)]
    if op is gamma:
        return [(b,) for b in bad]
    return [*((b, good) for b in bad), *((good, b) for b in bad), (bad[0], bad[2]),
            (good, good + [0.1]), (good + [0.1], bad[0])]


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("name", FLOAT_ROUTES)
def test_floats_route_raises_as_the_library(name, n):
    op = FLOAT_ROUTES[name]
    for operands in bad_operands(op, n):
        want = outcome(op, *map(np.array, operands))
        assert isinstance(want[0], type) and issubclass(want[0], GyrokinError), operands
        assert outcome(op.floats, *operands) == want, operands


def test_floats_route_of_three_operands():
    """The route of three or more operands checks their lengths as same_shape does."""
    u, v = [0.1, 0.2, 0.0], [0.0, -0.3, 0.1]
    for w in ([0.5, -0.5, 2.0], [0.5, -0.5], [math.inf, 0.0, 0.0]):
        want = outcome(gyrate, *map(np.array, (u, v, w)))
        assert outcome(gyrate.floats, u, v, w) == want
    assert want[0] is AdmissibilityError
