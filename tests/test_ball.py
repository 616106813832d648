"""The validation layer: last-axis sums and the admissibility check."""

import copy
import dataclasses
import math
import pickle
import sys
import tracemalloc
import warnings
from types import MappingProxyType

import numpy as np
import pytest

import gyrokin
from gyrokin import (MAX_NORM, AberrationResult, AdmissibilityError, AngleDegenerate,
                     DimensionError, GyrokinError, Gyration, Gyrotriangle, MassDecomposition,
                     NonFinite, Particle, ParticleSystem, RightTriangleReport, RootedGyrovector,
                     aberration_scene, aberration_sweep, add_speeds, are_gyrocollinear,
                     classical_aberration, classical_aberration_inv, classical_matched_p_e, coadd,
                     coadd_via_gyration, decompose, einstein_add, einstein_sub, gamma,
                     gamma_of_speed, gamma_rel_minus_1, gyrate, gyrodistance, gyroline_point,
                     gyromidpoint, gyrovector_between, left_sub, metric_tensor, parse_particles,
                     relativistic_aberration,
                     relativistic_aberration_inv, relativistic_matched_p_e,
                     right_triangle_relations, scalar_mul, speed_of_gamma, stellar_aberration,
                     stellar_aberration_inv, triangle_area, triangle_from_angles,
                     triangle_from_sides, triangle_from_vertices)
from gyrokin.ball import (_IN_ORDER_TERMS, _SINGLE_REAL, _components, _deficit, _dot, _norm,
                          _norm_sq, _operation, _record, as_velocity)
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


def as_numpy(x):
    """A Python float as an np.float64; anything else as it is."""
    return np.float64(x) if type(x) is float else x


def test_dims_straddle_the_in_order_sum():
    assert min(DIMS) < _IN_ORDER_TERMS <= max(DIMS)


@pytest.mark.parametrize("n", DIMS)
class TestSumOrder:
    """The kernels' _dot and _norm_sq give the bits of np.sum(..., axis=-1), and _norm its root.

    They run on components (_components): one vector's Python floats,
    summed in numpy's order below _IN_ORDER_TERMS components, or a batch's
    columns.  numpy's summation order is its own, so this runs on every
    numpy of the CI matrix.
    """

    def check(self, u, v):
        want_dot, want_sq = np.sum(u * v, axis=-1), np.sum(u * u, axis=-1)
        assert same_bits(as_numpy(_dot(_components(u), _components(v))), want_dot)
        assert same_bits(as_numpy(_norm_sq(_components(u))), want_sq)
        assert same_bits(as_numpy(_norm(_components(u))), np.sqrt(want_sq))

    def test_one_vector(self, rng, n):
        u, v = spread(rng, (2, n))
        self.check(u, v)
        floats = float if n < _IN_ORDER_TERMS else np.float64
        assert type(_dot(u.tolist(), v.tolist())) is floats
        assert type(_norm_sq(u.tolist())) is floats

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


# Every call that makes a gamma factor of a velocity, or reads 1 - |v|^2,
# with the number of deficits it takes: one per velocity whose gamma it
# uses.  The velocity operations take one vector and a batch of two.
U, VS, W = [0.6, 0.0, 0.2], [[0.0, 0.5, 0.1], [-0.3, 0.4, 0.0]], [0.2, -0.1, 0.4]
DEFICIT_CALLS = {
    "gamma": (lambda: gamma(VS), 1),
    "einstein_add": (lambda: einstein_add(U, VS), 1),
    "gyrate": (lambda: gyrate(U, VS, W), 2),
    "coadd": (lambda: coadd(U, VS), 2),
    "gyromidpoint": (lambda: gyromidpoint(U, VS), 2),
    "gamma_rel_minus_1": (lambda: gamma_rel_minus_1(U, VS), 2),
    "Particle.gamma": (lambda: Particle(1.5, U).gamma, 1),
    "ParticleSystem.gammas": (lambda: SYSTEM.gammas, 1),
    "decompose": (lambda: decompose(SYSTEM), 2),  # the particles' gammas and gamma(v0)
    "metric_tensor": (lambda: metric_tensor(U), 1),
}


@pytest.mark.parametrize("name", DEFICIT_CALLS)
def test_every_gamma_reaches_the_one_deficit(monkeypatch, name):
    """1 - |v|^2 comes from ball._deficit, given a velocity's components and their |v|^2."""
    calls = []

    def counted(v, n2):
        assert same_bits(_norm_sq(v), n2)
        calls.append(n2)
        return _deficit(v, n2)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("gyrokin") and getattr(module, "_deficit", None) is _deficit:
            monkeypatch.setattr(module, "_deficit", counted)
    call, count = DEFICIT_CALLS[name]
    call()
    assert len(calls) == count


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


# One object, as the library makes it, of each frozen class that holds arrays.
FROZEN = {
    "Particle": Particle(1.5, [0.1, -0.0, 0.3]),
    "ParticleSystem": ParticleSystem(SYSTEM.particles, frame="lab"),
    "Gyration": Gyration([0.6, 0.0, -0.0], [0.0, 0.6, 0.1]),
    "RootedGyrovector": gyrovector_between([0.1, 0.2], [-0.3, -0.0]),
    "RootedGyrovector batch": gyrovector_between([[0.1, 0.2], [0.0, -0.0]], [-0.3, 0.1]),
    "Gyrotriangle": TRIANGLE,
    "MassDecomposition": decompose(SYSTEM),
}
COPIES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}


def arrays(obj) -> dict:
    """The ndarray fields of ``obj`` by name, and the arrays of a tuple field as name[i]."""
    found = {}
    for name, value in vars(obj).items():
        if type(value) is tuple:
            found.update((f"{name}[{i}]", a) for i, a in enumerate(value)
                         if isinstance(a, np.ndarray))
        elif isinstance(value, np.ndarray):
            found[name] = value
    return found


@pytest.mark.parametrize("name", FROZEN)
def test_objects_hand_out_read_only_arrays(name):
    """Every array an object holds is read-only as made, decompose's v0 and momentum too."""
    held = arrays(FROZEN[name])
    assert held and [key for key, a in held.items() if a.flags.writeable] == []


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", FROZEN)
def test_copies_hold_read_only_arrays_with_the_original_bits(name, how):
    """A pickled, copied or deep-copied object keeps its repr, its bits and read-only arrays."""
    original = FROZEN[name]
    copied = COPIES[how](original)
    assert type(copied) is type(original) and copied is not original
    assert repr(copied) == repr(original) and vars(copied).keys() == vars(original).keys()
    want, got = arrays(original), arrays(copied)
    assert got.keys() == want.keys()
    for key, a in got.items():
        assert same_bits(a, want[key]) and not a.flags.writeable, key
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.5


# Each public frozen class: its public constructor called on the caller's
# values ``a`` (caller_values), and dataclasses.replace of an object given
# some of them.  A ParticleSystem's constructor takes particles, and
# dataclasses.replace cannot call it; parse_particles, its one door for
# arrays, takes text.
replace = dataclasses.replace
SOLVED = [getattr(TRIANGLE, f.name) for f in dataclasses.fields(Gyrotriangle)][:-1]
PUBLIC = {
    "Particle": (lambda a: Particle(1.5, a[0]), lambda p, a: replace(p, velocity=a[1])),
    "ParticleSystem": (lambda a: ParticleSystem([Particle(1.0, a[0]), Particle(2.0, a[1])]),
                       None),
    "parse_particles": (lambda a: parse_particles("1.0,0.1,0.2\n2.0,-0.3,0.0\n"), None),
    "Gyration": (lambda a: Gyration(a[0], a[1]), lambda g, a: replace(g, u=a[2])),
    "RootedGyrovector": (lambda a: RootedGyrovector(a[0], a[1], a[2]),
                         lambda r, a: replace(r, tail=a[0], value=a[1])),
    "Gyrotriangle": (lambda a: Gyrotriangle(*SOLVED, tuple(a[:3])),
                     lambda t, a: replace(t, vertices=tuple(a[:3]))),
    "MassDecomposition": (lambda a: MassDecomposition(1.0, a[0], 1.0, 0.0, 1.0, 1.0, a[1], 0.0),
                          lambda d, a: replace(d, v0=a[2], momentum=a[0])),
    "RightTriangleReport": (lambda a: RightTriangleReport(1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, a[3]),
                            lambda r, a: replace(r, residuals=a[3])),
    "AberrationResult": (lambda a: AberrationResult(0.5, 0.6, 0.7, 1.0, 1.1),
                         lambda r, a: replace(r, v=0.25)),
}


def caller_values():
    """Three writeable arrays and a dict, all the caller's."""
    return [np.array([0.1, -0.2]), np.array([0.0, 0.3]), np.array([-0.4, 0.0]), {"a": 1e-16}]


def test_every_public_frozen_class_is_built():
    public = [getattr(gyrokin, name) for name in gyrokin.__all__]
    frozen = {cls.__name__ for cls in public
              if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen}
    assert frozen == PUBLIC.keys() - {"parse_particles"}


def shown_through(obj, given) -> list:
    """The fields of ``obj`` through which a write to the caller's ``given`` could show.

    Each array field, and each array of a tuple field, must be read-only and
    share no memory with the caller's arrays; a mapping must not be a dict.
    """
    faults = []
    for name, value in vars(obj).items():
        for i, a in enumerate(value if type(value) is tuple else (value,)):
            if isinstance(a, dict) or isinstance(a, np.ndarray) and (
                    a.flags.writeable or any(np.shares_memory(a, g) for g in given[:3])):
                faults.append(f"{name}[{i}]" if type(value) is tuple else name)
    return faults


@pytest.mark.parametrize("name, route", [(name, route) for name in PUBLIC
                                         for route in ("constructor", "replace")
                                         if route == "constructor" or PUBLIC[name][1]])
def test_public_constructors_hold_read_only_copies(name, route):
    """A public constructor call, and dataclasses.replace, hold read-only copies.

    A later write to the caller's arrays or dict leaves the object as it was made.
    """
    build, rebuild = PUBLIC[name]
    given = caller_values()
    obj = build(given)
    if route == "replace":
        given = caller_values()
        obj = rebuild(obj, given)
    before = repr(obj)
    assert shown_through(obj, given) == []
    for a in given[:3]:
        a[0] = 0.5
    given[3]["a"] = 1.0
    assert repr(obj) == before
    for value in vars(obj).values():
        if isinstance(value, MappingProxyType):
            with pytest.raises(TypeError):
                value["a"] = 1.0


def test_report_residuals_are_read_only():
    report = right_triangle_relations(triangle_from_vertices([0.5, 0.0], [0.0, 0.4], [0.0, 0.0]))
    worst = report.max_residual
    assert type(report.residuals) is MappingProxyType and worst < 1e-15
    with pytest.raises(TypeError):
        report.residuals["hypotenuse_gamma_product"] = 1.0
    assert report.max_residual == worst


@pytest.mark.parametrize("how", COPIES)
def test_report_copies_compare_equal(how):
    """pickle and copy carry the residuals as a dict and wrap them again."""
    report = right_triangle_relations(triangle_from_vertices([0.5, 0.0], [0.0, 0.4], [0.0, 0.0]))
    copied = COPIES[how](report)
    assert copied == report and copied is not report
    assert type(copied.residuals) is MappingProxyType and repr(copied) == repr(report)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", [name for name in PUBLIC if name != "parse_particles"])
def test_objects_and_their_copies_hash(name, how):
    """Every public frozen object hashes.

    A copy of one that compares by value (a RightTriangleReport, whose hash
    leaves its residuals out) equals it and hashes as it does; the others
    compare and hash by identity.
    """
    obj = PUBLIC[name][0](caller_values())
    copied = COPIES[how](obj)
    if type(obj).__dataclass_params__.eq:
        assert copied == obj and hash(copied) == hash(obj)
    else:
        assert copied != obj and hash(obj) == object.__hash__(obj)


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
