"""Aberration formulas, their inverses, and the geometric cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrokin import (
    ARCSEC_PER_RAD,
    AdmissibilityError,
    AngleDegenerate,
    DimensionError,
    GyrokinError,
    aberration_scene,
    aberration_sweep,
    classical_aberration,
    classical_aberration_inv,
    classical_matched_p_e,
    gamma_of_speed,
    relativistic_aberration,
    relativistic_aberration_inv,
    relativistic_matched_p_e,
    stellar_aberration,
    stellar_aberration_inv,
)
from gyrokin.aberration import _check_angle
from gyrokin.ball import _real_value
from gyrokin.gyro import _gamma_of_speed
from helpers import broadcast_error, coercion_error, same_bits

SI_C = 299792458.0


class TestClassical:
    def test_no_relative_motion(self):
        for theta in (0.3, 1.0, math.pi / 2.0, 2.8):
            assert float(classical_aberration(theta, 0.0, 1.0)) == pytest.approx(
                theta, abs=1e-13
            )

    def test_right_angle_fixture(self):
        # cot(theta_e) = 0.6 for theta_s = pi/2, v = 0.6, p_s = 1
        out = float(classical_aberration(math.pi / 2.0, 0.6, 1.0))
        assert out == pytest.approx(math.atan2(1.0, 0.6), abs=1e-15)
        assert out == pytest.approx(1.030377, abs=5e-7)
        assert math.degrees(out) == pytest.approx(59.0362, abs=5e-4)

    def test_roundtrip_with_law_of_sines(self, rng):
        for _ in range(300):
            theta_s = rng.uniform(0.05, math.pi - 0.05)
            v = rng.uniform(0.0, 0.9)
            p_s = rng.uniform(0.1, 1.0)
            theta_e = float(classical_aberration(theta_s, v, p_s))
            p_e = float(classical_matched_p_e(theta_s, theta_e, p_s))
            back = float(classical_aberration_inv(theta_e, v, p_e))
            assert abs(back - theta_s) < 1e-12

    def test_degenerate_angle(self):
        with pytest.raises(AngleDegenerate):
            classical_aberration(0.0, 0.5, 1.0)
        with pytest.raises(AngleDegenerate):
            classical_aberration(math.pi, 0.5, 1.0)

    def test_infinite_particle_speed(self):
        with pytest.raises(AdmissibilityError):
            classical_aberration(0.5, 0.1, math.inf)
        with pytest.raises(AdmissibilityError):
            classical_aberration_inv(0.5, 0.1, math.inf)


class TestMatchedSpeed:
    @pytest.mark.parametrize("matched",
                             [classical_matched_p_e, relativistic_matched_p_e])
    @pytest.mark.parametrize("theta_s, theta_e",
                             [(0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.pi)])
    def test_degenerate_angles_rejected(self, matched, theta_s, theta_e):
        with pytest.raises(AngleDegenerate):
            matched(theta_s, theta_e, 0.5)

    @pytest.mark.parametrize("p_s", [0.0, -1.0, math.inf, math.nan])
    def test_classical_particle_speed_checked(self, p_s):
        with pytest.raises(AdmissibilityError):
            classical_matched_p_e(1.0, 1.2, p_s)


class TestRelativistic:
    def test_no_relative_motion(self):
        for theta in (0.3, 1.5, 2.8):
            assert float(relativistic_aberration(theta, 0.0, 0.7)) == pytest.approx(
                theta, abs=1e-13
            )

    def test_newtonian_limit(self):
        # residual against the classical formula is second order in speed
        theta_s = 1.1
        residuals = []
        for lam in (1e-2, 1e-3, 1e-4):
            rel = float(relativistic_aberration(theta_s, 0.5 * lam, 0.8 * lam))
            cla = float(classical_aberration(theta_s, 0.5 * lam, 0.8 * lam))
            residuals.append(abs(rel - cla))
        assert residuals[0] < 1e-4
        for big, small in zip(residuals, residuals[1:]):
            assert 30.0 < big / small < 300.0

    def test_equals_stellar_at_light_speed(self, rng):
        theta = rng.uniform(0.05, math.pi - 0.05, size=50)
        v = rng.uniform(0.0, 0.95, size=50)
        assert np.array_equal(
            relativistic_aberration(theta, v, 1.0), stellar_aberration(theta, v)
        )
        assert np.array_equal(
            relativistic_aberration_inv(theta, v, 1.0),
            stellar_aberration_inv(theta, v),
        )

    def test_geometric_scene_matches_formula(self, rng):
        worst = 0.0
        for _ in range(500):
            v = rng.uniform(0.02, 0.95)
            p_s = rng.uniform(0.02, 0.95)
            theta_s = rng.uniform(0.05, math.pi - 0.05)
            scene = aberration_scene(v, p_s, theta_s)
            formula = float(relativistic_aberration(theta_s, v, p_s))
            worst = max(worst, abs(scene.theta_e - formula))
        assert worst < 1e-10

    def test_scene_speed_obeys_law_of_gyrosines(self, rng):
        for _ in range(200):
            v = rng.uniform(0.05, 0.9)
            p_s = rng.uniform(0.05, 0.9)
            theta_s = rng.uniform(0.1, math.pi - 0.1)
            scene = aberration_scene(v, p_s, theta_s)
            lhs = float(gamma_of_speed(scene.p_s)) * scene.p_s / math.sin(scene.theta_e)
            rhs = float(gamma_of_speed(scene.p_e)) * scene.p_e / math.sin(scene.theta_s)
            assert abs(lhs - rhs) / rhs < 1e-10

    def test_roundtrip_with_law_of_gyrosines(self, rng):
        for _ in range(300):
            theta_s = rng.uniform(0.05, math.pi - 0.05)
            v = rng.uniform(0.0, 0.9)
            p_s = rng.uniform(0.1, 0.95)
            theta_e = float(relativistic_aberration(theta_s, v, p_s))
            p_e = float(relativistic_matched_p_e(theta_s, theta_e, p_s))
            back = float(relativistic_aberration_inv(theta_e, v, p_e))
            assert abs(back - theta_s) < 1e-12

    def test_rejects_superluminal(self):
        with pytest.raises(AdmissibilityError):
            relativistic_aberration(1.0, 1.0, 0.5)
        with pytest.raises(AdmissibilityError):
            relativistic_aberration(1.0, 0.5, 1.2)


def test_speeds_checked_once(monkeypatch):
    """The relativistic formulas range-check each speed once, not in gyro again.

    Each formula coerces its own three arguments once, and none passes a
    speed to gamma_of_speed, which coerces it under the name "speed".
    """
    calls = []

    def counting(value, name):
        calls.append(name)
        return _real_value(value, name)

    monkeypatch.setattr("gyrokin.ball._real_value", counting)
    v = np.linspace(0.0, 0.99, 7)
    theta = np.linspace(0.1, 3.0, 7)
    relativistic_aberration(theta, v, 0.9)
    relativistic_aberration_inv(theta, v, 0.9)
    stellar_aberration(theta, v)
    relativistic_matched_p_e(theta, theta[::-1], v)
    assert calls == ["theta_s", "v", "p_s", "theta_e", "v", "p_e", "theta_s", "v", "p_s",
                     "theta_s", "theta_e", "p_s"]
    calls.clear()
    assert float(gamma_of_speed(0.6)) == 1.25 and calls == ["speed"]


# Every aberration formula runs in row blocks: each with the names of its
# three arguments, and whether it evaluates a gamma factor (_gamma_of_speed)
# once per block.  The stellar pair takes no p and ignores the third.
FORMULAS = {
    "relativistic_aberration": (relativistic_aberration, ("theta_s", "v", "p_s"), True),
    "relativistic_aberration_inv": (relativistic_aberration_inv, ("theta_e", "v", "p_e"),
                                    True),
    "stellar_aberration": (lambda theta, v, p: stellar_aberration(theta, v),
                           ("theta_s", "v", "p_s"), True),
    "stellar_aberration_inv": (lambda theta, v, p: stellar_aberration_inv(theta, v),
                               ("theta_e", "v", "p_e"), True),
    "classical_aberration": (classical_aberration, ("theta_s", "v", "p_s"), False),
    "classical_aberration_inv": (classical_aberration_inv, ("theta_e", "v", "p_e"), False),
    "classical_matched_p_e": (classical_matched_p_e, ("theta_s", "theta_e", "p_s"), False),
    "relativistic_matched_p_e": (relativistic_matched_p_e, ("theta_s", "theta_e", "p_s"),
                                 True),
}

# The bad values of test_bad_last_row that a formula admits: (formula,
# argument, value).  The classical formulas take a light-speed frame and any
# positive particle speed, the matched ones any theta_e in (0, pi), and
# relativistic_matched_p_e a particle at rest.  The stellar pair admits
# every third argument, which it ignores.
ADMISSIBLE = {
    ("classical_aberration", 1, 1.0), ("classical_aberration_inv", 1, 1.0),
    ("classical_aberration", 2, 1.5), ("classical_aberration_inv", 2, 1.5),
    ("classical_matched_p_e", 2, 1.5),
    ("classical_matched_p_e", 1, 1.0), ("relativistic_matched_p_e", 1, 1.0),
    ("relativistic_matched_p_e", 2, 0.0),
}

# Around one block of 8192 rows, and several blocks with a remainder.
LENGTHS = [8191, 8192, 8193, 20000]

# The range an argument is drawn from, by its first letter: an angle, the
# frames' speed v, a particle speed.
RANGES = {"t": (0.01, math.pi - 0.01), "v": (0.0, 0.99), "p": (0.01, 1.0)}


def one_call(monkeypatch, op, *args):
    """op(*args) with no row blocks."""
    with monkeypatch.context() as m:
        m.setattr("gyrokin.ball._BLOCK", 10 ** 9)
        return op(*args)


def failure(op, *args):
    """The class and message op(*args) raises, or None."""
    try:
        op(*args)
    except (GyrokinError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def at_row(error, row):
    """The class and message of a single value's ``error`` raised by ``row`` of a batch."""
    return error and (error[0], error[1].replace(" ", f" row {row} ", 1))


def scenario(rng, names, k):
    """Admissible arguments labelled ``names``, k rows each."""
    return tuple(rng.uniform(*RANGES[name[0]], k) for name in names)


def count_blocks(monkeypatch, name):
    """A list of the lengths of the blocks in which argument ``name`` is checked.

    Every formula checks its first angle first in each block.
    """
    rows = []

    def check(theta, n):
        if n == name:
            rows.append(len(theta))
        return _check_angle(theta, n)

    monkeypatch.setattr("gyrokin.aberration._check_angle", check)
    return rows


def count_gammas(monkeypatch):
    """A list of the lengths of the speeds whose gamma factor is evaluated."""
    rows = []
    monkeypatch.setattr("gyrokin.aberration._gamma_of_speed",
                        lambda s: rows.append(len(s)) or _gamma_of_speed(s))
    return rows


@pytest.mark.parametrize("name", FORMULAS)
class TestRowBlocks:
    """Long batches run in row blocks with the checks inside; one call's bits and errors."""

    @pytest.mark.parametrize("k", LENGTHS)
    def test_blocks_give_the_bits_of_one_call(self, rng, monkeypatch, name, k):
        op, names, _ = FORMULAS[name]
        a, b, c = scenario(rng, names, k)
        for args in [(a, b, c), (a, 0.6, c), (a[:, None], b[:3], c[:3]), (1.2, b, 0.7)]:
            assert same_bits(op(*args), one_call(monkeypatch, op, *args))

    @pytest.mark.parametrize("k", LENGTHS)
    def test_each_block_evaluated_once(self, rng, monkeypatch, name, k):
        # Counted by the gamma factor a formula evaluates, or else by the
        # first check of each block.
        op, names, gamma = FORMULAS[name]
        rows = count_gammas(monkeypatch) if gamma else count_blocks(monkeypatch, names[0])
        op(*scenario(rng, names, k))
        assert rows == [min(8192, k - lo) for lo in range(0, k, 8192)]

    @pytest.mark.parametrize("k", LENGTHS)
    @pytest.mark.parametrize("arg, value", [(0, 0.0), (0, np.nan), (1, 1.0), (1, -0.1),
                                            (1, np.inf), (2, 0.0), (2, 1.5)])
    def test_bad_last_row(self, rng, monkeypatch, name, k, arg, value):
        # Every bad value fails but those in ADMISSIBLE, in the batch as in
        # its last row called alone.
        op, names, _ = FORMULAS[name]
        args = scenario(rng, names, k)
        args[arg][-1] = value
        want = one_call(monkeypatch, failure, op, *args)
        alone = failure(op, *(a[-1] for a in args))
        if (name, arg, value) in ADMISSIBLE or (name.startswith("stellar") and arg == 2):
            assert want is None and alone is None
        else:
            assert want is not None and want[0] is alone[0] is not ValueError
        assert failure(op, *args) == want

    @pytest.mark.parametrize("k", LENGTHS)
    @pytest.mark.parametrize("arg, value", [(0, 0.0), (1, 1.0), (2, 1.5)])
    def test_failing_call_evaluates_each_block_once(self, rng, monkeypatch, name, k, arg,
                                                    value):
        # Counted by the first check of each block; no block runs again after
        # the last one raised.
        op, names, _ = FORMULAS[name]
        rows = count_blocks(monkeypatch, names[0])
        args = scenario(rng, names, k)
        args[arg][-1] = value
        failure(op, *args)
        assert rows == [min(8192, k - lo) for lo in range(0, k, 8192)]

    @pytest.mark.parametrize("k", LENGTHS)
    @pytest.mark.parametrize("arg, value", [(0, 0.0), (1, 1.0), (1, -0.1)])
    def test_error_names_its_row_in_the_whole_batch(self, rng, monkeypatch, name, k, arg,
                                                    value):
        # The same row with and without row blocks, on both sides of a block
        # edge, and the row's own error, which only the values in ADMISSIBLE
        # do not raise.
        op, names, _ = FORMULAS[name]
        for row in sorted({0, 8191, 8192, k - 1} & set(range(k))):
            args = scenario(rng, names, k)
            args[arg][row] = value
            want = at_row(failure(op, *(a[row] for a in args)), row)
            assert (want is None) == ((name, arg, value) in ADMISSIBLE)
            if arg == 0:
                assert want == (AngleDegenerate, f"{names[0]} row {row} must lie strictly "
                                                 f"between 0 and pi")
            assert failure(op, *args) == one_call(monkeypatch, failure, op, *args) == want

    def test_first_argument_checked_first(self, rng, monkeypatch, name):
        # Inside a block the arguments are checked in order; across blocks
        # the first failing block raises.  Each error names its row.
        op, names, _ = FORMULAS[name]
        angle = (AngleDegenerate, f"{names[0]} row 19999 must lie strictly between 0 and pi")
        theta, b, c = scenario(rng, names, 20000)
        theta[-1], b[-1] = math.pi, -0.1
        assert failure(op, theta, b, c) == one_call(monkeypatch, failure, op, theta, b, c) == angle
        b[-1], b[0] = b[1], -0.1
        second = at_row(failure(op, theta[0], b[0], c[0]), 0)
        assert second[1].startswith(f"{names[1]} row 0 must lie")
        assert one_call(monkeypatch, failure, op, theta, b, c) == angle
        assert failure(op, theta, b, c) == second

    def test_mismatched_shapes_fail_as_one_call(self, rng, monkeypatch, name):
        op, names, _ = FORMULAS[name]
        a, b, c = scenario(rng, names, 20000)
        ragged = [[0.5], [0.6, 0.7]]
        for args, want in [
                ((a, b[:-1], c),
                 (DimensionError, f"{', '.join(names)}: {broadcast_error(a, b[:-1])}")),
                ((a, [0.1j], c),
                 (AdmissibilityError, f"{names[1]} is not real-valued: complex components")),
                ((ragged, b, c), (AdmissibilityError, f"{names[0]} is not real-valued: "
                                                      f"{coercion_error(ragged)}"))]:
            assert one_call(monkeypatch, failure, op, *args) == want
            assert failure(op, *args) == want


class TestStellar:
    def test_right_angle_fixture(self):
        # cot(theta_e) = 1.25 * 0.6 = 0.75 at theta_s = pi/2, v = 0.6
        out = float(stellar_aberration(math.pi / 2.0, 0.6))
        assert out == pytest.approx(math.atan2(4.0, 3.0), abs=1e-15)
        assert math.degrees(out) == pytest.approx(53.1301, abs=5e-5)

    def test_annual_aberration_magnitude(self):
        # Earth orbital speed 29.79 km/s: the classic ~20.5 arcsecond shift
        beta = 29.79e3 / SI_C
        theta_e = float(stellar_aberration(math.pi / 2.0, beta))
        offset_arcsec = (math.pi / 2.0 - theta_e) * ARCSEC_PER_RAD
        assert offset_arcsec == pytest.approx(20.4958, abs=0.01)

    def test_orbital_aberration_magnitude(self):
        # satellite orbital speed fixture (back-derived from the published
        # arcsecond figure, kept as a pinned regression value)
        beta = 7537.8 / SI_C
        theta_e = float(stellar_aberration(math.pi / 2.0, beta))
        offset_arcsec = (math.pi / 2.0 - theta_e) * ARCSEC_PER_RAD
        assert offset_arcsec == pytest.approx(5.1856, abs=0.005)

    def test_inverse_roundtrip(self, rng):
        for _ in range(200):
            theta_s = rng.uniform(0.05, math.pi - 0.05)
            v = rng.uniform(0.0, 0.95)
            theta_e = float(stellar_aberration(theta_s, v))
            assert abs(float(stellar_aberration_inv(theta_e, v)) - theta_s) < 1e-12

    @given(
        theta=st.floats(0.05, math.pi - 0.05, allow_nan=False),
        v=st.floats(0.0, 0.95, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_forward_shift_nonnegative(self, theta, v):
        # the apparent direction tilts toward the motion: theta_e <= theta_s
        assert float(stellar_aberration(theta, v)) <= theta + 1e-12


class TestSweep:
    def test_zero_speed_identity_column(self):
        table = aberration_sweep(0.0, 1.0, 17)
        assert np.allclose(table["theta_e_classical"], table["theta_s"], atol=1e-13)
        assert np.allclose(table["theta_e_relativistic"], table["theta_s"], atol=1e-13)
        assert np.allclose(table["offset_arcsec"], 0.0, atol=1e-8)

    def test_rows_reproducible(self):
        table = aberration_sweep(0.6, 1.0, 11)
        for row in table:
            assert row["theta_e_relativistic"] == float(
                stellar_aberration(row["theta_s"], 0.6)
            )
            assert row["theta_e_classical"] == float(
                classical_aberration(row["theta_s"], 0.6, 1.0)
            )

    def test_monotone_and_endpoints(self):
        table = aberration_sweep(0.4, 0.9, 400)
        te = table["theta_e_relativistic"]
        assert np.all(np.diff(te) > 0.0)
        assert te[0] < 0.05
        assert te[-1] > math.pi - 0.05

    def test_offset_maximized_near_right_angle(self):
        table = aberration_sweep(0.3, 1.0, 999)
        offsets = table["theta_s"] - table["theta_e_relativistic"]
        peak = table["theta_s"][np.argmax(offsets)]
        # the max shift for photons sits between pi/2 and pi/2 + asin(v)
        assert math.pi / 2.0 - 0.3 < peak < math.pi / 2.0 + 0.6
        assert offsets[0] < offsets.max() / 10.0
        assert offsets[-1] < offsets.max() / 10.0

    def test_gamma_factor_links_the_two_columns(self):
        # cot(theta_e_rel) = gamma_v * cot(theta_e_classical), row by row
        v, p = 0.7, 0.8
        gv = float(gamma_of_speed(v))
        table = aberration_sweep(v, p, 25)
        cot_rel = 1.0 / np.tan(table["theta_e_relativistic"])
        cot_cla = 1.0 / np.tan(table["theta_e_classical"])
        assert np.max(np.abs(cot_rel - gv * cot_cla)) < 1e-10

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            aberration_sweep(0.5, 1.0, 1)

    @pytest.mark.parametrize("n", [10 ** 16, 10 ** 20])
    def test_count_too_large_for_memory_names_it(self, n):
        # Both counts fail at allocation and touch no memory: 1e16 rows of
        # floats need 71 PiB, and 1e20 is past the largest size numpy allows.
        with pytest.raises(DimensionError) as info:
            aberration_sweep(0.5, 0.5, n)
        assert info.value.name == "n_samples" and info.value.row is None
        assert str(info.value).startswith("n_samples is too large to tabulate: ")


class TestSceneValidation:
    def test_zero_relative_speed_rejected(self):
        with pytest.raises(AngleDegenerate):
            aberration_scene(0.0, 0.5, 1.0)

    @pytest.mark.parametrize("args, error", [
        ((1.0 - 1e-13, 0.5, 1.0), (AdmissibilityError, "v has norm 0.99999999999989997")),
        ((0.5, 1.0 - 1e-13, 1.0), (AdmissibilityError, "p_s has norm 0.99999999999989997")),
        ((0.9999999, 0.9999999, 0.3),
         (AdmissibilityError, "v (+) p_s has norm 0.99999999999999489")),
        ((math.nan, 0.5, 1.0), (AdmissibilityError, "v has non-finite components")),
        ((0.5, math.inf, 1.0), (AdmissibilityError, "p_s has non-finite components")),
        ((0.5, 0.5, 0.0), (AngleDegenerate, "theta_s must lie strictly between 0 and pi")),
        ((0.5, -0.5, 1.0), (AdmissibilityError, "p_s must be positive")),
        ((-0.5, 0.5, 1.0), (AdmissibilityError, "v must lie in [0, 1)")),
    ], ids=["v", "p_s", "composition", "v-nan", "p_s-inf", "theta_s", "p_s-negative",
            "v-negative"])
    def test_each_velocity_named(self, args, error):
        # The ball check names v, p_s and their composition v (+) p_s.
        cls, start = error
        with pytest.raises(cls) as err:
            aberration_scene(*args)
        assert type(err.value) is cls and str(err.value).startswith(start)
        if "norm" in start:
            assert str(err.value).endswith(
                " outside the admissible ball (limit 0.99999999999949996)")

    def test_each_velocity_checked_once(self, validation_calls):
        aberration_scene(0.6, 0.9, 1.2)
        assert validation_calls == ["v", "p_s", "v (+) p_s"]

    def test_offset_properties(self):
        scene = aberration_scene(0.6, 0.9, 1.2)
        assert scene.offset == scene.theta_s - scene.theta_e
        assert scene.offset_arcsec == scene.offset * ARCSEC_PER_RAD
