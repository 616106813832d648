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


class TestSceneValidation:
    def test_zero_relative_speed_rejected(self):
        with pytest.raises(AngleDegenerate):
            aberration_scene(0.0, 0.5, 1.0)

    def test_offset_properties(self):
        scene = aberration_scene(0.6, 0.9, 1.2)
        assert scene.offset == scene.theta_s - scene.theta_e
        assert scene.offset_arcsec == scene.offset * ARCSEC_PER_RAD
