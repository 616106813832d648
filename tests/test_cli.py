"""CLI golden tests: frozen output bytes, exit codes, units, file ingestion."""

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from gyrokin import einstein_add, gyrodistance, stellar_aberration
from gyrokin.cli import cli, main

BACK_TO_BACK = "# two particles\n1.0, 0.6, 0, 0\n1.0, -0.6, 0, 0\n"


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def result_lines(out):
    """Output lines with the residual-check lines split off."""
    lines = out.splitlines()
    values = [ln for ln in lines if not ln.startswith("check_")]
    checks = [ln for ln in lines if ln.startswith("check_")]
    return values, checks


def check_values(checks):
    return [float(ln.split(": ", 1)[1]) for ln in checks]


class TestGoldenOutputs:
    def test_add_canonical(self, capsys):
        rc, out, _ = run(capsys, "add", "--u", "0.6,0,0", "--v", "0,0.6,0")
        assert rc == 0
        values, checks = result_lines(out)
        assert values == [
            "result: 0.6,0.48,0",
            "norm: 0.768374908491942",
            "gamma: 1.5625",
        ]
        assert all(v < 1e-12 for v in check_values(checks))

    def test_add_identity(self, capsys):
        rc, out, _ = run(capsys, "add", "--u", "0,0,0", "--v", "0.3,0,0")
        assert rc == 0
        values, _ = result_lines(out)
        assert values == [
            "result: 0.3,0,0",
            "norm: 0.3",
            "gamma: 1.04828483672192",
        ]

    def test_scale_doubling(self, capsys):
        rc, out, _ = run(capsys, "scale", "--r", "2", "--v", "0.5,0,0")
        assert rc == 0
        values, _ = result_lines(out)
        assert values == [
            "result: 0.8,0,0",
            "norm: 0.8",
            "gamma: 1.66666666666667",
        ]

    def test_coadd(self, capsys):
        rc, out, _ = run(capsys, "coadd", "--u", "0.6,0,0", "--v", "0,0.6,0")
        assert rc == 0
        values, checks = result_lines(out)
        assert values[0] == "result: 0.508474576271186,0.508474576271186,0"
        assert check_values(checks) == [0.0, 0.0]

    def test_triangle_vertices_degrees(self, capsys):
        rc, out, _ = run(
            capsys, "triangle", "--mode", "vertices",
            "--a", "0.6,0", "--b", "0,0.6", "--c", "0,0", "--out", "deg",
        )
        assert rc == 0
        values, checks = result_lines(out)
        assert values == [
            "side_a: 0.6",
            "side_b: 0.6",
            "side_c: 0.768374908491942",
            "gamma_a: 1.25",
            "gamma_b: 1.25",
            "gamma_c: 1.5625",
            "alpha: 38.6598082540901",
            "beta: 38.6598082540901",
            "gamma: 90",
            "defect: 12.6803834918198",
            "angle_unit: deg",
            "right_triangle: yes",
        ]
        assert all(v < 1e-12 for v in check_values(checks))

    def test_stellar_annual_aberration(self, capsys):
        rc, out, _ = run(
            capsys, "aberration", "--model", "stellar", "--v", "29.79e3",
            "--units", "si", "--theta-s", "90", "--unit", "deg", "--out", "arcsec",
        )
        assert rc == 0
        values, _ = result_lines(out)
        assert "offset: 20.4962747535654" in values
        offset = float([v for v in values if v.startswith("offset_arcsec")][0]
                       .split(": ")[1])
        assert offset == pytest.approx(20.4958, abs=0.01)

    def test_stellar_zero_speed(self, capsys):
        rc, out, _ = run(
            capsys, "aberration", "--model", "stellar", "--v", "0c",
            "--theta-s", "1.1",
        )
        assert rc == 0
        values, _ = result_lines(out)
        assert "theta_s: 1.1" in values
        assert "theta_e: 1.1" in values
        assert "offset: 0" in values

    def test_stellar_point_six(self, capsys):
        rc, out, _ = run(
            capsys, "aberration", "--model", "stellar", "--v", "0.6c",
            "--theta-s", "90deg", "--out", "deg",
        )
        assert rc == 0
        values, _ = result_lines(out)
        assert "theta_e: 53.130102354156" in values

    def test_gyr_matrix_and_angle(self, capsys):
        rc, out, _ = run(
            capsys, "gyr", "--u", "0.6,0,0", "--v", "0,0.6,0",
            "--w", "0.1,0.2,0.3",
        )
        assert rc == 0
        values, checks = result_lines(out)
        assert values[0].startswith("result: 0.141463414634146,")
        assert "rotation_angle: 0.221314442347791" in values
        assert "matrix:" in values
        assert all(v < 1e-12 for v in check_values(checks))


class TestLibraryEquivalence:
    def test_add_matches_library_formatting(self, capsys):
        _, out, _ = run(capsys, "add", "--u", "0.37,0.11,0", "--v", "-0.2,0.5,0.1")
        values, _ = result_lines(out)
        w = einstein_add([0.37, 0.11, 0.0], [-0.2, 0.5, 0.1])
        expected = "result: " + ",".join(format(c, ".15g") for c in w)
        assert values[0] == expected

    def test_distance_matches_library(self, capsys):
        _, out, _ = run(capsys, "distance", "--a", "0.6,0,0", "--b", "0,0.6,0")
        values, _ = result_lines(out)
        d = float(gyrodistance([0.6, 0, 0], [0, 0.6, 0]))
        assert values[0] == "result: " + format(d, ".15g")

    def test_distance_gamma_past_the_ball(self, capsys):
        # (-a) (+) b leaves the admissible ball, so its gamma is n/a; the
        # distance itself is still reported.
        rc, out, err = run(capsys, "distance", "--a", "0.99999999999949,0",
                           "--b", "-0.99999999999949,0")
        assert rc == 0 and err == ""
        values, _ = result_lines(out)
        assert values == ["result: 1", "gamma: n/a"]


class TestExitCodes:
    def test_euclidean_angle_sum_exits_two(self, capsys):
        rc, _, err = run(
            capsys, "triangle", "--mode", "aaa", "--angles", "60,60,60",
            "--unit", "deg",
        )
        assert rc == 2
        assert "NoSuchTriangle" in err

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_overflowing_gyration_vector_exits_two(self, capsys, fmt):
        # Finite components, but |w|^2 overflows: no inf norm, no NaN check.
        rc, out, err = run(capsys, "gyr", "--u", "0.6,0,0", "--v", "0,0.6,0",
                           "--w", "1e300,0,0", "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == "error: AdmissibilityError: w has a squared norm that overflows\n"

    def test_parse_error_exits_one(self, capsys):
        rc, _, err = run(capsys, "add", "--u", "bogus", "--v", "0,0,0")
        assert rc == 1

    def test_admissibility_exits_two(self, capsys):
        rc, _, err = run(capsys, "add", "--u", "1.2,0,0", "--v", "0,0,0")
        assert rc == 2
        assert "AdmissibilityError" in err

    def test_dimension_mismatch_exits_two(self, capsys):
        rc, _, err = run(capsys, "add", "--u", "0.1,0", "--v", "0.1,0,0")
        assert rc == 2
        assert "DimensionError" in err

    def test_collinear_parallelogram_exits_two(self, capsys):
        rc, _, err = run(
            capsys, "parallelogram", "--a", "0,0", "--b", "0.1,0", "--c", "0.5,0"
        )
        assert rc == 2
        assert "CollinearPoints" in err

    def test_unknown_option_exits_one(self, capsys):
        rc, _, _ = run(capsys, "add", "--nope", "1")
        assert rc == 1

    def test_missing_file_exits_one(self, capsys, tmp_path):
        rc, _, err = run(capsys, "mass", "--in", str(tmp_path / "nope.csv"))
        assert rc == 1

    def test_malformed_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0, 0.1, 0\nwhat even is this\n")
        rc, _, err = run(capsys, "mass", "--in", str(bad))
        assert rc == 1
        assert "line 2" in err

    def test_inadmissible_particle_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "fast.csv"
        bad.write_text("1.0, 1.5, 0, 0\n")
        rc, _, err = run(capsys, "mass", "--in", str(bad))
        assert rc == 2

    def test_infinite_particle_speed_exits_two(self, capsys):
        rc, out, err = run(capsys, "aberration", "--model", "classical",
                           "--v", "0.1c", "--p-s", "inf", "--theta-s", "0.5")
        assert rc == 2
        assert out == ""
        assert "AdmissibilityError" in err

    def test_single_row_sweep_exits_two(self, capsys):
        rc, out, err = run(capsys, "aberration", "--model", "stellar",
                           "--v", "0.5c", "--sweep", "1")
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestMassCommand:
    def test_back_to_back_file(self, capsys, tmp_path):
        f = tmp_path / "pair.csv"
        f.write_text(BACK_TO_BACK)
        rc, out, _ = run(capsys, "mass", "--in", str(f))
        assert rc == 0
        values, _ = result_lines(out)
        assert "m_newton: 2" in values
        assert "m_dark: 1.5" in values
        assert "m0: 2.5" in values
        assert "v0: 0,0,0" in values
        assert "gamma0: 1" in values
        assert "energy: 2.5" in values

    def test_single_particle_echo(self, capsys, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("2.0, 0.6, 0, 0\n")
        rc, out, _ = run(capsys, "mass", "--in", str(f))
        assert rc == 0
        values, _ = result_lines(out)
        assert "m0: 2" in values
        assert "m_dark: 0" in values
        assert "v0: 0.6,0,0" in values
        assert "energy: 2.5" in values

    def test_rigid_system_zero_dark(self, capsys, tmp_path):
        f = tmp_path / "rigid.csv"
        f.write_text("1.0, 0.3, 0.2, 0\n2.0, 0.3, 0.2, 0\n0.5, 0.3, 0.2, 0\n")
        rc, out, _ = run(capsys, "mass", "--in", str(f))
        assert rc == 0
        values, _ = result_lines(out)
        assert "m_dark: 0" in values
        assert "m_newton: 3.5" in values
        assert "m0: 3.5" in values

    def test_json_file(self, capsys, tmp_path):
        f = tmp_path / "pair.json"
        f.write_text(json.dumps([
            {"mass": 1, "velocity": [0.6, 0, 0]},
            {"mass": 1, "velocity": [-0.6, 0, 0]},
        ]))
        rc, out, _ = run(capsys, "mass", "--in", str(f))
        assert rc == 0
        values, _ = result_lines(out)
        assert "m0: 2.5" in values

    def test_stdin(self, capsys, monkeypatch, tmp_path):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(BACK_TO_BACK))
        rc, out, _ = run(capsys, "mass", "--in", "-")
        assert rc == 0
        assert "m0: 2.5" in out

    def test_si_units_file(self, capsys, tmp_path):
        f = tmp_path / "si.csv"
        f.write_text("1.0, 179875474.8, 0, 0\n1.0, -179875474.8, 0, 0\n")
        rc, out, _ = run(capsys, "mass", "--in", str(f), "--units", "si")
        assert rc == 0
        values, _ = result_lines(out)
        m0 = float([v for v in values if v.startswith("m0")][0].split(": ")[1])
        assert m0 == pytest.approx(2.5, rel=1e-9)


class TestUnitsAndEnv:
    def test_si_then_natural_prescaled_identical(self, capsys):
        rc1, out1, _ = run(
            capsys, "aberration", "--model", "stellar", "--v", "29.79e3",
            "--units", "si", "--theta-s", "90", "--unit", "deg",
        )
        beta = 29.79e3 / 299792458.0
        rc2, out2, _ = run(
            capsys, "aberration", "--model", "stellar", "--v", format(beta, ".17g"),
            "--units", "natural", "--theta-s", "90", "--unit", "deg",
        )
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_env_var_sets_c(self, capsys, monkeypatch):
        monkeypatch.setenv("GYROKIN_C", "2.0")
        rc, out, _ = run(capsys, "add", "--u", "1.0,0,0", "--v", "0,0,0")
        assert rc == 0
        assert "result: 0.5,0,0" in out

    def test_explicit_c_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GYROKIN_C", "2.0")
        rc, out, _ = run(capsys, "add", "--u", "1.0,0,0", "--v", "0,0,0",
                         "--c-value", "4.0")
        assert rc == 0
        assert "result: 0.25,0,0" in out

    def test_c_suffix_bypasses_scaling(self, capsys):
        rc, out, _ = run(capsys, "add", "--u", "0.5c,0,0", "--v", "0,0,0",
                         "--units", "si")
        assert rc == 0
        assert "result: 0.5,0,0" in out


class TestCsvFormat:
    def test_key_value_rows(self, capsys):
        rc, out, _ = run(capsys, "add", "--u", "0.6,0,0", "--v", "0,0.6,0",
                         "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "result,0.6 0.48 0"
        assert "gamma,1.5625" in lines

    def test_matrix_row_encoding(self, capsys):
        rc, out, _ = run(capsys, "gyr", "--u", "0.6,0", "--v", "0,0.6",
                         "--w", "0.1,0", "--format", "csv")
        assert rc == 0
        matrix_line = [ln for ln in out.splitlines() if ln.startswith("matrix,")][0]
        rows = matrix_line.split(",", 1)[1].split(";")
        assert len(rows) == 2
        m = [[float(x) for x in row.split(" ")] for row in rows]
        assert m[0][0] == pytest.approx(m[1][1], abs=1e-15)


class TestOneForm:
    """Table and CSV print exactly the numbers the JSON output carries."""

    ARGS = ("gyr", "--u", "0.6,0,0", "--v", "0,0.6,0", "--w", "5,7,9", "--out", "deg")

    @staticmethod
    def table_rows(out, fmt):
        """key -> flat list of cells; matrix rows in table mode follow their key."""
        rows, key = {}, None
        for line in out.splitlines():
            if fmt == "table" and line.endswith(":"):
                key = line[:-1]
                rows[key] = []
            elif fmt == "table" and ": " not in line:
                rows[key] += line.split(",")
            else:
                key, value = line.split(": " if fmt == "table" else ",", 1)
                rows[key] = value.replace(";", " ").split(" " if fmt == "csv" else ",")
        return rows

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_same_numbers_as_json(self, capsys, fmt):
        _, out, _ = run(capsys, *self.ARGS, "--format", "json")
        doc = json.loads(out)
        want = {**doc["result"], **{f"check_{k}": v for k, v in doc["checks"].items()}}
        _, out, _ = run(capsys, *self.ARGS, "--format", fmt)
        got = self.table_rows(out, fmt)
        assert list(got) == list(want)
        assert got["gamma"] == ["n/a"] and got["angle_unit"] == ["deg"]
        for key, value in want.items():
            if isinstance(value, float):
                assert float(got[key][0]) == value, key
            elif isinstance(value, list):
                flat = np.ravel(value).tolist()
                assert [float(x) for x in got[key]] == flat, key


class TestJsonFormat:
    def test_add_json_schema(self, capsys):
        rc, out, _ = run(capsys, "add", "--u", "0.6,0,0", "--v", "0,0.6,0",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["op"] == "add"
        assert doc["inputs"]["u"] == [0.6, 0.0, 0.0]
        assert doc["result"]["result"] == [0.6, 0.48, 0.0]
        assert doc["result"]["gamma"] == 1.5625
        assert "gamma_identity_rel_error" in doc["checks"]

    def test_json_is_bit_stable(self, capsys):
        args = ("midpoint", "--a", "0.1,0.2", "--b", "-0.3,0.4", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_mass_json(self, capsys, tmp_path):
        f = tmp_path / "pair.csv"
        f.write_text(BACK_TO_BACK)
        rc, out, _ = run(capsys, "mass", "--in", str(f), "--format", "json")
        doc = json.loads(out)
        assert doc["result"]["m0"] == 2.5
        assert doc["result"]["m_dark"] == 1.5
        assert doc["checks"]["four_momentum_residual"] == 0.0


class TestSweep:
    def test_csv_header_and_rows(self, capsys):
        rc, out, _ = run(capsys, "aberration", "--model", "stellar",
                         "--v", "0.6c", "--sweep", "5")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "theta_s,theta_e_classical,theta_e_relativistic,offset_arcsec"
        assert len(lines) == 6
        row = [float(x) for x in lines[1].split(",")]
        theta_s = math.pi * 1.0 / 6.0
        assert row[0] == pytest.approx(theta_s, rel=1e-14)
        assert row[2] == pytest.approx(float(stellar_aberration(theta_s, 0.6)),
                                       rel=1e-14)

    def test_zero_speed_identity(self, capsys):
        rc, out, _ = run(capsys, "aberration", "--model", "stellar",
                         "--v", "0c", "--sweep", "9")
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        for r in rows:
            assert r[0] == r[2]

    def test_sweep_json(self, capsys):
        rc, out, _ = run(capsys, "aberration", "--model", "relativistic",
                         "--v", "0.3c", "--p-s", "0.9c", "--sweep", "4",
                         "--format", "json")
        doc = json.loads(out)
        assert doc["op"] == "aberration_sweep"
        assert len(doc["result"]) == 4


class TestTriangleModes:
    def test_sss_matches_vertices(self, capsys):
        _, out_v, _ = run(
            capsys, "triangle", "--mode", "vertices",
            "--a", "0.6,0", "--b", "0,0.6", "--c", "0,0",
        )
        side_c = math.sqrt(0.5904)
        _, out_s, _ = run(
            capsys, "triangle", "--mode", "sss",
            "--sides", f"0.6,0.6,{side_c:.17g}",
        )
        pick = lambda out, key: [
            ln for ln in out.splitlines() if ln.startswith(key + ":")
        ][0]
        for key in ("gamma_a", "gamma_c", "alpha", "gamma"):
            v1 = float(pick(out_v, key).split(": ")[1])
            v2 = float(pick(out_s, key).split(": ")[1])
            assert v2 == pytest.approx(v1, abs=1e-10)

    def test_sss_aaa_roundtrip_via_two_invocations(self, capsys):
        _, out1, _ = run(capsys, "triangle", "--mode", "sss",
                         "--sides", "0.3,0.4,0.5")
        angles = [
            ln.split(": ")[1] for ln in out1.splitlines()
            if ln.split(":")[0] in ("alpha", "beta", "gamma")
        ]
        _, out2, _ = run(capsys, "triangle", "--mode", "aaa",
                         "--angles", ",".join(angles))
        sides = [
            float(ln.split(": ")[1]) for ln in out2.splitlines()
            if ln.split(":")[0] in ("side_a", "side_b", "side_c")
        ]
        assert sides[0] == pytest.approx(0.3, abs=1e-9)
        assert sides[1] == pytest.approx(0.4, abs=1e-9)
        assert sides[2] == pytest.approx(0.5, abs=1e-9)

    def test_sss_invalid_sides_exit_two(self, capsys):
        rc, _, err = run(capsys, "triangle", "--mode", "sss",
                         "--sides", "0.9,0.01,0.01")
        assert rc == 2
        assert "InvalidTriangle" in err

    def test_missing_mode_arguments_exit_one(self, capsys):
        rc, _, _ = run(capsys, "triangle", "--mode", "sss")
        assert rc == 1


class TestOtherCommands:
    def test_classical_single_result(self, capsys):
        rc, out, _ = run(capsys, "aberration", "--model", "classical",
                         "--v", "0.6c", "--theta-s", format(math.pi / 2, ".17g"),
                         "--p-s", "1c")
        assert rc == 0
        values, _ = result_lines(out)
        theta_e = float([v for v in values if v.startswith("theta_e")][0]
                        .split(": ")[1])
        assert theta_e == pytest.approx(math.atan2(1.0, 0.6), rel=1e-12)

    def test_sub_command(self, capsys):
        rc, out, _ = run(capsys, "sub", "--u", "0,0,0", "--v", "0,0.6,0")
        assert rc == 0
        assert "result: 0,-0.6,0" in out or "result: -0,-0.6,-0" in out

    def test_midpoint_with_parameter(self, capsys):
        rc, out, _ = run(capsys, "midpoint", "--a", "0,0,0", "--b", "0.8,0,0",
                         "--t", "1.0")
        assert rc == 0
        assert "result: 0.8,0,0" in out

    def test_parallelogram_fixture(self, capsys):
        rc, out, _ = run(capsys, "parallelogram", "--a", "0,0,0",
                         "--b", "0.6,0,0", "--c", "0,0.6,0")
        assert rc == 0
        values, checks = result_lines(out)
        assert values[0] == \
            "result: 0.508474576271186,0.508474576271186,0"
        assert all(v < 1e-10 for v in check_values(checks))

    def test_gyr_outside_ball_vector(self, capsys):
        rc, out, _ = run(capsys, "gyr", "--u", "0.6,0,0", "--v", "0,0.6,0",
                         "--w", "3,-7,2")
        assert rc == 0
        values, _ = result_lines(out)
        assert "gamma: n/a" in values


class TestInverseDirection:
    def test_theta_e_input(self, capsys):
        theta_e = float(stellar_aberration(1.2, 0.5))
        rc, out, _ = run(capsys, "aberration", "--model", "stellar", "--v", "0.5c",
                         "--theta-e", format(theta_e, ".17g"))
        assert rc == 0
        values, _ = result_lines(out)
        theta_s = float([v for v in values if v.startswith("theta_s")][0]
                        .split(": ")[1])
        assert theta_s == pytest.approx(1.2, abs=1e-12)

    def test_both_angles_rejected(self, capsys):
        rc, _, _ = run(capsys, "aberration", "--model", "stellar", "--v", "0.5c",
                       "--theta-s", "1.0", "--theta-e", "1.0")
        assert rc == 1


def check_value(out, key):
    return [float(ln.split(": ", 1)[1]) for ln in out.splitlines()
            if ln.startswith(f"check_{key}: ")][0]


class TestOptionSurface:
    SHARED = {"--units", "--c-value", "--format"}
    OWN = {
        "add": {"--u", "--v"},
        "sub": {"--u", "--v"},
        "coadd": {"--u", "--v"},
        "gyr": {"--u", "--v", "--w", "--out"},
        "scale": {"--r", "--v"},
        "distance": {"--a", "--b"},
        "midpoint": {"--a", "--b", "--t"},
        "parallelogram": {"--a", "--b", "--c", "--tol"},
        "triangle": {"--mode", "--a", "--b", "--c", "--sides", "--angles",
                     "--tol", "--unit", "--out"},
        "aberration": {"--model", "--v", "--theta-s", "--theta-e", "--p-s",
                       "--p-e", "--sweep", "--unit", "--out"},
        "mass": {"--in"},
    }

    def test_each_command_takes_only_what_it_reads(self):
        got = {name: {p.opts[0] for p in cmd.params}
               for name, cmd in cli.commands.items()}
        assert got == {name: own | self.SHARED for name, own in self.OWN.items()}
        slots = sum(len(opts & (self.SHARED | {"--unit", "--out", "--tol"}))
                    for opts in got.values())
        assert slots == 40

    def test_every_velocity_option_has_help(self):
        for name, cmd in cli.commands.items():
            for param in cmd.params:
                if param.opts[0] in {"--u", "--v", "--w", "--a", "--b", "--c"}:
                    assert param.help, f"{name} {param.opts[0]}"

    def test_unread_option_exits_one(self, capsys):
        rc, out, _ = run(capsys, "add", "--u", "0.1,0", "--v", "0,0.1",
                         "--out", "deg")
        assert rc == 1 and out == ""

    def test_parallelogram_tol_is_the_collinear_area(self, capsys):
        args = ("parallelogram", "--a", "0,0,0", "--b", "0.6,0,0", "--c", "0,0.6,0")
        assert run(capsys, *args)[0] == 0
        rc, _, err = run(capsys, *args, "--tol", "1")
        assert rc == 2
        assert "CollinearPoints" in err

    def test_triangle_tol_is_the_right_angle_tolerance(self, capsys):
        # gamma = 90.0001 deg is 1.7e-6 rad from pi/2: outside the default
        # 1e-8, inside 1e-5.
        args = ("triangle", "--mode", "aaa", "--angles", "30deg,40deg,90.0001deg")
        _, out, _ = run(capsys, *args)
        assert "right_triangle: no" in out
        _, out, _ = run(capsys, *args, "--tol", "1e-5")
        assert "right_triangle: yes" in out
        assert "check_right_identities_max_residual" in out

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        ("parallelogram", "--a", "0,0,0", "--b", "0.6,0,0", "--c", "0,0.6,0"),
        ("triangle", "--mode", "sss", "--sides", "0.3,0.4,0.5"),
    ])
    def test_bad_tol_exits_one(self, capsys, command, tol):
        rc, out, _ = run(capsys, *command, "--tol", tol)
        assert rc == 1 and out == ""

    def test_argument_named_in_admissibility_error(self, capsys):
        rc, _, err = run(capsys, "gyr", "--u", "0.6,0", "--v", "0,1.5",
                         "--w", "0.1,0")
        assert rc == 2
        assert err.startswith("error: AdmissibilityError: v has norm 1.5")


class TestStellarRoundtrip:
    @pytest.mark.parametrize("angle", ["--theta-s", "--theta-e"])
    def test_inverse_roundtrip_small(self, capsys, angle):
        rc, out, _ = run(capsys, "aberration", "--model", "stellar",
                         "--v", "0.6c", angle, "1.2")
        assert rc == 0
        assert 0.0 <= check_value(out, "inverse_roundtrip_abs") <= 1e-12

    def test_roundtrip_na_near_zero(self, capsys):
        # theta_e comes out below sin = 1e-14, which the inverse formula
        # rejects; the check is n/a and the command still succeeds.
        rc, out, err = run(capsys, "aberration", "--model", "stellar",
                           "--v", "0.9c", "--theta-s", "2e-14")
        assert rc == 0 and err == ""
        assert "check_inverse_roundtrip_abs: n/a" in out.splitlines()


def readme_cli_examples():
    """The gyrokin command lines of the README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("gyrokin ")]


class TestReadmeExamples:
    EXAMPLES = readme_cli_examples()

    def test_examples_found(self):
        assert len(self.EXAMPLES) >= 12
        assert {argv[0] for argv in self.EXAMPLES} >= {"add", "triangle", "aberration", "mass"}

    @pytest.mark.parametrize("argv", EXAMPLES, ids=lambda argv: " ".join(argv[:3]))
    def test_example_runs(self, capsys, tmp_path, argv):
        particles = tmp_path / "particles.csv"
        particles.write_text(BACK_TO_BACK)
        argv = [str(particles) if a == "particles.csv" else a for a in argv]
        rc, out, err = run(capsys, *argv)
        assert rc == (2 if "60,60,60" in argv else 0), err  # the Euclidean AAA
        assert out if rc == 0 else err.startswith("error: ")
