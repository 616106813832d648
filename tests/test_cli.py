"""CLI golden tests: frozen output bytes, exit codes, units, file ingestion."""

import ast
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest

import gyrokin
from gyrokin import Gyration, aberration_sweep, einstein_add, gyrodistance, stellar_aberration
import gyrokin.cli as cli_module
from gyrokin.cli import ANGLE_TO_RAD, _fmt, cli, main
from gyrokin.errors import GyrokinError

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


# Each command of cli._VECTOR_COMMANDS: its arguments and the library call it
# must mirror.
U, V, C = [0.37, 0.11, 0.0], [-0.2, 0.5, 0.1], [0.05, -0.3, 0.4]
UV = ["--u", ",".join(map(repr, U)), "--v", ",".join(map(repr, V))]
AB = ["--a", ",".join(map(repr, U)), "--b", ",".join(map(repr, V))]
VECTOR_CALLS = {
    "add": (UV, lambda: gyrokin.einstein_add(U, V)),
    "sub": (UV, lambda: gyrokin.einstein_sub(U, V)),
    "coadd": (UV, lambda: gyrokin.coadd(U, V)),
    "scale": (["--r", "1.7", *UV[2:]], lambda: gyrokin.scalar_mul(1.7, V)),
    "midpoint": (AB, lambda: gyrokin.gyromidpoint(U, V)),
    "midpoint --t": ([*AB, "--t", "0.3"], lambda: gyrokin.gyroline_point(U, V, 0.3)),
    "parallelogram": ([*AB, "--c", ",".join(map(repr, C))],
                      lambda: gyrokin.gyroparallelogram_fourth(U, V, C)),
}


class TestLibraryEquivalence:
    def test_every_table_command_is_covered(self):
        assert {key.split()[0] for key in VECTOR_CALLS} == set(cli_module._VECTOR_COMMANDS)

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("key", VECTOR_CALLS)
    def test_vector_result_is_the_library_call(self, capsys, key, fmt):
        argv, call = VECTOR_CALLS[key]
        rc, out, err = run(capsys, key.split()[0], *argv, "--format", fmt)
        assert (rc, err) == (0, "")
        cells = [_fmt(c) for c in call()]
        if fmt == "json":
            assert json.loads(out)["result"]["result"] == [float(c) for c in cells]
        else:
            line = out.splitlines()[0]
            assert line == ("result: " + ",".join(cells) if fmt == "table"
                            else "result," + " ".join(cells))

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

    # u (+) v rounds out of the admissible ball: gamma and the gamma-identity
    # check print n/a, and the command still succeeds.
    SUM_PAST_THE_BALL = {
        "table": "result: 1,0,0\nnorm: 1\ngamma: n/a\n"
                 "check_gamma_identity_rel_error: n/a\n",
        "json": '{"op":"add","inputs":{"u":[0.99999999,0.0,0.0],"v":[0.99999999,0.0,0.0]},'
                '"result":{"result":[1.0,0.0,0.0],"norm":1.0,"gamma":null},'
                '"checks":{"gamma_identity_rel_error":null}}\n',
        "csv": "result,1 0 0\nnorm,1\ngamma,n/a\ncheck_gamma_identity_rel_error,n/a\n",
    }

    @pytest.mark.parametrize("fmt", SUM_PAST_THE_BALL)
    def test_add_gamma_past_the_ball(self, capsys, fmt):
        got = run(capsys, "add", "--u", "0.99999999,0,0", "--v", "0.99999999,0,0",
                  "--format", fmt)
        assert got == (0, self.SUM_PAST_THE_BALL[fmt], "")


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

    def test_overflowing_velocity_exits_two_without_warning(self, capsys):
        # Finite components whose |u|^2 overflows; the filter turns a warning
        # into an error here, and a fresh process must print none either.
        rc, out, err = run(capsys, "add", "--u", "1e300,0,0", "--v", "0,0,0")
        assert (rc, out) == (2, "")
        assert err.startswith("error: AdmissibilityError: u has norm inf outside")
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-c", "from gyrokin.cli import entry; entry()",
             "add", "--u", "1e300,0,0", "--v", "0,0,0"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(gyrokin.__file__).parents[1])},
        )
        assert (proc.returncode, proc.stderr) == (2, err)

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_line_parameter_named(self, capsys, t):
        rc, out, err = run(capsys, "midpoint", "--a", "0.1,0", "--b", "0.2,0", "--t", t)
        assert (rc, out, err) == (2, "", "error: NonFinite: t must be finite\n")

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

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_particle_input_exits_one(self, capsys, monkeypatch, tmp_path,
                                               source):
        data = b"1.0, 0.1, 0\n\xff, 0.2, 0\n"
        if source == "file":
            (tmp_path / "latin.csv").write_bytes(data)
            infile = str(tmp_path / "latin.csv")
        else:  # stdin as a locale with strict UTF-8 decoding opens it
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data),
                                                              encoding="utf-8"))
            infile = "-"
        rc, out, err = run(capsys, "mass", "--in", infile)
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: ParticleFormatError: cannot read {infile}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_inadmissible_particle_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "fast.csv"
        bad.write_text("1.0, 1.5, 0, 0\n")
        rc, _, err = run(capsys, "mass", "--in", str(bad))
        assert rc == 2

    def test_inadmissible_particle_named_by_its_row(self, capsys, tmp_path):
        # Rows count particles from 0; comments and blank lines do not count.
        bad = tmp_path / "third.csv"
        bad.write_text("# three particles\n1.0, 0.1, 0, 0\n\n2.0, 0, 0.2, 0\n1.0, 1.5, 0, 0\n")
        rc, out, err = run(capsys, "mass", "--in", str(bad))
        assert (rc, out) == (2, "")
        assert err == ("error: AdmissibilityError: particle velocity row 2 has norm 1.5 "
                       "outside the admissible ball (limit 0.99999999999949996)\n")

    def test_bad_mass_named_by_its_row(self, capsys, tmp_path):
        bad = tmp_path / "negative.csv"
        bad.write_text("-1, 0.1, 0, 0\n2.0, 0, 0.2, 0\n")
        rc, out, err = run(capsys, "mass", "--in", str(bad))
        assert (rc, out) == (2, "")
        assert err == "error: AdmissibilityError: particle mass row 0 must be positive and finite\n"

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

    @pytest.mark.parametrize("n", [str(10 ** 16), str(10 ** 20)])
    def test_sweep_too_large_for_memory_exits_two(self, capsys, n):
        # Both counts fail at allocation, before any row is made.
        rc, out, err = run(capsys, "aberration", "--model", "stellar",
                           "--v", "0.5c", "--sweep", n)
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: DimensionError: n_samples is too large to tabulate: ")


ADD = ("add", "--u", "0.1,0", "--v", "0,0.2")


class TestUsageErrors:
    """Faults in the shared options or in a command's own arguments exit 1
    with click's usage error, print nothing on stdout and name the fault."""

    @pytest.mark.parametrize("env, argv, message", [
        ("abc", ADD, "Invalid value: GYROKIN_C='abc' is not a number"),
        (None, (*ADD, "--c-value", "0"), "Invalid value: c must be positive and finite"),
        (None, (*ADD, "--c-value", "nan"), "Invalid value: c must be positive and finite"),
        (None, ("aberration", "--model", "stellar", "--v", "0.5", "--theta-s", "12xdeg"),
         "Invalid value: cannot parse theta_s value '12xdeg'"),
        (None, ("triangle", "--mode", "vertices", "--a", "0,0", "--b", "0.5,0"),
         "vertices mode needs --a, --b and --c"),
        (None, ("triangle", "--mode", "sss", "--sides", "0.3,0.4"),
         "--sides needs exactly three values"),
    ], ids=["env-c-text", "c-zero", "c-nan", "angle-suffix", "vertices-missing",
            "two-sides"])
    def test_fault_named(self, capsys, monkeypatch, env, argv, message):
        monkeypatch.delenv("GYROKIN_C", raising=False)
        if env is not None:
            monkeypatch.setenv("GYROKIN_C", env)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.splitlines()[-1] == f"Error: {message}"

    def test_version_exits_zero(self, capsys):
        assert run(capsys, "--version") == (0, f"gyrokin, version {gyrokin.__version__}\n", "")

    @pytest.mark.parametrize("argv", [["--help"], ["add", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "") and out.startswith("Usage: ")

    def test_main_returns_the_code_a_command_exits_with(self, capsys, monkeypatch):
        @click.command("exit-three")
        @click.pass_context
        def exit_three(ctx):
            ctx.exit(3)

        monkeypatch.setitem(cli.commands, "exit-three", exit_three)
        assert run(capsys, "exit-three") == (3, "", "")


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

    @pytest.mark.parametrize("model, v, p, n, fmt, out", [
        ("stellar", "0.6c", "1", "5", "csv", "rad"),
        ("relativistic", "0.3c", "0.9c", "257", "table", "deg"),
        ("classical", "0c", "1", "9", "csv", "arcsec"),
        ("relativistic", "0.999999c", "1e-9c", "64", "csv", "rad"),
    ])
    def test_rows_print_as_fmt_prints_them(self, capsys, model, v, p, n, fmt, out):
        # The rows as the per-value _fmt rendering printed them.  The sweep has
        # no -0.0 to print: its angles lie in (0, pi), and an offset that
        # vanishes is theta - theta, which is +0.0.
        rc, got, _ = run(capsys, "aberration", "--model", model, "--v", v,
                         "--p-s", p, "--sweep", n, "--format", fmt, "--out", out)
        assert rc == 0
        table = aberration_sweep(float(v[:-1]), float(p.rstrip("c")), int(n))
        scale = 1.0 / ANGLE_TO_RAD[out]
        columns = [table[k] if k == "offset_arcsec" else table[k] * scale
                   for k in table.dtype.names]
        want = [",".join(table.dtype.names)]
        want += [",".join(map(_fmt, row)) for row in zip(*columns)]
        assert got == "\n".join(want) + "\n"

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

    def test_sss_check_takes_the_angles_back_to_sides(self, capsys):
        # The thin triangle's beta rounds to 0, which aaa_to_sss rejects; a
        # check that ran sss_to_aaa again would read 0.
        rc, out, err = run(capsys, "triangle", "--mode", "sss", "--sides",
                           "0.0780334714593798,1.9600924219906294e-05,0.07805295299939231")
        assert rc == 0 and err == ""
        assert "beta: 0" in out.splitlines()
        assert "check_sss_aaa_consistency_max_abs: n/a" in out.splitlines()

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


def vec(x):
    """The option text of the vector x: each component's repr, so it parses back exactly."""
    return ",".join(repr(float(c)) for c in x)


class TestGyrParity:
    """gyr prints what the library's Gyration gives, and raises what it raises."""

    @pytest.mark.parametrize("dim", range(1, 6))
    def test_json_is_the_library_gyration(self, capsys, rng, dim):
        for i in range(10):
            # Norms below 0.95 for u and v; w's is 0.5, or 1.5 past the ball for odd i.
            u, v, w = (x * r / np.linalg.norm(x) for x, r in zip(
                rng.normal(size=(3, dim)), [*rng.uniform(0.0, 0.95, 2), 1.5 if i % 2 else 0.5]))
            rc, out, err = run(capsys, "gyr", "--u", vec(u), "--v", vec(v), "--w", vec(w),
                               "--format", "json")
            assert (rc, err) == (0, "")
            got = json.loads(out)["result"]
            g = Gyration(u, v)
            assert got["result"] == cli_module._jsonify(g.apply(w))
            assert got["rotation_angle"] == cli_module._jsonify(g.rotation_angle())
            assert got.get("matrix") == (cli_module._jsonify(g.matrix()) if dim <= 3 else None)
            assert (got["gamma"] is None) == bool(i % 2)

    @pytest.mark.parametrize("u, v, w", [
        ("0.1,0.2", "0.3,0,0", "0.1,0.1,0.1"),
        ("0.1,0.2,0", "0.3,0,0", "0.1,0.1"),
        ("0.1,0.2,0", "0.3,0,0", "nan,0.1"),
        ("1.2,0,0", "0.3,0,0", "0.1,0.1,0.1"),
        ("0.1,0.2,0", "0.3,0,inf", "0.1,0.1,0.1"),
        ("0.1,0.2,0", "0.3,0,0", "0.1,nan,0.1"),
        ("0.1,0.2,0", "0.3,0,0", "1e200,1e200,0"),
    ])
    def test_errors_are_the_library_gyrations(self, capsys, u, v, w):
        floats = [[float(x) for x in s.split(",")] for s in (u, v, w)]
        with pytest.raises(GyrokinError) as exc:
            Gyration(*floats[:2]).apply(floats[2])
        got = run(capsys, "gyr", "--u", u, "--v", v, "--w", w)
        assert got == (2, "", f"error: {type(exc.value).__name__}: {exc.value}\n")


def planted(op, fault):
    """A stand-in for the operation ``op`` whose floats route returns fault(op.floats(...))."""
    def stand_in(*args, **kwargs):
        raise AssertionError("the CLI calls the floats route")
    stand_in.floats = lambda *args, **kwargs: fault(op.floats(*args, **kwargs))
    return stand_in


@pytest.mark.parametrize("argv, name, check", [
    (["midpoint", *AB], "gyromidpoint", "line_form_max_abs"),
    (["parallelogram", *AB, "--c", vec(C)], "gyroparallelogram_fourth",
     "diagonal_midpoint_residual"),
])
def test_a_planted_fault_shows_in_the_check(capsys, monkeypatch, argv, name, check):
    """Each check is a route of its own: a fault of 1e-9 in the result's route
    shows in it, where the check reads rounding alone without the fault."""
    import gyrokin.space as space

    def checks():
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert (rc, err) == (0, "")
        return json.loads(out)["checks"][check]

    assert checks() < 1e-15
    monkeypatch.setattr(space, name, planted(getattr(space, name),
                                             lambda w: [w[0] + 1e-9, *w[1:]]))
    assert checks() >= 1e-10


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


# The composite modules a fresh `gyrokin <argv>` loads beside the core (ball,
# errors, gyro) and the CLI: only those its command calls.
LOADS = {
    ("add", *UV): (),
    ("sub", *UV): (),
    ("coadd", *UV): (),
    ("gyr", *UV, "--w", "0.1,0,0.2"): (),
    ("scale", "--r", "2", *UV[2:]): ("space",),
    ("distance", *AB): (),
    ("midpoint", *AB): ("space",),
    ("midpoint", *AB, "--t", "0.3"): ("space",),
    ("parallelogram", *AB, "--c", "0.05,-0.3,0.4"): ("space",),
    ("triangle", "--mode", "sss", "--sides", "0.3,0.4,0.5"): ("trig",),
    ("aberration", "--model", "stellar", "--v", "0.5", "--theta-s", "1"): ("aberration",),
    ("aberration", "--model", "classical", "--v", "0.5c", "--sweep", "3"): ("aberration",),
    ("mass", "--in", "-"): ("mass",),
    ("--help",): (),
    ("--version",): (),
    ("triangle", "--help"): (),
}
LOADED = ("import json, sys; from gyrokin.cli import main; code = main(sys.argv[1:]); "
          "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('gyrokin'))]))")


@pytest.mark.parametrize("argv", LOADS, ids=[" ".join(a) for a in LOADS])
def test_a_fresh_command_loads_only_the_modules_it_calls(argv):
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], input=BACK_TO_BACK,
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(gyrokin.__file__).parents[1])})
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    core = ["gyrokin", "gyrokin.ball", "gyrokin.cli", "gyrokin.errors", "gyrokin.gyro"]
    assert (code, proc.stderr) == (0, "")
    assert loaded == sorted(core + [f"gyrokin.{m}" for m in LOADS[argv]])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """The gyrokin command lines of the README's CLI block, continuations joined."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("gyrokin ")]


def readme_library_example():
    """The names the README's library example binds, and its expressions' values.

    The values are keyed by their source text; the statements run in order.
    """
    source = README.read_text().split("## Library example", 1)[1]
    source = source.split("```python", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    return namespace, values


def test_readme_library_example():
    """The library example runs, and gives the values its comments state."""
    namespace, values = readme_library_example()
    assert np.array_equal(namespace["w"], [0.6, 0.48, 0.0])
    assert np.array_equal(values["gk.gyrate(u, v, gk.einstein_add(v, u))"], namespace["w"])
    assert values["gk.gamma(w)"] == 1.5625
    assert np.any(values["gk.einstein_add(u, v) - gk.einstein_add(v, u)"] != 0.0)
    assert np.all(values["gk.coadd(u, v) - gk.coadd(v, u)"] == 0.0)
    assert values["g.rotation_angle()"] == pytest.approx(0.2213, abs=5e-5)
    assert abs(values["tri.gamma_a * tri.gamma_b - tri.gamma_c"]) < 1e-14
    dec = values["gk.decompose(sys2)"]
    assert (dec.m0, dec.m_newton, dec.m_dark) == pytest.approx((2.5, 2.0, 1.5), rel=1e-15)


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


@pytest.mark.parametrize("argv", [
    ["scale", "--r", "2", "--v", "0.5,0,0"],
    ["midpoint", "--a", "0,0,0", "--b", "0.8,0,0"],
    ["midpoint", "--a", "0,0,0", "--b", "0.8,0,0", "--t", "0.3"],
    ["parallelogram", "--a", "0,0,0", "--b", "0.6,0,0", "--c", "0,0.6,0"],
])
def test_float_commands_run_past_wrappers_of_their_operations(capsys, monkeypatch, argv):
    """A wrapper that stands in for each space operation (a profiler's, marked by
    __wrapped__ and without the floats attribute) leaves the output as it was."""
    want = run(capsys, *argv)
    import gyrokin.space as space

    def stand_in(op):
        def wrapper(*args, **kwargs):
            return op(*args, **kwargs)
        wrapper.__wrapped__ = op
        return wrapper

    for name in ("scalar_mul", "gyromidpoint", "gyroline_point", "gyrodistance",
                 "gyroparallelogram_fourth"):
        monkeypatch.setattr(space, name, stand_in(getattr(space, name)))
    assert run(capsys, *argv) == want
    assert want[0] == 0
