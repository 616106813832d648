"""Command-line frontend.

Every command mirrors one library call on the parsed, dimensionless inputs;
the CLI only handles units, parsing, and formatting.  The commands whose
result is one ball vector are driven by one table, ``_VECTOR_COMMANDS``:
each entry names the library call, its inputs, its residual checks and its
own options, and one factory turns it into a command.  Velocities are divided
by the working value of c at ingestion (so in natural units they are entered
as fractions of c, in SI as m/s) and all printed velocities are fractions of
c.  Floats print with 15 significant digits in every output format.

Exit codes: 0 on success, 1 on parse/file-format errors, 2 on admissibility,
dimension, or geometric-validity errors.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .ball import norm
from .errors import AngleDegenerate, GyrokinError
from .gyro import (
    Gyration,
    coadd,
    coadd_via_gyration,
    einstein_add,
    einstein_sub,
    gamma,
    gyrate_definitional,
    left_sub,
)
from .mass import ParticleFormatError, decompose, parse_particles
from .space import (
    COLLINEAR_AREA_TOL,
    gyrodistance,
    gyromidpoint,
    gyroline_point,
    gyroparallelogram_fourth,
    scalar_mul,
)
from .trig import (
    RIGHT_ANGLE_TOL,
    right_triangle_relations,
    sss_to_aaa,
    triangle_from_angles,
    triangle_from_sides,
    triangle_from_vertices,
)
from .aberration import (
    ARCSEC_PER_RAD,
    aberration_sweep,
    classical_aberration,
    classical_aberration_inv,
    relativistic_aberration,
    relativistic_aberration_inv,
    stellar_aberration,
    stellar_aberration_inv,
)

SI_C = 299792458.0

ANGLE_TO_RAD = {
    "rad": 1.0,
    "deg": math.pi / 180.0,
    "arcsec": math.pi / (180.0 * 3600.0),
}


# Each model's (forward, inverse) formula, called as f(theta, v, p).  The
# stellar pair is the photon case and ignores p.
_ABERRATION_MODELS = {
    "classical": (classical_aberration, classical_aberration_inv),
    "relativistic": (relativistic_aberration, relativistic_aberration_inv),
    "stellar": (lambda theta, v, p: stellar_aberration(theta, v),
                lambda theta, v, p: stellar_aberration_inv(theta, v)),
}


def _fmt(x) -> str:
    return format(float(x), ".15g")


class Config:
    """Per-invocation velocity unit and output format: the shared options."""

    def __init__(self, units, c_value, fmt):
        if c_value is not None:
            self.c_value = float(c_value)
        elif units == "si":
            self.c_value = SI_C
        else:
            raw = os.environ.get("GYROKIN_C", "1.0")
            try:
                self.c_value = float(raw)
            except ValueError:
                raise click.BadParameter(f"GYROKIN_C={raw!r} is not a number")
        if not (self.c_value > 0.0 and math.isfinite(self.c_value)):
            raise click.BadParameter("c must be positive and finite")
        self.format = fmt

    def parse_speed(self, text: str, name: str = "speed") -> float:
        """A scalar speed; trailing 'c' means a fraction of c directly."""
        s = text.strip()
        try:
            if s.endswith("c"):
                return float(s[:-1])
            return float(s) / self.c_value
        except ValueError:
            raise click.BadParameter(f"cannot parse {name} value {text!r}")

    def parse_vector(self, text: str, name: str = "vector") -> np.ndarray:
        """Comma-separated speeds as a float array; the library validates it."""
        return np.array([self.parse_speed(c, name=name) for c in text.split(",")])

    def emit(self, op: str, inputs: dict, result, checks: dict) -> None:
        """Print one result; ``result`` is a dict, or in JSON also a list."""
        if self.format == "json":
            click.echo(json.dumps(
                {"op": op, "inputs": _jsonify(inputs),
                 "result": _jsonify(result), "checks": _jsonify(checks)},
                separators=(",", ":"),
            ))
            return
        # The rows as JSON would carry them, so floats are already rounded
        # to 15 digits; printing those again with _fmt leaves them unchanged.
        table = self.format == "table"
        joiner, sep = (",", ": ") if table else (" ", ",")
        lines = []
        rows = _jsonify({**result, **{f"check_{k}": v for k, v in checks.items()}})
        for key, value in rows.items():
            if isinstance(value, list) and value and isinstance(value[0], list):
                cells = [joiner.join(map(_fmt, row)) for row in value]
                lines += [f"{key}:", *cells] if table else [f"{key},{';'.join(cells)}"]
            elif value is None or isinstance(value, bool):
                lines.append(key + sep + {None: "n/a", True: "yes", False: "no"}[value])
            elif isinstance(value, (str, int)):
                lines.append(f"{key}{sep}{value}")
            elif isinstance(value, list):
                lines.append(key + sep + joiner.join(map(_fmt, value)))
            else:
                lines.append(key + sep + _fmt(value))
        click.echo("\n".join(lines))


def _parse_angle(text: str, name: str, unit: str) -> float:
    """An angle in radians; a unit suffix overrides ``unit``."""
    s = text.strip()
    for suffix in ("arcsec", "deg", "rad"):
        if s.endswith(suffix):
            s, unit = s[: -len(suffix)], suffix
            break
    try:
        return float(s) * ANGLE_TO_RAD[unit]
    except ValueError:
        raise click.BadParameter(f"cannot parse {name} value {text!r}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, str) or obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.ndarray, list, tuple)):
        return [_jsonify(v) for v in np.asarray(obj).tolist()]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return float(_fmt(obj))  # rounded to the 15 digits printed


# --help text of the velocity options that common_options declares.
_VECTOR_HELP = {
    **{name: f"Velocity {name}, comma-separated." for name in "uv"},
    **{name: f"Ball point {name}, comma-separated." for name in "abc"},
    "w": "Vector the gyration is applied to, comma-separated (need not be admissible).",
}


def common_options(*vectors):
    """Declare a required --<name> for each velocity in ``vectors``, then the
    three options every command reads.  The command is called with a Config,
    then with its options by name, each of ``vectors`` parsed by that Config."""

    def decorate(f):
        @functools.wraps(f)
        def command(units, c_value, fmt, **kwargs):
            cfg = Config(units, c_value, fmt)
            parsed = {name: cfg.parse_vector(kwargs[name], name) for name in vectors}
            return f(cfg, **{**kwargs, **parsed})

        for opt in reversed([
            *(click.option(f"--{name}", required=True, help=_VECTOR_HELP[name])
              for name in vectors),
            click.option("--units", type=click.Choice(["natural", "si"]),
                         default="natural", show_default=True,
                         help="Velocity unit preset: natural (c=1) or si (m/s)."),
            click.option("--c-value", type=float, default=None,
                         help="Explicit value of c; overrides --units and GYROKIN_C."),
            click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
                         default="table", show_default=True),
        ]):
            command = opt(command)
        return command

    return decorate


def _positive_finite(ctx, param, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise click.BadParameter("must be positive and finite")
    return value


_ANGLE_UNITS = click.Choice(list(ANGLE_TO_RAD))

_unit_option = click.option(
    "--unit", type=_ANGLE_UNITS, default="rad", show_default=True,
    help="Unit of angle arguments without an explicit suffix.")

_out_option = click.option(
    "--out", "out_unit", type=_ANGLE_UNITS, default="rad", show_default=True,
    help="Unit for printed angles.")


@click.group()
@click.version_option(__version__, prog_name="gyrokin")
def cli():
    """Relativistic velocity algebra on the unit ball.

    Velocities are fractions of c internally; see each command's --units,
    --c-value and angle-unit flags for I/O conventions.
    """


def _maybe_gamma(w):
    try:
        return float(gamma(w))
    except GyrokinError:
        return None


def _ball_result(w) -> dict:
    """A ball vector as printed: w, its norm, and its gamma (None past the ball)."""
    return {"result": w, "norm": float(norm(w)), "gamma": _maybe_gamma(w)}


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


@cli.command()
@_out_option
@common_options("u", "v", "w")
def gyr(cfg, u, v, w, out_unit):
    """Apply the gyration gyr[u, v]; prints its matrix (n <= 3) and angle."""
    g = Gyration(u, v)
    out = g.apply(w)
    checks = {
        "orthogonality_norm_abs":
            abs(float(norm(out)) - float(norm(w))),
    }
    try:
        checks["definitional_vs_closed_max_abs"] = _max_abs(
            out - gyrate_definitional(u, v, w))
    except GyrokinError:
        pass  # w outside the ball: only the closed form applies
    result = {
        **_ball_result(out),
        "rotation_angle": g.rotation_angle() / ANGLE_TO_RAD[out_unit],
        "angle_unit": out_unit,
    }
    if g.dim <= 3:
        result["matrix"] = g.matrix()
    cfg.emit("gyr", {"u": u, "v": v, "w": w}, result, checks)


@cli.command()
@common_options("a", "b")
def distance(cfg, a, b):
    """Gyrodistance |(-a) (+) b| between two ball points (fraction of c)."""
    w = left_sub(a, b)
    d = float(norm(w))
    checks = {"symmetry_abs": abs(d - float(gyrodistance(b, a)))}
    cfg.emit("distance", {"a": a, "b": b},
             {"result": d, "gamma": _maybe_gamma(w)}, checks)


def _add_checks(w, u, v):
    identity = float(gamma(u) * gamma(v) * (1.0 + float(np.dot(u, v))))
    g = _maybe_gamma(w)  # None once the sum has left the ball
    return {"gamma_identity_rel_error": None if g is None else abs(g - identity) / identity}


def _scale_checks(w, r, v):
    half = scalar_mul(0.5, scalar_mul(2.0, w)) if abs(r) < 1e6 else w
    return {"halving_roundtrip_max_abs": _max_abs(half - w)}


def _midpoint_checks(w, a, b, t):
    if t != 0.5:
        return {}
    return {"line_form_max_abs": _max_abs(w - gyroline_point(a, b, 0.5)),
            "equidistance_abs":
                abs(float(gyrodistance(w, a)) - float(gyrodistance(w, b)))}


# The commands whose result is one ball vector w, printed with its norm and gamma.
# Each entry is (docstring, library call, its positional input names in order,
# checks(w, *inputs, **opts), the command's own click options).  The inputs named
# in _VECTOR_HELP are velocities that common_options parses; the other inputs and
# the keyword opts are the command's own options.
_VECTOR_COMMANDS = {
    "add": ("Einstein velocity addition u (+) v.", einstein_add, ("u", "v"),
            _add_checks, []),
    "sub": ("Einstein velocity subtraction u (-) v.", einstein_sub, ("u", "v"),
            # left cancellation: (-u) (+) (u (+) (-v)) must recover -v
            lambda w, u, v: {"left_cancellation_max_abs":
                             _max_abs(einstein_add(-u, w) + v)}, []),
    "coadd": ("Einstein coaddition u [+] v (commutative).", coadd, ("u", "v"),
              lambda w, u, v: {
                  "route_agreement_max_abs": _max_abs(w - coadd_via_gyration(u, v)),
                  "commutativity_max_abs": _max_abs(w - coadd(v, u))}, []),
    "scale": ("Scalar gyromultiplication r (x) v.", scalar_mul, ("r", "v"),
              _scale_checks, [click.option("--r", type=float, required=True,
                                           help="Real scalar factor.")]),
    "midpoint": ("Gyromidpoint of a and b (or the gyroline point at parameter t).",
                 lambda a, b, t: (gyromidpoint(a, b) if t == 0.5
                                  else gyroline_point(a, b, t)),
                 ("a", "b", "t"), _midpoint_checks,
                 [click.option("--t", type=float, default=0.5, show_default=True,
                               help="Gyroline parameter; 0.5 gives the gyromidpoint.")]),
    "parallelogram": (
        "Fourth gyroparallelogram vertex d = (b [+] c) (-) a.",
        gyroparallelogram_fourth, ("a", "b", "c"),
        lambda d, a, b, c, tol: {"diagonal_midpoint_residual": _max_abs(
            scalar_mul(0.5, coadd(a, d)) - scalar_mul(0.5, coadd(b, c)))},
        [click.option("--tol", type=float, default=COLLINEAR_AREA_TOL,
                      show_default=True, callback=_positive_finite,
                      help="Triangle area below which a, b, c count as gyrocollinear.")]),
}


def _vector_command(name, doc, call, inputs, checks, options):
    """Register the command ``name`` from its _VECTOR_COMMANDS entry."""
    vectors = [k for k in inputs if k in _VECTOR_HELP]

    def command(cfg, **args):
        values = [args.pop(k) for k in inputs]
        w = call(*values, **args)
        residuals = checks(w, *values, **args)
        cfg.emit(name, dict(zip(inputs, values)), _ball_result(w), residuals)

    for option in [common_options(*vectors), *reversed(options)]:
        command = option(command)
    cli.command(name=name, help=doc)(command)


for _name, _entry in _VECTOR_COMMANDS.items():
    _vector_command(_name, *_entry)


@cli.command()
@click.option("--mode", type=click.Choice(["vertices", "sss", "aaa"]),
              required=True)
@click.option("--a", "a_text", default=None, help="Vertex A (vertices mode).")
@click.option("--b", "b_text", default=None, help="Vertex B (vertices mode).")
@click.option("--c", "c_text", default=None, help="Vertex C (vertices mode).")
@click.option("--sides", default=None,
              help="Three side gyrolengths, comma-separated (sss mode).")
@click.option("--angles", default=None,
              help="Three gyroangles, comma-separated (aaa mode).")
@click.option("--tol", type=float, default=RIGHT_ANGLE_TOL, show_default=True,
              callback=_positive_finite,
              help="Largest |gamma - pi/2| of a right triangle, in radians.")
@_unit_option
@_out_option
@common_options()
def triangle(cfg, mode, a_text, b_text, c_text, sides, angles, tol, unit, out_unit):
    """Solve a gyrotriangle from vertices, sides (SSS) or angles (AAA)."""
    if mode == "vertices":
        if not (a_text and b_text and c_text):
            raise click.UsageError("vertices mode needs --a, --b and --c")
        tri = triangle_from_vertices(cfg.parse_vector(a_text, "a"),
                                     cfg.parse_vector(b_text, "b"),
                                     cfg.parse_vector(c_text, "c"))
        inputs = {"mode": mode, **dict(zip("abc", tri.vertices))}
    else:  # three side gyrolengths (sss) or three gyroangles (aaa)
        key, text = ("sides", sides) if mode == "sss" else ("angles", angles)
        if not text:
            raise click.UsageError(f"{mode} mode needs --{key}")
        values = [cfg.parse_speed(x, name="side") if mode == "sss"
                  else _parse_angle(x, "angle", unit) for x in text.split(",")]
        if len(values) != 3:
            raise click.UsageError(f"--{key} needs exactly three values")
        tri = (triangle_from_sides if mode == "sss" else triangle_from_angles)(*values)
        inputs = {"mode": mode, key: values}
    is_right = tri.is_right(tol)
    to_out = ANGLE_TO_RAD[out_unit]
    result = {
        "side_a": tri.side_a, "side_b": tri.side_b, "side_c": tri.side_c,
        "gamma_a": tri.gamma_a, "gamma_b": tri.gamma_b, "gamma_c": tri.gamma_c,
        **{k: getattr(tri, k) / to_out for k in ("alpha", "beta", "gamma", "defect")},
        "angle_unit": out_unit,
        "right_triangle": is_right,
    }
    angles2 = sss_to_aaa(tri.gamma_a, tri.gamma_b, tri.gamma_c)
    checks = {"sss_aaa_consistency_max_abs": max(
        abs(x - y) for x, y in zip(angles2, (tri.alpha, tri.beta, tri.gamma)))}
    if is_right:
        report = right_triangle_relations(tri, tol=tol)
        checks["right_identities_max_residual"] = report.max_residual
    cfg.emit("triangle", inputs, result, checks)


@cli.command()
@click.option("--model", type=click.Choice(list(_ABERRATION_MODELS)),
              required=True)
@click.option("--v", "v_text", required=True, help="Relative frame speed.")
@click.option("--theta-s", "theta_s_text", default=None,
              help="Angle seen from S; computes theta_e.")
@click.option("--theta-e", "theta_e_text", default=None,
              help="Angle seen from E; computes theta_s.")
@click.option("--p-s", "p_s_text", default="1", show_default=True,
              help="Particle speed in frame S (classical/relativistic).")
@click.option("--p-e", "p_e_text", default="1", show_default=True,
              help="Particle speed in frame E (inverse direction).")
@click.option("--sweep", "sweep_n", type=int, default=None,
              help="Emit a CSV sweep table with this many rows instead.")
@_unit_option
@_out_option
@common_options()
def aberration(cfg, model, v_text, theta_s_text, theta_e_text, p_s_text, p_e_text,
               sweep_n, unit, out_unit):
    """Aberration of a particle (or photon) direction between frames."""
    v = cfg.parse_speed(v_text, "v")
    p_s = cfg.parse_speed(p_s_text, "p_s")
    p_e = cfg.parse_speed(p_e_text, "p_e")
    if sweep_n is not None:
        table = aberration_sweep(v, p_s, sweep_n)
        names = table.dtype.names
        # Angle columns print in the --out unit; the offset stays in arcsec.
        scale_out = 1.0 / ANGLE_TO_RAD[out_unit]
        columns = [(table[k] if k == "offset_arcsec" else table[k] * scale_out).tolist()
                   for k in names]
        if cfg.format == "json":
            cfg.emit("aberration_sweep",
                     {"model": model, "v": v, "p": p_s, "n": sweep_n,
                      "angle_unit": out_unit},
                     [dict(zip(names, row)) for row in zip(*columns)], {})
        else:
            row_fmt = ",".join(["%.15g"] * len(names))  # each value as _fmt prints it
            click.echo("\n".join([",".join(names)] + [row_fmt % row
                                                      for row in zip(*columns)]))
        return
    if (theta_s_text is None) == (theta_e_text is None):
        raise click.UsageError("give exactly one of --theta-s or --theta-e")
    forward, inverse = _ABERRATION_MODELS[model]
    if theta_s_text is not None:
        theta_s = _parse_angle(theta_s_text, "theta_s", unit)
        theta_e = float(forward(theta_s, v, p_s))
    else:
        theta_e = _parse_angle(theta_e_text, "theta_e", unit)
        theta_s = float(inverse(theta_e, v, p_e))
    to_out = ANGLE_TO_RAD[out_unit]
    result = {
        "model": model,
        "v": v,
        "theta_s": theta_s / to_out,
        "theta_e": theta_e / to_out,
        "offset": (theta_s - theta_e) / to_out,
        "offset_arcsec": (theta_s - theta_e) * ARCSEC_PER_RAD,
        "angle_unit": out_unit,
    }
    checks = {}
    if model == "stellar":
        # The photon taken back through the other direction's formula; n/a
        # when the computed angle is too near 0 or pi for that formula.
        try:
            checks["inverse_roundtrip_abs"] = (
                abs(float(inverse(theta_e, v, 1.0)) - theta_s)
                if theta_s_text is not None
                else abs(float(forward(theta_s, v, 1.0)) - theta_e))
        except AngleDegenerate:
            checks["inverse_roundtrip_abs"] = None
    cfg.emit("aberration", {"model": model, "v": v, "p_s": p_s, "p_e": p_e},
             result, checks)


@cli.command(name="mass")
@click.option("--in", "infile", required=True,
              help="Particle file (CSV or JSON), or '-' for stdin.")
@common_options()
def mass_cmd(cfg, infile):
    """Invariant-mass decomposition of a particle system from a file."""
    try:
        if infile == "-":
            text = sys.stdin.read()
        else:
            with open(infile, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParticleFormatError(f"cannot read {infile}: {exc}") from exc
    system = parse_particles(text, c_value=cfg.c_value)
    dec = decompose(system)
    result = {"n_particles": len(system), **{k: getattr(dec, k) for k in (
        "m_newton", "m_dark", "m0", "v0", "gamma0", "energy",
        "four_momentum_residual")}}
    checks = {"four_momentum_residual": dec.four_momentum_residual,
              "mass_split_abs": abs(dec.m0 ** 2
                                    - dec.m_newton ** 2 - dec.m_dark ** 2)}
    cfg.emit("mass", {"file": infile, "c_value": cfg.c_value}, result, checks)


def main(argv=None) -> int:
    """Run the CLI, mapping exceptions onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except GyrokinError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 1 if isinstance(exc, ParticleFormatError) else 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
