"""Command-line frontend.

Every command mirrors one library call on the parsed, dimensionless inputs;
the CLI only handles units, parsing, and formatting.  Velocities are divided
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
from .ball import BetaVector, norm
from .errors import GyrokinError
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
    gyrodistance,
    gyromidpoint,
    gyroline_point,
    gyroparallelogram_fourth,
    scalar_mul,
)
from .trig import (
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


def _fmt(x) -> str:
    return format(float(x), ".15g")


def _round15(x):
    return float(_fmt(x))


class Config:
    """Per-invocation unit, tolerance, and formatting choices."""

    def __init__(self, units, c_value, fmt, unit, out_unit, tol=None):
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
        self.in_unit = unit
        self.out_unit = out_unit or "rad"
        if tol is not None and not (tol > 0.0 and math.isfinite(tol)):
            raise click.BadParameter("--tol must be positive and finite")
        self.tol = tol

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
        comps = [self.parse_speed(c, name=name) for c in text.split(",")]
        return BetaVector(np.array(comps)).components

    def parse_angle(self, text: str, name: str = "angle") -> float:
        s = text.strip()
        for suffix in ("arcsec", "deg", "rad"):
            if s.endswith(suffix):
                try:
                    return float(s[: -len(suffix)]) * ANGLE_TO_RAD[suffix]
                except ValueError:
                    raise click.BadParameter(f"cannot parse {name} value {text!r}")
        try:
            return float(s) * ANGLE_TO_RAD[self.in_unit]
        except ValueError:
            raise click.BadParameter(f"cannot parse {name} value {text!r}")

    def angle_out(self, rad: float) -> float:
        return rad / ANGLE_TO_RAD[self.out_unit]

    def emit(self, op: str, inputs: dict, result: dict, checks: dict) -> None:
        if self.format == "json":
            click.echo(json.dumps(
                {"op": op, "inputs": _jsonify(inputs),
                 "result": _jsonify(result), "checks": _jsonify(checks)},
                separators=(",", ":"),
            ))
            return
        table = self.format == "table"
        sep = ": " if table else ","

        def vec(v):
            joiner = "," if table else " "
            return joiner.join(_fmt(c) for c in np.atleast_1d(v))

        rows = {**result, **{f"check_{k}": v for k, v in checks.items()}}
        for key, value in rows.items():
            if isinstance(value, np.ndarray) and value.ndim == 2:
                if table:
                    click.echo(f"{key}:")
                    for row in value:
                        click.echo(vec(row))
                else:
                    click.echo(f"{key},{';'.join(vec(r) for r in value)}")
                continue
            if value is None:
                rendered = "n/a"
            elif isinstance(value, bool):
                rendered = "yes" if value else "no"
            elif isinstance(value, str):
                rendered = value
            elif isinstance(value, (np.ndarray, list, tuple)):
                rendered = vec(np.asarray(value))
            elif isinstance(value, (int, np.integer)):
                rendered = str(int(value))
            else:
                rendered = _fmt(value)
            click.echo(f"{key}{sep}{rendered}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, str) or obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.ndarray, list, tuple)):
        return [_jsonify(v) for v in np.asarray(obj).tolist()]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return _round15(obj)


def common_options(f):
    """Add the six shared options and call ``f`` with a ready Config first."""

    @functools.wraps(f)
    def command(units, c_value, fmt, unit, out_unit, tol, **kwargs):
        return f(Config(units, c_value, fmt, unit, out_unit, tol), **kwargs)

    for opt in reversed([
        click.option("--units", type=click.Choice(["natural", "si"]),
                     default="natural", show_default=True,
                     help="Velocity unit preset: natural (c=1) or si (m/s)."),
        click.option("--c-value", type=float, default=None,
                     help="Explicit value of c; overrides --units and GYROKIN_C."),
        click.option("--format", "fmt", type=click.Choice(["table", "json", "csv"]),
                     default="table", show_default=True),
        click.option("--unit", type=click.Choice(["rad", "deg", "arcsec"]),
                     default="rad", show_default=True,
                     help="Unit of angle arguments without an explicit suffix."),
        click.option("--out", "out_unit",
                     type=click.Choice(["rad", "deg", "arcsec"]), default=None,
                     help="Unit for printed angles (default rad)."),
        click.option("--tol", type=float, default=None,
                     help="Override degeneracy-detection tolerances."),
    ]):
        command = opt(command)
    return command


@click.group()
@click.version_option(__version__, prog_name="gyrokin")
def cli():
    """Relativistic velocity algebra on the unit ball.

    Velocities are fractions of c internally; see each command's --units,
    --c-value and angle-unit flags for I/O conventions.
    """


def _vector_result(cfg: Config, op: str, inputs: dict, w: np.ndarray,
                   checks: dict) -> None:
    result = {
        "result": w,
        "norm": float(norm(w)),
        "gamma": _maybe_gamma(w),
    }
    cfg.emit(op, inputs, result, checks)


def _maybe_gamma(w):
    try:
        return float(gamma(w))
    except GyrokinError:
        return None


@cli.command()
@click.option("--u", "u_text", required=True, help="First velocity, comma-separated.")
@click.option("--v", "v_text", required=True, help="Second velocity, comma-separated.")
@common_options
def add(cfg, u_text, v_text):
    """Einstein velocity addition u (+) v."""
    u = cfg.parse_vector(u_text, "u")
    v = cfg.parse_vector(v_text, "v")
    w = einstein_add(u, v)
    identity = float(gamma(u) * gamma(v) * (1.0 + float(np.dot(u, v))))
    checks = {"gamma_identity_rel_error": abs(float(gamma(w)) - identity) / identity}
    _vector_result(cfg, "add", {"u": u, "v": v}, w, checks)


@cli.command()
@click.option("--u", "u_text", required=True)
@click.option("--v", "v_text", required=True)
@common_options
def sub(cfg, u_text, v_text):
    """Einstein velocity subtraction u (-) v."""
    u = cfg.parse_vector(u_text, "u")
    v = cfg.parse_vector(v_text, "v")
    w = einstein_sub(u, v)
    # left cancellation: (-u) (+) (u (+) (-v)) must recover -v
    checks = {"left_cancellation_max_abs":
              float(np.max(np.abs(einstein_add(-u, w) + v)))}
    _vector_result(cfg, "sub", {"u": u, "v": v}, w, checks)


@cli.command(name="coadd")
@click.option("--u", "u_text", required=True)
@click.option("--v", "v_text", required=True)
@common_options
def coadd_cmd(cfg, u_text, v_text):
    """Einstein coaddition u [+] v (commutative)."""
    u = cfg.parse_vector(u_text, "u")
    v = cfg.parse_vector(v_text, "v")
    w = coadd(u, v)
    checks = {
        "route_agreement_max_abs":
            float(np.max(np.abs(w - coadd_via_gyration(u, v)))),
        "commutativity_max_abs": float(np.max(np.abs(w - coadd(v, u)))),
    }
    _vector_result(cfg, "coadd", {"u": u, "v": v}, w, checks)


@cli.command()
@click.option("--u", "u_text", required=True)
@click.option("--v", "v_text", required=True)
@click.option("--w", "w_text", required=True,
              help="Vector the gyration is applied to (need not be admissible).")
@common_options
def gyr(cfg, u_text, v_text, w_text):
    """Apply the gyration gyr[u, v]; prints its matrix (n <= 3) and angle."""
    u = cfg.parse_vector(u_text, "u")
    v = cfg.parse_vector(v_text, "v")
    comps = [cfg.parse_speed(c, name="w") for c in w_text.split(",")]
    w = np.asarray(comps, dtype=float)
    g = Gyration(u, v)
    out = g.apply(w)
    checks = {
        "orthogonality_norm_abs":
            abs(float(norm(out)) - float(norm(w))),
    }
    try:
        checks["definitional_vs_closed_max_abs"] = float(
            np.max(np.abs(out - gyrate_definitional(u, v, w)))
        )
    except GyrokinError:
        pass  # w outside the ball: only the closed form applies
    result = {
        "result": out,
        "norm": float(norm(out)),
        "gamma": _maybe_gamma(out),
        "rotation_angle": cfg.angle_out(g.rotation_angle()),
        "angle_unit": cfg.out_unit,
    }
    if g.dim <= 3:
        result["matrix"] = g.matrix()
    cfg.emit("gyr", {"u": u, "v": v, "w": w}, result, checks)


@cli.command()
@click.option("--r", type=float, required=True, help="Real scalar factor.")
@click.option("--v", "v_text", required=True)
@common_options
def scale(cfg, r, v_text):
    """Scalar gyromultiplication r (x) v."""
    v = cfg.parse_vector(v_text, "v")
    w = scalar_mul(r, v)
    half = scalar_mul(0.5, scalar_mul(2.0, w)) if abs(r) < 1e6 else w
    checks = {"halving_roundtrip_max_abs": float(np.max(np.abs(half - w)))}
    _vector_result(cfg, "scale", {"r": r, "v": v}, w, checks)


@cli.command()
@click.option("--a", "a_text", required=True)
@click.option("--b", "b_text", required=True)
@common_options
def distance(cfg, a_text, b_text):
    """Gyrodistance |(-a) (+) b| between two ball points (fraction of c)."""
    a = cfg.parse_vector(a_text, "a")
    b = cfg.parse_vector(b_text, "b")
    w = left_sub(a, b)
    d = float(norm(w))
    checks = {"symmetry_abs": abs(d - float(gyrodistance(b, a)))}
    cfg.emit("distance", {"a": a, "b": b},
             {"result": d, "gamma": _maybe_gamma(w)}, checks)


@cli.command()
@click.option("--a", "a_text", required=True)
@click.option("--b", "b_text", required=True)
@click.option("--t", type=float, default=0.5, show_default=True,
              help="Gyroline parameter; 0.5 gives the gyromidpoint.")
@common_options
def midpoint(cfg, a_text, b_text, t):
    """Gyromidpoint of a and b (or the gyroline point at parameter t)."""
    a = cfg.parse_vector(a_text, "a")
    b = cfg.parse_vector(b_text, "b")
    if t == 0.5:
        w = gyromidpoint(a, b)
        checks = {
            "line_form_max_abs":
                float(np.max(np.abs(w - gyroline_point(a, b, 0.5)))),
            "equidistance_abs":
                abs(float(gyrodistance(w, a)) - float(gyrodistance(w, b))),
        }
    else:
        w = gyroline_point(a, b, t)
        checks = {}
    _vector_result(cfg, "midpoint", {"a": a, "b": b, "t": t}, w, checks)


@cli.command()
@click.option("--a", "a_text", required=True)
@click.option("--b", "b_text", required=True)
@click.option("--c", "c_text", required=True)
@common_options
def parallelogram(cfg, a_text, b_text, c_text):
    """Fourth gyroparallelogram vertex d = (b [+] c) (-) a."""
    a = cfg.parse_vector(a_text, "a")
    b = cfg.parse_vector(b_text, "b")
    c = cfg.parse_vector(c_text, "c")
    if cfg.tol is not None:
        d = gyroparallelogram_fourth(a, b, c, tol=cfg.tol)
    else:
        d = gyroparallelogram_fourth(a, b, c)
    m1 = scalar_mul(0.5, coadd(a, d))
    m2 = scalar_mul(0.5, coadd(b, c))
    checks = {"diagonal_midpoint_residual": float(np.max(np.abs(m1 - m2)))}
    _vector_result(cfg, "parallelogram", {"a": a, "b": b, "c": c}, d, checks)


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
@common_options
def triangle(cfg, mode, a_text, b_text, c_text, sides, angles):
    """Solve a gyrotriangle from vertices, sides (SSS) or angles (AAA)."""
    if mode == "vertices":
        if not (a_text and b_text and c_text):
            raise click.UsageError("vertices mode needs --a, --b and --c")
        tri = triangle_from_vertices(cfg.parse_vector(a_text, "a"),
                                     cfg.parse_vector(b_text, "b"),
                                     cfg.parse_vector(c_text, "c"))
        inputs = {"mode": mode, "a": tri.vertices[0], "b": tri.vertices[1],
                  "c": tri.vertices[2]}
    elif mode == "sss":
        if not sides:
            raise click.UsageError("sss mode needs --sides")
        s = [cfg.parse_speed(x, name="side") for x in sides.split(",")]
        if len(s) != 3:
            raise click.UsageError("--sides needs exactly three values")
        tri = triangle_from_sides(*s)
        inputs = {"mode": mode, "sides": s}
    else:
        if not angles:
            raise click.UsageError("aaa mode needs --angles")
        ang = [cfg.parse_angle(x, name="angle") for x in angles.split(",")]
        if len(ang) != 3:
            raise click.UsageError("--angles needs exactly three values")
        tri = triangle_from_angles(*ang)
        inputs = {"mode": mode, "angles": ang}
    is_right = tri.is_right(cfg.tol) if cfg.tol is not None else tri.is_right()
    result = {
        "side_a": tri.side_a, "side_b": tri.side_b, "side_c": tri.side_c,
        "gamma_a": tri.gamma_a, "gamma_b": tri.gamma_b, "gamma_c": tri.gamma_c,
        "alpha": cfg.angle_out(tri.alpha),
        "beta": cfg.angle_out(tri.beta),
        "gamma": cfg.angle_out(tri.gamma),
        "defect": cfg.angle_out(tri.defect),
        "angle_unit": cfg.out_unit,
        "right_triangle": is_right,
    }
    checks = {}
    alpha2, beta2, gamma2 = sss_to_aaa(tri.gamma_a, tri.gamma_b, tri.gamma_c)
    checks["sss_aaa_consistency_max_abs"] = max(
        abs(alpha2 - tri.alpha), abs(beta2 - tri.beta), abs(gamma2 - tri.gamma)
    )
    if is_right:
        report = right_triangle_relations(
            tri, tol=cfg.tol if cfg.tol is not None else 1e-8
        )
        checks["right_identities_max_residual"] = report.max_residual
    cfg.emit("triangle", inputs, result, checks)


@cli.command()
@click.option("--model", type=click.Choice(["classical", "relativistic", "stellar"]),
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
@common_options
def aberration(cfg, model, v_text, theta_s_text, theta_e_text, p_s_text, p_e_text,
               sweep_n):
    """Aberration of a particle (or photon) direction between frames."""
    v = cfg.parse_speed(v_text, "v")
    p_s = cfg.parse_speed(p_s_text, "p_s")
    p_e = cfg.parse_speed(p_e_text, "p_e")
    if sweep_n is not None:
        table = aberration_sweep(v, p_s, sweep_n)
        scale_out = 1.0 / ANGLE_TO_RAD[cfg.out_unit]
        if cfg.format == "json":
            rows = [
                {
                    "theta_s": _round15(r["theta_s"] * scale_out),
                    "theta_e_classical": _round15(r["theta_e_classical"] * scale_out),
                    "theta_e_relativistic":
                        _round15(r["theta_e_relativistic"] * scale_out),
                    "offset_arcsec": _round15(r["offset_arcsec"]),
                }
                for r in table
            ]
            click.echo(json.dumps(
                {"op": "aberration_sweep",
                 "inputs": _jsonify({"model": model, "v": v, "p": p_s,
                                     "n": sweep_n, "angle_unit": cfg.out_unit}),
                 "result": rows, "checks": {}},
                separators=(",", ":")))
        else:
            click.echo("theta_s,theta_e_classical,theta_e_relativistic,offset_arcsec")
            for r in table:
                click.echo(",".join((
                    _fmt(r["theta_s"] * scale_out),
                    _fmt(r["theta_e_classical"] * scale_out),
                    _fmt(r["theta_e_relativistic"] * scale_out),
                    _fmt(r["offset_arcsec"]),
                )))
        return
    if (theta_s_text is None) == (theta_e_text is None):
        raise click.UsageError("give exactly one of --theta-s or --theta-e")
    forward = theta_s_text is not None
    if forward:
        theta_in = cfg.parse_angle(theta_s_text, "theta_s")
        if model == "classical":
            theta_out = float(classical_aberration(theta_in, v, p_s))
        elif model == "relativistic":
            theta_out = float(relativistic_aberration(theta_in, v, p_s))
        else:
            theta_out = float(stellar_aberration(theta_in, v))
        theta_s, theta_e = theta_in, theta_out
    else:
        theta_in = cfg.parse_angle(theta_e_text, "theta_e")
        if model == "classical":
            theta_out = float(classical_aberration_inv(theta_in, v, p_e))
        elif model == "relativistic":
            theta_out = float(relativistic_aberration_inv(theta_in, v, p_e))
        else:
            theta_out = float(stellar_aberration_inv(theta_in, v))
        theta_s, theta_e = theta_out, theta_in
    result = {
        "model": model,
        "v": v,
        "theta_s": cfg.angle_out(theta_s),
        "theta_e": cfg.angle_out(theta_e),
        "offset": cfg.angle_out(theta_s - theta_e),
        "offset_arcsec": (theta_s - theta_e) * ARCSEC_PER_RAD,
        "angle_unit": cfg.out_unit,
    }
    checks = {}
    if model == "stellar":
        checks["relativistic_p1_equivalence_abs"] = abs(
            float(relativistic_aberration(theta_s, v, 1.0)) - theta_e
        ) if forward else abs(
            float(relativistic_aberration_inv(theta_e, v, 1.0)) - theta_s
        )
    cfg.emit("aberration", {"model": model, "v": v, "p_s": p_s, "p_e": p_e},
             result, checks)


@cli.command(name="mass")
@click.option("--in", "infile", required=True,
              help="Particle file (CSV or JSON), or '-' for stdin.")
@common_options
def mass_cmd(cfg, infile):
    """Invariant-mass decomposition of a particle system from a file."""
    if infile == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParticleFormatError(f"cannot read {infile}: {exc}") from exc
    system = parse_particles(text, c_value=cfg.c_value)
    dec = decompose(system)
    result = {
        "n_particles": len(system),
        "m_newton": dec.m_newton,
        "m_dark": dec.m_dark,
        "m0": dec.m0,
        "v0": dec.v0,
        "gamma0": dec.gamma0,
        "energy": dec.energy,
        "four_momentum_residual": dec.four_momentum_residual,
    }
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
    except ParticleFormatError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 1
    except GyrokinError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
