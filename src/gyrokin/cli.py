"""Command-line frontend.

Every command mirrors one library call on the parsed, dimensionless inputs;
the CLI only handles units, parsing, and formatting.  One decorator,
``_command``, declares every command: it registers it, gives it its own
options, its velocity options and the three shared ones, builds the Config
and parses the velocities, then emits the (op, inputs, result, checks) that
the command's body returns.  A body is its library call, its result and its
checks.  The commands whose result is one ball vector come from one table,
``_VECTOR_COMMANDS``; ``triangle`` reads its modes and ``aberration`` its two
directions from tables too.  Velocities are divided by the working value of c
at ingestion (so in natural units they are entered as fractions of c, in SI
as m/s) and all printed velocities are fractions of c.  Floats print with 15
significant digits in every output format.

Exit codes: 0 on success, 1 on parse/file-format errors, 2 on admissibility,
dimension, or geometric-validity errors.

The core modules (``ball``, ``errors``, ``gyro``) load with this module; a
command imports the composite modules it calls (``space``, ``trig``,
``aberration``, ``mass``) when it runs, so each start of the program
compiles and runs only the library code its command uses.  numpy's code
runs only in a command that makes an array or calls a numpy function:
velocities parse to lists of Python floats, and ``add``, ``sub``,
``coadd``, ``distance``, ``gyr``, ``scale``, ``midpoint`` and
``parallelogram`` compute and check in floats, by the checked one-vector
routes of their operations (``ball._operation``'s ``floats``), with the
bits of the library's arrays, and print them.  ``gyr`` runs a Gyration's
kernels so: its generators' check, ``apply``'s route, its matrix and its
angle.  Of these, ``scale``, and ``midpoint`` at a ``--t`` other than 0.5,
run numpy's code, through ``np.tanh`` in ``scalar_mul``; the others, and
``triangle`` from sides or angles, run none.  ``triangle`` from vertices,
``aberration`` and ``mass`` run numpy's code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys

import click

from . import __version__
from .ball import COLLINEAR_AREA_TOL, RIGHT_ANGLE_TOL, _dot, _neg, _norm
from .errors import AngleDegenerate, GyrokinError, NoSuchTriangle, ParticleFormatError
from .gyro import (_checked_apply, _checked_generators, _gyr_columns, _gyr_factors,
                   _rotation_angle, coadd, coadd_via_gyration, einstein_add, einstein_sub, gamma,
                   gyrate_definitional, left_sub)

SI_C = 299792458.0

ANGLE_TO_RAD = {
    "rad": 1.0,
    "deg": math.pi / 180.0,
    "arcsec": math.pi / (180.0 * 3600.0),
}

# The models of `aberration`.  Each one's formulas are <model>_aberration and
# its inverse <model>_aberration_inv, called as f(theta, v, p); the stellar
# pair is the photon case and takes no p.
_ABERRATION_MODELS = ("classical", "relativistic", "stellar")

# The checked one-vector routes, on lists of floats, of the velocity operations
# the float commands run (ball._operation's ``floats``).  They are read once,
# here: a wrapper that stands in for a public function later (a profiler's,
# say) need not carry the attribute.
(_add_floats, _sub_floats, _coadd_floats, _coadd_via_gyration_floats, _gamma_floats,
 _gyrate_definitional_floats, _left_sub_floats) = (op.floats for op in (
    einstein_add, einstein_sub, coadd, coadd_via_gyration, gamma, gyrate_definitional, left_sub))


def _lib(module):
    """The library module ``module``, imported when a command first calls it."""
    return importlib.import_module(f"{__package__}.{module}")


def _floats(module, name):
    """The checked floats route of the operation ``name`` of the library module ``module``.

    The module is imported when a command first calls it (_lib), by which
    time a wrapper (a profiler's, say) may stand in for the operation: the
    route is read from the first function along the ``__wrapped__`` chain
    that carries one.
    """
    return inspect.unwrap(getattr(_lib(module), name), stop=lambda f: hasattr(f, "floats")).floats


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

    def parse_vector(self, text: str, name: str = "vector") -> list:
        """Comma-separated speeds as a list of floats; the library validates it."""
        return [self.parse_speed(c, name=name) for c in text.split(",")]

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
    """``obj`` as JSON carries it: numpy arrays and numbers as Python lists and numbers."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, str) or obj is None or isinstance(obj, bool):
        return obj
    if hasattr(obj, "tolist"):  # a numpy array or number
        return _jsonify(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, int):
        return obj
    return float(_fmt(obj))  # rounded to the 15 digits printed


# --help text of the velocity options that _command declares.
_VECTOR_HELP = {
    **{name: f"Velocity {name}, comma-separated." for name in "uv"},
    **{name: f"Ball point {name}, comma-separated." for name in "abc"},
    "w": "Vector the gyration is applied to, comma-separated (need not be admissible).",
}

# The three options every command reads, last in each command's option list.
_SHARED_OPTIONS = [
    click.Option(["--units"], type=click.Choice(["natural", "si"]),
                 default="natural", show_default=True,
                 help="Velocity unit preset: natural (c=1) or si (m/s)."),
    click.Option(["--c-value"], type=float, default=None,
                 help="Explicit value of c; overrides --units and GYROKIN_C."),
    click.Option(["--format", "fmt"], type=click.Choice(["table", "json", "csv"]),
                 default="table", show_default=True),
]


def _command(name, *velocities, options=()):
    """Register the decorated body as the command ``name``.

    The command takes ``options``, then a required --<name> for each of
    ``velocities``, then the shared options.  The body is called with the
    invocation's Config and its options by name, each of ``velocities`` parsed
    by that Config.  It returns the (op, inputs, result, checks) to emit, or
    None once it has printed its output itself."""

    def decorate(body):
        def command(units, c_value, fmt, **kwargs):
            cfg = Config(units, c_value, fmt)
            kwargs.update((k, cfg.parse_vector(kwargs[k], k)) for k in velocities)
            emitted = body(cfg, **kwargs)
            if emitted is not None:
                cfg.emit(*emitted)

        params = [*options, *(click.Option([f"--{k}"], required=True, help=_VECTOR_HELP[k])
                              for k in velocities), *_SHARED_OPTIONS]
        cli.add_command(click.Command(name, callback=command, params=params, help=body.__doc__))
        return cli.commands[name]

    return decorate


def _positive_finite(ctx, param, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise click.BadParameter("must be positive and finite")
    return value


_ANGLE_UNITS = click.Choice(list(ANGLE_TO_RAD))

_unit_option = click.Option(
    ["--unit"], type=_ANGLE_UNITS, default="rad", show_default=True,
    help="Unit of angle arguments without an explicit suffix.")

_out_option = click.Option(
    ["--out", "out_unit"], type=_ANGLE_UNITS, default="rad", show_default=True,
    help="Unit for printed angles.")


@click.group()
@click.version_option(__version__, prog_name="gyrokin")
def cli():
    """Relativistic velocity algebra on the unit ball.

    Velocities are fractions of c internally; see each command's --units,
    --c-value and angle-unit flags for I/O conventions.
    """


def _maybe_gamma(w):
    """The gamma of the list of floats ``w``, or None past the ball."""
    try:
        return _gamma_floats(w)
    except GyrokinError:
        return None


def _ball_result(w) -> dict:
    """A ball vector, a list of floats, as printed: w, its norm, and its gamma."""
    return {"result": w, "norm": _norm(w), "gamma": _maybe_gamma(w)}


def _max_gap(x, y) -> float:
    """The largest |x_i - y_i| of two vectors, lists of floats."""
    return max(abs(a - b) for a, b in zip(x, y))


@_command("gyr", "u", "v", "w", options=[_out_option])
def gyr(cfg, u, v, w, out_unit):
    """Apply the gyration gyr[u, v]; prints its matrix (n <= 3) and angle."""
    # Gyration(u, v).apply(w), its angle and its matrix, by their kernels' floats.
    _, n2 = _checked_generators.floats(u, v)
    factors = _gyr_factors(u, v, n2)
    out = _checked_apply.floats(u, w, v=v, factors=factors)
    checks = {"orthogonality_norm_abs": abs(_norm(out) - _norm(w))}
    try:
        checks["definitional_vs_closed_max_abs"] = _max_gap(
            out, _gyrate_definitional_floats(u, v, w))
    except GyrokinError:
        pass  # w outside the ball: only the closed form applies
    result = {
        **_ball_result(out),
        "rotation_angle": _rotation_angle(u, v, n2, factors) / ANGLE_TO_RAD[out_unit],
        "angle_unit": out_unit,
    }
    if len(u) <= 3:
        result["matrix"] = list(zip(*_gyr_columns(u, v, factors)))  # its rows
    return "gyr", {"u": u, "v": v, "w": w}, result, checks


@_command("distance", "a", "b")
def distance(cfg, a, b):
    """Gyrodistance |(-a) (+) b| between two ball points (fraction of c)."""
    w = _left_sub_floats(a, b)
    d = _norm(w)
    # gyrodistance(b, a), by its own kernel: the norm of (-b) (+) a.
    checks = {"symmetry_abs": abs(d - _norm(_left_sub_floats(b, a)))}
    return "distance", {"a": a, "b": b}, {"result": d, "gamma": _maybe_gamma(w)}, checks


def _add_checks(w, u, v):
    # u.v in the kernels' order (_dot), not np.dot's
    identity = _gamma_floats(u) * _gamma_floats(v) * (1.0 + _dot(u, v))
    g = _maybe_gamma(w)  # None once the sum has left the ball
    return {"gamma_identity_rel_error": None if g is None else abs(g - identity) / identity}


def _scale_checks(w, r, v):
    scalar_mul = _floats("space", "scalar_mul")
    half = scalar_mul(0.5, scalar_mul(2.0, w)) if abs(r) < 1e6 else w
    return {"halving_roundtrip_max_abs": _max_gap(half, w)}


def _midpoint_checks(w, a, b, t):
    if t != 0.5:
        return {}
    # The line form a (+) 1/2 (x) g of g = (-a) (+) b, with 1/2 (x) g = gamma_g g/(1 + gamma_g).
    g = _left_sub_floats(a, b)
    gg = _gamma_floats(g)
    line_form = _add_floats(a, [gg * x / (1.0 + gg) for x in g])
    distance = _floats("space", "gyrodistance")
    return {"line_form_max_abs": _max_gap(w, line_form),
            "equidistance_abs": abs(distance(w, a) - distance(w, b))}


def _parallelogram_checks(d, a, b, c, tol):
    # The diagonals ad and bc share their gyromidpoint, 1/2 (x) their coadditions.
    return {"diagonal_midpoint_residual": _max_gap(_coadd_floats(a, d), _coadd_floats(b, c))}


# The commands whose result is one ball vector w, printed with its norm and gamma.
# Each entry is (docstring, call, its positional input names in order,
# checks(w, *inputs, **opts), the command's own click options).  The call
# takes the inputs, velocities as lists of floats, and returns w as one: it is
# an operation's checked floats route.  The inputs named in _VECTOR_HELP are
# velocities that _command parses; the other inputs and the keyword opts are
# the command's own options.
_VECTOR_COMMANDS = {
    "add": ("Einstein velocity addition u (+) v.", _add_floats, ("u", "v"),
            _add_checks, []),
    "sub": ("Einstein velocity subtraction u (-) v.", _sub_floats, ("u", "v"),
            # left cancellation: (-u) (+) (u (+) (-v)) must recover -v
            lambda w, u, v: {"left_cancellation_max_abs":
                             _max_gap(_add_floats(_neg(u), w), _neg(v))}, []),
    "coadd": ("Einstein coaddition u [+] v (commutative).", _coadd_floats, ("u", "v"),
              lambda w, u, v: {
                  "route_agreement_max_abs": _max_gap(w, _coadd_via_gyration_floats(u, v)),
                  "commutativity_max_abs": _max_gap(w, _coadd_floats(v, u))}, []),
    "scale": ("Scalar gyromultiplication r (x) v.",
              lambda r, v: _floats("space", "scalar_mul")(r, v), ("r", "v"),
              _scale_checks, [click.Option(["--r"], type=float, required=True,
                                           help="Real scalar factor.")]),
    "midpoint": ("Gyromidpoint of a and b (or the gyroline point at parameter t).",
                 lambda a, b, t: (_floats("space", "gyromidpoint")(a, b) if t == 0.5
                                  else _floats("space", "gyroline_point")(a, b, t)),
                 ("a", "b", "t"), _midpoint_checks,
                 [click.Option(["--t"], type=float, default=0.5, show_default=True,
                               help="Gyroline parameter; 0.5 gives the gyromidpoint.")]),
    "parallelogram": (
        "Fourth gyroparallelogram vertex d = (b [+] c) (-) a.",
        lambda a, b, c, tol: _floats("space", "gyroparallelogram_fourth")(a, b, c, tol=tol),
        ("a", "b", "c"), _parallelogram_checks,
        [click.Option(["--tol"], type=float, default=COLLINEAR_AREA_TOL,
                      show_default=True, callback=_positive_finite,
                      help="Triangle area below which a, b, c count as gyrocollinear.")]),
}


def _vector_command(name, doc, call, inputs, checks, options):
    """Register the command ``name`` from its _VECTOR_COMMANDS entry."""

    def command(cfg, **args):
        values = [args.pop(k) for k in inputs]
        w = call(*values, **args)
        return name, dict(zip(inputs, values)), _ball_result(w), checks(w, *values, **args)

    command.__doc__ = doc
    _command(name, *(k for k in inputs if k in _VECTOR_HELP), options=options)(command)


for _name, _entry in _VECTOR_COMMANDS.items():
    _vector_command(_name, *_entry)


def _three(text, key, parse):
    """The three comma-separated values of --<key>, each read by ``parse``."""
    values = [parse(x) for x in text.split(",")]
    if len(values) != 3:
        raise click.UsageError(f"--{key} needs exactly three values")
    return values


# The modes of `triangle`: mode -> (the options it reads, its solver).  The
# solver takes the trig module, then the three vertices, or the three numbers
# of --sides or --angles.
_TRIANGLE_MODES = {
    "vertices": (("a", "b", "c"), lambda trig, a, b, c: trig.triangle_from_vertices(a, b, c)),
    "sss": (("sides",), lambda trig, sides: trig.triangle_from_sides(*sides)),
    "aaa": (("angles",), lambda trig, angles: trig.triangle_from_angles(*angles)),
}


@_command("triangle", options=[
    click.Option(["--mode"], type=click.Choice(list(_TRIANGLE_MODES)), required=True),
    *(click.Option([f"--{k}"], help=f"Vertex {k.upper()} (vertices mode).") for k in "abc"),
    click.Option(["--sides"], help="Three side gyrolengths, comma-separated (sss mode)."),
    click.Option(["--angles"], help="Three gyroangles, comma-separated (aaa mode)."),
    click.Option(["--tol"], type=float, default=RIGHT_ANGLE_TOL, show_default=True,
                 callback=_positive_finite,
                 help="Largest |gamma - pi/2| of a right triangle, in radians."),
    _unit_option, _out_option])
def triangle(cfg, mode, tol, unit, out_unit, **texts):
    """Solve a gyrotriangle from vertices, sides (SSS) or angles (AAA)."""
    keys, solve = _TRIANGLE_MODES[mode]
    if not all(texts[k] for k in keys):
        *rest, last = (f"--{k}" for k in keys)
        raise click.UsageError(f"{mode} mode needs "
                               + (", ".join(rest) + " and " if rest else "") + last)
    number = {"sides": lambda x: cfg.parse_speed(x, name="side"),
              "angles": lambda x: _parse_angle(x, "angle", unit)}
    inputs = {k: _three(texts[k], k, number[k]) if k in number
              else cfg.parse_vector(texts[k], k) for k in keys}
    trig = _lib("trig")
    tri = solve(trig, *inputs.values())
    is_right = tri.is_right(tol)
    to_out = ANGLE_TO_RAD[out_unit]
    result = {
        "side_a": tri.side_a, "side_b": tri.side_b, "side_c": tri.side_c,
        "gamma_a": tri.gamma_a, "gamma_b": tri.gamma_b, "gamma_c": tri.gamma_c,
        **{k: getattr(tri, k) / to_out for k in ("alpha", "beta", "gamma", "defect")},
        "angle_unit": out_unit,
        "right_triangle": is_right,
    }
    gammas, angles = (tri.gamma_a, tri.gamma_b, tri.gamma_c), (tri.alpha, tri.beta, tri.gamma)
    # sss mode's angles come from sss_to_aaa, so its check takes them back to
    # side gammas; n/a where aaa_to_sss rejects them.
    convert, given, want = ((trig.aaa_to_sss, angles, gammas) if mode == "sss"
                            else (trig.sss_to_aaa, gammas, angles))
    try:
        consistency = max(abs(x - y) for x, y in zip(convert(*given), want))
    except NoSuchTriangle:
        consistency = None
    checks = {"sss_aaa_consistency_max_abs": consistency}
    if is_right:
        report = trig.right_triangle_relations(tri, tol=tol)
        checks["right_identities_max_residual"] = report.max_residual
    return "triangle", {"mode": mode, **inputs}, result, checks


# The two directions of `aberration`: the angle given -> (the angle computed,
# the particle speed the formula takes, the index of that formula in the
# model's (forward, inverse) pair).
_ABERRATION_DIRECTIONS = {
    "theta_s": ("theta_e", "p_s", 0),
    "theta_e": ("theta_s", "p_e", 1),
}


@_command("aberration", options=[
    click.Option(["--model"], type=click.Choice(_ABERRATION_MODELS), required=True),
    click.Option(["--v"], required=True, help="Relative frame speed."),
    click.Option(["--theta-s"], help="Angle seen from S; computes theta_e."),
    click.Option(["--theta-e"], help="Angle seen from E; computes theta_s."),
    click.Option(["--p-s"], default="1", show_default=True,
                 help="Particle speed in frame S (classical/relativistic)."),
    click.Option(["--p-e"], default="1", show_default=True,
                 help="Particle speed in frame E (inverse direction)."),
    click.Option(["--sweep", "sweep_n"], type=int,
                 help="Emit a CSV sweep table with this many rows instead."),
    _unit_option, _out_option])
def aberration(cfg, model, sweep_n, unit, out_unit, **texts):
    """Aberration of a particle (or photon) direction between frames."""
    lib = _lib("aberration")
    speeds = {k: cfg.parse_speed(texts[k], k) for k in ("v", "p_s", "p_e")}
    v = speeds["v"]
    if sweep_n is not None:
        table = lib.aberration_sweep(v, speeds["p_s"], sweep_n)
        names = table.dtype.names
        # Angle columns print in the --out unit; the offset stays in arcsec.
        scale_out = 1.0 / ANGLE_TO_RAD[out_unit]
        columns = [(table[k] if k == "offset_arcsec" else table[k] * scale_out).tolist()
                   for k in names]
        if cfg.format == "json":
            return ("aberration_sweep",
                    {"model": model, "v": v, "p": speeds["p_s"], "n": sweep_n,
                     "angle_unit": out_unit},
                    [dict(zip(names, row)) for row in zip(*columns)], {})
        row_fmt = ",".join(["%.15g"] * len(names))  # each value as _fmt prints it
        click.echo("\n".join([",".join(names)] + [row_fmt % row for row in zip(*columns)]))
        return None
    named = [k for k in _ABERRATION_DIRECTIONS if texts[k] is not None]
    if len(named) != 1:
        raise click.UsageError("give exactly one of --theta-s or --theta-e")
    given = named[0]
    computed, speed, index = _ABERRATION_DIRECTIONS[given]
    formulas = [getattr(lib, f"{model}_aberration{suffix}") for suffix in ("", "_inv")]
    p = () if model == "stellar" else (speeds[speed],)
    angle = {given: _parse_angle(texts[given], given, unit)}
    angle[computed] = float(formulas[index](angle[given], v, *p))
    offset = angle["theta_s"] - angle["theta_e"]
    to_out = ANGLE_TO_RAD[out_unit]
    result = {
        "model": model,
        "v": v,
        **{k: angle[k] / to_out for k in ("theta_s", "theta_e")},
        "offset": offset / to_out,
        "offset_arcsec": offset * lib.ARCSEC_PER_RAD,
        "angle_unit": out_unit,
    }
    checks = {}
    if model == "stellar":
        # The photon taken back through the other direction's formula; n/a
        # when the computed angle is too near 0 or pi for that formula.
        try:
            checks["inverse_roundtrip_abs"] = abs(
                float(formulas[1 - index](angle[computed], v)) - angle[given])
        except AngleDegenerate:
            checks["inverse_roundtrip_abs"] = None
    return "aberration", {"model": model, **speeds}, result, checks


@_command("mass", options=[click.Option(
    ["--in", "infile"], required=True, help="Particle file (CSV or JSON), or '-' for stdin.")])
def mass_cmd(cfg, infile):
    """Invariant-mass decomposition of a particle system from a file."""
    from .mass import decompose, parse_particles

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
    return "mass", {"file": infile, "c_value": cfg.c_value}, result, checks


def main(argv=None) -> int:
    """Run the CLI, mapping exceptions onto the documented exit codes.

    Outside standalone mode click returns the code of a ctx.exit (which
    --help and --version make too), and a command's own return value, None,
    when it ends normally.
    """
    try:
        code = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except GyrokinError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 1 if isinstance(exc, ParticleFormatError) else 2
    return code if isinstance(code, int) else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
