"""Particle and stellar aberration, classically and relativistically.

Scenario: frames E and S in relative motion with speed ``v`` (E observes S
receding along the reference axis), and a particle P whose velocity makes
angle ``theta_e`` with that axis as seen from E and ``theta_s`` as seen from
S; ``p_e`` and ``p_s`` are the particle's speeds in the two frames.  All
speeds are fractions of c and all angles are radians in (0, pi).

The classical formulas relate cotangents with a velocity shift; the
relativistic ones differ by a single gamma factor on the shifted cotangent.
Every function evaluates through atan2 on a (sin, cos) rearrangement, so the
cot singularity at theta = pi/2 never appears, and broadcasts over arrays.
Each formula is declared with its three arguments as reals (ball._declare),
and the two stellar ones call the relativistic pair: a batch longer than
ball._BLOCK rows is checked and evaluated in row blocks, and its first
failing block raises.

The geometric construction in :func:`aberration_scene` rebuilds the same
scenario from raw velocity-ball points and gyroangle measurements, with no
reference to the formulas, so the two routes can validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ball import (_REAL, _SINGLE_REAL, _declare, _norm, _norm_sq_checked, _parameters, _record,
                   _require, np)
from .errors import AdmissibilityError, AngleDegenerate, DimensionError
from .gyro import _add, _gamma_of_speed, _gyroangle

ARCSEC_PER_RAD = 180.0 * 3600.0 / math.pi

# sin(theta) below this degenerates the cotangent relations.
SIN_TOL = 1e-14


# The range checks below take float arrays, numpy floats or Python floats,
# coerced by the checked boundaries, and raise through _require, so that a
# batch's error names its first failing row.

def _check_angle(theta, name):
    """sin(theta), once theta lies strictly inside (0, pi) and sin(theta) >= SIN_TOL."""
    _require((theta > 0.0) & (theta < math.pi), AngleDegenerate,
             "must lie strictly between 0 and pi", name)
    sin = np.sin(theta)
    _require(sin >= SIN_TOL, AngleDegenerate, "vanishes; formulas degenerate",
             f"sin({name})")
    return sin


def _check_speed(s, name, *, allow_light=False):
    """A speed in [0, 1), or in [0, 1] with ``allow_light``; NaN and inf fail the comparisons."""
    _require((s >= 0.0) & ((s <= 1.0) if allow_light else (s < 1.0)), AdmissibilityError,
             "must lie in [0, 1]" if allow_light else "must lie in [0, 1)", name)


def _check_positive(p, name):
    """A classical particle speed: any positive finite value."""
    _require((p > 0.0) & np.isfinite(p), AdmissibilityError, "must be positive and finite",
             name)


def _aberration(shift, relativistic):
    """Declare the decorated formula: atan2(p sin(theta), g shift(p cos(theta), v)).

    g is gamma_v in the relativistic formulas, whose particle speed may reach
    1, and 1 in the classical ones, whose particle speed may be any positive
    value and whose frame speed may reach 1.
    """
    def declare(formula):
        angle, _, speed = _parameters(formula)[0]

        def kernel(theta, v, p):
            sin = _check_angle(theta, angle)
            _check_speed(v, "v", allow_light=not relativistic)
            if not relativistic:
                _check_positive(p, speed)
                return np.arctan2(p * sin, shift(p * np.cos(theta), v))
            _check_speed(p, speed, allow_light=True)
            _require(p > 0.0, AdmissibilityError, "must be positive", speed)
            return np.arctan2(p * sin, _gamma_of_speed(v) * shift(p * np.cos(theta), v))

        return _declare(kernel, _REAL)(formula)

    return declare


@_aberration(np.add, relativistic=False)
def classical_aberration(theta_s, v, p_s):
    """theta_e from cot(theta_e) = cot(theta_s) + v/(p_s sin(theta_s))."""


@_aberration(np.subtract, relativistic=False)
def classical_aberration_inv(theta_e, v, p_e):
    """theta_s from cot(theta_s) = cot(theta_e) - v/(p_e sin(theta_e))."""


@_aberration(np.add, relativistic=True)
def relativistic_aberration(theta_s, v, p_s):
    """theta_e from cot(theta_e) = gamma_v (cot(theta_s) + v/(p_s sin(theta_s))).

    Speeds of exactly 1 are admitted for photons; then the formula is the
    stellar aberration formula.
    """


@_aberration(np.subtract, relativistic=True)
def relativistic_aberration_inv(theta_e, v, p_e):
    """theta_s from cot(theta_s) = gamma_v (cot(theta_e) - v/(p_e sin(theta_e)))."""


def stellar_aberration(theta_s, v):
    """Photon case: cot(theta_e) = gamma_v (cos(theta_s) + v)/sin(theta_s).

    Identical to :func:`relativistic_aberration` with p_s = 1.
    """
    return relativistic_aberration(theta_s, v, 1.0)


def stellar_aberration_inv(theta_e, v):
    """Photon case inverse: cot(theta_s) = gamma_v (cos(theta_e) - v)/sin(theta_e)."""
    return relativistic_aberration_inv(theta_e, v, 1.0)


def _classical_matched(theta_s, theta_e, p_s):
    """p_s sin(theta_s)/sin(theta_e), once the angles and p_s pass their checks."""
    sin_s = _check_angle(theta_s, "theta_s")
    sin_e = _check_angle(theta_e, "theta_e")
    _check_positive(p_s, "p_s")
    return p_s * sin_s / sin_e


@_declare(_classical_matched, _REAL)
def classical_matched_p_e(theta_s, theta_e, p_s):
    """p_e consistent with the law of sines p_s/sin(theta_e) = p_e/sin(theta_s)."""


def _relativistic_matched(theta_s, theta_e, p_s):
    """x/sqrt(1 + x^2), x = gamma_{p_s} p_s sin(theta_s)/sin(theta_e), once checked."""
    sin_s = _check_angle(theta_s, "theta_s")
    sin_e = _check_angle(theta_e, "theta_e")
    _check_speed(p_s, "p_s")
    x = _gamma_of_speed(p_s) * p_s * sin_s / sin_e
    return x / np.sqrt(1.0 + x * x)


@_declare(_relativistic_matched, _REAL)
def relativistic_matched_p_e(theta_s, theta_e, p_s):
    """p_e consistent with the law of gyrosines.

    gamma_{p_s} p_s / sin(theta_e) = gamma_{p_e} p_e / sin(theta_s); the
    momentum-like product gamma*p determines the speed uniquely.
    """


@dataclass(frozen=True, eq=False)
class AberrationResult:
    """One aberration scenario: paired angles with the speeds involved."""

    v: float
    p_e: float
    p_s: float
    theta_e: float
    theta_s: float

    @property
    def offset(self) -> float:
        """Aberration shift theta_s - theta_e in radians."""
        return self.theta_s - self.theta_e

    @property
    def offset_arcsec(self) -> float:
        return self.offset * ARCSEC_PER_RAD


def _scene(v, p_s, theta_s) -> AberrationResult:
    """aberration_scene of three Python floats."""
    _check_angle(theta_s, "theta_s")
    if v < 0.0:
        raise AdmissibilityError("must lie in [0, 1)", name="v")
    if v == 0.0:
        raise AngleDegenerate("must be positive; E and S coincide otherwise", name="v")
    if p_s <= 0.0:
        raise AdmissibilityError("must be positive", name="p_s")
    sun = [v, 0.0]
    # At S the gyroline ES continues along +x (gyrolines are chords), so the
    # particle gyrovector at S is p_s at Euclidean angle theta_s from +x.
    w_s = [p_s * math.cos(theta_s), p_s * math.sin(theta_s)]
    # Each velocity of the scene is checked once, under its own name: speeds
    # just below 1 can leave the ball, and so can their composition.
    particle = _add(sun, w_s, [_norm_sq_checked(sun, "v"), _norm_sq_checked(w_s, "p_s")])
    _norm_sq_checked(particle, "v (+) p_s")
    # E sits at the origin, so the gyrovectors from E are S and P themselves.
    p_e = _norm(particle)
    return _record(AberrationResult, v=v, p_e=p_e, p_s=p_s, theta_s=theta_s,
                   theta_e=_gyroangle(sun, particle, _norm(sun), p_e))


@_declare(_scene, _SINGLE_REAL)
def aberration_scene(v, p_s, theta_s) -> AberrationResult:
    """Rebuild the aberration scenario geometrically in a velocity plane.

    E sits at the origin, S at distance ``v`` along the reference axis, and P
    is placed so that the gyrovector from S to P has gyrolength ``p_s`` and
    makes angle ``theta_s`` with the outgoing direction of the gyroline ES at
    S.  ``theta_e`` is then *measured* as the gyroangle at E between S and P,
    and ``p_e`` as the gyrodistance from E to P.

    The construction uses only velocity composition and gyroangle
    measurement, which makes it an independent witness for the cotangent
    formulas (and thereby for the gyroparallelogram/gyrotriangle view of
    velocity composition).
    """


def _sweep(v, p, n):
    """aberration_sweep of three Python floats."""
    if n < 2 or not n.is_integer():
        raise DimensionError(f"must be {'at least 2' if n < 2 else 'whole'}", name="n_samples")
    n_samples = int(n)
    try:
        k = np.arange(1, n_samples + 1, dtype=float)
    except (MemoryError, ValueError) as exc:  # numpy refuses the size, or cannot allocate it
        raise DimensionError(f"is too large to tabulate: {exc}", name="n_samples") from exc
    theta_s = math.pi * k / (n_samples + 1)
    theta_cl = classical_aberration(theta_s, v, p)
    theta_rel = relativistic_aberration(theta_s, v, p)
    out = np.zeros(n_samples, dtype=[
        ("theta_s", float),
        ("theta_e_classical", float),
        ("theta_e_relativistic", float),
        ("offset_arcsec", float),
    ])
    out["theta_s"] = theta_s
    out["theta_e_classical"] = theta_cl
    out["theta_e_relativistic"] = theta_rel
    out["offset_arcsec"] = (theta_s - theta_rel) * ARCSEC_PER_RAD
    return out


@_declare(_sweep, _SINGLE_REAL)
def aberration_sweep(v, p, n_samples: int):
    """Tabulate theta_s against the two model outputs over (0, pi).

    Returns a structured array with fields ``theta_s``,
    ``theta_e_classical``, ``theta_e_relativistic`` and ``offset_arcsec``
    (relativistic shift theta_s - theta_e in arc-seconds).  Sample angles
    are interior: theta_k = pi (k+1)/(n+1).  A count too large for memory
    raises DimensionError.
    """
