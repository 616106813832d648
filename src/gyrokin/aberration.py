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

The geometric construction in :func:`aberration_scene` rebuilds the same
scenario from raw velocity-ball points and gyroangle measurements, with no
reference to the formulas, so the two routes can validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import _real_array, _real_scalars, as_velocity
from .errors import AdmissibilityError, AngleDegenerate, DimensionError
from .gyro import _add, gamma_of_speed
from .trig import _gyroangle

ARCSEC_PER_RAD = 180.0 * 3600.0 / math.pi

# sin(theta) below this degenerates the cotangent relations.
SIN_TOL = 1e-14


def _check_angle(theta, name):
    theta = _real_array(theta, name)
    if not np.all((theta > 0.0) & (theta < math.pi)):
        raise AngleDegenerate(f"{name} must lie strictly between 0 and pi")
    if np.any(np.sin(theta) < SIN_TOL):
        raise AngleDegenerate(f"sin({name}) vanishes; formulas degenerate")
    return theta


def _check_speed(s, name, *, allow_light=False):
    s = _real_array(s, name)
    top = 1.0 if allow_light else np.nextafter(1.0, 0.0)
    if not np.all((s >= 0.0) & (s <= top) & np.isfinite(s)):
        limit = "[0, 1]" if allow_light else "[0, 1)"
        raise AdmissibilityError(f"{name} must lie in {limit}")
    return s


def _check_positive(p, name):
    """A classical particle speed: any positive finite value."""
    p = _real_array(p, name)
    if not np.all((p > 0.0) & np.isfinite(p)):
        raise AdmissibilityError(f"{name} must be positive and finite")
    return p


def classical_aberration(theta_s, v, p_s):
    """theta_e from cot(theta_e) = cot(theta_s) + v/(p_s sin(theta_s))."""
    theta_s = _check_angle(theta_s, "theta_s")
    v = _check_speed(v, "v", allow_light=True)
    p_s = _check_positive(p_s, "p_s")
    return np.arctan2(p_s * np.sin(theta_s), p_s * np.cos(theta_s) + v)


def classical_aberration_inv(theta_e, v, p_e):
    """theta_s from cot(theta_s) = cot(theta_e) - v/(p_e sin(theta_e))."""
    theta_e = _check_angle(theta_e, "theta_e")
    v = _check_speed(v, "v", allow_light=True)
    p_e = _check_positive(p_e, "p_e")
    return np.arctan2(p_e * np.sin(theta_e), p_e * np.cos(theta_e) - v)


def relativistic_aberration(theta_s, v, p_s):
    """theta_e from cot(theta_e) = gamma_v (cot(theta_s) + v/(p_s sin(theta_s))).

    Speeds of exactly 1 are admitted for photons; then the formula is the
    stellar aberration formula.
    """
    theta_s = _check_angle(theta_s, "theta_s")
    v = _check_speed(v, "v")
    p_s = _check_speed(p_s, "p_s", allow_light=True)
    if not np.all(p_s > 0.0):
        raise AdmissibilityError("p_s must be positive")
    gv = gamma_of_speed(v)
    return np.arctan2(p_s * np.sin(theta_s), gv * (p_s * np.cos(theta_s) + v))


def relativistic_aberration_inv(theta_e, v, p_e):
    """theta_s from cot(theta_s) = gamma_v (cot(theta_e) - v/(p_e sin(theta_e)))."""
    theta_e = _check_angle(theta_e, "theta_e")
    v = _check_speed(v, "v")
    p_e = _check_speed(p_e, "p_e", allow_light=True)
    if not np.all(p_e > 0.0):
        raise AdmissibilityError("p_e must be positive")
    gv = gamma_of_speed(v)
    return np.arctan2(p_e * np.sin(theta_e), gv * (p_e * np.cos(theta_e) - v))


def stellar_aberration(theta_s, v):
    """Photon case: cot(theta_e) = gamma_v (cos(theta_s) + v)/sin(theta_s).

    Identical to :func:`relativistic_aberration` with p_s = 1.
    """
    return relativistic_aberration(theta_s, v, 1.0)


def stellar_aberration_inv(theta_e, v):
    """Photon case inverse: cot(theta_s) = gamma_v (cos(theta_e) - v)/sin(theta_e)."""
    return relativistic_aberration_inv(theta_e, v, 1.0)


def classical_matched_p_e(theta_s, theta_e, p_s):
    """p_e consistent with the law of sines p_s/sin(theta_e) = p_e/sin(theta_s)."""
    theta_s = _check_angle(theta_s, "theta_s")
    theta_e = _check_angle(theta_e, "theta_e")
    return _check_positive(p_s, "p_s") * np.sin(theta_s) / np.sin(theta_e)


def relativistic_matched_p_e(theta_s, theta_e, p_s):
    """p_e consistent with the law of gyrosines.

    gamma_{p_s} p_s / sin(theta_e) = gamma_{p_e} p_e / sin(theta_s); the
    momentum-like product gamma*p determines the speed uniquely.
    """
    theta_s = _check_angle(theta_s, "theta_s")
    theta_e = _check_angle(theta_e, "theta_e")
    p_s = _check_speed(p_s, "p_s")
    x = gamma_of_speed(p_s) * p_s * np.sin(theta_s) / np.sin(theta_e)
    return x / np.sqrt(1.0 + x * x)


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
    v, p_s, theta_s = _real_scalars((v, p_s, theta_s), ("v", "p_s", "theta_s"))
    _check_speed(v, "v")
    _check_speed(p_s, "p_s")
    _check_angle(theta_s, "theta_s")
    if v <= 0.0:
        raise AngleDegenerate("v must be positive; E and S coincide otherwise")
    if p_s <= 0.0:
        raise AdmissibilityError("p_s must be positive")
    sun = np.array([v, 0.0])
    # At S the gyroline ES continues along +x (gyrolines are chords), so the
    # particle gyrovector at S is p_s at Euclidean angle theta_s from +x.
    w_s = p_s * np.array([math.cos(theta_s), math.sin(theta_s)])
    particle = _add(sun, w_s)
    # Speeds just below 1 pass the scalar checks yet leave the ball, and so
    # can the composed particle velocity; all three velocities are checked.
    as_velocity(np.array([sun, w_s, particle]), name="scene velocity")
    # E sits at the origin, so the gyrovectors from E are S and P themselves.
    theta_e = _gyroangle(sun, particle)
    p_e = float(np.linalg.norm(particle))
    return AberrationResult(v=v, p_e=p_e, p_s=p_s,
                            theta_e=float(theta_e), theta_s=theta_s)


def aberration_sweep(v, p, n_samples: int):
    """Tabulate theta_s against the two model outputs over (0, pi).

    Returns a structured array with fields ``theta_s``,
    ``theta_e_classical``, ``theta_e_relativistic`` and ``offset_arcsec``
    (relativistic shift theta_s - theta_e in arc-seconds).  Sample angles
    are interior: theta_k = pi (k+1)/(n+1).
    """
    (n,) = _real_scalars((n_samples,), ("n_samples",))
    if n < 2 or not n.is_integer():
        raise DimensionError(f"n_samples must be {'at least 2' if n < 2 else 'whole'}")
    n_samples = int(n)
    k = np.arange(1, n_samples + 1, dtype=float)
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
