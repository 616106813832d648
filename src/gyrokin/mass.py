"""Four-momentum bookkeeping for systems of noninteracting particles.

A system of particles with invariant masses m_k and velocities v_k has an
additive four-momentum; its Minkowski norm defines the system's invariant
mass m0 and the center-of-momentum velocity v0.  The invariant mass exceeds
the plain mass sum whenever the particles move relative to one another; the
excess is carried by the "dark mass"

    m_dark = sqrt(2 sum_{j<k} m_j m_k (gamma_rel(j,k) - 1)),

which vanishes exactly for rigid systems and gives m0^2 = m_newton^2 +
m_dark^2.  Invariant masses are frame independent: boosting every velocity
by a common u leaves m0 unchanged.

The pair sum is evaluated in O(N) time and memory.  With weights
w_k = m_k gamma_k and the unit (n+1)-vectors x_k = (1/gamma_k, v_k), each
pair term is 2 m_j m_k (gamma_rel - 1) = w_j w_k |x_j - x_k|^2, and the
weighted-variance identity turns the sum over pairs into one over particles:

    m_dark^2 = sum_{j<k} w_j w_k |x_j - x_k|^2 = W sum_k w_k |y_k - y_bar|^2,

where W = sum_k w_k, y_k = x_k - x_0 and y_bar is the w-weighted mean of
the y_k.  Every term is nonnegative, and centring on x_0 makes a rigid
system's y_k exactly zero, so its dark mass is exactly 0.0.

Masses are in arbitrary (uniform) units; energies are reported in mass
units, never multiplied by c^2.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ball import (_SINGLE, _as_real, _by_rows, _declare, _gamma, _norm_sq, _norm_sq_checked,
                   _on_components, _operation, _read_only, _real_scalar, _record, _require,
                   _require_instance, as_velocity, norm_sq, same_shape)
from .errors import AdmissibilityError, DimensionError, OperandTypeError, ParticleFormatError
from .gyro import _add


@dataclass(frozen=True, eq=False, init=False)
class Particle:
    """A point particle: positive invariant mass and admissible velocity."""

    mass: float
    velocity: np.ndarray

    def __init__(self, mass, velocity):
        try:
            # float() accepts a numpy complex scalar with only a warning.
            mass = math.nan if isinstance(mass, np.complexfloating) else float(mass)
        except (TypeError, ValueError, OverflowError):
            mass = math.nan
        if not (mass > 0.0 and math.isfinite(mass)):
            raise AdmissibilityError("must be positive and finite", name="particle mass")
        (vel,), _, _ = _checked_particle_velocity(velocity)
        vars(self).update(mass=mass, velocity=_read_only(vel))  # the fields of a frozen dataclass

    def __reduce__(self):
        # Unpickled arrays are writeable: rebuild, so that the velocity stays read-only.
        return Particle, (self.mass, self.velocity)

    @property
    def gamma(self) -> float:
        return float(_gamma(norm_sq(self.velocity)))

    @property
    def relativistic_mass(self) -> float:
        return self.mass * self.gamma


_checked_particle_velocity = _operation(None, ("particle velocity",), _SINGLE)


@dataclass(frozen=True, eq=False, init=False)
class ParticleSystem:
    """A nonempty collection of particles sharing one rest frame.

    Held as arrays: read-only ``(N,)`` masses and ``(N, n)`` velocities,
    validated once when the system is made.  ``frame`` is a documentation
    label for that frame; all velocities are understood relative to it.
    """

    masses: np.ndarray
    velocities: np.ndarray
    frame: str = "rest"

    def __init__(self, particles, frame: str = "rest"):
        try:
            parts = tuple(particles)
        except TypeError:
            raise OperandTypeError("must be an iterable of Particle objects, not "
                                   f"{type(particles).__name__}", name="particles") from None
        for i, p in enumerate(parts):
            if not isinstance(p, Particle):
                raise OperandTypeError(f"must be a Particle, not {type(p).__name__}",
                                       name=f"particles[{i}]")
        if len(parts) < 1:
            raise DimensionError("a particle system needs at least one particle")
        if len({p.velocity.shape for p in parts}) > 1:
            raise DimensionError("particles live in different dimensions")
        # Each Particle has been validated already.
        self._freeze(np.array([p.mass for p in parts]),
                     np.array([p.velocity for p in parts]), frame)

    @classmethod
    def _from_arrays(cls, masses, velocities, frame: str = "rest") -> "ParticleSystem":
        """System from (N,) masses and (N, n) velocities, each checked in one pass."""
        masses = _as_real(masses, "particle mass")
        _require((masses > 0.0) & np.isfinite(masses), AdmissibilityError,
                 "must be positive and finite", "particle mass")
        velocities = as_velocity(velocities, name="particle velocity")
        if velocities.ndim != 2 or masses.shape != velocities.shape[:1]:
            raise DimensionError("need one velocity vector per particle mass")
        return cls.__new__(cls)._freeze(masses, velocities, frame)

    def __reduce__(self):
        # Unpickled arrays are writeable: rebuild through the checks, so that they stay read-only.
        return ParticleSystem._from_arrays, (self.masses, self.velocities, self.frame)

    def _freeze(self, masses, velocities, frame) -> "ParticleSystem":
        """Set the fields, making the arrays read-only; returns the system."""
        masses.setflags(write=False)
        velocities.setflags(write=False)
        vars(self).update(masses=masses, velocities=velocities, frame=frame)
        return self

    def __len__(self) -> int:
        return self.masses.shape[0]

    @property
    def particles(self) -> tuple:
        """The particles as Particle objects, built on each access."""
        return tuple(Particle(m, v) for m, v in zip(self.masses.tolist(), self.velocities))

    @property
    def dim(self) -> int:
        return self.velocities.shape[1]

    @property
    def gammas(self) -> np.ndarray:
        return _gamma(norm_sq(self.velocities))


def _gamma_rel_minus_1(u, v, n2):
    gu = _gamma(n2[0])
    gv = _gamma(n2[1])
    d = gu - gv
    return d * d / (2.0 * gu * gv) + gu * gv * _norm_sq([x - y for x, y in zip(u, v)]) / 2.0


@_declare(_gamma_rel_minus_1)
def gamma_rel_minus_1(u, v) -> np.ndarray:
    """gamma of the relative velocity (-u) (+) v, minus 1, without cancellation.

    The gamma identity gives gamma_rel = gamma_u gamma_v (1 - u.v); subtracting
    1 from that loses every digit when u and v nearly coincide, so this
    rearranges it into the equivalent sum of two nonnegative terms

        (gamma_u - gamma_v)^2 / (2 gamma_u gamma_v)
        + gamma_u gamma_v |u - v|^2 / 2.

    Identical velocities therefore give exactly 0.0.  Broadcasts like the
    other velocity operations.
    """


def _dark_sq(sys: ParticleSystem, g, w) -> float:
    """The squared dark mass W sum_k w_k |y_k - y_bar|^2 (module docstring).

    ``g`` holds the particles' gamma factors and ``w`` their weights m g.
    """
    total = w.sum()
    # y_k = x_k - x_0 in two parts: the time component 1/gamma and the
    # velocity.  The weighted means enter the sum only at second order.
    t = 1.0 / g
    t -= t[0]
    s = sys.velocities - sys.velocities[0]
    t -= (w @ t) / total
    s -= (w @ s) / total
    return float(total * (w @ (t * t + norm_sq(s))))


@dataclass(frozen=True, eq=False)
class MassDecomposition:
    """Invariant-mass split of a particle system.

    m0^2 = m_newton^2 + m_dark^2; the relativistic mass m0*gamma0 equals the
    conserved energy.  ``energy`` and ``momentum`` are the total four-momentum
    (sum m_k gamma_k, sum m_k gamma_k v_k), and ``v0`` = momentum/energy is
    the center-of-momentum velocity, admissible because it is a convex
    combination of ball points.  ``gamma0`` is energy/m0, which keeps its
    digits near c, where 1 - |v0|^2 cancels; a quotient that rounds below 1
    is reported as 1.0.  ``four_momentum_residual`` is the relative mismatch
    between the summed constituent four-momenta and (m0 gamma(v0),
    m0 gamma(v0) v0); it takes gamma from v0, not from energy/m0, so that it
    still compares two routes.
    """

    m0: float
    v0: np.ndarray
    m_newton: float
    m_dark: float
    gamma0: float
    energy: float
    momentum: np.ndarray
    four_momentum_residual: float


def decompose(sys: ParticleSystem) -> MassDecomposition:
    """Full invariant/Newtonian/dark mass decomposition of a system."""
    _require_instance(ParticleSystem, sys=sys)
    m_newton = float(sys.masses.sum())
    g = sys.gammas
    w = sys.masses * g
    dark_sq = _dark_sq(sys, g, w)
    m_dark = float(np.sqrt(dark_sq))
    m0 = float(np.sqrt(m_newton * m_newton + dark_sq))
    energy, momentum = float(w.sum()), (w[:, None] * sys.velocities).sum(axis=0)
    v0 = momentum / energy
    g0 = float(_gamma(norm_sq(v0)))
    residual = np.hypot(m0 * g0 - energy, float(np.linalg.norm(m0 * g0 * v0 - momentum)))
    return _record(
        MassDecomposition,
        m0=m0,
        v0=v0,
        m_newton=m_newton,
        m_dark=m_dark,
        gamma0=max(energy / m0, 1.0),
        energy=energy,
        momentum=momentum,
        four_momentum_residual=float(residual / energy),
    )


def collide_and_stick(p1: Particle, p2: Particle) -> Particle:
    """Composite particle from a perfectly inelastic two-particle collision.

    Four-momentum conservation fixes the outcome: the composite's invariant
    mass is m0 of the two-particle system and its velocity is the CM
    velocity, so m0 gamma0 = m1 gamma1 + m2 gamma2.  The invariant mass grows
    in the collision; the Newtonian mass sum is what stays put.
    """
    _require_instance(Particle, p1=p1, p2=p2)
    dec = decompose(ParticleSystem((p1, p2)))
    return Particle(mass=dec.m0, velocity=dec.v0)


def boost(sys: ParticleSystem, u) -> ParticleSystem:
    """Left-compose every particle velocity with u: v_k -> u (+) v_k.

    The invariant and dark masses are unchanged by this, which is how frame
    independence shows up here.  Near c a composition can leave the ball, so
    each row block of boosted velocities is checked as it is made, under the
    name "u (+) particle velocity"; the system's own masses and velocities
    were checked when it was made.
    """
    _require_instance(ParticleSystem, sys=sys)
    (u,), (u_vec,), n2 = _checked_boost_u(u)
    same_shape((u, sys.velocities), ("u", "v"))
    boosted = _by_rows(partial(_boosted_rows, u=u_vec, n2=n2), sys.velocities)
    return ParticleSystem.__new__(ParticleSystem)._freeze(sys.masses, boosted, sys.frame)


_checked_boost_u = _operation(None, ("u",), _SINGLE)


def _boosted(v, u, n2) -> list:
    """u (+) v of boost's trusted u, with [|u|^2] ``n2``, checked as it is made."""
    w = _add(u, v, n2)
    _norm_sq_checked(w, "u (+) particle velocity")
    return w


_boosted_rows = _on_components(_boosted)


def parse_particles(text: str, *, c_value: float = 1.0) -> ParticleSystem:
    """Parse a particle system from CSV lines or a JSON array.

    CSV: one particle per line as ``mass,v1,...,vn`` with ``#`` comments and
    blank lines ignored; every line must use the same dimension.  numpy's C
    reader reads it; where that fails, a Python line loop reads it again and
    names any bad line.  JSON: an array of objects with "mass" and "velocity"
    keys, or one such object for a single particle.  Velocities are in units
    of ``c_value`` and are divided by it.

    Raises ParticleFormatError (with a line number for CSV input) on
    malformed content and AdmissibilityError on inadmissible velocities.
    """
    _require_instance(str, text=text)
    c_value = _real_scalar(c_value, "c_value")
    if c_value <= 0.0 or not np.isfinite(c_value):
        raise ParticleFormatError("c_value must be positive and finite")
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        masses, rows = _read_json(stripped)
    else:
        masses, rows = _read_table(text) or _read_csv(text)
    velocities = _as_real(rows, "particle velocity") / c_value
    return ParticleSystem._from_arrays(masses, velocities)


def _read_json(text: str) -> tuple[list, list]:
    """Masses and velocity rows of a JSON particle array."""
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParticleFormatError(f"invalid JSON: {exc}") from exc
    if isinstance(records, dict):
        records = [records]
    if not isinstance(records, list) or not records:
        raise ParticleFormatError("JSON input must be a nonempty array of particles")
    masses, rows = [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "mass" not in rec or "velocity" not in rec:
            raise ParticleFormatError(
                f"particle {i} must be an object with 'mass' and 'velocity'"
            )
        masses.append(rec["mass"])
        rows.append(rec["velocity"])
    if len({len(r) if isinstance(r, list) else None for r in rows}) > 1:
        raise DimensionError("particles live in different dimensions")
    return masses, rows


def _read_table(text: str) -> tuple | None:
    """Masses and velocity rows of CSV particle lines, read by numpy's C reader.

    None where it fails, warns or finds no velocity column; then _read_csv
    reads the lines (it also takes whitespace-only lines, "1_0" and non-ASCII
    digits) or names the bad one.  Every field the C reader accepts, float()
    reads to the same double.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "input contained no data", for one
        try:
            table = np.loadtxt(text.splitlines(), delimiter=",", comments="#",
                               ndmin=2, dtype=float)
        except (ValueError, Warning):
            return None
    if len(table) == 0 or table.shape[1] < 2:
        return None
    return table[:, 0].copy(), table[:, 1:]


def _read_csv(text: str) -> tuple[list, list]:
    """Masses and velocity rows of CSV particle lines, checked line by line."""
    masses, rows = [], []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 2:
            raise ParticleFormatError(
                f"line {lineno}: need mass and at least one velocity component",
                line=lineno,
            )
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ParticleFormatError(
                f"line {lineno}: {exc}", line=lineno
            ) from exc
        if dim is None:
            dim = len(values) - 1
        elif len(values) - 1 != dim:
            raise ParticleFormatError(
                f"line {lineno}: expected {dim} velocity components, "
                f"got {len(values) - 1}",
                line=lineno,
            )
        masses.append(values[0])
        rows.append(values[1:])
    if not rows:
        raise ParticleFormatError("no particles found in input")
    return masses, rows
