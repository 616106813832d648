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
from dataclasses import dataclass

import numpy as np

from .ball import (_as_real, _gamma, _real_scalars, as_velocity, norm_sq, operands,
                   same_shape)
from .errors import AdmissibilityError, DimensionError, GyrokinError
from .gyro import _add


class ParticleFormatError(GyrokinError, ValueError):
    """A particle file line failed to parse; carries its line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class Particle:
    """A point particle: positive invariant mass and admissible velocity."""

    mass: float
    velocity: np.ndarray

    def __post_init__(self):
        mass = self.mass
        try:
            # float() accepts a numpy complex scalar with only a warning.
            mass = math.nan if isinstance(mass, np.complexfloating) else float(mass)
        except (TypeError, ValueError, OverflowError):
            mass = math.nan
        if not (mass > 0.0 and math.isfinite(mass)):
            raise AdmissibilityError("particle mass must be positive and finite")
        vel = as_velocity(self.velocity, name="particle velocity").copy()
        if vel.ndim != 1:
            raise DimensionError("particle velocity must be a single vector")
        vel.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "velocity", vel)

    @property
    def gamma(self) -> float:
        return float(_gamma(self.velocity))

    @property
    def relativistic_mass(self) -> float:
        return self.mass * self.gamma


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
        parts = tuple(particles)
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
        if not np.all((masses > 0.0) & np.isfinite(masses)):
            raise AdmissibilityError("particle mass must be positive and finite")
        velocities = as_velocity(velocities, name="particle velocity")
        if velocities.ndim != 2 or masses.shape != velocities.shape[:1]:
            raise DimensionError("need one velocity vector per particle mass")
        system = cls.__new__(cls)
        system._freeze(masses, velocities, frame)
        return system

    def _freeze(self, masses, velocities, frame):
        masses.setflags(write=False)
        velocities.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "frame", frame)

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
        return _gamma(self.velocities)


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
    u, v = operands((u, v), ("u", "v"))
    gu = _gamma(u)
    gv = _gamma(v)
    return (gu - gv) ** 2 / (2.0 * gu * gv) + gu * gv * norm_sq(u - v) / 2.0


def _dark_sq(sys: ParticleSystem) -> float:
    """The squared dark mass W sum_k w_k |y_k - y_bar|^2 (module docstring)."""
    g = sys.gammas
    w = sys.masses * g
    total = w.sum()
    # y_k = x_k - x_0 in two parts: the time component 1/gamma and the
    # velocity.  The weighted means enter the sum only at second order.
    t = 1.0 / g
    t -= t[0]
    s = sys.velocities - sys.velocities[0]
    t -= (w @ t) / total
    s -= (w @ s) / total
    return float(total * (w @ (t * t + norm_sq(s))))


def cm_velocity(sys: ParticleSystem) -> np.ndarray:
    """Center-of-momentum velocity: the relativistic-mass-weighted mean.

    v0 = sum m_k gamma_k v_k / sum m_k gamma_k; admissible because it is a
    convex combination of ball points.
    """
    energy, momentum = four_momentum(sys)
    return momentum / energy


def four_momentum(sys: ParticleSystem) -> tuple[float, np.ndarray]:
    """Total four-momentum (E, P) = (sum m_k gamma_k, sum m_k gamma_k v_k)."""
    m = sys.masses
    g = sys.gammas
    w = m * g
    return float(w.sum()), (w[:, None] * sys.velocities).sum(axis=0)


def invariant_mass(sys: ParticleSystem) -> float:
    """Invariant (rest) mass of the system.

        m0 = sqrt((sum m_k)^2 + 2 sum_{j<k} m_j m_k (gamma_rel - 1))

    with the pair sum evaluated in O(N) (module docstring).  Equals the
    Minkowski norm sqrt(E^2 - |P|^2) of the total four-momentum.
    """
    return decompose(sys).m0


@dataclass(frozen=True, eq=False)
class MassDecomposition:
    """Invariant-mass split of a particle system.

    m0^2 = m_newton^2 + m_dark^2; the relativistic mass m0*gamma0 equals the
    conserved energy.  ``four_momentum_residual`` is the relative mismatch
    between the summed constituent four-momenta and (m0 gamma0, m0 gamma0 v0).
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
    m_newton = float(sys.masses.sum())
    dark_sq = _dark_sq(sys)
    m_dark = float(np.sqrt(dark_sq))
    m0 = float(np.sqrt(m_newton * m_newton + dark_sq))
    energy, momentum = four_momentum(sys)
    v0 = momentum / energy
    gamma0 = float(_gamma(v0))
    residual = np.hypot(m0 * gamma0 - energy,
                        float(np.linalg.norm(m0 * gamma0 * v0 - momentum)))
    return MassDecomposition(
        m0=m0,
        v0=v0,
        m_newton=m_newton,
        m_dark=m_dark,
        gamma0=gamma0,
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
    sys = ParticleSystem((p1, p2))
    return Particle(mass=invariant_mass(sys), velocity=cm_velocity(sys))


def boost(sys: ParticleSystem, u) -> ParticleSystem:
    """Left-compose every particle velocity with u: v_k -> u (+) v_k.

    The invariant and dark masses are unchanged by this, which is how frame
    independence shows up here.  The boosted velocities are checked again,
    since near c a composition can leave the ball.
    """
    u = as_velocity(u, name="u")
    if u.ndim != 1:
        raise DimensionError("u must be a single vector")
    same_shape((u, sys.velocities), ("u", "v"))
    return ParticleSystem._from_arrays(sys.masses, _add(u, sys.velocities), sys.frame)


def parse_particles(text: str, *, c_value: float = 1.0) -> ParticleSystem:
    """Parse a particle system from CSV lines or a JSON array.

    CSV: one particle per line as ``mass,v1,...,vn`` with ``#`` comments and
    blank lines ignored; every line must use the same dimension.  JSON: an
    array of objects with "mass" and "velocity" keys.  Velocities are given
    in units of ``c_value`` and are divided by it before validation.

    Raises ParticleFormatError (with a line number for CSV input) on
    malformed content and AdmissibilityError on inadmissible velocities.
    """
    (c_value,) = _real_scalars((c_value,), ("c_value",))
    if c_value <= 0.0 or not np.isfinite(c_value):
        raise ParticleFormatError("c_value must be positive and finite")
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        masses, rows = _read_json(stripped)
    else:
        masses, rows = _read_csv(text)
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


def _read_csv(text: str) -> tuple[list, list]:
    """Masses and velocity rows of CSV particle lines."""
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
