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

Masses are in arbitrary (uniform) units; energies are reported in mass
units, never multiplied by c^2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ball import _gamma, as_velocity, norm_sq, operands, same_shape
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
        mass = float(self.mass)
        if not (mass > 0.0 and np.isfinite(mass)):
            raise AdmissibilityError("particle mass must be positive and finite")
        vel = np.array(self.velocity, dtype=float, copy=True)
        if vel.ndim != 1:
            raise DimensionError("particle velocity must be a single vector")
        vel = as_velocity(vel, name="particle velocity")
        vel.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "velocity", vel)

    @property
    def gamma(self) -> float:
        return float(_gamma(self.velocity))

    @property
    def relativistic_mass(self) -> float:
        return self.mass * self.gamma


@dataclass(frozen=True, eq=False)
class ParticleSystem:
    """A nonempty collection of particles sharing one rest frame.

    ``frame`` is a documentation label for that frame; all velocities are
    understood relative to it.
    """

    particles: tuple
    frame: str = "rest"

    def __post_init__(self):
        parts = tuple(self.particles)
        if len(parts) < 1:
            raise DimensionError("a particle system needs at least one particle")
        dim = parts[0].velocity.shape[0]
        for p in parts:
            if p.velocity.shape[0] != dim:
                raise DimensionError("particles live in different dimensions")
        object.__setattr__(self, "particles", parts)

    def __len__(self) -> int:
        return len(self.particles)

    @property
    def dim(self) -> int:
        return self.particles[0].velocity.shape[0]

    @property
    def masses(self) -> np.ndarray:
        return np.array([p.mass for p in self.particles])

    @property
    def velocities(self) -> np.ndarray:
        return np.array([p.velocity for p in self.particles])

    @property
    def gammas(self) -> np.ndarray:
        return _gamma(self.velocities)


def _gamma_rel_minus_1(u, v) -> np.ndarray:
    """Cancellation-free gamma_rel - 1 on trusted velocity arrays."""
    gu = _gamma(u)
    gv = _gamma(v)
    return (gu - gv) ** 2 / (2.0 * gu * gv) + gu * gv * norm_sq(u - v) / 2.0


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
    return _gamma_rel_minus_1(*operands((u, v), ("u", "v")))


def _pairwise_dark_sq(sys: ParticleSystem) -> float:
    """2 sum_{j<k} m_j m_k (gamma_rel - 1); the squared dark mass."""
    n = len(sys)
    if n == 1:
        return 0.0
    m = sys.masses
    vel = sys.velocities
    j, k = np.triu_indices(n, k=1)
    terms = m[j] * m[k] * _gamma_rel_minus_1(vel[j], vel[k])
    return float(2.0 * np.sum(terms))


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

    with the pairwise relative gammas taken from the gamma identity.  Equals
    the Minkowski norm sqrt(E^2 - |P|^2) of the total four-momentum.
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
    dark_sq = _pairwise_dark_sq(sys)
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
    independence shows up here.  Each boosted velocity is checked again by
    its Particle, since near c a composition can leave the ball.
    """
    u = as_velocity(u, name="u")
    same_shape((u, sys.particles[0].velocity), ("u", "v"))
    return ParticleSystem(
        tuple(Particle(p.mass, _add(u, p.velocity)) for p in sys.particles),
        frame=sys.frame,
    )


def parse_particles(text: str, *, c_value: float = 1.0) -> ParticleSystem:
    """Parse a particle system from CSV lines or a JSON array.

    CSV: one particle per line as ``mass,v1,...,vn`` with ``#`` comments and
    blank lines ignored; every line must use the same dimension.  JSON: an
    array of objects with "mass" and "velocity" keys.  Velocities are given
    in units of ``c_value`` and are divided by it before validation.

    Raises ParticleFormatError (with a line number for CSV input) on
    malformed content and AdmissibilityError on inadmissible velocities.
    """
    if c_value <= 0.0 or not np.isfinite(c_value):
        raise ParticleFormatError("c_value must be positive and finite")
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return _parse_particles_json(stripped, c_value)
    return _parse_particles_csv(text, c_value)


def _parse_particles_json(text: str, c_value: float) -> ParticleSystem:
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParticleFormatError(f"invalid JSON: {exc}") from exc
    if isinstance(records, dict):
        records = [records]
    if not isinstance(records, list) or not records:
        raise ParticleFormatError("JSON input must be a nonempty array of particles")
    particles = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "mass" not in rec or "velocity" not in rec:
            raise ParticleFormatError(
                f"particle {i} must be an object with 'mass' and 'velocity'"
            )
        vel = np.asarray(rec["velocity"], dtype=float) / c_value
        particles.append(Particle(float(rec["mass"]), vel))
    return ParticleSystem(tuple(particles))


def _parse_particles_csv(text: str, c_value: float) -> ParticleSystem:
    particles = []
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
        vel = np.array(values[1:]) / c_value
        particles.append(Particle(values[0], vel))
    if not particles:
        raise ParticleFormatError("no particles found in input")
    return ParticleSystem(tuple(particles))
