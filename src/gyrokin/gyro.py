"""Einstein velocity addition and its gyrogroup machinery.

The binary operation implemented here is neither commutative nor associative;
what repairs both failures is the gyration operator ``gyr[u, v]``, a rotation
that depends on the two velocities being composed.  Everything in this module
broadcasts over leading axes, so batched inputs of shape ``(k, n)`` cost one
vectorized pass.

All velocities are unit-ball fractions of c (see :mod:`gyrokin.ball`).
"""

from __future__ import annotations

import numpy as np

from .ball import (_gamma, _real_array, as_ambient, as_velocity, dot, norm, norm_sq,
                   operands, same_shape)
from .errors import AdmissibilityError, DimensionError


def gamma(v) -> np.ndarray:
    """Lorentz gamma factor 1/sqrt(1 - |v|^2) of an admissible velocity.

    Satisfies (gamma^2 - 1)/gamma^2 = |v|^2 to machine precision.
    """
    return _gamma(as_velocity(v, name="v"))


def gamma_of_speed(s) -> np.ndarray:
    """Gamma factor of a scalar speed in [0, 1)."""
    s = _real_array(s, "speed")
    if not np.all((s >= 0.0) & (s < 1.0)):
        raise AdmissibilityError("speed must lie in [0, 1)")
    return 1.0 / np.sqrt((1.0 - s) * (1.0 + s))


def speed_of_gamma(g) -> np.ndarray:
    """Speed in [0, 1) of a finite gamma factor >= 1: sqrt(g^2 - 1)/g."""
    g = _real_array(g, "gamma factor")
    if not np.all((g >= 1.0) & (g < np.inf)):
        raise AdmissibilityError("gamma factor must be finite and >= 1")
    return np.sqrt(g * g - 1.0) / g


def _add(u, v) -> np.ndarray:
    """Einstein addition u (+) v on trusted velocity arrays."""
    uv = dot(u, v)
    gu = _gamma(u)
    coef_u = 1.0 + (gu / (1.0 + gu)) * uv
    return (coef_u[..., None] * u + (1.0 / gu)[..., None] * v) / (1.0 + uv)[..., None]


def einstein_add(u, v) -> np.ndarray:
    """Relativistic composition u (+) v of two admissible velocities.

    The result is the velocity, relative to the frame in which ``u`` is
    measured, of an object moving with ``v`` relative to the ``u`` frame.
    The gamma identity

        gamma(u (+) v) = gamma(u) * gamma(v) * (1 + u.v)

    holds for every pair, and for parallel arguments the formula collapses
    to (u + v)/(1 + |u||v|).
    """
    return _add(*operands((u, v), ("u", "v")))


def einstein_sub(u, v) -> np.ndarray:
    """u (-) v = u (+) (-v)."""
    u, v = operands((u, v), ("u", "v"))
    return _add(u, -v)


def left_sub(a, b) -> np.ndarray:
    """(-a) (+) b: the value of the gyrovector with tail a and head b.

    Not the same as b (-) a; the two differ by a gyration because Einstein
    addition is noncommutative (their norms agree, so either form gives the
    gyrodistance).
    """
    a, b = operands((a, b), ("u", "v"))
    return _add(-a, b)


def add_speeds(x, y):
    """Parallel-velocity composition of scalar speeds: (x + y)/(1 + xy).

    This is the restriction of Einstein addition to collinear velocities and
    the operation under which gyrodistances satisfy the gyrotriangle
    inequality.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (x + y) / (1.0 + x * y)


def _gyr_coeffs(u, v, w):
    """Closed-form coefficients A, B, D with gyr[u,v]w = w + (A u + B v)/D."""
    gu = _gamma(u)
    gv = _gamma(v)
    uv = dot(u, v)
    uw = dot(u, w)
    vw = dot(v, w)
    a = (
        -(gu * gu) / (gu + 1.0) * (gv - 1.0) * uw
        + gu * gv * vw
        + 2.0 * (gu * gu * gv * gv) / ((gu + 1.0) * (gv + 1.0)) * uv * vw
    )
    b = -(gv / (gv + 1.0)) * (gu * (gv + 1.0) * uw + (gu - 1.0) * gv * vw)
    d = gu * gv * (1.0 + uv) + 1.0
    return a, b, d


def _gyrate(u, v, w) -> np.ndarray:
    """Closed-form gyr[u, v]w on trusted arrays."""
    a, b, d = _gyr_coeffs(u, v, w)
    return w + (a[..., None] * u + b[..., None] * v) / d[..., None]


def gyrate(u, v, w) -> np.ndarray:
    """Apply the gyration gyr[u, v] to ``w`` via the closed form.

    ``u`` and ``v`` must be admissible; ``w`` may be any ambient vector, since
    the closed form extends gyrations to linear maps of the whole space.
    """
    return _gyrate(*operands((u, v, w), ("u", "v", "w"), ambient_last=True))


def gyrate_definitional(u, v, w) -> np.ndarray:
    """gyr[u, v]w evaluated from its definition, by three nested additions:

        gyr[u, v]w = -(u (+) v) (+) (u (+) (v (+) w))

    Unlike the closed form this requires ``w`` itself to be admissible.  It
    is deliberately independent of :func:`gyrate` so the two can check each
    other.  The intermediate sums are checked too: near c they can leave
    the ball.
    """
    u, v, w = operands((u, v, w), ("u", "v", "w"))
    vw = as_velocity(_add(v, w), name="v")
    uvw = as_velocity(_add(u, vw), name="v")
    return _add(as_velocity(-_add(u, v), name="u"), uvw)


def _midpoint(u, v) -> np.ndarray:
    """Gamma-weighted mean (gamma_u u + gamma_v v)/(gamma_u + gamma_v)."""
    gu = _gamma(u)
    gv = _gamma(v)
    return (gu[..., None] * u + gv[..., None] * v) / (gu + gv)[..., None]


def _coadd(u, v) -> np.ndarray:
    """Coaddition 2 (x) midpoint(u, v) on trusted arrays."""
    m = _midpoint(u, v)
    return (2.0 / (1.0 + norm_sq(m)))[..., None] * m


def coadd(u, v) -> np.ndarray:
    """Coaddition u [+] v, the commutative dual of Einstein addition.

    Evaluated as 2 (x) (gamma_u u + gamma_v v)/(gamma_u + gamma_v); the inner
    vector is a convex combination of ball points, and the doubling uses the
    exact identity 2 (x) m = 2m/(1 + |m|^2).  The floating-point result is
    symmetric in u and v bit for bit.
    """
    return _coadd(*operands((u, v), ("u", "v")))


def coadd_via_gyration(u, v) -> np.ndarray:
    """Coaddition evaluated from its definition u (+) gyr[u, -v]v.

    Kept separate from :func:`coadd` as an independent route for
    cross-checking.
    """
    u, v = operands((u, v), ("u", "v"))
    return _add(u, as_velocity(_gyrate(u, -v, v), name="v"))


def cosub(u, v) -> np.ndarray:
    """Cosubtraction u [-] v = u (-) gyr[u, v]v.

    Solves the equation x (+) a = b as x = b [-] a and satisfies the right
    cancellation law (v (+) u) [-] u = v.
    """
    u, v = operands((u, v), ("u", "v"))
    return _add(u, as_velocity(-_gyrate(u, v, v), name="v"))


class Gyration:
    """The rotation gyr[u, v] packaged with its generating pair.

    The operator is lazy: applications re-evaluate the closed-form
    coefficients against the stored generators, which keeps any ambient
    vector admissible as input.  ``matrix()`` materializes the n x n rotation
    for callers that want it (cheap for the n <= 3 fast paths).
    """

    def __init__(self, u, v):
        u, v = operands((u, v), ("u", "v"))
        if u.ndim != 1 or v.ndim != 1:
            raise DimensionError("Gyration takes a single generator pair")
        self.u = u
        self.v = v

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def apply(self, w) -> np.ndarray:
        w = as_ambient(w, name="w")
        same_shape((self.u, w), ("u", "w"))
        return _gyrate(self.u, self.v, w)

    __call__ = apply

    def inverse(self) -> "Gyration":
        """gyr[v, u], which undoes this gyration."""
        inv = Gyration.__new__(Gyration)
        inv.u, inv.v = self.v, self.u  # already validated
        return inv

    def matrix(self) -> np.ndarray:
        """The operator as an orthogonal n x n matrix acting on columns."""
        return _gyrate(self.u, self.v, np.eye(self.dim)).T

    def is_trivial(self, tol: float = 1e-14) -> bool:
        """True when the generators make the gyration the identity map."""
        nu = float(norm(self.u))
        nv = float(norm(self.v))
        if nu < tol or nv < tol:
            return True
        cross_sq = nu * nu * nv * nv - float(dot(self.u, self.v)) ** 2
        return cross_sq <= (tol * nu * nv) ** 2

    def rotation_angle(self) -> float:
        """Unsigned rotation angle in [0, pi].

        Measured inside the plane spanned by the generators, where the
        rotation acts; 0.0 for trivial gyrations.
        """
        if self.is_trivial():
            return 0.0
        e = self.u / norm(self.u)
        f = _gyrate(self.u, self.v, e)
        return float(2.0 * np.arctan2(norm(e - f), norm(e + f)))

    def __repr__(self) -> str:
        return f"Gyration(u={self.u!r}, v={self.v!r})"
