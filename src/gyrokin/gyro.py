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

from .ball import (_by_rows, _dot, _gamma, _neg, _norm, _norm_sq, _norm_sq_checked, _operation,
                   _real_array, _real_arrays, _require, _sqrt)
from .errors import AdmissibilityError


def gamma(v) -> np.ndarray:
    """Lorentz gamma factor 1/sqrt(1 - |v|^2) of an admissible velocity.

    Satisfies (gamma^2 - 1)/gamma^2 = |v|^2 to machine precision.
    """
    return _checked_gamma(v)


_checked_gamma = _operation(lambda v, n2: _gamma(n2[0]), gamma)


def _gamma_of_speed(s) -> np.ndarray:
    """Gamma factor of a trusted speed in [0, 1), a float or an array."""
    return 1.0 / _sqrt((1.0 - s) * (1.0 + s))


def gamma_of_speed(s) -> np.ndarray:
    """Gamma factor of a scalar speed in [0, 1)."""
    def kernel(s):
        _require((s >= 0.0) & (s < 1.0), AdmissibilityError, "must lie in [0, 1)", "speed")
        return _gamma_of_speed(s)

    return _by_rows(kernel, _real_array(s, "speed"), core=0)


def _speed_of_gamma(g) -> np.ndarray:
    """Speed of a trusted gamma factor, finite and >= 1, a float or an array."""
    return _sqrt((g - 1.0) / g * ((g + 1.0) / g))


def speed_of_gamma(g) -> np.ndarray:
    """Speed in [0, 1] of a finite gamma factor >= 1: sqrt(g^2 - 1)/g.

    Evaluated as sqrt((g - 1)/g * (g + 1)/g), which cannot overflow and has
    a relative error below machine epsilon; a speed that rounds up to 1 is
    returned as 1.0.
    """
    def kernel(g):
        _require((g >= 1.0) & (g < np.inf), AdmissibilityError, "must be finite and >= 1",
                 "gamma factor")
        return _speed_of_gamma(g)

    return _by_rows(kernel, _real_array(g, "gamma factor"), core=0)


def _add(u, v, n2) -> list:
    """Einstein addition u (+) v of trusted velocities.

    Like every kernel below, it takes and returns lists of components
    (ball._components), and ``n2`` starts with |u|^2; the ``n2`` of the
    others hold the squared norms of their velocity operands in order.
    """
    uv = _dot(u, v)
    gu = _gamma(n2[0])
    coef_u = 1.0 + (gu / (1.0 + gu)) * uv
    inv_gu = 1.0 / gu
    den = 1.0 + uv
    return [(coef_u * x + inv_gu * y) / den for x, y in zip(u, v)]


def einstein_add(u, v) -> np.ndarray:
    """Relativistic composition u (+) v of two admissible velocities.

    The result is the velocity, relative to the frame in which ``u`` is
    measured, of an object moving with ``v`` relative to the ``u`` frame.
    The gamma identity

        gamma(u (+) v) = gamma(u) * gamma(v) * (1 + u.v)

    holds for every pair, and for parallel arguments the formula collapses
    to (u + v)/(1 + |u||v|).
    """
    return _checked_einstein_add(u, v)


_checked_einstein_add = _operation(_add, einstein_add)


def _sub(u, v, n2) -> list:
    return _add(u, _neg(v), n2)


def einstein_sub(u, v) -> np.ndarray:
    """u (-) v = u (+) (-v)."""
    return _checked_einstein_sub(u, v)


_checked_einstein_sub = _operation(_sub, einstein_sub)


def _left_sub(a, b, n2) -> list:
    return _add(_neg(a), b, n2)


def left_sub(a, b) -> np.ndarray:
    """(-a) (+) b: the value of the gyrovector with tail a and head b.

    Not the same as b (-) a; the two differ by a gyration because Einstein
    addition is noncommutative (their norms agree, so either form gives the
    gyrodistance).
    """
    return _checked_left_sub(a, b)


_checked_left_sub = _operation(_left_sub, left_sub)


def add_speeds(x, y):
    """Parallel-velocity composition of scalar speeds: (x + y)/(1 + xy).

    This is the restriction of Einstein addition to collinear velocities and
    the operation under which gyrodistances satisfy the gyrotriangle
    inequality.  Both speeds must be finite and lie in (-1, 1); a batch's
    error names the first failing row of the batch the two broadcast to.
    """
    def kernel(x, y):
        _require((np.abs(x) < 1.0) & (np.abs(y) < 1.0), AdmissibilityError,
                 "must lie in (-1, 1)", "speeds")
        return (x + y) / (1.0 + x * y)

    return _by_rows(kernel, *_real_arrays((x, y), ("x", "y")), core=0)


def _gyr_coeffs(u, v, w, n2):
    """Closed-form coefficients A, B, D with gyr[u,v]w = w + (A u + B v)/D."""
    gu = _gamma(n2[0])
    gv = _gamma(n2[1])
    uv = _dot(u, v)
    uw = _dot(u, w)
    vw = _dot(v, w)
    a = (
        -(gu * gu) / (gu + 1.0) * (gv - 1.0) * uw
        + gu * gv * vw
        + 2.0 * (gu * gu * gv * gv) / ((gu + 1.0) * (gv + 1.0)) * uv * vw
    )
    b = -(gv / (gv + 1.0)) * (gu * (gv + 1.0) * uw + (gu - 1.0) * gv * vw)
    d = gu * gv * (1.0 + uv) + 1.0
    return a, b, d


def _gyrate(u, v, w, n2) -> list:
    """Closed-form gyr[u, v]w of trusted velocities u, v and ambient w."""
    a, b, d = _gyr_coeffs(u, v, w, n2)
    return [(a * x + b * y) / d + z for x, y, z in zip(u, v, w)]


def gyrate(u, v, w) -> np.ndarray:
    """Apply the gyration gyr[u, v] to ``w`` via the closed form.

    ``u`` and ``v`` must be admissible; ``w`` may be any ambient vector, since
    the closed form extends gyrations to linear maps of the whole space.
    """
    return _checked_gyrate(u, v, w)


_checked_gyrate = _operation(_gyrate, gyrate, ambient_last=True)


def _gyrate_definitional(u, v, w, n2) -> list:
    vw = _add(v, w, n2[1:])
    _norm_sq_checked(vw, "v")
    uvw = _add(u, vw, n2)
    _norm_sq_checked(uvw, "v")
    neg = _neg(_add(u, v, n2))
    return _add(neg, uvw, [_norm_sq_checked(neg, "u")])


def gyrate_definitional(u, v, w) -> np.ndarray:
    """gyr[u, v]w evaluated from its definition, by three nested additions:

        gyr[u, v]w = -(u (+) v) (+) (u (+) (v (+) w))

    Unlike the closed form this requires ``w`` itself to be admissible.  It
    is deliberately independent of :func:`gyrate` so the two can check each
    other.  The intermediate sums are checked too: near c they can leave
    the ball.
    """
    return _checked_gyrate_definitional(u, v, w)


_checked_gyrate_definitional = _operation(_gyrate_definitional, gyrate_definitional)


def _midpoint(u, v, n2) -> list:
    """Gamma-weighted mean (gamma_u u + gamma_v v)/(gamma_u + gamma_v)."""
    gu = _gamma(n2[0])
    gv = _gamma(n2[1])
    den = gu + gv
    return [(gu * x + gv * y) / den for x, y in zip(u, v)]


def _coadd(u, v, n2) -> list:
    """Coaddition 2 (x) midpoint(u, v) of trusted velocities."""
    m = _midpoint(u, v, n2)
    s = 2.0 / (1.0 + _norm_sq(m))
    return [x * s for x in m]


def coadd(u, v) -> np.ndarray:
    """Coaddition u [+] v, the commutative dual of Einstein addition.

    Evaluated as 2 (x) (gamma_u u + gamma_v v)/(gamma_u + gamma_v); the inner
    vector is a convex combination of ball points, and the doubling uses the
    exact identity 2 (x) m = 2m/(1 + |m|^2).  The floating-point result is
    symmetric in u and v bit for bit.
    """
    return _checked_coadd(u, v)


_checked_coadd = _operation(_coadd, coadd)


def _coadd_via_gyration(u, v, n2) -> list:
    g = _gyrate(u, _neg(v), v, n2)
    _norm_sq_checked(g, "v")
    return _add(u, g, n2)


def coadd_via_gyration(u, v) -> np.ndarray:
    """Coaddition evaluated from its definition u (+) gyr[u, -v]v.

    Kept separate from :func:`coadd` as an independent route for
    cross-checking.
    """
    return _checked_coadd_via_gyration(u, v)


_checked_coadd_via_gyration = _operation(_coadd_via_gyration, coadd_via_gyration)


def _cosub(u, v, n2) -> list:
    return _coadd(u, _neg(v), n2)


def cosub(u, v) -> np.ndarray:
    """Cosubtraction u [-] v = u [+] (-v) = u (-) gyr[u, v]v.

    Solves the equation x (+) a = b as x = b [-] a and satisfies the right
    cancellation law (v (+) u) [-] u = v.  Evaluated as the coaddition
    2 (x) (gamma_u u - gamma_v v)/(gamma_u + gamma_v) in one pass, so no
    intermediate can leave the ball; the gyration form u (-) gyr[u, v]v is
    the test suite's independent oracle.
    """
    return _checked_cosub(u, v)


_checked_cosub = _operation(_cosub, cosub)


def _gyrate_by(u, w, n2, v, nv) -> list:
    """gyr[u, v]w of a Gyration: its trusted generator v, with |v|^2 ``nv``, as a parameter."""
    return _gyrate(u, v, w, (n2[0], nv))


_checked_apply = _operation(_gyrate_by, ("u", "w"), ambient_last=True)
_checked_generators = _operation(None, ("u", "v"))


class Gyration:
    """The rotation gyr[u, v] packaged with its generating pair.

    The operator is lazy: applications re-evaluate the closed-form
    coefficients against the stored generators, which keeps any ambient
    vector admissible as input.  ``matrix()`` materializes the n x n rotation
    for callers that want it, as the gyrations of the n unit vectors.
    """

    def __init__(self, u, v):
        (self.u, self.v), _, _ = _checked_generators(u, v)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def _generators(self):
        """The components of u and v, and their squared norms."""
        u, v = self.u.tolist(), self.v.tolist()
        return u, v, [_norm_sq(u), _norm_sq(v)]

    def apply(self, w) -> np.ndarray:
        v = self.v.tolist()
        return _checked_apply(self.u, w, v=v, nv=_norm_sq(v))

    __call__ = apply

    def inverse(self) -> "Gyration":
        """gyr[v, u], which undoes this gyration."""
        inv = Gyration.__new__(Gyration)
        inv.u, inv.v = self.v, self.u  # already validated
        return inv

    def matrix(self) -> np.ndarray:
        """The operator as an orthogonal n x n matrix acting on columns.

        Column j is gyr[u, v] e_j, as apply computes it.
        """
        u, v, n2 = self._generators()
        return np.array([_gyrate(u, v, e, n2) for e in np.eye(self.dim).tolist()]).T

    def is_trivial(self, tol: float = 1e-14) -> bool:
        """True when the generators make the gyration the identity map."""
        u, v, _ = self._generators()
        nu, nv = float(_norm(u)), float(_norm(v))
        if nu < tol or nv < tol:
            return True
        cross_sq = nu * nu * nv * nv - float(_dot(u, v)) ** 2
        return cross_sq <= (tol * nu * nv) ** 2

    def rotation_angle(self) -> float:
        """Unsigned rotation angle in [0, pi].

        Measured inside the plane spanned by the generators, where the
        rotation acts; 0.0 for trivial gyrations.
        """
        if self.is_trivial():
            return 0.0
        u, v, n2 = self._generators()
        nu = _norm(u)
        e = [x / nu for x in u]
        f = _gyrate(u, v, e, n2)
        return float(2.0 * np.arctan2(_norm([x - y for x, y in zip(e, f)]),
                                      _norm([x + y for x, y in zip(e, f)])))

    def __repr__(self) -> str:
        return f"Gyration(u={self.u!r}, v={self.v!r})"
