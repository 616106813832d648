"""Einstein velocity addition and its gyrogroup machinery.

The binary operation implemented here is neither commutative nor associative;
what repairs both failures is the gyration operator ``gyr[u, v]``, a rotation
that depends on the two velocities being composed.  Everything in this module
broadcasts over leading axes, so batched inputs of shape ``(k, n)`` cost one
vectorized pass.

All velocities are unit-ball fractions of c (see :mod:`gyrokin.ball`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ball import (_AMBIENT, _REAL, _SINGLE, _VELOCITY, _declare, _dot, _gamma, _neg, _norm,
                   _norm_sq, _norm_sq_checked, _operation, _read_only, _require, _sqrt, np)
from .errors import AdmissibilityError


@_declare(lambda v, n2: _gamma(n2[0]))
def gamma(v) -> np.ndarray:
    """Lorentz gamma factor 1/sqrt(1 - |v|^2) of an admissible velocity.

    Satisfies (gamma^2 - 1)/gamma^2 = |v|^2 to machine precision.
    """


def _gamma_of_speed(s) -> np.ndarray:
    """Gamma factor of a trusted speed in [0, 1), a float or an array."""
    return 1.0 / _sqrt((1.0 - s) * (1.0 + s))


def _gamma_of_valid_speed(s):
    """_gamma_of_speed(s), once the float or array s lies in [0, 1)."""
    _require((s >= 0.0) & (s < 1.0), AdmissibilityError, "must lie in [0, 1)", "speed")
    return _gamma_of_speed(s)


@_declare(_gamma_of_valid_speed, _REAL, ("speed",))
def gamma_of_speed(s) -> np.ndarray:
    """Gamma factor of a scalar speed in [0, 1)."""


def _speed_of_gamma(g) -> np.ndarray:
    """Speed of a trusted gamma factor, finite and >= 1, a float or an array."""
    return _sqrt((g - 1.0) / g * ((g + 1.0) / g))


def _speed_of_valid_gamma(g):
    """_speed_of_gamma(g), once the float or array g is finite and >= 1."""
    _require((g >= 1.0) & (g < np.inf), AdmissibilityError, "must be finite and >= 1",
             "gamma factor")
    return _speed_of_gamma(g)


@_declare(_speed_of_valid_gamma, _REAL, ("gamma factor",))
def speed_of_gamma(g) -> np.ndarray:
    """Speed in [0, 1] of a finite gamma factor >= 1: sqrt(g^2 - 1)/g.

    Evaluated as sqrt((g - 1)/g * (g + 1)/g), which cannot overflow and has
    a relative error below machine epsilon; a speed that rounds up to 1 is
    returned as 1.0.
    """


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


@_declare(_add)
def einstein_add(u, v) -> np.ndarray:
    """Relativistic composition u (+) v of two admissible velocities.

    The result is the velocity, relative to the frame in which ``u`` is
    measured, of an object moving with ``v`` relative to the ``u`` frame.
    The gamma identity

        gamma(u (+) v) = gamma(u) * gamma(v) * (1 + u.v)

    holds for every pair, and for parallel arguments the formula collapses
    to (u + v)/(1 + |u||v|).
    """


def _sub(u, v, n2) -> list:
    return _add(u, _neg(v), n2)


@_declare(_sub)
def einstein_sub(u, v) -> np.ndarray:
    """u (-) v = u (+) (-v)."""


def _left_sub(a, b, n2) -> list:
    return _add(_neg(a), b, n2)


@_declare(_left_sub)
def left_sub(a, b) -> np.ndarray:
    """(-a) (+) b: the value of the gyrovector with tail a and head b.

    Not the same as b (-) a; the two differ by a gyration because Einstein
    addition is noncommutative (their norms agree, so either form gives the
    gyrodistance).
    """


def _unit_angle(e, f) -> float:
    """Angle between the unit vectors e and f, as 2 atan2(|e - f|, |e + f|).

    Exact at 0 for bitwise-equal vectors and well conditioned near both 0
    and pi, unlike arccos of a clamped dot product.
    """
    return float(2.0 * np.arctan2(_norm([x - y for x, y in zip(e, f)]),
                                  _norm([x + y for x, y in zip(e, f)])))


def _add_speeds(x, y):
    """add_speeds of two floats or arrays, once both lie in (-1, 1)."""
    _require((np.abs(x) < 1.0) & (np.abs(y) < 1.0), AdmissibilityError,
             "must lie in (-1, 1)", "speeds")
    return (x + y) / (1.0 + x * y)


@_declare(_add_speeds, _REAL)
def add_speeds(x, y):
    """Parallel-velocity composition of scalar speeds: (x + y)/(1 + xy).

    This is the restriction of Einstein addition to collinear velocities and
    the operation under which gyrodistances satisfy the gyrotriangle
    inequality.  Both speeds must be finite and lie in (-1, 1); a batch's
    error names the first failing row of the batch the two broadcast to.
    """


def _gyr_factors(u, v, n2) -> tuple:
    """The factors of gyr[u, v]'s closed form that do not depend on w.

    Each is a product of the closed form in its own association, so that
    _gyr_coeffs applies them to w with the bits of the whole expression.
    """
    gu = _gamma(n2[0])
    gv = _gamma(n2[1])
    uv = _dot(u, v)
    gu2, gu1, gv1, guv = gu * gu, gu + 1.0, gv + 1.0, gu * gv
    return (-gu2 / gu1 * (gv - 1.0), guv, 2.0 * (gu2 * gv * gv) / (gu1 * gv1) * uv,
            -(gv / gv1), gu * gv1, (gu - 1.0) * gv, guv * (1.0 + uv) + 1.0)


def _gyr_coeffs(u, v, w, factors):
    """Closed-form coefficients A, B, D with gyr[u,v]w = w + (A u + B v)/D.

    ``factors`` are _gyr_factors(u, v, n2).
    """
    k_uw, k_vw, k_uv_vw, b_scale, b_uw, b_vw, d = factors
    uw = _dot(u, w)
    vw = _dot(v, w)
    return k_uw * uw + k_vw * vw + k_uv_vw * vw, b_scale * (b_uw * uw + b_vw * vw), d


def _gyrate(u, v, w, factors) -> list:
    """Closed-form gyr[u, v]w of trusted velocities u, v and ambient w.

    ``factors`` are _gyr_factors(u, v, n2).
    """
    a, b, d = _gyr_coeffs(u, v, w, factors)
    return [(a * x + b * y) / d + z for x, y, z in zip(u, v, w)]


@_declare(lambda u, v, w, n2: _gyrate(u, v, w, _gyr_factors(u, v, n2)),
          (_VELOCITY, _VELOCITY, _AMBIENT))
def gyrate(u, v, w) -> np.ndarray:
    """Apply the gyration gyr[u, v] to ``w`` via the closed form.

    ``u`` and ``v`` must be admissible; ``w`` may be any ambient vector, since
    the closed form extends gyrations to linear maps of the whole space.
    """


def _gyrate_definitional(u, v, w, n2) -> list:
    vw = _add(v, w, n2[1:])
    _norm_sq_checked(vw, "v")
    uvw = _add(u, vw, n2)
    _norm_sq_checked(uvw, "v")
    neg = _neg(_add(u, v, n2))
    return _add(neg, uvw, [_norm_sq_checked(neg, "u")])


@_declare(_gyrate_definitional)
def gyrate_definitional(u, v, w) -> np.ndarray:
    """gyr[u, v]w evaluated from its definition, by three nested additions:

        gyr[u, v]w = -(u (+) v) (+) (u (+) (v (+) w))

    Unlike the closed form this requires ``w`` itself to be admissible.  It
    is deliberately independent of :func:`gyrate` so the two can check each
    other.  The intermediate sums are checked too: near c they can leave
    the ball.
    """


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


@_declare(_coadd)
def coadd(u, v) -> np.ndarray:
    """Coaddition u [+] v, the commutative dual of Einstein addition.

    Evaluated as 2 (x) (gamma_u u + gamma_v v)/(gamma_u + gamma_v); the inner
    vector is a convex combination of ball points, and the doubling uses the
    exact identity 2 (x) m = 2m/(1 + |m|^2).  The floating-point result is
    symmetric in u and v bit for bit.
    """


def _coadd_via_gyration(u, v, n2) -> list:
    neg = _neg(v)
    g = _gyrate(u, neg, v, _gyr_factors(u, neg, n2))
    _norm_sq_checked(g, "v")
    return _add(u, g, n2)


@_declare(_coadd_via_gyration)
def coadd_via_gyration(u, v) -> np.ndarray:
    """Coaddition evaluated from its definition u (+) gyr[u, -v]v.

    Kept separate from :func:`coadd` as an independent route for
    cross-checking.
    """


def _cosub(u, v, n2) -> list:
    return _coadd(u, _neg(v), n2)


@_declare(_cosub)
def cosub(u, v) -> np.ndarray:
    """Cosubtraction u [-] v = u [+] (-v) = u (-) gyr[u, v]v.

    Solves the equation x (+) a = b as x = b [-] a and satisfies the right
    cancellation law (v (+) u) [-] u = v.  Evaluated as the coaddition
    2 (x) (gamma_u u - gamma_v v)/(gamma_u + gamma_v) in one pass, so no
    intermediate can leave the ball; the gyration form u (-) gyr[u, v]v is
    the test suite's independent oracle.
    """


_checked_apply = _operation(lambda u, w, n2, v, factors: _gyrate(u, v, w, factors), ("u", "w"),
                            (_VELOCITY, _AMBIENT))
_checked_generators = _operation(None, ("u", "v"), _SINGLE)


@dataclass(frozen=True, eq=False, init=False)
class Gyration:
    """The rotation gyr[u, v] packaged with its generating pair.

    Built once and applied many times: the generators are checked, and the
    factors of the closed form that depend on them alone computed, when the
    gyration is made.  Any ambient vector is admissible as input to
    ``apply``.  ``matrix()`` materializes the n x n rotation for callers
    that want it, as the gyrations of the n unit vectors.  ``u`` and ``v``
    are read-only copies of the generators, and assigning either raises.
    """

    u: np.ndarray
    v: np.ndarray

    def __init__(self, u, v):
        (u, v), floats, n2 = _checked_generators(u, v)
        self._set(_read_only(u), _read_only(v), floats, n2)

    def _set(self, u, v, floats, n2) -> "Gyration":
        """Hold the generators, their floats and squared norms, and the factors."""
        vars(self).update(u=u, v=v, _floats=floats, _n2=n2, _factors=_gyr_factors(*floats, n2))
        return self

    def __reduce__(self):
        # Unpickled arrays are writeable: rebuild, so that u and v stay read-only copies.
        return Gyration, (self.u, self.v)

    @property
    def dim(self) -> int:
        return len(self._floats[0])

    def apply(self, w) -> np.ndarray:
        return _checked_apply(self.u, w, v=self._floats[1], factors=self._factors)

    __call__ = apply

    def inverse(self) -> "Gyration":
        """gyr[v, u], which undoes this gyration."""
        (u, v), (nu, nv) = self._floats, self._n2
        return Gyration.__new__(Gyration)._set(self.v, self.u, [v, u], [nv, nu])

    def matrix(self) -> np.ndarray:
        """The operator as an orthogonal n x n matrix acting on columns.

        Column j is gyr[u, v] e_j, as apply computes it.
        """
        u, v = self._floats
        n = len(u)
        basis = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
        return np.array([_gyrate(u, v, e, self._factors) for e in basis]).T

    def is_trivial(self, tol: float = 1e-14) -> bool:
        """True when the generators make the gyration the identity map."""
        nu, nv = map(math.sqrt, self._n2)
        if nu < tol or nv < tol:
            return True
        cross_sq = nu * nu * nv * nv - float(_dot(*self._floats)) ** 2
        return cross_sq <= (tol * nu * nv) ** 2

    def rotation_angle(self) -> float:
        """Unsigned rotation angle in [0, pi].

        Measured inside the plane spanned by the generators, where the
        rotation acts; 0.0 for trivial gyrations.
        """
        if self.is_trivial():
            return 0.0
        u, v = self._floats
        nu = _sqrt(self._n2[0])
        e = [x / nu for x in u]
        return _unit_angle(e, _gyrate(u, v, e, self._factors))
