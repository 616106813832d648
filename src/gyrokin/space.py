"""Gyrovector-space structure on the ball: scaling, metric, lines, midpoints.

Points and vectors share one coordinate type (admissible velocities); the
capital-letter "point" role only signals intent.  Gyrolines here are straight
chords of the ball, so Euclidean collinearity tests apply verbatim to
gyrocollinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import (MAX_NORM, _real_array, as_velocity, dot, norm, norm_sq, operands,
                   same_shape)
from .errors import CollinearPoints, DimensionError, NonFinite
from .gyro import _add, _coadd, _midpoint, left_sub

# Ambient triangle areas below this mark a triple as gyrocollinear.
COLLINEAR_AREA_TOL = 1e-12


def scalar_mul(r, v) -> np.ndarray:
    """Scalar gyromultiplication r (x) v = tanh(r artanh|v|) v/|v|.

    Broadcasts over leading axes of both ``r`` and ``v``; r (x) 0 = 0 by
    definition.  The magnitude is clamped into the admissible ball so that
    the result is valid for every finite r.
    """
    r = _real_array(r, "scalar factor")
    if not np.all(np.isfinite(r)):
        raise NonFinite("scalar factor must be finite")
    v = as_velocity(v, name="v")
    n = norm(v)
    mag = np.tanh(r * np.arctanh(n))
    mag = np.clip(mag, -MAX_NORM, MAX_NORM)
    scale = np.divide(mag, n, out=np.zeros(np.broadcast(mag, n).shape), where=n > 0.0)
    return scale[..., None] * v


def gyrodistance(a, b) -> np.ndarray:
    """Gyrometric d(a, b) = |(-a) (+) b|, in [0, 1).

    Symmetric, zero exactly on coincident points, and gyroadditive along
    gyrosegments under the parallel speed composition.
    """
    return norm(left_sub(a, b))


def gyroline_point(a, b, t) -> np.ndarray:
    """Point a (+) ((-a) (+) b) (x) t of the gyroline through a and b.

    t = 0 gives ``a``, t = 1 gives ``b``; the full parameter range traces the
    chord of the ball through the two points.  Coincident endpoints make the
    line degenerate and every t maps to ``a``.  Near c the gyrovector
    (-a) (+) b and its scaled image can leave the ball, so both are checked.
    """
    a, b = operands((a, b), ("a", "b"))
    return _add(a, as_velocity(scalar_mul(t, _add(-a, b)), name="v"))


def gyromidpoint(a, b) -> np.ndarray:
    """Gyromidpoint of a and b: the equidistant point of gyrosegment ab.

    Evaluated in the gamma-weighted form
    (gamma_a a + gamma_b b)/(gamma_a + gamma_b), which is exactly symmetric;
    the line-parameter and half-coaddition forms agree to rounding and are
    exercised by the test suite.
    """
    return _midpoint(*operands((a, b), ("a", "b")))


def triangle_area(a, b, c) -> np.ndarray:
    """Euclidean area of the ambient triangle abc (any dimension).

    Uses base times orthogonalized height rather than the Gram determinant:
    the latter cancels catastrophically near collinear triples and cannot
    resolve areas below sqrt(eps), while this form stays accurate to rounding.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(b, dtype=float) - a
    y = np.asarray(c, dtype=float) - a
    xx = norm_sq(x)
    coef = np.divide(dot(x, y), xx, out=np.zeros(np.shape(xx)), where=xx > 0.0)
    y_perp = y - coef[..., None] * x
    return 0.5 * np.sqrt(xx) * norm(y_perp)


def are_gyrocollinear(a, b, c, tol: float = COLLINEAR_AREA_TOL) -> bool:
    """True when the three points lie on one gyroline (one chord)."""
    return bool(np.all(triangle_area(a, b, c) < tol))


def gyroparallelogram_fourth(a, b, c, *, allow_degenerate: bool = False,
                             tol: float = COLLINEAR_AREA_TOL) -> np.ndarray:
    """Fourth vertex d = (b [+] c) (-) a of the gyroparallelogram abdc.

    The defining property is that the two gyrodiagonals ad and bc share
    their gyromidpoint.  Collinear inputs degenerate the figure and raise
    CollinearPoints unless ``allow_degenerate`` is set (coincident points,
    e.g. a = b, then fall through to the raw formula, which returns c).
    Near c the coaddition b [+] c can leave the ball, so it is checked.
    """
    a, b, c = operands((a, b, c), ("a", "b", "c"))
    if not allow_degenerate and are_gyrocollinear(a, b, c, tol):
        raise CollinearPoints("a, b, c lie on one gyroline; no gyroparallelogram")
    return _add(as_velocity(_coadd(b, c), name="u"), -a)


@dataclass(frozen=True, eq=False)
class RootedGyrovector:
    """An ordered point pair with its value (-tail) (+) head.

    Two rooted gyrovectors are one gyrovector exactly when their values
    agree; re-rooting keeps the value and moves the head accordingly.
    """

    tail: np.ndarray
    head: np.ndarray
    value: np.ndarray

    @property
    def gyrolength(self) -> float:
        return float(norm(self.value))


def gyrovector_between(p, q) -> RootedGyrovector:
    """Rooted gyrovector from point p to point q."""
    p, q = operands((p, q), ("p", "q"))
    return RootedGyrovector(tail=p, head=q, value=_add(-p, q))


def equivalent(g1: RootedGyrovector, g2: RootedGyrovector,
               tol: float = 1e-12) -> bool:
    """Whether two rooted gyrovectors carry the same value."""
    if g1.value.shape != g2.value.shape:
        return False
    return bool(np.all(np.abs(g1.value - g2.value) <= tol))


def translate_to(g: RootedGyrovector, new_tail) -> RootedGyrovector:
    """Re-root a gyrovector: same value, head = new_tail (+) value.

    The value array is reused, not recomputed, so the translated gyrovector
    is equivalent to ``g`` exactly.  The value is checked as well, since a
    gyrovector between points near c can leave the ball.
    """
    new_tail = as_velocity(new_tail, name="new_tail")
    same_shape((new_tail, g.value), ("new_tail", "value"))
    return RootedGyrovector(
        tail=new_tail,
        head=_add(new_tail, as_velocity(g.value, name="value")),
        value=g.value,
    )


def metric_tensor(x) -> np.ndarray:
    """Matrix G(x) of the Riemannian line element at a ball point x.

        ds^2 = |(x + dx) (-) x|^2 = dx.G(x).dx + O(|dx|^3)

    with G(x) = I/(1 - x^2) + x x^T/(1 - x^2)^2, the classical line element
    of the ball model.  Symmetric positive definite; the identity at x = 0.
    """
    x = as_velocity(x, name="x")
    if x.ndim != 1:
        raise DimensionError("metric_tensor expects a single point")
    n = x.shape[0]
    q = 1.0 - float(norm_sq(x))
    return np.eye(n) / q + np.outer(x, x) / (q * q)
