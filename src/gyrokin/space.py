"""Gyrovector-space structure on the ball: scaling, metric, lines, midpoints.

Points and vectors share one coordinate type (admissible velocities); the
capital-letter "point" role only signals intent.  Gyrolines here are straight
chords of the ball, so Euclidean collinearity tests apply verbatim to
gyrocollinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ball import (COLLINEAR_AREA_TOL, MAX_NORM, _AMBIENT, _FINITE_REAL, _SINGLE, _VELOCITY,
                   _as_real, _declare, _dot, _neg, _norm, _norm_sq, _norm_sq_checked, _operation,
                   _read_only, _record, _require, _require_instance, _sqrt, norm, np)
from .errors import CollinearPoints
from .gyro import _add, _coadd, _left_sub, _midpoint


def _ratio(num, den):
    """num / den where den > 0, else 0.0: of two Python floats, or by np.divide."""
    if type(num) is float and type(den) is float:
        return num / den if den > 0.0 else 0.0
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0.0)


def _scalar_mul(r, v, n2) -> list:
    """r (x) v of a finite float or array r and trusted components v with [|v|^2] ``n2``."""
    n = _sqrt(n2[0])
    mag = np.tanh(r * np.arctanh(n))
    # np.clip of one value costs more than the rest of one vector's call.
    mag = np.clip(mag, -MAX_NORM, MAX_NORM) if mag.ndim else min(max(float(mag), -MAX_NORM),
                                                                 MAX_NORM)
    scale = _ratio(mag, n)
    return [scale * x for x in v]


@_declare(_scalar_mul, (_FINITE_REAL, _VELOCITY), ("scalar factor", "v"))
def scalar_mul(r, v) -> np.ndarray:
    """Scalar gyromultiplication r (x) v = tanh(r artanh|v|) v/|v|.

    Broadcasts over leading axes of both ``r`` and ``v``; r (x) 0 = 0 by
    definition.  The magnitude is clamped into the admissible ball so that
    the result is valid for every finite r.
    """


def _distance(a, b, n2):
    return _norm(_left_sub(a, b, n2))


@_declare(_distance)
def gyrodistance(a, b) -> np.ndarray:
    """Gyrometric d(a, b) = |(-a) (+) b|, in [0, 1).

    Symmetric, zero exactly on coincident points, and gyroadditive along
    gyrosegments under the parallel speed composition.
    """


def _line_point(a, b, t, n2) -> list:
    """gyroline_point of trusted a, b and t, checking the gyrovector and its image."""
    g = _left_sub(a, b, n2)
    v = _scalar_mul(t, g, [_norm_sq_checked(g, "v")])
    _norm_sq_checked(v, "v")
    return _add(a, v, n2)


@_declare(_line_point, (_VELOCITY, _VELOCITY, _FINITE_REAL))
def gyroline_point(a, b, t) -> np.ndarray:
    """Point a (+) ((-a) (+) b) (x) t of the gyroline through a and b.

    t = 0 gives ``a``, t = 1 gives ``b``; the full parameter range traces the
    chord of the ball through the two points.  Coincident endpoints make the
    line degenerate and every t maps to ``a``.  Near c the gyrovector
    (-a) (+) b and its scaled image can leave the ball, so both are checked.
    """


@_declare(_midpoint)
def gyromidpoint(a, b) -> np.ndarray:
    """Gyromidpoint of a and b: the equidistant point of gyrosegment ab.

    Evaluated in the gamma-weighted form
    (gamma_a a + gamma_b b)/(gamma_a + gamma_b), which is exactly symmetric;
    the line-parameter and half-coaddition forms agree to rounding and are
    exercised by the test suite.
    """


def _area(a, b, c):
    """triangle_area of three trusted component lists."""
    x = [q - p for p, q in zip(a, b)]
    y = [q - p for p, q in zip(a, c)]
    xx = _norm_sq(x)
    coef = _ratio(_dot(x, y), xx)
    return 0.5 * _sqrt(xx) * _norm([q - coef * p for p, q in zip(x, y)])


@_declare(lambda a, b, c, n2: _area(a, b, c), _AMBIENT)
def triangle_area(a, b, c) -> np.ndarray:
    """Euclidean area of the ambient triangle abc (any dimension).

    Uses base times orthogonalized height rather than the Gram determinant:
    the latter cancels catastrophically near collinear triples and cannot
    resolve areas below sqrt(eps), while this form stays accurate to rounding.
    The points are ambient vectors: they must be finite, have one
    dimension, and batch shapes that broadcast.
    """


def are_gyrocollinear(a, b, c, tol: float = COLLINEAR_AREA_TOL) -> bool | np.ndarray:
    """Whether the three points lie on one gyroline (one chord).

    A bool for one triple, and a bool array of the rows for a batch.
    """
    rows = triangle_area(a, b, c) < tol
    return rows if rows.ndim else bool(rows)


def _fourth(a, b, c, n2, *, allow_degenerate, tol) -> list:
    """gyroparallelogram_fourth of trusted velocities."""
    if not allow_degenerate:
        _require(_area(a, b, c) >= tol, CollinearPoints,
                 "lie on one gyroline; no gyroparallelogram", "a, b, c")
    u = _coadd(b, c, n2[1:])
    return _add(u, _neg(a), [_norm_sq_checked(u, "u")])


@_declare(_fourth)
def gyroparallelogram_fourth(a, b, c, *, allow_degenerate: bool = False,
                             tol: float = COLLINEAR_AREA_TOL) -> np.ndarray:
    """Fourth vertex d = (b [+] c) (-) a of the gyroparallelogram abdc.

    The defining property is that the two gyrodiagonals ad and bc share
    their gyromidpoint.  Collinear inputs degenerate the figure and raise
    CollinearPoints unless ``allow_degenerate`` is set (coincident points,
    e.g. a = b, then fall through to the raw formula, which returns c).
    A batch's error names its first collinear row.  Near c the coaddition
    b [+] c can leave the ball, so it is checked.
    """


@dataclass(frozen=True, eq=False)
class RootedGyrovector:
    """An ordered point pair with its value (-tail) (+) head.

    Two rooted gyrovectors are one gyrovector exactly when their values
    agree; re-rooting keeps the value and moves the head accordingly.  The
    library's records hold read-only arrays of their own.
    """

    tail: np.ndarray
    head: np.ndarray
    value: np.ndarray

    @property
    def gyrolength(self) -> float | np.ndarray:
        """|value|: a float for one gyrovector, and an array of the rows' for a batch."""
        length = norm(self.value)
        return length if length.ndim else float(length)


def gyrovector_between(p, q) -> RootedGyrovector:
    """Rooted gyrovector from point p to point q."""
    p, q = _as_real(p, "p"), _as_real(q, "q")
    value = _checked_between(p, q)
    value.setflags(write=False)
    return _record(RootedGyrovector, tail=_read_only(p), head=_read_only(q), value=value)


_checked_between = _operation(_left_sub, gyrovector_between)


def equivalent(g1: RootedGyrovector, g2: RootedGyrovector,
               tol: float = 1e-12) -> bool | np.ndarray:
    """Whether two rooted gyrovectors carry the same value.

    A bool for one pair, and a bool array of the rows for batches of one
    shape; values of different shapes are never equivalent.
    """
    _require_instance(RootedGyrovector, g1=g1, g2=g2)
    if g1.value.shape != g2.value.shape:
        return False
    rows = np.all(np.abs(g1.value - g2.value) <= tol, axis=-1)
    return rows if rows.ndim else bool(rows)


def translate_to(g: RootedGyrovector, new_tail) -> RootedGyrovector:
    """Re-root a gyrovector: same value, head = new_tail (+) value.

    The value array is reused, not recomputed, so the translated gyrovector
    is equivalent to ``g`` exactly.  The value is checked as well, since a
    gyrovector between points near c can leave the ball.
    """
    _require_instance(RootedGyrovector, g=g)
    new_tail = _as_real(new_tail, "new_tail")
    head = _checked_translate(new_tail, g.value)
    head.setflags(write=False)
    return _record(RootedGyrovector, tail=_read_only(new_tail), head=head, value=g.value)


_checked_translate = _operation(_add, ("new_tail", "value"))


def metric_tensor(x) -> np.ndarray:
    """Matrix G(x) of the Riemannian line element at a ball point x.

        ds^2 = |(x + dx) (-) x|^2 = dx.G(x).dx + O(|dx|^3)

    with G(x) = I/(1 - x^2) + x x^T/(1 - x^2)^2, the classical line element
    of the ball model.  Symmetric positive definite; the identity at x = 0.
    """
    (x,), _, (n2,) = _checked_metric_point(x)
    n = x.shape[0]
    q = 1.0 - float(n2)
    return np.eye(n) / q + np.outer(x, x) / (q * q)


_checked_metric_point = _operation(None, metric_tensor, _SINGLE)
