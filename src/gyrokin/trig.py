"""Gyrotrigonometry: gyroangles, triangle solving, right-triangle identities.

Triangle notation is the usual one: side a joins B and C (opposite vertex A),
and alpha is the gyroangle at A.  Side lengths are gyrolengths in (0, 1);
each side also carries its gamma factor, which is what the conversion laws
actually consume.

Unlike the Euclidean case, the three gyroangles determine the sides, so the
conversion runs in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ball import (COLLINEAR_AREA_TOL, RIGHT_ANGLE_TOL, _SINGLE, _SINGLE_REAL, _declare, _norm,
                   _operation, _read_only, _record, _require_instance)
from .errors import (
    AdmissibilityError,
    CollinearPoints,
    DegenerateAngle,
    InvalidTriangle,
    NoSuchTriangle,
    NotRightTriangle,
)
from .gyro import _gamma_of_speed, _left_sub, _speed_of_gamma, _unit_angle
from .space import _area

# cos values and the triangle quantity may land this far outside their exact
# range from rounding at degenerate configurations; clamp instead of failing.
CLAMP_TOL = 1e-12


def _gyroangle(p, q, lp, lq, tol: float = 1e-14) -> float:
    """Angle between the gyrovectors p and q, of the unit vectors (gyro._unit_angle).

    p and q are lists of Python floats, and lp and lq their norms (_norm).
    Raises DegenerateAngle when either gyrovector is shorter than ``tol``.
    """
    if not (lp >= tol and lq >= tol):
        raise DegenerateAngle("gyrovector of near-zero gyrolength at vertex")
    return _unit_angle([x / lp for x in p], [x / lq for x in q])


def gyroangle(vertex, p, q, *, tol: float = 1e-14) -> float:
    """Gyroangle at ``vertex`` between the gyrovectors toward p and q.

    cos of the result is the inner product of the two unit gyrovectors
    (-vertex)(+)p and (-vertex)(+)q; the value is invariant under left
    gyrotranslations and rotations of all three points.

    Raises DegenerateAngle when either gyrovector is shorter than ``tol``.
    """
    _, (vertex, p, q), n2 = _checked_gyroangle(vertex, p, q)
    p, q = _left_sub(vertex, p, n2), _left_sub(vertex, q, n2)
    return _gyroangle(p, q, _norm(p), _norm(q), tol)


_checked_gyroangle = _operation(None, gyroangle, _SINGLE)


def _triangle_q(gamma_a: float, gamma_b: float, gamma_c: float) -> float:
    """triangle_q of three trusted Python floats."""
    q = (1.0 + 2.0 * gamma_a * gamma_b * gamma_c
         - gamma_a * gamma_a - gamma_b * gamma_b - gamma_c * gamma_c)
    scale = 1.0 + 2.0 * gamma_a * gamma_b * gamma_c
    if -CLAMP_TOL * scale <= q < 0.0:
        return 0.0
    return q


@_declare(_triangle_q, _SINGLE_REAL)
def triangle_q(gamma_a: float, gamma_b: float, gamma_c: float) -> float:
    """Triangle quantity 1 + 2 g_a g_b g_c - g_a^2 - g_b^2 - g_c^2.

    Nonnegative exactly when the three gammas belong to a realizable
    gyrotriangle; it is the squared common numerator of the three gyrosines.
    Values in a rounding-width band below zero clamp to 0.  The gammas must
    be real scalars.
    """


def _clamped_cos(num: float, den: float) -> float:
    c = num / den
    if 1.0 < abs(c) <= 1.0 + CLAMP_TOL:
        c = math.copysign(1.0, c)
    if abs(c) > 1.0:
        raise InvalidTriangle(
            f"side gammas give cos = {c:.17g}, outside [-1, 1]"
        )
    return c


def _sss_to_aaa(ga: float, gb: float, gc: float) -> tuple[float, float, float]:
    """sss_to_aaa of three trusted Python floats."""
    if not (ga > 1.0 and gb > 1.0 and gc > 1.0):
        raise InvalidTriangle("side gamma factors must exceed 1")
    if _triangle_q(ga, gb, gc) < 0.0:  # negative beyond the rounding band
        raise InvalidTriangle("negative triangle quantity; sides do not close")
    ra = math.sqrt(ga * ga - 1.0)
    rb = math.sqrt(gb * gb - 1.0)
    rc = math.sqrt(gc * gc - 1.0)
    cos_alpha = _clamped_cos(-ga + gb * gc, rb * rc)
    cos_beta = _clamped_cos(-gb + ga * gc, ra * rc)
    cos_gamma = _clamped_cos(-gc + ga * gb, ra * rb)
    return math.acos(cos_alpha), math.acos(cos_beta), math.acos(cos_gamma)


@_declare(_sss_to_aaa, _SINGLE_REAL)
def sss_to_aaa(gamma_a: float, gamma_b: float, gamma_c: float
               ) -> tuple[float, float, float]:
    """Gyroangles (alpha, beta, gamma) from the three side gamma factors.

        cos alpha = (-g_a + g_b g_c) / (sqrt(g_b^2 - 1) sqrt(g_c^2 - 1))

    and cyclically.  Raises InvalidTriangle when the gammas cannot come from
    a gyrotriangle (any cos outside [-1, 1] beyond rounding, negative
    triangle quantity, or a gamma at/below 1).
    """


def _aaa_to_sss(*angles, tol: float) -> tuple[float, float, float]:
    """aaa_to_sss of three trusted Python floats."""
    if not all(0.0 < a < math.pi for a in angles):
        raise NoSuchTriangle("gyroangles must lie strictly between 0 and pi")
    if angles[0] + angles[1] + angles[2] >= math.pi - tol:
        raise NoSuchTriangle(
            f"gyroangle sum {sum(angles):.17g} leaves no positive defect"
        )
    ca, cb, cg = (math.cos(a) for a in angles)
    sa, sb, sg = (math.sin(a) for a in angles)
    # Products of tiny sines can underflow to 0: the gamma is then infinite.
    ga, gb, gc = (num / den if den else math.inf for num, den in (
        (ca + cb * cg, sb * sg), (cb + ca * cg, sa * sg), (cg + ca * cb, sa * sb)))
    if not (ga > 1.0 and gb > 1.0 and gc > 1.0):
        raise NoSuchTriangle("angles yield a side gamma factor <= 1")
    if max(ga, gb, gc) == math.inf:
        raise NoSuchTriangle("gyroangles so small that a side gamma factor overflows")
    return ga, gb, gc


@_declare(_aaa_to_sss, _SINGLE_REAL)
def aaa_to_sss(alpha: float, beta: float, gamma: float, *,
               tol: float = 1e-12) -> tuple[float, float, float]:
    """Side gamma factors from the three gyroangles.

        g_a = (cos alpha + cos beta cos gamma) / (sin beta sin gamma)

    and cyclically.  The angle sum must fall short of pi (positive defect);
    otherwise, or when a computed gamma does not exceed 1 or overflows, there
    is no such gyrotriangle and NoSuchTriangle is raised.
    """


@dataclass(frozen=True, eq=False)
class Gyrotriangle:
    """A solved gyrotriangle: sides, side gammas, and gyroangles.

    ``vertices`` holds read-only copies of the points when the triangle was
    built from them, and is None for triangles solved from sides or angles
    alone.
    """

    side_a: float
    side_b: float
    side_c: float
    gamma_a: float
    gamma_b: float
    gamma_c: float
    alpha: float
    beta: float
    gamma: float
    vertices: tuple | None = None

    @property
    def defect(self) -> float:
        """pi minus the gyroangle sum.

        Positive for every gyrotriangle in exact arithmetic, but a thin
        triangle solved from its sides can lose its smallest angle to
        rounding (in sss_to_aaa), and its defect can then read zero or
        slightly negative.
        """
        return math.pi - (self.alpha + self.beta + self.gamma)

    @property
    def q(self) -> float:
        return _triangle_q(self.gamma_a, self.gamma_b, self.gamma_c)

    def is_right(self, tol: float = RIGHT_ANGLE_TOL) -> bool:
        return abs(self.gamma - math.pi / 2.0) <= tol


def _triangle(sides, gammas, angles, vertices=None) -> Gyrotriangle:
    """A Gyrotriangle with every field set in one step (_record).

    ``sides``, ``gammas`` and ``angles`` are triples of Python floats: the
    side gyrolengths, the side gamma factors and the gyroangles.
    ``vertices`` is None for a triangle solved from its sides or angles.
    """
    (a, b, c), (ga, gb, gc), (alpha, beta, gamma) = sides, gammas, angles
    return _record(Gyrotriangle, side_a=a, side_b=b, side_c=c, gamma_a=ga, gamma_b=gb,
                   gamma_c=gc, alpha=alpha, beta=beta, gamma=gamma, vertices=vertices)


def triangle_from_vertices(a, b, c) -> Gyrotriangle:
    """Assemble a gyrotriangle from three non-gyrocollinear ball points.

    Sides are pairwise gyrodistances (side a = d(B, C) and so on); angles
    are measured geometrically at each vertex and agree with the analytic
    conversion from the side gammas.
    """
    vertices, (a, b, c), (na, nb, nc) = _checked_vertices(a, b, c)
    if _area(a, b, c) < COLLINEAR_AREA_TOL:
        raise CollinearPoints("vertices lie on one gyroline")
    # The gyrovectors ab, ac, ba, bc, ca and cb.
    g = [_left_sub(p, q, [n2]) for p, q, n2 in
         ((a, b, na), (a, c, na), (b, a, nb), (b, c, nb), (c, a, nc), (c, b, nc))]
    lengths = list(map(_norm, g))
    sides = [float(lengths[3]), float(lengths[1]), float(lengths[0])]
    for i, side in enumerate(sides):
        if not side < 1.0:  # a side between points near c can round to 1
            ends = " and ".join("abc".replace("abc"[i], ""))
            raise AdmissibilityError(f"side {'abc'[i]}, between vertices {ends}, has "
                                     f"gyrolength {side:.17g}, not below 1")
    return _triangle(sides, list(map(_gamma_of_speed, sides)),
                     [_gyroangle(*g[i:i + 2], *lengths[i:i + 2]) for i in (0, 2, 4)],
                     tuple(map(_read_only, vertices)))


_checked_vertices = _operation(None, triangle_from_vertices, _SINGLE)


def _from_sides(*sides) -> Gyrotriangle:
    """triangle_from_sides of three trusted Python floats."""
    if not all(0.0 < s < 1.0 for s in sides):
        raise InvalidTriangle("side gyrolengths must lie in (0, 1)")
    gammas = list(map(_gamma_of_speed, sides))
    return _triangle(sides, gammas, _sss_to_aaa(*gammas))


@_declare(_from_sides, _SINGLE_REAL)
def triangle_from_sides(side_a: float, side_b: float, side_c: float
                        ) -> Gyrotriangle:
    """Solve a gyrotriangle from its three side gyrolengths in (0, 1)."""


def triangle_from_angles(alpha: float, beta: float, gamma: float
                         ) -> Gyrotriangle:
    """Solve a gyrotriangle from its three gyroangles (positive defect).

    Angles so small that a side rounds to 1 raise NoSuchTriangle.
    """
    gammas = aaa_to_sss(alpha, beta, gamma)
    sides = [_speed_of_gamma(g) for g in gammas]
    if not all(s < 1.0 for s in sides):
        raise NoSuchTriangle("gyroangles so small that a side reaches 1")
    return _triangle(sides, gammas, (float(alpha), float(beta), float(gamma)))


@dataclass(frozen=True)
class RightTriangleReport:
    """Right-gyrotriangle identity check: values and residuals.

    ``residuals`` maps identity names to absolute errors; ``max_residual``
    is their maximum.  All identities are stated for the right angle at C,
    hypotenuse c, legs a and b.
    """

    gamma_a: float
    gamma_b: float
    gamma_c: float
    cos_alpha: float
    cos_beta: float
    sin_alpha: float
    sin_beta: float
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def right_triangle_relations(tri: Gyrotriangle, *,
                             tol: float = RIGHT_ANGLE_TOL
                             ) -> RightTriangleReport:
    """Verify the right-gyrotriangle identities on a triangle with gamma = pi/2.

    Checks, with the right angle at C:

    - g_a = cos(alpha)/sin(beta), g_b = cos(beta)/sin(alpha),
      g_c = cos(alpha)cos(beta)/(sin(alpha)sin(beta))
    - the hypotenuse identity g_a g_b = g_c
    - cos(alpha) = b/c, cos(beta) = a/c
    - sin(alpha) = g_a a/(g_c c), sin(beta) = g_b b/(g_c c)
    - a^2 + (g_b/g_c)^2 b^2 = c^2 and (g_a/g_c)^2 a^2 + b^2 = c^2

    Raises NotRightTriangle when the angle at C is not pi/2 within ``tol``.
    """
    _require_instance(Gyrotriangle, tri=tri)
    if not tri.is_right(tol):
        raise NotRightTriangle(
            f"gyroangle at C is {tri.gamma:.17g}, not pi/2"
        )
    ca, cb = math.cos(tri.alpha), math.cos(tri.beta)
    sa, sb = math.sin(tri.alpha), math.sin(tri.beta)
    a, b, c = tri.side_a, tri.side_b, tri.side_c
    ga, gb, gc = tri.gamma_a, tri.gamma_b, tri.gamma_c
    residuals = {
        "gamma_a_from_angles": abs(ga - ca / sb),
        "gamma_b_from_angles": abs(gb - cb / sa),
        "gamma_c_from_angles": abs(gc - (ca * cb) / (sa * sb)),
        "hypotenuse_gamma_product": abs(ga * gb - gc),
        "cos_alpha_leg_ratio": abs(ca - b / c),
        "cos_beta_leg_ratio": abs(cb - a / c),
        "sin_alpha_gamma_ratio": abs(sa - (ga * a) / (gc * c)),
        "sin_beta_gamma_ratio": abs(sb - (gb * b) / (gc * c)),
        "pythagoras_first": abs(a * a + (gb / gc) ** 2 * b * b - c * c),
        "pythagoras_second": abs((ga / gc) ** 2 * a * a + b * b - c * c),
    }
    return RightTriangleReport(
        gamma_a=ga, gamma_b=gb, gamma_c=gc,
        cos_alpha=ca, cos_beta=cb, sin_alpha=sa, sin_beta=sb,
        residuals=residuals,
    )


def law_of_gyrosines_ratios(tri: Gyrotriangle) -> tuple[float, float, float]:
    """The three ratios sin(angle)/sqrt(gamma_side^2 - 1); equal on any
    gyrotriangle."""
    _require_instance(Gyrotriangle, tri=tri)
    return (
        math.sin(tri.alpha) / math.sqrt(tri.gamma_a ** 2 - 1.0),
        math.sin(tri.beta) / math.sqrt(tri.gamma_b ** 2 - 1.0),
        math.sin(tri.gamma) / math.sqrt(tri.gamma_c ** 2 - 1.0),
    )
