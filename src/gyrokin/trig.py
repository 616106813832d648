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

import numpy as np

from .ball import _real_scalars, as_velocity, norm, operands, same_shape
from .errors import (
    CollinearPoints,
    DegenerateAngle,
    DimensionError,
    InvalidTriangle,
    NoSuchTriangle,
    NotRightTriangle,
)
from .gyro import _add, gamma_of_speed, speed_of_gamma
from .space import are_gyrocollinear

# cos values and the triangle quantity may land this far outside their exact
# range from rounding at degenerate configurations; clamp instead of failing.
CLAMP_TOL = 1e-12

# Angle-at-C tolerance for treating a triangle as right-angled.
RIGHT_ANGLE_TOL = 1e-8


def _vectors(arrays, names) -> list:
    """operands() for the scalar-only ops, which take single vectors only."""
    out = operands(arrays, names)
    if any(a.ndim != 1 for a in out):
        raise DimensionError(f"{', '.join(names)} must be single vectors, not batches")
    return out


def _gyroangle(gp, gq, tol: float = 1e-14) -> float:
    """Angle between two gyrovectors via 2*atan2(|p^ - q^|, |p^ + q^|).

    Exact at 0 for bitwise-equal directions and well conditioned near both 0
    and pi, unlike arccos of a clamped dot product.  Raises DegenerateAngle
    when either gyrovector is shorter than ``tol``.
    """
    lp, lq = norm(gp), norm(gq)
    if float(lp) < tol or float(lq) < tol:
        raise DegenerateAngle("gyrovector of near-zero gyrolength at vertex")
    up = gp / lp[..., None]
    uq = gq / lq[..., None]
    return float(2.0 * np.arctan2(norm(up - uq), norm(up + uq)))


def gyroangle(vertex, p, q, *, tol: float = 1e-14) -> float:
    """Gyroangle at ``vertex`` between the gyrovectors toward p and q.

    cos of the result is the inner product of the two unit gyrovectors
    (-vertex)(+)p and (-vertex)(+)q; the value is invariant under left
    gyrotranslations and rotations of all three points.

    Raises DegenerateAngle when either gyrovector is shorter than ``tol``.
    """
    vertex, p, q = _vectors((vertex, p, q), ("vertex", "p", "q"))
    return _gyroangle(_add(-vertex, p), _add(-vertex, q), tol)


def triangle_q(gamma_a: float, gamma_b: float, gamma_c: float) -> float:
    """Triangle quantity 1 + 2 g_a g_b g_c - g_a^2 - g_b^2 - g_c^2.

    Nonnegative exactly when the three gammas belong to a realizable
    gyrotriangle; it is the squared common numerator of the three gyrosines.
    Values in a rounding-width band below zero clamp to 0.
    """
    q = (1.0 + 2.0 * gamma_a * gamma_b * gamma_c
         - gamma_a * gamma_a - gamma_b * gamma_b - gamma_c * gamma_c)
    scale = 1.0 + 2.0 * gamma_a * gamma_b * gamma_c
    if -CLAMP_TOL * scale <= q < 0.0:
        return 0.0
    return q


def _clamped_cos(num: float, den: float) -> float:
    c = num / den
    if 1.0 < abs(c) <= 1.0 + CLAMP_TOL:
        c = math.copysign(1.0, c)
    if abs(c) > 1.0:
        raise InvalidTriangle(
            f"side gammas give cos = {c:.17g}, outside [-1, 1]"
        )
    return c


def sss_to_aaa(gamma_a: float, gamma_b: float, gamma_c: float
               ) -> tuple[float, float, float]:
    """Gyroangles (alpha, beta, gamma) from the three side gamma factors.

        cos alpha = (-g_a + g_b g_c) / (sqrt(g_b^2 - 1) sqrt(g_c^2 - 1))

    and cyclically.  Raises InvalidTriangle when the gammas cannot come from
    a gyrotriangle (any cos outside [-1, 1] beyond rounding, negative
    triangle quantity, or a gamma at/below 1).
    """
    gs = _real_scalars((gamma_a, gamma_b, gamma_c), ("gamma_a", "gamma_b", "gamma_c"))
    if not all(g > 1.0 for g in gs):
        raise InvalidTriangle("side gamma factors must exceed 1")
    ga, gb, gc = gs
    scale = 1.0 + 2.0 * ga * gb * gc
    if triangle_q(ga, gb, gc) < -CLAMP_TOL * scale:
        raise InvalidTriangle("negative triangle quantity; sides do not close")
    ra = math.sqrt(ga * ga - 1.0)
    rb = math.sqrt(gb * gb - 1.0)
    rc = math.sqrt(gc * gc - 1.0)
    cos_alpha = _clamped_cos(-ga + gb * gc, rb * rc)
    cos_beta = _clamped_cos(-gb + ga * gc, ra * rc)
    cos_gamma = _clamped_cos(-gc + ga * gb, ra * rb)
    return math.acos(cos_alpha), math.acos(cos_beta), math.acos(cos_gamma)


def aaa_to_sss(alpha: float, beta: float, gamma: float, *,
               tol: float = 1e-12) -> tuple[float, float, float]:
    """Side gamma factors from the three gyroangles.

        g_a = (cos alpha + cos beta cos gamma) / (sin beta sin gamma)

    and cyclically.  The angle sum must fall short of pi (positive defect);
    otherwise, or when a computed gamma does not exceed 1 or overflows, there
    is no such gyrotriangle and NoSuchTriangle is raised.
    """
    angles = _real_scalars((alpha, beta, gamma), ("alpha", "beta", "gamma"))
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


@dataclass(frozen=True, eq=False)
class Gyrotriangle:
    """A solved gyrotriangle: sides, side gammas, and gyroangles.

    ``vertices`` is populated when the triangle was built from points and is
    None for triangles solved from sides or angles alone.
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
        """pi minus the gyroangle sum; positive for every gyrotriangle."""
        return math.pi - (self.alpha + self.beta + self.gamma)

    @property
    def q(self) -> float:
        return triangle_q(self.gamma_a, self.gamma_b, self.gamma_c)

    def is_right(self, tol: float = RIGHT_ANGLE_TOL) -> bool:
        return abs(self.gamma - math.pi / 2.0) <= tol


def triangle_from_vertices(a, b, c) -> Gyrotriangle:
    """Assemble a gyrotriangle from three non-gyrocollinear ball points.

    Sides are pairwise gyrodistances (side a = d(B, C) and so on); angles
    are measured geometrically at each vertex and agree with the analytic
    conversion from the side gammas.
    """
    a, b, c = _vectors((a, b, c), ("a", "b", "c"))
    if are_gyrocollinear(a, b, c):
        raise CollinearPoints("vertices lie on one gyroline")
    ab, ac = _add(-a, b), _add(-a, c)
    ba, bc = _add(-b, a), _add(-b, c)
    ca, cb = _add(-c, a), _add(-c, b)
    sides = [float(norm(bc)), float(norm(ac)), float(norm(ab))]
    ga, gb, gc = gamma_of_speed(sides).tolist()
    return Gyrotriangle(
        side_a=sides[0], side_b=sides[1], side_c=sides[2],
        gamma_a=ga, gamma_b=gb, gamma_c=gc,
        alpha=_gyroangle(ab, ac),
        beta=_gyroangle(ba, bc),
        gamma=_gyroangle(ca, cb),
        vertices=(a, b, c),
    )


def triangle_from_sides(side_a: float, side_b: float, side_c: float
                        ) -> Gyrotriangle:
    """Solve a gyrotriangle from its three side gyrolengths in (0, 1)."""
    sides = _real_scalars((side_a, side_b, side_c), ("side_a", "side_b", "side_c"))
    if not all(0.0 < s < 1.0 for s in sides):
        raise InvalidTriangle("side gyrolengths must lie in (0, 1)")
    ga, gb, gc = gamma_of_speed(sides).tolist()
    alpha, beta, gamma = sss_to_aaa(ga, gb, gc)
    return Gyrotriangle(
        side_a=sides[0], side_b=sides[1], side_c=sides[2],
        gamma_a=ga, gamma_b=gb, gamma_c=gc,
        alpha=alpha, beta=beta, gamma=gamma,
    )


def triangle_from_angles(alpha: float, beta: float, gamma: float
                         ) -> Gyrotriangle:
    """Solve a gyrotriangle from its three gyroangles (positive defect).

    Angles so small that a side rounds to 1 raise NoSuchTriangle.
    """
    ga, gb, gc = aaa_to_sss(alpha, beta, gamma)
    with np.errstate(over="ignore"):  # g^2 overflows past 1e154: the side is inf
        sides = speed_of_gamma([ga, gb, gc]).tolist()
    if not all(s < 1.0 for s in sides):
        raise NoSuchTriangle("gyroangles so small that a side reaches 1")
    return Gyrotriangle(
        side_a=sides[0], side_b=sides[1], side_c=sides[2],
        gamma_a=ga, gamma_b=gb, gamma_c=gc,
        alpha=float(alpha), beta=float(beta), gamma=float(gamma),
    )


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
    return (
        math.sin(tri.alpha) / math.sqrt(tri.gamma_a ** 2 - 1.0),
        math.sin(tri.beta) / math.sqrt(tri.gamma_b ** 2 - 1.0),
        math.sin(tri.gamma) / math.sqrt(tri.gamma_c ** 2 - 1.0),
    )


def left_gyrotranslate(t, *points) -> tuple:
    """Move every point p to t (+) p; gyroangles are invariant under this."""
    t = as_velocity(t, name="t")
    moved = []
    for p in points:
        p = as_velocity(p, name="p")
        same_shape((t, p), ("t", "p"))
        moved.append(_add(t, p))
    return tuple(moved)
