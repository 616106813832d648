"""Independent oracles for checking gyrokin's outputs.

Nothing in this module imports gyrokin.  Every result is rebuilt from
special relativity in 3+1 (or 2+1) dimensions: a velocity is the spatial
part of a four-velocity, Einstein addition is a pure Lorentz boost acting
on a four-velocity, the gyration is the Thomas rotation left over when two
boosts are composed, and the invariant mass is the Minkowski norm of the
summed four-momenta, evaluated in 50-digit arithmetic by mpmath.

Velocities are fractions of c and broadcast over leading axes, like the
library's own.  The tolerance helpers at the end state, next to each bound,
the error argument it comes from; none is fitted to the program's output.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

EPS = float(np.finfo(float).eps)


def dot(x, y):
    return np.sum(np.asarray(x) * np.asarray(y), axis=-1)


def gamma(v):
    """Lorentz factor 1/sqrt(1 - |v|^2)."""
    return 1.0 / np.sqrt(1.0 - dot(v, v))


def boost(u, t, x):
    """Apply the pure boost Lambda(u) to the four-vector (t, x).

    Lambda(u) = [[g, g u^T], [g u, I + g^2/(1+g) u u^T]] with g = gamma(u):
    the frame whose velocity is ``u`` relative to the observer.
    """
    g = gamma(u)
    ux = dot(u, x)
    t2 = g * (t + ux)
    x2 = x + (g * g / (1.0 + g) * ux + g * t)[..., None] * u
    return t2, x2


def add(u, v):
    """u (+) v and its gamma, as the boost of v's four-velocity by Lambda(u)."""
    gv = gamma(v)
    t, x = boost(u, gv, gv[..., None] * v)
    return x / t[..., None], t


def boost_matrix(u):
    """Lambda(u) as an (n+1) x (n+1) matrix, built column by column."""
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    cols = []
    for e in np.eye(n + 1):
        t, x = boost(u, np.full(u.shape[:-1], e[0]),
                     np.broadcast_to(e[1:], u.shape))
        cols.append(np.concatenate([t[..., None], x], axis=-1))
    return np.stack(cols, axis=-1)


def thomas_rotation(u, v):
    """gyr[u, v] as the spatial block of Lambda(u (+) v)^-1 Lambda(u) Lambda(v)."""
    w, _ = add(u, v)
    m = boost_matrix(-w) @ boost_matrix(u) @ boost_matrix(v)
    return m[..., 1:, 1:]


def gyrate(u, v, w):
    return np.einsum("...ij,...j->...i", thomas_rotation(u, v), w)


def rotation_angle(r):
    """Unsigned angle of a 2-D or 3-D rotation matrix, from atan2(sin, cos)."""
    if r.shape[-1] == 2:
        return abs(math.atan2(r[1, 0] - r[0, 1], r[0, 0] + r[1, 1]))
    axial = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return math.atan2(0.5 * float(np.linalg.norm(axial)),
                      0.5 * (float(np.trace(r)) - 1.0))


def distance(a, b):
    """Gyrodistance |(-a) (+) b| from the boost."""
    w, _ = add(-np.asarray(a), b)
    return np.sqrt(dot(w, w))


def scalar_mul(r, v):
    """r (x) v = tanh(r artanh|v|) v/|v|, with 0 for v = 0."""
    n = np.sqrt(dot(v, v))
    safe = np.where(n > 0.0, n, 1.0)
    return (np.where(n > 0.0, np.tanh(r * np.arctanh(n)) / safe, 0.0))[..., None] * v


def midpoint(a, b):
    """Gyromidpoint by the line-parameter route a (+) (1/2 (x) ((-a) (+) b))."""
    w, _ = add(-np.asarray(a), b)
    m, _ = add(a, scalar_mul(0.5, w))
    return m


def coadd(u, v):
    """u [+] v as the doubled gyromidpoint, 2 (x) midpoint(u, v)."""
    return scalar_mul(2.0, midpoint(u, v))


def aberration(theta_s, v, p_s, *, classical=False):
    """theta_e seen from E when S recedes along +x at speed ``v``.

    The particle (photon when p_s = 1) moves at ``p_s`` and angle
    ``theta_s`` in S.  Relativistically its four-vector (1, p_s cos, p_s sin)
    is boosted into E; classically the velocities add as vectors.
    """
    theta_s, v, p_s = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                            for x in (theta_s, v, p_s)))
    x = np.stack([p_s * np.cos(theta_s), p_s * np.sin(theta_s)], axis=-1)
    speed = np.stack([v, np.zeros_like(v)], axis=-1)
    if classical:
        moved = x + speed
    else:
        _, moved = boost(speed, np.ones_like(v), x)
    return np.arctan2(moved[..., 1], moved[..., 0])


def aberration_inv(theta_e, v, p_e, *, classical=False):
    """theta_s from theta_e: the same construction with S moving at -v."""
    return aberration(theta_e, -np.asarray(v, dtype=float), p_e,
                      classical=classical)


def law_of_cosines(side_a, side_b, side_c):
    """Gyroangles from side gyrolengths by the hyperbolic law of cosines.

    With rapidities phi = artanh(s), so that gamma = cosh(phi):
    cos(alpha) = (cosh phi_b cosh phi_c - cosh phi_a)/(sinh phi_b sinh phi_c).
    """
    pa, pb, pc = (math.atanh(s) for s in (side_a, side_b, side_c))

    def angle(p, q, r):
        c = (math.cosh(q) * math.cosh(r) - math.cosh(p)) / (math.sinh(q) * math.sinh(r))
        return math.acos(max(-1.0, min(1.0, c)))

    return angle(pa, pb, pc), angle(pb, pa, pc), angle(pc, pa, pb)


def invariant_mass(masses, velocities):
    """m0 = sqrt(E^2 - |P|^2) of the summed four-momenta, at 50 digits.

    Returns (m0, m_newton, v0) as Python floats, v0 = P/E being the
    centre-of-momentum velocity; inputs are read exactly.
    """
    with mpmath.workdps(50):
        energy = mpmath.mpf(0)
        momentum = [mpmath.mpf(0)] * len(velocities[0])
        m_newton = mpmath.mpf(0)
        for m, vel in zip(masses, velocities):
            m = mpmath.mpf(float(m))
            comps = [mpmath.mpf(float(x)) for x in vel]
            g = 1 / mpmath.sqrt(1 - mpmath.fsum(x * x for x in comps))
            energy += m * g
            momentum = [p + m * g * x for p, x in zip(momentum, comps)]
            m_newton += m
        m0 = mpmath.sqrt(energy ** 2 - mpmath.fsum(p * p for p in momentum))
        return float(m0), float(m_newton), [float(p / energy) for p in momentum]


# --- tolerances ------------------------------------------------------------
#
# Each bound is (steps) x EPS x (condition factor).  "Steps" counts the
# rounding operations on the longest path of the formula, doubled for the
# oracle's own rounding and given a margin; the condition factor is the
# largest intermediate magnitude, or the amplification of an input error,
# for the configuration at hand.

def tol_add(u, v):
    """Componentwise bound for u (+) v.

    Both routes sum O(10) terms bounded by (gamma_u + gamma_v)/(1 + u.v):
    the boost's time component divides components of size gamma_u gamma_v,
    the closed form divides by 1 + u.v.  64 ulps of that bound covers both.
    """
    return 64.0 * EPS * (gamma(u) + gamma(v)) / (1.0 + dot(u, v))


def tol_gamma_rel(w, dw):
    """Relative bound for gamma(w) when |w|^2 carries absolute error ~2|dw|.

    gamma = (1 - |w|^2)^(-1/2): an absolute error e in |w|^2 changes gamma
    relatively by e gamma^2 / 2, and 1 - |w|^2 itself rounds with 4 ulps.
    """
    g2 = 1.0 / (1.0 - dot(w, w))
    return (8.0 * EPS + 2.0 * dw) * g2


def tol_nested(g_outer, inner):
    """Bound after one more gyrotranslation of a result with error ``inner``.

    A left gyrotranslation is a hyperbolic isometry; a Euclidean error
    at a point with factor g maps, in the worst radial direction, to
    g^2 times itself.  64 ulps at that scale are added for the new rounding.
    """
    return g_outer * g_outer * (inner + 64.0 * EPS)


def tol_midpoint(a, b):
    """Componentwise bound for the gyromidpoint: one gyrotranslation of the
    half-scaled gyrovector (-a) (+) b, at the larger of the two gammas."""
    return tol_nested(np.maximum(gamma(a), gamma(b)), tol_add(-a, b))


def tol_coadd(u, v):
    """Componentwise bound for u [+] v = 2 (x) midpoint(u, v).

    Doubling amplifies the midpoint's error by at most g_m^2 <= the larger
    gamma squared, since the midpoint lies on the chord between u and v.
    """
    return tol_nested(np.maximum(gamma(u), gamma(v)), tol_midpoint(u, v))


def tol_scalar_mul(r, v):
    """Componentwise bound for r (x) v: artanh|v| amplifies the rounding of
    |v| by gamma_v^2, the factor r carries it into tanh, whose slope is <= 1."""
    return 64.0 * EPS * (1.0 + np.abs(r) * gamma(v) ** 2)


def tol_aberration(theta, v, p):
    """Bound in radians for an aberrated angle.

    The angle is atan2 of the boosted (x, y) components, each carrying about
    gamma_v (p + |v|) ulps absolute; dividing by the length of (x, y) turns
    that into an angle.  64 ulps of the ratio, plus 64 ulps for atan2.
    """
    v = np.abs(np.asarray(v, dtype=float))
    g = 1.0 / np.sqrt(1.0 - v * v)
    length = np.hypot(g * (p * np.cos(theta) + v), p * np.sin(theta))
    return 64.0 * EPS * (1.0 + g * (p + v) / length)


def tol_rotation(u, v):
    """Entrywise bound for the Thomas rotation from three boost matrices.

    Entries of Lambda(u) Lambda(v) are bounded by 2 gamma_u gamma_v and of
    Lambda(u (+) v)^-1 by 2 gamma_w, with gamma_w <= 2 gamma_u gamma_v; the
    products cancel down to O(1) entries, so the absolute error is about
    (n+1)^2 x 4 gamma_u gamma_v gamma_w ulps.  64 ulps times that product.
    """
    gu, gv = gamma(u), gamma(v)
    return 64.0 * EPS * gu * gv * (gu * gv * (1.0 + np.abs(dot(u, v))))


def tol_mass_rel(gamma_max, n):
    """Relative bound for m0 of n particles whose largest gamma is gamma_max.

    The pairwise route sums nonnegative terms m_j m_k (gamma_rel - 1); each
    term's absolute error is bounded by ~8 ulps of gamma_max^4 (gamma from
    1 - |v|^2 carries gamma^2 ulps, and the difference of two gammas is
    squared), and their sum is at most m_newton^2/2, so relative to m0^2 the
    error is 8 gamma_max^4 ulps, plus one ulp per summed term.
    """
    return (8.0 * gamma_max ** 4 + n) * EPS


def self_check():
    """Check the oracles on hand-checkable fixtures; returns failure messages."""
    errors = []

    def expect(what, got, want, tol):
        if not np.all(np.abs(np.asarray(got, dtype=float) - want) <= tol):
            errors.append(f"oracle fixture {what}: got {got}, want {want}")

    # (0.6,0,0) (+) (0,0.6,0) = (0.6, 0.48, 0): the u-component is kept,
    # the v-component shrinks by 1/gamma_u = 0.8; gamma = 1.25^2 = 1.5625.
    w, g = add(np.array([0.6, 0.0, 0.0]), np.array([0.0, 0.6, 0.0]))
    expect("einstein addition", w, [0.6, 0.48, 0.0], 4 * EPS)
    expect("gamma of the sum", g, 1.5625, 8 * EPS)
    # Thomas rotation of two perpendicular boosts: cos(angle) equals
    # (g1 + g2)/(1 + g1 g2) = 2.5/2.5625.
    rot = thomas_rotation(np.array([0.6, 0.0, 0.0]), np.array([0.0, 0.6, 0.0]))
    expect("Thomas rotation angle", rotation_angle(rot), math.acos(2.5 / 2.5625), 1e-14)
    # Equilateral triangle with side 0.6 (gamma 1.25): cos(alpha) = g/(g+1) = 5/9.
    expect("law of cosines", law_of_cosines(0.6, 0.6, 0.6), [math.acos(5 / 9)] * 3, 1e-14)
    # Two unit masses at +-0.6: E = 2.5, P = 0, so m0 = 2.5 and
    # m_dark = sqrt(2.5^2 - 2^2) = 1.5.
    m0, m_newton, _ = invariant_mass([1.0, 1.0], [[0.6, 0.0, 0.0], [-0.6, 0.0, 0.0]])
    expect("pair invariant mass", m0, 2.5, 4 * EPS)
    expect("pair dark mass", math.sqrt(m0 * m0 - m_newton * m_newton), 1.5, 16 * EPS)
    # A rigid system has no dark mass: m0 equals the plain mass sum.
    m0, m_newton, _ = invariant_mass([1.0, 2.0, 3.0], [[0.3, 0.2, 0.1]] * 3)
    expect("rigid system", m0, m_newton, 8 * EPS)
    # Annual aberration: 29.79 km/s, star at 90 degrees, about 20.496 arcsec
    # (the figure has five significant digits).
    theta_e = aberration(math.pi / 2, 29.79e3 / 299792458.0, 1.0)
    expect("stellar aberration", (math.pi / 2 - theta_e) * 180 * 3600 / math.pi, 20.496, 5e-4)
    # Classically, a particle at speed p sideways in a frame moving at p
    # appears at 45 degrees.
    expect("classical aberration", aberration(math.pi / 2, 0.5, 0.5, classical=True),
           math.pi / 4, 4 * EPS)
    return errors
