"""Component kernels run on mpmath intervals: the rounding error of gyrokin's formulas.

An interval run (helpers.on_intervals) encloses the exact value of a
kernel's formula on the float inputs.  It measures how far the float result
is from that formula, not whether the formula is right: the independent
oracles (gyrate_definitional, coadd_via_gyration, the mpmath oracles of
helpers.py) do that.
"""

import math

import mpmath
import numpy as np
import pytest

from gyrokin import ball, gyro, mass
from helpers import on_intervals

# The README's near-c addition: 1 - |u| = 1e-6, and v points nearly against u.
U_NEAR_C, V_NEAR_C = [0.999999, 0.0, 0.0], [-0.4, 0.9, 0.0]

# The gaps 1 - |v| of the sampled pairs beyond the near-c one.
GAPS = [10.0 ** -k for k in range(1, 12, 2)]


def gamma_of_sum(u, v):
    """gamma(u (+) v) by the kernels: _add, then _gamma of the sum's _norm_sq."""
    w = gyro._add(u, v, [ball._norm_sq(u), ball._norm_sq(v)])
    return ball._gamma(w, ball._norm_sq(w))


def test_near_c_gamma_of_sum_is_enclosed():
    """At 40 digits the enclosure holds the exact gamma identity's value, within 1e-30.

    The float run prints 2449.49198944938 (CLI ``add``); the exact value
    of the formula on these inputs is 2449.4919881141974835..., so the float
    error near c comes from rounding, not from the formula.
    """
    g = on_intervals(gamma_of_sum, U_NEAR_C, V_NEAR_C)
    with mpmath.workdps(60):
        lo, hi = mpmath.mpf(g.a), mpmath.mpf(g.b)
        u, v = ([mpmath.mpf(x) for x in w] for w in (U_NEAR_C, V_NEAR_C))
        gu, gv = (1 / mpmath.sqrt(1 - mpmath.fsum(x * x for x in w)) for w in (u, v))
        exact = gu * gv * (1 + mpmath.fsum(x * y for x, y in zip(u, v)))
        assert lo <= exact <= hi
        assert (hi - lo) / exact < 1e-30
        assert mpmath.nstr(lo, 27) == "2449.49198811419748352657804"


def test_interval_run_restores_the_float_kernels():
    on_intervals(gamma_of_sum, U_NEAR_C, V_NEAR_C)
    assert mpmath.iv.dps == 15
    assert all(m._sqrt is ball._sqrt for m in (gyro, ball)) and ball._sqrt(4.0) == 2.0


def unit(rng) -> list:
    """A direction drawn from ``rng``: three floats of norm 1, to rounding."""
    d = rng.normal(size=3).tolist()
    n = ball._norm(d)
    return [x / n for x in d]


def sample() -> list:
    """(u, v, w) triples of float lists, directions from numpy seed 0.

    First the README's near-c pair, then for each of GAPS a pair with
    |u| = |v| = 1 - gap.  ``w``, a unit vector, is gyrate's third operand.
    """
    rng = np.random.default_rng(0)
    triples = [(U_NEAR_C, V_NEAR_C, unit(rng))]
    for gap in GAPS:
        u, v, w = unit(rng), unit(rng), unit(rng)
        triples.append(([(1.0 - gap) * x for x in u], [(1.0 - gap) * x for x in v], w))
    return triples


def squared_norms(*vectors) -> list:
    return [ball._norm_sq(x) for x in vectors]


# The kernels made of +, -, *, / and _sqrt that check no intermediate, each on
# (u, v, w) and returning a list of components.
KERNELS = {
    "add": lambda u, v, w: gyro._add(u, v, squared_norms(u, v)),
    "gyrate": lambda u, v, w: gyro._gyrate(u, v, w, gyro._gyr_factors(u, v, squared_norms(u, v))),
    "coadd": lambda u, v, w: gyro._coadd(u, v, squared_norms(u, v)),
    "midpoint": lambda u, v, w: gyro._midpoint(u, v, squared_norms(u, v)),
    "gamma_rel_minus_1": lambda u, v, w: [mass._gamma_rel_minus_1(u, v, squared_norms(u, v))],
}


def exact(name, u, v, w) -> list:
    """Kernel ``name``'s formula at 60 digits on the float inputs, written out in mpmath."""
    with mpmath.workdps(60):
        u, v, w = ([mpmath.mpf(x) for x in a] for a in (u, v, w))

        def dot(a, b):
            return mpmath.fsum(x * y for x, y in zip(a, b))

        gu, gv = (1 / mpmath.sqrt(1 - dot(a, a)) for a in (u, v))
        if name == "add":
            uv = dot(u, v)
            return [((1 + gu / (1 + gu) * uv) * x + y / gu) / (1 + uv) for x, y in zip(u, v)]
        if name == "gyrate":
            uv, uw, vw = dot(u, v), dot(u, w), dot(v, w)
            a = (-(gu * gu) / (gu + 1) * (gv - 1) * uw + gu * gv * vw
                 + 2 * (gu * gu * gv * gv) / ((gu + 1) * (gv + 1)) * uv * vw)
            b = -(gv / (gv + 1)) * (gu * (gv + 1) * uw + (gu - 1) * gv * vw)
            d = gu * gv * (1 + uv) + 1
            return [(a * x + b * y) / d + z for x, y, z in zip(u, v, w)]
        if name == "gamma_rel_minus_1":
            diff = [x - y for x, y in zip(u, v)]
            return [(gu - gv) ** 2 / (2 * gu * gv) + gu * gv * dot(diff, diff) / 2]
        m = [(gu * x + gv * y) / (gu + gv) for x, y in zip(u, v)]
        if name == "midpoint":
            return m
        s = 2 / (1 + dot(m, m))
        return [x * s for x in m]


# The float kernels' error on each triple of sample(), the near-c pair first:
# the largest distance of a component from its enclosure, in ulp of the
# result's largest component, rounded up.  Each is the measured figure.  The
# error grows near c, where the gamma factors come from a rounded 1 - |v|^2.
ULP_PROFILE = {
    "add": [106, 2, 1, 40, 849, 1708, 43159],
    "gyrate": [24, 2, 2, 16, 1152, 1163, 1165],
    "coadd": [369, 2, 17, 10635, 2551994, 2458769, 8940435297],
    "midpoint": [561, 3, 16, 9299, 2666438, 2068868, 10607177478],
    "gamma_rel_minus_1": [34751, 2, 110, 6164, 355738, 95279596, 103669224],
}


@pytest.mark.parametrize("name", KERNELS)
def test_float_kernel_within_its_profile_of_the_enclosure(name):
    """Each enclosure holds the formula's 60-digit value and is narrower than 1e-25
    relative; the float result lies within ULP_PROFILE of it."""
    kernel, measured = KERNELS[name], []
    for u, v, w in sample():
        enclosure, floats = on_intervals(kernel, u, v, w), kernel(u, v, w)
        largest = max(map(abs, floats))
        with mpmath.workdps(60):
            bounds = [(mpmath.mpf(x.a), mpmath.mpf(x.b)) for x in enclosure]
            for (lo, hi), value in zip(bounds, exact(name, u, v, w)):
                assert lo <= value <= hi
                assert hi - lo < 1e-25 * largest
            off = max(max(lo - f, f - hi, 0) for (lo, hi), f in zip(bounds, floats))
            measured.append(int(mpmath.ceil(off / math.ulp(largest))))
    assert all(m <= bound for m, bound in zip(measured, ULP_PROFILE[name])), measured
