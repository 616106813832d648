"""Component kernels run on mpmath intervals: the rounding error of gyrokin's formulas.

An interval run (helpers.on_intervals) encloses the exact value of a
kernel's formula on the float inputs.  It measures how far the float result
is from that formula, not whether the formula is right: the independent
oracles (gyrate_definitional, coadd_via_gyration, the mpmath oracles of
helpers.py) do that.
"""

import mpmath

from gyrokin import ball, gyro
from helpers import on_intervals

# The README's near-c addition: 1 - |u| = 1e-6, and v points nearly against u.
U_NEAR_C, V_NEAR_C = [0.999999, 0.0, 0.0], [-0.4, 0.9, 0.0]


def gamma_of_sum(u, v):
    """gamma(u (+) v) by the kernels: _add, then _gamma of the sum's _norm_sq."""
    w = gyro._add(u, v, [ball._norm_sq(u), ball._norm_sq(v)])
    return ball._gamma(ball._norm_sq(w))


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
