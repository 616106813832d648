"""Shared sampling helpers and hypothesis strategies for the test suite."""

import importlib
import math

import numpy as np
from hypothesis import strategies as st

from gyrokin import GyrokinError, cosub, einstein_sub, gamma_rel_minus_1, gyrate


def ball_points(rng, size, dim, max_norm=0.95, min_norm=0.0):
    """Admissible velocities with uniform directions and uniform norms."""
    raw = rng.normal(size=(size, dim))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    r = rng.uniform(min_norm, max_norm, size=(size, 1))
    return raw * r


@st.composite
def ball_vectors(draw, dim=3, max_norm=0.9):
    """Hypothesis strategy for admissible velocities of a given dimension."""
    comps = draw(st.lists(
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
        min_size=dim, max_size=dim,
    ))
    v = np.asarray(comps)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return np.zeros(dim)
    return v * (draw(st.floats(0.0, max_norm)) / n)


def one_ball_point(rng, dim, max_norm=0.95, min_norm=0.0):
    return ball_points(rng, 1, dim, max_norm, min_norm)[0]


def random_rotation(rng, dim):
    """Haar-ish random orthogonal matrix with determinant +1."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def max_abs(x):
    return float(np.max(np.abs(x)))


def pairwise_dark_sq(masses, velocities):
    """2 sum_{j<k} m_j m_k (gamma_rel(j,k) - 1), summed pair by pair.

    The definition of the squared dark mass, kept as the small-N oracle for
    the O(N) form in gyrokin.mass.  Row j holds the pairs (j, k > j), so
    memory stays O(N); the row sums are added with numpy's pairwise sum.
    """
    m = np.asarray(masses, dtype=float)
    v = np.asarray(velocities, dtype=float)
    rows = [np.sum(m[j] * m[j + 1:] * gamma_rel_minus_1(v[j], v[j + 1:]))
            for j in range(len(m) - 1)]
    return 2.0 * float(np.sum(rows))


def gyr_coeffs_oracle(u, v, w):
    """gyr[u, v]w's closed-form coefficients A, B, D, each one expression.

    Written out on float arrays, with np.sum's dot products, in the
    association gyro._gyr_factors and gyro._gyr_coeffs split it into: the
    factors that depend only on u and v, and their application to w.
    """
    gu = 1.0 / np.sqrt(1.0 - np.sum(u * u, axis=-1))
    gv = 1.0 / np.sqrt(1.0 - np.sum(v * v, axis=-1))
    uv, uw, vw = (np.sum(x * y, axis=-1) for x, y in ((u, v), (u, w), (v, w)))
    a = (
        -(gu * gu) / (gu + 1.0) * (gv - 1.0) * uw
        + gu * gv * vw
        + 2.0 * (gu * gu * gv * gv) / ((gu + 1.0) * (gv + 1.0)) * uv * vw
    )
    b = -(gv / (gv + 1.0)) * (gu * (gv + 1.0) * uw + (gu - 1.0) * gv * vw)
    d = gu * gv * (1.0 + uv) + 1.0
    return a, b, d


def gyrate_oracle(u, v, w):
    """gyr[u, v]w = (A u + B v)/D + w from gyr_coeffs_oracle."""
    a, b, d = (np.asarray(x)[..., None] for x in gyr_coeffs_oracle(u, v, w))
    return (a * u + b * v) / d + w


def cosub_via_gyration(u, v):
    """u (-) gyr[u, v]v: cosubtraction from its definition, the oracle of cosub."""
    return einstein_sub(u, gyrate(u, v, v))


def cosub_error_ratio(u, v):
    """Row error of cosub(u, v) against 60-digit mpmath, per eps gamma^2.

    The exact u [-] v = 2 (x) (gamma_u u - gamma_v v)/(gamma_u + gamma_v) is
    evaluated from the float inputs.  Rounding 1 - |v|^2 costs of order eps
    gamma^2 near c, so the error of each row is divided by eps times the
    larger of gamma_u^2 and gamma_v^2; returned for the one-pass cosub and
    for cosub_via_gyration, whose rows are NaN where it raises.
    """
    import mpmath

    exact = []
    with mpmath.workdps(60):
        for a, b in zip(u, v):
            ma, mb = [[mpmath.mpf(float(x)) for x in row] for row in (a, b)]
            ga, gb = [1 / mpmath.sqrt(1 - mpmath.fsum(x * x for x in m)) for m in (ma, mb)]
            mid = [(ga * x - gb * y) / (ga + gb) for x, y in zip(ma, mb)]
            s = 2 / (1 + mpmath.fsum(x * x for x in mid))
            exact.append([float(s * x) for x in mid])
    exact = np.array(exact)
    via = []
    for a, b in zip(u, v):
        try:
            via.append(cosub_via_gyration(a, b))
        except GyrokinError:
            via.append(np.full(len(a), np.nan))
    eps_g2 = np.finfo(float).eps * np.maximum(1.0 / (1.0 - np.sum(u * u, axis=-1)),
                                              1.0 / (1.0 - np.sum(v * v, axis=-1)))
    return [np.max(np.abs(w - exact), axis=-1) / eps_g2 for w in (cosub(u, v), np.array(via))]


# A batch is cut into blocks of this many rows while tests compare blocked and
# whole evaluation; the lengths below are one short of a block, one block,
# one over and several blocks with a remainder.
TEST_BLOCK = 4
BLOCK_LENGTHS = [TEST_BLOCK - 1, TEST_BLOCK, TEST_BLOCK + 1, 3 * TEST_BLOCK + 5]

# Operand shapes for a batch of k rows against m = 3 rows or one vector.
LAYOUTS = {
    "k1n-mn": lambda k: ((k, 1, 3), (3, 3)),
    "n-kn": lambda k: ((3,), (k, 3)),
    "kn-n": lambda k: ((k, 3), (3,)),
    "kn-kn": lambda k: ((k, 3), (k, 3)),
}


def layout_operands(rng, layout, k):
    """Two velocity arrays of the shapes LAYOUTS[layout](k).

    The first two rows of a batch are a +0.0 and a -0.0 vector, so results
    carry signed zeros.
    """
    out = []
    for shape in LAYOUTS[layout](k):
        rows = ball_points(rng, math.prod(shape[:-1]), 3, max_norm=0.99)
        if len(rows) > 2:
            rows[0], rows[1] = 0.0, -0.0
        out.append(rows.reshape(shape))
    return out


def same_bits(a, b):
    """One shape, one dtype and the same bytes: -0.0 differs from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def in_blocks(monkeypatch, op, *args):
    """op(*args) evaluated in blocks of TEST_BLOCK rows."""
    with monkeypatch.context() as m:
        m.setattr("gyrokin.ball._BLOCK", TEST_BLOCK)
        return op(*args)


def broadcast_error(*arrays):
    """numpy's message for arrays whose shapes do not broadcast together."""
    try:
        np.broadcast(*arrays)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the shapes broadcast")


def coercion_error(value):
    """numpy's message for a value that is no float array (ragged, say)."""
    try:
        np.asarray(value).astype(float)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError("the value coerces")


def raised(op, *args):
    """The class and message of the GyrokinError op(*args) raises, or None."""
    try:
        op(*args)
    except GyrokinError as exc:
        return type(exc), str(exc)
    return None


# The gyrokin modules that bind ball._sqrt, the one square root of the
# component kernels.  on_intervals patches it in each; tests/test_source.py
# keeps this list equal to the modules that define or import it.
SQRT_MODULES = ("gyrokin.ball", "gyrokin.gyro", "gyrokin.space")


def on_intervals(kernel, *vectors, dps=40):
    """kernel(*vectors) run on mpmath intervals of ``dps`` digits.

    Each float component of the vectors (lists of floats) becomes the point
    interval of its exact value, and _sqrt becomes iv.sqrt in every module of
    SQRT_MODULES.  A kernel made of +, -, *, / and _sqrt then returns an
    enclosure of its formula's exact value on the float inputs, so the width
    and position of the enclosure measure the kernel's own rounding error.
    """
    from mpmath import iv

    modules = [importlib.import_module(name) for name in SQRT_MODULES]
    saved, saved_dps = [m._sqrt for m in modules], iv.dps
    try:
        for m in modules:
            m._sqrt = iv.sqrt
        iv.dps = dps
        return kernel(*[[iv.mpf(float(x)) for x in v] for v in vectors])
    finally:
        for m, sqrt in zip(modules, saved):
            m._sqrt = sqrt
        iv.dps = saved_dps
