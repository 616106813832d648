"""Shared sampling helpers and hypothesis strategies for the test suite."""

import numpy as np
from hypothesis import strategies as st

from gyrokin import gamma_rel_minus_1


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
