"""The ball of admissible velocities: validation helpers and the BetaVector type.

Every velocity in this library is dimensionless (a fraction of c) and lives in
the open unit ball of R^n.  Physical units are handled only at I/O boundaries;
nothing below this layer ever multiplies by c.

Array-level functions operate on the last axis, so shapes ``(..., n)``
broadcast like any other numpy operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DimensionError

# Constructors reject squared norms above 1 - BALL_MARGIN: gamma factors blow
# up and the algebraic laws lose their precision headroom without a hard edge.
BALL_MARGIN = 1e-12

# Largest norm an admissible velocity may have; scalar results clamp here.
MAX_NORM = float(np.sqrt(1.0 - BALL_MARGIN))

# Vectors whose components are all below this magnitude are treated as exact
# zeros, so that -0.0 and denormal dust compare equal to the identity.
ZERO_EPS = 1e-300


def dot(u, v):
    """Inner product over the last axis."""
    return np.sum(np.asarray(u) * np.asarray(v), axis=-1)


def norm_sq(v):
    """Squared Euclidean norm over the last axis."""
    v = np.asarray(v)
    return np.sum(v * v, axis=-1)


def norm(v):
    """Euclidean norm over the last axis."""
    return np.sqrt(norm_sq(v))


def _gamma(v) -> np.ndarray:
    """Lorentz gamma factor 1/sqrt(1 - |v|^2) of a trusted velocity array."""
    return 1.0 / np.sqrt(1.0 - norm_sq(v))


def _real_array(v, name: str) -> np.ndarray:
    """Coerce to a float array of any shape, or raise AdmissibilityError."""
    try:
        arr = np.asarray(v)
        if arr.dtype.kind == "c":
            raise TypeError("complex components")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AdmissibilityError(f"{name} is not real-valued: {exc}") from exc


def _as_real(v, name: str) -> np.ndarray:
    """Coerce to a float array with a nonempty component axis, or raise."""
    arr = _real_array(v, name)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DimensionError(f"{name} must have at least one component")
    return arr


def _real_scalars(values, names) -> list:
    """The scalar arguments ``values``, labelled ``names``, as Python floats.

    Coerced in one call; raises DimensionError if any of them is a batch and
    AdmissibilityError if any is not real-valued.
    """
    label = names[0] if len(names) == 1 else f"one of {', '.join(names)}"
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged: an argument is a sequence
        raise DimensionError(f"{label} is a batch, not a scalar") from exc
    arr = _real_array(arr, label)
    if arr.shape != (len(names),):
        raise DimensionError(f"{label} is a batch, not a scalar")
    return arr.tolist()


def as_velocity(v, *, name: str = "velocity") -> np.ndarray:
    """Coerce to a float array of shape (..., n) and enforce admissibility.

    Raises
    ------
    DimensionError
        If the input is scalar or its component axis is empty.
    AdmissibilityError
        If the input is not real-valued (complex, non-numeric or ragged), if
        any entry is non-finite, or if any squared norm exceeds
        ``1 - BALL_MARGIN``.
    """
    arr = _as_real(v, name)
    n2 = norm_sq(arr)
    # "not <=" instead of ">" so NaN in n2 can never sneak through; a NaN or
    # infinite component always lands here, so finiteness is tested only now.
    if not np.all(n2 <= 1.0 - BALL_MARGIN):
        if not np.all(np.isfinite(arr)):
            raise AdmissibilityError(f"{name} has non-finite components")
        worst = float(np.sqrt(np.max(n2)))
        raise AdmissibilityError(
            f"{name} has norm {worst:.17g} outside the admissible ball "
            f"(limit {MAX_NORM:.17g})"
        )
    return arr


def as_ambient(w, *, name: str = "vector") -> np.ndarray:
    """A float array of shape (..., n) whose |w|^2 is finite; no ball constraint."""
    arr = _as_real(w, name)
    with np.errstate(over="ignore"):
        n2 = norm_sq(arr)
    # A NaN or infinite component makes n2 non-finite too.
    if not np.all(np.isfinite(n2)):
        if not np.all(np.isfinite(arr)):
            raise AdmissibilityError(f"{name} has non-finite components")
        raise AdmissibilityError(f"{name} has a squared norm that overflows")
    return arr


def same_shape(arrays, names) -> None:
    """Require one component count and broadcastable batch shapes.

    ``names`` labels ``arrays`` in order for the error messages.
    """
    shapes = [a.shape for a in arrays]
    dims = [s[-1] for s in shapes]
    if len(set(dims)) > 1:
        raise DimensionError(f"{', '.join(names)} have dimensions {dims}")
    if len(set(shapes)) > 1:
        try:
            np.broadcast_shapes(*shapes)
        except ValueError as exc:
            raise DimensionError(f"{', '.join(names)}: {exc}") from None


def operands(arrays, names, ambient_last: bool = False) -> list:
    """Validate and return the operands of one operation, with same_shape.

    All must be admissible velocities, except that with ``ambient_last`` the
    last one need only be finite.
    """
    n = len(arrays) - ambient_last
    out = [as_velocity(a, name=name) for a, name in zip(arrays[:n], names)]
    if ambient_last:
        out.append(as_ambient(arrays[-1], name=names[-1]))
    same_shape(out, names)
    return out


@dataclass(frozen=True, eq=False)
class BetaVector:
    """A validated point of the open unit ball: a velocity in units of c.

    The wrapped array is read-only; all math happens in the functional
    modules, which accept BetaVector wherever an array is expected.
    """

    components: np.ndarray

    def __post_init__(self):
        arr = as_velocity(self.components, name="BetaVector").copy()
        if arr.ndim != 1:
            raise DimensionError("BetaVector takes a single 1-D vector")
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @classmethod
    def zero(cls, dim: int) -> "BetaVector":
        return cls(np.zeros(dim))

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.components.astype(dtype)
        return self.components

    def __len__(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    @property
    def norm(self) -> float:
        return float(norm(self.components))

    @property
    def norm_sq(self) -> float:
        return float(norm_sq(self.components))

    @property
    def gamma(self) -> float:
        return float(_gamma(self.components))

    @property
    def is_zero(self) -> bool:
        """True when every component is below the exact-zero threshold."""
        return bool(np.all(np.abs(self.components) < ZERO_EPS))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BetaVector):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.is_zero and other.is_zero:
            return True
        return bool(np.array_equal(self.components, other.components))

    def __hash__(self):
        if self.is_zero:
            return hash((self.dim, 0.0))
        return hash((self.dim, self.components.tobytes()))

    def __neg__(self) -> "BetaVector":
        return BetaVector(-self.components)

    def __repr__(self) -> str:
        inner = ", ".join(format(x, ".17g") for x in self.components)
        return f"BetaVector([{inner}])"
