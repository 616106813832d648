"""The ball of admissible velocities and the checks that guard it.

Every velocity in this library is dimensionless (a fraction of c) and lives in
the open unit ball of R^n.  Physical units are handled only at I/O boundaries;
nothing below this layer ever multiplies by c.

Array-level functions operate on the last axis, so shapes ``(..., n)``
broadcast like any other numpy operation.  Batches longer than ``_BLOCK``
rows are evaluated in row blocks, so that each kernel's temporaries stay in
cache; every row still gets the bits of a single-vector call.

Each operation has one kernel, written on lists of components
(``_components``): one vector's are Python floats, a batch's are views of
its columns, and floats broadcast against columns.
``_on_components`` hands a row block's arrays to a kernel this way and
assembles its result (``_assemble``): an ndarray for a vector, an
np.float64 for a scalar of one vector.  Only +, -, *, / and square roots
(``_sqrt``) run in Python arithmetic, every transcendental function stays a
numpy ufunc, and ``_dot`` and ``_norm_sq`` sum in np.sum's order, so one
vector's floats get the bits of a batch row.

Every checked operation takes one order: coerce all its operands, match
their shapes, then check row block after row block, with the operands in
argument order inside each block (``_one_pass``); an operation that takes
single vectors only checks them in the same order (``_single_vectors``).
The first failing check raises, once; an error in a batch names its first
failing row as an index into the whole batch ("u row 19999 has norm ..."),
and a single value's error names no row.  The one velocity check,
``_norm_sq_checked``, returns the block's squared norms, and gamma consumes
them (``_gamma(n2)``) instead of summing |v|^2 again.  A more accurate
1 - |v|^2 therefore has one place to go.  Every other range check (speeds,
gamma factors, angles, scale factors, masses) raises through ``_require``,
which finds the failing row the same way (``_first_row``).
"""

from __future__ import annotations

import math
import numpy as np

from .errors import AdmissibilityError, DimensionError, GyrokinError

# Constructors reject squared norms above 1 - BALL_MARGIN: gamma factors blow
# up and the algebraic laws lose their precision headroom without a hard edge.
BALL_MARGIN = 1e-12

# Largest norm an admissible velocity may have; scalar results clamp here.
MAX_NORM = float(np.sqrt(1.0 - BALL_MARGIN))
_OUTSIDE = f"outside the admissible ball (limit {MAX_NORM:.17g})"

# Batches with more rows than this are evaluated this many rows at a time: the
# temporaries of a block (192 kB for each (rows, 3) array) then stay in cache.
_BLOCK = 8192

# The largest finite float: an ambient vector's squared norm may not exceed it.
_FLOAT_MAX = float(np.finfo(float).max)

# _as_real takes an ndarray of this dtype as it is.
_FLOAT = np.dtype(float)

# numpy's float sum adds fewer terms than this one by one, in order, from +0.0;
# from here on it sums pairwise.
_IN_ORDER_TERMS = 8


def _components(arr) -> list:
    """The components of a trusted float array of shape (..., n), as a list.

    One vector's are Python floats, a batch's are views of its columns.
    """
    if arr.ndim == 1:
        return arr.tolist()
    return [arr[..., i] for i in range(arr.shape[-1])]


def _assemble(result):
    """The array of a kernel's result: a vector's components, or a scalar.

    A vector is an ndarray of shape (..., n), a scalar of one vector an
    np.float64, as a numpy operation on the arrays would return them.
    """
    if not isinstance(result, list):
        return np.float64(result) if type(result) is float else result
    if isinstance(result[0], float):
        return np.array(result)
    out = np.empty(np.shape(result[0]) + (len(result),))
    for i, x in enumerate(result):
        out[..., i] = x
    return out


def _on_components(kernel):
    """The function of arrays that runs ``kernel`` on their components.

    Each array becomes its components (_components) and the kernel's result
    is assembled (_assemble): row blocks (_by_rows) reach the kernels
    through this one door.
    """
    return lambda *parts: _assemble(kernel(*map(_components, parts)))


def _sqrt(x):
    """Square root of a Python float by math.sqrt, of anything else by np.sqrt."""
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _dot(u, v):
    """Inner product of two component lists, bit for bit as np.sum(u * v, axis=-1).

    Fewer than _IN_ORDER_TERMS products are added in numpy's order, one by
    one from +0.0; more go to np.add.reduce on their stack, as np.sum would
    sum them.
    """
    if len(u) >= _IN_ORDER_TERMS:
        return np.add.reduce(_assemble([x * y for x, y in zip(u, v)]), -1)
    acc = 0.0
    for x, y in zip(u, v):
        acc += x * y
    return acc


def _sum_squares(squares):
    """The sum of a list of squared components, bit for bit as np.sum over them.

    As _dot adds its products, except that the +0.0 start is left out: it
    changes only a -0.0, and a square never is one.
    """
    if len(squares) >= _IN_ORDER_TERMS:
        return np.add.reduce(_assemble(squares), -1)
    acc = squares[0] + (squares[1] if len(squares) > 1 else 0.0)
    for x in squares[2:]:
        acc += x
    return acc


def _norm_sq(v):
    """Squared norm of a component list, bit for bit as np.sum(v * v, axis=-1).

    The squares are summed as _sum_squares sums them, but as they are made:
    a list and a call would cost one vector's norm a tenth more.
    """
    if len(v) >= _IN_ORDER_TERMS:
        return _sum_squares([x * x for x in v])
    acc = v[0] * v[0]
    for x in v[1:]:
        acc += x * x
    return acc


def _norm(v):
    """Norm of a component list."""
    return _sqrt(_norm_sq(v))


def _neg(v) -> list:
    return [-x for x in v]


def dot(u, v):
    """Inner product over the last axis: np.sum(u * v, axis=-1), bit for bit."""
    return np.add.reduce(np.asarray(u) * np.asarray(v), -1)


def norm_sq(v):
    """Squared Euclidean norm over the last axis: np.sum(v * v, axis=-1), bit for bit.

    The squares of a float64 row of fewer than _IN_ORDER_TERMS components
    are summed by _sum_squares, without numpy's slow reduction over a short
    axis.
    """
    v = np.asarray(v)
    p = v * v
    if p.ndim and 0 < p.shape[-1] < _IN_ORDER_TERMS and p.dtype == np.float64:
        return _assemble(_sum_squares(_components(p)))
    return np.add.reduce(p, -1)


def norm(v):
    """Euclidean norm over the last axis."""
    return np.sqrt(norm_sq(v))


def _gamma(n2):
    """Lorentz gamma factor 1/sqrt(1 - |v|^2) of a trusted squared norm ``n2``.

    ``n2`` is a float or an array, as _norm_sq_checked returns it.
    """
    return 1.0 / _sqrt(1.0 - n2)


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
    """Coerce to a float array with a nonempty component axis, or raise.

    A float64 ndarray is taken as it is, without the calls of _real_array.
    """
    arr = v if type(v) is np.ndarray and v.dtype is _FLOAT else _real_array(v, name)
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


def _first_row(ok) -> tuple:
    """The index of the first False entry of the mask ``ok``, in C order."""
    return tuple(map(int, np.unravel_index(np.argmin(ok), ok.shape)))


def _require(ok, error, message: str, name: str) -> None:
    """Raise error(message, name=name, row=...) unless the mask ``ok`` holds everywhere.

    ``ok`` is a numpy comparison over one argument's batch, or over the
    batch its arguments broadcast to, or one bool; ``row`` is its first
    failing row (_first_row), or None for a single value.  Inside _by_rows
    the row becomes an index over the whole batch.
    """
    batch = isinstance(ok, np.ndarray)
    if not (ok.all() if batch else ok):
        raise error(message, name=name, row=_first_row(ok) if batch and ok.ndim else None)


def _by_rows(fn, *arrays, core: int = 1):
    """fn(*arrays), evaluated in blocks of _BLOCK rows when the batch is longer.

    ``fn`` is a trusted kernel that works row by row, so every block gets the
    bits a single call would give; a check that returns None makes this
    return None.  The last ``core`` axes of an operand make one row: a
    velocity's component axis, or none for scalars.  The blocks run along the
    leading axis of the operands' broadcast shape; an operand without that
    axis takes part whole in every block, so its faults raise in the first
    block.  The first block that raises ends the call: a GyrokinError that
    names a row gets the block's first row added, so that it indexes the
    whole batch.
    """
    nd = 0
    for a in arrays:  # a loop: a comprehension's frame costs more on one vector
        nd = max(nd, a.ndim)
    if nd <= core:
        return fn(*arrays)
    k = max([a.shape[0] for a in arrays if a.ndim == nd])
    if k <= _BLOCK:
        return fn(*arrays)
    rows = [a.ndim == nd and a.shape[0] == k for a in arrays]
    try:
        for lo in range(0, k, _BLOCK):
            part = fn(*[a[lo:lo + _BLOCK] if r else a for a, r in zip(arrays, rows)])
            if lo == 0:
                out = None if part is None else np.empty((k,) + part.shape[1:], part.dtype)
            if out is not None:
                out[lo:lo + _BLOCK] = part
    except GyrokinError as exc:
        exc.row = exc.row and (exc.row[0] + lo,) + exc.row[1:]  # None stays None
        raise
    return out


def _norm_sq_checked(v, name: str, ambient: bool = False):
    """|v|^2 of the components ``v``, once every row is admissible: the one check.

    A row is admissible if its squared norm is at most 1 - BALL_MARGIN or,
    for an ``ambient`` vector, finite.  The error names the first row that
    is not, and its non-finite input or its norm.  Overflow gives inf, not a
    warning.  One short vector's Python floats are summed here, in
    _norm_sq's order, and overflow silently; that skips the cost of
    np.errstate.
    """
    if type(v[0]) is float and len(v) < _IN_ORDER_TERMS:
        n2 = 0.0
        for x in v:
            n2 += x * x
        largest = n2
    else:
        with np.errstate(over="ignore"):
            n2 = _norm_sq(v)
        largest = n2.max(initial=0.0)
    limit = _FLOAT_MAX if ambient else 1.0 - BALL_MARGIN
    # "not <=" instead of ">" so NaN can never sneak through; a NaN or
    # infinite component always lands here, so finiteness is tested only now.
    if not largest <= limit:
        row = None
        if isinstance(n2, np.ndarray):
            row = _first_row(n2 <= limit)
            v, largest = [x[row] for x in v], n2[row]
        if not all(map(math.isfinite, v)):
            raise AdmissibilityError("has non-finite components", name=name, row=row)
        if ambient:
            raise AdmissibilityError("has a squared norm that overflows", name=name, row=row)
        raise AdmissibilityError(f"has norm {math.sqrt(largest):.17g} {_OUTSIDE}",
                                 name=name, row=row)
    return n2


def as_velocity(v, *, name: str = "velocity") -> np.ndarray:
    """Coerce to a float array of shape (..., n) and enforce admissibility.

    A batch is checked in row blocks (_by_rows), so that no array of norms
    longer than a block is built.

    Raises
    ------
    DimensionError
        If the input is scalar or its component axis is empty.
    AdmissibilityError
        If the input is not real-valued (complex, non-numeric or ragged), if
        any entry is non-finite, or if any squared norm exceeds
        ``1 - BALL_MARGIN``; a batch's error names its first failing row.
    """
    arr = _as_real(v, name)

    def check(v):
        _norm_sq_checked(v, name)

    _by_rows(_on_components(check), arr)
    return arr


def _broadcast(arrays, names) -> None:
    """Require arrays whose shapes broadcast together.

    The DimensionError names the arguments ``names``.
    """
    try:
        np.broadcast(*arrays)
    except ValueError as exc:
        raise DimensionError(f"{', '.join(names)}: {exc}") from None


def _real_arrays(values, names) -> list:
    """The arguments ``values``, labelled ``names``, as float arrays.

    Raises AdmissibilityError if one is not real-valued and DimensionError
    if their shapes do not broadcast together.
    """
    arrays = [_real_array(x, name) for x, name in zip(values, names)]
    _broadcast(arrays, names)
    return arrays


def same_shape(arrays, names) -> None:
    """Require one component count and broadcastable batch shapes.

    ``names`` labels ``arrays`` in order for the error messages.
    """
    first = arrays[0].shape
    for a in arrays:
        if a.shape != first:
            break
    else:
        return
    dims = [a.shape[-1] for a in arrays]
    if len(set(dims)) > 1:
        raise DimensionError(f"{', '.join(names)} have dimensions {dims}")
    _broadcast(arrays, names)


def _matched(arrays, names) -> list:
    """The operands coerced by _as_real, in argument order, once same_shape passes them."""
    arrs = list(map(_as_real, arrays, names))
    if len(arrs) > 1:
        same_shape(arrs, names)
    return arrs


def _single_vectors(values, names) -> tuple:
    """The operands of an operation on single vectors, coerced, shape-matched and checked.

    They are coerced and matched as _one_pass does (_matched); then each,
    in argument order, must be one vector, not a batch, and admissible.
    The DimensionError of a batch names it.  Returns the arrays, their
    components (Python floats) and their squared norms, three lists.
    """
    arrs = _matched(values, names)
    vecs, n2 = [], []
    for arr, name in zip(arrs, names):
        if arr.ndim != 1:
            raise DimensionError("must be a single vector, not a batch", name=name)
        vecs.append(arr.tolist())
        n2.append(_norm_sq_checked(vecs[-1], name))
    return arrs, vecs, n2


def _one_pass(kernel, arrays, names, ambient_last: bool = False):
    """kernel(*components, n2) of one operation, checked inside its row blocks.

    The operands are coerced and their shapes matched whole (_matched); then
    the components of each row block (_on_components) pass _norm_sq_checked
    in argument order, and the kernel takes their squared norms as the list
    ``n2``.  All must be admissible velocities, except that with
    ``ambient_last`` the last one need only be finite.  The first failing
    coercion, shape match or block raises.
    """
    ambient = [False] * (len(names) - 1) + [ambient_last]

    def checked(*vecs):
        return kernel(*vecs, list(map(_norm_sq_checked, vecs, names, ambient)))

    return _by_rows(_on_components(checked), *_matched(arrays, names))
