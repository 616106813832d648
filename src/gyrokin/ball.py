"""The ball of admissible velocities and the checks that guard it.

Every velocity in this library is dimensionless (a fraction of c) and lives in
the open unit ball of R^n.  Physical units are handled only at I/O boundaries;
nothing below this layer ever multiplies by c.

Array-level functions operate on the last axis, so shapes ``(..., n)``
broadcast like any other numpy operation.  Batches longer than ``_BLOCK``
rows are evaluated in row blocks, so that each kernel's temporaries stay in
cache; every row still gets the bits of a single-vector call.

Every checked operation takes one order: coerce all its operands, match
their shapes, then check row block after row block, with the operands in
argument order inside each block (``_one_pass``); an operation that takes
single vectors only checks them in the same order (``_single_vectors``).
The first failing check raises, once; an error in a batch names its first
failing row as an index into the whole batch ("u row 19999 has norm ..."),
and a single value's error names no row.  The one velocity check,
``_norm_sq_checked``, returns the block's squared norms, and gamma consumes
them (``_gamma(v, n2)``) instead of summing |v|^2 again.  A more accurate
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

# Batches with more rows than this are evaluated this many rows at a time: the
# temporaries of a block (192 kB for each (rows, 3) array) then stay in cache.
_BLOCK = 8192

# (k, n) batches of at most this many rows are combined in one call on their
# transposes, not column by column.  For (c u + g v)/d with n = 3 the one call
# took 5.4 us against 10.4 us at k = 3 and 10.3 against 13.6 us at k = 300,
# and the two broke even near k = 500 (best of 60 alternating bursts; numpy
# 2.4.6, Python 3.11, 2-core x86_64).  The limit stays well below the crossover.
# A fifth of the scalar benchmark's calls here are such batches; this path alone
# took its op_p50_rel from 0.755 to 0.729 (10 alternating 20 s pairs).
_FEW_ROWS = 256

# The largest finite float: an ambient vector's squared norm may not exceed it.
_FLOAT_MAX = float(np.finfo(float).max)

# numpy's float sum adds fewer terms than this one by one, in order, from +0.0;
# from here on it sums pairwise.
_IN_ORDER_TERMS = 8


def _sum_last(p, squares: bool = False):
    """np.sum(p, axis=-1), bit for bit.

    Short float64 rows are summed component by component, in numpy's order
    but without its slow reduction over a short axis (one vector in Python
    floats); anything else goes to np.add.reduce, which np.sum wraps.
    numpy adds the first term to +0.0, which changes only a -0.0; the sum of
    ``squares``, which are never -0.0, starts from its first two terms.
    """
    n = p.shape[-1] if p.ndim else 0
    if not 0 < n < _IN_ORDER_TERMS or p.dtype != np.float64:
        return np.add.reduce(p, -1)
    if p.ndim == 1:
        acc = 0.0
        for x in p.tolist():
            acc += x
        return np.float64(acc)
    start = 2 if squares and n > 1 else 1
    acc = p[..., 0] + (p[..., 1] if start == 2 else 0.0)
    for i in range(start, n):
        acc += p[..., i]
    return acc


def _columns(rows, fn, *vecs):
    """fn(*vecs) for a row-wise combination ``fn`` of (..., n) vectors.

    ``fn`` scales and adds whole vectors by per-row coefficients of shape
    ``rows``, the batch shape of the result.  A batch is assembled one
    component column at a time, which numpy runs as one (k,) loop each,
    not as a 3-long loop per row; one vector is plain vector arithmetic.
    A (k, n) batch of at most _FEW_ROWS rows is combined whole instead, in
    one call on the transposes.
    """
    if not rows:
        return fn(*vecs)
    if len(rows) == 1 and rows[0] <= _FEW_ROWS:
        return np.ascontiguousarray(fn(*[x.T if x.ndim > 1 else x[:, None] for x in vecs]).T)
    out = np.empty(rows + vecs[0].shape[-1:])
    for i in range(out.shape[-1]):
        out[..., i] = fn(*[x[..., i] for x in vecs])
    return out


def dot(u, v):
    """Inner product over the last axis.

    Summed in the order np.sum(u * v, axis=-1) uses, so the bits are the
    same; norm_sq makes the same promise.
    """
    return _sum_last(np.asarray(u) * np.asarray(v))


def norm_sq(v):
    """Squared Euclidean norm over the last axis."""
    v = np.asarray(v)
    return _sum_last(v * v, squares=True)


def norm(v):
    """Euclidean norm over the last axis."""
    return np.sqrt(norm_sq(v))


def _gamma(v, n2=None) -> np.ndarray:
    """Lorentz gamma factor 1/sqrt(1 - |v|^2) of a trusted velocity array.

    ``n2`` is |v|^2 where the caller has it already, as _norm_sq_checked
    returns it.
    """
    return 1.0 / np.sqrt(1.0 - (norm_sq(v) if n2 is None else n2))


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


def _every(mask) -> bool:
    """Whether a comparison holds everywhere; bool() reads a 0-d result fastest."""
    return bool(mask.all() if mask.ndim else mask)


def _first_row(ok) -> tuple:
    """The index of the first False entry of the mask ``ok``, in C order."""
    return tuple(map(int, np.unravel_index(np.argmin(ok), ok.shape)))


def _require(ok, error, message: str, name: str) -> None:
    """Raise error(message, name=name, row=...) unless the mask ``ok`` holds everywhere.

    ``ok`` is a numpy comparison over one argument's batch, or over the
    batch its arguments broadcast to; ``row`` is its first failing row
    (_first_row), or None for a single value.  Inside _by_rows the row
    becomes an index over the whole batch.
    """
    if not _every(ok):
        raise error(message, name=name, row=_first_row(ok) if ok.ndim else None)


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
    nd = max([a.ndim for a in arrays])
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


def _norm_sq_checked(arr, name: str, ambient: bool = False):
    """norm_sq(arr), once every row of ``arr`` is admissible: the one check.

    A row is admissible if its squared norm is at most 1 - BALL_MARGIN or,
    for an ``ambient`` vector, finite.  The error names the first row that
    is not, and its non-finite input or its norm.  Overflow gives inf, not a
    warning.  One short vector is summed in Python floats, which overflow
    silently, in norm_sq's order; that skips the cost of np.errstate.
    """
    if arr.ndim == 1 and arr.shape[0] < _IN_ORDER_TERMS:
        n2 = 0.0
        for x in arr.tolist():
            n2 += x * x
        largest = n2
    else:
        with np.errstate(over="ignore"):
            n2 = norm_sq(arr)
        largest = n2.max(initial=0.0)
    limit = _FLOAT_MAX if ambient else 1.0 - BALL_MARGIN
    # "not <=" instead of ">" so NaN can never sneak through; a NaN or
    # infinite component always lands here, so finiteness is tested only now.
    if not largest <= limit:
        row = None
        if arr.ndim > 1:
            row = _first_row(n2 <= limit)
            arr, largest = arr[row], n2[row]
        if not _every(np.isfinite(arr)):
            raise AdmissibilityError("has non-finite components", name=name, row=row)
        if ambient:
            raise AdmissibilityError("has a squared norm that overflows", name=name, row=row)
        raise AdmissibilityError(
            f"has norm {math.sqrt(largest):.17g} outside the admissible ball "
            f"(limit {MAX_NORM:.17g})", name=name, row=row
        )
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

    def check(part):
        _norm_sq_checked(part, name)

    _by_rows(check, arr)
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
    same_shape(arrs, names)
    return arrs


def _checking(kernel, names, ambient_last: bool):
    """kernel(*parts, n2) for a row block ``parts``, checked first.

    The block's operands pass _norm_sq_checked in argument order, and the
    kernel takes their squared norms as the list ``n2``.  All must be
    admissible velocities, except that with ``ambient_last`` the last one
    need only be finite.
    """
    ambient = [False] * (len(names) - 1) + [ambient_last]
    return lambda *parts: kernel(*parts, list(map(_norm_sq_checked, parts, names, ambient)))


def _single_vectors(values, names) -> list:
    """The operands of an operation on single vectors, coerced, shape-matched and checked.

    They are coerced and matched as _one_pass does (_matched); then each,
    in argument order, must be one vector, not a batch, and admissible.
    The DimensionError of a batch names it.
    """
    arrs = _matched(values, names)
    for arr, name in zip(arrs, names):
        if arr.ndim != 1:
            raise DimensionError("must be a single vector, not a batch", name=name)
        _norm_sq_checked(arr, name)
    return arrs


def _one_pass(kernel, arrays, names, ambient_last: bool = False):
    """kernel(*operands, n2) of one operation, checked inside its row blocks.

    The operands are coerced and their shapes matched whole (_matched); then
    each row block is checked (_checking) and evaluated.  The first failing
    coercion, shape match or block raises.
    """
    return _by_rows(_checking(kernel, names, ambient_last), *_matched(arrays, names))
