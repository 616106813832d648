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
its columns, and floats broadcast against columns.  Only +, -, *, / and
square roots (``_sqrt``) run in Python arithmetic, every transcendental
function stays a numpy ufunc, and ``_dot`` and ``_norm_sq`` sum in np.sum's
order, so one vector's floats get the bits of a batch row.

Each velocity operation has one checked boundary, built once at import
(``_operation``).  It coerces all the operands, matches their shapes, then
takes one of two routes, chosen from the input.  When every operand is one
vector, each becomes its floats (one tolist()) and takes the boundary's
``floats`` route: each passes the check in argument order, and the kernel
runs on the floats; a vector result becomes an ndarray and a scalar an
np.float64.  The CLI calls ``floats`` on the lists of floats it parses.
Otherwise the batch runs row block after row block (``_by_rows``) through
the operation's row-block function, also made once (``_on_components``):
it checks each block's operands in argument order, runs the kernel on their
columns and assembles the result (``_assemble``).  An operation on single
vectors only takes the first route and hands back the checked vectors; a
batch operand raises, in its place in the argument order.
The first failing check raises, once; an error in a batch names its first
failing row as an index into the whole batch ("u row 19999 has norm ..."),
and a single value's error names no row.  The one velocity check,
``_norm_sq_checked``, returns the block's squared norms, and gamma consumes
them (``_gamma(n2)``) instead of summing |v|^2 again.  A more accurate
1 - |v|^2 therefore has one place to go.  Every other range check (speeds,
gamma factors, angles, scale factors, masses) raises through ``_require``,
which finds the failing row the same way (``_first_row``).

numpy is bound once, here (``np``); ``gyro`` and ``space`` import this
binding, and ``trig`` and the CLI need numpy only through them.  No
module-level value needs it, and on one vector of fewer than
_IN_ORDER_TERMS components the checks and every kernel made of +, -, *, /
and square roots run on Python floats alone: numpy's code runs only once
something reads a numpy name, such as a function that makes an array.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import threading
import types
from functools import partial
from types import MappingProxyType

from .errors import AdmissibilityError, DimensionError, GyrokinError, OperandTypeError


# Held while a lazy module's code runs.  It is reentrant: that code reads the
# module too.
_RUN_LOCK = threading.RLock()


class _NotRun(types.ModuleType):
    """A module whose code has not run: the first attribute read runs it, once.

    importlib.util.LazyLoader does the same, but before Python 3.12 another
    thread could read the module while its code still ran, and find names
    missing.
    """

    def __getattribute__(self, name):
        with _RUN_LOCK:
            if type(self) is _NotRun:
                self.__class__ = _Running
                try:
                    self.__spec__.loader.exec_module(self)
                finally:
                    self.__class__ = types.ModuleType
        return getattr(self, name)


class _Running(types.ModuleType):
    """A module whose code runs in the thread that holds _RUN_LOCK: other threads wait."""

    def __getattribute__(self, name):
        with _RUN_LOCK:
            return types.ModuleType.__getattribute__(self, name)


# The one binding of numpy for ball, gyro and space: the module already
# imported, or one whose code runs on its first attribute read (_NotRun).  It
# stands in sys.modules, so a later ``import numpy`` runs its code in place
# and gets this very module; from then on it is a plain module, and every
# ``np.`` read a plain attribute read.  So a command whose kernels are pure
# float arithmetic starts without running numpy's code.
np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    np.__class__ = _NotRun

# Constructors reject squared norms above 1 - BALL_MARGIN: gamma factors blow
# up and the algebraic laws lose their precision headroom without a hard edge.
BALL_MARGIN = 1e-12

# Largest norm an admissible velocity may have; scalar results clamp here.
MAX_NORM = math.sqrt(1.0 - BALL_MARGIN)  # correctly rounded, as np.sqrt
_OUTSIDE = f"outside the admissible ball (limit {MAX_NORM:.17g})"

# Ambient triangle areas below this mark a triple as gyrocollinear (space, trig).
COLLINEAR_AREA_TOL = 1e-12

# Largest |gamma - pi/2| of a gyrotriangle's angle at C that counts as right (trig).
RIGHT_ANGLE_TOL = 1e-8

# Batches with more rows than this are evaluated this many rows at a time: the
# temporaries of a block (192 kB for each (rows, 3) array) then stay in cache.
_BLOCK = 8192

# The largest finite float: an ambient vector's squared norm may not exceed it.
_FLOAT_MAX = sys.float_info.max

# The keyword arguments of a kernel called without any.
_NO_PARAMS = MappingProxyType({})

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
    """The row-block function of ``kernel``, made once, where the kernel is defined.

    Each array of a block becomes its components (_components), the keyword
    arguments pass through, and the kernel's result is assembled
    (_assemble): row blocks (_by_rows) reach the kernels through this one
    door.
    """
    return lambda *parts, **params: _assemble(kernel(*map(_components, parts), **params))


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
        raise AdmissibilityError(f"is not real-valued: {exc}", name=name) from exc


def _as_real(v, name: str) -> np.ndarray:
    """Coerce to a float array with a nonempty component axis, or raise.

    An ndarray of native float64 is taken as it is, without the calls of
    _real_array, which would return it unchanged.
    """
    arr = v if type(v) is np.ndarray and v.dtype == float else _real_array(v, name)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DimensionError("must have at least one component", name=name)
    return arr


def _real_scalars(values, names) -> list:
    """The scalar arguments ``values``, labelled ``names``, as Python floats.

    Python floats are taken as they are; otherwise all are coerced in one
    call, which raises DimensionError if any of them is a batch and
    AdmissibilityError if any is not real-valued.
    """
    if all(type(x) is float for x in values):
        return list(values)
    # One argument's error carries its name; several arguments' is about none
    # of them, and its message names them all.
    name, label = (names[0], "") if len(names) == 1 else (None, f"one of {', '.join(names)} ")
    try:
        arr = _real_array(np.asarray(values), names[0])
    except AdmissibilityError as exc:
        error = exc if name else AdmissibilityError(label + exc.args[0])
        raise error from exc.__cause__
    except ValueError as exc:  # ragged: an argument is a sequence
        raise DimensionError(label + "is a batch, not a scalar", name=name) from exc
    if arr.shape != (len(names),):
        raise DimensionError(label + "is a batch, not a scalar", name=name)
    return arr.tolist()


def _read_only(a) -> np.ndarray:
    """A read-only copy of the array ``a``."""
    a = a.copy()
    a.setflags(write=False)
    return a


def _record(cls, **fields):
    """A ``cls`` record, a frozen dataclass, with every field set in one step.

    ``fields`` must name every field; __init__ would set them one by one,
    each through object.__setattr__.
    """
    record = cls.__new__(cls)
    vars(record).update(fields)
    return record


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


def _admissible(v, name: str) -> None:
    """None once the components ``v`` pass _norm_sq_checked: as_velocity's kernel."""
    _norm_sq_checked(v, name)


_admissible_rows = _on_components(_admissible)


def as_velocity(v, *, name: str = "velocity") -> np.ndarray:
    """Coerce to a float array of shape (..., n) and enforce admissibility.

    One vector is checked as its floats; a batch in row blocks (_by_rows),
    so that no array of norms longer than a block is built.

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
    if arr.ndim == 1:
        _norm_sq_checked(arr.tolist(), name)
    else:
        _by_rows(partial(_admissible_rows, name=name), arr)
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

    A single value comes as a numpy float, on which each comparison and
    arithmetic operation costs a tenth of what it costs on a 0-d array, with
    the same bits.  Raises AdmissibilityError if one is not real-valued and
    DimensionError if their shapes do not broadcast together.
    """
    arrays = [_real_array(x, name)[()] for x, name in zip(values, names)]
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
    _same_dimension([a.shape[-1] for a in arrays], names)
    _broadcast(arrays, names)


def _same_dimension(dims, names) -> None:
    """Require one component count among ``dims``, those of the arguments ``names``."""
    if len(set(dims)) > 1:
        raise DimensionError(f"{', '.join(names)} have dimensions {dims}")


def _matched(arrays, names) -> list:
    """The operands coerced by _as_real, in argument order, once same_shape passes them."""
    arrs = list(map(_as_real, arrays, names))
    if len(arrs) > 1:
        same_shape(arrs, names)
    return arrs


def _operation(kernel, names, ambient_last: bool = False):
    """The checked boundary of one operation, built once: a function of its operands.

    ``names`` label the operands in argument order: a tuple, or the function
    whose positional parameters they are.  The boundary coerces every
    operand (_as_real) and matches their shapes (same_shape).  Then the
    operands pass _norm_sq_checked in argument order and
    kernel(*components, n2, **params) runs, with ``n2`` their squared
    norms.  All must be admissible velocities, except that with
    ``ambient_last`` the last one need only be finite.  When every operand
    is one vector of one shape this happens once, on its floats, by the
    boundary's ``floats`` route, and a vector result becomes an ndarray and
    a scalar an np.float64; one and two operands take it without building
    lists of operands.  Otherwise it happens in each row block (_by_rows),
    and the first failing block raises.

    ``floats(*vecs, params=...)`` takes each operand as a nonempty list of
    Python floats, and the kernel's keyword arguments as one mapping.  It
    requires one length (the error of same_shape), runs the checks and
    returns the kernel's floats; it runs no numpy code on fewer than
    _IN_ORDER_TERMS components.  The row blocks run the same checks and
    kernel on their columns.

    With ``kernel`` None the operation takes single vectors only: the
    boundary returns the arrays, their components (Python floats) and their
    squared norms, three lists, and a batch operand raises DimensionError in
    its place in the argument order; its ``floats`` returns the squared norms.
    """
    if callable(names):
        code = names.__code__
        names = code.co_varnames[:code.co_argcount]
    ambient = (False,) * (len(names) - 1) + (ambient_last,)
    first, last = names[0], names[-1]

    def rows(arrays, params):
        """The route of operands that are not all one vector of one shape."""
        same_shape(arrays, names)
        if kernel is None:  # the first batch raises, after the vectors before it pass
            for a, name in zip(arrays, names):
                if a.ndim != 1:
                    raise DimensionError("must be a single vector, not a batch", name=name)
                _norm_sq_checked(a.tolist(), name)
        return _by_rows(partial(block, params=params) if params else block, *arrays)

    # The routes take the keyword arguments as one mapping: forwarding them as
    # **params a second time costs one vector's call about 0.1 us more
    # (CPython 3.11 on x86_64).
    def one_floats(a, params=_NO_PARAMS):
        n2 = [_norm_sq_checked(a, first, ambient_last)]
        return n2 if kernel is None else kernel(a, n2, **params)

    def two_floats(a, b, params=_NO_PARAMS):
        if len(a) != len(b):
            _same_dimension([len(a), len(b)], names)
        n2 = [_norm_sq_checked(a, first), _norm_sq_checked(b, last, ambient_last)]
        return n2 if kernel is None else kernel(a, b, n2, **params)

    def many_floats(*vecs, params=_NO_PARAMS):
        for v in vecs:  # a loop: a set of the lengths costs more on one vector
            if len(v) != len(vecs[0]):
                _same_dimension(list(map(len, vecs)), names)
        n2 = list(map(_norm_sq_checked, vecs, names, ambient))
        return n2 if kernel is None else kernel(*vecs, n2, **params)

    block = _on_components(many_floats)  # a block's components are its columns

    def one(x, **params):
        x = _as_real(x, first)
        if x.ndim != 1:
            return rows([x], params)
        a = x.tolist()
        if kernel is None:
            return [x], [a], one_floats(a)
        result = one_floats(a, params)
        return np.array(result) if type(result) is list else np.float64(result)

    def two(x, y, **params):
        x, y = _as_real(x, first), _as_real(y, last)
        if x.ndim != 1 or x.shape != y.shape:
            return rows([x, y], params)
        a, b = x.tolist(), y.tolist()
        if kernel is None:
            return [x, y], [a, b], two_floats(a, b)
        result = two_floats(a, b, params)
        return np.array(result) if type(result) is list else np.float64(result)

    def many(*operands, **params):
        arrays = list(map(_as_real, operands, names))
        for a in arrays:
            if a.ndim != 1 or a.shape != arrays[0].shape:
                return rows(arrays, params)
        vecs = list(map(np.ndarray.tolist, arrays))
        if kernel is None:
            return arrays, vecs, many_floats(*vecs)
        result = many_floats(*vecs, params=params) if params else many_floats(*vecs)
        return np.array(result) if type(result) is list else np.float64(result)

    # many alone would do for every arity, but its lists of operands and star
    # calls cost one vector about 1 us more a call (CPython 3.11 on x86_64), a
    # third of einstein_add's and half of gamma's.
    boundary, floats = {1: (one, one_floats), 2: (two, two_floats)}.get(
        len(names), (many, many_floats))
    boundary.floats = floats
    return boundary


def _require_instance(cls, **values) -> None:
    """Raise OperandTypeError, naming the first argument that is not a ``cls``, if one is not.

    ``values`` maps the names of the arguments to their values, in order.
    """
    for name, value in values.items():
        if not isinstance(value, cls):
            raise OperandTypeError(f"must be a {cls.__name__}, not {type(value).__name__}",
                                   name=name)
