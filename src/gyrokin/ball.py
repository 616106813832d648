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

Each operation has one checked boundary, built once at import
(``_operation``) from its operands' names, read from the public function's
signature, and their declared kinds: velocities, ambient vectors, single
velocities, reals, finite reals and single reals.  For the 31 operations
declared with ``_declare`` (the velocity operations, the speed and gamma
conversions, the aberration formulas, the scalar-only functions of trig)
the boundary is the public function itself: it takes the name, docstring
and signature of a function whose body is its docstring, so a call runs
no forwarding frame.  An operand passed by keyword is put in its place on
a slow path (``_by_keyword``).  Functions whose body does more (a
Gyration, a rooted gyrovector, a triangle from its vertices, a Particle)
call a boundary made by ``_operation`` alone.  A boundary coerces all the
operands, matches their shapes, then takes one of two routes, chosen from
the input.
When every operand is one value, each vector becomes its floats (one
tolist()) and each real a numpy float; each vector passes its check, and
each finite real its own, in argument order, and the kernel runs on them.
A vector result becomes an ndarray and a scalar an np.float64.  The
velocity operations run this on lists of floats by the boundary's
``floats`` route, which the CLI calls on the lists of floats it parses.
Otherwise the batch runs row block after row block (``_by_rows``), and
each block runs the same checks and kernel on the columns of its vectors
and reals, and assembles the result (``_assemble``).  An operation on
single vectors only takes the first route and hands back the checked
vectors; a batch operand raises, in its place in the argument order.  Single
reals become Python floats, each in turn (``_real_scalar``); a batch raises.
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
from functools import partial, update_wrapper
from itertools import compress
from operator import attrgetter

from .errors import AdmissibilityError, DimensionError, GyrokinError, NonFinite, OperandTypeError


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

# The keyword arguments of a kernel called without any.  Nothing writes to it:
# ``**`` copies it, and a dict, unlike a read-only mapping, is copied without
# a lookup per key (``**`` of a MappingProxyType costs a call about 0.4 us).
_NO_PARAMS = {}

# The number of axes of an array or a numpy float.
_ndim = attrgetter("ndim")

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


# numpy's float64 dtype, bound by the first _real_array call, so that importing
# this module runs no numpy code.  _as_real and _real_value take an ndarray of
# it as it is after one identity test, which costs 40 ns less than
# ``dtype == float`` (CPython 3.11 on x86_64); an array of an equal dtype
# that is not this object takes the longer way to the same array.
_FLOAT64 = None


def _real_array(v, name: str) -> np.ndarray:
    """Coerce to a float array of any shape, or raise AdmissibilityError."""
    global _FLOAT64
    _FLOAT64 = np.dtype(float)
    try:
        arr = np.asarray(v)
        if arr.dtype.kind == "c":
            raise TypeError("complex components")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AdmissibilityError(f"is not real-valued: {exc}", name=name) from exc


def _as_real(v, name: str) -> np.ndarray:
    """Coerce to a float array with a nonempty component axis, or raise.

    An ndarray of native float64 (_FLOAT64) is taken as it is, without the
    calls of _real_array, which would return it unchanged.
    """
    arr = v if type(v) is np.ndarray and v.dtype is _FLOAT64 else _real_array(v, name)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DimensionError("must have at least one component", name=name)
    return arr


def _real_value(x, name: str):
    """A real operand: a numpy float for one value, else a float array of its shape.

    On a numpy float each comparison and arithmetic operation costs a tenth
    of what it costs on a 0-d array, with the same bits.  An ndarray of
    native float64 with axes is taken as it is.
    """
    if type(x) is float:
        return np.float64(x)
    arr = x if type(x) is np.ndarray and x.dtype is _FLOAT64 else _real_array(x, name)
    return arr if arr.ndim else arr[()]


def _real_scalar(x, name: str) -> float:
    """A single real operand as a Python float, or raise.

    A Python float is taken as it is.  Raises AdmissibilityError if ``x`` is
    not real-valued and DimensionError if it is a batch.
    """
    if type(x) is float:
        return x
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # ragged: a sequence of sequences
        raise DimensionError("is a batch, not a scalar", name=name) from exc
    arr = _real_array(arr, name)
    if arr.ndim:
        raise DimensionError("is a batch, not a scalar", name=name)
    return arr.item()


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


def _by_rows(fn, *arrays):
    """fn(*arrays), evaluated in blocks of _BLOCK rows when the batch is longer.

    ``fn`` is a trusted kernel that works row by row, so every block gets the
    bits a single call would give; a check that returns None makes this
    return None.  Some operand is a batch: it has more axes than one value,
    which has a vector's component axis, or the unit axis a checked boundary
    gives a real beside vectors, or none for reals alone.  The blocks run
    along the leading axis of the operands' broadcast shape; an operand
    without that axis takes part whole in every block, so its faults raise
    in the first block.  The first block that raises ends the call: a
    GyrokinError that names a row gets the block's first row added, so that
    it indexes the whole batch.
    """
    nd = 0
    for a in arrays:  # a loop: a comprehension's frame costs more on one vector
        nd = max(nd, a.ndim)
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
    """Require arrays (or numpy floats) whose shapes broadcast together.

    The DimensionError names the arguments ``names``.
    """
    try:
        np.broadcast(*arrays)
    except ValueError as exc:
        raise DimensionError(f"{', '.join(names)}: {exc}") from None


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


# The kinds of operand a checked boundary takes (_operation).  A velocity
# must lie in the admissible ball and an ambient vector be finite; either may
# be a batch of shape (..., n), and a real a batch of any shape.  A finite
# real, a factor beside vectors, must be finite.  A single velocity must be
# one vector, and a single real one number.
_VELOCITY = "velocity"
_AMBIENT = "ambient vector"
_SINGLE = "single velocity"
_REAL = "real"
_FINITE_REAL = "finite real"
_SINGLE_REAL = "single real"


def _require_finite(x, name: str) -> None:
    """Raise NonFinite, naming the first failing row, unless the float or array x is finite."""
    # np.isfinite of one float costs ten times math.isfinite.
    _require(math.isfinite(x) if isinstance(x, float) else np.isfinite(x), NonFinite,
             "must be finite", name)


def _parameters(fn) -> tuple:
    """The names of the positional, and of the keyword-only, parameters of the function ``fn``."""
    code = fn.__code__
    n = code.co_argcount
    return code.co_varnames[:n], code.co_varnames[n:n + code.co_kwonlyargcount]


# The default of each operand of a boundary's routes, which take their
# operands by position only: an operand passed by keyword leaves it in place.
_MISSING = object()


def _by_keyword(public, boundary, operands, params):
    """boundary's result for a call of ``public`` that passed an operand by keyword.

    Also the route of any keyword but public's keyword-only options.  The
    call is made first to ``public``, whose body is its docstring: a call
    that does not fit its signature raises the TypeError it always raised
    there.
    Then each operand passed by keyword takes its place in the argument
    order, and the keyword options stay keywords.
    """
    operands = [x for x in operands if x is not _MISSING]
    public(*operands, **params)
    operands += [params.pop(name) for name in _parameters(public)[0][len(operands):]]
    return boundary(*operands, **params)


def _operation(kernel, names, kinds=_VELOCITY, public=None):
    """The checked boundary of one operation, built once: a function of its operands.

    ``names`` label the operands in argument order: a tuple, or the function
    whose positional parameters they are.  ``kinds`` declares the operands'
    kinds, one for all of them or one each.  Vectors are coerced by _as_real
    and reals by _real_value; then the vectors' shapes are matched
    (same_shape), and the reals' against the vectors' rows (_broadcast).
    Then, in argument order, each vector passes _norm_sq_checked and each
    finite real _require_finite, and kernel(*operands, n2, **params) runs,
    with ``n2`` the vectors' squared norms.  When every operand is one value
    this happens once: each vector as its floats and each real as a numpy
    float; a vector result becomes an ndarray and a float an np.float64.
    One and two vectors, and a finite real and a vector, take that route
    without building lists of operands.  Otherwise it happens in each row
    block (_by_rows), where a vector comes as its columns and a real as its
    column, and the first failing block raises.  An operation on reals alone
    checks none of them here: kernel(*reals) runs, and raises through
    _require.

    The routes take the operands by position, and the options, the
    keyword-only parameters of ``public``, the function the boundary stands
    for (_declare), by keyword; their defaults become the kernel's, once.  A
    call that passes an operand or any other keyword by keyword is bound by
    public's signature, then run (_by_keyword).  A boundary that stands for
    no function hands every keyword to its kernel.

    ``floats(*vecs, params=...)`` takes each vector as a nonempty list of
    Python floats, and the kernel's keyword arguments as one mapping.  It
    requires one length (the error of same_shape), runs the checks and
    returns the kernel's floats; it runs no numpy code on fewer than
    _IN_ORDER_TERMS components.

    Single velocities take no kernel (None): the boundary returns the
    arrays, their components (Python floats) and their squared norms, three
    lists, and a batch operand raises DimensionError in its place in the
    argument order; its ``floats`` returns the squared norms.  Single reals
    become Python floats (_real_scalar), each in turn, and
    kernel(*floats, **params) runs on them.
    """
    if callable(names):
        names = _parameters(names)[0]
    if type(kinds) is str:
        kinds = (kinds,) * len(names)
    arity, options = len(names), public and frozenset(_parameters(public)[1])
    if public and public.__kwdefaults__:
        kernel.__kwdefaults__ = public.__kwdefaults__
    if kinds[0] == _SINGLE_REAL:
        all_floats = [float] * arity

        def singles(*operands, **params):
            if len(operands) != arity or params and public and not params.keys() <= options:
                return _by_keyword(public, singles, operands, params)
            if list(map(type, operands)) != all_floats:  # Python floats are taken as they are
                operands = map(_real_scalar, operands, names)
            return kernel(*operands, **params)

        return singles
    vector = [kind not in (_REAL, _FINITE_REAL) for kind in kinds]
    if not any(vector):
        def reals(*operands, **params):
            if len(operands) != arity or params:
                return _by_keyword(public, reals, operands, params)
            values = list(map(_real_value, operands, names))
            for x in values:
                if type(x) is np.ndarray:
                    if len(values) > 1:
                        _broadcast(values, names)
                    return _by_rows(kernel, *values)
            return kernel(*values)

        return reals
    pure = all(vector)
    # An operand is one value when it has this many axes: a vector's components.
    one_ndim = [1 if vec else 0 for vec in vector]
    coercers = [_as_real if vec else _real_value for vec in vector]
    vector_names = list(compress(names, vector))
    ambient = [kind == _AMBIENT for kind in compress(kinds, vector)]
    single = kinds[0] == _SINGLE
    first, last = names[0], names[-1]

    def rows(values, params):
        """The route of operands that are not all one value."""
        if pure:
            same_shape(values, names)
        else:  # each real, given a unit axis, broadcasts against the vectors' rows
            values = [v if vec else v[..., None] for v, vec in zip(values, vector)]
            if len(vector_names) > 1:
                same_shape(list(compress(values, vector)), vector_names)
            if len({v.shape[:-1] for v in values}) > 1:
                _broadcast([v[..., :1] for v in values], names)
        if single:  # the first batch raises, after the vectors before it pass
            for a, name in zip(values, names):
                if a.ndim != 1:
                    raise DimensionError("must be a single vector, not a batch", name=name)
                _norm_sq_checked(a.tolist(), name)
        return _by_rows(partial(block, params=params) if params else block, *values)

    def block(*parts, params=_NO_PARAMS):
        """One row block: each vector as its columns and each real as its column."""
        parts = [_components(p) if vec else p[..., 0] for p, vec in zip(parts, vector)]
        return _assemble(many_floats(*parts, params=params))

    # The routes take the keyword arguments as one mapping: forwarding them as
    # **params a second time costs one vector's call about 0.1 us more
    # (CPython 3.11 on x86_64).
    def one_floats(a, params=_NO_PARAMS):
        n2 = [_norm_sq_checked(a, first, ambient[0])]
        return n2 if kernel is None else kernel(a, n2, **params)

    def two_floats(a, b, params=_NO_PARAMS):
        if len(a) != len(b):
            _same_dimension([len(a), len(b)], names)
        n2 = [_norm_sq_checked(a, first, ambient[0]), _norm_sq_checked(b, last, ambient[1])]
        return n2 if kernel is None else kernel(a, b, n2, **params)

    def many_floats(*vals, params=_NO_PARAMS):
        vecs = vals if pure else list(compress(vals, vector))
        for v in vecs:  # a loop: a set of the lengths costs more on one vector
            if len(v) != len(vecs[0]):
                _same_dimension(list(map(len, vecs)), vector_names)
        if pure:
            n2 = list(map(_norm_sq_checked, vals, names, ambient))
        else:  # in argument order: each vector's check, and each finite real's
            n2 = []
            for v, name, kind in zip(vals, names, kinds):
                if kind == _FINITE_REAL:
                    _require_finite(v, name)
                elif kind != _REAL:
                    n2.append(_norm_sq_checked(v, name, kind == _AMBIENT))
        return n2 if kernel is None else kernel(*vals, n2, **params)

    def one(x=_MISSING, /, **params):
        if x is _MISSING or params and public and not params.keys() <= options:
            return _by_keyword(public, one, (x,), params)
        x = _as_real(x, first)
        if x.ndim != 1:
            return rows([x], params)
        a = x.tolist()
        if kernel is None:
            return [x], [a], one_floats(a)
        result = one_floats(a, params)
        return np.array(result) if type(result) is list else np.float64(result)

    def two(x=_MISSING, y=_MISSING, /, **params):
        if y is _MISSING or params and public and not params.keys() <= options:
            return _by_keyword(public, two, (x, y), params)
        x, y = _as_real(x, first), _as_real(y, last)
        if x.ndim != 1 or x.shape != y.shape:
            return rows([x, y], params)
        a, b = x.tolist(), y.tolist()
        if kernel is None:
            return [x, y], [a, b], two_floats(a, b)
        result = two_floats(a, b, params)
        return np.array(result) if type(result) is list else np.float64(result)

    def factor(r=_MISSING, y=_MISSING, /, **params):
        """The boundary of a finite real factor r and a vector."""
        if y is _MISSING or params and public and not params.keys() <= options:
            return _by_keyword(public, factor, (r, y), params)
        r, y = _real_value(r, first), _as_real(y, last)
        if type(r) is np.ndarray or y.ndim != 1:
            return rows([r, y], params)
        _require_finite(r, first)
        b = y.tolist()
        return np.array(kernel(r, b, [_norm_sq_checked(b, last, ambient[0])], **params))

    def many(*operands, **params):
        if len(operands) != arity or params and public and not params.keys() <= options:
            return _by_keyword(public, many, operands, params)
        values = list(map(_as_real, operands, names)) if pure else [
            coerce(x, name) for coerce, x, name in zip(coercers, operands, names)]
        if list(map(_ndim, values)) != one_ndim:
            return rows(values, params)
        # Vectors of unequal lengths raise same_shape's error in many_floats.
        vals = list(map(np.ndarray.tolist, values)) if pure else [
            v.tolist() if vec else v for v, vec in zip(values, vector)]
        if kernel is None:
            return values, vals, many_floats(*vals)
        result = many_floats(*vals, params=params)
        return np.array(result) if type(result) is list else np.float64(result)

    # many alone would do for every arity, but its lists of operands and star
    # calls cost one vector about 1 us more a call (CPython 3.11 on x86_64), a
    # third of einstein_add's and half of gamma's; a finite real and a vector
    # (scalar_mul) take factor for the same reason, about 2 us of 4.
    boundary, floats = {1: (one, one_floats), 2: (two, two_floats)}.get(
        len(names), (many, many_floats)) if pure else (
        factor if kinds == (_FINITE_REAL, _VELOCITY) else many, many_floats)
    boundary.floats = floats
    return boundary


def _declare(kernel, kinds=_VELOCITY, names=None):
    """Declare the decorated function an operation: its checked boundary takes its place.

    The boundary (_operation) of ``kernel`` and the operands' ``kinds`` takes
    the function's name, docstring and signature, and its code the name
    too, so that tracebacks and profilers name the operation; the body of
    the function is its docstring alone.  ``names`` label the operands in
    errors where the parameters' names would not ("speed" for ``s``).
    """
    def declare(fn):
        boundary = _operation(kernel, names or fn, kinds, fn)
        boundary.__code__ = boundary.__code__.replace(co_name=fn.__name__)
        return update_wrapper(boundary, fn)

    return declare


def _require_instance(cls, **values) -> None:
    """Raise OperandTypeError, naming the first argument that is not a ``cls``, if one is not.

    ``values`` maps the names of the arguments to their values, in order.
    """
    for name, value in values.items():
        if not isinstance(value, cls):
            raise OperandTypeError(f"must be a {cls.__name__}, not {type(value).__name__}",
                                   name=name)
