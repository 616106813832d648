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
function of a kernel stays a numpy ufunc, and ``_dot`` and ``_norm_sq`` sum
in np.sum's order, so one vector's floats get the bits of a batch row.  The
functions of single values alone take ``math``'s: ``gyro._unit_angle``'s
atan2, as ``trig``'s acos, cos and sin.  The primitives the composite
modules share live here too: ``_norm``, ``_ratio`` (a
quotient that reads 0 where its denominator is not positive) and ``_area``
(the Euclidean area of three points, behind ``triangle_area`` and the
collinearity checks of gyroparallelograms and triangles from vertices).

Each operation has one checked boundary, generated once at import
(``_operation``) from its operands' names, read from the public function's
signature, and their declared kinds: velocities, ambient vectors, checked
velocities (a Gyration's generator, checked when it was made), single
velocities, reals, finite reals and single reals.  ``_operation`` writes
the boundary's source, two straight-line functions, and compiles it; its
docstring shows the source written for ``einstein_add``.  For the 34
operations declared with ``_declare`` (the velocity operations, the speed
and gamma conversions, the aberration formulas, the metric tensor, and
trig's functions of single values, gyroangle and triangles from their
vertices among them) the boundary is the public function itself: it has that function's
parameters, keyword-only options and defaults, and takes its name,
docstring and signature, so a call runs no forwarding frame and Python
binds an operand passed by keyword as it binds any other call.  Functions
whose body does more (a Gyration and its ``apply``, a rooted gyrovector, a
Particle, a boost) call a boundary made by ``_operation`` alone.  Every
boundary runs a kernel, and takes keywords only as the keyword-only
options of a signature.  A boundary coerces each operand, in argument
order, then takes one of two routes, chosen from the input.
When every operand is one value, each vector becomes its floats (one
tolist()) and each real a numpy float, and the boundary's ``floats`` route
runs on them: each vector passes its check, and each finite real its own,
in argument order, and the kernel runs.  A vector result becomes an
ndarray and a scalar an np.float64.  The CLI calls the ``floats`` route of
the velocity operations on the lists of floats it parses.
Otherwise the operands' shapes are matched and the batch runs row block
after row block (``_by_rows``); each block runs the same ``floats`` route
on the columns of its vectors and reals, and assembles the result
(``_assemble``).  An operation on single vectors only takes the first
route and returns its kernel's result as it is; a batch operand raises, in
its place in the argument order.  Single reals become Python floats, each in
turn (``_real_scalar``); a batch raises.
The first failing check raises, once; an error in a batch names its first
failing row as an index into the whole batch ("u row 19999 has norm ..."),
and a single value's error names no row.  The one velocity check,
``_norm_sq_checked``, returns the block's squared norms, and each kernel
hands a velocity's components and squared norm to ``_gamma(v, n2)`` where
it uses the gamma factor, instead of summing |v|^2 again.  The objects of
mass take theirs from ``_gamma(v, _norm_sq(v))``.  So one |v|^2
(``_norm_sq``) is behind every gamma, one 1 - |v|^2 (``_deficit``, which
the metric tensor reads too) and one gamma (``_gamma``), and a more
accurate 1 - |v|^2 has one function to change.  Every other range check
(speeds, gamma factors, angles, scale factors, masses) raises through
``_require``, which finds the failing row the same way (``_first_row``).

numpy is bound once, here (``np``); every other module that reads a numpy
name (``gyro``, ``space``, ``aberration`` and ``mass``) imports this
binding, and ``trig`` and the CLI need numpy only through them.  No
module-level value of ``ball``, ``gyro``, ``space`` or ``trig`` needs it
(``aberration``'s formulas are declared with numpy's ufuncs), and on one
vector of fewer than
_IN_ORDER_TERMS components the checks and every kernel made of +, -, *, /
and square roots run on Python floats alone: numpy's code runs only once
something reads a numpy name, such as a function that makes an array.
"""

from __future__ import annotations

import copy
import importlib.util
import linecache
import math
import sys
import threading
import types
from functools import partial, update_wrapper
from itertools import compress, count

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


# The one binding of numpy for the whole package: the module already
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


def _norm_sq(v):
    """Squared norm of a component list, bit for bit as np.sum(v * v, axis=-1).

    The squares are added as _dot adds its products, except that the +0.0
    start is left out: it changes only a -0.0, and a square never is one.
    """
    if len(v) >= _IN_ORDER_TERMS:
        return np.add.reduce(_assemble([x * x for x in v]), -1)
    acc = v[0] * v[0]
    for x in v[1:]:
        acc += x * x
    return acc


def _norm(v):
    """Norm of a component list."""
    return _sqrt(_norm_sq(v))


def _ratio(num, den):
    """num / den where den > 0, else 0.0: of two Python floats, or by np.divide."""
    if type(num) is float and type(den) is float:
        return num / den if den > 0.0 else 0.0
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0.0)


def _area(a, b, c):
    """Euclidean area of the triangle of three trusted component lists."""
    x = [q - p for p, q in zip(a, b)]
    y = [q - p for p, q in zip(a, c)]
    xx = _norm_sq(x)
    coef = _ratio(_dot(x, y), xx)
    return 0.5 * _sqrt(xx) * _norm([q - coef * p for p, q in zip(x, y)])


def _neg(v) -> list:
    return [-x for x in v]


def _deficit(v, n2):
    """1 - |v|^2 of the trusted components ``v``, whose squared norm is ``n2``.

    ``n2`` is a float or an array, as _norm_sq_checked or _norm_sq returns
    it.  The one place where a squared norm is subtracted from 1: every
    gamma factor of a velocity, and the metric tensor, take it from here.
    """
    return 1.0 - n2


def _gamma(v, n2):
    """Lorentz gamma factor 1/sqrt(1 - |v|^2) of trusted components ``v`` with |v|^2 ``n2``."""
    return 1.0 / _sqrt(_deficit(v, n2))


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
    """A read-only array copy of ``a``, an array or a list of floats."""
    a = np.array(a)
    a.setflags(write=False)
    return a


class _Frozen:
    """The base of gyrokin's frozen dataclasses: they hold read-only arrays of their own.

    pickle, copy.copy and copy.deepcopy restore an object through
    __setstate__, which makes every ndarray among its fields read-only, each
    one in a tuple field too, and then sets the fields in one step.  A call
    of a generated dataclass __init__ (the public constructor of a record,
    and dataclasses.replace) ends in __post_init__, which restores the
    object from a deep copy of its fields, so that it holds read-only
    copies of the caller's arrays, which a later write to them leaves as
    they were.  A copy takes the original's fields without the
    constructor's checks, which would guard nothing there: pickle.loads
    calls whatever callable the stream names.  The library's own
    constructors freeze the arrays they make as they make them, and _record
    skips __init__, so neither runs these loops over the fields.
    """

    def __post_init__(self):
        self.__setstate__(copy.deepcopy(vars(self)))

    def __setstate__(self, state):
        for value in state.values():
            for a in value if type(value) is tuple else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
        vars(self).update(state)


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
    batch = type(ok) is not bool and isinstance(ok, np.ndarray)  # a bool runs no numpy code
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


def _admissible(block, name: str) -> None:
    """None once the rows of ``block`` pass _norm_sq_checked: as_velocity's row blocks."""
    _norm_sq_checked(_components(block), name)


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
        _by_rows(partial(_admissible, name=name), arr)
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
# be a batch of shape (..., n), and a real a batch of any shape.  A checked
# velocity, one that passed its check before, has its length matched alone.
# A finite real, a factor beside vectors, must be finite.  A single velocity
# must be one vector, and a single real one number.
_VELOCITY = "velocity"
_AMBIENT = "ambient vector"
_CHECKED = "checked velocity"
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


# Numbers the file names under which linecache holds the boundaries' sources.
_SOURCES = count()


def _operation(kernel, names, kinds=_VELOCITY, public=None):
    """The checked boundary of one operation, built once: a function of its operands.

    ``names`` label the operands in argument order: a tuple, or the function
    whose positional parameters they are.  ``kinds`` declares the operands'
    kinds, one for all of them or one each.  ``public`` is the function the
    boundary stands for (_declare): the boundary takes its name, its
    positional parameters and its keyword-only options with their defaults.
    A boundary that stands for no function is named ``boundary`` and takes
    its operands as x0, x1, ... and no keyword.

    The boundary and its ``floats`` route are written as source, compiled
    once with this module's globals and registered with linecache, so that
    tracebacks and pdb show their lines; labels enter the source by repr.
    The boundary coerces each operand in argument order, a vector by
    _as_real, a real by _real_value and a single real by _real_scalar
    (a Python float is taken as it is), then tests for one value: a vector
    of one axis, a real of none.  If every operand is one value, ``floats``
    runs once, each vector as its floats and each real as a numpy float,
    and a vector result becomes an ndarray and a float an np.float64
    (_assemble).
    Otherwise the operands go to the row blocks (``rows``): the vectors'
    shapes are matched (same_shape), and the reals' against the vectors'
    rows (_broadcast), and each block (_by_rows) runs ``floats`` on the
    vectors' columns and the reals' columns and assembles the result.

    ``floats``, also the boundary's attribute, takes each vector as a
    nonempty list of Python floats, each real as a number, and the options
    by keyword.  It requires one length (the error of same_shape), then
    runs, in argument order, each vector's _norm_sq_checked (but a checked
    velocity's) and each finite real's _require_finite, and returns
    kernel(*operands, n2, **options), with ``n2`` the squared norms it
    summed.  It runs no numpy code on fewer than _IN_ORDER_TERMS components.
    The source written for einstein_add:

        def _make(_kernel, _rows):
            def floats(u, v):
                if not len(u) == len(v):
                    _same_dimension([len(u), len(v)], ('u', 'v'))
                _u = _norm_sq_checked(u, 'u')
                _v = _norm_sq_checked(v, 'v')
                return _kernel(u, v, [_u, _v])
            def einstein_add(u, v):
                u = _as_real(u, 'u')
                v = _as_real(v, 'v')
                if u.ndim != 1 or v.ndim != 1:
                    return _rows([u, v])
                return _assemble(floats(u.tolist(), v.tolist()))
            return einstein_add, floats

    An operation on reals alone, or on single reals, checks nothing here:
    its ``floats`` is the kernel, which checks its reals through _require.
    Single reals have no row blocks: a batch raises DimensionError in
    _real_scalar.  Nor do single velocities: a batch operand raises
    DimensionError in its place in the argument order, once the vectors
    before it pass their checks.  An operation on single values returns its
    kernel's result as it is.
    """
    if callable(names):
        names = _parameters(names)[0]
    if type(kinds) is str:
        kinds = (kinds,) * len(names)
    vector = [kind not in (_REAL, _FINITE_REAL, _SINGLE_REAL) for kind in kinds]
    vector_names = list(compress(names, vector))
    single = kinds[0] == _SINGLE

    def rows(values, params=_NO_PARAMS):
        """The route of operands that are not all one value."""
        if not any(vector):  # reals alone: the kernel checks them
            if len(values) > 1:
                _broadcast(values, names)
            return _by_rows(kernel, *values)
        if all(vector):
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
        return _assemble(floats(*parts, **params))

    # The source.  A boundary that stands for no function takes x0, x1, ... alone.
    if public:
        name, (args, options) = public.__name__, _parameters(public)
    else:
        name, args, options = "boundary", [f"x{i}" for i in range(len(names))], ()
    passed = "".join(f", {o}={o}" for o in options)
    tail = ", *, " + ", ".join(options) if options else ""
    to_rows = f", dict({passed[2:]})" if options else ""
    coerce, checks, summed = [], [], []  # summed: the vectors whose squared norms n2 holds
    for a, label, kind, vec in zip(args, map(repr, names), kinds, vector):
        if kind == _SINGLE_REAL:
            coerce.append(f"    {a} = {a} if type({a}) is float else _real_scalar({a}, {label})")
        else:
            coerce.append(f"    {a} = {'_as_real' if vec else '_real_value'}({a}, {label})")
        if vec and kind != _CHECKED:
            ambient = ", True" if kind == _AMBIENT else ""
            checks.append(f"    _{a} = _norm_sq_checked({a}, {label}{ambient})")
            summed.append(a)
        elif kind == _FINITE_REAL:
            checks.append(f"    _require_finite({a}, {label})")
    listed, vecs = ", ".join(args), list(compress(args, vector))
    lengths, n2 = ", ".join(f"len({v})" for v in vecs), f"[{', '.join('_' + v for v in summed)}]"
    if len(vecs) > 1:
        checks[:0] = [f"    if not {lengths.replace(', ', ' == ')}:",
                      f"        _same_dimension([{lengths}], {tuple(vector_names)!r})"]
    if checks:
        result = f"_kernel({listed}, {n2}{passed})" if vecs else f"_kernel({listed}{passed})"
        lines = [f"def floats({listed}{tail}):", *checks, f"    return {result}"]
    else:
        lines = ["floats = _kernel"]
    lines += [f"def {name}({listed}{tail}):", *coerce]
    if kinds[0] != _SINGLE_REAL:
        batch = " or ".join(f"{a}.ndim != 1" if vec else f"{a}.ndim"
                            for a, vec in zip(args, vector))
        lines += [f"    if {batch}:", f"        return _rows([{listed}]{to_rows})"]
    values = ", ".join(f"{a}.tolist()" if vec else a for a, vec in zip(args, vector))
    call = f"floats({values}{passed})"
    # A vector result becomes an ndarray, a float of one vector an np.float64; an
    # operation on single values returns its kernel's result as it is.
    lines.append(f"    return _assemble({call})" if vecs and not single else f"    return {call}")
    source = "".join(f"    {line}\n" for line in [*lines, f"return {name}, floats"])
    source = f"def _make(_kernel, _rows):\n{source}"
    filename = f"<boundary {next(_SOURCES)}: {name}>"
    linecache.cache[filename] = len(source), None, source.splitlines(True), filename
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    boundary, floats = namespace["_make"](kernel, rows)
    if options:
        boundary.__kwdefaults__ = floats.__kwdefaults__ = public.__kwdefaults__
    boundary.floats = floats
    return boundary


def _declare(kernel, kinds=_VELOCITY, names=None):
    """Declare the decorated function an operation: its checked boundary takes its place.

    The boundary (_operation) of ``kernel`` and the operands' ``kinds`` has
    the function's parameters and takes its name, docstring and signature;
    the body of the function is its docstring alone.  ``names`` label the
    operands in errors where the parameters' names would not ("speed" for
    ``s``).
    """
    return lambda fn: update_wrapper(_operation(kernel, names or fn, kinds, fn), fn)


def _require_instance(cls, **values) -> None:
    """Raise OperandTypeError, naming the first argument that is not a ``cls``, if one is not.

    ``values`` maps the names of the arguments to their values, in order.
    """
    for name, value in values.items():
        if not isinstance(value, cls):
            raise OperandTypeError(f"must be a {cls.__name__}, not {type(value).__name__}",
                                   name=name)
