"""Each declared operation is its own checked boundary (ball._declare).

The public function of an operation is the boundary itself: these tests pin
what a caller sees of it (its name, signature, docstring and module), and
check that its code has the function's own parameters, so that Python binds
operands passed by keyword and rejects a bad call as the function would,
that it hands its keyword options' defaults to its kernel, pickles by
reference, renders under help() and names itself in tracebacks, and that
ball._operation's docstring shows the source it generates.
"""

import hashlib
import inspect
import linecache
import pickle
import pydoc
import textwrap
import traceback

import numpy as np
import pytest

import gyrokin as gk
from gyrokin import CollinearPoints, GyrokinError, NoSuchTriangle
from gyrokin.ball import COLLINEAR_AREA_TOL, _operation

U, V, W = [0.1, 0.2, -0.3], [-0.4, 0.1, 0.2], [0.3, 0.3, 0.1]

# Each declared operation: its module, str(inspect.signature(fn)) and the
# blake2b digest (8 bytes) of inspect.cleandoc(fn.__doc__), as they were
# when each operation was a forwarding function, and one valid call's
# positional arguments.
DECLARED = {
    "gamma": ("gyro", "(v) -> 'np.ndarray'", "11f90cb60a378ce0", (U,)),
    "gamma_of_speed": ("gyro", "(s) -> 'np.ndarray'", "a056c942ab2c05a2", (0.5,)),
    "speed_of_gamma": ("gyro", "(g) -> 'np.ndarray'", "b62bb52f5e81b324", (1.5,)),
    "einstein_add": ("gyro", "(u, v) -> 'np.ndarray'", "c8116b8c79e197f7", (U, V)),
    "einstein_sub": ("gyro", "(u, v) -> 'np.ndarray'", "cc7490e7042014dc", (U, V)),
    "left_sub": ("gyro", "(a, b) -> 'np.ndarray'", "fe3c08f993f0453e", (U, V)),
    "add_speeds": ("gyro", "(x, y)", "50cb229fa4bf3cd5", (0.3, 0.4)),
    "gyrate": ("gyro", "(u, v, w) -> 'np.ndarray'", "de7d658a8a562ade", (U, V, W)),
    "gyrate_definitional": ("gyro", "(u, v, w) -> 'np.ndarray'", "d11d83e3ae54eb8f",
                            (U, V, W)),
    "coadd": ("gyro", "(u, v) -> 'np.ndarray'", "6374d89d35c3c479", (U, V)),
    "coadd_via_gyration": ("gyro", "(u, v) -> 'np.ndarray'", "b938b8e879ce7ce0", (U, V)),
    "cosub": ("gyro", "(u, v) -> 'np.ndarray'", "5c569e191d4df359", (U, V)),
    "scalar_mul": ("space", "(r, v) -> 'np.ndarray'", "0153caf5d49b6390", (0.7, U)),
    "gyrodistance": ("space", "(a, b) -> 'np.ndarray'", "5f932b25f88d0416", (U, V)),
    "gyroline_point": ("space", "(a, b, t) -> 'np.ndarray'", "b25461f35470e680", (U, V, 0.3)),
    "gyromidpoint": ("space", "(a, b) -> 'np.ndarray'", "bf920809640036e7", (U, V)),
    "triangle_area": ("space", "(a, b, c) -> 'np.ndarray'", "d8d844e721974e4b", (U, V, W)),
    "gyroparallelogram_fourth": (
        "space", "(a, b, c, *, allow_degenerate: 'bool' = False, tol: 'float' = 1e-12) "
        "-> 'np.ndarray'", "58a622a2d08161f8", (U, V, W)),
    "triangle_q": ("trig", "(gamma_a: 'float', gamma_b: 'float', gamma_c: 'float') -> 'float'",
                   "b1b74f8c3378d031", (1.2, 1.3, 1.4)),
    "sss_to_aaa": ("trig", "(gamma_a: 'float', gamma_b: 'float', gamma_c: 'float') "
                   "-> 'tuple[float, float, float]'", "4adf640df5afdf68", (1.2, 1.3, 1.4)),
    "aaa_to_sss": ("trig", "(alpha: 'float', beta: 'float', gamma: 'float', *, "
                   "tol: 'float' = 1e-12) -> 'tuple[float, float, float]'", "602e08b92ba8563a",
                   (0.5, 0.6, 0.7)),
    "triangle_from_sides": ("trig", "(side_a: 'float', side_b: 'float', side_c: 'float') "
                            "-> 'Gyrotriangle'", "f936e8a73d42753b", (0.3, 0.4, 0.5)),
    # Declared later than the others: their docstrings as they were before that.
    "gyroangle": ("trig", "(vertex, p, q, *, tol: 'float' = 1e-14) -> 'float'",
                  "779ec11a654e25fd", (U, V, W)),
    "triangle_from_vertices": ("trig", "(a, b, c) -> 'Gyrotriangle'", "49f68d11d677469c",
                               (U, V, W)),
    "metric_tensor": ("space", "(x) -> 'np.ndarray'", "f834f16cca4bcb61", (U,)),
    "classical_aberration": ("aberration", "(theta_s, v, p_s)", "dba8752e6bafb906",
                             (1.0, 0.5, 0.6)),
    "classical_aberration_inv": ("aberration", "(theta_e, v, p_e)", "863d19370df71599",
                                 (1.0, 0.5, 0.6)),
    "relativistic_aberration": ("aberration", "(theta_s, v, p_s)", "23813a906d0060df",
                                (1.0, 0.5, 0.6)),
    "relativistic_aberration_inv": ("aberration", "(theta_e, v, p_e)", "db13aa5ce39ab8d6",
                                    (1.0, 0.5, 0.6)),
    "classical_matched_p_e": ("aberration", "(theta_s, theta_e, p_s)", "c261146f347505d2",
                              (1.0, 1.2, 0.6)),
    "relativistic_matched_p_e": ("aberration", "(theta_s, theta_e, p_s)", "c107026224bc95dd",
                                 (1.0, 1.2, 0.6)),
    "aberration_scene": ("aberration", "(v, p_s, theta_s) -> 'AberrationResult'",
                         "20281ca2ef7db487", (0.5, 0.6, 1.0)),
    "aberration_sweep": ("aberration", "(v, p, n_samples: 'int')", "42b5ac504faf9e61",
                         (0.5, 0.6, 8)),
    "gamma_rel_minus_1": ("mass", "(u, v) -> 'np.ndarray'", "25082c510511d035", (U, V)),
}


def digest(result):
    """The type, dtype, shape and bytes of a result, nested as it is."""
    if isinstance(result, (tuple, list)):
        return type(result), tuple(map(digest, result))
    if isinstance(result, (np.ndarray, np.generic)):
        return type(result), result.dtype, result.shape, result.tobytes()
    if hasattr(result, "__dict__"):
        return type(result), digest([v for _, v in sorted(vars(result).items())])
    return type(result), np.float64(result).tobytes()


@pytest.mark.parametrize("name", DECLARED)
def test_interface_is_the_forwarding_functions(name):
    module, signature, doc, _ = DECLARED[name]
    fn = getattr(gk, name)
    assert fn.__name__ == fn.__qualname__ == fn.__code__.co_name == name
    assert fn.__module__ == f"gyrokin.{module}"
    assert getattr(getattr(gk, module), name) is fn
    assert str(inspect.signature(fn)) == signature
    cleaned = inspect.cleandoc(fn.__doc__).encode()
    assert hashlib.blake2b(cleaned, digest_size=8).hexdigest() == doc


@pytest.mark.parametrize("name", DECLARED)
def test_operands_by_keyword_give_the_positional_bits(name):
    fn, args = getattr(gk, name), DECLARED[name][3]
    names = list(inspect.signature(fn).parameters)[:len(args)]
    want = digest(fn(*args))
    assert digest(fn(**dict(zip(names, args)))) == want
    assert digest(fn(*args[:1], **dict(zip(names[1:], args[1:])))) == want


@pytest.mark.parametrize("name", DECLARED)
def test_call_that_does_not_fit_the_signature_raises_type_error(name):
    fn, args = getattr(gk, name), DECLARED[name][3]
    first = list(inspect.signature(fn).parameters)[0]
    missing = list(inspect.signature(fn).parameters)[len(args) - 1]
    calls = {f"missing 1 required positional argument: '{missing}'": (args[:-1], {}),
             "got an unexpected keyword argument 'foo'": (args, {"foo": 1}),
             f"got multiple values for argument '{first}'": (args, {first: args[0]})}
    for message, (given, keywords) in calls.items():
        with pytest.raises(TypeError) as info:
            fn(*given, **keywords)
        assert str(info.value) == f"{name}() {message}"
        assert not isinstance(info.value, GyrokinError)
    with pytest.raises(TypeError, match=rf"^{name}\(\) takes .*positional argument"):
        fn(*args, 0.5)


@pytest.mark.parametrize("name", DECLARED)
def test_boundary_has_the_parameters_of_the_function(name):
    """The boundary's code has the function's operands and options, and no *args or **kwargs."""
    fn = getattr(gk, name)
    code, parameters = fn.__code__, inspect.signature(fn).parameters.values()
    operands = [p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD]
    options = [p.name for p in parameters if p.kind is p.KEYWORD_ONLY]
    assert list(code.co_varnames[:code.co_argcount]) == operands
    assert code.co_kwonlyargcount == len(options)
    assert not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)


@pytest.mark.parametrize("name", DECLARED)
def test_bad_call_raises_the_type_error_of_the_function(name):
    """One operand too few or too many, an unknown keyword or a repeated operand
    raise the TypeError the docstring-only function raises, word for word."""
    fn, args = getattr(gk, name), DECLARED[name][3]
    first = list(inspect.signature(fn).parameters)[0]
    for given, keywords in [(args[:-1], {}), ((*args, args[-1]), {}), (args, {"foo": 1}),
                            (args, {first: args[0]})]:
        with pytest.raises(TypeError) as want:
            fn.__wrapped__(*given, **keywords)
        with pytest.raises(TypeError) as got:
            fn(*given, **keywords)
        assert str(got.value) == str(want.value)


def test_operation_docstring_shows_the_source_it_generates():
    """The example in _operation's docstring is the source generated for einstein_add."""
    doc = inspect.getdoc(_operation)
    example = doc.split("The source written for einstein_add:\n\n", 1)[1].split("\n\n", 1)[0]
    source = "".join(linecache.getlines(gk.einstein_add.__code__.co_filename))
    assert textwrap.dedent(example) + "\n" == source


def test_keyword_options_and_their_defaults():
    """The defaults of the public signature are the kernel's, with or without the option."""
    fourth = gk.gyroparallelogram_fourth
    want = digest(fourth(U, V, W))
    for options in ({}, {"tol": COLLINEAR_AREA_TOL}, {"allow_degenerate": False},
                    {"allow_degenerate": False, "tol": COLLINEAR_AREA_TOL}):
        assert digest(fourth(U, V, W, **options)) == want
        assert digest(fourth(c=W, b=V, a=U, **options)) == want
    with pytest.raises(CollinearPoints):
        fourth(U, V, W, tol=1.0)
    with pytest.raises(CollinearPoints):
        fourth(U, U, V)
    degenerate = fourth(U, U, V, allow_degenerate=True)
    assert np.max(np.abs(degenerate - V)) < 1e-14  # a = b gives c
    assert digest(fourth(c=V, a=U, b=U, tol=0.5, allow_degenerate=True)) == digest(degenerate)
    want = digest(gk.aaa_to_sss(0.5, 0.6, 0.7))
    assert digest(gk.aaa_to_sss(0.5, 0.6, 0.7, tol=1e-12)) == want
    assert digest(gk.aaa_to_sss(gamma=0.7, beta=0.6, alpha=0.5)) == want
    with pytest.raises(NoSuchTriangle, match="leaves no positive defect"):
        gk.aaa_to_sss(0.5, 0.6, 0.7, tol=3.0)


@pytest.mark.parametrize("name", DECLARED)
def test_pickles_by_reference_and_renders_under_help(name):
    fn = getattr(gk, name)
    assert pickle.loads(pickle.dumps(fn)) is fn
    text = pydoc.render_doc(fn, renderer=pydoc.plaintext)
    assert f"{name}{inspect.signature(fn)}" in text
    assert inspect.cleandoc(fn.__doc__).splitlines()[0] in text


@pytest.mark.parametrize("name, args", [
    ("einstein_add", (U, [1.5, 0.0, 0.0])), ("gamma", (np.array([U, [2.0, 0.0, 0.0]]),)),
    ("scalar_mul", (np.nan, U)), ("gamma_of_speed", (1.5,)), ("triangle_q", ("x", 1.0, 1.0)),
    ("classical_aberration", (0.0, 0.5, 0.5)), ("aberration_sweep", (0.5, 0.5, 1)),
    ("gyroparallelogram_fourth", (U, U, V)), ("triangle_from_vertices", (U, V, [0.0, 1.5, 0.0])),
])
def test_error_traceback_names_the_operation(name, args):
    with pytest.raises(GyrokinError) as info:
        getattr(gk, name)(*args)
    frames = traceback.extract_tb(info.value.__traceback__)
    assert name in [frame.name for frame in frames[1:]]
    # linecache holds the boundary's generated source, so the frame shows its line.
    assert all(frame.line for frame in frames if frame.name == name)
