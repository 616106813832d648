"""Relativistic velocity algebra on the unit ball.

Einstein velocity addition with its gyration-based algebraic laws, the
gyrovector-space geometry it generates (scaling, gyrolines, gyromidpoints,
gyroparallelograms, the ball metric), gyrotrigonometry, classical and
relativistic aberration, and invariant-mass bookkeeping for particle systems.

All velocities are dimensionless fractions of c; physical units appear only
at the CLI boundary.

``import gyrokin`` loads the core: ``ball``, ``errors`` and ``gyro``.  The
composite modules ``space``, ``trig``, ``aberration`` and ``mass`` load
together the first time one of their names, or one of the modules, is read
from the package.  numpy is bound lazily (``ball.np``): its code runs the
first time the library reads a numpy name, so ``import gyrokin`` and the
CLI's float commands (``add``, ``sub``, ``coadd``, ``distance``, and
``triangle`` from sides or angles) do not run it.  A numpy imported before
gyrokin is the module gyrokin uses.
"""

__version__ = "0.1.0"

from .ball import BALL_MARGIN, MAX_NORM
from .errors import (
    AdmissibilityError,
    AngleDegenerate,
    CollinearPoints,
    DegenerateAngle,
    DimensionError,
    GyrokinError,
    InvalidTriangle,
    NonFinite,
    NoSuchTriangle,
    NotRightTriangle,
    OperandTypeError,
    ParticleFormatError,
)
from .gyro import (
    Gyration,
    add_speeds,
    coadd,
    coadd_via_gyration,
    cosub,
    einstein_add,
    einstein_sub,
    gamma,
    gamma_of_speed,
    gyrate,
    gyrate_definitional,
    left_sub,
    speed_of_gamma,
)

# The composite modules, in import order, and the public names each exports.
# Each depends on the core alone (ball, errors, gyro), never on another composite.
_COMPOSITES = {
    "space": ("RootedGyrovector", "are_gyrocollinear", "equivalent", "gyrodistance",
              "gyroline_point", "gyromidpoint", "gyroparallelogram_fourth",
              "gyrovector_between", "metric_tensor", "scalar_mul", "translate_to",
              "triangle_area"),
    "trig": ("Gyrotriangle", "RightTriangleReport", "aaa_to_sss", "gyroangle",
             "law_of_gyrosines_ratios", "right_triangle_relations", "sss_to_aaa",
             "triangle_from_angles", "triangle_from_sides", "triangle_from_vertices",
             "triangle_q"),
    "aberration": ("ARCSEC_PER_RAD", "AberrationResult", "aberration_scene",
                   "aberration_sweep", "classical_aberration", "classical_aberration_inv",
                   "classical_matched_p_e", "relativistic_aberration",
                   "relativistic_aberration_inv", "relativistic_matched_p_e",
                   "stellar_aberration", "stellar_aberration_inv"),
    "mass": ("MassDecomposition", "Particle", "ParticleSystem", "boost", "collide_and_stick",
             "decompose", "gamma_rel_minus_1", "parse_particles"),
}
_LAZY = {*_COMPOSITES, *(name for names in _COMPOSITES.values() for name in names)}

__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_LAZY})


def __getattr__(name):
    """Load the composite modules, bind their names here, and remove this hook.

    Without a module ``__getattr__``, every later read of a package name
    is a plain attribute read, which the interpreter can specialize.
    """
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    for module, names in _COMPOSITES.items():
        mod = importlib.import_module(f"{__name__}.{module}")
        globals().update((n, getattr(mod, n)) for n in names)
    globals().pop("__getattr__", None)
    return globals()[name]


def __dir__():
    """The package's names, with the composites' names before they load."""
    return sorted({*globals(), *__all__})
