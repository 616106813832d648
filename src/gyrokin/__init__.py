"""Relativistic velocity algebra on the unit ball.

Einstein velocity addition with its gyration-based algebraic laws, the
gyrovector-space geometry it generates (scaling, gyrolines, gyromidpoints,
gyroparallelograms, the ball metric), gyrotrigonometry, classical and
relativistic aberration, and invariant-mass bookkeeping for particle systems.

All velocities are dimensionless fractions of c; physical units appear only
at the CLI boundary.
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
from .space import (
    RootedGyrovector,
    are_gyrocollinear,
    equivalent,
    gyrodistance,
    gyroline_point,
    gyromidpoint,
    gyroparallelogram_fourth,
    gyrovector_between,
    metric_tensor,
    scalar_mul,
    translate_to,
    triangle_area,
)
from .trig import (
    Gyrotriangle,
    RightTriangleReport,
    aaa_to_sss,
    gyroangle,
    law_of_gyrosines_ratios,
    right_triangle_relations,
    sss_to_aaa,
    triangle_from_angles,
    triangle_from_sides,
    triangle_from_vertices,
    triangle_q,
)
from .aberration import (
    ARCSEC_PER_RAD,
    AberrationResult,
    aberration_scene,
    aberration_sweep,
    classical_aberration,
    classical_aberration_inv,
    classical_matched_p_e,
    relativistic_aberration,
    relativistic_aberration_inv,
    relativistic_matched_p_e,
    stellar_aberration,
    stellar_aberration_inv,
)
from .mass import (
    MassDecomposition,
    Particle,
    ParticleFormatError,
    ParticleSystem,
    boost,
    collide_and_stick,
    decompose,
    gamma_rel_minus_1,
    parse_particles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
