"""Exception types shared across the library."""


class GyrokinError(Exception):
    """Base class for every error gyrokin raises on purpose."""


class AdmissibilityError(GyrokinError, ValueError):
    """Velocity lies outside the open unit ball, or too close to its boundary."""


class DimensionError(GyrokinError, ValueError):
    """Operands live in spaces of different dimension."""


class NonFinite(GyrokinError, ValueError):
    """A scalar argument is NaN or infinite."""


class CollinearPoints(GyrokinError, ValueError):
    """Points lie on one gyroline where a non-degenerate figure is required."""


class DegenerateAngle(GyrokinError, ValueError):
    """An angle is undefined because one of its rays has (near-)zero length."""


# Aberration formulas break down at sin(theta) = 0 for the same reason a
# gyroangle degenerates; both names refer to the one condition.
AngleDegenerate = DegenerateAngle


class InvalidTriangle(GyrokinError, ValueError):
    """Side data does not describe a realizable gyrotriangle."""


class NoSuchTriangle(GyrokinError, ValueError):
    """Angle data does not describe a realizable gyrotriangle."""


class NotRightTriangle(GyrokinError, ValueError):
    """The gyroangle at vertex C is not a right angle."""
