"""Exception types shared across the library."""


class GyrokinError(Exception):
    """Base class for every error gyrokin raises on purpose.

    An error about one argument may carry its ``name``, and then its message
    starts with it.  An error about one row of a batch carries ``row`` too:
    the row's index over the batch axes, a tuple, 0-based.  The message names
    it after the argument, "u row 19999 has norm ...", or "u row (2, 1) ..."
    for two batch axes; ``row`` is None for a single vector.
    """

    def __init__(self, message, *, name=None, row=None):
        super().__init__(message)
        self.name, self.row = name, row

    def __str__(self):
        text = super().__str__()
        if self.row is not None:
            text = f"row {self.row[0] if len(self.row) == 1 else self.row} {text}"
        return text if self.name is None else f"{self.name} {text}"


class AdmissibilityError(GyrokinError, ValueError):
    """Velocity lies outside the open unit ball, or too close to its boundary."""


class DimensionError(GyrokinError, ValueError):
    """Operands live in spaces of different dimension, or their shapes do not broadcast."""


class OperandTypeError(GyrokinError, TypeError):
    """An object argument (a particle system, a gyrotriangle, ...) is not of its type."""


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


class ParticleFormatError(GyrokinError, ValueError):
    """A particle file line failed to parse; carries its line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
