"""Shared exception types.

Two families: ValueError subclasses signal bad inputs (caller mistakes,
rejected before any numerics run), ArithmeticError subclasses signal that a
computation could not reach its accuracy target.  The CLI maps the first
family to exit code 2 and the second to exit code 3.
"""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class ZeroR(ValueError):
    """The circulant parameter r must be nonzero for this operation."""


class ScalarParseError(ValueError):
    """A scalar string (integer, fraction, decimal or a+bi) failed to parse."""


class PrecisionExhausted(ArithmeticError):
    """The requested residual target is unreachable at the working precision."""


class DegenerateCase(ArithmeticError):
    """A closed-form expression is singular at the given parameters."""
