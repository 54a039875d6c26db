"""Exception hierarchy, and the checkers every numeric input goes through.

Every error raised by the toolkit derives from IonOpticsError so callers
can catch one base class. The CLI maps subclasses to distinct exit codes.
"""

import math
import numbers
import sys


class IonOpticsError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(IonOpticsError):
    """An argument violates a documented precondition."""


def is_finite_real(value) -> bool:
    """Whether `value` is a real number within the float range, not a bool."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max)


def check_real(name: str, value, low=-math.inf, high=math.inf, closed=False):
    """`value` if it is a finite real number, not a bool, in (low, high), or
    in [low, high] if `closed`; else InvalidInputError naming it."""
    if not is_finite_real(value) or not (low <= value <= high if closed else low < value < high):
        ends = "[]" if closed else "()"
        domain = ("be finite" if (low, high) == (-math.inf, math.inf)
                  else f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}" if high < math.inf
                  else f"be finite and >= {low:g}" if closed
                  else "be positive and finite" if low == 0 else f"be finite and > {low:g}")
        raise InvalidInputError(f"{name} must {domain}, got {value!r}")
    return value


def check_count(name: str, value):
    """`value` if it is a positive integer, an int or an integral float within
    the float range but not a bool; else InvalidInputError naming it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 1 <= value <= sys.float_info.max or not float(value).is_integer()):
        raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_members(name: str, value, n: int) -> tuple:
    """The members of `value` as a tuple if it has exactly n; else
    InvalidInputError naming it."""
    try:
        members = tuple(value)
    except TypeError:
        members = ()
    if len(members) != n:
        raise InvalidInputError(f"{name} must have {n} members, got {value!r}")
    return members


class ScenarioError(IonOpticsError):
    """A scenario file failed to parse or validate."""


class ConvergenceError(IonOpticsError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SamplingError(IonOpticsError):
    """A grid is too coarse to represent the requested field."""


class PropagationWindowError(IonOpticsError):
    """A propagation distance would push the beam outside the safe grid window."""


class InvalidGeometryError(IonOpticsError):
    """An optical element does not overlap the simulation grid."""


class SingularConfigurationError(IonOpticsError):
    """A beam transform is degenerate (C q + D = 0)."""


class NoTirError(IonOpticsError):
    """Total internal reflection cannot occur for the given indices."""


class TrappedRayError(IonOpticsError):
    """The reflected ray exceeds the critical angle at the top surface."""


class InfeasibleDesignError(IonOpticsError):
    """No lens stack satisfies the design targets; message names the constraint."""


class FocusNotBracketedError(IonOpticsError):
    """The axial search window does not contain a width minimum."""
