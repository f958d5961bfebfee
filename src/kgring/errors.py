"""Exception types shared across the package, and its integer- and real-argument rules."""

import math
from fractions import Fraction


class SolverError(Exception):
    """Base class for everything this package raises on purpose."""


class DegreeError(SolverError):
    """Polynomial degree outside what an operation supports."""


class NotAPerfectSquare(SolverError):
    """Quadratic has no polynomial square root (within tolerance, if float)."""


class NoRealK(SolverError):
    """Zero-discriminant condition has no real root, or degenerates to 0 = 0."""


class NoPhysicalBranch(SolverError):
    """No sign branch yields a decreasing tau."""


class UnclassifiedSigma(SolverError):
    """sigma does not match any of the three solvable root patterns."""


class UnboundEnergy(SolverError):
    """|energy| >= mass, outside the discrete spectrum."""


class ComplexU(SolverError):
    """Ring-strength radicand negative: no real angular solution."""


class NoBoundState(SolverError):
    """Potential cannot bind (e.g. zero radial coupling), or no level found."""


class NoConvergence(SolverError):
    """Iteration budget exhausted without meeting tolerance."""


class GridTooCoarse(SolverError):
    """Numeric check cannot certify the requested tolerance on this grid."""


class DomainError(SolverError, ValueError):
    """Argument outside a function's mathematical domain."""


class DegeneracyWarning(UserWarning):
    """Two equally admissible branches; the conventional one was chosen."""


def check_int(name: str, value, least: int | None = None) -> None:
    """DomainError naming `name` unless `value` is an int, not a bool, and at
    least `least` where given: every count, degree and quantum number."""
    if type(value) is bool or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an int{bound}, got {value!r}")


def check_real(name: str, value, least=None, above=None) -> None:
    """DomainError naming `name` unless `value` is an int (not a bool), a
    Fraction or a float whose float is finite, and at least `least` or above
    `above` where given: every energy, strength, tolerance and parameter."""
    if type(value) is bool or not isinstance(value, (int, float, Fraction)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:  # ints and Fractions are finite, but every solver needs their float
        finite = math.isfinite(value)
    except OverflowError:
        raise DomainError(f"{name} is beyond float range") from None
    if not (finite and (least is None or value >= least) and (above is None or value > above)):
        bound = "" if least is None else f" and >= {least}"
        bound += "" if above is None else f" and > {above}"
        raise DomainError(f"{name} must be finite{bound}, got {value}")
