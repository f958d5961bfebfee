"""Low-degree polynomial arithmetic with an exact rational track.

Coefficients are stored densely, lowest degree first. When every input
coefficient is an int or Fraction the exact track is kept alongside the float
one and survives arithmetic; any float input drops the result to float-only.
The exact track is what lets the reduction chain emit rational output and lets
tests assert equalities with no tolerance at all.

Only what the reduction needs lives here: ring operations, derivative,
evaluation, the quadratic discriminant and the perfect-square root. Degrees
are capped by the callers, not by the type. `scalar_sqrt` is the one rule
for whether a square root stays exact, here and in the modules above.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import DegreeError, DomainError, NotAPerfectSquare

Scalar = Union[int, float, Fraction]

_EXACT_TYPES = (int, Fraction)

REL_TOL = 1e-9  # a float this near 0, relative to the coefficients' scale, counts as 0


def scalar_sqrt(x: Scalar) -> Scalar:
    """sqrt(x): a Fraction when x is exact and a perfect square, else math.sqrt(x).

    This is the one rule that decides whether a square root keeps the exact
    track. An argument beyond float range raises DomainError.
    """
    if isinstance(x, _EXACT_TYPES) and x >= 0:
        num, den = x.as_integer_ratio()
        rn, rd = map(math.isqrt, (num, den))
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
    try:
        return math.sqrt(x)
    except OverflowError:
        raise DomainError("a square root's argument is beyond float range") from None


class Poly:
    """Dense univariate polynomial, lowest degree first."""

    __slots__ = ("values", "exact")

    values: tuple[float, ...]
    exact: tuple[Fraction, ...] | None

    def __init__(self, coeffs: Iterable[Scalar]):
        items = list(coeffs)
        if not items:
            items = [0]
        exact = all(isinstance(c, _EXACT_TYPES) for c in items)
        items = [(Fraction if exact else float)(c) for c in items]
        while len(items) > 1 and items[-1] == 0:
            items.pop()
        self.exact = tuple(items) if exact else None
        try:
            self.values = tuple(map(float, items))
        except OverflowError:
            raise DomainError("an exact coefficient is beyond float range") from None

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Index of the highest stored coefficient (0 for constants, incl. 0)."""
        return len(self.values) - 1

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.values[0] == 0.0

    def coefficient(self, i: int) -> Scalar:
        """Coefficient of s^i; exact when the polynomial is, 0 beyond degree."""
        if i < 0:
            raise IndexError(i)
        if self.exact is not None:
            return self.exact[i] if i <= self.degree else Fraction(0)
        return self.values[i] if i <= self.degree else 0.0

    # -- ring ops -----------------------------------------------------------

    def _coeffs(self):
        return self.exact if self.exact is not None else self.values

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._coeffs(), other._coeffs()
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self._coeffs()])

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            a, b = self._coeffs(), other._coeffs()
            out: list = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return Poly(out)
        return Poly([c * other for c in self._coeffs()])

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        c = self._coeffs()
        if len(c) == 1:
            return Poly([c[0] * 0])
        return Poly([i * c[i] for i in range(1, len(c))])

    def __call__(self, x: Scalar) -> Scalar:
        # both exact stays rational; otherwise floats from the first step, signed zeros included
        acc: Scalar = 0 if self.exact is not None and isinstance(x, _EXACT_TYPES) else 0.0
        for c in reversed(self._coeffs()):
            acc = acc * x + c
        return acc

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def quad_discriminant(p: Poly) -> Scalar:
    """b^2 - 4ac for p = a s^2 + b s + c; exact when p is."""
    if p.degree > 2:
        raise DegreeError(f"discriminant needs degree <= 2, got {p.degree}")
    a, b, c = p.coefficient(2), p.coefficient(1), p.coefficient(0)
    return b * b - 4 * a * c


def perfect_square_root(p: Poly) -> Poly:
    """Linear q with q*q = p, for quadratics that are perfect squares.

    Exact polynomials must have an exactly zero discriminant; float ones are
    accepted when |disc| <= REL_TOL * max(1, ||p||_inf)^2. The root is
    normalized to a non-negative leading coefficient. The result stays exact
    only when the needed square roots are rational; otherwise it is
    float-backed even for exact input.

    Raises NotAPerfectSquare for a nonzero discriminant, a negative leading
    coefficient, or a negative constant term.
    """
    if p.degree > 2:
        raise DegreeError(f"square root needs degree <= 2, got {p.degree}")
    a, b, c = (p.coefficient(i) for i in (2, 1, 0))
    # the exact track is the float one at zero tolerance
    scale = 0 if p.is_exact else max(1.0, max(abs(v) for v in p.values))
    disc = quad_discriminant(p)
    if abs(disc) > REL_TOL * scale * scale:
        raise NotAPerfectSquare(f"discriminant {disc} != 0" if p.is_exact
                                else f"discriminant {disc:g} exceeds tolerance")
    if a > 0:
        sa = scalar_sqrt(a)
        return Poly([b / (2 * sa), sa])
    if a < 0:
        raise NotAPerfectSquare("negative leading coefficient")
    # a == 0 leaves b within tolerance of 0 (disc = b^2), so p is the constant c
    if c < 0:
        if c < -REL_TOL * scale:
            raise NotAPerfectSquare("negative constant")
        c = 0.0  # float rounding just below zero
    return Poly([scalar_sqrt(c)])


def _fmt_coeff(c: Scalar) -> str:
    if isinstance(c, Fraction):
        return str(c)
    return f"{c:.15g}"


def format_poly(p: Poly, var: str = "s") -> str:
    """Human-readable descending-order rendering, rational when exact."""
    coeffs = p._coeffs()
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0 and len(coeffs) > 1:
            continue
        mag = -c if c < 0 else c
        if i == 0:
            body = _fmt_coeff(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            if mag == 1:
                body = power
            else:
                cs = _fmt_coeff(mag)
                # parenthesize p/q next to a variable so "9/4x" can't misread
                if isinstance(mag, Fraction) and mag.denominator != 1:
                    cs = f"({cs})"
                body = f"{cs}{power}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"
