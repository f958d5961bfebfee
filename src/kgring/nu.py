"""Reduction of hypergeometric-type equations to classical polynomial data.

The input is a second-order equation in self-similar form,

    psi'' + (tau_t(s)/sigma(s)) psi' + (sigma_t(s)/sigma(s)^2) psi = 0,

with deg sigma <= 2 (nonzero), deg tau_t <= 1, deg sigma_t <= 2. Writing
psi = phi(s) y(s) with phi'/phi = pi(s)/sigma(s) and

    pi = (sigma' - tau_t)/2 +- sqrt(((sigma' - tau_t)/2)^2 - sigma_t + k sigma)

removes the first-derivative singularity whenever k makes the radicand a
perfect square (its s-discriminant vanishes, a quadratic condition in k).
The transformed equation sigma y'' + tau y' + lambda_bar y = 0 with
tau = tau_t + 2 pi and lambda_bar = k + pi' has polynomial solutions of
degree n exactly when

    lambda_bar = -n tau' - n(n-1)/2 sigma'',

which is the quantization rule everything downstream consumes. The number of
sigma's real roots is the family (none: Hermite, one: Laguerre, two: Jacobi),
and phi has a power of (s - r) at each root r. A branch is physical when
tau' < 0; among physical branches the bound-state chain also needs phi to be
an admissible weight factor (non-negative exponents at sigma's roots, an
integrable orthogonality weight there, and a decaying exponential part).

All algebra runs on `Poly`, so rational input yields rational k, pi, tau and
lambda_bar whenever the needed square roots are rational. Float input is held
to one tolerance, `polynomials.REL_TOL`.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegeneracyWarning,
    DegreeError,
    DomainError,
    NoPhysicalBranch,
    NoRealK,
    NotAPerfectSquare,
    UnclassifiedSigma,
    check_int,
)
from .polynomials import REL_TOL, Poly, Scalar, perfect_square_root, quad_discriminant, scalar_sqrt

_HALF = Fraction(1, 2)


class Family(enum.Enum):
    """Which classical family the polynomial solutions y_n belong to."""

    LAGUERRE = "laguerre"
    JACOBI = "jacobi"
    HERMITE = "hermite"


@dataclass(frozen=True)
class NUProblem:
    """The three coefficient polynomials of the self-similar form."""

    sigma: Poly
    tau_tilde: Poly
    sigma_tilde: Poly

    def __post_init__(self):
        if self.sigma.is_zero:
            raise DegreeError("sigma must be nonzero")
        if self.sigma.degree > 2:
            raise DegreeError(f"deg sigma = {self.sigma.degree} > 2")
        if self.tau_tilde.degree > 1:
            raise DegreeError(f"deg tau_tilde = {self.tau_tilde.degree} > 1")
        if self.sigma_tilde.degree > 2:
            raise DegreeError(f"deg sigma_tilde = {self.sigma_tilde.degree} > 2")

    def half_shift(self) -> Poly:
        """(sigma' - tau_tilde)/2, the polynomial part of every pi."""
        return (self.sigma.derivative() - self.tau_tilde) * _HALF

    def radicand(self, k: Scalar) -> Poly:
        """Quadratic under pi's square root for a given k.

        The one-pass `solution_chain` forms it without this method; `branches`
        uses it for the per-k reference build.
        """
        h = self.half_shift()
        return h * h - self.sigma_tilde + self.sigma * k


@dataclass(frozen=True)
class NUBranch:
    """One sign choice of pi for one root k of the discriminant condition."""

    k: Scalar
    sign: int
    pi: Poly
    tau: Poly
    lambda_bar: Scalar

    @property
    def tau_prime(self) -> Scalar:
        return self.tau.coefficient(1)

    @property
    def physical(self) -> bool:
        return self.tau_prime < 0


@dataclass(frozen=True)
class Quantization:
    """lambda_bar_n = constant + linear*n + quadratic*n^2."""

    constant: Scalar
    linear: Scalar
    quadratic: Scalar

    def evaluate(self, n: int) -> Scalar:
        check_int("polynomial degree", n, 0)
        try:
            return self.constant + self.linear * n + self.quadratic * n * n
        except OverflowError:  # a float rule at a degree beyond float range
            raise DomainError("lambda_bar_n is beyond float range at this degree") from None


@dataclass(frozen=True)
class PhiFactor:
    """phi as prod (s - root_i)^exponent_i * exp(rate2 s^2 + rate1 s)."""

    roots: tuple
    exponents: tuple
    rate_linear: Scalar
    rate_quadratic: Scalar


@dataclass(frozen=True)
class Chain:
    """A fully selected reduction: problem -> k -> branch -> eigenvalue rule.

    `branches` holds both sign choices for every candidate k, in candidate
    order with + before -; `branch` is the selected one among them.
    """

    problem: NUProblem
    family: Family
    candidates: tuple
    branches: tuple
    branch: NUBranch
    phi: PhiFactor
    quantization: Quantization

    def selects(self, b: NUBranch) -> bool:
        """Whether b is the selected branch; with pi = 0 (Legendre) both signs are."""
        return _identity(b) == _identity(self.branch)


def _identity(b: NUBranch) -> tuple:
    return float(b.k), b.pi.values  # the same pi at the same k is the same branch


def _quad_real_roots(d2: Scalar, d1: Scalar, d0: Scalar) -> list:
    """Real roots of d2 k^2 + d1 k + d0, exact when the inputs allow it.

    The exact track is the float one at zero tolerance; only the final pair
    differs, where floats take the cancellation-free form.
    """
    exact = all(isinstance(v, (int, Fraction)) for v in (d2, d1, d0))
    d2, d1, d0 = map(Fraction if exact else float, (d2, d1, d0))
    scale = 0 if exact else max(1.0, abs(d2), abs(d1), abs(d0))
    if abs(d2) <= REL_TOL * scale:
        if abs(d1) <= REL_TOL * scale:
            if abs(d0) <= REL_TOL * scale:
                raise NoRealK("discriminant condition degenerates to 0 = 0")
            raise NoRealK("discriminant condition is a nonzero constant")
        return [-d0 / d1]
    inner = d1 * d1 - 4 * d2 * d0
    if inner < 0:
        if inner < -REL_TOL * scale * scale:
            shown = inner if exact else format(inner, "g")
            raise NoRealK(f"discriminant of the k-condition is {shown} < 0")
        inner = 0.0  # float rounding just below zero
    if inner == 0:
        return [-d1 / (2 * d2)]
    try:
        s = scalar_sqrt(inner)
    except DomainError:
        raise DomainError("the k-condition's discriminant is beyond float range") from None
    if exact:
        return sorted({(-d1 - s) / (2 * d2), (-d1 + s) / (2 * d2)}, key=float)
    q = -(d1 + math.copysign(s, d1)) / 2.0
    return sorted({q / d2, d0 / q})


def _branch_table(problem: NUProblem) -> list:
    """(k, (b+, b-)) for each real k whose radicand is a perfect square, ascending.

    The radicand's s-discriminant is quadratic in k; each real root is kept
    only if the resulting radicand actually passes the perfect-square check
    (guards against cancellation noise on float input). The half shift and
    h^2 - sigma_tilde are formed once, and each k takes one square root.
    """
    h = problem.half_shift()
    base = h * h - problem.sigma_tilde
    disc2, disc1, disc0 = _k_discriminant_coeffs(base, problem.sigma)
    table = []
    for k in _quad_real_roots(disc2, disc1, disc0):
        try:
            q = perfect_square_root(base + problem.sigma * k)
        except NotAPerfectSquare:
            continue
        table.append((k, _pair(problem, h, k, q)))
    if not table:
        raise NoRealK("no k root survives the perfect-square check")
    return table


def _k_discriminant_coeffs(base: Poly, sigma: Poly):
    """Coefficients in k of disc_s(base + k sigma) = B(k)^2 - 4 A(k) C(k)."""
    a = Poly([base.coefficient(2), sigma.coefficient(2)])
    b = Poly([base.coefficient(1), sigma.coefficient(1)])
    c = Poly([base.coefficient(0), sigma.coefficient(0)])
    disc = b * b - a * c * 4
    return disc.coefficient(2), disc.coefficient(1), disc.coefficient(0)


def _pair(problem: NUProblem, h: Poly, k: Scalar, q: Poly) -> tuple[NUBranch, NUBranch]:
    """pi = h + q and pi = h - q at k, with their tau and lambda_bar."""
    out = []
    for sign, pi in ((1, h + q), (-1, h - q)):
        tau = problem.tau_tilde + pi * 2
        out.append(NUBranch(k=k, sign=sign, pi=pi, tau=tau, lambda_bar=k + pi.coefficient(1)))
    return tuple(out)


def branches(problem: NUProblem, k: Scalar) -> tuple[NUBranch, NUBranch]:
    """Both sign choices of pi at a given k, plus branch first.

    `solution_chain` builds its branches in one pass and does not call this;
    it is the per-k build that tests compare `Chain.branches` against.
    """
    q = perfect_square_root(problem.radicand(k))
    return _pair(problem, problem.half_shift(), k, q)


def select_physical(candidates: Sequence[NUBranch]) -> NUBranch:
    """The branch with decreasing tau; ties go to the larger lambda_bar.

    Raises NoPhysicalBranch when no candidate has tau' < 0. When more than one
    does, a DegeneracyWarning is emitted and the largest lambda_bar wins.
    """
    phys = [b for b in candidates if b.physical]
    if not phys:
        raise NoPhysicalBranch("no branch has tau' < 0")
    if len(phys) > 1:
        warnings.warn(
            "multiple branches have tau' < 0; taking the larger lambda_bar",
            DegeneracyWarning,
            stacklevel=2,
        )
        phys.sort(key=lambda b: float(b.lambda_bar), reverse=True)
    return phys[0]


def sigma_roots(problem: NUProblem) -> tuple:
    """Real roots of sigma, ascending, exact when the arithmetic allows: none
    for constant sigma, one for linear; a quadratic without two distinct real
    roots has no classical weight and raises UnclassifiedSigma."""
    sigma = problem.sigma
    if sigma.degree == 0:
        return ()
    a, b, c = (sigma.coefficient(i) for i in (2, 1, 0))
    if sigma.degree == 1:
        return (-c / b,)
    disc = quad_discriminant(sigma)
    if not disc > 0:
        raise UnclassifiedSigma(f"sigma discriminant {disc} is not positive")
    s = scalar_sqrt(disc)
    return tuple(sorted(((-b - s) / (2 * a), (-b + s) / (2 * a)), key=float))


_FAMILIES = (Family.HERMITE, Family.LAGUERRE, Family.JACOBI)


def classify(problem: NUProblem) -> Family:
    """Family of the polynomial solutions, from the number of sigma's real
    roots: Hermite for none, Laguerre for one, Jacobi for two."""
    return _FAMILIES[len(sigma_roots(problem))]


def quantization(problem: NUProblem, branch: NUBranch) -> Quantization:
    """Closed form lambda_bar_n = -n tau' - n(n-1) sigma''/2 = (c2 - tau') n - c2 n^2."""
    tau1 = branch.tau_prime
    c2 = problem.sigma.coefficient(2)
    return Quantization(constant=tau1 * 0, linear=-tau1 + c2, quadratic=-c2)


def phi_parameters(problem: NUProblem, branch: NUBranch) -> PhiFactor:
    """Decompose phi'/phi = pi/sigma into root exponents and exponential rates.

    At each simple root r of sigma the factor is (s - r)^(pi(r)/sigma'(r));
    what remains of pi/sigma after removing those poles integrates to the
    exponential part.
    """
    return _phi(problem, branch, sigma_roots(problem))


def _phi(problem: NUProblem, branch: NUBranch, roots: tuple) -> PhiFactor:
    """`phi_parameters` with sigma's roots already found."""
    pi, sigma = branch.pi, problem.sigma
    if not roots:  # Hermite: no pole, pi/sigma integrates to the exponent
        c0 = sigma.coefficient(0)
        return PhiFactor(roots=(), exponents=(), rate_linear=pi.coefficient(0) / c0,
                         rate_quadratic=pi.coefficient(1) / (2 * c0))
    dsigma = sigma.derivative()
    exps = tuple(pi(r) / dsigma(r) for r in roots)
    if len(roots) == 1:  # Laguerre: pi/sigma less the pole is pi'/sigma'
        c1 = sigma.coefficient(1)
        return PhiFactor(roots=roots, exponents=exps, rate_linear=pi.coefficient(1) / c1,
                         rate_quadratic=c1 * 0)
    zero = exps[0] * 0  # Jacobi: deg pi < deg sigma leaves no exponential part
    return PhiFactor(roots=roots, exponents=exps, rate_linear=zero, rate_quadratic=zero)


def _admissible(problem: NUProblem, branch: NUBranch, phi: PhiFactor) -> bool:
    """Weight-factor test on phi's roots: integrable weight, no negative exponents, decay."""
    if any(float(e) < -REL_TOL for e in phi.exponents):
        return False
    # the family weight rho solves (sigma rho)' = tau rho, so near a simple
    # root s0 of sigma it scales as (s - s0)^(tau(s0)/sigma'(s0) - 1);
    # integrability of rho demands tau(s0)/sigma'(s0) > 0
    dsigma = problem.sigma.derivative()
    for s0 in phi.roots:
        slope = float(dsigma(s0))
        if slope == 0.0 or float(branch.tau(s0)) / slope <= REL_TOL:
            return False
    rq, rl = float(phi.rate_quadratic), float(phi.rate_linear)
    if not phi.roots:  # Hermite
        return rq < 0.0
    if len(phi.roots) == 1:  # Laguerre
        # domain runs from sigma's root toward +inf when sigma' > 0, else -inf
        direction = 1.0 if float(problem.sigma.coefficient(1)) > 0 else -1.0
        return direction * rl < 0.0
    return True  # Jacobi: compact domain, no exponential part


def solution_chain(problem: NUProblem) -> Chain:
    """Pick the bound-state reduction among every k and sign choice.

    Each branch is built once, and `Chain.branches` keeps them all. tau' < 0
    alone does not single out a branch (typically each k owns one
    decreasing-tau branch), so the chain additionally requires phi to be an
    admissible weight factor; phi is computed once per decreasing-tau branch.
    Distinct survivors beyond the first trigger a DegeneracyWarning and the
    larger lambda_bar is kept, mirroring `select_physical`.

    Raises NoPhysicalBranch, listing every branch's tau', when none survives.
    """
    roots = sigma_roots(problem)
    table = _branch_table(problem)
    all_branches = tuple(b for _, pair in table for b in pair)
    found = {}
    for b in all_branches:
        if b.physical:
            phi = _phi(problem, b, roots)
            if _admissible(problem, b, phi):
                found.setdefault(_identity(b), (b, phi))
    if not found:
        raise NoPhysicalBranch("; ".join(
            f"k = {b.k}, sign {'+' if b.sign > 0 else '-'}: tau' = {b.tau_prime}"
            for b in all_branches))
    branch = select_physical([b for b, _ in found.values()])
    phi = next(p for b, p in found.values() if b is branch)
    return Chain(
        problem=problem,
        family=_FAMILIES[len(roots)],
        candidates=tuple(k for k, _ in table),
        branches=all_branches,
        branch=branch,
        phi=phi,
        quantization=quantization(problem, branch),
    )
