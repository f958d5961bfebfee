"""Finite-difference cross-checks for the separated equations.

Everything here is re-derived from the differential equations themselves:
three-point (radial) and factored cell-centred (polar) discretizations,
Sturm-count eigenvalue location, and one Richardson ladder (`_ladder`) over
levels whose cells double, in the error orders each scheme is known to
have: h^2, h^4, ... plus the fractional orders that the ODE's indicial
exponents put below 4. None of the closed forms from `bound_states` or the
reduction machinery from `nu` is used, so agreement between the two routes
is evidence, not tautology.

Radial: -u'' + (lam/r^2 - A(eps)/r) u = (eps^2 - mass^2) u on (0, r_max) with
Dirichlet walls, A(eps) = c(eps) |alpha|, solved for eps as the energy where
the (N+1)-th eigenvalue of the FD matrix crosses eps^2 - mass^2; one pivot
sweep per probe energy, no eigenvectors; r_max follows from the problem's
own length scale. For u ~ r^(l+1), l(l+1) = lam, the scheme's leading error
is h^(2l+1) when 2l + 1 = sqrt(1 + 4 lam) lies in (1, 2), and h^2 otherwise.

Polar: -( (1-x^2) f' )' + (m^2 + beta_eff + gamma_eff x)/(1-x^2) f
= lam f on (-1, 1). Both endpoints are regular-singular with indicial
exponents sqrt(m^2 + beta_eff +- gamma_eff)/2 (x -> +-1), which can be small
enough to ruin a plain second-order scheme. Writing f = phi g with phi the
product of those endpoint powers leaves a problem for g with a smooth
solution and natural ends, which a cell-centred scheme with exactly
integrated weight moments solves to second order in h (Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993), with further terms h^(2+2a) and
h^(2+2b) from the endpoint powers. Its grid is sized by the equation, not by
`GridSpec.points`: a coarse base that grows with |m| and n, then halvings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ComplexU, DomainError, GridTooCoarse, NoBoundState, check_int
from .kernels import as_kernel_off_sq, bisect, count_below, eigenvalue_indexed, within_bounds

if TYPE_CHECKING:  # only the parameter bundle's attributes are used
    from .bound_states import PotentialParams


@dataclass(frozen=True)
class GridSpec:
    """Grid controls shared by both checks.

    points: radial interior nodes at the coarsest level (halved h per
        refinement), in a box the problem's length scale sets. The polar
        check sizes its own base grid from m and n (see
        `angular_numeric_lambda`).
    refinement: extra halved-h levels used for extrapolation; the polar
        ladder always has three levels more, and neither route certifies a
        tolerance at refinement 0.
    """

    points: int = 4000
    refinement: int = 2

    def __post_init__(self):
        check_int("points", self.points, 100)
        check_int("refinement", self.refinement, 0)


def _extrapolate(vals: Sequence[float], orders: Sequence[float]) -> list[float]:
    """Richardson over levels whose cells double; the stage diagonal.

    Stage s removes the error term h^orders[s-1], dividing by 2^p - 1; diag[-1]
    is the final estimate and diag[-1] - diag[-2] the last applied correction.
    """
    est = list(vals)
    diag = [est[-1]]
    for p in orders[:len(vals) - 1]:
        f = 2.0 ** p
        est = [(f * est[i + 1] - est[i]) / (f - 1.0) for i in range(len(est) - 1)]
        diag.append(est[-1])
    return diag


def _orders(count: int, fractional: Sequence[float]) -> list[float]:
    """The `count` lowest error orders: 2, 4, 6, ... and the given fractional ones, each once."""
    return sorted({*fractional, *(2.0 * k for k in range(1, count + 1))})[:count]


def _ladder(level: Callable[[int, tuple | None], float], sizes: Sequence[int],
            fractional: Sequence[float], tol: float | None, refinement: int,
            scale: Callable[[float], float]) -> float:
    """Both routes' ladder: guided levels, extrapolation, certification.

    `level(size, bounds)` solves one level; each after the first probes only
    inside bounds verified around the coarser level's value, which moves it
    no bit. The levels are extrapolated in `_orders` with `fractional`. With
    `tol` given, certification needs refinement >= 1, and the last
    correction, relative to scale(estimate), stands in for the error that
    the known orders leave: it must fit tol, or GridTooCoarse is raised.
    """
    vals: list[float] = []
    for size in sizes:
        # the coarser level's value, give or take its last move
        move = abs(vals[-1] - vals[-2]) if len(vals) > 1 else 0.0
        vals.append(level(size, (vals[-1] - move, vals[-1] + move) if vals else None))
    diag = _extrapolate(vals, _orders(len(vals) - 1, fractional))
    if tol is not None:
        if refinement < 1:
            raise GridTooCoarse("cannot certify a tolerance without refinement; raise refinement")
        drift = abs(diag[-1] - diag[-2]) / scale(diag[-1])
        if drift > tol:
            raise GridTooCoarse(f"last extrapolation correction {drift:.2e} (scaled) exceeds "
                                f"tol = {tol:.2e}")
    return diag[-1]


# the finest radial level's point limit; a level peaks at about 104 bytes a
# point, so this is about the polar limit's memory (`_MAX_POLAR_CELLS`)
_MAX_RADIAL_POINTS = 1 << 21


def radial_numeric_energy(
    params: "PotentialParams",
    lam: float,
    N: int,
    grid: GridSpec = GridSpec(),
    tol: float | None = None,
) -> float:
    """Energy of the N-th radial level at separation constant lam.

    The box is (0, 80 n'^2 / ((eps0 + mass) c |alpha|)), n' = N + l + 1 and
    eps0 the nonrelativistic level; only resolution depends on it. Each
    level of the ladder (`_ladder`) bisects the count predicate's crossing
    inside (-mass, mass) to the grid's own accuracy. Level 0 takes no
    guess: a grid 16 times coarser lands about 1e-4 mass from it, so its
    probes would cost more than the dozen they save. The levels are
    extrapolated in h^r with r = sqrt(1 + 4 lam) where 1 < r < 2 (the
    u ~ r^(l+1) term; at lam = 0 it vanishes), then h^2, h^4, ... With `tol`
    given, certifies the last correction relative to mass or raises
    GridTooCoarse. A ladder whose finest level would exceed
    `_MAX_RADIAL_POINTS` points raises DomainError before any level is built.
    """
    check_int("N", N, 0)
    lam = float(lam)
    if lam < 0.0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    mass = float(params.mass)
    strength = params.coupling_factor * abs(float(params.alpha))
    if strength == 0.0:
        raise NoBoundState("alpha = 0: nothing binds radially")

    r = math.sqrt(1.0 + 4.0 * lam)  # 2l + 1
    npr_est = N + 0.5 * (r - 1.0) + 1.0
    eps0 = max(mass * (1.0 - strength * strength / (2.0 * npr_est * npr_est)), -0.9 * mass)
    scale = (eps0 + mass) * strength  # underflowing: _radial_level finds no float grid
    r_max = 80.0 * npr_est * npr_est / scale if scale > 0.0 else math.inf
    sizes = [(grid.points + 1) * 2 ** j - 1 for j in range(grid.refinement + 1)]  # h halves
    if sizes[-1] > _MAX_RADIAL_POINTS:
        raise DomainError(f"points {grid.points} and refinement {grid.refinement} need "
                          f"{sizes[-1]} radial points, over {_MAX_RADIAL_POINTS}")
    return _ladder(partial(_radial_level, mass, strength, lam, N, r_max), sizes,
                   [r] if 1.0 < r < 2.0 else [], tol, grid.refinement, lambda v: mass)


def _radial_level(
    mass: float, strength: float, lam: float, N: int, r_max: float, npts: int, bounds=None
) -> float:
    h = r_max / (npts + 1)
    inv_h2 = (1.0 / h) * (1.0 / h)
    if not sys.float_info.min <= inv_h2 * inv_h2 < math.inf:
        # an extreme length scale (a vanishing coupling or mass) leaves no float grid
        raise DomainError(f"radial step h = {h:.3e} (r_max = {r_max:.3e}) "
                          f"puts 1/h^4 outside float range")
    r = h * np.arange(1, npts + 1)
    dbase = 2.0 / (h * h) + lam / (r * r)
    dlin = -strength / r
    off_sq = as_kernel_off_sq(np.full(npts - 1, 1.0 / h ** 4))

    def below_level(eps: float) -> bool:
        # T(eps) has diagonal dbase + (eps+mass)*dlin; the N-th eigenvalue
        # sits above the target eps^2 - mass^2 exactly while eps is below
        # the true level
        target = eps * eps - mass * mass
        return count_below(dbase + (eps + mass) * dlin, off_sq, target) <= N

    lo, hi = -mass * (1.0 - 1e-9), mass * (1.0 - 1e-9)
    below = below_level if bounds is None else within_bounds(below_level, lo, hi, bounds, mass)
    # the predicate is monotone in eps: one true -> false step, or none
    if not below(lo) or below(hi):
        raise NoBoundState(f"no level crossing for N = {N} inside (-mass, mass)")
    return bisect(below, lo, hi, mass)


# the finest polar level's cell limit; a level peaks at about 190 bytes a cell
_MAX_POLAR_CELLS = 1 << 20


def angular_numeric_lambda(
    beta_eff: float,
    gamma_eff: float,
    m: int,
    n: int,
    grid: GridSpec = GridSpec(),
    tol: float | None = None,
) -> float:
    """n-th eigenvalue of the polar equation at fixed ring strengths.

    The endpoint exponents a (x = +1) and b (x = -1) come from the indicial
    equation of the ODE; each level discretises the factored problem for g
    (see `_angular_level`). Level 0 has 100 cells times ceil(max(sqrt|m|,
    n + 1) / 4), since the mode narrows like 1/sqrt|m| and g has n nodes;
    `grid.refinement` + 3 levels follow, the cells doubling each time, and
    are extrapolated (`_ladder`) in h^2, then h^(2+2b) and h^(2+2a) where
    they lie between 2 and 4, then h^4, h^6, ... Finer grids would only add
    rounding, which grows like 1/h^2. Each finer level passes the coarser
    level's value to `eigenvalue_indexed` as bounds, which saves sweeps and
    changes no bit. With `tol` given, certifies the last extrapolation
    correction relative to max(1, |lam|) or raises GridTooCoarse.
    """
    check_int("m", m)
    check_int("n", n, 0)
    beta_eff, gamma_eff = float(beta_eff), float(gamma_eff)
    mm = m * m + beta_eff
    if mm < abs(gamma_eff):
        raise ComplexU(f"m^2 + beta_eff = {mm} < |gamma_eff| = {abs(gamma_eff)}")
    base = 100 * math.ceil(max(math.sqrt(abs(m)), n + 1) / 4)
    levels = grid.refinement + 3
    if base << (levels - 1) > _MAX_POLAR_CELLS:
        raise DomainError(f"m = {m}, n = {n} and refinement {grid.refinement} need "
                          f"{base << (levels - 1)} polar cells, over {_MAX_POLAR_CELLS}")

    # f ~ (1 -+ x)^e at x -> +-1 with e^2 = (m^2 + beta_eff +- gamma_eff) / 4
    a = 0.5 * math.sqrt(mm + gamma_eff)
    b = 0.5 * math.sqrt(mm - gamma_eff)
    fractional = [p for p in (2.0 + 2.0 * a, 2.0 + 2.0 * b) if 2.0 < p < 4.0]
    return _ladder(partial(_angular_level, mm, gamma_eff, a, b, n),
                   [base << j for j in range(levels)], fractional, tol, grid.refinement,
                   lambda v: max(1.0, abs(v)))


def _polar_q(mm: float, gamma_eff: float, x):
    """q of the polar equation -((1 - x^2) f')' + q f = lam f."""
    return (mm + gamma_eff * x) / (1.0 - x * x)


def _log_power_moments(cells: int, h: float, e: float) -> np.ndarray:
    """log of the integrals of t^e over [(j - 1) h, j h], j = 1..cells.

    Logs keep the moments of large exponents (large |m|) in range, and
    expm1/log1p keep the interior cells free of cancellation.
    """
    k = e + 1.0
    j = np.arange(1, cells + 1, dtype=float)
    tail = np.log(-np.expm1(k * np.log1p(-1.0 / j[1:])))  # the first cell's is log 1
    return k * np.log(h * j) - math.log(k) + np.concatenate(([0.0], tail))


def _angular_level(
    mm: float, gamma_eff: float, a: float, b: float, n: int, cells: int, bounds=None
) -> float:
    """n-th eigenvalue of the factored polar problem on `cells` equal cells.

    `cells` is even (`angular_numeric_lambda` passes multiples of 100), so
    x = 0 is a face and every cell lies in one half. With f = phi g,
    phi = (1 - x)^a (1 + x)^b, the problem for g is
    -(p phi^2 g')' + c phi^2 g = lam phi^2 g with p = 1 - x^2 and
    c = q - (p phi')'/phi. p phi^2 vanishes at both ends, so they are
    natural (flux-free) and need no wall. Cell-centred: p phi^2 on the faces,
    c pointwise at the centres, and the weight phi^2 as cell moments whose
    singular factor, (1 - x)^(2a) on the right half and (1 + x)^(2b) on the
    left, is integrated exactly, the other factor taken at the centre. Both
    p phi^2 and the weight are held as logs; only their ratios, entries of
    the symmetrized matrix, are formed.
    """
    h = 2.0 / cells
    # centres and inner faces, placed so that x -> -x mirrors them exactly
    x = h * (np.arange(cells) - 0.5 * (cells - 1))
    faces = h * (np.arange(1, cells) - 0.5 * cells)
    log_flux = (1.0 + 2.0 * a) * np.log1p(-faces) + (1.0 + 2.0 * b) * np.log1p(faces)

    left = 2.0 * a * np.log1p(-x) + _log_power_moments(cells, h, 2.0 * b)
    right = 2.0 * b * np.log1p(x) + _log_power_moments(cells, h, 2.0 * a)[::-1]
    log_w = np.where(x < 0.0, left, right)
    log_w -= math.log(h)

    # phi'/phi and its derivative; (p phi')'/phi = p' s + p (s^2 + s')
    s = b / (1.0 + x) - a / (1.0 - x)
    ds = -b / (1.0 + x) ** 2 - a / (1.0 - x) ** 2
    p = 1.0 - x * x
    c = _polar_q(mm, gamma_eff, x) + 2.0 * x * s - p * (s * s + ds)

    ends = np.concatenate(([-np.inf], log_flux, [-np.inf]))  # no flux through x = +-1
    diag = (np.exp(ends[:-1] - log_w) + np.exp(ends[1:] - log_w)) / (h * h) + c
    off = -np.exp(log_flux - 0.5 * (log_w[:-1] + log_w[1:])) / (h * h)
    return eigenvalue_indexed(diag, off, n, bounds=bounds)


def ode_residual(f, xs, coeff: Callable[[np.ndarray], np.ndarray]) -> float:
    """Normalized defect of f'' + coeff(x) f = 0 on a uniform sample.

    max interior |f''_FD + coeff f| * (window length)^2 / max |f|: a
    dimensionless number that shrinks fourfold when h halves over the same
    window for a true solution. `coeff` is called once, on the array of
    interior abscissae (a scalar result serves them all).
    """
    fv = np.asarray(f, dtype=float)
    xv = np.asarray(xs, dtype=float)
    if fv.shape != xv.shape or fv.ndim != 1 or fv.size < 3:
        raise DomainError("need matching 1-d samples with at least 3 points")
    steps = np.diff(xv)
    h = float(steps[0])
    if h <= 0.0 or np.max(np.abs(steps - h)) > 1e-9 * abs(h):
        raise DomainError("sample grid must be uniform and increasing")
    scale = float(np.max(np.abs(fv)))
    if scale == 0.0:
        return 0.0
    c = np.asarray(coeff(xv[1:-1]), dtype=float)
    res = (fv[:-2] - 2.0 * fv[1:-1] + fv[2:]) / (h * h) + c * fv[1:-1]
    window = float(xv[-1] - xv[0])
    return float(np.max(np.abs(res)) * window * window / scale)
