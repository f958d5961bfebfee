"""Finite-difference cross-checks for the separated equations.

Everything here is re-derived from the differential equations themselves:
three-point (radial) and flux-form finite-volume (polar) discretizations,
Sturm-count eigenvalue location, and order-aware Richardson extrapolation
over exact grid halvings. None of the closed forms from `bound_states` or the
reduction machinery from `nu` is used, so agreement between the two routes is
evidence, not tautology.

Radial: -u'' + (lam/r^2 - A(eps)/r) u = (eps^2 - mass^2) u on (0, r_max) with
Dirichlet walls, A(eps) = c(eps) |alpha|, solved for eps as the energy where
the (N+1)-th eigenvalue of the FD matrix crosses eps^2 - mass^2; one pivot
sweep per probe energy, no eigenvectors.

Polar: -( (1-x^2) f' )' + (m^2 + beta_eff + gamma_eff x)/(1-x^2) f
= lam f on (-1, 1). Endpoints are regular-singular with indicial exponent
nu = sqrt(m^2 + beta_eff -+ gamma_eff)/2 (x -> -+1): a positive exponent gets a
Dirichlet wall inset by `margin`; a zero exponent is a natural flux-free
boundary kept on the grid with a half cell. The FD eigenvalue error scales as
h^(2 nu) when 2 nu < 2, so those exponents join the extrapolation orders and
the refinement depth is raised when one of them is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import ComplexU, DomainError, GridTooCoarse, NoBoundState
from .kernels import as_kernel_array, bisect, count_below, eigenvalue_indexed, within_bounds

if TYPE_CHECKING:  # only the parameter bundle's attributes are used
    from .bound_states import PotentialParams


@dataclass(frozen=True)
class GridSpec:
    """Grid controls shared by both checks.

    points: interior nodes at the coarsest level (halved h per refinement).
    refinement: extra halved-h levels used for extrapolation.
    r_max: radial box; None picks one from the problem's own length scale.
    margin: inset of the polar Dirichlet walls from singular endpoints.
    """

    points: int = 4000
    refinement: int = 2
    r_max: float | None = None
    margin: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.points, int) or self.points < 100:
            raise DomainError(f"points must be an int >= 100, got {self.points!r}")
        if not isinstance(self.refinement, int) or self.refinement < 0:
            raise DomainError(f"refinement must be an int >= 0, got {self.refinement!r}")
        if self.r_max is not None and not float(self.r_max) > 0.0:
            raise DomainError(f"r_max must be positive, got {self.r_max}")
        if not 0.0 < float(self.margin) < 0.1:
            raise DomainError(f"margin must be in (0, 0.1), got {self.margin}")


def _extrapolate(vals: Sequence[float], orders: Sequence[float]) -> list[float]:
    """Richardson over exact h-halvings; returns the stage diagonal.

    Stage s has the first s entries of `orders` eliminated; diag[-1] is the
    final estimate and diag[-1] - diag[-2] the last applied correction.
    """
    est = list(vals)
    diag = [est[-1]]
    for p in orders[: len(vals) - 1]:
        f = 2.0 ** p
        est = [(f * est[i + 1] - est[i]) / (f - 1.0) for i in range(len(est) - 1)]
        diag.append(est[-1])
    return diag


def _certify(diag: Sequence[float], tol: float | None, scale: float, refinement: int) -> None:
    if tol is None:
        return
    if refinement < 1:
        raise GridTooCoarse("cannot certify a tolerance without refinement; raise refinement")
    drift = abs(diag[-1] - diag[-2]) / scale
    if drift > 10.0 * tol:
        raise GridTooCoarse(
            f"last extrapolation correction {drift:.2e} (scaled) exceeds 10 * tol = {10 * tol:.2e}"
        )


def _level_points(points: int, level: int) -> int:
    # (points+1)*2^level - 1 interior nodes halves h exactly at each level
    return (points + 1) * 2 ** level - 1


def radial_numeric_energy(
    params: "PotentialParams",
    lam: float,
    N: int,
    grid: GridSpec = GridSpec(),
    tol: float | None = None,
) -> float:
    """Energy of the N-th radial level at separation constant lam.

    On each refinement level, finds the cell of 65 edges across (-mass, mass)
    where the count predicate flips, by bisecting the edges by index, then
    bisects the cell to the grid's own accuracy; finer levels probe only
    inside bounds verified around the coarser level's value, which moves
    them no bit. Then extrapolates in h^2, h^4, ... With `tol` given,
    certifies that the last correction is consistent with that tolerance
    (relative to mass) or raises GridTooCoarse.
    """
    if not isinstance(N, int) or N < 0:
        raise DomainError(f"N must be a non-negative int, got {N!r}")
    lam = float(lam)
    if lam < 0.0:
        raise DomainError(f"lam must be non-negative, got {lam}")
    mass = float(params.mass)
    strength = params.coupling_factor * abs(float(params.alpha))
    if strength == 0.0:
        raise NoBoundState("alpha = 0: nothing binds radially")

    if grid.r_max is not None:
        r_max = float(grid.r_max)
    else:
        # box from the problem's own (nonrelativistic) length scale; only
        # resolution depends on this, not the answer
        l_est = 0.5 * (math.sqrt(1.0 + 4.0 * lam) - 1.0)
        npr_est = N + l_est + 1.0
        eps0 = max(mass * (1.0 - strength * strength / (2.0 * npr_est * npr_est)), -0.9 * mass)
        r_max = 80.0 * npr_est * npr_est / ((eps0 + mass) * strength)

    vals: list[float] = []
    for j in range(grid.refinement + 1):
        npts = _level_points(grid.points, j)
        vals.append(_radial_level(mass, strength, lam, N, r_max, npts, _coarser(vals)))
    orders = [2.0 * (i + 1) for i in range(grid.refinement)]
    diag = _extrapolate(vals, orders)
    _certify(diag, tol, mass, grid.refinement)
    return diag[-1]


def _coarser(vals: Sequence[float]):
    """Guessed bounds for the next finer level: the last value, give or take its last move."""
    if not vals:
        return None
    move = abs(vals[-1] - vals[-2]) if len(vals) > 1 else 0.0
    return (vals[-1] - move, vals[-1] + move)


def _radial_level(
    mass: float, strength: float, lam: float, N: int, r_max: float, npts: int, bounds=None
) -> float:
    h = r_max / (npts + 1)
    r = h * np.arange(1, npts + 1)
    dbase = 2.0 / (h * h) + lam / (r * r)
    dlin = -strength / r
    off_sq = as_kernel_array(np.full(npts - 1, 1.0 / h ** 4))

    def below_level(eps: float) -> bool:
        # T(eps) has diagonal dbase + (eps+mass)*dlin; the N-th eigenvalue
        # sits above the target eps^2 - mass^2 exactly while eps is below
        # the true level
        target = eps * eps - mass * mass
        return count_below(dbase + (eps + mass) * dlin, off_sq, target) <= N

    edges = np.linspace(-mass * (1.0 - 1e-9), mass * (1.0 - 1e-9), 65).tolist()
    below = below_level
    if bounds is not None:
        below = within_bounds(below_level, edges[0], edges[-1], bounds, 1e-14, mass)
    # the crossing cell among the edges, bisected by index: the predicate is
    # monotone in eps, so the edges hold one true -> false step
    i, j = 0, len(edges) - 1
    if not below(edges[i]) or below(edges[j]):
        raise NoBoundState(f"no level crossing for N = {N} inside (-mass, mass)")
    while j - i > 1:
        k = (i + j) // 2
        if below(edges[k]):
            i = k
        else:
            j = k
    return bisect(below, edges[i], edges[j], 1e-14, mass)


def angular_numeric_lambda(
    beta_eff: float,
    gamma_eff: float,
    m: int,
    n: int,
    grid: GridSpec = GridSpec(),
    tol: float | None = None,
) -> float:
    """n-th eigenvalue of the polar equation at fixed ring strengths.

    Each finer level passes the coarser level's value to `eigenvalue_indexed`
    as a bounds guess, which saves sweeps and changes no bit. With `tol`
    given, certifies the last extrapolation correction relative to
    max(1, |lam|) or raises GridTooCoarse.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise DomainError(f"m must be an int, got {m!r}")
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"n must be a non-negative int, got {n!r}")
    beta_eff, gamma_eff = float(beta_eff), float(gamma_eff)
    mm = m * m + beta_eff
    if mm < abs(gamma_eff):
        raise ComplexU(f"m^2 + beta_eff = {mm} < |gamma_eff| = {gamma_eff}")

    two_nu_m = math.sqrt(mm - gamma_eff)  # exponent at x = -1
    two_nu_p = math.sqrt(mm + gamma_eff)  # exponent at x = +1

    slow = sorted({e for e in (two_nu_m, two_nu_p) if 0.0 < e < 2.0 - 1e-12})
    levels = grid.refinement + 1
    if slow and min(slow) < 1.0:
        levels += 2  # h^(2 nu) with small nu needs extra stages to die
    orders: list[float] = []
    for e in slow:
        orders.append(e)
        if e < 1.0:
            orders.append(2.0 * e)  # first harmonic of a sub-h order
    k = 2.0
    while len(orders) < levels - 1:
        if all(abs(k - o) > 1e-9 for o in orders):
            orders.append(k)
        k += 1.0
    orders.sort()

    vals: list[float] = []
    for j in range(levels):
        npts = _level_points(grid.points, j)
        vals.append(
            _angular_level(mm, gamma_eff, two_nu_m, two_nu_p, n, npts, float(grid.margin), _coarser(vals))
        )
    diag = _extrapolate(vals, orders)
    _certify(diag, tol, max(1.0, abs(diag[-1])), grid.refinement)
    return diag[-1]


def _angular_level(
    mm: float,
    gamma_eff: float,
    two_nu_m: float,
    two_nu_p: float,
    n: int,
    npts: int,
    margin: float,
    bounds=None,
) -> float:
    dir_m = two_nu_m > 0.0
    dir_p = two_nu_p > 0.0
    xa = -1.0 + (margin if dir_m else 0.0)
    xb = 1.0 - (margin if dir_p else 0.0)
    cells = npts + 1
    h = (xb - xa) / cells
    nodes = xa + h * np.arange(cells + 1)
    j_lo = 1 if dir_m else 0
    j_hi = cells - 1 if dir_p else cells
    x = nodes[j_lo : j_hi + 1]

    face_r = 1.0 - (x + 0.5 * h) ** 2
    face_l = 1.0 - (x - 0.5 * h) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (mm + gamma_eff * x) / (1.0 - x * x)
    # at an on-grid endpoint (exponent 0) the numerator vanishes with the
    # denominator; the limit is -+ gamma_eff / 2
    if not dir_m:
        q[0] = gamma_eff / 2.0
    if not dir_p:
        q[-1] = -gamma_eff / 2.0

    diag = (face_r + face_l) / (h * h) + q
    off = -face_r[:-1] / (h * h)
    cell = np.full(x.shape[0], h)
    if not dir_m:
        diag[0] = face_r[0] / (h * h) + q[0]
        cell[0] = 0.5 * h
    if not dir_p:
        diag[-1] = face_l[-1] / (h * h) + q[-1]
        cell[-1] = 0.5 * h

    # generalized problem A f = lam diag(cell/h) f, symmetrized
    w = np.sqrt(cell / h)
    diag_s = diag / (w * w)
    off_s = off / (w[:-1] * w[1:])
    return eigenvalue_indexed(diag_s, off_s, n, bounds=bounds)


def ode_residual(f, xs, coeff: Callable[[float], float]) -> float:
    """Normalized defect of f'' + coeff(x) f = 0 on a uniform sample.

    max interior |f''_FD + coeff f| * (window length)^2 / max |f|: a
    dimensionless number that shrinks fourfold when h halves over the same
    window for a true solution.
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
    c = np.asarray([coeff(float(t)) for t in xv[1:-1]], dtype=float)
    res = (fv[:-2] - 2.0 * fv[1:-1] + fv[2:]) / (h * h) + c * fv[1:-1]
    window = float(xv[-1] - xv[0])
    return float(np.max(np.abs(res)) * window * window / scale)
