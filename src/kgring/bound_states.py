"""Closed-form bound states in a ring-shaped Coulomb potential.

The potential is

    V(r, theta) = alpha/r + (beta + gamma cos theta) / (r^2 sin^2 theta),

and the relativistic spin-zero wave equation is taken with the scalar term
equal to the vector one, so the combination that survives in the separated
equations is c(eps) * V with the energy-dependent coupling
c(eps) = (eps + mass) * coupling_factor. The polar equation then yields an
effective angular momentum

    l_eff = n + B,   B = sqrt((m^2 + beta_eff + u)/2),
    u = sqrt((m^2 + beta_eff)^2 - gamma_eff^2),

generally non-integer, and the radial equation is Coulomb-like with
l -> l_eff, giving

    eps = mass * (n'^2 - q) / (n'^2 + q),   q = a^2/4,   n' = N + l_eff + 1,

where a is the Coulomb strength in c(eps) units. Because beta_eff and
gamma_eff depend on eps, the two closed forms are coupled; `solve_bound_state`
finds the fixed point by Steffensen (Aitken delta^2) steps, safeguarded by a
bisection over the feasible energy window (one evaluation suffices when
beta = gamma = 0). A level depends on (N, n, m) only through N + n and |m|,
since n' = (N + n + 1) + B; the solver computes n' in that order, so every
(N, n) with the same N + n gets the same energy to the last bit, and
`BoundState.on_level` hands one solve to each of them.

Sign convention: the level formula depends on alpha only through alpha^2 and
is derived for the attractive orientation, so the solver binds with strength
|alpha| (alpha = 0 cannot bind and raises NoBoundState).

Everything here reduces through `nu` and the reductions are cross-checked
against that engine in the tests; the separate `oracle` module re-derives the
numbers by finite differences with none of these formulas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ComplexU, DomainError, NoBoundState, NoConvergence, UnboundEnergy, check_int
from .nu import NUProblem
from .polynomials import Poly, Scalar, scalar_sqrt
from .special import jacobi_poly, laguerre_assoc


class Coupling(enum.Enum):
    """How the quoted V splits between the scalar and vector terms.

    HALVED: scalar = vector = V/2, so the separated equations carry
    (eps + mass) * V. FULL: scalar = vector = V, carrying twice that.
    """

    HALVED = "halved"
    FULL = "full"


@dataclass(frozen=True)
class PotentialParams:
    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    mass: Scalar
    coupling: Coupling = Coupling.HALVED

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "mass"):
            v = getattr(self, name)
            try:  # ints and Fractions are finite, but every solver needs their float
                finite = math.isfinite(v)
            except OverflowError:
                raise DomainError(f"{name} is beyond float range") from None
            if not finite:
                raise DomainError(f"{name} must be finite, got {v}")
        if not float(self.mass) > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")

    @property
    def coupling_factor(self) -> int:
        return 1 if self.coupling is Coupling.HALVED else 2

    def energy_coupling(self, eps: Scalar) -> Scalar:
        """c(eps) multiplying the potential in the separated equations."""
        return (eps + self.mass) * self.coupling_factor


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial node count N, polar degree n, azimuthal number m."""

    N: int
    n: int
    m: int

    def __post_init__(self):
        check_int("N", self.N, 0)
        check_int("n", self.n, 0)
        check_int("m", self.m)


@dataclass(frozen=True)
class AngularSolution:
    """Polar eigendata at given effective ring strengths."""

    m: int
    n: int
    beta_eff: Scalar
    gamma_eff: Scalar
    u: Scalar
    B: Scalar
    C: Scalar
    l_eff: Scalar

    @property
    def separation_lambda(self) -> Scalar:
        return self.l_eff * (self.l_eff + 1)


def _polar_root(m2: int, c: Scalar, beta: Scalar, gamma: Scalar) -> tuple[Scalar, Scalar]:
    """(u, B) of the polar equation at ring strengths c beta, c gamma, with u^2
    formed as (m^2 + c (beta - |gamma|)) (m^2 + c beta + c |gamma|): nothing
    cancels near the ComplexU edge, where the first factor turns negative.
    Exact inputs stay exact where the square roots are rational."""
    gabs = abs(gamma)
    gap = m2 + c * (beta - gabs)
    if gap < 0:
        raise ComplexU(f"m^2 + beta_eff - |gamma_eff| = {gap} < 0")
    mm = m2 + c * beta
    u = scalar_sqrt(gap * (mm + c * gabs))
    return u, scalar_sqrt((mm + u) / 2)


def _angular_solution(m: int, n: int, c: Scalar, beta: Scalar, gamma: Scalar) -> AngularSolution:
    """Polar eigendata at ring strengths beta_eff = c beta, gamma_eff = c gamma."""
    u, B = _polar_root(m * m, c, beta, gamma)
    gamma_eff = c * gamma
    # C via B C = |gamma_eff|/2, which dodges the cancellation in mm - u;
    # 0 <= C <= B, so C = 0 where (mm + u)/2 underflows and B = 0, and C = B
    # where the quotient rounds past B at the ComplexU edge (u = 0)
    C = min(abs(gamma_eff) / (2 * B), B) if gamma_eff != 0 and B != 0 else B * 0
    return AngularSolution(m, n, c * beta, gamma_eff, u, B, C, B + n)


def effective_l(m: int, beta_eff: Scalar, gamma_eff: Scalar, n: int) -> AngularSolution:
    """Effective angular momentum l_eff = n + B for the polar equation.

    Requires m^2 + beta_eff >= |gamma_eff| (else the root pair B, C turns
    complex and ComplexU is raised). Results stay exact for exact inputs
    whose square roots are rational.
    """
    check_int("m", m)
    check_int("n", n, 0)
    return _angular_solution(m, n, 1, beta_eff, gamma_eff)


def radial_energy(N: int, l_eff: Scalar, alpha: Scalar, mass: Scalar) -> Scalar:
    """Closed-form level of the Coulomb-like radial equation.

    `alpha` is the attraction strength in c(eps) units; only alpha^2 enters.
    Exact inputs give an exact rational energy.
    """
    check_int("N", N, 0)
    if float(l_eff) < 0.0:
        raise DomainError(f"l_eff must be non-negative, got {l_eff}")
    if not float(mass) > 0.0:
        raise DomainError(f"mass must be positive, got {mass}")
    npr = (N + 1) + l_eff
    q = alpha * alpha / 4
    return mass * (npr * npr - q) / (npr * npr + q)


def radial_nu_problem(params: PotentialParams, eps: Scalar, lam: Scalar) -> NUProblem:
    """Radial equation at energy eps and separation constant lam.

    sigma = r, tau_t = 0, sigma_t = -(mass^2 - eps^2) r^2 - c(eps) alpha r - lam,
    transcribing the potential's alpha with its stored sign (attraction means
    a positive linear coefficient here).
    """
    if abs(float(eps)) >= float(params.mass):
        raise UnboundEnergy(f"|eps| = {abs(float(eps))} >= mass = {params.mass}")
    c = params.energy_coupling(eps)
    eta2 = params.mass * params.mass - eps * eps
    return NUProblem(
        sigma=Poly([0, 1]),
        tau_tilde=Poly([0]),
        sigma_tilde=Poly([-lam, -(c * params.alpha), -eta2]),
    )


def angular_nu_problem(params: PotentialParams, eps: Scalar, m: int, lam: Scalar) -> NUProblem:
    """Polar equation in x = cos(theta) at energy eps.

    sigma = 1 - x^2, tau_t = -2x,
    sigma_t = -lam x^2 - gamma_eff x + (lam - m^2 - beta_eff).
    """
    c = params.energy_coupling(eps)
    beta_eff = c * params.beta
    gamma_eff = c * params.gamma
    try:
        constant = lam - m * m - beta_eff
    except OverflowError:  # float track: m^2 has no float
        raise DomainError("m^2 is beyond float range") from None
    return NUProblem(
        sigma=Poly([1, 0, -1]),
        tau_tilde=Poly([0, -2]),
        sigma_tilde=Poly([constant, -gamma_eff, -lam]),
    )


@dataclass(frozen=True)
class BoundState:
    """A converged level plus everything needed to evaluate its wavefunction."""

    params: PotentialParams
    numbers: QuantumNumbers
    energy: float
    angular: AngularSolution
    iterations: int
    converged: bool
    residual: float

    @property
    def l_eff(self) -> float:
        return float(self.angular.l_eff)

    @property
    def n_prime(self) -> float:
        return self.numbers.N + self.l_eff + 1.0

    @property
    def kappa(self) -> float:
        """Radial decay rate sqrt(mass^2 - energy^2).

        UnboundEnergy where it rounds to 0 (the energy rounds to mass, or
        the squares underflow): no decaying mode can be sampled.
        """
        m = float(self.params.mass)
        k = math.sqrt(m * m - self.energy * self.energy)
        if k == 0.0:
            raise UnboundEnergy(f"kappa = sqrt(mass^2 - energy^2) rounds to 0 at energy "
                                f"{self.energy!r}, mass {m!r}: no decaying radial mode")
        return k

    @property
    def binding(self) -> float:
        return self.energy - float(self.params.mass)

    @property
    def separation_lambda(self) -> float:
        return float(self.angular.separation_lambda)

    @property
    def norm_radial(self) -> float:
        return math.exp(_radial_log_norm(self.numbers.N, self.l_eff, self.kappa))

    @property
    def norm_angular(self) -> float:
        return math.exp(_angular_log_norm(self.numbers.n, float(self.angular.B), float(self.angular.C)))

    def on_level(self, numbers: QuantumNumbers) -> BoundState:
        """The state `solve_bound_state` returns for `numbers` on this level.

        `numbers` must share N + n and |m| with this state: the energy,
        `iterations` and `residual` are this solve's, and the polar data
        (l_eff = n + B) is rebuilt for the new n and m.
        """
        own = self.numbers
        if (numbers.N + numbers.n, abs(numbers.m)) != (own.N + own.n, abs(own.m)):
            raise DomainError(f"{numbers} is not on the level of {self.numbers}")
        return _level_state(self.params, numbers, self.energy, self.iterations, self.residual)


def _fixed_point_map(N: int, n: int, m: int, beta: float, gamma: float,
                     factor: int, strength: float, mass: float):
    """The solver's eps -> g(eps) on floats: `radial_energy` at the B of
    `_polar_root` with c = factor (eps + mass), the root every state's
    AngularSolution is built from. n' = (N + n + 1) + B rounds once, so the
    map depends on N and n only through N + n.
    """
    m2 = m * m

    def g(eps: float) -> float:
        B = _polar_root(m2, factor * (eps + mass), beta, gamma)[1]
        return radial_energy(N + n, B, strength, mass)

    return g


def _level_state(params: PotentialParams, numbers: QuantumNumbers, eps: float,
                 iterations: int, residual: float) -> BoundState:
    """The converged state of `numbers` at the self-consistent energy eps."""
    beta, gamma = float(params.beta), float(params.gamma)
    c = params.coupling_factor * (eps + float(params.mass))
    if beta == 0.0 and gamma == 0.0:
        c, beta, gamma = 1, 0, 0  # exact strengths: B = |m|
    ang = _angular_solution(numbers.m, numbers.n, c, beta, gamma)
    return BoundState(params, numbers, eps, ang, iterations, True, residual)


def check_float_range(params: PotentialParams, numbers: QuantumNumbers) -> None:
    """DomainError unless the solver's floats stay finite for this level.

    The fixed-point map's intermediates grow with |alpha|, |beta|, |gamma|,
    N, n, |m| and c(eps) = factor (eps + mass); their values at the top of
    the window, eps = mass, bound every energy probed and every lower level.
    """
    alpha, beta, gamma, mass = map(float, (params.alpha, params.beta, params.gamma, params.mass))
    strength = params.coupling_factor * alpha
    q = strength * strength / 4
    c = 2.0 * params.coupling_factor * mass
    mm = numbers.m * numbers.m + c * abs(beta)
    npr = numbers.N + numbers.n + math.sqrt(mm) + 1.0
    if not all(map(math.isfinite, (q, mm * mm, c * gamma * c * gamma, mass * (npr * npr + q)))):
        raise DomainError(f"alpha, beta, gamma, mass = {alpha:g}, {beta:g}, {gamma:g}, {mass:g}: "
                          f"the self-consistent map overflows a float")


def solve_bound_state(
    params: PotentialParams,
    numbers: QuantumNumbers,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> BoundState:
    """Self-consistent energy for the (N, n, m) level.

    With beta = gamma = 0 the polar data is energy-free (B = |m|) and the
    closed form is final after a single evaluation. Otherwise Steffensen
    steps solve eps = g(eps), g(eps) = radial_energy(N, l_eff(eps), ...):
    from eps, g(eps) and g(g(eps)) the Aitken delta^2 extrapolation gives the
    next eps, and its own g value is its residual |eps - g(eps)|. Once eps
    or g(eps) meets tol * mass, one more step lands on the float root, and
    that final point is returned with its own residual (the converged point
    itself if the step does not also meet the tolerance). A step that leaves
    the feasible energy window or does not shrink the residual hands over to
    a bisection of eps - g(eps) over that window, which also classifies a
    level without a root in it (NoBoundState, ComplexU). `max_iter` bounds
    every evaluation of g, across both phases and including the window ends
    and any that raise; a spent budget is NoConvergence, quoting the last
    residual computed. Convergence means residual <= tol * mass.

    g is `_fixed_point_map`; it depends on N and n only through N + n, so
    every (N, n) of a level gets the same energy, iterations and residual,
    and the state's AngularSolution comes from the same `_polar_root`.
    """
    check_int("max_iter", max_iter, 2)
    if not float(tol) > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    mass = float(params.mass)
    factor = params.coupling_factor
    strength = factor * abs(float(params.alpha))
    if strength == 0.0:
        raise NoBoundState("alpha = 0: nothing binds radially")
    N, n, m = numbers.N, numbers.n, numbers.m
    beta, gamma = float(params.beta), float(params.gamma)

    if beta == 0.0 and gamma == 0.0:
        eps = float(radial_energy(N + n, abs(m), strength, mass))
        if not math.isfinite(eps):
            check_float_range(params, numbers)
        return _level_state(params, numbers, eps, 1, 0.0)

    level_map = _fixed_point_map(N, n, m, beta, gamma, factor, strength, mass)
    fine = tol * mass
    evals, last = 0, math.inf  # evaluations spent; the latest |eps - g(eps)|

    def no_convergence() -> NoConvergence:
        # a map that overflows cannot converge: say so, checked off the hot path
        check_float_range(params, numbers)
        return NoConvergence(f"residual {last:.3e} after {evals} evaluations")

    def g(eps: float) -> float:
        """The map, counted against max_iter even where it raises."""
        nonlocal evals, last
        if evals >= max_iter:
            raise no_convergence()
        evals += 1
        g_eps = level_map(eps)
        last = abs(eps - g_eps)
        return g_eps

    # feasibility: c(eps) * (|gamma| - beta) <= m^2 bounds eps from above
    lo = -mass * (1.0 - 1e-9)
    hi = mass
    need = abs(gamma) - beta
    if need > 0.0:
        hi = min(hi, (m * m) / (factor * need) - mass)
        if hi <= lo:
            raise ComplexU(
                "no energy in (-mass, mass) keeps m^2 + beta_eff >= |gamma_eff|"
            )

    def steffensen(x: float, gx: float, res: float):
        """(residual, eps) of the final iterate; None where a step fails or
        the budget runs out before any point meets the tolerance.

        From a point that already meets the tolerance this is one more
        Aitken step, kept if it meets the tolerance too.
        """
        done = None  # the latest (residual, eps) that meets the tolerance
        while True:
            if res == 0.0:  # a float fixed point: no step can improve it
                return (res, x)
            if res <= fine:
                done = (res, x)
            if evals >= max_iter or not lo <= gx <= hi:
                return done
            g2 = g(gx)
            res2 = abs(gx - g2)
            if res2 == 0.0:
                return (res2, gx)
            if res2 <= fine and (done is None or res2 < done[0]):
                done = (res2, gx)
            d = (g2 - gx) - (gx - x)
            nxt = g2 - (g2 - gx) ** 2 / d if d != 0.0 else g2
            if evals >= max_iter or not lo <= nxt <= hi:
                return done
            g_nxt = g(nxt)
            res_nxt = abs(nxt - g_nxt)
            if done is not None:
                return (res_nxt, nxt) if res_nxt <= fine else done
            if not res_nxt < res:
                return None
            x, gx, res = nxt, g_nxt, res_nxt

    guess = N + abs(m) + n + 1.0
    x = min(max(mass * (1.0 - strength * strength / (2.0 * guess * guess)), lo), hi)
    gx = g(x)
    got = steffensen(x, gx, abs(x - gx))
    if got is not None:
        return _level_state(params, numbers, got[1], evals, got[0])

    # h(eps) = eps - g(eps) is negative at the bottom of the window and
    # positive at a solvable top; bisect the sign change, then finish with
    # the final Aitken step from the first midpoint that meets the tolerance
    a, b = lo, hi
    ha = a - g(a)
    # rounding can leave m^2 + beta_eff a last bit below |gamma_eff| at the
    # window top: step down a few floats to where g is defined, or raise
    for _ in range(4):
        try:
            hb = b - g(b)
            break
        except ComplexU:
            b = math.nextafter(b, lo)
    else:
        hb = b - g(b)
    if ha >= 0.0:
        raise NoBoundState(f"no self-consistent level in the window for {numbers}")
    if hb < 0.0:
        raise ComplexU("self-consistent energy runs out of the real-ring-strength window")
    while True:
        mid = 0.5 * (a + b)
        g_mid = g(mid)
        residual = abs(mid - g_mid)
        if residual <= fine:
            got = steffensen(mid, g_mid, residual)
            return _level_state(params, numbers, got[1], evals, got[0])
        if mid - g_mid < 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-17 * mass:
            raise no_convergence()


def _radial_log_norm(N: int, l_eff: float, kappa: float) -> float:
    npr = N + l_eff + 1.0
    return (l_eff + 1.0) * math.log(2.0 * kappa) + 0.5 * (
        math.log(kappa) + math.lgamma(N + 1) - math.log(npr) - math.lgamma(N + 2.0 * l_eff + 2.0)
    )


def _angular_log_norm(n: int, B: float, C: float) -> float:
    return 0.5 * (
        math.log(2.0 * n + 2.0 * B + 1.0)
        + math.lgamma(n + 1)
        + math.lgamma(n + 2.0 * B + 1.0)
        - (2.0 * B + 1.0) * math.log(2.0)
        - math.lgamma(n + B + C + 1.0)
        - math.lgamma(n + B - C + 1.0)
    )


def radial_mode(N: int, l_eff: float, kappa: float, r):
    """Unit-dr-norm radial factor u(r) = C r^(l_eff+1) e^(-kappa r) L_N^(2 l_eff+1)(2 kappa r).

    Modes sharing one coupling strength A = 2 kappa (N + l_eff + 1) and one
    l_eff are eigenfunctions of a single radial operator, hence mutually
    orthogonal over N. A bound state's own mode has kappa tied to its energy;
    see `radial_wavefunction`.
    """
    import numpy as np

    check_int("N", N, 0)
    if float(l_eff) < 0.0 or not float(kappa) > 0.0:
        raise DomainError(f"need l_eff >= 0 and kappa > 0, got {l_eff}, {kappa}")
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0.0):
        raise DomainError("r must be non-negative")
    le, kf = float(l_eff), float(kappa)
    lognorm = _radial_log_norm(N, le, kf)
    with np.errstate(divide="ignore"):
        amp = np.exp(lognorm + (le + 1.0) * np.log(rr) - kf * rr)
    out = amp * laguerre_assoc(N, 2.0 * le + 1.0, 2.0 * kf * rr)
    return float(out) if np.ndim(r) == 0 else out


def angular_mode(n: int, B: float, C: float, x, negative_gamma: bool = False):
    """Unit-dx-norm polar factor on [-1, 1].

    Theta_n = N_n (1-x)^(a/2) (1+x)^(b/2) P_n^(a,b)(x) with (a, b) = (B+C, B-C);
    `negative_gamma` swaps the endpoint exponents (and Jacobi parameters),
    which is the orientation solving the equation when gamma_eff < 0. Modes
    sharing (B, C) are mutually orthogonal over n.
    """
    import numpy as np

    check_int("n", n, 0)
    Bf, Cf = float(B), float(C)
    if Bf < 0.0 or Cf < 0.0 or Cf > Bf:
        raise DomainError(f"need B >= C >= 0, got B = {B}, C = {C}")
    xx = np.asarray(x, dtype=float)
    if np.any(np.abs(xx) > 1.0):
        raise DomainError("x must lie in [-1, 1]")
    a, b = Bf + Cf, Bf - Cf
    if negative_gamma:
        a, b = b, a
    lognorm = _angular_log_norm(n, Bf, Cf)
    with np.errstate(all="ignore"):
        w = math.exp(lognorm) * np.power(1.0 - xx, 0.5 * a) * np.power(1.0 + xx, 0.5 * b)
        if not np.all(np.isfinite(w)):
            # at large |m| 2^(a/2) overflows and inf * 0 is nan: sum logs there (0^0 = 1)
            logw = (lognorm + (0.5 * a * np.log(1.0 - xx) if a else 0.0)
                    + (0.5 * b * np.log(1.0 + xx) if b else 0.0))
            w = np.where(np.isfinite(w), w, np.exp(logw))
    val = w * jacobi_poly(n, a, b, xx)
    return float(val) if np.ndim(x) == 0 else val


def radial_wavefunction(state: BoundState, r):
    """u(r) for the state's own decay rate kappa(energy)."""
    return radial_mode(state.numbers.N, state.l_eff, state.kappa, r)


def angular_wavefunction(state: BoundState, x):
    """Theta(x = cos theta) for the state's own (B, C) and gamma orientation."""
    return angular_mode(
        state.numbers.n,
        float(state.angular.B),
        float(state.angular.C),
        x,
        negative_gamma=float(state.angular.gamma_eff) < 0.0,
    )


def nonrel_limit_check(params: PotentialParams, numbers: QuantumNumbers) -> float:
    """Binding energy over the Bohr-like value -mass a^2 / (2 n'^2).

    Tends to 1 as the coupling weakens (the exact ratio is 1/(1 + a^2/(4 n'^2))
    when beta = gamma = 0). Returns 1.0 by convention at alpha = 0, where both
    numerator and denominator vanish.
    """
    if float(params.alpha) == 0.0:
        return 1.0
    st = solve_bound_state(params, numbers)
    a = params.coupling_factor * abs(float(params.alpha))
    npr = st.n_prime
    bohr = -float(params.mass) * a * a / (2.0 * npr * npr)
    return st.binding / bohr
