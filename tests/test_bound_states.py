import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kgring import (
    ComplexU,
    Coupling,
    DomainError,
    NoBoundState,
    NoConvergence,
    PotentialParams,
    QuantumNumbers,
    UnboundEnergy,
    angular_mode,
    angular_wavefunction,
    effective_l,
    nonrel_limit_check,
    radial_energy,
    radial_mode,
    radial_nu_problem,
    radial_wavefunction,
    solve_bound_state,
)
from kgring import bound_states
from kgring.bound_states import _angular_solution, _fixed_point_map
from kgring.nu import quantization, solution_chain

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


class TestParams:
    def test_mass_guard(self):
        with pytest.raises(DomainError):
            PotentialParams(alpha=0.1, beta=0.0, gamma=0.0, mass=0.0)

    def test_coupling_factor(self):
        p = PotentialParams(alpha=0.1, beta=0.0, gamma=0.0, mass=1.0)
        assert p.coupling_factor == 1
        q = PotentialParams(alpha=0.1, beta=0.0, gamma=0.0, mass=1.0, coupling=Coupling.FULL)
        assert q.coupling_factor == 2
        assert q.energy_coupling(0.5) == pytest.approx(3.0)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "mass"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("nan")])
    def test_non_finite_guard(self, name, value):
        kwargs = {"alpha": 0.2, "beta": 0.05, "gamma": 0.02, "mass": 1.0, name: value}
        with pytest.raises(DomainError, match=name):
            PotentialParams(**kwargs)

    def test_exact_values_beyond_float_range(self):
        # an exact value is finite however large, but every solver and the
        # oracle take its float: past float range that is a DomainError here,
        # not an OverflowError out of solve_bound_state or the oracle
        base = {"alpha": F(1, 5), "beta": 0, "gamma": 0, "mass": 1}
        for name in base:
            for value in (F(10) ** 400, -(F(10) ** 400), 10**400):
                with pytest.raises(DomainError, match=f"{name} is beyond float range"):
                    PotentialParams(**{**base, name: value})
            assert getattr(PotentialParams(**{**base, name: F(10) ** 300}), name) == 10**300

    def test_quantum_number_guards(self):
        with pytest.raises(DomainError):
            QuantumNumbers(-1, 0, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(0, -2, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(0, 0, 1.5)


class TestEffectiveL:
    def test_exact_case(self):
        ang = effective_l(1, F(4), F(4), 0)
        assert ang.u == 3
        assert ang.B == 2
        assert ang.C == 1
        assert ang.l_eff == 2
        assert ang.separation_lambda == 6

    def test_legendre_limit(self):
        ang = effective_l(2, 0, 0, 1)
        assert ang.B == 2 and ang.C == 0
        assert ang.l_eff == 3
        assert ang.separation_lambda == 12

    def test_subnormal_strengths(self):
        # (mm + u)/2 underflows to B = 0 with gamma_eff != 0: C = 0, not a
        # ZeroDivisionError
        tiny = 5e-324
        for gamma_eff in (tiny, -tiny):
            ang = effective_l(0, tiny, gamma_eff, 1)
            assert (ang.B, ang.C, ang.l_eff) == (0.0, 0.0, 1.0)

    def test_negative_gamma_same_l(self):
        a = effective_l(1, F(4), F(4), 0)
        b = effective_l(1, F(4), F(-4), 0)
        assert a.l_eff == b.l_eff and a.C == b.C

    def test_complex_u(self):
        with pytest.raises(ComplexU):
            effective_l(0, 0, 5, 0)
        with pytest.raises(ComplexU):
            effective_l(1, F(1, 2), 2, 0)
        # the message prints the quantity tested, m^2 + c (beta - |gamma|)
        with pytest.raises(ComplexU, match=r"\|gamma_eff\| = -5 < 0$"):
            effective_l(0, 0, -5, 0)
        with pytest.raises(ComplexU, match=r"\|gamma_eff\| = -5\.0 < 0$"):
            _fixed_point_map(0, 0, 0, 0.0, -5.0, 1, 0.2, 1.0)(0.0)

    def test_beyond_float_range(self):
        # m^2 + beta_eff = 10^400 + 1 is exact, but B = sqrt(10^400 + 1) is not
        with pytest.raises(DomainError, match="float range"):
            effective_l(10**200, 1, 0, 0)

    def test_small_gamma_cancellation_safe(self):
        # C = |gamma|/(2B) must not lose digits when u ~ m^2 + beta
        ang = effective_l(3, 0.0, 1e-9, 0)
        assert float(ang.C) == pytest.approx(1e-9 / (2.0 * float(ang.B)), rel=1e-12)
        assert float(ang.B) == pytest.approx(3.0, rel=1e-12)


class TestRadialEnergy:
    def test_coulomb_value(self):
        assert radial_energy(0, 1, 0.2, 1.0) == 3.99 / 4.01

    def test_exact_rational(self):
        e = radial_energy(0, 1, F(1, 5), 1)
        assert isinstance(e, Fraction)
        assert e == F(399, 401)

    def test_guards(self):
        with pytest.raises(DomainError):
            radial_energy(-1, 1, 0.2, 1.0)
        with pytest.raises(DomainError):
            radial_energy(0, -0.5, 0.2, 1.0)
        with pytest.raises(DomainError):
            radial_energy(0, 1, 0.2, 0.0)

    def test_unbound_energy_guard(self):
        p = PotentialParams(alpha=-0.2, beta=0, gamma=0, mass=1)
        with pytest.raises(UnboundEnergy):
            radial_nu_problem(p, 1.0, 2.0)
        with pytest.raises(UnboundEnergy):
            radial_nu_problem(p, -1.5, 2.0)


class TestSolveBoundState:
    def coulomb(self, alpha=0.2):
        return PotentialParams(alpha=alpha, beta=0.0, gamma=0.0, mass=1.0)

    def ring(self):
        return PotentialParams(alpha=0.2, beta=0.05, gamma=0.02, mass=1.0)

    def test_pure_coulomb_single_pass(self):
        st = solve_bound_state(self.coulomb(), QuantumNumbers(0, 0, 1))
        assert st.energy == 3.99 / 4.01
        assert st.iterations == 1
        assert st.residual == 0.0
        assert st.converged
        assert st.l_eff == 1.0
        assert st.n_prime == 2.0

    def test_sign_of_alpha_is_immaterial_for_levels(self):
        up = solve_bound_state(self.coulomb(0.2), QuantumNumbers(0, 0, 0))
        down = solve_bound_state(self.coulomb(-0.2), QuantumNumbers(0, 0, 0))
        assert up.energy == down.energy

    def test_full_coupling_matches_doubled_halved(self):
        full = PotentialParams(alpha=0.1, beta=0.0, gamma=0.0, mass=1.0, coupling=Coupling.FULL)
        halved = self.coulomb(0.2)
        a = solve_bound_state(full, QuantumNumbers(1, 0, 1))
        b = solve_bound_state(halved, QuantumNumbers(1, 0, 1))
        assert a.energy == b.energy

    def test_no_bound_state_at_zero_alpha(self):
        p = PotentialParams(alpha=0.0, beta=0.05, gamma=0.0, mass=1.0)
        with pytest.raises(NoBoundState):
            solve_bound_state(p, QuantumNumbers(0, 0, 0))

    def test_self_consistent_ring_state(self):
        st = solve_bound_state(self.ring(), QuantumNumbers(1, 1, 1), tol=1e-12)
        assert st.converged
        assert st.iterations >= 2
        assert st.residual <= 1e-12
        # the fixed point really is self-consistent: re-deriving the angular
        # data at the converged energy reproduces l_eff
        c = st.params.coupling_factor * (st.energy + 1.0)
        ang = effective_l(1, c * 0.05, c * 0.02, 1)
        eps = radial_energy(1, ang.l_eff, 0.2, 1.0)
        assert eps == pytest.approx(st.energy, abs=1e-12)

    def test_complex_u_window_empty(self):
        p = PotentialParams(alpha=0.2, beta=0.0, gamma=5.0, mass=1.0)
        with pytest.raises(ComplexU):
            solve_bound_state(p, QuantumNumbers(0, 0, 0))

    def test_no_convergence_budget(self):
        with pytest.raises(NoConvergence):
            solve_bound_state(self.ring(), QuantumNumbers(0, 0, 0), tol=1e-15, max_iter=3)

    def test_fallback_steps_below_an_undefined_window_top(self):
        # rounding leaves m^2 + c (beta - |gamma|) below 0 on the top two
        # floats of the window; a budget-starved fallback must not call the
        # level ComplexU
        p = PotentialParams(-1.3201, -0.37592, -0.67955, 2.1482, Coupling.FULL)
        qn = QuantumNumbers(0, 0, 3)
        for max_iter in (2, 3, 4, 5, 6):
            with pytest.raises(NoConvergence):
                solve_bound_state(p, qn, max_iter=max_iter)
        assert solve_bound_state(p, qn, max_iter=7).energy == 1.5333220777264398

    # draws from a seeded sweep, one per path through the bisection fallback
    def test_fallback_bisection_converges(self):
        # Steffensen steps stop improving, and the bisection meets tol at the 54th evaluation
        p = PotentialParams(-22.372510860239345, 0.4771462321922144, 1.6256769810921838,
                            7.9250166332933105, Coupling.HALVED)
        qn = QuantumNumbers(2, 1, 2)
        got = solve_bound_state(p, qn, tol=1e-19, max_iter=200)
        assert (got.energy, got.iterations) == (-4.537032839508502, 54)
        root = fifty_digit_root(p, qn, got.energy)
        assert abs(got.energy - root) <= 4 * math.ulp(float(p.mass))

    @pytest.mark.parametrize("alpha,beta,gamma,mass,coupling,qn,tol,max_iter,error", [
        # Steffensen steps stop improving, and the bisection spends the rest of the budget
        (-1.5931605681294947, 0.12331179102954626, -1.4056319101345212, 5.158533579293292,
         Coupling.HALVED, (2, 3, -4), 1e-17, 40, NoConvergence),
        # the map is undefined at the window top, which steps down a float;
        # then eps - g(eps) >= 0 at the window bottom: no level in the window
        (136639.60647103944, -0.3351289540582412, 2.2067536155479797, 9.152646906981914,
         Coupling.FULL, (0, 1, -1), 1e-12, 200, NoBoundState),
        # eps - g(eps) >= 0 at the window bottom: no level in the window
        (1892863.7375934664, 0.19605266128474286, -0.5082208967298083, 3.6518345367830856,
         Coupling.FULL, (1, 1, -3), 1e-12, 200, NoBoundState),
    ], ids=["bisection-budget", "top-steps-down", "no-level"])
    def test_fallback_failures(self, alpha, beta, gamma, mass, coupling, qn, tol, max_iter, error):
        p = PotentialParams(alpha, beta, gamma, mass, coupling)
        with pytest.raises(error):
            solve_bound_state(p, QuantumNumbers(*qn), tol=tol, max_iter=max_iter)

    def test_budget_counts_every_evaluation(self, monkeypatch):
        # the draw whose window top is undefined: Steffensen steps spend the
        # budget, and the window ends and the steps below the top count too
        p = PotentialParams(-1.3201, -0.37592, -0.67955, 2.1482, Coupling.FULL)
        qn = QuantumNumbers(0, 0, 3)
        calls = []

        def counted(*args):
            g = _fixed_point_map(*args)
            return lambda eps: calls.append(eps) or g(eps)

        monkeypatch.setattr(bound_states, "_fixed_point_map", counted)
        for max_iter in range(2, 9):
            calls.clear()
            try:
                st_ = solve_bound_state(p, qn, max_iter=max_iter)
            except NoConvergence as exc:
                assert str(exc).endswith(f"after {len(calls)} evaluations")
            else:
                assert st_.iterations == len(calls)
            assert len(calls) <= max_iter

    def test_float_range(self):
        # a map that overflows a float is a DomainError, not NoConvergence
        # after the whole budget or a NaN energy marked converged
        for p in (PotentialParams(0.2, 0.05, 0.02, 1e300), PotentialParams(1e200, 0, 0, 1.0)):
            with pytest.raises(DomainError, match="overflows"):
                solve_bound_state(p, QuantumNumbers(0, 0, 0))
        st = solve_bound_state(PotentialParams(0.2, 0.0, 0.0, 1e300), QuantumNumbers(0, 0, 0))
        assert math.isfinite(st.energy)

    def test_solver_guards(self):
        with pytest.raises(DomainError):
            solve_bound_state(self.ring(), QuantumNumbers(0, 0, 0), max_iter=1)
        with pytest.raises(DomainError):
            solve_bound_state(self.ring(), QuantumNumbers(0, 0, 0), tol=0.0)

    def test_quantization_consistency_radial(self):
        # at the converged energy the reduction's lambda_bar equals the
        # quantization rule at degree N (attractive literal: alpha < 0)
        p = PotentialParams(alpha=-0.2, beta=0.05, gamma=0.02, mass=1.0)
        st = solve_bound_state(p, QuantumNumbers(2, 1, 1), tol=1e-14)
        prob = radial_nu_problem(st.params, st.energy, st.separation_lambda)
        chain = solution_chain(prob)
        want = quantization(prob, chain.branch).evaluate(2)
        assert float(chain.branch.lambda_bar) == pytest.approx(float(want), rel=1e-9)

    def test_quantization_consistency_angular(self):
        from kgring import angular_nu_problem

        st = solve_bound_state(self.ring(), QuantumNumbers(0, 2, 1))
        prob = angular_nu_problem(st.params, st.energy, 1, st.separation_lambda)
        chain = solution_chain(prob)
        want = quantization(prob, chain.branch).evaluate(2)
        assert float(chain.branch.lambda_bar) == pytest.approx(float(want), rel=1e-9)


def loop_solve_bound_state(params, numbers, tol=1e-12, max_iter=200):
    """The damped fixed-point loop the solver used before Steffensen steps,
    on the exact-arithmetic track: every evaluation goes through effective_l
    and radial_energy and keeps the AngularSolution it built. The reference
    the solver must match in outcome and, within the tolerance, in energy."""
    if not (isinstance(max_iter, int) and max_iter >= 2):
        raise DomainError(f"max_iter must be an int >= 2, got {max_iter!r}")
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
        ang = effective_l(m, 0, 0, n)
        eps = float(radial_energy(N, ang.l_eff, strength, mass))
        return eps, ang, 1, 0.0

    def step(eps):
        c = factor * (eps + mass)
        ang = effective_l(m, c * beta, c * gamma, n)
        return float(radial_energy(N, ang.l_eff, strength, mass)), ang

    lo = -mass * (1.0 - 1e-9)
    hi = mass
    need = abs(gamma) - beta
    if need > 0.0:
        hi = min(hi, (m * m) / (factor * need) - mass)
        if hi <= lo:
            raise ComplexU("no energy in (-mass, mass) keeps m^2 + beta_eff >= |gamma_eff|")
    guess = N + abs(m) + n + 1.0
    eps = mass * (1.0 - strength * strength / (2.0 * guess * guess))
    eps = min(max(eps, lo), hi)
    evals = 0
    for _ in range(max_iter // 2):
        g, ang = step(eps)
        evals += 1
        residual = abs(eps - g)
        if residual <= tol * mass:
            return eps, ang, evals, residual
        eps = min(max(eps + 0.5 * (g - eps), lo), hi)
    a, b = lo, hi
    ha = a - step(a)[0]
    hb = b - step(b)[0]
    evals += 2
    if ha >= 0.0:
        raise NoBoundState(f"no self-consistent level in the window for {numbers}")
    if hb < 0.0:
        raise ComplexU("self-consistent energy runs out of the real-ring-strength window")
    while evals < max_iter:
        mid = 0.5 * (a + b)
        g, ang = step(mid)
        evals += 1
        residual = abs(mid - g)
        if residual <= tol * mass:
            return mid, ang, evals, residual
        if mid - g < 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-17 * mass:
            break
    raise NoConvergence(
        f"residual {abs(0.5 * (a + b) - step(0.5 * (a + b))[0]):.3e} after {evals} evaluations"
    )


def outcome(solve, params, numbers, tol, max_iter):
    """(energy, angular, iterations, residual), or the error's type and text."""
    try:
        got = solve(params, numbers, tol=tol, max_iter=max_iter)
    except (ComplexU, NoBoundState, NoConvergence) as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        return got
    assert got.converged
    return got.energy, got.angular, got.iterations, got.residual


def assert_map_matches(N, n, m, beta, gamma, factor, strength, mass, eps):
    """The float map returns == the state's AngularSolution fed to radial_energy,
    or raises ComplexU with it."""
    g = _fixed_point_map(N, n, m, beta, gamma, factor, strength, mass)
    c = factor * (eps + mass)
    try:
        ang = _angular_solution(m, n, c, beta, gamma)
    except ComplexU:
        with pytest.raises(ComplexU):
            g(eps)
        return
    # n' = (N + n + 1) + B: radial_energy forms (N' + 1) + l_eff
    assert g(eps) == float(radial_energy(N + n, ang.B, strength, mass))


class TestFloatFixedPointMap:
    @settings(max_examples=400, deadline=None)
    @given(
        N=st.integers(0, 8), n=st.integers(0, 8), m=st.integers(-6, 6),
        beta=st.floats(-3.0, 3.0), gamma=st.floats(-4.0, 4.0),
        factor=st.sampled_from([1, 2]), strength=st.floats(1e-6, 6.0),
        mass=st.floats(1e-3, 1e3), frac=st.floats(-1.0, 1.0),
    )
    def test_matches_exact_track(self, N, n, m, beta, gamma, factor, strength, mass, frac):
        assert_map_matches(N, n, m, beta, gamma, factor, strength, mass, frac * mass)

    def test_matches_exact_track_seeded_sweep(self):
        # a last-bit slip (say, reassociating N + (B + n) + 1) shows on about
        # one input in a hundred, which shrunk hypothesis draws rarely reach
        rng = np.random.default_rng(5)
        for _ in range(20000):
            N, n, m = (int(v) for v in rng.integers([0, 0, -6], [9, 9, 7]))
            beta, gamma = rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0)
            factor, strength, mass = int(rng.integers(1, 3)), rng.uniform(0.0, 6.0), rng.uniform(0.1, 10.0)
            assert_map_matches(N, n, m, beta, gamma, factor, strength, mass, rng.uniform(-1, 1) * mass)


def kind(got):
    return "converged" if isinstance(got[0], float) else got[0]


def assert_same_root(params, numbers, tol, max_iter, got, want):
    """The solver and the damped loop found the same level.

    Both stop on a residual <= tol * mass, which puts an energy within
    tol * mass / (1 - g') of the root: beyond tol * mass where the map's
    slope g' is positive, so two of them agree to 2 tol * mass. The
    exceptions to equal outcomes, each on a budget under 200 evaluations:
    the loop raised, and with 200 it converges to this energy; or the
    solver's Steffensen steps spent the budget (NoConvergence) before the
    window ends that the loop's outcome took, and with 200 it reaches that
    outcome; or the solver ran out and the loop raised, and with 200 each
    they reach the same outcome.
    """
    mass = float(params.mass)
    if kind(got) != kind(want):
        assert max_iter < 200
        if kind(got) is NoConvergence:
            got = outcome(solve_bound_state, params, numbers, tol, 200)
            if kind(want) != "converged":
                want = outcome(loop_solve_bound_state, params, numbers, tol, 200)
        else:
            assert kind(got) == "converged" and kind(want) in (NoConvergence, ComplexU)
            want = outcome(loop_solve_bound_state, params, numbers, tol, 200)
        assert kind(got) == kind(want)
    if kind(got) == "converged":
        assert abs(got[0] - want[0]) <= 2.0 * tol * mass
        assert got[3] <= tol * mass


class TestSolveMatchesLoop:
    CASES = [
        # alpha, beta, gamma, coupling, tol, max_iter, (N, n, m), the loop's branch
        (0.2, 0.05, 0.02, Coupling.HALVED, 1e-12, 200, (1, 1, 1), "damped"),
        (0.2, 0.05, -0.02, Coupling.HALVED, 1e-12, 200, (2, 0, -1), "damped"),
        (0.7, 0.4, 0.9, Coupling.FULL, 1e-12, 200, (0, 2, 2), "damped"),
        (1.3, 0.4, -0.3, Coupling.FULL, 1e-14, 200, (2, 1, 1), "damped"),
        (1.3, -0.1, -0.3, Coupling.FULL, 1e-14, 200, (2, 1, 1), ComplexU),  # window edge
        (0.2, 0.4, 0.02, Coupling.FULL, 1e-4, 20, (0, 0, 0), "bisect"),
        (1.9, 0.05, -0.3, Coupling.FULL, 1e-4, 10, (0, 2, 2), "bisect"),
        (1.9, 0.4, -0.3, Coupling.FULL, 1e-4, 20, (0, 2, 2), "bisect"),
        # the loop runs out of 6 evaluations; Steffensen steps converge in 5
        (0.2, 0.05, 0.02, Coupling.HALVED, 1e-12, 6, (0, 0, 0), NoConvergence),
        (0.2, 0.05, -0.3, Coupling.HALVED, 1e-12, 200, (0, 0, 0), ComplexU),
        (0.2, 0.0, 0.0, Coupling.FULL, 1e-12, 200, (1, 0, 1), "closed"),
    ]

    @pytest.mark.parametrize("alpha,beta,gamma,coupling,tol,max_iter,qn,branch", CASES)
    def test_cases(self, alpha, beta, gamma, coupling, tol, max_iter, qn, branch):
        params = PotentialParams(alpha, beta, gamma, 1.0, coupling)
        numbers = QuantumNumbers(*qn)
        want = outcome(loop_solve_bound_state, params, numbers, tol, max_iter)
        got = outcome(solve_bound_state, params, numbers, tol, max_iter)
        assert_same_root(params, numbers, tol, max_iter, got, want)
        if isinstance(branch, type):
            assert want[0] is branch
        elif branch == "bisect":
            assert want[2] > max_iter // 2  # the damped loop alone did not finish
        elif branch == "damped":
            assert 2 <= want[2] <= max_iter // 2
        if kind(got) == "converged":
            assert got[2] <= 7

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(-2.0, 2.0), beta=st.floats(-0.5, 2.0), gamma=st.floats(-2.0, 2.0),
        mass=st.floats(0.1, 10.0), coupling=st.sampled_from(list(Coupling)),
        qn=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4)),
        tol=st.sampled_from([1e-4, 1e-12, 1e-15]), max_iter=st.sampled_from([2, 6, 20, 200]),
    )
    # the solver runs out of 2 evaluations, and the loop finds m^2 + beta_eff
    # 3.6e-15 below |gamma_eff| at its own window top (ComplexU); with 200
    # evaluations both converge, 5.9e-4 apart
    @example(alpha=2.0, beta=0.99609375, gamma=1.3381403455485454, mass=7.0,
             coupling=Coupling.FULL, qn=(0, 0, 3), tol=1e-4, max_iter=2)
    def test_random(self, alpha, beta, gamma, mass, coupling, qn, tol, max_iter):
        params = PotentialParams(alpha, beta, gamma, mass, coupling)
        numbers = QuantumNumbers(*qn)
        want = outcome(loop_solve_bound_state, params, numbers, tol, max_iter)
        got = outcome(solve_bound_state, params, numbers, tol, max_iter)
        assert_same_root(params, numbers, tol, max_iter, got, want)


def fifty_digit_root(params, numbers, start):
    """mpmath.findroot of eps - g(eps) at 50 digits, n' = N + n + 1 + B, from `start`."""
    with mpmath.workdps(50):
        factor = params.coupling_factor
        mass, beta, gamma = (mpmath.mpf(float(v)) for v in (params.mass, params.beta, params.gamma))
        q = (factor * abs(mpmath.mpf(float(params.alpha)))) ** 2 / 4
        m2 = numbers.m * numbers.m

        def h(eps):
            c = factor * (eps + mass)
            mm, ge = m2 + c * beta, c * gamma
            npr = numbers.N + numbers.n + 1 + mpmath.sqrt((mm + mpmath.sqrt(mm * mm - ge * ge)) / 2)
            return eps - mass * (npr * npr - q) / (npr * npr + q)

        return mpmath.findroot(h, mpmath.mpf(start))


class TestFiftyDigitRoot:
    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.5), alpha_sign=st.sampled_from([-1.0, 1.0]),
        beta=st.floats(-0.3, 0.8), tilt=st.floats(-1.5, 1.5), mass=st.floats(0.1, 10.0),
        coupling=st.sampled_from(list(Coupling)),
        qn=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4)),
    )
    # near |tilt| = 1, forming u^2 as (m^2 + beta_eff)^2 - gamma_eff^2 put
    # these 6 and 3,600 ulp off
    @example(1.0, -1.0, 0.75, 0.99999, 1.0, Coupling.HALVED, (0, 0, 0))
    @example(0.85, -1.0, 0.29, -(1 - 1e-11), 8.75, Coupling.FULL, (0, 0, 0))
    def test_within_four_ulp(self, alpha, alpha_sign, beta, tilt, mass, coupling, qn):
        # gamma = tilt |beta| of either sign; |tilt| > 1 reaches the window edge
        params = PotentialParams(alpha_sign * alpha, beta, tilt * abs(beta), mass, coupling)
        numbers = QuantumNumbers(*qn)
        try:
            got = solve_bound_state(params, numbers, tol=1e-12)
        except (ComplexU, NoBoundState):
            return
        root = fifty_digit_root(params, numbers, got.energy)
        assert abs(got.energy - root) <= 4 * math.ulp(mass)

    # the printed energies of tests/golden/spectrum_ring_states.json (and of
    # verify_ring.csv, a subset) before Steffensen steps, per level (N + n, |m|)
    OLD_RING_DIGITS = {
        (0, 0): "0.988389539170204", (0, 1): "0.995245392267917",
        (1, 0): "0.996256585938217", (1, 1): "0.997850356341772",
        (2, 0): "0.998175554550079", (2, 1): "0.998780578144743",
        (3, 0): "0.998923664485833", (3, 1): "0.999215641122084",
    }

    def test_golden_energies_closer_than_before(self):
        # alpha, beta, gamma, mass = 0.2, 0.05, 0.02, 1, the goldens' parameters
        params = PotentialParams(0.2, 0.05, 0.02, 1.0)
        rows = json.loads((GOLDEN / "spectrum_ring_states.json").read_text())
        verify = list(csv.DictReader(io.StringIO((GOLDEN / "verify_ring.csv").read_text())))
        printed = [(r["N"], r["n"], r["m"], repr(r["energy"])) for r in rows]
        printed += [(int(r["N"]), int(r["n"]), int(r["m"]), r["energy"])
                    for r in verify if r["kind"] == "check"]
        assert len(printed) == 18 + 12
        for N, n, m, digits in printed:
            got = solve_bound_state(params, QuantumNumbers(N, n, m))
            root = fifty_digit_root(params, QuantumNumbers(N, n, m), got.energy)
            assert abs(got.energy - root) <= 4 * math.ulp(1.0)
            assert float(digits) == float(f"{got.energy:.15g}")
            with mpmath.workdps(50):
                new_err = abs(mpmath.mpf(digits) - root)
                old_err = abs(mpmath.mpf(self.OLD_RING_DIGITS[(N + n, abs(m))]) - root)
            assert new_err < old_err


class TestDegeneracy:
    PARAMS = dict(
        alpha=st.floats(0.01, 1.5), beta=st.floats(-0.3, 0.8), tilt=st.floats(-1.5, 1.5),
        mass=st.floats(0.1, 10.0), coupling=st.sampled_from(list(Coupling)),
    )

    @staticmethod
    def solve(params, N, n, m):
        try:
            return solve_bound_state(params, QuantumNumbers(N, n, m))
        except (ComplexU, NoBoundState) as exc:
            return type(exc)

    @settings(max_examples=100, deadline=None)
    @given(s=st.integers(0, 8), m=st.integers(-4, 4), **PARAMS)
    def test_one_level_per_n_plus_N(self, s, m, alpha, beta, tilt, mass, coupling):
        # (N, s - N, m) share energy, iterations and residual to the last bit,
        # and on_level rebuilds each one's state from any other
        params = PotentialParams(alpha, beta, tilt * abs(beta), mass, coupling)
        states = [self.solve(params, N, s - N, m) for N in range(s + 1)]
        if isinstance(states[0], type):
            assert all(st_ is states[0] for st_ in states)
            return
        for st_ in states:
            assert (st_.energy, st_.iterations, st_.residual) == (
                states[0].energy, states[0].iterations, states[0].residual)
            assert states[0].on_level(st_.numbers) == st_
            assert st_.l_eff == float(st_.angular.B + st_.numbers.n)

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(0, 4), n=st.integers(0, 4), m=st.integers(0, 4), **PARAMS)
    def test_plus_minus_m_and_gamma_flip(self, N, n, m, alpha, beta, tilt, mass, coupling):
        params = PotentialParams(alpha, beta, tilt * abs(beta), mass, coupling)
        flipped = PotentialParams(alpha, beta, -tilt * abs(beta), mass, coupling)
        want = self.solve(params, N, n, m)
        for got in (self.solve(params, N, n, -m), self.solve(flipped, N, n, m)):
            if isinstance(want, type):
                assert got is want
            else:
                assert (got.energy, got.iterations, got.residual, got.l_eff) == (
                    want.energy, want.iterations, want.residual, want.l_eff)

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(0, 4), n=st.integers(0, 4), m=st.integers(-4, 4),
           s=st.floats(0.1, 10.0), **PARAMS)
    def test_mass_scaling(self, N, n, m, s, alpha, beta, tilt, mass, coupling):
        # eps/M sees beta and gamma only through M beta and M gamma: at fixed
        # alpha, (beta, gamma, M) -> (beta/s, gamma/s, s M) leaves it unchanged
        gamma = tilt * abs(beta)
        base = self.solve(PotentialParams(alpha, beta, gamma, mass, coupling), N, n, m)
        scaled = self.solve(
            PotentialParams(alpha, beta / s, gamma / s, s * mass, coupling), N, n, m)
        for st_ in (base, scaled):
            if not isinstance(st_, type):
                # within 1e-9 of the ComplexU edge m^2 + c (beta - |gamma|) = 0,
                # or on it, rounding may put the two sides on different sides
                p = st_.params
                c = p.coupling_factor * (st_.energy + p.mass)
                gap = m * m + c * (p.beta - abs(p.gamma))
                assume(gap > 1e-9 * (m * m + c * (abs(p.beta) + abs(p.gamma))))
        if isinstance(base, type) or isinstance(scaled, type):
            assert scaled is base
        else:
            assert scaled.energy / scaled.params.mass == pytest.approx(
                base.energy / mass, abs=1e-12)

    def test_on_level_guard(self):
        st_ = solve_bound_state(PotentialParams(0.2, 0.05, 0.02, 1.0), QuantumNumbers(1, 1, 1))
        assert st_.on_level(QuantumNumbers(2, 0, -1)).numbers == QuantumNumbers(2, 0, -1)
        for other in (QuantumNumbers(1, 0, 1), QuantumNumbers(1, 1, 2)):
            with pytest.raises(DomainError):
                st_.on_level(other)


class TestWavefunctions:
    def state(self, N=1, n=1, m=1, gamma=0.02):
        p = PotentialParams(alpha=0.2, beta=0.05, gamma=gamma, mass=1.0)
        return solve_bound_state(p, QuantumNumbers(N, n, m))

    def test_radial_zero_at_origin(self):
        st = self.state()
        assert radial_wavefunction(st, 0.0) == 0.0

    def test_radial_norm(self):
        st = self.state(N=2)
        total = float(mpmath.quad(
            lambda r: float(radial_wavefunction(st, float(r))) ** 2, [0, mpmath.inf]))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_radial_node_count(self):
        for N in range(4):
            st = self.state(N=N)
            r = np.linspace(0.0, (4.0 * st.n_prime + 20.0) / (2.0 * st.kappa), 4000)[1:]
            u = radial_wavefunction(st, r)
            big = np.abs(u) > 1e-9 * np.max(np.abs(u))
            signs = np.sign(u[big])
            assert int(np.sum(signs[1:] != signs[:-1])) == N

    def test_angular_norm(self):
        st = self.state(n=2)
        x, w = np.polynomial.legendre.leggauss(400)
        total = float(np.dot(w, angular_wavefunction(st, x) ** 2))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_angular_node_count(self):
        for n in range(4):
            st = self.state(n=n)
            x = np.linspace(-1.0, 1.0, 4001)[1:-1]
            v = angular_wavefunction(st, x)
            big = np.abs(v) > 1e-9 * np.max(np.abs(v))
            signs = np.sign(v[big])
            assert int(np.sum(signs[1:] != signs[:-1])) == n

    def test_angular_parity_when_symmetric(self):
        # gamma = 0 keeps the polar factor parity-definite
        st = self.state(n=2, gamma=0.0)
        x = np.linspace(-1.0, 1.0, 101)
        v = angular_wavefunction(st, x)
        assert v == pytest.approx(v[::-1], rel=1e-12, abs=1e-14)
        st_odd = self.state(n=3, gamma=0.0)
        v_odd = angular_wavefunction(st_odd, x)
        assert v_odd == pytest.approx(-v_odd[::-1], rel=1e-12, abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(qn=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4)),
           **TestDegeneracy.PARAMS)
    # at the ComplexU edge, where B = C exactly, |gamma_eff| / 2B once rounded
    # one ulp past B and the polar factor raised DomainError
    @example(qn=(0, 3, 0), alpha=0.9921875, beta=0.3125, tilt=1.0, mass=0.5,
             coupling=Coupling.HALVED)
    def test_negative_gamma_mirror(self, qn, alpha, beta, tilt, mass, coupling):
        # gamma -> -gamma keeps the level to the last bit and swaps the Jacobi
        # parameter pair, so the polar profile reflects about x = 0 up to the
        # parity factor (-1)^n of P_n^(a,b)(-x) = (-1)^n P_n^(b,a)(x)
        gamma = tilt * abs(beta)
        plus, minus = (TestDegeneracy.solve(PotentialParams(alpha, beta, g, mass, coupling), *qn)
                       for g in (gamma, -gamma))
        if isinstance(plus, type):
            assert minus is plus
            return
        assert (minus.energy, minus.angular.B, minus.angular.C) == (
            plus.energy, plus.angular.B, plus.angular.C)
        x = np.linspace(-1.0, 1.0, 101)
        want = (-1.0) ** qn[1] * angular_wavefunction(plus, -x)
        assert angular_wavefunction(minus, x) == pytest.approx(
            want, rel=1e-11, abs=1e-13 * np.max(np.abs(want)))

    def test_angular_finite_at_large_m(self):
        # B = 3000: 2^(a/2) overflows a float, and the product of the factors
        # read inf * 0 = nan at x = +-1; the samples stay finite, vanish at the
        # ends and keep their unit norm
        st = self.state(N=0, n=0, m=3000)
        v = angular_wavefunction(st, np.linspace(-1.0, 1.0, 2001))
        assert np.all(np.isfinite(v)) and v[0] == 0.0 and v[-1] == 0.0
        x, w = np.polynomial.legendre.leggauss(400)
        assert float(np.dot(w, angular_wavefunction(st, x) ** 2)) == pytest.approx(1.0, abs=1e-9)

    def test_mode_orthogonality_fixed_family(self):
        # common strength A = 2 kappa_N (N + l + 1), varying N
        l_eff, A = 1.25, 0.5
        states = []
        for N in range(3):
            kap = A / (2.0 * (N + l_eff + 1.0))
            states.append((N, kap))
        for (N1, k1) in states:
            for (N2, k2) in states:
                val = float(mpmath.quad(
                    lambda r: float(radial_mode(N1, l_eff, k1, float(r)))
                    * float(radial_mode(N2, l_eff, k2, float(r))), [0, mpmath.inf]))
                expect = 1.0 if N1 == N2 else 0.0
                assert val == pytest.approx(expect, abs=2e-9)

    def test_angular_mode_orthogonality_fixed_bc(self):
        B, C = 1.5, 0.5  # integer Jacobi exponents: quadrature is exact
        x, w = np.polynomial.legendre.leggauss(60)
        for n1 in range(3):
            for n2 in range(3):
                val = float(np.dot(w, angular_mode(n1, B, C, x) * angular_mode(n2, B, C, x)))
                expect = 1.0 if n1 == n2 else 0.0
                assert val == pytest.approx(expect, abs=1e-13)

    def test_mode_guards(self):
        with pytest.raises(DomainError):
            radial_mode(0, -0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            radial_mode(0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            radial_mode(0, 1.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            angular_mode(0, 1.0, 2.0, 0.0)  # C > B
        with pytest.raises(DomainError):
            angular_mode(0, 1.0, 0.5, 1.5)  # |x| > 1


class TestNonrelLimit:
    def test_ratio_approaches_one(self):
        for alpha, bound in ((1e-2, 2e-4), (1e-3, 2e-6)):
            for qn in (QuantumNumbers(0, 0, 0), QuantumNumbers(1, 0, 1), QuantumNumbers(0, 1, 2)):
                p = PotentialParams(alpha=alpha, beta=0.0, gamma=0.0, mass=1.0)
                ratio = nonrel_limit_check(p, qn)
                assert abs(ratio - 1.0) <= bound

    def test_exact_ratio_form(self):
        # beta = gamma = 0: ratio = 1 / (1 + a^2 / (4 n'^2))
        p = PotentialParams(alpha=1e-2, beta=0.0, gamma=0.0, mass=1.0)
        st = solve_bound_state(p, QuantumNumbers(0, 0, 0))
        expect = 1.0 / (1.0 + 1e-4 / (4.0 * st.n_prime**2))
        assert nonrel_limit_check(p, QuantumNumbers(0, 0, 0)) == pytest.approx(expect, rel=1e-12)

    def test_zero_alpha_convention(self):
        p = PotentialParams(alpha=0.0, beta=0.0, gamma=0.0, mass=1.0)
        assert nonrel_limit_check(p, QuantumNumbers(0, 0, 0)) == 1.0
