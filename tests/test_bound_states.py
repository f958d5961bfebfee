import math
from fractions import Fraction

import numpy as np
import pytest

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
    azimuthal_wavefunction,
    effective_l,
    nonrel_limit_check,
    potential_value,
    radial_energy,
    radial_mode,
    radial_nu_problem,
    radial_wavefunction,
    solve_bound_state,
)
from kgring.nu import quantize, solution_chain
from kgring.special import gauss_laguerre_scaled, gauss_legendre

F = Fraction


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

    def test_quantum_number_guards(self):
        with pytest.raises(DomainError):
            QuantumNumbers(-1, 0, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(0, -2, 0)
        with pytest.raises(DomainError):
            QuantumNumbers(0, 0, 1.5)


class TestPotentialValue:
    def test_literal_form(self):
        p = PotentialParams(alpha=-2.0, beta=0.5, gamma=0.25, mass=1.0)
        r, th = 2.0, math.pi / 3.0
        s, c = math.sin(th), math.cos(th)
        expect = -2.0 / r + (0.5 + 0.25 * c) / (r * r * s * s)
        assert potential_value(p, r, th) == pytest.approx(expect, rel=1e-15)

    def test_domain(self):
        p = PotentialParams(alpha=1.0, beta=0.0, gamma=0.0, mass=1.0)
        with pytest.raises(DomainError):
            potential_value(p, 0.0, 1.0)
        with pytest.raises(DomainError):
            potential_value(p, 1.0, 0.0)
        with pytest.raises(DomainError):
            potential_value(p, 1.0, math.pi)


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

    def test_negative_gamma_same_l(self):
        a = effective_l(1, F(4), F(4), 0)
        b = effective_l(1, F(4), F(-4), 0)
        assert a.l_eff == b.l_eff and a.C == b.C

    def test_complex_u(self):
        with pytest.raises(ComplexU):
            effective_l(0, 0, 5, 0)
        with pytest.raises(ComplexU):
            effective_l(1, F(1, 2), 2, 0)

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
        want = quantize(prob, chain.branch, 2)
        assert float(chain.branch.lambda_bar) == pytest.approx(float(want), rel=1e-9)

    def test_quantization_consistency_angular(self):
        from kgring import angular_nu_problem

        st = solve_bound_state(self.ring(), QuantumNumbers(0, 2, 1))
        prob = angular_nu_problem(st.params, st.energy, 1, st.separation_lambda)
        chain = solution_chain(prob)
        want = quantize(prob, chain.branch, 2)
        assert float(chain.branch.lambda_bar) == pytest.approx(float(want), rel=1e-9)


class TestWavefunctions:
    def state(self, N=1, n=1, m=1, gamma=0.02):
        p = PotentialParams(alpha=0.2, beta=0.05, gamma=gamma, mass=1.0)
        return solve_bound_state(p, QuantumNumbers(N, n, m))

    def test_radial_zero_at_origin(self):
        st = self.state()
        assert radial_wavefunction(st, 0.0) == 0.0

    def test_radial_norm(self):
        st = self.state(N=2)
        rule = gauss_laguerre_scaled(300, 2.0 * st.kappa)
        total = rule.integrate(lambda r: radial_wavefunction(st, r) ** 2)
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
        rule = gauss_legendre(400)
        total = rule.integrate(lambda x: angular_wavefunction(st, x) ** 2)
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

    def test_negative_gamma_mirror(self):
        # flipping gamma swaps the Jacobi parameter pair, so the polar
        # profile reflects about x = 0 up to the parity factor (-1)^n
        plus = self.state(gamma=0.02)
        minus = self.state(gamma=-0.02)
        x = np.linspace(-1.0, 1.0, 101)
        assert angular_wavefunction(minus, x) == pytest.approx(
            (-1.0) ** minus.numbers.n * angular_wavefunction(plus, -x),
            rel=1e-11,
            abs=1e-13,
        )

    def test_mode_orthogonality_fixed_family(self):
        # common strength A = 2 kappa_N (N + l + 1), varying N
        l_eff, A = 1.25, 0.5
        states = []
        for N in range(3):
            kap = A / (2.0 * (N + l_eff + 1.0))
            states.append((N, kap))
        for (N1, k1) in states:
            for (N2, k2) in states:
                rule = gauss_laguerre_scaled(220, k1 + k2)
                val = rule.integrate(
                    lambda r: radial_mode(N1, l_eff, k1, r) * radial_mode(N2, l_eff, k2, r)
                )
                expect = 1.0 if N1 == N2 else 0.0
                assert val == pytest.approx(expect, abs=2e-9)

    def test_angular_mode_orthogonality_fixed_bc(self):
        B, C = 1.5, 0.5  # integer Jacobi exponents: quadrature is exact
        rule = gauss_legendre(60)
        for n1 in range(3):
            for n2 in range(3):
                val = rule.integrate(
                    lambda x: angular_mode(n1, B, C, x) * angular_mode(n2, B, C, x)
                )
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

    def test_azimuthal(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 7)
        vals = azimuthal_wavefunction(2, phi)
        assert np.abs(vals) == pytest.approx(np.full(7, 1.0 / math.sqrt(2.0 * math.pi)))
        assert vals[0] == pytest.approx(vals[-1])  # periodic over one turn
        with pytest.raises(DomainError):
            azimuthal_wavefunction(0.5, 0.0)


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
