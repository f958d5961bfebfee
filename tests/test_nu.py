"""Reduction-chain unit tests, mostly on the exact rational track."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kgring.bound_states import (
    Coupling,
    PotentialParams,
    angular_nu_problem,
    radial_nu_problem,
)
from kgring.errors import (
    DegeneracyWarning,
    DegreeError,
    DomainError,
    NoPhysicalBranch,
    NoRealK,
    UnclassifiedSigma,
)
from kgring.nu import (
    Family,
    NUProblem,
    branches,
    classify,
    phi_parameters,
    select_physical,
    sigma_roots,
    solution_chain,
)
from kgring.polynomials import REL_TOL, Poly

F = Fraction


def radial_case():
    # mass 5, eps 4, alpha -2, lam 2: eta^2 = 9, coupling c = 9
    p = PotentialParams(alpha=-2, beta=0, gamma=0, mass=5)
    return radial_nu_problem(p, 4, 2)


def angular_case():
    # beta_eff = gamma_eff = 4 at eps 0, m = 1, lam 20: u = 3, B = 2, C = 1
    p = PotentialParams(alpha=-1, beta=4, gamma=4, mass=1)
    return angular_nu_problem(p, 0, 1, 20)


_FRACTION = st.builds(lambda s, p, q: F(s * p, q), st.sampled_from((-1, 1)),
                      st.integers(1, 9), st.integers(1, 9))
_COUPLING = st.sampled_from(list(Coupling))


@st.composite
def _exact_radial(draw):
    """(params, eps, lam) with rational eta = sqrt(mass^2 - eps^2), from a
    Pythagorean triple, and rational sqrt(1 + 4 lam)."""
    p = draw(st.integers(2, 7))
    q, d = draw(st.integers(1, p - 1)), draw(st.integers(1, 5))
    eps = F(draw(st.sampled_from((-1, 1))) * draw(st.sampled_from((p * p - q * q, 2 * p * q))), d)
    b = draw(st.integers(1, 4))
    s = F(draw(st.integers(b + 1, 4 * b)), b)
    params = (draw(_FRACTION), 0, 0, F(p * p + q * q, d), draw(_COUPLING))
    return "radial", params, eps, (s * s - 1) / 4


@st.composite
def _exact_angular(draw):
    """(params, eps, m, lam) whose polar roots B > C > 0 are chosen first:
    m^2 + beta_eff = B^2 + C^2 and |gamma_eff| = 2 B C."""
    m, den = draw(st.integers(-3, 3)), draw(st.integers(1, 4))
    B = abs(m) + F(draw(st.integers(1, 3 * den)), den)
    C = B * F(draw(st.integers(1, 7)), 8)
    mass = F(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    eps = mass * F(draw(st.integers(-7, 7)), 8)
    coupling = draw(_COUPLING)
    c = (eps + mass) * (2 if coupling is Coupling.FULL else 1)
    gamma = draw(st.sampled_from((-1, 1))) * 2 * B * C / c
    params = (draw(_FRACTION), (B * B + C * C - m * m) / c, gamma, mass, coupling)
    return "angular", params, eps, m, F(draw(st.integers(0, 40)), draw(st.integers(1, 4)))


def _chain(case, conv):
    """The problem's chain with every literal passed through conv."""
    target, (alpha, beta, gamma, mass, coupling), eps, *rest = case
    params = PotentialParams(conv(alpha), conv(beta), conv(gamma), conv(mass), coupling)
    if target == "radial":
        problem = radial_nu_problem(params, conv(eps), conv(rest[0]))
    else:
        problem = angular_nu_problem(params, conv(eps), rest[0], conv(rest[1]))
    return solution_chain(problem)


class TestProblemConstruction:
    def test_radial_polynomials(self):
        prob = radial_case()
        assert prob.sigma == Poly([0, 1])
        assert prob.tau_tilde == Poly([0])
        assert prob.sigma_tilde == Poly([-2, 18, -9])
        assert prob.sigma_tilde.is_exact

    def test_angular_polynomials(self):
        prob = angular_case()
        assert prob.sigma == Poly([1, 0, -1])
        assert prob.tau_tilde == Poly([0, -2])
        assert prob.sigma_tilde == Poly([15, -4, -20])

    def test_full_coupling_doubles_effective_strengths(self):
        p = PotentialParams(alpha=-1, beta=4, gamma=4, mass=1, coupling=Coupling.FULL)
        prob = angular_nu_problem(p, 0, 1, 20)
        assert prob.sigma_tilde == Poly([20 - 1 - 8, -8, -20])

    def test_degree_guards(self):
        with pytest.raises(DegreeError):
            NUProblem(Poly([0]), Poly([0]), Poly([1]))
        with pytest.raises(DegreeError):
            NUProblem(Poly([0, 0, 0, 1]), Poly([0]), Poly([1]))
        with pytest.raises(DegreeError):
            NUProblem(Poly([0, 1]), Poly([0, 0, 1]), Poly([1]))


class TestRadialChain:
    def test_candidates_exact(self):
        ks = solution_chain(radial_case()).candidates
        assert ks == (9, 27)
        assert all(isinstance(k, Fraction) for k in ks)

    def test_branches_at_physical_k(self):
        plus, minus = branches(radial_case(), F(9))
        assert minus.pi == Poly([2, -3])
        assert minus.tau == Poly([4, -6])
        assert minus.tau_prime == -6
        assert minus.lambda_bar == 6
        assert minus.physical and not plus.physical
        assert plus.pi == Poly([-1, 3])

    def test_chain_selects_lower_k(self):
        chain = solution_chain(radial_case())
        assert chain.family is Family.LAGUERRE
        assert chain.candidates == (9, 27)
        assert chain.branch.k == 9
        assert chain.branch.sign == -1
        assert chain.branch.lambda_bar == 6

    def test_chain_keeps_every_branch(self):
        # both signs per candidate, + first, equal to a fresh per-k build;
        # the selected branch and its phi are among them, built once
        chain = solution_chain(radial_case())
        assert chain.branches == (*branches(radial_case(), F(9)), *branches(radial_case(), F(27)))
        assert [(b.k, b.sign) for b in chain.branches] == [(9, 1), (9, -1), (27, 1), (27, -1)]
        assert any(b is chain.branch for b in chain.branches)
        assert chain.phi == phi_parameters(radial_case(), chain.branch)

    def test_float_rule_beyond_float_range(self):
        # exact rules take any degree; a float one cannot, and says so
        q = solution_chain(radial_case()).quantization
        assert q.evaluate(10**400) == 6 * 10**400
        p = PotentialParams(alpha=1, beta=0, gamma=0, mass=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            fq = solution_chain(radial_nu_problem(p, 0, F(-1, 8))).quantization
        assert isinstance(fq.linear, float)
        with pytest.raises(DomainError, match="float range"):
            fq.evaluate(10**400)

    def test_quantization_rule(self):
        chain = solution_chain(radial_case())
        q = chain.quantization
        assert (q.constant, q.linear, q.quadratic) == (0, 6, 0)
        assert q.evaluate(2) == 12
        # lambda_bar matches a degree-1 polynomial: the (N=1, l=1) level of
        # the eps=4 coupling
        assert chain.branch.lambda_bar == q.evaluate(1)

    def test_phi_factor(self):
        chain = solution_chain(radial_case())
        assert chain.phi.roots == (0,)
        assert chain.phi.exponents == (2,)  # l_eff + 1
        assert chain.phi.rate_linear == -3  # decays like e^(-3 r)
        assert chain.phi.rate_quadratic == 0

    def test_high_k_branch_inadmissible_weight(self):
        # k = 27's decreasing-tau branch has pi(0) < 0: negative root exponent
        _, minus = branches(radial_case(), F(27))
        assert minus.physical
        phi = phi_parameters(radial_case(), minus)
        assert float(phi.exponents[0]) < 0


class TestAngularChain:
    def test_candidates_exact(self):
        assert solution_chain(angular_case()).candidates == (16, 19)

    def test_selected_branch(self):
        chain = solution_chain(angular_case())
        assert chain.family is Family.JACOBI
        assert chain.branch.k == 16
        assert chain.branch.pi == Poly([-1, -2])
        assert chain.branch.tau == Poly([-2, -6])
        assert chain.branch.lambda_bar == 14

    def test_quantization_rule(self):
        chain = solution_chain(angular_case())
        q = chain.quantization
        assert (q.constant, q.linear, q.quadratic) == (0, 5, 1)
        # lambda_bar = 14 corresponds to degree n = 2 (B = 2: l = 4, lam = 20)
        assert q.evaluate(2) == 14

    def test_phi_exponents(self):
        chain = solution_chain(angular_case())
        assert chain.phi.roots == (-1, 1)
        # (B - C)/2 at x = -1 and (B + C)/2 at x = +1
        assert chain.phi.exponents == (F(1, 2), F(3, 2))
        assert chain.phi.rate_linear == 0


class TestDegenerateLegendre:
    def problem(self):
        p = PotentialParams(alpha=-1, beta=0, gamma=0, mass=1)
        return angular_nu_problem(p, 0, 0, 2)

    def test_single_candidate(self):
        assert solution_chain(self.problem()).candidates == (2,)

    def test_radicand_vanishes_identically(self):
        rad = self.problem().radicand(F(2))
        assert rad == Poly([0])

    def test_chain_dedupes_identical_branches(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no DegeneracyWarning expected
            chain = solution_chain(self.problem())
        assert chain.branch.tau == Poly([0, -2])
        assert chain.branch.lambda_bar == 2
        # the dedupe picks one, but Chain.branches still lists both signs
        assert [(b.sign, b.pi) for b in chain.branches] == [(1, Poly([0])), (-1, Poly([0]))]
        assert chain.branch is chain.branches[0]
        q = chain.quantization
        assert (q.constant, q.linear, q.quadratic) == (0, 1, 1)
        assert q.evaluate(1) == 2  # lam = l(l+1) at l = 1

    def test_select_physical_warns_on_distinct_ties(self):
        from kgring.nu import NUBranch

        low = NUBranch(k=F(2), sign=1, pi=Poly([0]), tau=Poly([0, -2]), lambda_bar=F(2))
        high = NUBranch(k=F(6), sign=-1, pi=Poly([1, -1]), tau=Poly([2, -4]), lambda_bar=F(5))
        with pytest.warns(DegeneracyWarning):
            picked = select_physical([low, high])
        assert picked is high  # larger lambda_bar wins

    def test_select_physical_raises_without_decreasing_tau(self):
        from kgring.nu import NUBranch

        flat = NUBranch(k=F(1), sign=1, pi=Poly([1]), tau=Poly([2]), lambda_bar=F(1))
        with pytest.raises(NoPhysicalBranch):
            select_physical([flat])


class TestHermiteRoute:
    def problem(self):
        return NUProblem(Poly([1]), Poly([0]), Poly([3, 0, -1]))

    def test_chain(self):
        chain = solution_chain(self.problem())
        assert chain.family is Family.HERMITE
        assert chain.candidates == (3,)
        assert chain.branch.pi == Poly([0, -1])
        assert chain.branch.tau == Poly([0, -2])
        assert chain.branch.lambda_bar == 2
        assert chain.phi.rate_quadratic == F(-1, 2)
        assert chain.quantization.linear == 2
        # lambda_bar = 2 is the n = 1 oscillator level
        assert chain.quantization.evaluate(1) == 2

    def test_sigma_has_no_roots(self):
        assert sigma_roots(self.problem()) == ()


class TestFailureModes:
    def test_no_physical_branch(self):
        prob = NUProblem(Poly([0, 1]), Poly([0, 4]), Poly([0, -1, 4]))
        pair = branches(prob, F(1))
        assert [b.tau_prime for b in pair] == [0, 0]
        # the message lists every branch's tau', so no caller rebuilds them;
        # k = 1 is the only candidate
        with pytest.raises(NoPhysicalBranch) as info:
            solution_chain(prob)
        assert str(info.value) == "k = 1, sign +: tau' = 0; k = 1, sign -: tau' = 0"

    def test_k_condition_beyond_float_range(self):
        # m = 1e80 leaves an irrational k whose float overflows: typed error
        p = PotentialParams(alpha=1, beta=F(1, 3), gamma=F(1, 7), mass=1)
        with pytest.raises(DomainError, match="float range"):
            solution_chain(angular_nu_problem(p, 0, 10**80, 2))
        # on the float track m^2 itself has no float past |m| ~ 1.3e154
        p = PotentialParams(0.2, 0.05, 0.02, 1.0)
        with pytest.raises(DomainError, match="float range"):
            solution_chain(angular_nu_problem(p, 0.5, 10**160, 2.0))

    def test_no_real_k(self):
        # constant radicand: the k-condition degenerates to 0 = 0
        with pytest.raises(NoRealK):
            solution_chain(NUProblem(Poly([1]), Poly([0]), Poly([0])))
        # disc_k = k^2 + 3 stays positive: no real root at all
        with pytest.raises(NoRealK):
            solution_chain(NUProblem(Poly([0, 1]), Poly([0]), Poly([1, 0, -1])))
        # double root k = 0 exists but leaves radicand = -s^2: not a square
        with pytest.raises(NoRealK):
            solution_chain(NUProblem(Poly([0, 1]), Poly([0]), Poly([F(1, 4), 0, 1])))

    def test_unclassified_sigma(self):
        with pytest.raises(UnclassifiedSigma):
            classify(NUProblem(Poly([1, 0, 1]), Poly([0]), Poly([1])))
        with pytest.raises(UnclassifiedSigma):
            classify(NUProblem(Poly([1, -2, 1]), Poly([0]), Poly([1])))

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(_exact_radial(), _exact_angular()))
    @example(case=("radial", (-2, 0, 0, 5, Coupling.HALVED), 4, 2))  # radial_case()
    def test_float_route_matches_exact(self, case):
        # the float image of an exact problem takes the same branch, with k,
        # tau' and lambda_bar within the engine's own REL_TOL of
        # max(1, |value|): an exact k = 0 comes out of floats as about 1e-14
        exact, floaty = (_chain(case, conv) for conv in (lambda v: v, float))
        assert exact.branch.pi.is_exact and not floaty.branch.pi.is_exact
        assert (floaty.family, floaty.branch.sign) == (exact.family, exact.branch.sign)
        for attr in ("k", "tau_prime", "lambda_bar"):
            want = float(getattr(exact.branch, attr))
            assert getattr(floaty.branch, attr) == pytest.approx(want, rel=REL_TOL, abs=REL_TOL)


class TestOnePass:
    @pytest.mark.parametrize("case", [radial_case, angular_case])
    def test_sigma_roots_once_per_chain(self, case, monkeypatch):
        # the family and every decreasing-tau branch's phi share one root finding
        calls = []
        monkeypatch.setattr("kgring.nu.sigma_roots", lambda p: calls.append(p) or sigma_roots(p))
        problem = case()
        chain = solution_chain(problem)
        assert calls == [problem]
        monkeypatch.undo()
        assert chain.family == classify(problem)
        assert chain.phi == phi_parameters(problem, chain.branch)
