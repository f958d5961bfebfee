import math
from fractions import Fraction

import numpy as np
import pytest

from kgring.errors import DomainError
from kgring.special import (
    gauss_laguerre_scaled,
    gauss_legendre,
    jacobi_poly,
    jacobi_rodrigues,
    laguerre_assoc,
    laguerre_rodrigues,
    log_gamma,
)

F = Fraction


class TestLaguerre:
    def test_low_orders_closed_form(self):
        z = 0.7
        assert laguerre_assoc(0, 1.0, z) == pytest.approx(1.0)
        assert laguerre_assoc(1, 1.0, z) == pytest.approx(2.0 - z)
        assert laguerre_assoc(2, 1.0, z) == pytest.approx(3.0 - 3.0 * z + 0.5 * z * z)

    def test_exact_rational(self):
        v = laguerre_assoc(2, F(1), F(1, 2))
        assert isinstance(v, Fraction)
        assert v == 3 - F(3, 2) + F(1, 8)

    def test_recurrence_matches_rodrigues(self):
        for k in range(6):
            for a in (0, 1, 3):
                for z in (F(0), F(1, 3), F(7, 2)):
                    assert laguerre_assoc(k, F(a), z) == laguerre_rodrigues(k, F(a), z)

    def test_vectorized(self):
        z = np.linspace(0.0, 5.0, 11)
        out = laguerre_assoc(3, 2.0, z)
        assert out.shape == z.shape
        assert out[0] == pytest.approx(math.comb(5, 3))  # L_k^a(0) = C(k+a, k)

    def test_parameter_guard(self):
        with pytest.raises(DomainError):
            laguerre_assoc(2, -1.5, 0.3)
        with pytest.raises(DomainError):
            laguerre_assoc(-1, 0.0, 0.3)


class TestJacobi:
    def test_value_at_one(self):
        # P_n^(a,b)(1) = C(n + a, n)
        for n in range(5):
            for a, b in ((0.0, 0.0), (1.0, 2.0), (2.5, 0.5)):
                expect = math.exp(
                    log_gamma(n + a + 1) - log_gamma(a + 1) - log_gamma(n + 1.0)
                )
                assert jacobi_poly(n, a, b, 1.0) == pytest.approx(expect, rel=1e-13)

    def test_symmetric_parity(self):
        x = 0.37
        for n in range(6):
            left = jacobi_poly(n, 1.5, 1.5, -x)
            right = jacobi_poly(n, 1.5, 1.5, x)
            assert left == pytest.approx((-1.0) ** n * right, rel=1e-13)

    def test_legendre_special_case(self):
        # a = b = 0 collapses to Legendre: P_2 = (3x^2 - 1)/2
        x = 0.3
        assert jacobi_poly(2, 0.0, 0.0, x) == pytest.approx(0.5 * (3 * x * x - 1))

    def test_recurrence_matches_rodrigues(self):
        for n in range(6):
            for a, b in ((F(0), F(0)), (F(1), F(2)), (F(5, 2), F(1, 2))):
                for x in (F(0), F(1, 3), F(-2, 3), F(1)):
                    assert jacobi_poly(n, a, b, x) == jacobi_rodrigues(n, a, b, x)

    def test_exact_rational(self):
        v = jacobi_poly(2, F(1), F(1), F(1, 2))
        assert isinstance(v, Fraction)

    def test_parameter_guard(self):
        with pytest.raises(DomainError):
            jacobi_poly(2, -1.0, 0.0, 0.3)


class TestLogGamma:
    def test_integer_factorials(self):
        for n in range(1, 20):
            assert log_gamma(n + 1) == pytest.approx(math.log(math.factorial(n)), rel=1e-14)

    def test_half_integers(self):
        # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
        for n in range(8):
            expect = math.log(
                math.factorial(2 * n) * math.sqrt(math.pi) / (4.0**n * math.factorial(n))
            )
            assert log_gamma(n + 0.5) == pytest.approx(expect, rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.2)


class TestGaussLegendre:
    def test_order_five_textbook_values(self):
        rule = gauss_legendre(5)
        inner = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
        outer = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
        expect_x = [-outer, -inner, 0.0, inner, outer]
        w_inner = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
        w_outer = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
        expect_w = [w_outer, w_inner, 128.0 / 225.0, w_inner, w_outer]
        assert rule.nodes == pytest.approx(expect_x, abs=1e-15)
        assert rule.weights == pytest.approx(expect_w, rel=1e-15)

    def test_weight_sum_and_symmetry(self):
        for order in (1, 2, 7, 64, 512):
            rule = gauss_legendre(order)
            assert rule.weights.sum() == pytest.approx(2.0, rel=1e-14)
            assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-15)
            assert np.all(np.diff(rule.nodes) > 0)

    def test_polynomial_exactness(self):
        rule = gauss_legendre(8)  # exact through degree 15
        for deg in range(16):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            got = rule.integrate(lambda x: x**deg)
            assert got == pytest.approx(exact, abs=1e-14)

    def test_smooth_function(self):
        rule = gauss_legendre(40)
        assert rule.integrate(np.cos) == pytest.approx(2.0 * math.sin(1.0), rel=1e-14)


class TestGaussLaguerreScaled:
    @pytest.mark.parametrize("order", [32, 96])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_decaying_moments(self, order, scale):
        rule = gauss_laguerre_scaled(order, scale)
        for k in range(0, 10):
            exact = math.factorial(k) / scale ** (k + 1)
            got = rule.integrate(lambda r: r**k * np.exp(-scale * r))
            assert got == pytest.approx(exact, rel=1e-12)

    def test_high_order_stays_finite(self):
        rule = gauss_laguerre_scaled(512, 1.0)
        assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.weights))
        assert np.all(rule.weights > 0) and np.all(np.diff(rule.nodes) > 0)
        got = rule.integrate(lambda r: np.exp(-r))
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_scale_guard(self):
        with pytest.raises(DomainError):
            gauss_laguerre_scaled(16, 0.0)


class TestQuadratureEntry:
    def test_order_guard(self):
        with pytest.raises(DomainError):
            gauss_legendre(0)
        with pytest.raises(DomainError):
            gauss_legendre(513)

    def test_nodes_cross_check_tridiagonal(self):
        # dual route: Legendre nodes are the eigenvalues of the Jacobi matrix
        order = 24
        rule = gauss_legendre(order)
        j = np.arange(1, order)
        off = j / np.sqrt(4.0 * j * j - 1.0)
        eig = np.linalg.eigvalsh(np.diag(np.zeros(order)) + np.diag(off, 1) + np.diag(off, -1))
        assert rule.nodes == pytest.approx(np.sort(eig), abs=1e-13)
