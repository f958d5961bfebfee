import math
from fractions import Fraction

import numpy as np
import pytest

from kgring.errors import DomainError
from kgring.special import jacobi_poly, laguerre_assoc

F = Fraction

# The Rodrigues evaluators below are references for the recurrences: k-fold
# exact differentiation is a genuinely different route, slow on purpose and
# capped in degree.
_RODRIGUES_CAP = 8


def _check_reference_degree(k) -> None:
    if not isinstance(k, int) or not 0 <= k <= _RODRIGUES_CAP:
        raise DomainError(f"reference degree must be an int in 0..{_RODRIGUES_CAP}, got {k!r}")


def laguerre_rodrigues(k: int, a, z):
    """Reference L_k^(a)(z) from k-fold differentiation of s^(k+a) e^{-s}.

    d/ds [s^p e^{-s} f] = s^(p-1) e^{-s} ((p+j) f_j - f_{j-1}) keeps the
    cofactor polynomial f explicit, so Fraction inputs stay exact end to end.
    """
    _check_reference_degree(k)
    coeffs = [1 + a * 0]
    for i in range(k):
        p = a + k - i
        prev_c = coeffs
        coeffs = []
        for j in range(len(prev_c) + 1):
            t = (p + j) * prev_c[j] if j < len(prev_c) else 0
            if j >= 1:
                t = t - prev_c[j - 1]
            coeffs.append(t)
    fact = math.factorial(k)
    acc = 0 * z
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc / fact


def jacobi_rodrigues(k: int, a, b, x):
    """Reference P_k^(a,b)(x) from k-fold differentiation of (1-x)^(k+a) (1+x)^(k+b)."""
    _check_reference_degree(k)
    coeffs = [1 + (a + b) * 0]
    for i in range(k):
        p = a + k - i
        q = b + k - i
        prev_c = coeffs
        coeffs = []
        for j in range(len(prev_c) + 1):
            t = (q - p) * prev_c[j] if j < len(prev_c) else 0
            if j >= 1:
                t = t - (p + q + j - 1) * prev_c[j - 1]
            if j + 1 < len(prev_c):
                t = t + (j + 1) * prev_c[j + 1]
            coeffs.append(t)
    norm = (-2) ** k * math.factorial(k)
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc / norm


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
                    math.lgamma(n + a + 1) - math.lgamma(a + 1) - math.lgamma(n + 1.0)
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
