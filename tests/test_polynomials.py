import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kgring.errors import DegreeError, DomainError, NotAPerfectSquare
from kgring.polynomials import (
    REL_TOL,
    Poly,
    format_poly,
    perfect_square_root,
    quad_discriminant,
    scalar_sqrt,
)

F = Fraction


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        p = Poly([1, 2, 0, 0])
        assert p.degree == 1
        assert p.values == (1.0, 2.0)

    def test_empty_is_zero(self):
        assert Poly([]).is_zero

    def test_zero_constant_keeps_degree_zero(self):
        p = Poly([0, 0, 0])
        assert p.degree == 0 and p.is_zero

    def test_exact_track_for_ints_and_fractions(self):
        p = Poly([F(1, 2), 3])
        assert p.is_exact
        assert p.exact == (F(1, 2), F(3))

    def test_float_drops_exact_track(self):
        p = Poly([0.5, 3])
        assert not p.is_exact
        assert p.exact is None

    def test_exact_coefficient_beyond_float_range(self):
        # the float track cannot hold it: a typed error, not an OverflowError
        with pytest.raises(DomainError):
            Poly([1, 10**400])
        with pytest.raises(DomainError):
            Poly([F(-(10**400), 3)])
        assert Poly([F(1, 10**400)]).values == (0.0,)  # underflow is fine

    def test_coefficient_beyond_degree(self):
        p = Poly([1, 2])
        assert p.coefficient(7) == 0
        assert isinstance(p.coefficient(7), Fraction)
        with pytest.raises(IndexError):
            p.coefficient(-1)


class TestArithmetic:
    def test_add_sub(self):
        a, b = Poly([1, 2, 3]), Poly([4, 5])
        assert a + b == Poly([5, 7, 3])
        assert a - b == Poly([-3, -3, 3])

    def test_add_cancels_leading_term(self):
        a, b = Poly([1, 0, 3]), Poly([0, 0, -3])
        assert (a + b).degree == 0

    def test_mul_poly_and_scalar(self):
        a = Poly([1, 1])
        assert a * a == Poly([1, 2, 1])
        assert a * 3 == Poly([3, 3])
        assert 3 * a == Poly([3, 3])
        assert F(1, 2) * Poly([2, 4]) == Poly([1, 2])

    def test_mixed_exactness_falls_to_float(self):
        p = Poly([1, 2]) + Poly([0.5])
        assert not p.is_exact
        assert p.values == (1.5, 2.0)

    def test_derivative(self):
        assert Poly([5, 3, 2]).derivative() == Poly([3, 4])
        d = Poly([7]).derivative()
        assert d.is_zero and d.is_exact

    def test_exact_evaluation(self):
        p = Poly([F(1, 3), 0, 1])
        v = p(F(1, 2))
        assert isinstance(v, Fraction) and v == F(1, 3) + F(1, 4)
        assert p(0.5) == pytest.approx(float(v))

    def test_eq_hash(self):
        assert Poly([1, 2]) == Poly([F(1), F(2)])
        assert Poly([1.0, 2.0]) == Poly([1, 2])  # value comparison across tracks
        assert hash(Poly([1, 2])) == hash(Poly([1.0, 2.0]))


class TestDiscriminant:
    def test_exact(self):
        assert quad_discriminant(Poly([F(9, 4), -9, 9])) == 0
        assert quad_discriminant(Poly([1, 0, 1])) == -4

    def test_degree_guard(self):
        with pytest.raises(DegreeError):
            quad_discriminant(Poly([0, 0, 0, 1]))


class TestPerfectSquareRoot:
    def test_exact_square(self):
        # 9 r^2 - 9 r + 9/4 = (3 r - 3/2)^2
        q = perfect_square_root(Poly([F(9, 4), -9, 9]))
        assert q == Poly([F(-3, 2), 3])
        assert q.is_exact

    def test_leading_coefficient_normalized_positive(self):
        q = perfect_square_root(Poly([1, -2, 1]))
        assert q.coefficient(1) > 0

    def test_exact_nonzero_disc_rejected(self):
        with pytest.raises(NotAPerfectSquare):
            perfect_square_root(Poly([1, 0, 1]))

    def test_negative_leading_rejected(self):
        with pytest.raises(NotAPerfectSquare):
            perfect_square_root(Poly([-F(9, 4), 9, -9]))

    def test_negative_constant_rejected(self):
        with pytest.raises(NotAPerfectSquare):
            perfect_square_root(Poly([-4]))

    def test_constant_square(self):
        assert perfect_square_root(Poly([F(9, 4)])) == Poly([F(3, 2)])

    def test_irrational_leading_falls_to_float(self):
        # 2 r^2 - 4 r + 2 = (sqrt2 r - sqrt2)^2
        q = perfect_square_root(Poly([2, -4, 2]))
        assert not q.is_exact
        assert q.coefficient(1) == pytest.approx(math.sqrt(2))
        assert q.coefficient(0) == pytest.approx(-math.sqrt(2))

    def test_float_tolerance_path(self):
        # (s - 1.5)^2 with its constant moved: |disc| = 4e-13 is within
        # REL_TOL * 3^2 and accepted, 4e-6 is beyond it and rejected
        p = Poly([2.25 + 1e-13, -3.0, 1.0])
        assert abs(quad_discriminant(p)) <= REL_TOL * 3.0**2
        q = perfect_square_root(p)
        assert q(1.5) == pytest.approx(0.0, abs=1e-6)
        off = Poly([2.25 + 1e-6, -3.0, 1.0])
        assert abs(quad_discriminant(off)) > REL_TOL * 3.0**2
        with pytest.raises(NotAPerfectSquare):
            perfect_square_root(off)

    def test_degree_guard(self):
        with pytest.raises(DegreeError):
            perfect_square_root(Poly([0, 0, 0, 1]))

    @given(
        num=st.integers(min_value=-40, max_value=40),
        den=st.integers(min_value=1, max_value=12),
        c=st.integers(min_value=-30, max_value=30),
    )
    def test_square_then_root_roundtrip(self, num, den, c):
        q = Poly([F(c, 3), F(num, den)])
        if q.coefficient(1) == 0:
            return  # square is constant; covered separately
        r = perfect_square_root(q * q)
        assert r == q or r == -q

    @given(
        a=st.floats(min_value=0.1, max_value=50),
        b=st.floats(min_value=-50, max_value=50),
    )
    def test_float_square_then_root(self, a, b):
        q = Poly([b, a])
        p = q * q
        # the square's own discriminant is within 1e-12 of its scale squared,
        # a thousandth of what perfect_square_root allows
        scale = max(1.0, max(abs(v) for v in p.values))
        assert abs(quad_discriminant(p)) <= 1e-12 * scale * scale
        r = perfect_square_root(p)
        assert r.coefficient(1) == pytest.approx(a, rel=1e-9)
        assert r.coefficient(0) == pytest.approx(b, rel=1e-6, abs=1e-9)


class TestScalarSqrt:
    @pytest.mark.parametrize("x,root", [(0, 0), (9, 3), (F(9, 4), F(3, 2)), (F(1, 10**40), F(1, 10**20)),
                                        (10**300, 10**150)],
                             ids=["0", "9", "9/4", "1e-40", "1e300"])
    def test_perfect_squares_stay_exact(self, x, root):
        got = scalar_sqrt(x)
        assert isinstance(got, Fraction) and got == root

    @pytest.mark.parametrize("x", [2, F(1, 2), F(8, 9), 10**301, 2.25, 0.0, 1e-320, 7.0],
                             ids=["2", "1/2", "8/9", "1e301", "2.25", "0.0", "1e-320", "7.0"])
    def test_everything_else_is_the_float_root(self, x):
        got = scalar_sqrt(x)
        assert type(got) is float and got == math.sqrt(float(x))

    @pytest.mark.parametrize("x", [10**401, F(10**401, 7)], ids=["int", "fraction"])
    def test_beyond_float_range(self, x):
        with pytest.raises(DomainError, match="float range"):
            scalar_sqrt(x)


class TestFormat:
    def test_descending_with_fraction_parenthesized(self):
        s = format_poly(Poly([F(9, 4), -9, 9]), var="r")
        assert s == "9r^2 - 9r + 9/4"
        s2 = format_poly(Poly([0, F(9, 4)]), var="r")
        assert s2 == "(9/4)r"

    def test_unit_and_zero_terms(self):
        assert format_poly(Poly([0, -1, 1])) == "s^2 - s"
        assert format_poly(Poly([0])) == "0"
        assert format_poly(Poly([-3])) == "-3"

    def test_float_coefficients(self):
        assert format_poly(Poly([0.0, -6.0])) == "-6s"
