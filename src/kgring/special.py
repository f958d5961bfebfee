"""Orthogonal polynomials for the closed-form wavefunctions.

Three-term recurrences evaluate the associated Laguerre and Jacobi factors;
they accept scalars (including Fractions, which propagate exactly) or numpy
arrays in the argument.
"""

from __future__ import annotations

from .errors import check_int, check_real


def laguerre_assoc(k: int, a, z):
    """Associated Laguerre polynomial L_k^(a)(z) by upward recurrence.

    `z` may be a scalar or ndarray; Fractions in (a, z) propagate exactly.
    Requires a > -1.
    """
    check_int("degree", k, 0)
    check_real("a", a, above=-1)
    prev = 1 + z * 0
    if k == 0:
        return prev
    curr = 1 + a - z
    for j in range(1, k):
        prev, curr = curr, ((2 * j + 1 + a - z) * curr - (j + a) * prev) / (j + 1)
    return curr


def jacobi_poly(k: int, a, b, x):
    """Jacobi polynomial P_k^(a,b)(x) by upward recurrence, a, b > -1."""
    check_int("degree", k, 0)
    check_real("a", a, above=-1)
    check_real("b", b, above=-1)
    prev = 1 + x * 0
    if k == 0:
        return prev
    curr = (a - b) / 2 + (2 + a + b) * x / 2
    for n in range(2, k + 1):
        c = 2 * n + a + b
        a1 = 2 * n * (n + a + b) * (c - 2)
        a2 = (c - 1) * (a * a - b * b)
        a3 = (c - 1) * c * (c - 2)
        a4 = 2 * (n + a - 1) * (n + b - 1) * c
        prev, curr = curr, ((a2 + a3 * x) * curr - a4 * prev) / a1
    return curr
