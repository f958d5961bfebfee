"""Orthogonal polynomials, log-gamma, and Gaussian quadrature.

Three-term recurrences are the workhorses; they accept scalars (including
Fractions, which propagate exactly) or numpy arrays in the argument. The
Rodrigues-formula evaluators exist only to cross-check the recurrences by a
genuinely different route (k-fold exact differentiation), so they are slow on
purpose and capped in degree.

Quadrature nodes come from Newton's method on the recurrences. The Laguerre
rule is built directly for plain-dr integrals on (0, inf): the e^{+t}
rescaling of the classical weights is folded in from the start by running the
recurrence on y_j = L_j(t) e^{-t/2}, whose values stay in float range up to
order 512 where L_j itself would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NoConvergence
from .kernels import eigenvalue_indexed

_MAX_ORDER = 512
_RODRIGUES_CAP = 8


def _check_degree(k) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"degree must be a non-negative int, got {k!r}")


def laguerre_assoc(k: int, a, z):
    """Associated Laguerre polynomial L_k^(a)(z) by upward recurrence.

    `z` may be a scalar or ndarray; Fractions in (a, z) propagate exactly.
    Requires a > -1.
    """
    _check_degree(k)
    if not float(a) > -1.0:
        raise DomainError(f"Laguerre parameter must exceed -1, got {a}")
    prev = 1 + z * 0
    if k == 0:
        return prev
    curr = 1 + a - z
    for j in range(1, k):
        prev, curr = curr, ((2 * j + 1 + a - z) * curr - (j + a) * prev) / (j + 1)
    return curr


def jacobi_poly(k: int, a, b, x):
    """Jacobi polynomial P_k^(a,b)(x) by upward recurrence, a, b > -1."""
    _check_degree(k)
    if not (float(a) > -1.0 and float(b) > -1.0):
        raise DomainError(f"Jacobi parameters must exceed -1, got {a}, {b}")
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


def laguerre_rodrigues(k: int, a, z):
    """Reference L_k^(a)(z) from k-fold differentiation of s^(k+a) e^{-s}.

    d/ds [s^p e^{-s} f] = s^(p-1) e^{-s} ((p+j) f_j - f_{j-1}) keeps the
    cofactor polynomial f explicit, so Fraction inputs stay exact end to end.
    Capped at small k; this exists to check `laguerre_assoc`, not to be fast.
    """
    _check_degree(k)
    if k > _RODRIGUES_CAP:
        raise DomainError(f"reference evaluator capped at degree {_RODRIGUES_CAP}")
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
    _check_degree(k)
    if k > _RODRIGUES_CAP:
        raise DomainError(f"reference evaluator capped at degree {_RODRIGUES_CAP}")
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


def log_gamma(x) -> float:
    """ln Gamma(x) for x > 0."""
    xf = float(x)
    if not xf > 0.0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return math.lgamma(xf)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def _check_order(order: int) -> None:
    if not isinstance(order, int) or not 1 <= order <= _MAX_ORDER:
        raise DomainError(f"order must be in 1..{_MAX_ORDER}, got {order!r}")


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n, P_n') on x strictly inside (-1, 1)."""
    prev = np.ones_like(x)
    curr = x.copy()
    for j in range(1, n):
        prev, curr = curr, ((2 * j + 1) * x * curr - j * prev) / (j + 1)
    if n == 1:
        dcurr = np.ones_like(x)
    else:
        dcurr = n * (x * curr - prev) / (x * x - 1.0)
    return curr, dcurr


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]: Newton from Chebyshev-like guesses."""
    _check_order(order)
    i = np.arange(1, order + 1)
    x = np.cos(math.pi * (i - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_pair(order, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise NoConvergence("Legendre node iteration did not settle")
    x = 0.5 * (x - x[::-1])  # exact +-pair symmetry
    _, dp = _legendre_pair(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order_idx = np.argsort(x)
    return QuadratureRule(order, x[order_idx], w[order_idx])


_LN_RENORM = 250.0 * math.log(10.0)


def _laguerre_renorm_pair(n: int, t: np.ndarray):
    """(p_n, p_{n-1}, shift) with L_j(t) = p_j e^{shift}, renormalized in place.

    Plain L_j reaches ~e^{t/2} magnitudes near its largest root, so the raw
    recurrence overflows past order ~350; rescaling both carriers whenever one
    crosses 1e250 keeps doubles finite and the per-element shift exact.
    """
    prev = np.ones_like(t)
    curr = 1.0 - t
    shift = np.zeros_like(t)
    for j in range(1, n):
        prev, curr = curr, ((2 * j + 1 - t) * curr - j * prev) / (j + 1)
        big = np.abs(curr) > 1e250
        if np.any(big):
            prev = np.where(big, prev * 1e-250, prev)
            curr = np.where(big, curr * 1e-250, curr)
            shift = np.where(big, shift + _LN_RENORM, shift)
    return curr, prev, shift


def gauss_laguerre_scaled(order: int, scale: float) -> QuadratureRule:
    """Gauss rule for integrals of decaying functions against plain dr on (0, inf).

    Nodes are Laguerre roots mapped by r = t/scale; weights already include
    the e^{+t}/scale factor, so sum w_i f(r_i) targets the unweighted
    integral of f. Exact for f = e^{-scale r} x (polynomial of degree
    <= 2 order - 1). `scale` should match f's decay rate for fast convergence.
    """
    _check_order(order)
    if not float(scale) > 0.0:
        raise DomainError(f"scale must be positive, got {scale}")
    n = order
    # nodes = eigenvalues of the Jacobi matrix (diag 2j+1, off-diag j), then
    # two Newton polish sweeps on y_n = L_n e^{-t/2}; the e^{shift - t/2}
    # factors cancel in the Newton ratio
    diag = 2.0 * np.arange(n) + 1.0
    off = np.arange(1.0, n)
    t = np.array([eigenvalue_indexed(diag, off, k) for k in range(n)])
    for _ in range(2):
        pn, pnm, _ = _laguerre_renorm_pair(n, t)
        dpn = n * (pn - pnm) / t - 0.5 * pn
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = pn / dpn
        t = t - np.where(np.isfinite(dt), dt, 0.0)
    if np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
        raise NoConvergence("Laguerre nodes collapsed or crossed")
    pnp1, _, shift = _laguerre_renorm_pair(n + 1, t)
    s = float(scale)
    ln_y = np.log(np.abs(pnp1)) + shift - 0.5 * t
    ln_w = np.log(t) - 2.0 * ln_y - 2.0 * math.log(n + 1) - math.log(s)
    w = np.exp(ln_w)
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise NoConvergence("Laguerre weights are not finite positive")
    return QuadratureRule(order, t / s, w)

