"""The Sturm pivot count behind the finite-difference oracle, and its bisection drivers.

count_below(diag, off_sq, x) walks the LDL^T pivots of T - x I for a
symmetric tridiagonal T (diagonal d, squared off-diagonal e2):
q_i = (d_i - x) - e2_{i-1}/q_{i-1}. The number of negative pivots equals the
number of eigenvalues strictly below x. Pivots inside (-PIVMIN, PIVMIN) are
pushed to -PIVMIN, the standard guard against division blow-up; it can only
perturb counts at x ulp-close to an eigenvalue, which the bisection drivers
tolerate by construction.

The shifted diagonal t = d - x is formed in numpy (the same IEEE operations,
in the same order, as the scalar expression), so the Python loop is left with
one division, one subtraction and one comparison per positive pivot. Callers
whose diagonal depends on a parameter form it in numpy before the call.

The sweep may stop early, with the count it would have reached. With s a
little above sqrt(max e2), a pivot q >= s followed only by shifted diagonals
t >= 2s(1 + 1e-12) leaves every later pivot above s: the rounded e2/q is at
most s(1 + u), so t - e2/q rounds to more than s, and nothing after it can
count (see Demmel, Dhillon & Ren, ETNA 3, 1995, on the rounding of Sturm
counts). So once past the last shifted diagonal below that threshold, the
sweep checks q >= s there and then every _CHUNK steps, and stops at the first
check that holds. The conversion of e2 to Python floats and the bound s are
made once per matrix by `_OffSq`, which `as_kernel_off_sq` returns; a plain
array or list is converted on each call.

Every probe is a pivot sweep, so the drivers spend as few as they can
without changing a result: `bisect` walks the midpoint tree of a bracket, and
`within_bounds` lets it skip the midpoints whose answer a verified guess (a
coarser grid's value) already implies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# the kernel that runs, as reported in run records
BACKEND = "python"

_PIVMIN = 1e-290
# the tail bound's floor (it matters only for an all-zero off-diagonal) and
# the steps swept between tail checks once the last non-dominant diagonal is past
_TAIL_FLOOR = 1e-280
_CHUNK = 512
# the bracket width, relative to max(scale, |x|), at which `bisect` stops
_REL_TOL = 1e-14


class _OffSq(list):
    """Squared off-diagonal as Python floats behind a leading 0.0, with its tail bound.

    The leading 0.0 makes the first pivot one more loop step: from a
    previous pivot of 1.0 it gives t_0 - 0.0 / 1.0 = t_0 exactly. `bound`
    is s = sqrt(max e2) (1 + 1e-12) + floor, NaN or inf when e2 holds one.
    Its length is n, not n - 1, so it is no off-diagonal for a second
    wrapping (`as_kernel_off_sq` passes a prepared one through unchanged).
    """

    __slots__ = ("bound",)

    def __init__(self, off_sq):
        e2 = np.asarray(off_sq, dtype=float)
        super().__init__([0.0] + e2.tolist())
        self.bound = math.sqrt(float(e2.max(initial=0.0))) * (1.0 + 1e-12) + _TAIL_FLOOR


def _decided_end(t, s: float) -> int:
    """Pivots to sweep before the tail may be dropped.

    One past the last shifted diagonal that is not >= 2s(1 + 1e-12) (a NaN
    is not), and at least 1; all of t when its last entry is not, or when s
    is not finite.
    """
    n = t.shape[0]
    thr = 2.0 * s * (1.0 + 1e-12)
    if not (n and math.isfinite(thr) and t[-1] >= thr):
        return n
    dominant = (t >= thr)[::-1]
    j = int(dominant.argmin())  # the first False, from the end
    return 1 if dominant[j] else n - j


def count_below(diag, off_sq, x) -> int:
    """Number of eigenvalues strictly below x; `off_sq` is the squared off-diagonal."""
    t = np.asarray(diag, dtype=float) - x
    e2 = off_sq if type(off_sq) is _OffSq else _OffSq(off_sq)
    s = e2.bound
    n = t.shape[0]
    end = _decided_end(t, s)
    start, q, count = 0, 1.0, 0
    ie = iter(e2)
    while True:
        # zip takes from t's chunk first, so ie advances exactly one per step
        for ti, ei in zip(t[start:end].tolist(), ie):
            q = ti - ei / q
            if q < _PIVMIN:
                if q > -_PIVMIN:
                    q = -_PIVMIN
                count += 1
        if end >= n or q >= s:
            return count
        start, end = end, end + _CHUNK


def as_kernel_off_sq(off_sq):
    """A squared off-diagonal prepared once for a matrix that `count_below` probes at many x.

    Idempotent: an off-diagonal already prepared is returned as it is.
    """
    return off_sq if type(off_sq) is _OffSq else _OffSq(off_sq)


def bisect(below, lo: float, hi: float, scale: float = 1.0) -> float:
    """Midpoint of the final bracket of a monotone predicate's crossing.

    `below(x)` is true left of the crossing and false right of it; `below(lo)`
    and `not below(hi)` are taken as given. Halves (lo, hi) until it is no
    wider than _REL_TOL * max(scale, |lo|, |hi|) or the midpoint rounds onto
    an end.
    """
    while hi - lo > _REL_TOL * max(scale, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def within_bounds(below, lo: float, hi: float, bounds, scale: float = 1.0):
    """`below` that answers without a probe outside verified bounds.

    `bounds` = (a, b) is a guess at an interval around the crossing. Each
    side starts half its width from its centre (at least the resolution
    _REL_TOL * max(scale, |centre|) that `bisect` stops at) and moves out
    fourfold until one probe confirms it: below(a) true, below(b) false. A
    side pushed back to lo or hi without confirming implies nothing.
    For a monotone `below` the answers outside (a, b) are then already known,
    so a bisection over the returned predicate visits the same midpoints and
    returns the same float as over `below`, with fewer probes; a wrong guess
    costs probes, never accuracy.
    """
    a, b = (float(v) for v in bounds)
    centre = 0.5 * (a + b)
    if not math.isfinite(centre):
        return below
    half = max(0.5 * abs(b - a), _REL_TOL * max(scale, abs(centre)))

    def confirmed(step: float, edge: float, want: bool) -> float:
        while True:
            x = min(max(centre + step, lo), hi)
            if below(x) == want:
                return x
            if x == edge:
                return -math.inf if want else math.inf
            step *= 4.0

    known_lo = confirmed(-half, lo, True)
    known_hi = confirmed(half, hi, False)

    def probe(x: float) -> bool:
        if x <= known_lo:
            return True
        if x >= known_hi:
            return False
        return below(x)

    return probe


def eigenvalue_indexed(diag, off, k: int, bounds=None) -> float:
    """k-th smallest eigenvalue of the symmetric tridiagonal (diag, off).

    Sturm bisection inside the Gershgorin enclosure: count_below(x) <= k
    exactly while x <= lambda_k, so the midpoint test needs one pivot sweep
    and no eigenvectors. `bounds` = (a, b) is an optional guess at an
    interval around lambda_k (say, the same eigenvalue on a coarser grid);
    it is checked before use (see `within_bounds`) and changes only how many
    sweeps run, not the returned float.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.shape[0]
    if not 0 <= k < n:
        raise DomainError(f"eigenvalue index {k} outside 0..{n - 1}")
    if e.shape[0] != n - 1:
        raise DomainError("off-diagonal length must be n - 1")
    e2 = as_kernel_off_sq(e * e)
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    span = max(hi - lo, 1.0)
    lo -= 1e-12 * span
    hi += 1e-12 * span

    def below(x: float) -> bool:
        return count_below(d, e2, x) <= k

    if bounds is not None:
        below = within_bounds(below, lo, hi, bounds)
    return bisect(below, lo, hi)
