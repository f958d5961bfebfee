"""Pure-Python Sturm pivot counting; mirror of the compiled kernel.

count_below walks the LDL^T pivots of T - x I for a symmetric tridiagonal T
(diagonal d, squared off-diagonal e2): q_i = (d_i - x) - e2_{i-1}/q_{i-1}.
The number of negative pivots equals the number of eigenvalues strictly
below x. Pivots inside (-PIVMIN, PIVMIN) are pushed to -PIVMIN, the standard
guard against division blow-up; it can only perturb counts at x ulp-close to
an eigenvalue, which the bisection drivers tolerate by construction.

The shifted diagonal t = d - x is formed in numpy (the same IEEE operations,
in the same order, as the scalar expression), so the Python loop is left with
one division, one subtraction and one comparison per positive pivot. Callers
whose diagonal depends on a parameter form it in numpy before the call.

Unlike the compiled kernel, the sweep may stop early, with the count it
would have reached. With s a little above sqrt(max e2), a pivot q >= s
followed only by shifted diagonals t >= 2s(1 + 1e-12) leaves every later
pivot above s: the rounded e2/q is at most s(1 + u), so t - e2/q rounds to
more than s, and nothing after it can count (see Demmel, Dhillon & Ren,
ETNA 3, 1995, on the rounding of Sturm counts). So once past the last
shifted diagonal below that threshold, the sweep checks q >= s there and
then every _CHUNK steps, and stops at the first check that holds. The
conversion of e2 to Python floats and the bound s are made once per matrix
by `_OffSq`, which `kernels.as_kernel_off_sq` returns; a plain array or list
is converted on each call.
"""

import math

import numpy as np

_PIVMIN = 1e-290
# the tail bound's floor (it matters only for an all-zero off-diagonal) and
# the steps swept between tail checks once the last non-dominant diagonal is past
_TAIL_FLOOR = 1e-280
_CHUNK = 512


class _OffSq(list):
    """Squared off-diagonal as Python floats behind a leading 0.0, with its tail bound.

    The leading 0.0 makes the first pivot one more loop step: from a
    previous pivot of 1.0 it gives t_0 - 0.0 / 1.0 = t_0 exactly. `bound`
    is s = sqrt(max e2) (1 + 1e-12) + floor, NaN or inf when e2 holds one.
    This form is private to this kernel: its length is n, not n - 1, so it
    is no off-diagonal for the compiled kernel or for a second wrapping
    (`kernels.as_kernel_off_sq` passes a prepared one through unchanged).
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
