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
"""

import numpy as np

_PIVMIN = 1e-290


def count_below(diag, off_sq, x) -> int:
    it = iter((np.asarray(diag, dtype=float) - x).tolist())
    q = next(it)
    count = 0
    if q < _PIVMIN:
        if q > -_PIVMIN:
            q = -_PIVMIN
        count = 1
    for ti, ei in zip(it, np.asarray(off_sq, dtype=float).tolist()):
        q = ti - ei / q
        if q < _PIVMIN:
            if q > -_PIVMIN:
                q = -_PIVMIN
            count += 1
    return count
