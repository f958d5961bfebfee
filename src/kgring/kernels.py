"""Backend dispatch for the hot tridiagonal kernels.

The compiled extension is preferred; the pure-Python mirror is the fallback
and can be forced with KGRING_PURE_PYTHON=1 (checked once, at import). Each
backend exposes one function, with identical semantics:

    count_below(diag, off_sq, x) -> #eigenvalues < x

Arrays must be contiguous float64 (the compiled kernel is typed; use
`as_kernel_array`). A matrix probed at many x should pass its squared
off-diagonal through `as_kernel_off_sq` once: the pure-Python kernel then
converts it to Python floats, and bounds it, once per matrix rather than once
per probe. The compiled kernel sweeps every pivot; the pure one stops once
the rest of the sweep provably cannot count (see `_sturm_py`), with the same
count. The bisection drivers below are shared by both backends: counting is
the only part worth compiling. Every probe is a pivot sweep, so the drivers
spend as few as they can without changing a result: `bisect` walks the
midpoint tree of a bracket, and `within_bounds` lets it skip the midpoints
whose answer a verified guess (a coarser grid's value) already implies.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import DomainError

if os.environ.get("KGRING_PURE_PYTHON"):
    from . import _sturm_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _sturm_cy as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _sturm_py as _impl

        BACKEND = "python"

count_below = _impl.count_below


def as_kernel_array(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def as_kernel_off_sq(off_sq):
    """A squared off-diagonal in the form the active backend sweeps fastest.

    Idempotent: an off-diagonal already prepared is returned as it is.
    """
    if BACKEND == "python":
        return off_sq if type(off_sq) is _impl._OffSq else _impl._OffSq(off_sq)
    return as_kernel_array(off_sq)


def bisect(below, lo: float, hi: float, rel_tol: float, scale: float = 1.0) -> float:
    """Midpoint of the final bracket of a monotone predicate's crossing.

    `below(x)` is true left of the crossing and false right of it; `below(lo)`
    and `not below(hi)` are taken as given. Halves (lo, hi) until it is no
    wider than rel_tol * max(scale, |lo|, |hi|) or the midpoint rounds onto
    an end.
    """
    while hi - lo > rel_tol * max(scale, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def within_bounds(below, lo: float, hi: float, bounds, rel_tol: float, scale: float = 1.0):
    """`below` that answers without a probe outside verified bounds.

    `bounds` = (a, b) is a guess at an interval around the crossing. Each
    side starts half its width from its centre (at least the resolution
    rel_tol * max(scale, |centre|) that `bisect` stops at) and moves out
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
    half = max(0.5 * abs(b - a), rel_tol * max(scale, abs(centre)))

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


def eigenvalue_indexed(diag, off, k: int, rel_tol: float = 1e-14, bounds=None) -> float:
    """k-th smallest eigenvalue of the symmetric tridiagonal (diag, off).

    Sturm bisection inside the Gershgorin enclosure: count_below(x) <= k
    exactly while x <= lambda_k, so the midpoint test needs one pivot sweep
    and no eigenvectors. `bounds` = (a, b) is an optional guess at an
    interval around lambda_k (say, the same eigenvalue on a coarser grid);
    it is checked before use (see `within_bounds`) and changes only how many
    sweeps run, not the returned float.
    """
    d = as_kernel_array(diag)
    e = as_kernel_array(off)
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
        below = within_bounds(below, lo, hi, bounds, rel_tol)
    return bisect(below, lo, hi, rel_tol)
