# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled Sturm pivot counting for symmetric tridiagonal matrices.

Semantics are defined by the pure-Python mirror in _sturm_py.py; keep the two
in lockstep (tests/test_kernels.py checks that both define the same public
functions). The one function, count_below, takes contiguous float64 buffers
(off_sq holds the squared off-diagonal) and sweeps every pivot. The pure
mirror may stop early, once no later pivot can count, and returns the same
count; it also takes the off-diagonal as `kernels.as_kernel_off_sq` prepares
it for that backend.
"""

_PIVMIN = 1e-290
cdef double PIVMIN = 1e-290


def count_below(double[::1] diag, double[::1] off_sq, double x):
    cdef Py_ssize_t i, n = diag.shape[0]
    cdef int count = 0
    cdef double q = diag[0] - x
    if -PIVMIN < q < PIVMIN:
        q = -PIVMIN
    if q < 0.0:
        count = 1
    with nogil:
        for i in range(1, n):
            q = diag[i] - x - off_sq[i - 1] / q
            if -PIVMIN < q < PIVMIN:
                q = -PIVMIN
            if q < 0.0:
                count += 1
    return count
