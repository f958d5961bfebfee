"""Session set-up that must run before any test module imports numpy."""

import os

# the suite's eigensolves are small: one OpenBLAS thread spares the first
# test that calls numpy.linalg about a second of thread start-up
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
