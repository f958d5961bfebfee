"""Session set-up that must run before any test module imports numpy or
applies a `hypothesis` settings decorator."""

import os

from hypothesis import settings

# the suite's eigensolves are small: one OpenBLAS thread spares the first
# test that calls numpy.linalg about a second of thread start-up
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The default profile gives the same verdict on every run: hypothesis's own
# derandomized draws, and no example database to replay an earlier failure.
# HYPOTHESIS_PROFILE=explore draws at random and keeps the database; run it
# (optionally with --hypothesis-seed) to look for new failing draws.
settings.register_profile("explore", settings.get_profile("default"))
settings.register_profile("default", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
