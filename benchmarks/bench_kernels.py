#!/usr/bin/env python3
"""Time the Sturm counting kernels: compiled extension vs pure Python.

Pivot counting is the inner loop of every finite-difference eigenvalue
bisection (about 40-50 counts per grid level, 120-130 per three-level radial
solve), the one hot spot worth compiling.
Usage:

    python3 benchmarks/bench_kernels.py
"""

import os
import subprocess
import sys
import time

import numpy as np

from kgring import _sturm_py
from kgring.kernels import eigenvalue_indexed

try:
    from kgring import _sturm_cy
except ImportError:
    _sturm_cy = None


def fd_matrix(n: int):
    # radial second-difference operator with a Coulomb well, the same
    # shape the oracle feeds the kernel
    h = 60.0 / (n + 1)
    r = (np.arange(n) + 1.0) * h
    diag = 2.0 / h**2 + 2.0 / r**2 - 0.4 / r
    off_sq = np.full(n - 1, 1.0 / h**4)
    return np.ascontiguousarray(diag), np.ascontiguousarray(off_sq)


def best_of(fn, *args, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_table():
    # each backend gets the off-diagonal prepared once per matrix, as the
    # oracle passes it. Mid-spectrum, every pivot is swept; just below the
    # lowest level the pure kernel stops past the outer turning point
    print("count_below, one probe (best of 7):")
    print(f"{'n':>8} {'probe':>14} {'pure':>12} {'compiled':>12} {'speedup':>9}")
    for n in (4000, 16000, 64000):
        diag, off_sq = fd_matrix(n)
        lowest = eigenvalue_indexed(diag, np.sqrt(off_sq), 0)
        probes = (("mid-spectrum", float(np.median(diag))),
                  ("below level 0", lowest - 1e-9 * abs(lowest)))
        pure_off_sq = _sturm_py._OffSq(off_sq)
        for name, x in probes:
            t_py = best_of(_sturm_py.count_below, diag, pure_off_sq, x)
            if _sturm_cy is None:
                print(f"{n:>8} {name:>14} {t_py * 1e3:>9.3f} ms {'absent':>12}")
                continue
            t_cy = best_of(_sturm_cy.count_below, diag, off_sq, x)
            assert _sturm_py.count_below(diag, pure_off_sq, x) == _sturm_cy.count_below(diag, off_sq, x)
            print(f"{n:>8} {name:>14} {t_py * 1e3:>9.3f} ms {t_cy * 1e3:>9.3f} ms {t_py / t_cy:>8.1f}x")


SOLVE = """
import time
from kgring import GridSpec, PotentialParams, radial_numeric_energy
import kgring
params = PotentialParams(alpha=0.2, beta=0.05, gamma=0.02, mass=1.0)
t0 = time.perf_counter()
radial_numeric_energy(params, 2.1, 0, GridSpec(points=4000, refinement=2))
print(f"{kgring.BACKEND}: {time.perf_counter() - t0:.3f}s")
"""


def solve_table():
    # the forced pure-Python pass is a second backend only when the
    # compiled module imports; otherwise the default pass already ran it
    print("\nend to end, radial_numeric_energy at 4000 points, 2 refinements:")
    passes = ({},) if _sturm_cy is None else ({}, {"KGRING_PURE_PYTHON": "1"})
    for env_extra in passes:
        env = dict(os.environ, **env_extra)
        out = subprocess.run([sys.executable, "-c", SOLVE], capture_output=True,
                             text=True, env=env)
        sys.stdout.write("  " + (out.stdout or out.stderr))


if __name__ == "__main__":
    kernel_table()
    solve_table()
