#!/usr/bin/env python3
"""Per-phase times of `spectrum` and `wavefunction` commands, in-process.

Each command runs through `kgring.cli` as `main` runs it, with stdout sent to
a buffer, and its time is split three ways:

- parse: the argparse parse of the argument vector;
- compute: `spectrum`'s `cli._rows` (the solves and the row records), or
  `wavefunction`'s solve and its radial and polar sample evaluations;
- emit: the rest of the command (output rows, encoding, the write).

The commands match perfbench's `ring_spectrum` (a 225-row grid at ring
couplings) and `exact_oneshot`'s `wavefunction` (3,000 samples here).
Usage, from the root of a checkout (point PYTHONPATH at another checkout's
`src` to time that one):

    PYTHONPATH=src python3 benchmarks/bench_emit.py [repetitions]
"""

import contextlib
import io
import json
import sys
import time

import kgring.cli as cli

SPECTRUM = ["spectrum", "--alpha=0.23", "--beta=0.07", "--gamma=-0.03", "--mass=1.1",
            "--Nmax=4", "--nmax=4", "--mmax=4"]
WAVEFUNCTION = ["wavefunction", "--alpha=0.23", "--beta=0.07", "--gamma=-0.03", "--mass=1.1",
                "--N=1", "--n=2", "--m=2", "--samples=3000"]
COMMANDS = {f"{argv[0]} {fmt}": [*argv, f"--format={fmt}"]
            for argv in (SPECTRUM, WAVEFUNCTION) for fmt in ("json", "csv")}

_compute = {"s": 0.0, "depth": 0}


def _timed(fn):
    # counts the outermost call only: _rows calls solve_bound_state
    def wrapper(*args, **kwargs):
        _compute["depth"] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _compute["depth"] -= 1
            if not _compute["depth"]:
                _compute["s"] += time.perf_counter() - start
    return wrapper


for _name in ("_rows", "solve_bound_state", "radial_wavefunction", "angular_wavefunction"):
    setattr(cli, _name, _timed(getattr(cli, _name)))


def run(argv):
    """(parse, compute, emit) seconds and the stdout bytes of one command."""
    start = time.perf_counter()
    args = cli._parser().parse_args(argv)
    parsed = time.perf_counter()
    _compute["s"] = 0.0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args.func(args)
    total = time.perf_counter() - parsed
    return parsed - start, _compute["s"], total - _compute["s"], len(out.getvalue().encode())


def main(reps: int) -> None:
    result = {}
    for label, argv in COMMANDS.items():
        run(argv)  # warm-up
        runs = sorted((run(argv) for _ in range(reps)), key=lambda t: sum(t[:3]))
        median = runs[len(runs) // 2]
        result[label] = {
            "median_run_ms": dict(zip(("parse", "compute", "emit"),
                                      (round(1e3 * t, 3) for t in median[:3]))),
            "stdout_bytes": median[3],
        }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30)
