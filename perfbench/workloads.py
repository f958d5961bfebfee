"""Seeded argument vectors for the three workloads.

Every command comes from `random.Random("<workload>/<seed>")`, so a seed
fixes the whole stream, and successive commands take fresh parameter draws:
no result can be reused from one command to the next. The program only ever
sees the argument vectors built here. Options use the `--name=value` form so
that negative numbers and fractions such as `-1/2` are never read as flags.

The shape of each stream (grid sizes, the order of command kinds, which
commands carry a ComplexU row) is the same for every seed; only the physical
parameters vary. That keeps throughput, latency and certification figures
comparable across seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count

WORKLOADS = ("ring_spectrum", "oracle_verify", "exact_oneshot")

# commands after which a stream's pattern of kinds, formats and error rows
# repeats; throughput is taken per block of this many commands
PERIOD = {"ring_spectrum": 4, "oracle_verify": 1, "exact_oneshot": 8}

# Seeds 1-10 were used while the benchmark was written; a claimed gain must
# also hold on this one.
HELD_OUT_SEED = 104729

# exact_oneshot cycles through these kinds in order: six `nu reduce`
# commands (both targets, every output format) and two `wavefunction`s
EXACT_KINDS = (
    ("radial", "text"), ("angular", "json"), ("wavefunction", "json"),
    ("radial", "csv"), ("angular", "csv"), ("radial", "json"),
    ("angular", "text"), ("wavefunction", "csv"),
)


def _num(x: float) -> str:
    return format(x, ".6g")


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _ring_params(rng: random.Random, gamma_ratio: tuple[float, float], coupling: bool = True):
    """Float couplings around the ring regime; |gamma| = ratio * beta."""
    beta = rng.uniform(0.02, 0.15)
    gamma = _sign(rng) * rng.uniform(*gamma_ratio) * beta
    argv = [
        f"--alpha={_num(_sign(rng) * rng.uniform(0.1, 0.4))}",
        f"--beta={_num(beta)}",
        f"--gamma={_num(gamma)}",
        f"--mass={_num(rng.uniform(0.8, 1.25))}",
    ]
    if coupling:
        argv.append("--coupling=" + ("full" if rng.random() < 0.25 else "halved"))
    return argv


def ring_spectrum(rng: random.Random, i: int) -> list[str]:
    """A 225-row `spectrum` grid at ring couplings.

    Odd commands take |gamma| > beta, where every m = 0 row is ComplexU and
    the command exits 2; even commands converge on every row.
    """
    ratio = (1.2, 2.0) if i % 2 else (0.1, 0.8)
    fmt = "json" if (i // 2) % 2 == 0 else "csv"
    return ["spectrum", *_ring_params(rng, ratio),
            "--Nmax=4", "--nmax=4", "--mmax=4", f"--format={fmt}"]


def oracle_verify(rng: random.Random, i: int, grid: tuple[str, ...] = ()) -> list[str]:
    """A three-row `verify` (m = -1, 0, 1) near the README example.

    The m = 0 row has polar exponents far below 1/2 and fails closed with
    GridTooCoarse on the default grid; the +-1 pair repeats identical oracle
    calls.
    """
    return [
        "verify",
        f"--alpha={_num(0.2 * rng.uniform(0.9, 1.1))}",
        f"--beta={_num(0.05 * rng.uniform(0.8, 1.2))}",
        f"--gamma={_num(_sign(rng) * 0.02 * rng.uniform(0.8, 1.2))}",
        "--mass=1", "--Nmax=0", "--nmax=0", "--mmax=1",
        "--format=" + ("json" if i % 2 == 0 else "csv"), *grid,
    ]


def _frac(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(_sign(rng) * rng.randint(1, top), rng.randint(1, top))


def _radial_exact(rng: random.Random) -> dict:
    # (mass, |eps|, eta) from a Pythagorean triple, so eta = sqrt(mass^2 -
    # eps^2) is rational; s = sqrt(1 + 4 lambda) is rational by construction
    p = rng.randint(2, 7)
    q = rng.randint(1, p - 1)
    d = rng.randint(1, 5)
    legs = [p * p - q * q, 2 * p * q]
    rng.shuffle(legs)
    b = rng.randint(1, 4)
    s = Fraction(rng.randint(b + 1, 4 * b), b)
    return {
        "alpha": _frac(rng), "beta": _frac(rng), "gamma": _frac(rng),
        "mass": Fraction(p * p + q * q, d),
        "epsilon": Fraction(_sign(rng) * legs[0], d),
        "lambda": (s * s - 1) / 4,
    }


def _angular_exact(rng: random.Random, full: bool) -> dict:
    # choose the polar roots B > C > 0 first, then the ring strengths that
    # produce them: m^2 + beta_eff = B^2 + C^2 and |gamma_eff| = 2 B C
    m = rng.randint(-3, 3)
    den = rng.randint(1, 4)
    B = abs(m) + Fraction(rng.randint(1, 3 * den), den)
    C = B * Fraction(rng.randint(1, 7), 8)
    mass = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    eps = mass * Fraction(rng.randint(-7, 7), 8)
    c = (eps + mass) * (2 if full else 1)
    return {
        "alpha": _frac(rng),
        "beta": (B * B + C * C - m * m) / c,
        "gamma": _sign(rng) * 2 * B * C / c,
        "mass": mass, "epsilon": eps, "m": m,
        "lambda": Fraction(rng.randint(0, 40), rng.randint(1, 4)),
    }


def exact_oneshot(rng: random.Random, i: int) -> list[str]:
    """One single-state command: `nu reduce` on exact rationals or `wavefunction`."""
    kind, fmt = EXACT_KINDS[i % len(EXACT_KINDS)]
    if kind == "wavefunction":
        return ["wavefunction", *_ring_params(rng, (0.1, 0.8)),
                f"--N={rng.randint(0, 3)}", f"--n={rng.randint(0, 3)}",
                f"--m={rng.randint(-3, 3)}", f"--samples={rng.randint(2000, 4000)}",
                f"--format={fmt}"]
    full = rng.random() < 0.25
    p = _radial_exact(rng) if kind == "radial" else _angular_exact(rng, full)
    argv = ["nu", "reduce", f"--target={kind}"]
    argv += [f"--{key}={p[key]}" for key in ("alpha", "beta", "gamma", "mass", "epsilon", "lambda")]
    if "m" in p:
        argv.append(f"--m={p['m']}")
    argv.append("--coupling=" + ("full" if full else "halved"))
    degree = rng.choice((None, 0, 1, 2, 3))
    if degree is not None:
        argv.append(f"--degree={degree}")
    argv.append(f"--format={fmt}")
    return argv


_MAKERS = {"ring_spectrum": ring_spectrum, "oracle_verify": oracle_verify,
           "exact_oneshot": exact_oneshot}


def stream(workload: str, seed: int):
    """Endless, deterministic sequence of argument vectors for one workload."""
    make = _MAKERS[workload]
    rng = random.Random(f"{workload}/{seed}")
    for i in count():
        yield make(rng, i)


def warmup(workload: str, seed: int) -> list[str]:
    """One command of the workload's kind, drawn apart from the measured stream.

    The verify warm-up runs on the coarsest grid the CLI accepts, so set-up
    stays a fraction of a second.
    """
    rng = random.Random(f"{workload}/{seed}/warmup")
    if workload == "oracle_verify":
        return oracle_verify(rng, 0, grid=("--points=100", "--refine=1"))
    return _MAKERS[workload](rng, 0)
