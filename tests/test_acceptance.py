"""Acceptance gate: one test per contract criterion, one pass/fail line each.

Every criterion asserts its stated tolerance and (where stated) its time
budget. Run with `pytest tests/test_acceptance.py -v -s` to see the
[PASS]/[FAIL] lines on a green run; pytest shows them on any failure.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest

from kgring import (
    Coupling,
    GridSpec,
    PotentialParams,
    QuantumNumbers,
    angular_mode,
    angular_numeric_lambda,
    angular_nu_problem,
    angular_wavefunction,
    nonrel_limit_check,
    ode_residual,
    radial_mode,
    radial_numeric_energy,
    radial_nu_problem,
    radial_wavefunction,
    solution_chain,
    solve_bound_state,
)

GOLDEN = Path(__file__).parent / "golden"
RING = PotentialParams(alpha=0.2, beta=0.05, gamma=0.02, mass=1.0)


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def _fsqrt(q: F) -> F:
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    assert num * num == q.numerator and den * den == q.denominator
    return F(num, den)


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "kgring", *args],
                          capture_output=True, cwd=Path(__file__).parent.parent)


# -- criterion 1: closed-form reduction, coefficient-exact ---------------------


def test_criterion_1_symbolic_reduction():
    t0 = time.perf_counter()

    # radial chains on rational data: eta = sqrt(M^2 - eps^2) rational by
    # construction, l integer, alpha a negative rational (attractive literal)
    radial_grid = [
        (F(5), F(4), F(-2)),
        (F(5), F(3), F(-1, 2)),
        (F(13), F(12), F(-3)),
        (F(5, 4), F(3, 4), F(-1)),
    ]
    for mass, eps, alpha in radial_grid:
        eta = _fsqrt(mass * mass - eps * eps)
        for l in (0, 1, 2):
            for coupling, factor in ((Coupling.HALVED, 1), (Coupling.FULL, 2)):
                params = PotentialParams(alpha=alpha, beta=F(0), gamma=F(0),
                                         mass=mass, coupling=coupling)
                c = factor * (eps + mass)
                lam = F(l * (l + 1))
                chain = solution_chain(radial_nu_problem(params, eps, lam))
                b = chain.branch
                k_lo = -c * alpha - 2 * eta * F(2 * l + 1, 2)
                k_hi = -c * alpha + 2 * eta * F(2 * l + 1, 2)
                assert list(chain.candidates) == [k_lo, k_hi]
                assert b.k == k_lo and b.sign == -1
                assert b.pi.exact == (F(l + 1), -eta)
                assert b.tau.exact == (F(2 * l + 2), -2 * eta)
                assert b.lambda_bar == -c * alpha - 2 * eta * (l + 1)
                q = chain.quantization
                assert (q.constant, q.linear, q.quadratic) == (0, 2 * eta, 0)
                for N in range(4):
                    assert q.evaluate(N) == 2 * eta * N
                assert chain.phi.roots == (F(0),)
                assert chain.phi.exponents == (F(l + 1),)
                assert chain.phi.rate_linear == -eta

    # polar chains on rational data: m, beta_eff, gamma_eff chosen so both
    # u = sqrt((m^2+beta_eff)^2 - gamma_eff^2) and B = sqrt((m^2+beta_eff+u)/2)
    # come out rational; u = 0 collapses the two k candidates into one
    angular_grid = [
        (1, F(4), F(4), F(3), F(2), F(1), F(20)),
        (1, F(9), F(6), F(8), F(3), F(1), F(15)),
        (1, F(9, 4), F(3), F(5, 4), F(3, 2), F(1), F(45, 2)),
        (0, F(8), F(8), F(0), F(2), F(2), F(20)),
    ]
    for m, be, ge, u, B, C, lam in angular_grid:
        # mass 1 at eps 1 makes the energy coupling exactly 2
        params = PotentialParams(alpha=F(0), beta=be / 2, gamma=ge / 2, mass=F(1))
        chain = solution_chain(angular_nu_problem(params, F(1), m, lam))
        b = chain.branch
        p = m * m + be
        k_lo = (2 * lam - p - u) / 2
        expect = [k_lo] if u == 0 else [k_lo, (2 * lam - p + u) / 2]
        assert list(chain.candidates) == expect
        assert b.k == k_lo
        assert b.pi.exact == (-C, -B)
        assert b.tau.exact == (-2 * C, -2 - 2 * B)
        assert b.lambda_bar == k_lo - B
        q = chain.quantization
        assert (q.constant, q.linear, q.quadratic) == (0, 1 + 2 * B, 1)
        for n in range(4):
            assert q.evaluate(n) == (1 + 2 * B) * n + n * n
        assert chain.phi.roots == (F(-1), F(1))
        assert chain.phi.exponents == ((B - C) / 2, (B + C) / 2)

    dt = time.perf_counter() - t0
    ok = dt < 1.0
    _report(ok, "criterion-1 symbolic-reduction",
            f"28 rational chains coefficient-exact in {dt:.3f}s (budget 1s)")
    assert ok


# -- criterion 2: energies against the finite-difference oracle ----------------


def test_criterion_2_energy_oracle():
    t0 = time.perf_counter()
    grid = GridSpec(points=4000, refinement=2)
    worst = 0.0
    for alpha in (0.1, 0.2):
        for beta, gamma in ((0.0, 0.0), (0.05, 0.0), (0.05, 0.02)):
            params = PotentialParams(alpha=alpha, beta=beta, gamma=gamma, mass=1.0)
            for N, n, m in ((0, 0, 1), (1, 0, 1), (0, 1, 1)):
                st = solve_bound_state(params, QuantumNumbers(N, n, m))
                eps_fd = radial_numeric_energy(params, float(st.separation_lambda), N, grid)
                worst = max(worst, abs(st.energy - eps_fd) / float(params.mass))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 60.0
    _report(ok, "criterion-2 energy-oracle",
            f"18 levels, worst |eps - eps_fd|/M = {worst:.3e} (tol 1e-5), {dt:.1f}s (budget 60s)")
    assert worst <= 1e-5
    assert dt < 60.0


# -- criterion 3: separation constant against the polar oracle -----------------


def test_criterion_3_angular_oracle():
    t0 = time.perf_counter()
    grid = GridSpec(points=2000, refinement=2)
    worst = 0.0
    count = 0
    for beta, gamma in ((0.0, 0.0), (0.05, 0.0), (0.05, 0.02)):
        params = PotentialParams(alpha=0.2, beta=beta, gamma=gamma, mass=1.0)
        # the m = 0 rows put the ring's endpoint exponents below 1/2
        for N, n, m in ((0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 0), (0, 1, 0)):
            st = solve_bound_state(params, QuantumNumbers(N, n, m))
            lam_fd = angular_numeric_lambda(float(st.angular.beta_eff),
                                            float(st.angular.gamma_eff), m, n, grid)
            worst = max(worst, abs(float(st.separation_lambda) - lam_fd))
            count += 1
    # free polar equation: lambda = l (l + 1) for l = m + n
    for m, n in ((1, 0), (1, 1), (2, 1)):
        l = m + n
        lam_fd = angular_numeric_lambda(0.0, 0.0, m, n, grid)
        worst = max(worst, abs(l * (l + 1) - lam_fd))
        count += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 30.0
    _report(ok, "criterion-3 angular-oracle",
            f"{count} eigenvalues, worst |lam - lam_fd| = {worst:.3e} (tol 1e-5), "
            f"{dt:.1f}s (budget 30s)")
    assert worst <= 1e-5
    assert dt < 30.0


# -- criterion 4: normalization and orthogonality ------------------------------


def test_criterion_4_norms_and_orthogonality():
    t0 = time.perf_counter()
    worst_norm = 0.0
    for N, n, m in itertools.product(range(4), range(4), range(-2, 3)):
        st = solve_bound_state(RING, QuantumNumbers(N, n, m))
        r_norm = float(mpmath.quad(
            lambda r: float(radial_wavefunction(st, float(r))) ** 2, [0, mpmath.inf]))
        a_norm = float(mpmath.quad(
            lambda x: float(angular_wavefunction(st, float(x))) ** 2, [-1, 1]))
        worst_norm = max(worst_norm, abs(r_norm - 1.0), abs(a_norm - 1.0))

    # radial modes sharing one strength A = 2 kappa_N (N + l + 1) and one l
    # are eigenfunctions of a single operator: cross-integrals vanish
    l_eff, A = 1.25, 0.5
    kap = [A / (2.0 * (N + l_eff + 1.0)) for N in range(4)]
    worst_cross = 0.0
    for i, j in itertools.combinations(range(4), 2):
        val = float(mpmath.quad(
            lambda r: float(radial_mode(i, l_eff, kap[i], float(r)))
            * float(radial_mode(j, l_eff, kap[j], float(r))), [0, mpmath.inf]))
        worst_cross = max(worst_cross, abs(val))
    # polar modes at fixed (B, C) across degrees
    B, C = 1.5, 0.5
    for i, j in itertools.combinations(range(4), 2):
        val = float(mpmath.quad(
            lambda x: float(angular_mode(i, B, C, float(x)))
            * float(angular_mode(j, B, C, float(x))), [-1, 1]))
        worst_cross = max(worst_cross, abs(val))

    dt = time.perf_counter() - t0
    ok = worst_norm <= 1e-8 and worst_cross <= 1e-8
    _report(ok, "criterion-4 norms-orthogonality",
            f"80 states unit-norm (worst dev {worst_norm:.3e}), "
            f"12 cross-integrals (worst {worst_cross:.3e}), tol 1e-8, {dt:.1f}s")
    assert worst_norm <= 1e-8
    assert worst_cross <= 1e-8


# -- criterion 5: nonrelativistic limit ----------------------------------------


def test_criterion_5_nonrelativistic_limit():
    t0 = time.perf_counter()
    results = []
    for alpha, bound in ((1e-2, 2e-4), (1e-3, 2e-6)):
        params = PotentialParams(alpha=alpha, beta=0.0, gamma=0.0, mass=1.0)
        worst = 0.0
        for N, n, m in ((0, 0, 0), (1, 0, 1), (0, 2, 1), (2, 1, 2)):
            ratio = nonrel_limit_check(params, QuantumNumbers(N, n, m))
            worst = max(worst, abs(ratio - 1.0))
        results.append((alpha, worst, bound))
    dt = time.perf_counter() - t0
    ok = all(w <= b for _, w, b in results)
    detail = ", ".join(f"alpha={a:g}: dev {w:.3e} (tol {b:g})" for a, w, b in results)
    _report(ok, "criterion-5 nonrelativistic-limit", f"{detail}, {dt:.1f}s")
    for _, worst, bound in results:
        assert worst <= bound


# -- criterion 6: node counts and defect convergence ---------------------------


def _interior_sign_changes(vals: np.ndarray) -> int:
    live = vals[np.abs(vals) > 1e-9 * np.abs(vals).max()]
    return int(np.count_nonzero(np.sign(live[1:]) != np.sign(live[:-1])))


def test_criterion_6_nodes_and_residuals():
    t0 = time.perf_counter()
    for N, n, m in ((3, 0, 1), (0, 3, 1), (2, 2, 1)):
        st = solve_bound_state(RING, QuantumNumbers(N, n, m))
        r_out = (4.0 * st.n_prime + 25.0) / (2.0 * st.kappa)
        r = np.linspace(1e-6, r_out, 20001)
        assert _interior_sign_changes(radial_wavefunction(st, r)) == N
        x = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 20001)
        assert _interior_sign_changes(angular_wavefunction(st, x)) == n

    # closed-form factors plugged back into their equations: the sampled
    # defect is finite-difference truncation, so halving h divides it by 4
    st = solve_bound_state(RING, QuantumNumbers(1, 1, 1))
    eps, mass = st.energy, 1.0
    lam = float(st.separation_lambda)
    a_coup = RING.coupling_factor * (eps + mass) * abs(float(RING.alpha))

    def c_radial(rv):
        return (eps * eps - mass * mass) - lam / (rv * rv) + a_coup / rv

    mm = st.numbers.m ** 2 + float(st.angular.beta_eff)
    ge = float(st.angular.gamma_eff)

    def c_polar(xv):
        s = 1.0 - xv * xv
        return (lam * s - mm - ge * xv + 1.0) / (s * s)

    r_out = (4.0 * st.n_prime + 25.0) / (2.0 * st.kappa)
    ratios = []
    for pts in (1001,):
        r1 = np.linspace(0.02 * r_out, 0.6 * r_out, pts)
        r2 = np.linspace(0.02 * r_out, 0.6 * r_out, 2 * pts - 1)
        ratios.append(ode_residual(radial_wavefunction(st, r1), r1, c_radial)
                      / ode_residual(radial_wavefunction(st, r2), r2, c_radial))
        x1 = np.linspace(-0.9, 0.9, pts)
        x2 = np.linspace(-0.9, 0.9, 2 * pts - 1)

        def w_of(xs):
            return angular_wavefunction(st, xs) * np.sqrt(1.0 - xs * xs)

        ratios.append(ode_residual(w_of(x1), x1, c_polar)
                      / ode_residual(w_of(x2), x2, c_polar))
    dt = time.perf_counter() - t0
    ok = all(3.2 <= q <= 4.8 for q in ratios)
    _report(ok, "criterion-6 nodes-residuals",
            f"node counts exact; defect ratios {', '.join(f'{q:.2f}' for q in ratios)} "
            f"in [3.2, 4.8], {dt:.1f}s")
    assert ok


# -- criterion 7: accidental degeneracy at beta = gamma = 0 --------------------


def test_criterion_7_degeneracy():
    t0 = time.perf_counter()
    params = PotentialParams(alpha=0.2, beta=0.0, gamma=0.0, mass=1.0)
    groups = {}
    for N, n in itertools.product(range(5), range(5)):
        for m in range(-4, 5):
            n_prime = N + abs(m) + n + 1
            if n_prime <= 6:
                st = solve_bound_state(params, QuantumNumbers(N, n, m))
                groups.setdefault(n_prime, []).append(st.energy)
    worst = 0.0
    members = 0
    for vals in groups.values():
        members += len(vals)
        worst = max(worst, (max(vals) - min(vals)) / abs(max(vals)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-14
    _report(ok, "criterion-7 degeneracy",
            f"{members} levels in {len(groups)} n'-groups, worst relative spread "
            f"{worst:.1e} (tol 1e-14), {dt:.1f}s")
    assert ok


# -- criterion 8: command-line contract ----------------------------------------


def test_criterion_8_cli_contract():
    t0 = time.perf_counter()
    coulomb = _run_cli("spectrum", "--alpha", "0.2", "--beta", "0", "--gamma", "0",
                       "--mass", "1", "--Nmax", "1", "--nmax", "0", "--mmax", "1",
                       "--format", "csv")
    free = _run_cli("spectrum", "--alpha", "0", "--beta", "0", "--gamma", "0",
                    "--mass", "1", "--Nmax", "1", "--nmax", "0", "--mmax", "1")
    ring = _run_cli("spectrum", "--alpha", "0.2", "--beta", "0", "--gamma", "5",
                    "--mass", "1", "--Nmax", "1", "--nmax", "1", "--mmax", "0")
    usage = _run_cli("spectrum", "--beta", "0", "--gamma", "0", "--mass", "1")

    golden_ok = (
        coulomb.stdout == (GOLDEN / "spectrum_coulomb.csv").read_bytes()
        and free.stdout == (GOLDEN / "spectrum_free.json").read_bytes()
        and ring.stdout == (GOLDEN / "spectrum_ring.json").read_bytes()
    )
    exits_ok = (coulomb.returncode, free.returncode, ring.returncode,
                usage.returncode) == (0, 2, 2, 1)

    sweep = _run_cli("spectrum", "--alpha", "0.2", "--beta", "0.05", "--gamma", "0.02",
                     "--mass", "1", "--Nmax", "1", "--nmax", "1", "--mmax", "1")
    rows = json.loads(sweep.stdout)
    floats = [v for r in rows for v in r.values() if isinstance(v, float)]
    roundtrip_ok = (
        bool(floats)
        and all(float(f"{v:.15g}") == v for v in floats)
        and json.dumps(rows, indent=2) + "\n" == sweep.stdout.decode()
    )

    dt = time.perf_counter() - t0
    ok = golden_ok and exits_ok and roundtrip_ok
    _report(ok, "criterion-8 cli-contract",
            f"3 golden outputs byte-identical, exit codes (0,2,2,1), "
            f"{len(floats)} floats round-trip, {dt:.1f}s")
    assert golden_ok
    assert exits_ok
    assert roundtrip_ok
