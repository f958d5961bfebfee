"""Finite-difference oracle: accuracy, certification, and independence."""

import csv
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kgring.kernels
import kgring.oracle
from kgring import PotentialParams, QuantumNumbers, effective_l, solve_bound_state
from kgring.errors import ComplexU, DomainError, GridTooCoarse, NoBoundState
from kgring.kernels import count_below
from kgring.oracle import (
    GridSpec,
    _angular_level,
    _extrapolate,
    _orders,
    _radial_level,
    angular_numeric_lambda,
    ode_residual,
    radial_numeric_energy,
)


def coulomb(alpha=0.2):
    return PotentialParams(alpha=alpha, beta=0.0, gamma=0.0, mass=1.0)


def polar_lambda_50(beta_eff, gamma_eff, m, n):
    """(n + B)(n + B + 1) of the polar equation, at 50 digits from its float coefficients."""
    with mpmath.workdps(50):
        mm = mpmath.mpf(m * m + beta_eff)
        ge = mpmath.mpf(gamma_eff)
        B = (mpmath.sqrt(mm + ge) + mpmath.sqrt(mm - ge)) / 2
        return float((n + B) * (n + B + 1))


def radial_energy_50(params, lam, N):
    """The Coulomb-like level at separation constant lam, at 50 digits from its float inputs.

    eps = mass (n'^2 - q) / (n'^2 + q) with n' = N + l + 1, l (l + 1) = lam and
    q = (c |alpha|)^2 / 4, c the coupling factor.
    """
    with mpmath.workdps(50):
        l = (mpmath.sqrt(1 + 4 * mpmath.mpf(lam)) - 1) / 2
        npr2 = (N + l + 1) ** 2
        q = (params.coupling_factor * abs(mpmath.mpf(float(params.alpha)))) ** 2 / 4
        return float(mpmath.mpf(float(params.mass)) * (npr2 - q) / (npr2 + q))


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.points == 4000 and g.refinement == 2

    def test_guards(self):
        with pytest.raises(DomainError):
            GridSpec(points=99)
        with pytest.raises(DomainError):
            GridSpec(refinement=-1)


class TestRadialOracle:
    def test_ground_state_matches_closed_form(self):
        got = radial_numeric_energy(coulomb(), 2.0, 0, GridSpec(points=2000, refinement=2))
        assert got == pytest.approx(3.99 / 4.01, abs=1e-9)

    def test_excited_state(self):
        # N = 1, lam = 2: n' = 3
        expect = (9.0 - 0.01) / (9.0 + 0.01)
        got = radial_numeric_energy(coulomb(), 2.0, 1, GridSpec(points=2000, refinement=2))
        assert got == pytest.approx(expect, abs=1e-8)

    def test_fractional_lambda(self):
        p = PotentialParams(alpha=0.2, beta=0.05, gamma=0.02, mass=1.0)
        st = solve_bound_state(p, QuantumNumbers(0, 0, 1))
        got = radial_numeric_energy(
            p, st.separation_lambda, 0, GridSpec(points=2000, refinement=2)
        )
        assert got == pytest.approx(st.energy, abs=1e-8)

    def test_full_coupling(self):
        from kgring import Coupling

        p = PotentialParams(alpha=0.1, beta=0.0, gamma=0.0, mass=1.0, coupling=Coupling.FULL)
        st = solve_bound_state(p, QuantumNumbers(0, 0, 0))
        got = radial_numeric_energy(p, 0.0, 0, GridSpec(points=2000, refinement=2))
        assert got == pytest.approx(st.energy, abs=1e-8)

    def test_no_bound_state(self):
        with pytest.raises(NoBoundState):
            radial_numeric_energy(coulomb(0.0), 0.0, 0, GridSpec(points=200, refinement=0))

    def test_certification_needs_refinement(self):
        with pytest.raises(GridTooCoarse):
            radial_numeric_energy(coulomb(), 2.0, 0, GridSpec(points=200, refinement=0), tol=1e-5)

    def test_certification_drift(self):
        with pytest.raises(GridTooCoarse):
            radial_numeric_energy(
                coulomb(), 2.0, 0, GridSpec(points=100, refinement=1), tol=1e-12
            )

    def test_uncertified_coarse_grid_still_returns(self):
        got = radial_numeric_energy(coulomb(), 2.0, 0, GridSpec(points=400, refinement=1))
        assert got == pytest.approx(3.99 / 4.01, abs=1e-5)

    def test_input_guards(self):
        with pytest.raises(DomainError):
            radial_numeric_energy(coulomb(), -1.0, 0, GridSpec())
        with pytest.raises(DomainError):
            radial_numeric_energy(coulomb(), 2.0, -1, GridSpec())
        # a subnormal coupling underflows the box's length scale: no float
        # grid, not a ZeroDivisionError
        with pytest.raises(DomainError, match="outside float range"):
            radial_numeric_energy(PotentialParams(5e-324, 0, 0, 0.25), 0.0, 0, GridSpec())


def scanned_radial_level(mass, strength, lam, N, r_max, npts):
    """Reference crossing search: every one of the 65 edges probed, then bisection."""
    h = r_max / (npts + 1)
    r = h * np.arange(1, npts + 1)
    dbase = np.ascontiguousarray(2.0 / (h * h) + lam / (r * r))
    dlin = np.ascontiguousarray(-strength / r)
    off_sq = np.full(npts - 1, 1.0 / h ** 4)

    def below_level(eps):
        return count_below(dbase + (eps + mass) * dlin, off_sq, eps * eps - mass * mass) <= N

    edges = np.linspace(-mass * (1.0 - 1e-9), mass * (1.0 - 1e-9), 65)
    flags = [below_level(float(e)) for e in edges]
    for i in range(len(edges) - 1):
        if flags[i] and not flags[i + 1]:
            a, b = float(edges[i]), float(edges[i + 1])
            break
    else:
        raise NoBoundState("no crossing")
    for _ in range(100):
        if b - a <= 1e-14 * mass:
            break
        mid = 0.5 * (a + b)
        if below_level(mid):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


class TestRadialCrossingSearch:
    """Bisecting the window (-mass, mass) directly lands where the eager scan of
    65 edges did, guided or not."""

    @pytest.mark.parametrize("factor", [1, 2])  # halved and full coupling
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_matches_eager_scan(self, N, factor):
        outcomes = []
        for lam in (0.0, 2.0, 2.1479):
            for r_max in (400.0, 40.0, 4.0):
                args = (1.0, factor * 0.2, lam, N, r_max, 300)
                try:
                    want = scanned_radial_level(*args)
                except NoBoundState:
                    with pytest.raises(NoBoundState):
                        _radial_level(*args)
                    outcomes.append("raise")
                    continue
                assert _radial_level(*args) == want
                guesses = ((want, want), (want - 1e-4, want + 1e-4), (want + 1e-3, want + 2e-3),
                           (-1.0, 1.0), (want - 5.0, want - 4.0))
                for bounds in guesses:
                    assert _radial_level(*args, bounds=bounds) == want
                outcomes.append("level")
        assert {"raise", "level"} <= set(outcomes)

    @pytest.mark.parametrize("args", [
        (1.0, 0.2, 2.0, 2, 4.0, 300),  # box too small: no edge binds level 2
        (1.0, 1e9, 0.0, 0, 40.0, 300),  # even the edge at -mass binds level 0
    ])
    def test_no_crossing_raises_with_any_guess(self, args):
        with pytest.raises(NoBoundState):
            scanned_radial_level(*args)
        for bounds in (None, (0.0, 0.0), (-1.0, 1.0), (0.99, 0.999), (-0.999, -0.99)):
            with pytest.raises(NoBoundState):
                _radial_level(*args, bounds=bounds)


class TestAngularOracle:
    def test_legendre_exact_values(self):
        for n, lam in ((1, 2.0), (2, 6.0), (3, 12.0)):
            got = angular_numeric_lambda(0.0, 0.0, 0, n, GridSpec(points=1500, refinement=2))
            assert got == pytest.approx(lam, abs=1e-6)

    def test_associated_legendre(self):
        # m = 1, n = 1: l = 2, lam = 6
        got = angular_numeric_lambda(0.0, 0.0, 1, 1, GridSpec(points=1500, refinement=2))
        assert got == pytest.approx(6.0, abs=1e-6)

    def test_ring_strengths(self):
        ang = effective_l(1, 0.1, 0.04, 1)
        lam = float(ang.separation_lambda)
        got = angular_numeric_lambda(0.1, 0.04, 1, 1, GridSpec(points=1500, refinement=2))
        assert got == pytest.approx(lam, abs=1e-5)

    def test_negative_gamma_same_lambda(self):
        for m in (0, 1):
            up = angular_numeric_lambda(0.1, 0.04, m, 0, GridSpec(points=1000, refinement=2))
            down = angular_numeric_lambda(0.1, -0.04, m, 0, GridSpec(points=1000, refinement=2))
            assert up == pytest.approx(down, abs=1e-7)

    def test_m_zero_fractional_exponents(self):
        # endpoint exponents below 1/2 at m = 0: certified on the default grid
        for beta_eff, gamma_eff, n in ((0.1, 0.04, 0), (0.1, 0.04, 1), (0.04, -0.03, 2),
                                       (0.001, 0.0005, 0)):
            got = angular_numeric_lambda(beta_eff, gamma_eff, 0, n, GridSpec(), tol=1e-5)
            assert got == pytest.approx(polar_lambda_50(beta_eff, gamma_eff, 0, n), abs=1e-7)

    def test_large_m_stays_in_range(self):
        # the weight spans (h/2)^(2a) .. 1 with a ~ |m|/2, beyond float range
        # here; the level works in logs and still certifies, and the base
        # grid grows with sqrt|m| as the mode narrows (4.5e-13 at m = 1000)
        for m in (150, 300, 400, 1000):
            got = angular_numeric_lambda(0.05, 0.02, m, 1, GridSpec(), tol=1e-5)
            want = polar_lambda_50(0.05, 0.02, m, 1)
            assert got == pytest.approx(want, rel=1e-11)

    def test_golden_lambda_fd_closer_to_reference(self):
        # lambda_fd of the +-1 rows of tests/golden/verify_ring.csv as the
        # unfactored scheme printed them; the re-captured digits must sit
        # closer to the 50-digit value, and every row must certify
        before = {(0, 0): 2.14791916645263, (0, 1): 6.24522950537068,
                  (1, 0): 2.14811019008201, (1, 1): 6.24534177159733}
        path = pathlib.Path(__file__).parent / "golden" / "verify_ring.csv"
        rows = [r for r in csv.DictReader(path.read_text().splitlines()) if r["kind"] == "check"]
        assert all(r["ok"] == "true" for r in rows)
        params = PotentialParams(alpha=0.2, beta=0.05, gamma=0.02, mass=1.0)
        for r in rows:
            N, n, m = int(r["N"]), int(r["n"]), int(r["m"])
            if abs(m) != 1:
                continue
            ang = solve_bound_state(params, QuantumNumbers(N, n, m)).angular
            ref = polar_lambda_50(float(ang.beta_eff), float(ang.gamma_eff), m, n)
            assert abs(float(r["lambda_fd"]) - ref) < abs(before[(N, n)] - ref)

    def test_complex_u(self):
        with pytest.raises(ComplexU):
            angular_numeric_lambda(0.0, 5.0, 0, 0, GridSpec(points=200, refinement=0))
        with pytest.raises(ComplexU, match=r"\|gamma_eff\| = 5\.0$"):
            angular_numeric_lambda(0.0, -5.0, 0, 0, GridSpec(points=200, refinement=0))

    def test_certification(self):
        with pytest.raises(GridTooCoarse):
            angular_numeric_lambda(0.0, 0.0, 0, 1, GridSpec(points=1500, refinement=0), tol=1e-5)

    def test_guards(self):
        with pytest.raises(DomainError):
            angular_numeric_lambda(0.0, 0.0, 0, -1, GridSpec())
        with pytest.raises(DomainError):
            angular_numeric_lambda(0.0, 0.0, 0.5, 0, GridSpec())


class TestAngularProperties:
    GRID = GridSpec()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        beta_eff=st.floats(0.0, 0.2),
        # -1 and 1 put gamma_eff at -+(m^2 + beta_eff), where one exponent is 0
        tilt=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
    )
    def test_matches_50_digit_value_and_gamma_symmetry(self, m, n, beta_eff, tilt):
        gamma_eff = tilt * (m * m + beta_eff)
        lam = angular_numeric_lambda(beta_eff, gamma_eff, m, n, self.GRID)
        # 3,000 random draws of this distribution came within 7.2e-10 of the
        # reference, relative; the worst sit at tilts near -+1, where one
        # exponent is small but nonzero
        want = polar_lambda_50(beta_eff, gamma_eff, m, n)
        assert abs(lam - want) <= 5e-9 * max(1.0, abs(want))
        # x -> -x maps the equation to itself with gamma_eff negated, and the
        # levels are built mirror-exact; what remains is the Sturm count's
        # round-off, which sweeps the mirrored matrix from the other end
        flipped = angular_numeric_lambda(beta_eff, -gamma_eff, m, n, self.GRID)
        assert abs(flipped - lam) <= 1e-10 * max(1.0, abs(lam))


class TestLadder:
    """Extrapolation orders and the polar grid's sizes."""

    def test_orders_merge_the_fractional_ones(self):
        assert _orders(4, [2.3, 2.3]) == [2.0, 2.3, 4.0, 6.0]
        assert _orders(4, [3.1, 2.2]) == [2.0, 2.2, 3.1, 4.0]
        assert _orders(2, [1.6]) == [1.6, 2.0]
        assert _orders(3, []) == [2.0, 4.0, 6.0]
        assert _orders(0, [1.6]) == []

    def test_extrapolation_removes_the_given_orders(self):
        # levels of 1 + 3 h^2 + 5 h^2.3 - 7 h^4 at h = 1, 1/2, 1/4, 1/8
        vals = [1.0 + 3.0 * h ** 2 + 5.0 * h ** 2.3 - 7.0 * h ** 4
                for h in (1.0, 0.5, 0.25, 0.125)]
        assert _extrapolate(vals, [2.0, 2.3, 4.0])[-1] == pytest.approx(1.0, abs=1e-13)
        assert abs(_extrapolate(vals, [2.0, 4.0, 6.0])[-1] - 1.0) > 1e-3

    @staticmethod
    def polar_sizes(monkeypatch, m, n, grid=GridSpec()):
        sizes = []
        level = kgring.oracle._angular_level

        def spy(mm, gamma_eff, a, b, n, cells, bounds=None):
            sizes.append(cells)
            return level(mm, gamma_eff, a, b, n, cells, bounds)

        monkeypatch.setattr(kgring.oracle, "_angular_level", spy)
        angular_numeric_lambda(0.05, 0.02, m, n, grid)
        return sizes

    def test_polar_grid_ignores_points(self, monkeypatch):
        want = [100, 200, 400, 800, 1600]
        assert self.polar_sizes(monkeypatch, 1, 0) == want
        assert self.polar_sizes(monkeypatch, 1, 0, GridSpec(points=400)) == want
        assert self.polar_sizes(monkeypatch, 1, 0, GridSpec(points=100, refinement=1)) == want[:4]
        assert self.polar_sizes(monkeypatch, 1, 0, GridSpec(refinement=0)) == want[:3]

    @pytest.mark.parametrize("m, n, base", [(0, 3, 100), (16, 0, 100), (17, 0, 200),
                                            (-150, 1, 400), (1000, 1, 800), (0, 4, 200),
                                            (2, 120, 3100)])
    def test_polar_base_grows_with_m_and_n(self, monkeypatch, m, n, base):
        assert self.polar_sizes(monkeypatch, m, n)[0] == base

    def test_polar_grid_has_a_ceiling(self, monkeypatch):
        # n = 10^5 would need 2.5M cells at level 0: refused before any level is built
        def no_level(*args, **kwargs):
            raise AssertionError("a level was built")

        monkeypatch.setattr(kgring.oracle, "_angular_level", no_level)
        with pytest.raises(DomainError, match="polar cells"):
            angular_numeric_lambda(0.0, 0.0, 0, 10 ** 5, GridSpec())
        with pytest.raises(DomainError, match="polar cells"):
            angular_numeric_lambda(0.0, 0.0, 0, 0, GridSpec(refinement=14))

    def test_radial_grid_has_a_ceiling(self, monkeypatch):
        # refinement 14 would need 65,552,383 points on its finest level, a
        # base of 10^8 as many at level 0: refused before any level is built
        def no_level(*args, **kwargs):
            raise AssertionError("a level was built")

        monkeypatch.setattr(kgring.oracle, "_radial_level", no_level)
        for grid in (GridSpec(refinement=14), GridSpec(points=10 ** 8, refinement=0),
                     GridSpec(points=(1 << 21) + 1, refinement=0)):
            with pytest.raises(DomainError, match="radial points"):
                radial_numeric_energy(coulomb(), 2.0, 0, grid)

        sizes = []

        def spy(mass, strength, lam, N, r_max, npts, bounds=None):
            sizes.append(npts)
            return 0.5

        monkeypatch.setattr(kgring.oracle, "_radial_level", spy)
        radial_numeric_energy(coulomb(), 2.0, 0, GridSpec(points=1 << 21, refinement=0))
        radial_numeric_energy(coulomb(), 2.0, 0, GridSpec(refinement=9))
        assert sizes == [1 << 21] + [4001 * 2 ** j - 1 for j in range(10)]

    @pytest.mark.parametrize("tol", [math.nan, 0, -1, math.inf, True])
    def test_tol_is_checked_before_any_level(self, monkeypatch, tol):
        # a NaN tolerance used to pass every comparison and certify any
        # ladder; 0 and -1 built every level before failing as GridTooCoarse
        def no_level(*args, **kwargs):
            raise AssertionError("a level was built")

        monkeypatch.setattr(kgring.oracle, "_radial_level", no_level)
        monkeypatch.setattr(kgring.oracle, "_angular_level", no_level)
        with pytest.raises(DomainError, match="^tol "):
            radial_numeric_energy(coulomb(), 2.0, 0, GridSpec(), tol=tol)
        with pytest.raises(DomainError, match="^tol "):
            angular_numeric_lambda(0.05, 0.02, 1, 0, GridSpec(), tol=tol)


class TestCertification:
    """Given `tol`, a call either raises GridTooCoarse or returns within tol
    (relative to the route's scale) of the 50-digit value."""

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(0, 3), n=st.integers(0, 3), beta_eff=st.floats(0.0, 0.2),
           tilt=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
           refinement=st.integers(1, 2), tol=st.sampled_from([1e-5, 1e-6, 1e-7]))
    # a zero exponent at either end, and a nonzero one 1e-9 from it, whose
    # order 2 + 2a nearly duplicates order 2
    @example(m=1, n=1, beta_eff=0.1, tilt=1.0, refinement=2, tol=1e-7)
    @example(m=1, n=1, beta_eff=0.1, tilt=-1.0, refinement=2, tol=1e-7)
    @example(m=2, n=2, beta_eff=0.1, tilt=1.0 - 1e-9, refinement=2, tol=1e-7)
    @example(m=2, n=2, beta_eff=0.1, tilt=-(1.0 - 1e-9), refinement=2, tol=1e-7)
    @example(m=1000, n=1, beta_eff=0.1, tilt=1.0 - 1e-9, refinement=2, tol=1e-7)
    def test_polar(self, m, n, beta_eff, tilt, refinement, tol):
        self.check_polar(m, n, beta_eff, tilt, GridSpec(refinement=refinement), tol)

    @pytest.mark.xfail(strict=True, reason="with one endpoint exponent near 0 at m = 1000, "
                                           "n = 30 the default grid returns 2.55e-5 off "
                                           "(relative) with a last correction of 1.7e-7")
    def test_polar_large_m_underreports_near_a_zero_exponent(self):
        self.check_polar(1000, 30, 0.1, 1.0 - 1e-9, GridSpec(), 1e-5)

    @staticmethod
    def check_polar(m, n, beta_eff, tilt, grid, tol):
        gamma_eff = tilt * (m * m + beta_eff)
        want = polar_lambda_50(beta_eff, gamma_eff, m, n)
        try:
            got = angular_numeric_lambda(beta_eff, gamma_eff, m, n, grid, tol=tol)
        except GridTooCoarse:
            return
        assert abs(got - want) <= tol * max(1.0, abs(want))

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.1, 0.4), lam=st.floats(0.0, 2.5), N=st.integers(0, 1),
           tol=st.sampled_from([1e-5, 1e-6, 1e-7]))
    # lam = 0 takes no fractional stage; just above it the stage's order is
    # about 1 and its term about 0; at 3/4 the order reaches 2
    @example(alpha=0.2, lam=0.0, N=0, tol=1e-7)
    @example(alpha=0.4, lam=1e-6, N=0, tol=1e-7)
    @example(alpha=0.4, lam=1e-6, N=1, tol=1e-6)
    @example(alpha=0.4, lam=0.75, N=1, tol=1e-7)
    def test_radial(self, alpha, lam, N, tol):
        self.check_radial(alpha, lam, N, GridSpec(), tol)

    # at the golden's m = 0 lambda and N = 1, 400 points put the energy 1.2e-6
    # off with a last correction of 4.9e-6: certified at tol 1e-5, refused at 1e-6
    @pytest.mark.parametrize("lam, N, tol", [(0.0, 0, 1e-7), (1e-6, 0, 1e-5),
                                             (0.404, 1, 1e-5), (0.404, 1, 1e-6)])
    def test_radial_coarse(self, lam, N, tol):
        self.check_radial(0.2, lam, N, GridSpec(points=400), tol)

    @pytest.mark.xfail(strict=True, reason="on 400 points a 2 < 2l + 1 < 3 term is left in, "
                                           "and the last correction is 3.4 times below the error")
    def test_radial_coarse_underreports_above_three_quarters(self):
        self.check_radial(0.375, 1.0, 0, GridSpec(points=400), 1e-6)

    @staticmethod
    def check_radial(alpha, lam, N, grid, tol):
        params = coulomb(alpha)
        try:
            got = radial_numeric_energy(params, lam, N, grid, tol=tol)
        except GridTooCoarse:
            return
        assert abs(got - radial_energy_50(params, lam, N)) <= tol


def extrapolated_levels(call):
    """The levels and orders a call hands to `_extrapolate`, and the value it returns."""
    seen = []
    inner = kgring.oracle._extrapolate

    def spy(vals, orders):
        seen.append((list(vals), list(orders)))
        return inner(vals, orders)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgring.oracle, "_extrapolate", spy)
        got = call()
    (vals, orders), = seen
    return vals, orders, got


class TestSeededLevelZero:
    """Each finer level probes only inside bounds verified around the coarser
    level's value (level 0 takes none): fewer probes, the same floats."""

    @settings(max_examples=4, deadline=None)
    @given(m=st.integers(0, 2), n=st.integers(0, 2), beta_eff=st.floats(0.0, 0.2),
           tilt=st.floats(-1.0, 1.0))
    def test_angular_equals_unguided_ladder(self, m, n, beta_eff, tilt):
        gamma_eff = tilt * (m * m + beta_eff)
        mm = m * m + beta_eff
        a, b = 0.5 * math.sqrt(mm + gamma_eff), 0.5 * math.sqrt(mm - gamma_eff)
        vals, orders, got = extrapolated_levels(
            lambda: angular_numeric_lambda(beta_eff, gamma_eff, m, n, GridSpec()))
        unguided = [_angular_level(mm, gamma_eff, a, b, n, 100 << j) for j in range(5)]
        assert vals == unguided
        assert got == _extrapolate(unguided, orders)[-1]

    @settings(max_examples=3, deadline=None)
    @given(alpha=st.floats(0.2, 0.4), lam=st.floats(0.0, 2.5), N=st.integers(0, 1))
    def test_radial_equals_unguided_ladder(self, alpha, lam, N):
        params = coulomb(alpha)
        grid = GridSpec(points=1615, refinement=1)
        # the box radial_numeric_energy hands its levels
        boxes = set()
        level = kgring.oracle._radial_level

        def spy(mass, strength, lam, N, r_max, npts, bounds=None):
            boxes.add(r_max)
            return level(mass, strength, lam, N, r_max, npts, bounds)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kgring.oracle, "_radial_level", spy)
            vals, orders, got = extrapolated_levels(
                lambda: radial_numeric_energy(params, lam, N, grid))
        r_max, = boxes
        strength = params.coupling_factor * alpha
        unguided = [_radial_level(1.0, strength, lam, N, r_max, npts) for npts in (1615, 3231)]
        assert vals == unguided
        assert got == _extrapolate(unguided, orders)[-1]


class TestProbeBudget:
    """Kernel probes (`count_below` calls) of four fixed calls. A change that
    moves one must update its number here and say why in CHANGES.md."""

    @pytest.mark.parametrize("call, probes", [
        pytest.param(lambda: radial_numeric_energy(coulomb(), 2.0, 0, GridSpec(points=400)),
                     135, id="radial-400-points"),
        pytest.param(lambda: radial_numeric_energy(coulomb(), 0.404, 1, GridSpec()),
                     130, id="radial-default-grid"),
        pytest.param(lambda: _radial_level(1.0, 0.2, 2.0, 0, 400.0, 300), 50,
                     id="radial-unguided-level"),
        pytest.param(lambda: angular_numeric_lambda(0.05, 0.02, 1, 0, GridSpec()), 116,
                     id="polar-default-grid"),
    ])
    def test_count_below_calls(self, monkeypatch, call, probes):
        # the radial levels probe through oracle.count_below, the polar ones
        # through kernels.count_below inside eigenvalue_indexed
        seen = []
        for module in (kgring.oracle, kgring.kernels):
            inner = module.count_below
            monkeypatch.setattr(module, "count_below",
                                lambda *args, inner=inner: seen.append(1) or inner(*args))
        call()
        assert len(seen) == probes


class TestVerifyGolden:
    """tests/golden/verify_ring.csv (400 points, refine 2) against 50-digit references."""

    # energy_fd and lambda_fd per (N, n, |m|) as printed before the polar
    # ladder was sized by the equation (4,001-16,004 cells in h^2, h^4) and
    # before the radial route took its h^(2l+1) stage
    BEFORE = {(0, 0, 1): (0.995245391867494, 2.14792301069167),
              (0, 0, 0): (0.988382967050899, 0.403926989088111),
              (0, 1, 1): (0.997850356389783, 6.2452830845643),
              (0, 1, 0): (0.996256584526382, 3.02344893508118),
              (1, 0, 1): (0.997850350193912, 2.14811403313686),
              (1, 0, 0): (0.99624867298193, 0.404913919651229),
              (1, 1, 1): (0.998780578963467, 6.24539534431702),
              (1, 1, 0): (0.9981755420619, 3.0239867119743)}

    def test_moved_digits_closer_to_reference(self):
        # a moved value whose old error exceeded 1e-10 must sit strictly
        # closer; one already at the rounding floor must stay below 1e-10
        path = pathlib.Path(__file__).parent / "golden" / "verify_ring.csv"
        rows = [r for r in csv.DictReader(path.read_text().splitlines()) if r["kind"] == "check"]
        params = PotentialParams(alpha=0.2, beta=0.05, gamma=0.02, mass=1.0)
        moved = set()
        for r in rows:
            N, n, m = int(r["N"]), int(r["n"]), int(r["m"])
            state = solve_bound_state(params, QuantumNumbers(N, n, m))
            lam = float(state.separation_lambda)
            refs = {"energy_fd": (radial_energy_50(params, lam, N), 1.0),
                    "lambda_fd": (polar_lambda_50(float(state.angular.beta_eff),
                                                  float(state.angular.gamma_eff), m, n),
                                  max(1.0, abs(lam)))}
            for field, old in zip(("energy_fd", "lambda_fd"), self.BEFORE[(N, n, abs(m))]):
                new = float(r[field])
                if new == old:
                    continue
                moved.add((N, n, m, field))
                ref, scale = refs[field]
                old_err, new_err = abs(old - ref) / scale, abs(new - ref) / scale
                if old_err > 1e-10:
                    assert new_err < old_err, (N, n, m, field, old_err, new_err)
                else:
                    assert new_err < 1e-10, (N, n, m, field, old_err, new_err)
        # every lambda_fd moved; energy_fd only where lambda < 3/4 (m = 0, n = 0)
        # gives the radial route its fractional stage
        rows_nm = {(int(r["N"]), int(r["n"]), int(r["m"])) for r in rows}
        assert moved == ({(*k, "lambda_fd") for k in rows_nm}
                         | {(N, 0, 0, "energy_fd") for N in (0, 1)})


class TestOdeResidual:
    def test_sine_defect_small_and_quarters(self):
        def run(npts):
            xs = np.linspace(0.0, math.pi, npts)
            return ode_residual(np.sin(xs), xs, lambda x: 1.0)

        coarse, fine = run(501), run(1001)
        assert coarse < 1e-4
        assert coarse / fine == pytest.approx(4.0, rel=0.05)

    def test_zero_function(self):
        xs = np.linspace(0.0, 1.0, 11)
        assert ode_residual(np.zeros(11), xs, lambda x: 1.0) == 0.0

    def test_guards(self):
        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError):
            ode_residual(np.zeros(10), xs, lambda x: 1.0)
        with pytest.raises(DomainError):
            ode_residual(np.zeros(2), np.linspace(0, 1, 2), lambda x: 1.0)
        bad = np.concatenate([np.linspace(0, 0.5, 6), np.linspace(0.6, 1.2, 5)])
        with pytest.raises(DomainError):
            ode_residual(np.zeros(11), bad, lambda x: 1.0)


class TestMutation:
    @pytest.mark.parametrize("m", [0, 1])
    def test_agreement_comes_from_the_ode(self, monkeypatch, m):
        # the same call agrees with the closed form, and stops agreeing once
        # the polar q it discretises is perturbed by a small bounded term
        vtol = 1e-5
        grid = GridSpec(points=400, refinement=2)
        want = float(effective_l(m, 0.1, 0.04, 1).separation_lambda)
        assert abs(angular_numeric_lambda(0.1, 0.04, m, 1, grid) - want) <= vtol
        q = kgring.oracle._polar_q
        monkeypatch.setattr(kgring.oracle, "_polar_q",
                            lambda mm, ge, x: q(mm, ge, x) + 1e-3 * (1.0 + x))
        assert abs(angular_numeric_lambda(0.1, 0.04, m, 1, grid) - want) > vtol


class TestIndependence:
    def _source(self):
        import kgring.oracle

        return pathlib.Path(kgring.oracle.__file__).read_text()

    def test_oracle_never_touches_closed_forms(self):
        src = self._source()
        for name in (
            "radial_energy(",
            "effective_l(",
            "solution_chain(",
            "solve_bound_state(",
            "laguerre",
            "jacobi",
            "candidate_k",
            "quantize",
            "import scipy",
        ):
            assert name not in src, f"oracle references {name}"

    def test_oracle_runtime_imports_only_kernels_and_errors(self):
        # the one bound_states import is type-checking only (indented under
        # the TYPE_CHECKING guard); every top-level relative import must stay
        # inside the kernel/error layer
        for line in self._source().splitlines():
            if line.startswith("from ."):
                mod = line.split()[1]
                assert mod in (".errors", ".kernels"), f"unexpected import {line!r}"
