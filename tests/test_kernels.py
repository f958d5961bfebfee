"""The Sturm-count kernel against dense linear algebra and the scalar pivot loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgring import kernels, oracle
from kgring.errors import DomainError


def loop_count_below(diag, off_sq, x):
    """The scalar pivot loop the kernel reproduces count for count."""
    d, e2 = list(diag), list(off_sq)
    q = d[0] - x
    if -kernels._PIVMIN < q < kernels._PIVMIN:
        q = -kernels._PIVMIN
    count = 1 if q < 0.0 else 0
    for i in range(1, len(d)):
        q = d[i] - x - e2[i - 1] / q
        if -kernels._PIVMIN < q < kernels._PIVMIN:
            q = -kernels._PIVMIN
        if q < 0.0:
            count += 1
    return count


def loop_count_below_affine(diag_base, diag_lin, c, off_sq, x):
    """The scalar loop for diagonal diag_base + c*diag_lin, the oracle's radial shape."""
    db, dl, e2 = list(diag_base), list(diag_lin), list(off_sq)
    q = db[0] + c * dl[0] - x
    if -kernels._PIVMIN < q < kernels._PIVMIN:
        q = -kernels._PIVMIN
    count = 1 if q < 0.0 else 0
    for i in range(1, len(db)):
        q = db[i] + c * dl[i] - x - e2[i - 1] / q
        if -kernels._PIVMIN < q < kernels._PIVMIN:
            q = -kernels._PIVMIN
        if q < 0.0:
            count += 1
    return count


def random_tridiag(rng, n):
    d = rng.normal(0.0, 2.0, n)
    e = rng.normal(0.0, 1.0, n - 1)
    return d, e


def dense_eigs(d, e):
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def _as_floats(v):
    return [float(x) for x in v]


# The one kernel, fed numpy arrays and plain lists of floats. The case ids
# keep the names these cases have printed since they ran once per backend;
# the list case stands where the pure-Python module, since folded into
# kernels, used to.
INPUT_SHAPES = [
    pytest.param(np.asarray, id="dispatched-kgring.kernels"),
    pytest.param(_as_floats, id="pure-kgring._sturm_py"),
]


def _count(shape, diag, off_sq, x):
    return kernels.count_below(shape(diag), shape(off_sq), x)


@pytest.mark.parametrize("shape", INPUT_SHAPES)
class TestCountBelow:
    def test_matches_dense_counts(self, shape):
        rng = np.random.default_rng(7)
        for trial in range(8):
            d, e = random_tridiag(rng, 50)
            eigs = dense_eigs(d, e)
            e2 = e * e
            for x in (-4.0, -1.0, 0.0, 0.5, 2.0, 5.0):
                assert _count(shape, d, e2, x) == int(np.sum(eigs < x))

    def test_count_at_midpoints_is_exact_index(self, shape):
        rng = np.random.default_rng(11)
        d, e = random_tridiag(rng, 30)
        eigs = dense_eigs(d, e)
        e2 = e * e
        mids = 0.5 * (eigs[:-1] + eigs[1:])
        for i, x in enumerate(mids):
            assert _count(shape, d, e2, float(x)) == i + 1

    def test_affine_consistency(self, shape):
        rng = np.random.default_rng(3)
        d0 = rng.normal(0.0, 1.0, 40)
        d1 = rng.normal(0.0, 1.0, 40)
        e = rng.normal(0.0, 1.0, 39)
        e2 = e * e
        for c in (-1.5, 0.0, 0.7, 3.0):
            for x in (-2.0, 0.0, 1.0):
                assert _count(shape, d0 + c * d1, e2, x) == loop_count_below_affine(d0, d1, c, e2, x)

    def test_single_row(self, shape):
        assert _count(shape, np.array([2.0]), np.zeros(0), 1.0) == 0
        assert _count(shape, np.array([2.0]), np.zeros(0), 3.0) == 1

    def test_degenerate_pivot_does_not_crash(self, shape):
        # hitting an eigenvalue exactly forces the tiny-pivot clamp
        d = np.array([1.0, 1.0, 1.0])
        e2 = np.zeros(2)
        assert _count(shape, d, e2, 1.0) in (0, 3)  # strict inequality either way
        assert _count(shape, d, e2, 1.0 + 1e-12) == 3


class TestEigenvalueIndexed:
    def test_matches_dense(self):
        rng = np.random.default_rng(23)
        d, e = random_tridiag(rng, 60)
        eigs = dense_eigs(d, e)
        for k in (0, 1, 29, 58, 59):
            got = kernels.eigenvalue_indexed(d, e, k)
            assert got == pytest.approx(eigs[k], rel=1e-12, abs=1e-12)

    def test_clustered_eigenvalues(self):
        d = np.array([1.0, 1.0, 1.0, 5.0])
        e = np.zeros(3)
        for k in range(3):
            assert kernels.eigenvalue_indexed(d, e, k) == pytest.approx(1.0, abs=1e-12)
        assert kernels.eigenvalue_indexed(d, e, 3) == pytest.approx(5.0, abs=1e-12)

    def test_index_guard(self):
        d = np.ones(4)
        e = np.zeros(3)
        with pytest.raises(DomainError):
            kernels.eigenvalue_indexed(d, e, 4)
        with pytest.raises(DomainError):
            kernels.eigenvalue_indexed(d, e, -1)
        with pytest.raises(DomainError):
            kernels.eigenvalue_indexed(d, np.zeros(1), 0)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def tridiagonals(draw, max_n=24):
    """(d, e2, as_list): arbitrary reals, or small integers that make exact
    zero pivots (and so the -PIVMIN clamp) common."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        d = draw(st.lists(finite, min_size=n, max_size=n))
        e2 = draw(st.lists(st.floats(0.0, 1e3), min_size=n - 1, max_size=n - 1))
    else:
        d = draw(st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n))
        e2 = draw(st.lists(st.sampled_from([0.0, 1.0, 4.0]), min_size=n - 1, max_size=n - 1))
    return d, e2, draw(st.booleans())


def _shape(v, as_list):
    return list(v) if as_list else np.asarray(v, dtype=float)


def _on_eigenvalue(draw, d, e2):
    eigs = dense_eigs(np.asarray(d), np.sqrt(np.asarray(e2)))
    return float(draw(st.sampled_from(list(eigs) + list(d))))


@st.composite
def dominant_tails(draw, max_head=12, max_tail=28):
    """(d, e2, xs): a random head, then a tail whose diagonal sits at or just
    above 2 sqrt(max e2), where the sweep may stop early. Whole matrices
    are scaled over 300 decades; some have all-zero off-diagonals or a NaN or
    infinite entry. xs: probes at the dense eigenvalues, at 0 and just below
    it, where the tail's dominance is decided."""
    head, tail = draw(st.integers(1, max_head)), draw(st.integers(0, max_tail))
    n = head + tail
    scale = 10.0 ** draw(st.integers(-150, 150))
    if draw(st.booleans()):
        e = [0.0] * (n - 1)
    else:
        e = [scale * v for v in draw(st.lists(st.floats(0.0, 10.0), min_size=n - 1, max_size=n - 1))]
    e2 = [v * v for v in e]
    top = math.sqrt(max(e2, default=0.0))
    delta = draw(st.sampled_from([0.0, 1e-16, 1e-12, 1e-3]))
    noise = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    d = [scale * v for v in draw(st.lists(st.floats(-10.0, 10.0), min_size=head, max_size=head))]
    d += [2.0 * top * (1.0 + delta) + scale * draw(noise) for _ in range(tail)]
    xs = [0.0, -1e-12 * top, -3e-12 * top]
    if all(math.isfinite(v) for v in d + e2):
        xs += [float(v) for v in dense_eigs(np.asarray(d), np.asarray(e))]
    where = draw(st.sampled_from([None, "d", "e2"]))
    if where == "d" or (where == "e2" and n > 1):
        vals = d if where == "d" else e2
        vals[draw(st.integers(0, len(vals) - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return d, e2, xs


def test_preparing_twice_changes_nothing():
    rng = np.random.default_rng(5)
    d, e = random_tridiag(rng, 40)
    once = kernels.as_kernel_off_sq(e * e)
    twice = kernels.as_kernel_off_sq(once)
    assert len(twice) == len(once)
    for x in np.linspace(-6.0, 6.0, 25):
        assert kernels.count_below(d, twice, x) == loop_count_below(d, e * e, x)


class TestLoopEquivalence:
    """The numpy-shifted sweep counts exactly like the scalar loop."""

    @settings(max_examples=300, deadline=None)
    @given(tri=tridiagonals(), x=finite, data=st.data())
    def test_count_below(self, tri, x, data):
        d, e2, as_list = tri
        for xv in (x, _on_eigenvalue(data.draw, d, e2)):
            got = kernels.count_below(_shape(d, as_list), _shape(e2, as_list), xv)
            assert got == loop_count_below(d, e2, xv)

    @settings(max_examples=300, deadline=None)
    @given(tri=tridiagonals(), x=finite, data=st.data(),
           c=st.one_of(finite, st.floats(-1e12, 1e12)),
           tiny=st.floats(1e-9, 1.0))
    def test_count_below_affine(self, tri, x, data, c, tiny):
        # diag_base shrunk by `tiny` so c * diag_lin can dominate it by 1e21
        dl, e2, as_list = tri
        db = [tiny * v for v in data.draw(st.lists(finite, min_size=len(dl), max_size=len(dl)))]
        shifted = [b + c * v for b, v in zip(db, dl)]
        # the diagonal formed in numpy, as the oracle's radial level forms it
        diag = np.asarray(db) + c * np.asarray(dl)
        for xv in (x, _on_eigenvalue(data.draw, shifted, e2)):
            got = kernels.count_below(_shape(diag, as_list), _shape(e2, as_list), xv)
            assert got == loop_count_below_affine(db, dl, c, e2, xv)


    @settings(max_examples=300, deadline=None)
    @given(tri=dominant_tails(), data=st.data())
    def test_tail_exit_counts_exactly(self, tri, data):
        d, e2, xs = tri
        x = data.draw(st.sampled_from(xs))
        for xv in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
            want = loop_count_below(d, e2, xv)
            diag = np.asarray(d, dtype=float)
            assert kernels.count_below(diag, np.asarray(e2, dtype=float), xv) == want
            assert kernels.count_below(diag, kernels.as_kernel_off_sq(e2), xv) == want

    @settings(max_examples=25, deadline=None)
    @given(strength=st.floats(0.05, 1.0), lam=st.sampled_from([0.0, 2.0, 2.1479, 6.0]),
           N=st.integers(0, 2), r_max=st.sampled_from([40.0, 400.0]))
    def test_radial_levels_count_exactly(self, strength, lam, N, r_max):
        # every probe of a radial level, bisected onto the level itself; the
        # classical tail beyond the turning point is where the sweep stops early
        npts = 300
        h = r_max / (npts + 1)
        e2 = [1.0 / h ** 4] * (npts - 1)
        probes = []
        inner = oracle.count_below
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "count_below",
                       lambda diag, off_sq, x: probes.append((diag, x)) or inner(diag, off_sq, x))
            try:
                oracle._radial_level(1.0, strength, lam, N, r_max, npts)
            except oracle.NoBoundState:
                pass
        # a huge last entry, put behind the tail bound's back, flips the last
        # pivot's sign; a sweep that still counts `want` never formed that pivot
        poison = e2[:-1] + [1e300]
        stopped_early = 0
        for diag, x in probes:
            want = loop_count_below(diag, e2, x)
            assert kernels.count_below(diag, kernels.as_kernel_off_sq(e2), x) == want
            poisoned = kernels._OffSq(e2)
            poisoned[-1] = poison[-1]
            if loop_count_below(diag, poison, x) != want:
                stopped_early += kernels.count_below(diag, poisoned, x) == want
        assert stopped_early or not probes


class TestEigenvalueBounds:
    """A bounds guess changes the sweeps eigenvalue_indexed runs, never its float."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), data=st.data())
    def test_any_guess_returns_the_unguided_float(self, seed, n, data):
        rng = np.random.default_rng(seed)
        d, e = random_tridiag(rng, n)
        k = data.draw(st.integers(0, n - 1))
        plain = kernels.eigenvalue_indexed(d, e, k)
        w = data.draw(st.sampled_from([0.0, 1e-13, 1e-6, 1e-2, 1.0, 1e3]))
        off = data.draw(st.sampled_from([0.0, 0.5, 3.0, -3.0, 1e6]))
        centre = plain + off * max(w, 1e-3)  # off != 0: the guess misses lambda_k
        for bounds in ((centre - w, centre + w), (centre + w, centre - w)):
            assert kernels.eigenvalue_indexed(d, e, k, bounds=bounds) == plain

    def test_guesses_by_kind(self):
        rng = np.random.default_rng(29)
        d, e = random_tridiag(rng, 60)
        for k in (0, 17, 59):
            plain = kernels.eigenvalue_indexed(d, e, k)
            guesses = {
                "correct": (plain - 1e-9, plain + 1e-9),
                "loose": (plain - 50.0, plain + 50.0),
                "zero-width": (plain, plain),
                "above": (plain + 0.1, plain + 0.2),
                "below": (plain - 0.2, plain - 0.1),
                "outside the enclosure": (1e9, 1e9 + 1.0),
                "not finite": (float("nan"), 0.0),
            }
            for kind, bounds in guesses.items():
                assert kernels.eigenvalue_indexed(d, e, k, bounds=bounds) == plain, kind

    def test_good_guess_saves_sweeps(self, monkeypatch):
        rng = np.random.default_rng(31)
        d, e = random_tridiag(rng, 200)
        plain = kernels.eigenvalue_indexed(d, e, 100)
        calls = []
        inner = kernels.count_below
        monkeypatch.setattr(kernels, "count_below", lambda *a: calls.append(1) or inner(*a))
        kernels.eigenvalue_indexed(d, e, 100)
        unguided = len(calls)
        calls.clear()
        kernels.eigenvalue_indexed(d, e, 100, bounds=(plain - 1e-11, plain + 1e-11))
        assert len(calls) < unguided // 2
