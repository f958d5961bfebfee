"""Tests of the benchmark itself: generation, span arithmetic, checkers, counters.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from itertools import islice

import pytest

import reference
import run
import workloads
from tracing import covered, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(argv):
    from kgring.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


# -- generation ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = list(islice(workloads.stream(workload, 7), 24))
    assert first == list(islice(workloads.stream(workload, 7), 24))
    assert first != list(islice(workloads.stream(workload, 8), 24))
    assert workloads.warmup(workload, 7) == workloads.warmup(workload, 7)
    # successive commands draw fresh parameters
    assert len({tuple(a) for a in first}) == len(first)
    assert all(a.startswith("--") and "=" in a for argv in first for a in argv[1:] if a != "reduce")


def test_stream_shape_does_not_depend_on_seed():
    def shape(argv):
        return [a for a in argv if not a.split("=")[0] in
                ("--alpha", "--beta", "--gamma", "--mass", "--epsilon", "--lambda", "--m",
                 "--N", "--n", "--samples", "--degree", "--coupling")]

    for workload in workloads.WORKLOADS:
        a = [shape(x) for x in islice(workloads.stream(workload, 1), 16)]
        b = [shape(x) for x in islice(workloads.stream(workload, 2), 16)]
        assert a == b


# -- span arithmetic -----------------------------------------------------------


def test_self_time_on_hand_built_tree():
    # root [0, 10]; children a [1, 4] and b [3, 6] overlap (two pool threads),
    # c [8, 9]; a has a child d [2, 3]
    spans = [
        (1, 0.0, 10.0, 0),
        (2, 1.0, 4.0, 1),
        (3, 3.0, 6.0, 1),
        (4, 8.0, 9.0, 1),
        (5, 2.0, 3.0, 2),
    ]
    got = self_times(spans)
    assert got == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}


def test_covered_clips_to_the_parent():
    assert covered([(-1.0, 1.0), (0.5, 2.0), (5.0, 7.0)], 0.0, 6.0) == 3.0
    assert covered([], 0.0, 1.0) == 0.0


# -- latency statistics ----------------------------------------------------------


def test_tail_is_the_median_of_block_tails():
    # three blocks of 20 whose 11th largest are 9, 29 and 49: p50 of each
    # block, and a burst of five slow commands at the end moves nothing
    lat = [float(i) for i in range(60)]
    assert run.tail(lat, 20) == (29.0, 50.0, 3)
    lat[-5:] = [1e6] * 5
    assert run.tail(lat, 20) == (29.0, 50.0, 3)
    # eleven slow commands set their own block's tail, not the run's
    lat[:11] = [1e6] * 11
    assert run.tail(lat, 20) == (49.0, 50.0, 3)
    # a run shorter than one block is one block
    assert run.tail([float(i) for i in range(30)], 40) == (19.0, 100.0 * 20 / 30, 1)


def test_tail_of_a_short_run_is_the_upper_quartile():
    assert run.tail([5.0, 1.0, 3.0, 2.0, 4.0], 11) == (4.0, 75.0, 1)
    assert run.tail([7.0], 11) == (7.0, 100.0, 1)


# -- checkers ------------------------------------------------------------------

SPECTRUM = ["spectrum", "--alpha=0.2", "--beta=0.05", "--gamma=0.08", "--mass=1",
            "--Nmax=1", "--nmax=1", "--mmax=1"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_checker_accepts_then_rejects_perturbed_rows(fmt):
    argv = SPECTRUM + [f"--format={fmt}"]
    rc, out = _run(argv)
    good = reference.check(argv, rc, out)
    assert (rc, good.items, good.failed) == (2, 12, 0)
    assert good.certified == 8  # the four m = 0 rows are ComplexU

    rows = reference._table(out, fmt)
    energy = repr(rows[0]["energy"])
    bumped = out.replace(energy, repr(rows[0]["energy"] * (1 + 1e-8)), 1)
    assert reference.check(argv, rc, bumped).failed == 1
    assert reference.check(argv, rc, out.replace("ComplexU", "NoConvergence", 1)).failed == 1
    assert reference.check(argv, 0, out).failed == 12


def test_verify_checker_rejects_perturbed_rows():
    # a coarse grid keeps this fast; its m = 0 row comes out ok = false
    argv = ["verify", "--alpha=0.2", "--beta=0.05", "--gamma=0.02", "--mass=1", "--Nmax=0",
            "--nmax=0", "--mmax=1", "--points=200", "--refine=2", "--vtol=1e-3", "--format=json"]
    rc, out = _run(argv)
    rows = json.loads(out)
    assert [r["ok"] for r in rows] == [True, False, True, False]
    assert reference.check(argv, rc, out).failed == 0

    def verdict(edit):
        changed = json.loads(out)
        edit(changed)
        return reference.check(argv, rc, json.dumps(changed))

    row = 0

    def bump_energy(rs):
        rs[row]["energy"] *= 1 + 1e-8

    def flip_ok(rs):
        rs[row]["ok"] = not rs[row]["ok"]

    def relabel_error(rs):
        rs[row]["error"] = "GridTooCoarse"

    for edit in (bump_energy, flip_ok, relabel_error):
        assert verdict(edit).failed >= 1, edit.__name__


def test_verify_strict_mode_rejects_an_uncertified_nonzero_m_row():
    rows = [
        {"kind": "check", "N": 0, "n": 0, "m": m, "energy": None, "energy_fd": None,
         "energy_err": None, "lambda": None, "lambda_fd": None, "lambda_err": None,
         "radial_residual": None, "angular_residual": None, "ok": False, "error": "GridTooCoarse"}
        for m in (-1, 0, 1)
    ]
    summary = dict(rows[0], kind="summary", N=None, n=None, m=None, error=None)
    argv = ["verify", "--alpha=0.2", "--beta=0.05", "--gamma=0.02", "--mass=1",
            "--Nmax=0", "--nmax=0", "--mmax=1", "--format=json"]
    out = json.dumps(rows + [summary])
    assert reference.check(argv, 2, out, strict=False).failed == 0
    assert reference.check(argv, 2, out).failed == 2


@pytest.mark.parametrize("i", range(6))
def test_nu_checker_rejects_a_perturbed_coefficient(i):
    argv = list(islice(workloads.stream("exact_oneshot", 5), 8))[[0, 1, 3, 4, 5, 6][i]]
    rc, out = _run(argv)
    good = reference.check(argv, rc, out)
    assert (good.failed, good.certified) == (0, 1), good.reason
    want = reference.nu_expected(reference.options(argv))["linear"]
    fmt = reference.options(argv)["format"]
    printed = {"text": f"({want}) n", "csv": f"quantization.linear,{want}",
               "json": f'"linear": {want if want.denominator == 1 else json.dumps(str(want))}'}[fmt]
    assert printed in out
    bad = out.replace(printed, printed.replace(str(want), str(want + 1)))
    assert reference.check(argv, rc, bad).failed == 1


def test_nu_checker_demands_exact_literals():
    argv = ["nu", "reduce", "--target=radial", "--alpha=-2", "--beta=0", "--gamma=0",
            "--mass=5", "--epsilon=4", "--lambda=2", "--format=json"]
    rc, out = _run(argv)
    assert reference.check(argv, rc, out).failed == 0
    assert '"linear": 6' in out
    assert reference.check(argv, rc, out.replace('"linear": 6', '"linear": 6.0')).failed == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_wavefunction_checker_rejects_a_perturbed_meta_energy(fmt):
    argv = ["wavefunction", "--alpha=0.2", "--beta=0.05", "--gamma=0.02", "--mass=1",
            "--N=0", "--n=1", "--m=1", "--samples=50", f"--format={fmt}"]
    rc, out = _run(argv)
    assert reference.check(argv, rc, out).failed == 0
    energy = "0.997850356341772"
    assert energy in out
    assert reference.check(argv, rc, out.replace(energy, "0.99785035", 1)).failed == 1
    assert reference.check(argv, rc, out.replace("l_eff", "l_eff_", 1)).failed == 1


def test_reference_level_matches_the_readme_example():
    eps, leff = reference.ring_level(0.2, 0.05, 0.02, 1.0, 1, 0, 1, 1)
    # the program stops once |eps - g(eps)| <= 1e-12 * mass
    assert abs(eps - 0.9978503563417720) < 1e-12
    assert reference.ring_level(0.2, 0.0, 5.0, 1.0, 1, 0, 1, 0) == "ComplexU"


# -- counters ------------------------------------------------------------------


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = _traced(workload, 11), _traced(workload, 11)
    assert first["correct"] and second["correct"]
    counters = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "bytes", "ratio")}
    assert len(counters) > 20
    assert {k: first["metrics"][k] for k in counters} == {k: second["metrics"][k] for k in counters}
