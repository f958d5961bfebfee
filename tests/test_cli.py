"""CLI contract: byte-stable output, golden files, exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from kgring import Coupling, DomainError, PotentialParams, QuantumNumbers, solve_bound_state

GOLDEN = Path(__file__).parent / "golden"

COULOMB = ("spectrum", "--alpha", "0.2", "--beta", "0", "--gamma", "0",
           "--mass", "1", "--Nmax", "1", "--nmax", "0", "--mmax", "1")
RING = ("spectrum", "--alpha", "0.2", "--beta", "0.05", "--gamma", "0.02",
        "--mass", "1", "--Nmax", "2", "--nmax", "1", "--mmax", "1")
VERIFY_RING = ("verify", "--alpha", "0.2", "--beta", "0.05", "--gamma", "0.02",
               "--mass", "1", "--Nmax", "1", "--nmax", "1", "--mmax", "1",
               "--points", "400", "--refine", "2")
NU_RADIAL = ("nu", "reduce", "--target", "radial", "--alpha", "-2", "--beta", "0",
             "--gamma", "0", "--mass", "5", "--epsilon", "4", "--lambda", "2")
NU_ANGULAR = ("nu", "reduce", "--target", "angular", "--alpha", "0", "--beta", "2",
              "--gamma", "2", "--mass", "1", "--epsilon", "1", "--m", "1", "--lambda", "20")
NU_FORMATS = (("json", "json"), ("csv", "csv"), ("text", "txt"))


def run_cli(*args, env=None):
    full = dict(os.environ)
    full.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "kgring", *args],
        capture_output=True, env=full, cwd=Path(__file__).parent.parent,
    )


class TestGoldenFiles:
    def test_coulomb_csv(self):
        p = run_cli(*COULOMB, "--format", "csv")
        assert p.returncode == 0
        assert p.stdout == (GOLDEN / "spectrum_coulomb.csv").read_bytes()

    def test_free_json(self):
        # alpha = 0 binds nothing: every row carries NoBoundState, exit 2
        p = run_cli("spectrum", "--alpha", "0", "--beta", "0", "--gamma", "0",
                    "--mass", "1", "--Nmax", "1", "--nmax", "0", "--mmax", "1")
        assert p.returncode == 2
        assert p.stdout == (GOLDEN / "spectrum_free.json").read_bytes()

    def test_ring_json(self):
        # gamma_eff dominates m^2 + beta_eff at m = 0: complex root pair
        p = run_cli("spectrum", "--alpha", "0.2", "--beta", "0", "--gamma", "5",
                    "--mass", "1", "--Nmax", "1", "--nmax", "1", "--mmax", "0")
        assert p.returncode == 2
        assert p.stdout == (GOLDEN / "spectrum_ring.json").read_bytes()

    def test_ring_states_json(self):
        # converged ring rows: energy, iterations and residual to the last
        # digit, and the +-m rows in grid order
        p = run_cli(*RING)
        assert p.returncode == 0
        assert p.stdout == (GOLDEN / "spectrum_ring_states.json").read_bytes()

    def test_verify_ring_csv(self):
        # the oracle's energy_fd and lambda_fd to the last digit: all twelve
        # rows certified, the m = 0 ones included, exit 0
        p = run_cli(*VERIFY_RING, "--format", "csv")
        assert p.returncode == 0
        assert p.stdout == (GOLDEN / "verify_ring.csv").read_bytes()

    def test_verify_ring_json(self):
        # the same rows and summary as JSON objects
        p = run_cli(*VERIFY_RING)
        assert p.returncode == 0
        assert p.stdout == (GOLDEN / "verify_ring.json").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_wavefunction_ring(self, fmt):
        # the meta row, then 41 radial and 41 polar samples
        p = run_cli(*TestWavefunctionOutput.CMD, "--format", fmt)
        assert p.returncode == 0
        assert p.stdout == (GOLDEN / f"wavefunction_ring.{fmt}").read_bytes()

    @pytest.mark.parametrize("name,argv", [
        *((f"nu_radial.{ext}", (*NU_RADIAL, "--degree", "2", "--format", fmt))
          for fmt, ext in NU_FORMATS),
        *((f"nu_angular.{ext}", (*NU_ANGULAR, "--format", fmt)) for fmt, ext in NU_FORMATS),
        ("nu_fraction.json", ("nu", "reduce", "--target", "radial", "--alpha=-1/2", "--beta", "0",
                              "--gamma", "0", "--mass", "5", "--epsilon", "4", "--lambda", "2")),
        # irrational square roots: every value past the radicand on the float track
        ("nu_irrational.txt", ("nu", "reduce", "--target=radial", "--alpha=1", "--beta=0",
                               "--gamma=0", "--mass=1", "--epsilon=0", "--lambda=-1/8",
                               "--format=text")),
        # both signs give pi = 0, so both rows are tagged selected
        ("nu_legendre.txt", ("nu", "reduce", "--target=angular", "--m=0", "--alpha=0",
                             "--beta=0", "--gamma=0", "--mass=1", "--epsilon=0",
                             "--lambda=2", "--format=text")),
    ])
    def test_nu_reduce(self, name, argv):
        p = run_cli(*argv)
        assert p.returncode == 0
        assert p.stdout == (GOLDEN / name).read_bytes()


class TestJsonContract:
    def test_floats_survive_reparse(self):
        p = run_cli(*RING)
        rows = json.loads(p.stdout)
        floats = [v for r in rows for v in r.values() if isinstance(v, float)]
        assert floats
        for v in floats:
            assert float(f"{v:.15g}") == v

    def test_reserialization_is_identity(self):
        p = run_cli(*COULOMB)
        rows = json.loads(p.stdout)
        assert json.dumps(rows, indent=2) + "\n" == p.stdout.decode()

    def test_row_order_lexicographic(self):
        p = run_cli(*RING)
        keys = [(r["N"], r["n"], r["m"]) for r in json.loads(p.stdout)]
        assert keys == sorted(keys)
        assert len(keys) == 3 * 2 * 3

    def test_csv_header_and_row_count(self):
        p = run_cli(*RING, "--format", "csv")
        lines = p.stdout.decode().splitlines()
        assert lines[0] == "N,n,m,l_eff,energy,binding,iterations,converged,residual,error"
        assert len(lines) == 1 + 3 * 2 * 3


class TestExitCodes:
    def test_no_subcommand(self):
        assert run_cli().returncode == 1

    def test_missing_required_flag(self):
        p = run_cli("spectrum", "--beta", "0", "--gamma", "0", "--mass", "1")
        assert p.returncode == 1
        assert b"--alpha" in p.stderr

    def test_unknown_format(self):
        assert run_cli(*COULOMB, "--format", "xml").returncode == 1

    def test_negative_range(self):
        p = run_cli("spectrum", "--alpha", "0.2", "--beta", "0", "--gamma", "0",
                    "--mass", "1", "--Nmax", "-1")
        assert p.returncode == 1

    def test_samples_too_small(self):
        p = run_cli("wavefunction", "--alpha", "0.2", "--beta", "0", "--gamma", "0",
                    "--mass", "1", "--N", "0", "--n", "0", "--m", "0", "--samples", "1")
        assert p.returncode == 1
        assert b"--samples" in p.stderr

    @pytest.mark.parametrize("command,flag,value", [
        ("wavefunction", "--rmax", "inf"), ("wavefunction", "--rmax", "nan"),
        ("verify", "--vtol", "nan"), ("verify", "--vtol", "inf"),
        ("verify", "--vtol", "0"), ("verify", "--vtol", "-1"),
    ])
    def test_bad_float_option(self, command, flag, value):
        # a usage error, not NaN samples or an oracle run ending in failed rows
        state = ("--N", "0", "--n", "0", "--m", "0") if command == "wavefunction" else ()
        p = run_cli(command, "--alpha", "0.2", "--beta", "0", "--gamma", "0", "--mass", "1",
                    *state, f"{flag}={value}")
        assert p.returncode == 1
        assert p.stdout == b""
        assert flag.encode() in p.stderr

    @pytest.mark.parametrize("command,flag,value", [
        ("spectrum", "--tol", "nan"), ("spectrum", "--tol", "0"), ("spectrum", "--tol", "-1e-12"),
        ("spectrum", "--max-iter", "1"), ("verify", "--tol", "nan"), ("verify", "--max-iter", "0"),
        ("spectrum", "--tol", "inf"),
    ])
    def test_bad_solver_option(self, command, flag, value):
        # rejected once, before any row is solved, not one DomainError row per state
        p = run_cli(command, "--alpha", "0.2", "--beta", "0.05", "--gamma", "0.02", "--mass", "1",
                    "--Nmax", "1", "--mmax", "1", f"{flag}={value}")
        assert p.returncode == 1
        assert p.stdout == b""
        assert flag.encode() in p.stderr

    @pytest.mark.parametrize("command,flag,value", [
        ("spectrum", "--alpha", "inf"), ("spectrum", "--gamma", "-inf"),
        ("verify", "--beta", "nan"), ("wavefunction", "--mass", "inf"),
        ("nu", "--alpha", "nan"),
    ])
    def test_non_finite_parameter(self, command, flag, value):
        # a usage error, not a NoConvergence row after the whole iteration budget
        values = {"--alpha": "0.2", "--beta": "0.05", "--gamma": "0.02", "--mass": "1",
                  flag: value}
        pots = [f"{k}={v}" for k, v in values.items()]
        extra = {"wavefunction": ("--N", "0", "--n", "0", "--m", "0"),
                 "nu": ("--target", "radial", "--epsilon", "0.5", "--lambda", "2")}
        cmd = ("nu", "reduce") if command == "nu" else (command,)
        p = run_cli(*cmd, *pots, *extra.get(command, ()))
        assert p.returncode == 1
        assert p.stdout == b""
        assert flag.lstrip("-").encode() + b" must be finite" in p.stderr

    @pytest.mark.parametrize("command,given,name", [
        ("nu", {"--alpha": "1e400"}, b"--alpha"),
        ("nu", {"--mass": "1e400"}, b"--mass"),
        ("nu", {"--epsilon": "1e400"}, b"--epsilon"),
        ("nu", {"--lambda": "-1e400"}, b"--lambda"),
        ("spectrum", {"--mass": "1e300"}, b"mass"),
        ("verify", {"--mass": "1e300"}, b"mass"),
        ("wavefunction", {"--mass": "1e300"}, b"mass"),
        ("spectrum", {"--alpha": "1e200", "--beta": "0", "--gamma": "0"}, b"alpha"),
        # an irrational k whose float overflows (m = 1e40 still works)
        ("nu", {"--target": "angular", "--m": str(10**80)}, b"float range"),
        # a float-track rule at a degree beyond float range
        ("nu", {"--alpha": "1", "--beta": "0", "--gamma": "0", "--lambda": "-1/8",
                "--degree": str(10**400)}, b"float range"),
        # an exact lambda_bar_n with more digits than int -> str converts
        ("nu", {"--alpha": "0", "--beta": "2", "--gamma": "2", "--epsilon": "1",
                "--target": "angular", "--m": "1", "--lambda": "20",
                "--degree": str(10**2200)}, b"too long to print"),
        # an error message quoting an exact value with as many digits: the
        # k-condition's discriminant at an epsilon of 3,000 digits
        ("nu", {"--alpha": "11/6", "--beta": "-13/6", "--gamma": "17/6", "--mass": "23",
                "--epsilon": "1/" + "9" * 3000, "--lambda": "-3"}, b"too long to print"),
    ])
    def test_beyond_float_range(self, command, given, name):
        # finite literals whose floats overflow, alone or inside the solver or
        # the reduction: exit 1 with a DomainError, not a traceback, a
        # NoConvergence row after the whole budget or a NaN energy marked converged
        values = {"--alpha": "0.2", "--beta": "0.05", "--gamma": "0.02", "--mass": "1"}
        values.update({"nu": {"--target": "radial", "--epsilon": "0", "--lambda": "2"},
                       "wavefunction": {"--N": "0", "--n": "0", "--m": "0"}}.get(command, {}))
        values.update(given)
        cmd = ("nu", "reduce") if command == "nu" else (command,)
        p = run_cli(*cmd, *[f"{k}={v}" for k, v in values.items()])
        assert p.returncode == 1
        assert p.stdout == b""
        assert b"Traceback" not in p.stderr
        assert name in p.stderr

    @pytest.mark.parametrize("command,alpha,mass", [
        ("wavefunction", "1e-200", "1"), ("wavefunction", "0.2", "1e-300"),
        ("verify", "0.2", "1e-300"), ("verify", "1e-200", "1"),
    ])
    def test_zero_binding_edge(self, command, alpha, mass):
        # kappa rounds to 0 (the energy rounds to mass, or mass^2 underflows)
        # and the oracle's radial step puts 1/h^4 out of float range: typed
        # failures with exit 2, not a ZeroDivisionError or OverflowError
        extra = {"wavefunction": ("--N", "0", "--n", "0", "--m", "0", "--samples", "3"),
                 "verify": ("--points", "100", "--refine", "0")}[command]
        p = run_cli(command, f"--alpha={alpha}", "--beta=0.05", "--gamma=0.02",
                    f"--mass={mass}", *extra)
        assert p.returncode == 2
        assert b"Traceback" not in p.stderr
        if command == "wavefunction":
            assert p.stdout == b""
            assert b"UnboundEnergy" in p.stderr
        else:
            rows = json.loads(p.stdout)
            assert rows[0]["error"] == "DomainError"
            assert rows[-1]["ok"] is False

    def test_solver_failure_propagates(self):
        # one unbound state: wavefunction has no record to fall back on
        p = run_cli("wavefunction", "--alpha", "0", "--beta", "0", "--gamma", "0",
                    "--mass", "1", "--N", "0", "--n", "0", "--m", "0")
        assert p.returncode == 2
        assert b"NoBoundState" in p.stderr


class TestWavefunctionOutput:
    CMD = ("wavefunction", "--alpha", "0.2", "--beta", "0.05", "--gamma", "0",
           "--mass", "1", "--N", "0", "--n", "2", "--m", "1", "--samples", "41")

    def test_csv_shape(self):
        p = run_cli(*self.CMD, "--format", "csv")
        assert p.returncode == 0
        lines = p.stdout.decode().splitlines()
        meta = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln.startswith("# energy = ") for ln in meta)
        assert any(ln == "# samples = 41" for ln in meta)
        body = lines[len(meta):]
        assert body[0] == "kind,coordinate,value"
        assert body[1] == "radial,0,0"  # u(0) = 0 exactly
        assert len(body) == 1 + 41 + 41

    def test_json_kinds(self):
        p = run_cli(*self.CMD)
        rows = json.loads(p.stdout)
        kinds = [r["kind"] for r in rows]
        assert kinds.count("meta") == 1 and kinds[0] == "meta"
        assert kinds.count("radial") == 41
        assert kinds.count("angular") == 41
        meta = rows[0]
        for key in ("energy", "l_eff", "B", "C", "kappa", "norm_radial",
                    "norm_angular", "separation_lambda", "rmax"):
            assert key in meta

    def test_even_degree_polar_symmetry(self):
        # gamma = 0 and even n: the polar factor is even in x (up to
        # last-digit noise from evaluating the recurrence at +x vs -x)
        p = run_cli(*self.CMD)
        ang = [r for r in json.loads(p.stdout) if r["kind"] == "angular"]
        vals = [r["value"] for r in ang]
        assert vals == pytest.approx(list(reversed(vals)), rel=1e-12, abs=1e-15)

    def test_rmax_flag_sets_box(self):
        p = run_cli(*self.CMD, "--rmax", "30")
        rad = [r for r in json.loads(p.stdout) if r["kind"] == "radial"]
        assert rad[-1]["coordinate"] == 30.0


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = run_cli(*COULOMB, "--format", "csv")
        b = run_cli(*COULOMB, "--format", "csv")
        assert a.stdout == b.stdout


class TestVerify:
    def test_grid_passes(self):
        p = run_cli("verify", "--alpha", "0.2", "--beta", "0", "--gamma", "0",
                    "--mass", "1", "--Nmax", "0", "--nmax", "0", "--mmax", "1")
        assert p.returncode == 0
        rows = json.loads(p.stdout)
        assert rows[-1]["kind"] == "summary"
        assert all(r["ok"] for r in rows)
        assert rows[-1]["energy_err"] <= 1e-5

    def test_coarse_grid_fails_closed(self):
        p = run_cli("verify", "--alpha", "0.2", "--beta", "0", "--gamma", "0",
                    "--mass", "1", "--Nmax", "0", "--nmax", "0", "--mmax", "0",
                    "--points", "100", "--refine", "0")
        assert p.returncode == 2
        rows = json.loads(p.stdout)
        assert rows[0]["error"] == "GridTooCoarse"
        assert rows[-1]["ok"] is False


class TestNuReduce:
    RADIAL = NU_RADIAL
    ANGULAR = NU_ANGULAR

    def test_radial_rational_json(self):
        p = run_cli(*self.RADIAL, "--degree", "2")
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["family"] == "laguerre"
        assert payload["sigma_tilde"] == "-9r^2 + 18r - 2"
        assert payload["candidates"] == [9, 27]
        sel = payload["selected"]
        assert (sel["k"], sel["sign"], sel["pi"]) == (9, "-", "-3r + 2")
        assert (sel["tau"], sel["lambda_bar"], sel["physical"]) == ("-6r + 4", 6, True)
        assert payload["quantization"] == {"constant": 0, "linear": 6, "quadratic": 0}
        assert payload["lambda_bar_n"] == 12
        assert payload["phi"] == {"roots": [0], "exponents": [2],
                                  "rate_linear": -3, "rate_quadratic": 0}

    def test_fractions_stay_exact(self):
        # non-integer rationals serialize as p/q strings, not floats
        p = run_cli("nu", "reduce", "--target", "radial", "--alpha=-1/2",
                    "--beta", "0", "--gamma", "0", "--mass", "5",
                    "--epsilon", "4", "--lambda", "2")
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["candidates"] == ["-9/2", "27/2"]
        assert payload["selected"]["k"] == "-9/2"
        assert payload["selected"]["lambda_bar"] == "-15/2"
        assert payload["sigma_tilde"] == "-9r^2 + (9/2)r - 2"

    def test_angular_jacobi_json(self):
        p = run_cli(*self.ANGULAR)
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["family"] == "jacobi"
        assert payload["candidates"] == [16, 19]
        assert payload["selected"]["k"] == 16
        assert payload["selected"]["lambda_bar"] == 14
        assert payload["quantization"] == {"constant": 0, "linear": 5, "quadratic": 1}
        assert payload["phi"]["exponents"] == ["1/2", "3/2"]

    def test_text_format(self):
        p = run_cli(*self.RADIAL, "--degree", "2", "--format", "text")
        out = p.stdout.decode()
        assert "k candidates: 9, 27" in out
        assert "[physical, selected]" in out
        assert "lambda_bar_n = 0 + (6) n + (0) n^2" in out
        assert "lambda_bar_2 = 12" in out

    def test_csv_format(self):
        p = run_cli(*self.RADIAL, "--format", "csv")
        lines = p.stdout.decode().splitlines()
        assert lines[0] == "key,value"
        table = dict(ln.split(",", 1) for ln in lines[1:])
        assert table["candidates.0"] == "9"
        assert table["selected.sign"] == "-"
        assert table["selected.lambda_bar"] == "6"


# text that could upset a spliced or joined emitter: the JSON record boundary,
# quotes, backslashes, line breaks, CSV delimiters and non-ASCII
_AWKWARD = st.sampled_from(("},\n    {", "\n  },\n  {\n    ", '"', '\\', "\n", "\r", ",", '"a,b"',
                            "", " ", "é", "ℏω", "\u2028", "null"))
_TEXT = st.text() | _AWKWARD
_FLAT_VALUE = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0) | _TEXT)
# keys from a small shared pool and arbitrary ones, so rows share some keys
# and differ in others, as the wavefunction meta row and sample rows do
_KEY = st.sampled_from(("kind", "N", "energy", "value")) | _TEXT


class TestRowEmitters:
    """The JSON row emitter and the CSV row path against the library writers."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.dictionaries(_KEY, _FLAT_VALUE, min_size=1, max_size=6), max_size=6))
    @example(rows=[])
    @example(rows=[{"kind": "meta", "N": 0}, {"kind": "},\n    {", "value": -0.0}])
    def test_json_rows_equal_indented_dumps(self, rows):
        from kgring.cli import _emit_json_rows

        assert _emit_json_rows(rows) == json.dumps(rows, indent=2) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), fields=st.lists(_KEY, min_size=2, max_size=5, unique=True))
    def test_csv_equals_csv_writer_over_cells(self, data, fields):
        from kgring.cli import _CSV_BLOCK, _cell, _emit_csv

        values = _FLAT_VALUE | st.floats()  # CSV cells also print nan and inf
        rows = data.draw(st.lists(st.dictionaries(st.sampled_from(fields), values), max_size=6))
        # plain rows ahead of the drawn ones, so that a table of one or two
        # blocks, give or take a row, ends with them at or across a block edge
        edges = [k * _CSV_BLOCK + d for k in (1, 2) for d in (-1, 0, 1)]
        size = data.draw(st.sampled_from([0] + edges))
        rows = [{fields[0]: float(i)} for i in range(size - len(rows))] + rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_cell(r.get(f)) for f in fields] for r in rows)
        assert _emit_csv(rows, fields) == buf.getvalue()


class TestInProcess:
    """`main` called repeatedly in one process, as a library user would."""

    def run(self, capsys, *argv):
        from kgring.cli import main

        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out.encode(), err.encode()

    def test_same_bytes_as_a_fresh_process(self, capsys, monkeypatch):
        # the parser is built once per process: a usage error, a valid
        # command, the same usage error again and --help give a fresh
        # process's exit code, stdout and stderr
        monkeypatch.setenv("COLUMNS", "80")
        usage = ("spectrum", "--beta", "0", "--gamma", "0", "--mass", "1")
        for argv in (usage, COULOMB, usage, ("verify", "--help"), ("nu", "reduce", "--format", "xml")):
            fresh = run_cli(*argv, env={"COLUMNS": "80"})
            assert self.run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_degeneracy_warning_on_every_call(self, capsys):
        # one plain stderr line per call, as a fresh process prints it, not a
        # Python warning with a source path shown once per process
        argv = ("nu", "reduce", "--target=radial", "--alpha=1", "--beta=0", "--gamma=0",
                "--mass=1", "--epsilon=0", "--lambda=-1/8")
        fresh = run_cli(*argv)
        assert fresh.stderr == (b"kgring: warning: multiple branches have tau' < 0; "
                                b"taking the larger lambda_bar\n")
        for _ in range(2):
            assert self.run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

    @pytest.mark.parametrize("exc, code, err", [
        (DomainError("bad payload"), 1, b"kgring: error: bad payload\n"),
        (ValueError("not a digit limit"), None, None),
    ])
    def test_payload_errors_keep_their_message(self, capsys, monkeypatch, exc, code, err):
        # only the int -> str digit limit reads "too long to print"
        import kgring.cli

        def fail(*args):
            raise exc

        monkeypatch.setattr(kgring.cli, "_nu_payload", fail)
        if code is None:
            with pytest.raises(ValueError, match="not a digit limit"):
                self.run(capsys, *NU_RADIAL)
        else:
            assert self.run(capsys, *NU_RADIAL) == (code, b"", err)

    @staticmethod
    def direct_spectrum_record(params, N, n, m):
        """A spectrum row from a solve of its own (N, n, m)."""
        from kgring.cli import _canon
        from kgring.errors import SolverError

        base = {"N": N, "n": n, "m": m}
        try:
            st = solve_bound_state(params, QuantumNumbers(N, n, m))
        except SolverError as exc:
            return {**base, "l_eff": None, "energy": None, "binding": None,
                    "iterations": 0, "converged": False, "residual": None,
                    "error": type(exc).__name__}
        return {**base, "l_eff": _canon(st.l_eff), "energy": _canon(st.energy),
                "binding": _canon(st.binding), "iterations": st.iterations,
                "converged": st.converged, "residual": _canon(st.residual), "error": None}

    @pytest.mark.parametrize("alpha,beta,gamma,coupling", [
        ("0.2", "0.05", "0.02", "halved"), ("-0.35", "0.11", "-0.13", "full"),
        ("0.2", "0", "0", "halved"),
    ])
    def test_spectrum_rows_match_direct_solves(self, capsys, alpha, beta, gamma, coupling):
        # one solve per (N + n, |m|) fans out to rows equal to each row's own
        # solve; the second case has ComplexU rows at m = 0
        code, out, _ = self.run(capsys, "spectrum", f"--alpha={alpha}", f"--beta={beta}",
                                f"--gamma={gamma}", "--mass=1.1", f"--coupling={coupling}",
                                "--Nmax=3", "--nmax=3", "--mmax=2")
        params = PotentialParams(float(alpha), float(beta), float(gamma), 1.1, Coupling(coupling))
        rows = json.loads(out)
        assert len(rows) == 4 * 4 * 5
        assert rows == [self.direct_spectrum_record(params, r["N"], r["n"], r["m"]) for r in rows]
        assert code == (2 if any(r["error"] for r in rows) else 0)

    def test_verify_rows_match_direct_solves(self, capsys):
        from argparse import Namespace

        from kgring.cli import _json_rows, _verify_record
        from kgring.oracle import GridSpec

        code, out, _ = self.run(capsys, "verify", "--alpha=0.3", "--beta=0.07", "--gamma=-0.03",
                                "--mass=1", "--Nmax=1", "--nmax=1", "--mmax=1",
                                "--points=100", "--refine=1", "--vtol=1e-3")
        params = PotentialParams(0.3, 0.07, -0.03, 1.0)
        args = Namespace(vtol=1e-3)
        grid = GridSpec(points=100, refinement=1)
        rows = json.loads(out)[:-1]
        assert len(rows) == 2 * 2 * 3
        for r in rows:
            N, n, m = r["N"], r["n"], r["m"]
            own = solve_bound_state(params, QuantumNumbers(N, n, m))
            # the record as JSON prints it: floats at the output precision
            assert r == _json_rows([_verify_record(own, N, n, m, params, args, grid)])[0]


# literals at and beyond the edges of float range and of int -> str conversion
_EXTREME_SCALARS = (
    "0", "-1", "2.5", "5e-324", "1e-400", "1e308", "-1e308", "1e400", "-1e400", "nan",
    "inf", "-inf", "7" * 300 + "/3", "1/" + "9" * 3000, "-" + "1" * 2000 + "/" + "3" * 2000,
)
_FLAGS = ("alpha", "beta", "gamma", "mass", "epsilon", "lambda")
_M = st.sampled_from((10**40, -(10**80), 10**200, 2**1023, 10**400)) | st.integers(-3, 3)
_DEGREE = st.sampled_from((None, -1, 10**20, 10**400, 10**2200)) | st.integers(0, 5)


@st.composite
def _nu_argv(draw):
    """Ordinary rationals (mass > |epsilon|) with up to two flags made extreme."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    mass = draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=12))
    values = {"alpha": draw(small), "beta": draw(small), "gamma": draw(small), "mass": mass,
              "epsilon": mass * draw(st.fractions(min_value=F(-9, 10), max_value=F(9, 10),
                                                  max_denominator=12)),
              "lambda": draw(small)}
    values.update(draw(st.dictionaries(st.sampled_from(_FLAGS),
                                       st.sampled_from(_EXTREME_SCALARS), max_size=2)))
    argv = ["nu", "reduce", f"--target={draw(st.sampled_from(('radial', 'angular')))}",
            f"--format={draw(st.sampled_from(('json', 'csv', 'text')))}",
            f"--coupling={draw(st.sampled_from(('halved', 'full')))}", f"--m={draw(_M)}",
            *(f"--{flag}={values[flag]}" for flag in _FLAGS)]
    degree = draw(_DEGREE)
    return argv if degree is None else [*argv, f"--degree={degree}"]


def _run_main(argv):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    from kgring.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


class TestNuReduceContract:
    """`nu reduce` on extreme literals: a typed outcome, never a traceback."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(argv=_nu_argv())
    def test_exit_codes_and_parsable_output(self, argv):
        code, out, _ = _run_main(argv)
        fmt = argv[3].removeprefix("--format=")
        if code != 0:
            assert out == ""
        elif fmt == "json":
            assert isinstance(json.loads(out), dict)
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["key", "value"] and all(len(r) == 2 for r in rows)

    @pytest.mark.parametrize("flag", ["--tol=-5", "--max-iter=0", "--tol=1e-12"])
    def test_solver_options_are_usage_errors(self, flag):
        # nu reduce runs no solver, so it takes neither --tol nor --max-iter,
        # not even at the solving commands' defaults
        code, out, err = _run_main([*NU_RADIAL, flag])
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag}" in err


# float literals for the float-typed commands, at and beyond float range
_FLOAT_EXTREMES = ("0", "-1", "5e-324", "-5e-324", "1e-400", "1e308", "-1e308", "1e400",
                   "-1e400", "nan", "inf", "-inf")


@st.composite
def _float_argv(draw):
    """`spectrum`, `verify` or `wavefunction` on tiny grids, with ordinary
    strengths and, on two draws in three, one or two flags made extreme."""
    command = draw(st.sampled_from(("spectrum", "verify", "wavefunction")))
    values = {"alpha": draw(st.floats(-1.5, 1.5)), "beta": draw(st.floats(-0.5, 1.0)),
              "gamma": draw(st.floats(-1.0, 1.0)), "mass": draw(st.floats(0.1, 10.0)),
              "tol": 1e-12, "max-iter": 200}
    if draw(st.integers(0, 2)):
        values.update(draw(st.dictionaries(
            st.sampled_from(("alpha", "beta", "gamma", "mass", "tol")),
            st.sampled_from(_FLOAT_EXTREMES), min_size=1, max_size=2)))
    if draw(st.integers(0, 3)) == 0:
        values["max-iter"] = draw(st.sampled_from((0, 1, 2, 6)))
    argv = [command, f"--format={draw(st.sampled_from(('json', 'csv')))}",
            f"--coupling={draw(st.sampled_from(('halved', 'full')))}",
            *(f"--{flag}={value}" for flag, value in values.items())]
    if command == "wavefunction":
        m = draw(st.sampled_from((3000, -4000, 5000)) | st.integers(-5000, 5000))
        argv += [f"--N={draw(st.integers(0, 3))}", f"--n={draw(st.integers(0, 3))}", f"--m={m}",
                 f"--samples={draw(st.integers(2, 50))}"]
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--rmax={draw(st.sampled_from(('30', *_FLOAT_EXTREMES)))}")
        return argv
    argv += [f"--Nmax={draw(st.integers(0, 1))}", f"--nmax={draw(st.integers(0, 1))}",
             f"--mmax={draw(st.integers(0, 2))}"]
    if command == "verify":
        argv += ["--points=100", f"--refine={draw(st.integers(0, 1))}"]
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--vtol={draw(st.sampled_from(('1e-3', *_FLOAT_EXTREMES)))}")
    return argv


_NON_FINITE = {"nan", "inf", "-inf"}


def _no_constant(name):
    raise AssertionError(f"stdout holds the non-finite JSON token {name}")


class TestFloatCommandContract:
    """`spectrum`, `verify` and `wavefunction` on extreme literals: a typed
    outcome, never a traceback, and never a non-finite number printed."""

    # B = 3000: the polar factors' product once printed nan at x = +-1
    LARGE_M = ["--alpha=0.2", "--beta=0.05", "--gamma=0.02", "--mass=1",
               "--N=0", "--n=0", "--m=3000", "--samples=5"]

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(argv=_float_argv())
    @example(argv=["wavefunction", "--format=json", *LARGE_M])
    @example(argv=["wavefunction", "--format=csv", *LARGE_M])
    def test_exit_codes_and_parsable_output(self, argv):
        code, out, _ = _run_main(argv)
        event(f"{argv[0]} exit {code}")
        if code == 1 or (code == 2 and argv[0] == "wavefunction"):
            assert out == ""
            return
        fmt = argv[1].removeprefix("--format=")
        if argv[0] == "wavefunction" and fmt == "csv":
            meta = [ln.removeprefix("# ").split(" = ") for ln in out.splitlines() if ln[:2] == "# "]
            assert meta and all(len(kv) == 2 and kv[1] not in _NON_FINITE for kv in meta)
            out = out.split("\n", len(meta))[-1]
        if fmt == "json":
            rows = json.loads(out, parse_constant=_no_constant)
            assert isinstance(rows, list) and all(isinstance(r, dict) for r in rows)
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert all(len(r) == len(rows[0]) for r in rows)
            assert not _NON_FINITE & {cell for r in rows for cell in r}
