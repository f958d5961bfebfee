"""Independent output checks: the benchmark's own reference, never kgring's code.

Each checker takes the argument vector, the exit code and the captured
stdout of one command and returns a `Check`: how many items the command
produced, how many failed, how many the program itself marked certified, and
the largest iteration count it reported.

The references:

- Self-consistent energy. With c(eps) = f (eps + mass), beta_e = c beta,
  gamma_e = c gamma, B(eps) = sqrt((mm + sqrt(mm^2 - gamma_e^2)) / 2),
  mm = m^2 + beta_e, and n' = N + n + B + 1, the level solves
  eps = mass (n'^2 - q) / (n'^2 + q) with q = (f |alpha|)^2 / 4. It is found by
  bisection on eps - g(eps) over the window where B is real; an m = 0 row
  with |gamma| > beta has no such window and must be ComplexU.
- `nu reduce`, radial target: sigma = r, sigma_tilde = -eta^2 r^2 - c alpha r
  - lambda with eta = sqrt(mass^2 - eps^2). The radicand is a square for
  k = -c alpha -+ eta s, s = sqrt(1 + 4 lambda); the admissible branch is
  k = -c alpha - eta s, so tau' = -2 eta, lambda_bar = k - eta and
  lambda_bar_n = 2 eta n.
- `nu reduce`, angular target: with B^2 + C^2 = m^2 + beta_e and
  2 B C = |gamma_e| the candidates are k = lambda - B^2 and lambda - C^2; the
  admissible branch is k = lambda - B^2, tau' = -2 - 2B,
  lambda_bar = k - B and lambda_bar_n = (1 + 2B) n + n^2.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

ENERGY_TOL = 1e-10   # |eps - eps_ref| / mass for converged rows
LEFF_TOL = 1e-9      # |l_eff - l_eff_ref| / max(1, l_eff_ref)


@dataclass
class Check:
    items: int
    failed: int
    certified: int
    iterations_max: int = 0
    reason: str = ""


def options(argv) -> dict:
    """`--name=value` options of a generated argument vector."""
    return dict(a[2:].split("=", 1) for a in argv if a.startswith("--"))


def _factor(opts) -> int:
    return 2 if opts.get("coupling") == "full" else 1


def ring_level(alpha, beta, gamma, mass, factor, N, n, m):
    """(energy, l_eff) of the (N, n, m) level, or the name of the expected error."""
    strength = factor * abs(alpha)
    if strength == 0.0:
        return "NoBoundState"
    q = strength * strength / 4.0

    def polar_b(eps):
        c = factor * (eps + mass)
        mm = m * m + c * beta
        ge = c * gamma
        return math.sqrt(0.5 * (mm + math.sqrt(max(mm * mm - ge * ge, 0.0))))

    def h(eps):
        npr = N + n + 1.0 + polar_b(eps)
        return eps - mass * (npr * npr - q) / (npr * npr + q)

    lo, hi = -mass, mass
    need = abs(gamma) - beta
    if need > 0.0:
        if m == 0:
            return "ComplexU"
        hi = min(hi, m * m / (factor * need) - mass)
    if hi <= lo or h(hi) < 0.0:
        return "ComplexU"
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    return eps, n + polar_b(eps)


class _Levels:
    """ring_level for one command's parameters, each (N + n, m^2) solved once."""

    def __init__(self, opts):
        self.args = (float(opts["alpha"]), float(opts["beta"]), float(opts["gamma"]),
                     float(opts["mass"]), _factor(opts))
        self.mass = self.args[3]
        self._energy = {}

    def __call__(self, N, n, m):
        key = (N + n, m * m)
        if key not in self._energy:
            self._energy[key] = ring_level(*self.args, key[0], 0, m)
        got = self._energy[key]
        if isinstance(got, str):
            return got
        # l_eff = n + B(eps): the level depends on N + n, l_eff on n
        return got[0], got[1] + n


def _close(a, b, tol) -> bool:
    return a is not None and abs(a - b) <= tol


# -- parsing -------------------------------------------------------------------


def _value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _table(out: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(out)
    return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(out))]


def _grid(opts):
    N, n, m = (int(opts.get(k, 0)) for k in ("Nmax", "nmax", "mmax"))
    return [(a, b, c) for a in range(N + 1) for b in range(n + 1) for c in range(-m, m + 1)]


# -- spectrum ------------------------------------------------------------------


def _spectrum_row(row, want, levels, tol, max_iter) -> str:
    if (row["N"], row["n"], row["m"]) != want:
        return f"row order: got {row['N'], row['n'], row['m']}, want {want}"
    ref = levels(*want)
    if isinstance(ref, str):
        if row["error"] != ref or row["energy"] is not None or row["converged"]:
            return f"{want}: expected error {ref}, got {row['error']}"
        return ""
    mass = levels.mass
    eps, leff = ref
    if row["error"] is not None:
        return f"{want}: unexpected error {row['error']}"
    if not (_close(row["energy"], eps, ENERGY_TOL * mass)
            and _close(row["binding"], eps - mass, ENERGY_TOL * mass)
            and _close(row["l_eff"], leff, LEFF_TOL * max(1.0, leff))):
        return f"{want}: energy {row['energy']} / l_eff {row['l_eff']} vs reference {eps} / {leff}"
    if (row["converged"] is not True or not 1 <= row["iterations"] <= max_iter
            or not 0.0 <= row["residual"] <= tol * mass * (1 + 1e-9)):
        return f"{want}: convergence record {row['converged']}, {row['iterations']}, {row['residual']}"
    return ""


def check_spectrum(argv, rc, out) -> Check:
    opts = options(argv)
    grid = _grid(opts)
    levels = _Levels(opts)
    tol, max_iter = float(opts.get("tol", 1e-12)), int(opts.get("max-iter", 200))
    want_rc = 2 if any(isinstance(levels(*t), str) for t in grid) else 0
    try:
        rows = _table(out, opts.get("format", "json"))
    except ValueError as exc:
        return Check(len(grid), len(grid), 0, reason=f"unparsable output: {exc}")
    if rc != want_rc or len(rows) != len(grid):
        return Check(len(grid), len(grid), 0, reason=f"exit {rc} with {len(rows)} rows")
    failed, reason = 0, ""
    for row, want in zip(rows, grid):
        why = _spectrum_row(row, want, levels, tol, max_iter)
        if why:
            failed += 1
            reason = reason or why
    certified = sum(1 for r in rows if r["converged"] is True)
    iters = max((r["iterations"] for r in rows), default=0)
    return Check(len(grid), failed, certified, iters, reason)


# -- verify --------------------------------------------------------------------

_VERIFY_NUMBERS = ("energy", "energy_fd", "energy_err", "lambda", "lambda_fd",
                   "lambda_err", "radial_residual", "angular_residual")


def _verify_row(row, want, levels, vtol, strict) -> str:
    if row["kind"] != "check" or (row["N"], row["n"], row["m"]) != want:
        return f"row order: got {row['kind'], row['N'], row['n'], row['m']}, want {want}"
    ref = levels(*want)
    if row["error"] is not None:
        blank = all(row[k] is None for k in _VERIFY_NUMBERS) and row["ok"] is False
        expected = ref if isinstance(ref, str) else "GridTooCoarse"
        # only m = 0 rows may go uncertified on the default grid: their polar
        # exponents are small, so the oracle converges slowly there
        if row["error"] != expected or not blank or (strict and expected == "GridTooCoarse" and want[2] != 0):
            return f"{want}: unexpected error {row['error']}"
        return ""
    if isinstance(ref, str):
        return f"{want}: expected error {ref}"
    mass = levels.mass
    eps, leff = ref
    lam = leff * (leff + 1.0)
    if not (_close(row["energy"], eps, ENERGY_TOL * mass)
            and _close(row["lambda"], lam, LEFF_TOL * max(1.0, lam))):
        return f"{want}: energy {row['energy']} / lambda {row['lambda']} vs reference {eps} / {lam}"
    # the errors are printed from unrounded values; allow a few ulps of the
    # 15-digit operands
    e_err = abs(row["energy"] - row["energy_fd"]) / mass
    l_scale = max(1.0, abs(row["lambda"]))
    l_err = abs(row["lambda"] - row["lambda_fd"]) / l_scale
    if not (_close(row["energy_err"], e_err, 1e-14 * max(1.0, abs(eps)) / mass + 1e-9 * e_err)
            and _close(row["lambda_err"], l_err, 1e-14 + 1e-9 * l_err)):
        return f"{want}: reported errors do not match the reported values"
    if row["ok"] != (row["energy_err"] <= vtol and row["lambda_err"] <= vtol):
        return f"{want}: ok = {row['ok']} disagrees with the errors and vtol {vtol}"
    if strict and not row["ok"] and want[2] != 0:
        return f"{want}: closed form and oracle disagree beyond vtol {vtol}"
    if not all(math.isfinite(row[k]) and row[k] >= 0.0 for k in ("radial_residual", "angular_residual")):
        return f"{want}: bad ODE residuals"
    return ""


def check_verify(argv, rc, out, strict: bool = True) -> Check:
    """`strict` also demands that every m != 0 row certify (the default grid does)."""
    opts = options(argv)
    grid = _grid(opts)
    levels = _Levels(opts)
    vtol = float(opts.get("vtol", 1e-5))
    try:
        rows = _table(out, opts.get("format", "json"))
    except ValueError as exc:
        return Check(len(grid), len(grid), 0, reason=f"unparsable output: {exc}")
    if len(rows) != len(grid) + 1:
        return Check(len(grid), len(grid), 0, reason=f"{len(rows)} rows for a {len(grid)}-row grid")
    checks, summary = rows[:-1], rows[-1]
    all_ok = all(r["ok"] for r in checks)
    worst = {k: max((r[k] for r in checks if r[k] is not None), default=None)
             for k in ("energy_err", "lambda_err")}
    if (summary["kind"] != "summary" or summary["ok"] != all_ok
            or any(summary[k] != v for k, v in worst.items()) or rc != (0 if all_ok else 2)):
        return Check(len(grid), len(grid), 0, reason=f"summary row or exit code {rc} inconsistent")
    failed, reason = 0, ""
    for row, want in zip(checks, grid):
        why = _verify_row(row, want, levels, vtol, strict)
        if why:
            failed += 1
            reason = reason or why
    return Check(len(grid), failed, sum(1 for r in checks if r["ok"]), 0, reason)


# -- nu reduce -----------------------------------------------------------------

_EXACT = re.compile(r"-?\d+(/\d+)?")


def _nu_fields(out: str, fmt: str) -> dict:
    """The selected branch, candidates and quantization rule as printed."""
    if fmt == "json":
        p = json.loads(out)
        sel, q = p["selected"], p["quantization"]
        fields = {"k": sel["k"], "tau_prime": sel["tau_prime"], "lambda_bar": sel["lambda_bar"],
                  "constant": q["constant"], "linear": q["linear"], "quadratic": q["quadratic"],
                  "candidates": p["candidates"]}
        if "lambda_bar_n" in p:
            fields["lambda_bar_n"] = p["lambda_bar_n"]
        return {k: [str(x) for x in v] if k == "candidates" else str(v) for k, v in fields.items()}
    if fmt == "csv":
        kv = dict(row for row in csv.reader(io.StringIO(out)))
        fields = {"k": kv["selected.k"], "tau_prime": kv["selected.tau_prime"],
                  "lambda_bar": kv["selected.lambda_bar"],
                  "constant": kv["quantization.constant"], "linear": kv["quantization.linear"],
                  "quadratic": kv["quantization.quadratic"],
                  "candidates": [v for k, v in kv.items() if k.startswith("candidates.")]}
        if "lambda_bar_n" in kv:
            fields["lambda_bar_n"] = kv["lambda_bar_n"]
        return fields
    sel = re.search(r"^  k = (\S+), sign .: .*; tau' = (\S+); lambda_bar = (\S+)  \[physical, selected\]$",
                    out, re.M)
    rule = re.search(r"^lambda_bar_n = (\S+) \+ \((\S+)\) n \+ \((\S+)\) n\^2$", out, re.M)
    cands = re.search(r"^k candidates: (.*)$", out, re.M)
    fields = {"k": sel[1], "tau_prime": sel[2], "lambda_bar": sel[3],
              "constant": rule[1], "linear": rule[2], "quadratic": rule[3],
              "candidates": cands[1].split(", ")}
    at = re.search(r"^lambda_bar_\d+ = (\S+)$", out, re.M)
    if at:
        fields["lambda_bar_n"] = at[1]
    return fields


def nu_expected(opts) -> dict:
    """Hand-derived exact rationals for one `nu reduce` command."""
    F = {k: Fraction(opts[k]) for k in ("alpha", "beta", "gamma", "mass", "epsilon", "lambda")}
    c = (F["epsilon"] + F["mass"]) * _factor(opts)
    if opts["target"] == "radial":
        eta = _rational_sqrt(F["mass"] ** 2 - F["epsilon"] ** 2)
        s = _rational_sqrt(1 + 4 * F["lambda"])
        k = -c * F["alpha"] - eta * s
        want = {"k": k, "tau_prime": -2 * eta, "lambda_bar": k - eta,
                "constant": 0, "linear": 2 * eta, "quadratic": 0,
                "candidates": sorted([k, -c * F["alpha"] + eta * s])}
        rule = lambda n: 2 * eta * n  # noqa: E731
    else:
        m = int(opts.get("m", 0))
        mm = m * m + c * F["beta"]
        ge = c * F["gamma"]
        u = _rational_sqrt(mm * mm - ge * ge)
        B = _rational_sqrt((mm + u) / 2)
        C2 = (mm - u) / 2
        k = F["lambda"] - B * B
        want = {"k": k, "tau_prime": -2 - 2 * B, "lambda_bar": k - B,
                "constant": 0, "linear": 1 + 2 * B, "quadratic": 1,
                "candidates": sorted([k, F["lambda"] - C2])}
        rule = lambda n: (1 + 2 * B) * n + n * n  # noqa: E731
    if "degree" in opts:
        want["lambda_bar_n"] = rule(int(opts["degree"]))
    return want


def _rational_sqrt(q: Fraction) -> Fraction:
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise ValueError(f"generator produced an irrational square root of {q}")
    return Fraction(num, den)


def _exact_equal(text, want) -> bool:
    return isinstance(text, str) and _EXACT.fullmatch(text) is not None and Fraction(text) == want


def check_nu(argv, rc, out) -> Check:
    opts = options(argv)
    if rc != 0:
        return Check(1, 1, 0, reason=f"exit {rc}")
    try:
        got = _nu_fields(out, opts.get("format", "json"))
    except (ValueError, KeyError, TypeError) as exc:
        return Check(1, 1, 0, reason=f"unparsable output: {exc!r}")
    want = nu_expected(opts)
    for key, value in want.items():
        ok = (len(got[key]) == len(value) and all(map(_exact_equal, got[key], value))
              if key == "candidates" else _exact_equal(got.get(key), value))
        if not ok:
            return Check(1, 1, 0, reason=f"{key}: got {got.get(key)}, want {value}")
    if set(got) != set(want):
        return Check(1, 1, 0, reason=f"fields {sorted(got)} vs {sorted(want)}")
    return Check(1, 0, 1)


# -- wavefunction --------------------------------------------------------------


def _wave_meta(out: str, fmt: str) -> tuple[dict, int, int]:
    if fmt == "json":
        meta, _ = json.JSONDecoder().raw_decode(out, out.index("{"))
        return meta, out.count('"kind": "radial"'), out.count('"kind": "angular"')
    meta = {}
    for line in out.splitlines():
        if not line.startswith("# "):
            break
        key, _, val = line[2:].partition(" = ")
        meta[key] = _value(val)
    return meta, out.count("\nradial,"), out.count("\nangular,")


def check_wavefunction(argv, rc, out) -> Check:
    opts = options(argv)
    if rc != 0:
        return Check(1, 1, 0, reason=f"exit {rc}")
    try:
        meta, n_radial, n_angular = _wave_meta(out, opts.get("format", "json"))
    except ValueError as exc:
        return Check(1, 1, 0, reason=f"unparsable output: {exc}")
    want = tuple(int(opts[k]) for k in ("N", "n", "m"))
    ref = _Levels(opts)(*want)
    samples = int(opts.get("samples", 1000))
    mass = float(opts["mass"])
    if isinstance(ref, str):
        return Check(1, 1, 0, reason=f"reference expects {ref}")
    eps, leff = ref
    if not (_close(meta.get("energy"), eps, ENERGY_TOL * mass)
            and _close(meta.get("l_eff"), leff, LEFF_TOL * max(1.0, leff))):
        return Check(1, 1, 0, reason=f"meta energy {meta.get('energy')} / l_eff {meta.get('l_eff')} "
                                     f"vs reference {eps} / {leff}")
    if (meta.get("N"), meta.get("n"), meta.get("m")) != want or meta.get("samples") != samples \
            or (n_radial, n_angular) != (samples, samples):
        return Check(1, 1, 0, reason=f"meta or sample count mismatch: {n_radial}, {n_angular}")
    converged = meta.get("converged") is True
    return Check(1, 0, int(converged), meta.get("iterations", 0))


def check(argv, rc, out, strict: bool = True) -> Check:
    """Dispatch on the subcommand."""
    if argv[0] == "spectrum":
        return check_spectrum(argv, rc, out)
    if argv[0] == "verify":
        return check_verify(argv, rc, out, strict)
    if argv[0] == "wavefunction":
        return check_wavefunction(argv, rc, out)
    return check_nu(argv, rc, out)
