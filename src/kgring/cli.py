"""Command-line surface.

Subcommands: `spectrum` (sweep levels over quantum-number ranges),
`wavefunction` (sample one state's radial and polar factors), `verify`
(closed form against the finite-difference check), and `nu reduce` (print the
reduction chain for one separated equation, rational where the inputs are).

All inputs are in natural units (hbar = c = 1); `--mass` sets the energy
scale. Output is deterministic: fixed row order, floats at 15 significant
digits, CSV with a header row, JSON as an array of flat objects. Exit codes:
0 all good, 1 usage error, 2 computational failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import warnings
from fractions import Fraction
from functools import cache, partial
from itertools import chain, islice

from .bound_states import (
    Coupling,
    PotentialParams,
    QuantumNumbers,
    angular_nu_problem,
    angular_wavefunction,
    check_float_range,
    radial_nu_problem,
    radial_wavefunction,
    solve_bound_state,
)
from .errors import DegeneracyWarning, DomainError, SolverError, check_int, check_real
from .nu import Chain, solution_chain
from .polynomials import format_poly

SPECTRUM_FIELDS = (
    "N", "n", "m", "l_eff", "energy", "binding",
    "iterations", "converged", "residual", "error",
)
VERIFY_FIELDS = (
    "kind", "N", "n", "m", "energy", "energy_fd", "energy_err",
    "lambda", "lambda_fd", "lambda_err",
    "radial_residual", "angular_residual", "ok", "error",
)
WAVEFUNCTION_FIELDS = ("kind", "coordinate", "value")


def _fmt15(x) -> str:
    return f"{float(x) + 0.0:.15g}"  # + 0.0 turns -0.0 into 0.0: never emit -0


def _canon(x) -> float:
    """Round-trip through the output precision so emit(parse(emit)) is stable."""
    return float(_fmt15(x))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt15(v)
    return str(v)


# Rows carry the floats the commands computed, and each float is formatted
# once, when it is emitted: CSV prints its 15-digit text and JSON the float
# that text reads back as.


def _emit_rows(rows, fields, fmt: str) -> str:
    return _emit_csv(rows, fields) if fmt == "csv" else _emit_json_rows(_json_rows(rows))


def _json_rows(rows) -> list[dict]:
    """The rows with each float replaced by _canon of it."""
    # _canon inlined: this runs once per float of every JSON row
    return [{k: float(f"{v + 0.0:.15g}") if isinstance(v, float) else v for k, v in r.items()}
            for r in rows]


def _emit_json_rows(rows) -> str:
    """json.dumps(rows, indent=2) + "\n" for a list of flat, non-empty dicts.

    With `indent` json.dumps runs CPython's pure-Python encoder; without it,
    the C one. Items separated by ",\n    " are already a record's fields as
    indent=2 lays them out, so only the record boundaries "},\n    {" need
    respacing. No encoded value can hold that text: the encoder escapes every
    newline inside a string.
    """
    if not rows:
        return "[]\n"
    body = json.dumps(rows, separators=(",\n    ", ": "))[2:-2]
    return "[\n  {\n    " + body.replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]\n"


def _emit_csv(rows, fields) -> str:
    """What csv.writer writes for a header line and the cells
    _cell(row.get(field)) of each row, in a table of two or more fields.

    `rows` is any iterable, read _CSV_BLOCK rows at a time and column by
    column within a block, so only one block's cells are held at once.
    """
    blocks = [",".join(_csv_column(fields))]
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        columns = [_csv_column([r.get(f) for r in block]) for f in fields]
        blocks.append("\n".join(map(",".join, zip(*columns))))
    blocks.append("")  # the final newline
    return "\n".join(blocks)


# rows per block of _emit_csv
_CSV_BLOCK = 1024


def _csv_column(values) -> list[str]:
    # _cell inlined for floats, nearly every cell, and for text
    cells = [f"{v + 0.0:.15g}" if isinstance(v, float) else v if type(v) is str else _cell(v)
             for v in values]
    if _CSV_SPECIAL.search("".join(cells)):
        cells = [_csv_field(c) for c in cells]
    return cells


def _csv_field(text: str) -> str:
    """text as csv.writer writes it in a row of several fields."""
    if not _CSV_SPECIAL.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


# csv.writer quotes no field without these characters
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _scalar_arg(text: str):
    """Fraction where the literal allows it, float otherwise."""
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise ValueError("must be non-negative")
    return v


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_potential(p: argparse.ArgumentParser, scalar_type) -> None:
    p.add_argument("--alpha", type=scalar_type, required=True, help="Coulomb strength")
    p.add_argument("--beta", type=scalar_type, required=True, help="ring strength")
    p.add_argument("--gamma", type=scalar_type, required=True, help="ring asymmetry")
    p.add_argument("--mass", type=scalar_type, required=True, help="particle mass (sets the scale)")
    p.add_argument("--coupling", choices=["halved", "full"], default="halved",
                   help="how V splits between scalar and vector terms")


def _add_shared(p: argparse.ArgumentParser) -> None:
    """The options of the commands that run the self-consistent solver."""
    _add_potential(p, float)
    p.add_argument("--tol", type=float, default=1e-12, help="self-consistency tolerance (x mass)")
    p.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _add_ranges(p: argparse.ArgumentParser) -> None:
    p.add_argument("--Nmax", type=_nonneg_int, default=0)
    p.add_argument("--nmax", type=_nonneg_int, default=0)
    p.add_argument("--mmax", type=_nonneg_int, default=0)


def build_parser() -> argparse.ArgumentParser:
    # each command's function is looked up when it runs, not bound here: one
    # parser serves a whole process, and a wrapper installed on this module
    # after it was built (a tracer, say) must still see every command
    parser = _Parser(prog="kgring", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="levels over quantum-number ranges")
    _add_shared(sp)
    _add_ranges(sp)
    sp.set_defaults(func=lambda args: cmd_spectrum(args))

    wf = sub.add_parser("wavefunction", help="sample one state's factors")
    _add_shared(wf)
    wf.add_argument("--N", type=_nonneg_int, required=True)
    wf.add_argument("--n", type=_nonneg_int, required=True)
    wf.add_argument("--m", type=int, required=True)
    wf.add_argument("--samples", type=int, default=1000)
    wf.add_argument("--rmax", type=float, default=None, help="radial box (default: auto)")
    wf.set_defaults(func=lambda args: cmd_wavefunction(args))

    vf = sub.add_parser("verify", help="closed form vs finite differences")
    _add_shared(vf)
    _add_ranges(vf)
    vf.add_argument("--points", type=int, default=4000,
                    help="radial grid points at the coarsest level; the polar grid "
                         "is sized from m and n")
    vf.add_argument("--refine", type=int, default=2,
                    help="grid halvings to extrapolate over; the polar ladder takes 3 more")
    vf.add_argument("--vtol", type=float, default=1e-5)
    vf.set_defaults(func=lambda args: cmd_verify(args))

    nu = sub.add_parser("nu", help="reduction chains")
    nusub = nu.add_subparsers(dest="nu_command", required=True)
    rd = nusub.add_parser("reduce", help="print one equation's reduction chain")
    _add_potential(rd, _scalar_arg)
    rd.add_argument("--format", choices=["json", "csv", "text"], default="json")
    rd.add_argument("--target", choices=["radial", "angular"], required=True)
    rd.add_argument("--epsilon", type=_scalar_arg, required=True, help="energy in the coupling")
    rd.add_argument("--m", type=int, default=0, help="azimuthal number (angular target)")
    rd.add_argument("--lambda", type=_scalar_arg, required=True, dest="lam",
                    help="separation constant")
    rd.add_argument("--degree", type=_nonneg_int, default=None,
                    help="also evaluate lambda_bar_n at this n")
    rd.set_defaults(func=lambda args: cmd_nu_reduce(args))

    return parser


def _build_params(args) -> PotentialParams:
    return PotentialParams(
        alpha=args.alpha, beta=args.beta, gamma=args.gamma,
        mass=args.mass, coupling=Coupling(args.coupling),
    )


def _check_solver_options(args, params) -> None:
    """Reject what solve_bound_state would reject on every row, once, up front."""
    check_real("--tol", args.tol, above=0)
    check_int("--max-iter", args.max_iter, 2)
    # the largest level of the grid bounds every row's floats
    check_float_range(params, QuantumNumbers(args.Nmax, args.nmax, args.mmax))


def _rows(args, params, record):
    """record(level, N, n, m) over the quantum-number grid, in fixed row order.

    A level depends on (N, n, m) only through N + n and |m|, so each one is
    solved once, and `level` is that solve (a BoundState) or the SolverError
    it raised. A row depends on m only through m^2 and |m|, so each distinct
    (N, n, |m|) is recorded once and the -m row is the +m record with its m
    field set.
    """
    rows = [
        (N, n, m)
        for N in range(args.Nmax + 1)
        for n in range(args.nmax + 1)
        for m in range(-args.mmax, args.mmax + 1)
    ]
    levels = {key: _solve_level(params, *key, args)
              for key in dict.fromkeys((N + n, abs(m)) for N, n, m in rows)}
    done = {(N, n, m): record(levels[(N + n, m)], N, n, m)
            for N, n, m in dict.fromkeys((N, n, abs(m)) for N, n, m in rows)}
    return [{**done[(N, n, abs(m))], "m": m} for N, n, m in rows]


def _solve_level(params, s, m, args):
    try:
        return solve_bound_state(params, QuantumNumbers(s, 0, m),
                                 tol=args.tol, max_iter=args.max_iter)
    except SolverError as exc:
        return exc


# -- spectrum ---------------------------------------------------------------


def _spectrum_record(level, N, n, m) -> dict:
    base = {"N": N, "n": n, "m": m}
    if isinstance(level, SolverError):
        return {**dict.fromkeys(SPECTRUM_FIELDS), **base, "iterations": 0, "converged": False,
                "error": type(level).__name__}
    # l_eff = n + B, formed as the AngularSolution forms it (B is a Fraction
    # where the strengths leave it exact)
    return {**base, "l_eff": float(level.angular.B + n), "energy": level.energy,
            "binding": level.binding, "iterations": level.iterations,
            "converged": level.converged, "residual": level.residual, "error": None}


def cmd_spectrum(args) -> int:
    params = _build_params(args)
    _check_solver_options(args, params)
    records = _rows(args, params, _spectrum_record)
    sys.stdout.write(_emit_rows(records, SPECTRUM_FIELDS, args.format))
    return 2 if any(r["error"] for r in records) else 0


# -- wavefunction -------------------------------------------------------------


def cmd_wavefunction(args) -> int:
    import numpy as np

    check_int("--samples", args.samples, 2)
    if args.rmax is not None:
        check_real("--rmax", args.rmax, above=0)
    params = _build_params(args)
    st = solve_bound_state(params, QuantumNumbers(args.N, args.n, args.m),
                           tol=args.tol, max_iter=args.max_iter)
    # box covering the decaying tail: z = 2 kappa r out to 4 n' + 25
    rmax = args.rmax if args.rmax is not None else (4.0 * st.n_prime + 25.0) / (2.0 * st.kappa)
    r = np.linspace(0.0, rmax, args.samples)
    x = np.linspace(-1.0, 1.0, args.samples)
    u = radial_wavefunction(st, r)
    th = angular_wavefunction(st, x)
    meta = {
        "N": st.numbers.N, "n": st.numbers.n, "m": st.numbers.m,
        "energy": st.energy, "binding": st.binding, "l_eff": st.l_eff,
        "B": float(st.angular.B), "C": float(st.angular.C), "n_prime": st.n_prime,
        "kappa": st.kappa, "norm_radial": st.norm_radial, "norm_angular": st.norm_angular,
        "separation_lambda": st.separation_lambda, "iterations": st.iterations,
        "converged": st.converged, "residual": st.residual, "rmax": rmax,
        "samples": args.samples,
    }
    samples = (
        {"kind": kind, "coordinate": c, "value": v}
        for kind, coords, values in (("radial", r, u), ("angular", x, th))
        for c, v in zip(coords.tolist(), values.tolist())
    )
    if args.format == "csv":  # the meta row as comment lines above the sample table
        sys.stdout.write("".join(f"# {key} = {_cell(val)}\n" for key, val in meta.items())
                         + _emit_csv(samples, WAVEFUNCTION_FIELDS))
    else:
        sys.stdout.write(_emit_json_rows(_json_rows(chain([{"kind": "meta", **meta}], samples))))
    return 0


# -- verify -------------------------------------------------------------------


def _residual_pair(params, st):
    """Normalized ODE defects of the sampled closed-form factors."""
    import numpy as np

    from .oracle import ode_residual

    mass = float(params.mass)
    eps, lam = st.energy, float(st.separation_lambda)
    a_coup = params.coupling_factor * (eps + mass) * abs(float(params.alpha))
    r_out = (4.0 * st.n_prime + 25.0) / (2.0 * st.kappa)
    r = np.linspace(0.02 * r_out, 0.6 * r_out, 1501)
    u = radial_wavefunction(st, r)

    def c_radial(rv):
        return (eps * eps - mass * mass) - lam / (rv * rv) + a_coup / rv

    x = np.linspace(-0.9, 0.9, 1501)
    th = angular_wavefunction(st, x)
    wv = th * np.sqrt(1.0 - x * x)
    mm = st.numbers.m ** 2 + float(st.angular.beta_eff)
    ge = float(st.angular.gamma_eff)

    def c_polar(xv):
        s = 1.0 - xv * xv
        return (lam * s - mm - ge * xv + 1.0) / (s * s)

    return (
        ode_residual(u, r, c_radial),
        ode_residual(wv, x, c_polar),
    )


def _verify_record(level, N, n, m, params, args, grid) -> dict:
    from .oracle import angular_numeric_lambda, radial_numeric_energy

    base = {"kind": "check", "N": N, "n": n, "m": m}
    if isinstance(level, SolverError):
        return {**dict.fromkeys(VERIFY_FIELDS), **base, "ok": False, "error": type(level).__name__}
    try:
        st = level.on_level(QuantumNumbers(N, n, m))
        lam = float(st.separation_lambda)
        eps_fd = radial_numeric_energy(params, lam, N, grid, tol=args.vtol)
        lam_fd = angular_numeric_lambda(float(st.angular.beta_eff),
                                        float(st.angular.gamma_eff),
                                        m, n, grid, tol=args.vtol)
        eps_err = abs(st.energy - eps_fd) / float(params.mass)
        lam_err = abs(lam - lam_fd) / max(1.0, abs(lam))
        res_r, res_x = _residual_pair(params, st)
        ok = eps_err <= args.vtol and lam_err <= args.vtol
        return {**base, "energy": st.energy, "energy_fd": eps_fd, "energy_err": eps_err,
                "lambda": lam, "lambda_fd": lam_fd, "lambda_err": lam_err,
                "radial_residual": res_r, "angular_residual": res_x, "ok": ok, "error": None}
    except SolverError as exc:
        return {**dict.fromkeys(VERIFY_FIELDS), **base, "ok": False, "error": type(exc).__name__}


def cmd_verify(args) -> int:
    check_real("--vtol", args.vtol, above=0)
    from .oracle import GridSpec

    params = _build_params(args)
    _check_solver_options(args, params)
    grid = GridSpec(points=args.points, refinement=args.refine)
    records = _rows(args, params, partial(_verify_record, params=params, args=args, grid=grid))
    all_ok = all(r["ok"] for r in records)
    worst_e = max((r["energy_err"] for r in records if r["energy_err"] is not None),
                  default=None)
    worst_l = max((r["lambda_err"] for r in records if r["lambda_err"] is not None),
                  default=None)
    summary = {**dict.fromkeys(VERIFY_FIELDS), "kind": "summary", "energy_err": worst_e,
               "lambda_err": worst_l, "ok": all_ok}
    sys.stdout.write(_emit_rows(records + [summary], VERIFY_FIELDS, args.format))
    return 0 if all_ok else 2


# -- nu reduce ----------------------------------------------------------------


def _json_scalar(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    if isinstance(v, float):
        return _canon(v)
    return v


def _branch_payload(b, var, selected) -> dict:
    return {
        "k": _json_scalar(b.k),
        "sign": "+" if b.sign > 0 else "-",
        "pi": format_poly(b.pi, var),
        "tau": format_poly(b.tau, var),
        "tau_prime": _json_scalar(b.tau_prime),
        "lambda_bar": _json_scalar(b.lambda_bar),
        "physical": b.physical,
        "selected": selected,
    }


def _nu_payload(chain: Chain, var: str, target: str, degree, lambda_bar_n) -> dict:
    problem, sel, q = chain.problem, chain.branch, chain.quantization
    branch_rows = [_branch_payload(b, var, chain.selects(b)) for b in chain.branches]
    payload = {
        "target": target,
        "variable": var,
        "sigma": format_poly(problem.sigma, var),
        "tau_tilde": format_poly(problem.tau_tilde, var),
        "sigma_tilde": format_poly(problem.sigma_tilde, var),
        "family": chain.family.value,
        "candidates": [_json_scalar(k) for k in chain.candidates],
        "branches": branch_rows,
        "selected": branch_rows[chain.branches.index(sel)],
        "phi": {
            "roots": [_json_scalar(r) for r in chain.phi.roots],
            "exponents": [_json_scalar(e) for e in chain.phi.exponents],
            "rate_linear": _json_scalar(chain.phi.rate_linear),
            "rate_quadratic": _json_scalar(chain.phi.rate_quadratic),
        },
        "quantization": {
            "constant": _json_scalar(q.constant),
            "linear": _json_scalar(q.linear),
            "quadratic": _json_scalar(q.quadratic),
        },
    }
    if degree is not None:
        payload["degree"] = degree
        payload["lambda_bar_n"] = _json_scalar(lambda_bar_n)
    return payload


def _nu_text(p: dict) -> str:
    lines = [
        f"target: {p['target']} (variable {p['variable']})",
        f"sigma       = {p['sigma']}",
        f"tau_tilde   = {p['tau_tilde']}",
        f"sigma_tilde = {p['sigma_tilde']}",
        f"family: {p['family']}",
        "k candidates: " + ", ".join(str(k) for k in p["candidates"]),
    ]
    for b in p["branches"]:
        tags = ("physical" if b["physical"] else "unphysical") + (", selected" if b["selected"] else "")
        lines.append(
            f"  k = {b['k']}, sign {b['sign']}: pi = {b['pi']}; tau = {b['tau']}; "
            f"tau' = {b['tau_prime']}; lambda_bar = {b['lambda_bar']}  [{tags}]"
        )
    phi = p["phi"]
    lines.append(
        "phi: roots " + (", ".join(str(r) for r in phi["roots"]) or "(none)")
        + "; exponents " + (", ".join(str(e) for e in phi["exponents"]) or "(none)")
        + f"; rates linear {phi['rate_linear']}, quadratic {phi['rate_quadratic']}"
    )
    q = p["quantization"]
    lines.append(
        f"lambda_bar_n = {q['constant']} + ({q['linear']}) n + ({q['quadratic']}) n^2"
    )
    if "lambda_bar_n" in p:
        lines.append(f"lambda_bar_{p['degree']} = {p['lambda_bar_n']}")
    return "\n".join(lines) + "\n"


def _flatten(payload, prefix="") -> list[dict]:
    """The payload's leaves as {"key": dotted path, "value": cell text} rows."""
    rows: list[dict] = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append({"key": prefix[:-1], "value": _cell(payload)})
    return rows


def cmd_nu_reduce(args) -> int:
    # exact literals stay exact, but every chain also carries their floats
    for name in ("alpha", "beta", "gamma", "mass", "epsilon", "lam"):
        check_real("--lambda" if name == "lam" else f"--{name}", getattr(args, name))
    params = _build_params(args)
    if args.target == "radial":
        problem = radial_nu_problem(params, args.epsilon, args.lam)
        var = "r"
    else:
        problem = angular_nu_problem(params, args.epsilon, args.m, args.lam)
        var = "x"
    emit = {"text": _nu_text, "csv": lambda payload: _emit_csv(_flatten(payload), ("key", "value")),
            "json": lambda payload: json.dumps(payload, indent=2) + "\n"}[args.format]
    try:
        chain = solution_chain(problem)
        lambda_bar_n = None if args.degree is None else chain.quantization.evaluate(args.degree)
        text = emit(_nu_payload(chain, var, args.target, args.degree, lambda_bar_n))
    except ValueError as exc:
        # only int -> str past sys.get_int_max_str_digits(), in the emitter or an error
        # message; any other ValueError (a DomainError included) keeps its own message
        if "integer string conversion" not in str(exc):
            raise
        raise DomainError(f"an exact value is too long to print: {exc}") from None
    sys.stdout.write(text)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves a parser unchanged, so one per process serves every call
    return build_parser()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"kgring: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    with warnings.catch_warnings():
        # a warning is one stderr line, without the source location, and a
        # degenerate branch choice is reported on every call, not once per process
        warnings.simplefilter("always", DegeneracyWarning)
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except DomainError as exc:
            print(f"kgring: error: {exc}", file=sys.stderr)
            return 1
        except SolverError as exc:
            print(f"kgring: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
