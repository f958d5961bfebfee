"""The integer-argument rule, `errors.check_int`, at every entry point that
takes a count, a degree or a quantum number, and the real-argument rule,
`errors.check_real`, at every entry point that takes a real value."""

import math
from fractions import Fraction

import pytest

from kgring.bound_states import (
    PotentialParams,
    QuantumNumbers,
    angular_mode,
    angular_nu_problem,
    effective_l,
    radial_energy,
    radial_mode,
    radial_nu_problem,
    solve_bound_state,
)
from kgring.errors import DomainError, check_int, check_real
from kgring.nu import Quantization
from kgring.oracle import GridSpec, angular_numeric_lambda, radial_numeric_energy
from kgring.special import jacobi_poly, laguerre_assoc

PARAMS = PotentialParams(alpha=0.2, beta=0.0, gamma=0.0, mass=1.0)
COARSE = GridSpec(points=100, refinement=0)

# (argument, the entry point called with that argument set to v and every
# other argument valid, the least value the argument takes)
SITES = [
    ("QuantumNumbers.N", lambda v: QuantumNumbers(v, 0, 0), 0),
    ("QuantumNumbers.n", lambda v: QuantumNumbers(0, v, 0), 0),
    ("QuantumNumbers.m", lambda v: QuantumNumbers(0, 0, v), None),
    ("effective_l.m", lambda v: effective_l(v, 0.5, 0.1, 0), None),
    ("effective_l.n", lambda v: effective_l(1, 0.5, 0.1, v), 0),
    ("radial_energy.N", lambda v: radial_energy(v, 1.0, 0.2, 1.0), 0),
    ("solve_bound_state.max_iter",
     lambda v: solve_bound_state(PARAMS, QuantumNumbers(0, 0, 0), max_iter=v), 2),
    ("radial_mode.N", lambda v: radial_mode(v, 1.0, 0.5, 1.0), 0),
    ("angular_mode.n", lambda v: angular_mode(v, 1.0, 0.5, 0.0), 0),
    ("laguerre_assoc.k", lambda v: laguerre_assoc(v, 0.5, 1.0), 0),
    ("jacobi_poly.k", lambda v: jacobi_poly(v, 0.5, 0.5, 0.3), 0),
    ("Quantization.evaluate.n", lambda v: Quantization(0, 3, -1).evaluate(v), 0),
    ("GridSpec.points", lambda v: GridSpec(points=v), 100),
    ("GridSpec.refinement", lambda v: GridSpec(refinement=v), 0),
    ("radial_numeric_energy.N", lambda v: radial_numeric_energy(PARAMS, 2.0, v, COARSE), 0),
    ("angular_numeric_lambda.m", lambda v: angular_numeric_lambda(0.5, 0.1, v, 0, COARSE), None),
    ("angular_numeric_lambda.n", lambda v: angular_numeric_lambda(0.5, 0.1, 1, v, COARSE), 0),
]


@pytest.mark.parametrize("call,bad", [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, call, least in SITES
    for bad in [True, False, 1.0] + ([] if least is None else [least - 1])
])
def test_rejects_bools_floats_and_values_below_least(call, bad):
    with pytest.raises(DomainError):
        call(bad)


def test_least_value_is_accepted():
    # so every other argument in the table is valid, and each raise above is
    # the integer rule's
    for _, call, least in SITES:
        call(0 if least is None else least)


def test_message_names_the_argument():
    with pytest.raises(DomainError, match=r"^refinement must be an int >= 0, got True$"):
        check_int("refinement", True, 0)
    with pytest.raises(DomainError, match=r"^m must be an int, got 1\.0$"):
        check_int("m", 1.0)
    check_int("m", -(10**400))


def tiny_above(bound) -> float:
    """The least float above `bound`: the least value an open bound admits."""
    return math.nextafter(bound, math.inf)


# (argument, the entry point called with that argument set to v and every
# other argument valid, the argument's least valid value or a typical one
# where it has no bound, a value that breaks its bound or None)
REAL_SITES = [
    ("PotentialParams.alpha", lambda v: PotentialParams(v, 0.05, 0.02, 1.0), 0, None),
    ("PotentialParams.beta", lambda v: PotentialParams(0.2, v, 0.02, 1.0), 0, None),
    ("PotentialParams.gamma", lambda v: PotentialParams(0.2, 0.05, v, 1.0), 0, None),
    ("PotentialParams.mass", lambda v: PotentialParams(0.2, 0.05, 0.02, v), tiny_above(0), 0),
    ("solve_bound_state.tol",
     lambda v: solve_bound_state(PARAMS, QuantumNumbers(0, 0, 0), tol=v), tiny_above(0), 0),
    ("effective_l.beta_eff", lambda v: effective_l(1, v, 0.1, 0), 0, None),
    ("effective_l.gamma_eff", lambda v: effective_l(1, 0.5, v, 0), 0, None),
    ("radial_mode.l_eff", lambda v: radial_mode(0, v, 0.5, 1.0), 0, -1e-300),
    ("radial_mode.kappa", lambda v: radial_mode(0, 1.0, v, 1.0), tiny_above(0), 0),
    ("angular_mode.C", lambda v: angular_mode(0, 1.0, v, 0.0), 0, -1e-300),
    ("angular_mode.B", lambda v: angular_mode(0, v, 0.5, 0.0), 0.5, 0.4),
    ("laguerre_assoc.a", lambda v: laguerre_assoc(2, v, 0.5), tiny_above(-1), -1),
    ("jacobi_poly.a", lambda v: jacobi_poly(2, v, 0.5, 0.3), tiny_above(-1), -1),
    ("jacobi_poly.b", lambda v: jacobi_poly(2, 0.5, v, 0.3), tiny_above(-1), -1),
    ("radial_nu_problem.eps", lambda v: radial_nu_problem(PARAMS, v, 2), 0, None),
    ("radial_nu_problem.lam", lambda v: radial_nu_problem(PARAMS, 0.5, v), 0, None),
    ("angular_nu_problem.eps", lambda v: angular_nu_problem(PARAMS, v, 1, 2), 0, None),
    ("angular_nu_problem.lam", lambda v: angular_nu_problem(PARAMS, 0.5, 1, v), 0, None),
    ("radial_numeric_energy.lam",
     lambda v: radial_numeric_energy(PARAMS, v, 0, COARSE), 0, -1e-300),
    ("angular_numeric_lambda.beta_eff",
     lambda v: angular_numeric_lambda(v, 0.1, 1, 0, COARSE), 0, None),
    ("angular_numeric_lambda.gamma_eff",
     lambda v: angular_numeric_lambda(0.5, v, 1, 0, COARSE), 0, None),
]

NOT_REALS = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("True", True),
             ("'1'", "1"), ("10**400", Fraction(10) ** 400)]


@pytest.mark.parametrize("arg,call,bad", [
    pytest.param(name.split(".")[-1], call, bad, id=f"{name}-{label}")
    for name, call, _, breaks in REAL_SITES
    for label, bad in NOT_REALS + ([] if breaks is None else [(repr(breaks), breaks)])
])
def test_rejects_non_finite_non_reals_and_values_past_the_bound(arg, call, bad):
    with pytest.raises(DomainError, match=f"^{arg} "):
        call(bad)


def test_least_real_value_is_accepted():
    # so every other argument in the table is valid, and each raise above is
    # the real rule's
    for _, call, valid, _ in REAL_SITES:
        call(valid)


def test_real_message_names_the_argument():
    with pytest.raises(DomainError, match=r"^alpha must be finite, got nan$"):
        check_real("alpha", math.nan)
    with pytest.raises(DomainError, match=r"^tol must be finite and > 0, got 0$"):
        check_real("tol", 0, above=0)
    with pytest.raises(DomainError, match=r"^B must be finite and >= 0\.5, got 1/3$"):
        check_real("B", Fraction(1, 3), least=0.5)
    with pytest.raises(DomainError, match=r"^a must be a real number, got True$"):
        check_real("a", True, above=-1)
    with pytest.raises(DomainError, match=r"^mass is beyond float range$"):
        check_real("mass", -(10**400))
    check_real("mass", Fraction(10) ** 300, above=0)
    check_real("lam", 0, least=0)


def test_radial_energy_rejects_a_nan_l_eff():
    # the map's own check stays inline, but NaN does not pass it
    with pytest.raises(DomainError, match="l_eff"):
        radial_energy(0, math.nan, 0.2, 1.0)
