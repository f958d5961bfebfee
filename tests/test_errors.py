"""The one integer-argument rule, `errors.check_int`, at every entry point
that takes a count, a degree or a quantum number."""

import pytest

from kgring.bound_states import (
    PotentialParams,
    QuantumNumbers,
    angular_mode,
    effective_l,
    radial_energy,
    radial_mode,
    solve_bound_state,
)
from kgring.errors import DomainError, check_int
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
