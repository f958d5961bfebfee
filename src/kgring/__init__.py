"""Bound states of the Klein-Gordon equation with a ring-shaped potential.

Closed-form spectra and wavefunctions come out of a hypergeometric-type
reduction of the separated radial and polar equations; everything the
reduction produces can be cross-checked against an independent
finite-difference eigensolver (see `kgring.oracle`).
"""

import importlib

from .bound_states import (
    AngularSolution,
    BoundState,
    Coupling,
    PotentialParams,
    QuantumNumbers,
    angular_mode,
    angular_nu_problem,
    angular_wavefunction,
    effective_l,
    nonrel_limit_check,
    radial_energy,
    radial_mode,
    radial_nu_problem,
    radial_wavefunction,
    solve_bound_state,
)
from .errors import (
    ComplexU,
    DegeneracyWarning,
    DegreeError,
    DomainError,
    GridTooCoarse,
    NoBoundState,
    NoConvergence,
    NoPhysicalBranch,
    NoRealK,
    NotAPerfectSquare,
    SolverError,
    UnboundEnergy,
    UnclassifiedSigma,
)
from .nu import (
    Chain,
    Family,
    NUBranch,
    NUProblem,
    PhiFactor,
    Quantization,
    branches,
    classify,
    select_physical,
    solution_chain,
)
from .polynomials import Poly, format_poly, perfect_square_root, quad_discriminant
from .special import jacobi_poly, laguerre_assoc

__version__ = "0.1.0"

# The oracle and its kernel import numpy, which the closed forms never need:
# their names are resolved on first access (PEP 562), so `import kgring`
# loads neither module until one of these is asked for.
_LAZY = {
    "BACKEND": "kernels",
    "GridSpec": "oracle",
    "angular_numeric_lambda": "oracle",
    "ode_residual": "oracle",
    "radial_numeric_energy": "oracle",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)

__all__ = [
    "AngularSolution", "BoundState", "Coupling", "PotentialParams",
    "QuantumNumbers", "angular_mode", "angular_nu_problem",
    "angular_wavefunction", "effective_l", "nonrel_limit_check",
    "radial_energy", "radial_mode",
    "radial_nu_problem", "radial_wavefunction", "solve_bound_state",
    "ComplexU", "DegeneracyWarning", "DegreeError", "DomainError",
    "GridTooCoarse", "NoBoundState", "NoConvergence", "NoPhysicalBranch",
    "NoRealK", "NotAPerfectSquare", "SolverError", "UnboundEnergy",
    "UnclassifiedSigma",
    "BACKEND",
    "Chain", "Family", "NUBranch", "NUProblem", "PhiFactor", "Quantization",
    "branches", "classify", "select_physical", "solution_chain",
    "GridSpec", "angular_numeric_lambda", "ode_residual",
    "radial_numeric_energy",
    "Poly", "format_poly", "perfect_square_root", "quad_discriminant",
    "jacobi_poly", "laguerre_assoc",
    "__version__",
]
