"""Module boundaries inside the kgring package."""

import ast
from pathlib import Path

import kgring

PACKAGE = Path(kgring.__file__).parent


def private_imports(source: str) -> list:
    """`_`-prefixed names that `source` imports from another kgring module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "kgring":
            continue
        found += [a.name for a in node.names if a.name.startswith("_")]
    return found


def test_private_names_stay_in_their_module():
    # a helper that other modules need is public API: it gets a public name
    crossings = {path.name: private_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in crossings.items() if names} == {}


def test_detects_relative_and_absolute_imports():
    assert private_imports("from .polynomials import Poly, _helper\n") == ["_helper"]
    assert private_imports("from kgring.nu import _quad_real_roots\n") == ["_quad_real_roots"]
    assert private_imports("from . import _impl\nfrom os import _exit\n") == ["_impl"]


def test_package_exports_resolve():
    # `from kgring import *` fails on a name that is deleted but still listed
    assert [name for name in kgring.__all__ if not hasattr(kgring, name)] == []
    # one Sturm kernel; run records still read its name
    assert kgring.BACKEND == "python"
