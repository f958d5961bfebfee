"""Module boundaries inside the kgring package."""

import ast
import os
import subprocess
import sys
import textwrap
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


def test_closed_forms_load_no_numpy():
    # spectrum and nu reduce compute on floats and Fractions: a fresh process
    # that runs them imports neither numpy nor the oracle and its kernel, and
    # the oracle's package names still resolve once they are asked for
    script = textwrap.dedent("""
        import contextlib, io, sys
        import kgring
        import kgring.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert kgring.cli.main(["spectrum", "--alpha", "0.2", "--beta", "0.05",
                                    "--gamma", "0.02", "--mass", "1", "--Nmax", "1",
                                    "--nmax", "1", "--mmax", "1"]) == 0
            assert kgring.cli.main(["nu", "reduce", "--target", "radial", "--alpha", "-2",
                                    "--beta", "0", "--gamma", "0", "--mass", "5",
                                    "--epsilon", "4", "--lambda", "2", "--degree", "2"]) == 0
        loaded = sorted({"numpy", "kgring.oracle", "kgring.kernels"} & set(sys.modules))
        assert loaded == [], loaded
        from kgring import *
        missing = [name for name in kgring.__all__ if name not in globals()]
        assert missing == [], missing
        assert BACKEND == "python"
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
