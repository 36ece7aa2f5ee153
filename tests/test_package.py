"""Package-level structure: every exported name exists, and importing the
harness loads neither sympy nor scipy."""

import importlib
import os
import subprocess
import sys

import pytest

MODULES = ["bmk", "cli", "exterior", "fields", "geometry", "mollify",
           "operators", "young"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"bmklab.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


def test_cli_import_loads_neither_sympy_nor_scipy():
    """sympy is imported only to parse green-stokes coefficients, and no
    module needs scipy; a fresh interpreter proves it."""
    src = os.path.dirname(os.path.dirname(importlib.import_module("bmklab").__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, bmklab.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
