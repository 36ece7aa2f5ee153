"""Package-level structure: every exported name exists, and importing the
harness or loading the shipped config loads neither sympy nor scipy."""

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
    """numpy is the only runtime dependency: a fresh interpreter imports the
    harness and builds green-stokes's config from full.ini without either."""
    src = os.path.dirname(os.path.dirname(importlib.import_module("bmklab").__file__))
    full = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "configs", "full.ini")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys; from bmklab import cli; "
            "cli.ExperimentConfig(experiment='green-stokes', "
            f"**cli.load_config({full!r}, 'green-stokes')); "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
