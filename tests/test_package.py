"""Package-level structure: every exported name exists."""

import importlib

import pytest

MODULES = ["bmk", "cli", "exterior", "fields", "geometry", "mollify",
           "operators", "young"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"bmklab.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing
