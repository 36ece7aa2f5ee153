"""Smoke test of scripts/kernel_profile.py: its three plot-ready CSVs."""

import csv
import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "kernel_profile.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("kernel_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def test_kernel_profile_writes_three_csvs(tmp_path):
    assert _load_script().main(["--out-dir", str(tmp_path)]) == 0
    expected = {
        "norm_constants.csv": (["n", "q", "A"], 3),
        "pole_mass.csv": (["rho", "mass"], 6),
        "log_ladder.csv": (["delta", "abs_log_delta", "boundary_mass", "fitted_bound"], 8),
    }
    for name, (header, count) in expected.items():
        got_header, rows = _read(tmp_path / name)
        assert got_header == header, name
        assert len(rows) == count, name
    _, ladder = _read(tmp_path / "log_ladder.csv")
    for _, _, mass, bound in ladder:
        assert float(bound) >= float(mass)
