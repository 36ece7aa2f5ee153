"""scripts/run_all_experiments.py: one report per experiment, exit 1 on a fail."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "run_all_experiments.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_writes_a_report_pair_per_experiment(tmp_path, capsys):
    out = tmp_path / "reports"
    argv = ["--only", "green-stokes", "young-scan", "--out-dir", str(out)]
    assert _load_script().main(argv) == 0
    assert sorted(os.listdir(out)) == [
        "green_stokes.csv", "green_stokes.meta.json",
        "young_scan.csv", "young_scan.meta.json"]
    assert "all 2 experiments passed" in capsys.readouterr().out


def test_run_all_names_the_failing_experiment(tmp_path, capsys):
    """Level 0 is too coarse for green-stokes and fine for young-scan."""
    ini = tmp_path / "zero.ini"
    ini.write_text("[common]\nlevel = 0\n")
    argv = ["--only", "green-stokes", "young-scan", "--config", str(ini),
            "--out-dir", str(tmp_path / "reports")]
    assert _load_script().main(argv) == 1
    assert "failed: green-stokes\n" in capsys.readouterr().out
