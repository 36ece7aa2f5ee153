"""Config handling, report emission, and the experiment entry point."""

import csv
import json
import math
import os
import re

import pytest

from bmklab import cli

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "configs")


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        cli.ExperimentConfig(experiment="frobnicate")
    with pytest.raises(ValueError, match="nonnegative"):
        cli.ExperimentConfig(experiment="mollify", level=-1)
    for p in (math.nan, 0.5):
        with pytest.raises(ValueError, match="p >= 1"):
            cli.ExperimentConfig(experiment="mollify", p=p)
    # at p = inf the slab mass of |f|^p is 0 where |f| < 1, so every tau
    # would pass
    with pytest.raises(ValueError, match="finite p"):
        cli.ExperimentConfig(experiment="mollify", p=math.inf)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        cli.ExperimentConfig(experiment="mollify", fmt="xml")
    # the thresholds and the ladders are constants, not settings
    with pytest.raises(TypeError, match="thresholds"):
        cli.ExperimentConfig(experiment="bmk-verify", thresholds={"final_max": 5e-4})
    for key, value in (("steps", 2), ("eps", (0.2,)), ("grid_n", 65)):
        with pytest.raises(TypeError, match=key):
            cli.ExperimentConfig(experiment="mollify", **{key: value})


def test_load_config_merges_common_and_section(tmp_path):
    path = tmp_path / "lab.ini"
    path.write_text(
        "[common]\nseed = 3\np = 1.5\n"
        "[mollify]\np = 3\nfmt = json\n"
        "[bmk-verify]\nlevel = 2\n")
    kwargs = cli.load_config(str(path), "mollify")
    assert kwargs == {"seed": 3, "p": 3.0, "fmt": "json"}


def test_load_config_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[mollify]\npp = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        cli.load_config(str(path), "mollify")
    # green-stokes's operator is fixed, so its old coefficient keys are typos too
    for section in ("green-stokes", "common"):
        path.write_text(f"[{section}]\na1 = 1 + 0.5*x1*x2\n")
        with pytest.raises(ValueError, match="unknown config key 'a1'"):
            cli.load_config(str(path), "green-stokes")
    # the verdict thresholds are constants, so their old keys are unknown too
    path.write_text("[bmk-verify]\nthreshold_final_max = 1e-3\n")
    with pytest.raises(ValueError, match="unknown config key 'threshold_final_max'"):
        cli.load_config(str(path), "bmk-verify")
    out = tmp_path / "verify"
    assert cli.main(["bmk-verify", "--config", str(path), "--out", str(out)]) == 2
    assert "unknown config key 'threshold_final_max'" in capsys.readouterr().err
    # so are the ladders, even at their shipped values
    for experiment, key, text in (("bmk-verify", "steps", "7"), ("bmk-lp", "steps", "3"),
                                  ("mollify", "eps", "0.2,0.1,0.05,0.025"),
                                  ("mollify", "grid_n", "257")):
        for section in (experiment, "common"):
            path.write_text(f"[{section}]\n{key} = {text}\n")
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                cli.load_config(str(path), experiment)
            assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("verify*"))


@pytest.mark.parametrize("text, message", [
    ("[common]\nlevel = abc\n", "level = 'abc' is not an integer"),
    ("[green-stokes]\nseed = 1.5\n", "seed = '1.5' is not an integer"),
])
def test_config_value_of_the_wrong_type_names_key_and_file(tmp_path, capsys, text, message):
    """A value its key cannot parse is a usage error naming the file and the key."""
    path = tmp_path / "typed.ini"
    path.write_text(text)
    out = tmp_path / "gs"
    assert cli.main(["green-stokes", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: config file {str(path)!r}: {message}\n"
    path.write_text("[mollify]\np = two\n")
    assert cli.main(["mollify", "--config", str(path), "--out", str(out)]) == 2
    assert f"config file {str(path)!r}: p = 'two' is not a number" in capsys.readouterr().err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValueError, match="not readable"):
        cli.load_config(str(tmp_path / "nope.ini"), "mollify")


@pytest.mark.parametrize("text", [
    "seed = 3\n", "[common]\nseed = 3\nseed = 4\n", "[common]\n[common]\n",
    "[common]\nout = 50%\n",
], ids=["no-section-header", "duplicate-key", "duplicate-section", "bad-interpolation"])
def test_malformed_config_is_a_usage_error(tmp_path, capsys, text):
    """A file configparser cannot read is a usage error naming the file, not a
    traceback and a fail verdict; no report is written."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"config file {re.escape(repr(str(path)))} is malformed"):
        cli.load_config(str(path), "young-scan")
    out = tmp_path / "ys"
    assert cli.main(["young-scan", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config file") and str(path) in err
    assert not list(tmp_path.glob("ys*"))


def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """--out in a directory that does not exist stops the run before the
    experiment starts, with a usage error naming the directory."""
    ran = []
    monkeypatch.setitem(cli.EXPERIMENTS, "green-stokes", lambda cfg: ran.append(cfg))
    missing = tmp_path / "no" / "such"
    assert cli.main(["green-stokes", "--out", str(missing / "gs")]) == 2
    assert f"usage error: no directory {str(missing)!r}" in capsys.readouterr().err
    assert ran == [] and not (tmp_path / "no").exists()
    ini = tmp_path / "out.ini"
    ini.write_text(f"[common]\nout = {missing / 'gs'}\n")
    assert cli.main(["green-stokes", "--config", str(ini)]) == 2
    assert ran == []


def _toy_report():
    return cli.Report(
        metadata={"experiment": "young-scan", "checks": {}, "verdict": "pass"},
        columns=["p", "r", "estimate"],
        rows=[{"p": 1.5, "r": math.inf, "estimate": 0.25}],
        verdict="pass")


def test_emit_report_csv_with_sidecar(tmp_path):
    out = str(tmp_path / "rep")
    paths = cli.emit_report(_toy_report(), out, "csv")
    assert paths == [out + ".csv", out + ".meta.json"]
    with open(paths[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "r", "estimate"]
    assert rows[1] == ["1.5", "inf", "0.25"]
    meta = json.load(open(paths[1]))
    assert meta["verdict"] == "pass"


def test_emit_report_json_document(tmp_path):
    out = str(tmp_path / "rep")
    (path,) = cli.emit_report(_toy_report(), out, "json")
    doc = json.load(open(path))
    assert set(doc) == {"metadata", "columns", "rows", "verdict"}
    assert doc["rows"][0]["estimate"] == 0.25


def test_emit_report_empty_rows_header_only(tmp_path):
    rep = cli.Report(metadata={}, columns=["a", "b"], rows=[], verdict="fail")
    paths = cli.emit_report(rep, str(tmp_path / "empty"), "csv")
    with open(paths[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"]]


def test_emit_report_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        cli.emit_report(_toy_report(), str(tmp_path / "rep"), "yaml")


def test_main_usage_errors(tmp_path, capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
    for flags in (["--p", "0.5"], ["--p", "nan"], ["--p", "inf"]):
        assert cli.main(["mollify", *flags]) == 2
        assert "usage error" in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text("[mollify]\nwat = 1\n")
    assert cli.main(["mollify", "--config", str(bad)]) == 2
    # a bad format stops the run before any work, so no report is written
    xml = tmp_path / "xml.ini"
    xml.write_text("[common]\nfmt = xml\n")
    out = tmp_path / "gs"
    assert cli.main(["green-stokes", "--config", str(xml), "--out", str(out)]) == 2
    assert "unknown format" in capsys.readouterr().err
    assert not list(tmp_path.glob("gs*"))


def test_bmk_lp_seed_without_points_names_the_cause(tmp_path, capsys):
    """Seed 1382 draws no point inside the ball: a fail verdict that says so."""
    assert len(cli._sample_ball4_points(1382)) == 0
    out = str(tmp_path / "lp")
    assert cli.main(["bmk-lp", "--seed", "1382", "--out", out]) == 1
    assert "drew no evaluation point" in capsys.readouterr().out
    meta = json.load(open(out + ".meta.json"))
    assert meta["verdict"] == "fail"
    assert meta["error"] == "ValueError: seed 1382 drew no evaluation point in the ball"


@pytest.mark.parametrize("argv", [
    ["bmk-verify", "--p", "2"], ["bmk-lp", "--p", "7"], ["mollify", "--seed", "3"],
    ["mollify", "--level", "2"], ["mollify", "--eps", "0.1"], ["green-stokes", "--p", "3"],
    ["young-scan", "--p", "2"],
], ids=["bmk-verify", "bmk-lp", "mollify-seed", "mollify-level", "mollify-eps",
        "green-stokes", "young-scan"])
def test_flag_the_experiment_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    """Each experiment takes only the flags it reads, so a setting it would
    ignore stops the run before any work."""
    out = tmp_path / "rep"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))


@pytest.mark.parametrize("experiment, section, unread", [
    ("young-scan", "p = 3\n", "['p']"),
    ("mollify", "seed = 9\nlevel = 5\n", "['level', 'seed']"),
    ("green-stokes", "p = 2\n", "['p']"),
], ids=["young-scan", "mollify", "green-stokes"])
def test_setting_the_experiment_does_not_read_in_its_section_is_an_error(
        tmp_path, experiment, section, unread):
    """A key in an experiment's own section that it would ignore is an error;
    the same key in [common] applies only where it is read."""
    path = tmp_path / "lab.ini"
    path.write_text(f"[{experiment}]\n{section}")
    with pytest.raises(ValueError, match=f"{experiment} does not read {re.escape(unread)}"):
        cli.load_config(str(path), experiment)
    path.write_text(f"[common]\n{section}")
    cli.ExperimentConfig(experiment=experiment, **cli.load_config(str(path), experiment))


def test_main_unread_section_setting_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "lab.ini"
    ini.write_text("[mollify]\nlevel = 5\n")
    out = tmp_path / "rep"
    assert cli.main(["mollify", "--config", str(ini), "--out", str(out)]) == 2
    assert "does not read" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))


def test_coefficients_rejected_outside_green_stokes(tmp_path, capsys):
    """Coefficient keys are unknown config keys, in green-stokes and elsewhere."""
    with pytest.raises(TypeError, match="coefficients"):
        cli.ExperimentConfig(experiment="mollify", coefficients={"b": "1"})
    coeff = tmp_path / "coeff.ini"
    out = tmp_path / "rep"
    for section, experiment in (("green-stokes", "green-stokes"), ("common", "young-scan")):
        coeff.write_text(f"[{section}]\na1 = x1\n")
        assert cli.main([experiment, "--config", str(coeff), "--out", str(out)]) == 2
        assert "unknown config key 'a1'" in capsys.readouterr().err
    assert not list(tmp_path.glob("rep*"))


def test_run_experiment_records_unexpected_error(tmp_path, capsys, monkeypatch):
    """An error type no experiment expects still gives a report and exit 1."""
    def broken(cfg):
        raise KeyError("lost")
    monkeypatch.setitem(cli.EXPERIMENTS, "green-stokes", broken)
    out = str(tmp_path / "gs")
    assert cli.main(["green-stokes", "--out", out]) == 1
    captured = capsys.readouterr()
    assert "error: KeyError" in captured.out
    assert "Traceback" in captured.err
    meta = json.load(open(out + ".meta.json"))
    assert meta["verdict"] == "fail"
    assert meta["error"] == "KeyError: 'lost'"
    assert meta["checks"] == {}


def test_main_green_stokes_passes(tmp_path, capsys):
    out = str(tmp_path / "gs")
    assert cli.main(["green-stokes", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "verdict: pass" in captured
    meta = json.load(open(out + ".meta.json"))
    assert meta["verdict"] == "pass"
    assert all(chk["pass"] for chk in meta["checks"].values())
    assert meta["thresholds"] == cli.THRESHOLDS["green-stokes"]


def test_main_level_zero_is_kept(tmp_path, capsys):
    """--level 0 runs and records level 0, not the experiment's default."""
    assert cli.ExperimentConfig(experiment="green-stokes").level == 3
    assert cli.ExperimentConfig(experiment="young-scan").level == 1
    gs, ys = str(tmp_path / "gs"), str(tmp_path / "ys")
    # level 0 is too coarse for green-stokes's compact-support cases: a defined fail
    assert cli.main(["green-stokes", "--level", "0", "--out", gs]) == 1
    cli.main(["young-scan", "--level", "0", "--out", ys])
    capsys.readouterr()
    assert json.load(open(gs + ".meta.json"))["level"] == 0
    for out in (gs, ys):
        with open(out + ".csv") as fh:
            assert {row["level"] for row in csv.DictReader(fh)} == {"0"}


def test_shipped_configs_load():
    """Every experiment loads full.ini, which spells out every setting at
    the default in the code."""
    path = os.path.join(CONFIGS, "full.ini")
    with open(path) as fh:
        text = fh.read()
    for key in cli._KEYS:
        assert re.search(rf"^#? ?{key} = ", text, re.M), key
    for experiment in cli.EXPERIMENTS:
        cfg = cli.ExperimentConfig(experiment=experiment, **cli.load_config(path, experiment))
        default = cli.ExperimentConfig(experiment=experiment)
        for key in cli._KEYS:
            assert getattr(cfg, key) == getattr(default, key), (experiment, key)


def _shorten_ladders(monkeypatch):
    """Cut each experiment's fixed ladder at the library call it feeds: one
    BMK rung, eps = 0.05 -> 0.025 on a 65-point strip grid, young-scan at
    p = 3 only (no case-III pair)."""
    quad, report, scan = (cli.bmk.SingularQuadratureConfig, cli.mollify.convergence_report,
                          cli.young.scan_rows)
    fixture = cli.mollify_fixture
    monkeypatch.setattr(cli.bmk, "SingularQuadratureConfig",
                        lambda base_level, refinement_steps: quad(base_level, 1))
    monkeypatch.setattr(cli, "mollify_fixture", lambda grid_n: fixture(65))
    monkeypatch.setattr(cli.mollify, "convergence_report",
                        lambda op, f, graph, f_b, eps, p: report(op, f, graph, f_b, eps[2:], p))
    monkeypatch.setattr(cli.young, "scan_rows",
                        lambda spec, p_values, **kw: scan(spec, [3.0], **kw))


@pytest.mark.parametrize("argv, failing", [
    (["bmk-verify", "--level", "6"], ["residual_monotone", "delta_monotone"]),
    (["bmk-lp"], ["smooth_monotone", "lp_monotone"]),
    (["mollify"], ["diagnostics_non_increasing"]),
    (["young-scan"], ["case_iii_line_r_equals_p"]),
], ids=["bmk-verify", "bmk-lp", "mollify", "young-scan"])
def test_main_check_with_nothing_to_compare_fails(tmp_path, capsys, monkeypatch, argv,
                                                  failing):
    """One rung, two eps rungs or no case-III pair leave a check nothing to
    compare; the run must fail rather than pass vacuously."""
    _shorten_ladders(monkeypatch)
    out = str(tmp_path / "rep")
    assert cli.main(argv + ["--out", out]) == 1
    printed = capsys.readouterr().out
    meta = json.load(open(out + ".meta.json"))
    assert meta["verdict"] == "fail"
    for name in failing:
        assert f"{name}: FAIL" in printed
        assert meta["checks"][name]["pass"] is False


def test_main_short_ladder_mollify_fails(tmp_path, capsys, monkeypatch):
    """A one-rung epsilon ladder never reaches the trace threshold; the
    harness must say so and exit 1 rather than papering over it."""
    report = cli.mollify.convergence_report
    monkeypatch.setattr(cli, "mollify_fixture", lambda grid_n, f=cli.mollify_fixture: f(65))
    monkeypatch.setattr(cli.mollify, "convergence_report",
                        lambda op, f, graph, f_b, eps, p: report(op, f, graph, f_b, eps[:1], p))
    out = str(tmp_path / "mf")
    assert cli.main(["mollify", "--out", out]) == 1
    assert "trace_final: FAIL" in capsys.readouterr().out
    meta = json.load(open(out + ".meta.json"))
    assert meta["verdict"] == "fail"
    assert meta["checks"]["trace_final"]["pass"] is False


def test_check_with_nothing_to_compare_fails():
    """A ladder of one rung, or a check with no verdict to judge, fails
    rather than passing vacuously."""
    for values in ([], [0.5]):
        assert cli._decreasing(values) == {"value": values, "pass": False}
    assert cli._decreasing([0.5, 0.25])["pass"]
    assert not cli._decreasing([0.5, 0.5])["pass"]
    assert cli._every([]) == {"pass": False}
    assert cli._every([], {}) == {"value": {}, "pass": False}
    assert cli._every([True, True])["pass"] and not cli._every([True, False])["pass"]


def test_main_young_scan_json_is_strict(tmp_path, capsys):
    """The default young-scan rows hold b = inf; the JSON document writes it
    as text, never as the Infinity or NaN tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    out = str(tmp_path / "ys")
    assert cli.main(["young-scan", "--format", "json", "--out", out]) == 0
    capsys.readouterr()
    with open(out + ".json") as fh:
        doc = json.loads(fh.read(), parse_constant=reject)
    assert "inf" in [row["b"] for row in doc["rows"]]
    assert doc["verdict"] == "pass"


def test_main_young_scan_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "y1"), str(tmp_path / "y2")
    assert cli.main(["young-scan", "--out", out1]) == 0
    assert cli.main(["young-scan", "--out", out2]) == 0
    capsys.readouterr()
    for ext in (".csv", ".meta.json"):
        with open(out1 + ext, "rb") as fh1, open(out2 + ext, "rb") as fh2:
            assert fh1.read() == fh2.read()


@pytest.mark.parametrize("experiment, seed", [("bmk-lp", 11), ("bmk-verify", 7)])
def test_default_seed_is_the_shipped_seed(tmp_path, capsys, monkeypatch, experiment, seed):
    """A config without a seed runs the experiment's shipped seed, whether
    built directly or by main; --seed 0 is kept as 0.  The experiment body
    is stubbed: only the recorded seed is checked."""
    assert cli.ExperimentConfig(experiment=experiment).seed == seed
    monkeypatch.setitem(cli.EXPERIMENTS, experiment,
                        lambda cfg: (["seed"], [{"seed": cfg.seed}], {"checks": {}}))
    for argv, want in (([], seed), (["--seed", "0"], 0)):
        out = str(tmp_path / f"run{want}")
        assert cli.main([experiment, "--out", out] + argv) == 0
        assert json.load(open(out + ".meta.json"))["seed"] == want
    capsys.readouterr()


def test_main_flag_beats_config(tmp_path, capsys):
    ini = tmp_path / "seeded.ini"
    ini.write_text("[common]\nseed = 5\n")
    out = str(tmp_path / "gs")
    assert cli.main(["green-stokes", "--config", str(ini),
                     "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    meta = json.load(open(out + ".meta.json"))
    assert meta["seed"] == 3
