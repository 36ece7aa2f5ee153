"""The names that the benchmark under perfbench/ reads from bmklab still exist.

perfbench's layer tracer finds bmklab's public functions and methods by
name, and its workloads read a few private cli names.  A rename passes
every other test and shows up only in a traced benchmark run, as a metric
that reads 0 or as a crash, so these tests read each such name.  A last
test runs input set 0 of each workload through the benchmark's output
check, so drift from the recorded reference shows here too.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from bmklab import cli
from bmklab.geometry import Domain

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")

# the names that Tracer.install's hooks and Tracer.metrics read
TRACED = [
    "geometry.volume_rule", "geometry.boundary_rule",
    "mollify.HalfSpaceField.evaluate", "mollify.convolve_field", "mollify.choose_tau",
    "mollify.slab_mass",
    "bmk.reproduce_residual", "bmk.dbar_potential", "bmk.kernel_norm",
    "bmk.SingularQuadratureConfig.levels",
    "young.empirical_norm", "young.bmk_norm_kernel",
    "operators.FirstOrderOperator.green_stokes_residual",
    "cli.emit_report",
]

# installs the tracer as perfbench/worker.py does; in a child process,
# since it rebinds the names of the modules it wraps
PROBE = """
import json
from layertrace import Tracer
from bmklab import bmk, cli, fields, geometry, mollify, operators, young
tracer = Tracer()
tracer.install({"geometry": geometry, "fields": fields, "bmk": bmk, "mollify": mollify,
                "young": young, "operators": operators, "cli": cli})
print(json.dumps(sorted(tracer.stats)))
"""


# a traced 17x17 strip report with one eps: its work counters
MOLLIFY_PROBE = PROBE.replace("print(json.dumps(sorted(tracer.stats)))", """
op, f, graph, f_fn = cli.mollify_fixture(17)
rows = mollify.convergence_report(op, f, graph, f_fn, [0.2], 2.0)["rows"]
metrics = tracer.metrics()
rule = mollify.DiracSequence(2, 0.2, rows[0]["tau"]).quad_rule()[0]
print(json.dumps({"metrics": metrics, "rule": len(rule)}))
""")


def _probe(source):
    path = os.pathsep.join([PERFBENCH, os.path.join(ROOT, "src")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", source], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def _load(path, name, monkeypatch):
    """Import a script by path without writing its bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_its_metrics_read():
    wrapped = set(_probe(PROBE))
    assert [name for name in TRACED if name not in wrapped] == []


def test_traced_mollify_counts_its_work():
    """Under the tracer, a mollify report runs without a hook raising, and
    the counters that the traced strip-mollify self-test needs are
    nonzero: one kernel-node x grid-point pair per rule node and grid
    point, and the slab panels' evaluate() points."""
    got = _probe(MOLLIFY_PROBE)
    metrics = got["metrics"]
    assert metrics["mollify.conv_pairs"] == got["rule"] * 17 * 17
    assert metrics["mollify.eval_points"] > 0 and metrics["mollify.eval_s"] > 0
    assert metrics["mollify.errors"] == 0 and metrics["cli.errors"] == 0


def test_workloads_read_names_that_exist(monkeypatch):
    workloads = _load(os.path.join(PERFBENCH, "workloads.py"), "perfbench_workloads",
                      monkeypatch)
    assert set(cli._DEFAULT_LEVEL) == set(cli.EXPERIMENTS)
    assert set(cli._DEFAULT_SEED) == set(cli.EXPERIMENTS)
    for experiments in workloads.WORKLOADS.values():
        assert set(experiments) - {"kernel-profile"} <= set(cli.EXPERIMENTS)
    assert sorted(workloads.SAMPLERS.values()) == ["_sample_ball4_points",
                                                   "_sample_plane_points"]
    for sampler in workloads.SAMPLERS.values():
        assert callable(getattr(cli, sampler))
    profile = _load(workloads.KERNEL_PROFILE, "kernel_profile", monkeypatch)
    for _, writer in workloads.PROFILE_WRITERS:
        assert callable(getattr(profile, writer))
    assert "semi_axes" in {field.name for field in dataclasses.fields(Domain)}


def test_workload_configs_build_from_the_shipped_config(monkeypatch, tmp_path):
    """Every input set of every workload builds its configs from full.ini as
    the benchmark does, so a key that load_config stops accepting fails here."""
    workloads = _load(os.path.join(PERFBENCH, "workloads.py"), "perfbench_workloads",
                      monkeypatch)
    for workload, experiments in workloads.WORKLOADS.items():
        for seed in range(workloads.INPUT_SETS):
            configs = workloads.build_configs(cli, workload, seed, str(tmp_path))
            assert set(configs) == set(experiments) - {"kernel-profile"}
            for experiment, config in configs.items():
                assert isinstance(config, cli.ExperimentConfig)
                assert config.experiment == experiment


@pytest.mark.parametrize("workload", ["ball-c2", "disc-c1", "strip-mollify"])
def test_input_set_0_reproduces_the_reference(workload, monkeypatch, tmp_path):
    """Input set 0 of each workload, run and read back as perfbench/worker.py
    does, passes the benchmark's output check against the recorded
    reference, so a change that drifts past its tolerance fails here and not
    only in a benchmark run."""
    workloads = _load(os.path.join(PERFBENCH, "workloads.py"), "perfbench_workloads",
                      monkeypatch)
    check = _load(os.path.join(PERFBENCH, "check.py"), "perfbench_check", monkeypatch)
    profile = (workloads.load_kernel_profile()
               if "kernel-profile" in workloads.WORKLOADS[workload] else None)
    out_dir = str(tmp_path)
    configs = workloads.build_configs(cli, workload, 0, out_dir)
    result = {"seeds": {name: cfg.seed for name, cfg in configs.items()},
              "outcomes": workloads.run(cli, workload, configs, out_dir, profile),
              "outputs": workloads.collect_outputs(workload, configs, out_dir)}
    assert check.check_repetition(check.load_reference(workload)["sets"]["0"], result) == []
