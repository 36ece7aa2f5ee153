"""The benchmark's workloads, their inputs, and how one repetition runs.

Every workload goes through the path the command line uses:
``cli.load_config`` on the shipped ``scripts/configs/full.ini``, then
``cli.ExperimentConfig`` -> ``cli.run_experiment`` -> ``cli.emit_report``
into a temporary directory.

Seeds.  The benchmark seed picks one of ``INPUT_SETS`` input sets (seed
n and n + 10 give the same inputs; seed 0 gives the shipped seeds 7, 11
and 0).  ``INPUT_SEEDS`` lists, for each random family, the experiment
seeds of the ten sets: the first ten at or after the shipped one that
draw as many evaluation points as the shipped seed does and whose
verdict passes at this commit, as ``scan_seeds.py`` finds them.  So
every set does the same amount of work, and no experiment run fails.
The seeds skipped for their verdict are listed in README.md, and
``scan_seeds.py`` shows them again.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os

INPUT_SETS = 10

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIG = os.path.join(ROOT, "scripts", "configs", "full.ini")
KERNEL_PROFILE = os.path.join(ROOT, "scripts", "kernel_profile.py")

# name -> ordered experiments; "kernel-profile" is the three writers of
# scripts/kernel_profile.py, run in the same process.
WORKLOADS = {
    "ball-c2": ["bmk-lp"],
    "disc-c1": ["bmk-verify", "green-stokes", "young-scan", "kernel-profile"],
    "strip-mollify": ["mollify"],
}

PROFILE_WRITERS = (("norm_constants.csv", "write_norm_constants"),
                   ("pole_mass.csv", "write_pole_mass"),
                   ("log_ladder.csv", "write_log_ladder"))


# Experiments whose evaluation points are drawn from the seed, with the
# cli helper that draws them.
SAMPLERS = {"bmk-verify": "_sample_plane_points", "bmk-lp": "_sample_ball4_points"}

# Experiment seed of each input set, per random family (see the module
# docstring); the other experiments use the set number k itself.
INPUT_SEEDS = {
    "bmk-lp": (11, 18, 22, 27, 32, 33, 38, 39, 42, 45),
    "bmk-verify": (7, 11, 12, 16, 20, 25, 33, 37, 67, 77),
}


def experiment_seeds(workload, seed):
    """{experiment: experiment seed} for a benchmark seed."""
    k = seed % INPUT_SETS
    return {e: INPUT_SEEDS[e][k] if e in INPUT_SEEDS else k
            for e in WORKLOADS[workload] if e != "kernel-profile"}


def point_counts(cli, configs):
    """Evaluation points drawn per bmk experiment (the work scales with it)."""
    return {e: len(getattr(cli, SAMPLERS[e])(cfg.seed)) for e, cfg in configs.items()
            if e in SAMPLERS}


def load_kernel_profile():
    spec = importlib.util.spec_from_file_location("kernel_profile", KERNEL_PROFILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def experiment_config(cli, experiment, exp_seed, out_dir):
    """ExperimentConfig as `bmklab <exp> --config full.ini --seed <exp_seed>`."""
    kwargs = {"experiment": experiment, "level": cli._DEFAULT_LEVEL[experiment]}
    kwargs.update(cli.load_config(SHIPPED_CONFIG, experiment))
    kwargs["seed"] = exp_seed
    kwargs["out"] = os.path.join(out_dir, experiment.replace("-", "_"))
    return cli.ExperimentConfig(**kwargs)


def build_configs(cli, workload, seed, out_dir):
    """ExperimentConfig per experiment of the workload's input set."""
    return {e: experiment_config(cli, e, exp_seed, out_dir)
            for e, exp_seed in experiment_seeds(workload, seed).items()}


def run(cli, workload, configs, out_dir, profile):
    """Run one repetition; returns [(experiment, verdict, error)].

    A verdict is "pass", "fail" or "error"; an experiment that raises is
    recorded and the remaining ones still run.
    """
    outcomes = []
    for experiment in WORKLOADS[workload]:
        try:
            if experiment == "kernel-profile":
                for filename, writer in PROFILE_WRITERS:
                    getattr(profile, writer)(os.path.join(out_dir, filename))
                verdict = "pass"
            else:
                cfg = configs[experiment]
                report = cli.run_experiment(cfg)
                cli.emit_report(report, cfg.out, cfg.fmt)
                verdict = report.verdict
            outcomes.append((experiment, verdict, None))
        except Exception as exc:  # keep measuring; the run counts as failed
            outcomes.append((experiment, "error", f"{type(exc).__name__}: {exc}"))
    return outcomes


def _read_csv(path):
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


def collect_outputs(workload, configs, out_dir):
    """Everything the repetition wrote, keyed by experiment.

    CSV cells stay strings (they carry all 17 digits); the metadata
    sidecar is kept whole except for its wall-clock field.
    """
    outputs = {}
    for experiment in WORKLOADS[workload]:
        try:
            if experiment == "kernel-profile":
                outputs[experiment] = {name: _read_csv(os.path.join(out_dir, name))
                                       for name, _ in PROFILE_WRITERS}
            else:
                out = configs[experiment].out
                with open(out + ".meta.json") as fh:
                    meta = json.load(fh)
                meta.pop("wall_time_s", None)
                outputs[experiment] = {"csv": _read_csv(out + ".csv"), "meta": meta}
        except OSError as exc:
            outputs[experiment] = {"missing": str(exc)}
    return outputs
