#!/usr/bin/env python3
"""bmklab benchmark: time to verdict, peak RSS and per-layer costs.

    python3 perfbench/run.py --workload ball-c2 --seed 0 --seconds 22 --trace 0

Runs the workload's experiments repeatedly, each repetition in a fresh
worker process, until --seconds have passed (at least MIN_REPETITIONS).
Every repetition's reports are checked against the recorded reference
(perfbench/reference/).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
  setup_s      start of a worker to ready (imports, config, fixtures),
               over every repetition plus SETUP_PROBES workers that
               stop at ready
  wall_s       first experiment call to last report written
  cpu_s        user + system CPU over the same interval, all threads
  peak_rss_mb  the worker's own ru_maxrss
--trace 1 runs one untraced repetition, then traced ones (the layers
wrapped from outside by layertrace.py), and reports the per-layer
metrics plus trace.overhead_s = traced - untraced wall_s.  It also runs
the traced-run self-test: each layer named for the workload must record
calls, and the bypassed layers must record none.

attempted / failed count experiment runs; a run fails when it raises,
when its verdict is fail, or when an output drifts from the reference.
Exits 1 without a result when the program or its reference is missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from check import check_repetition, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
TMP_DIR = os.path.join(workloads.ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(workloads.ROOT, ".perfbench_out")
SETUP_PROBES = 2
MIN_REPETITIONS = 2
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  Timed metrics are seconds summed over
# the repetition; see README.md for which end-to-end metric each moves.
PER_LAYER = {
    "bmk.residual_s": "s", "bmk.fd_s": "s", "bmk.pairs": "count",
    "bmk.pair_rate": "1/s", "bmk.kernel_norm_s": "s",
    "geometry.rule_s": "s", "geometry.rule_builds": "count",
    "geometry.rule_nodes": "count", "geometry.rule_reuse": "ratio",
    "fields.eval_s": "s", "fields.eval_points": "count",
    "mollify.eval_s": "s", "mollify.eval_points": "count",
    "mollify.conv_s": "s", "mollify.conv_pairs": "count",
    "mollify.conv_rate": "1/s", "mollify.tau_s": "s",
    "mollify.slab_calls": "count",
    "young.norm_s": "s", "young.kernel_calls": "count",
    "young.kernel_pairs": "count",
    "operators.gs_s": "s", "cli.report_s": "s",
    "geometry.errors": "count", "fields.errors": "count", "bmk.errors": "count",
    "mollify.errors": "count", "young.errors": "count",
    "operators.errors": "count", "cli.errors": "count",
    "setup.import_s": "s", "trace.overhead_s": "s",
}

# Traced-run self-test: metrics that must be nonzero on a workload, and
# layers that must record no call at all there.
EXPECT_NONZERO = {
    "ball-c2": ["bmk.residual_s", "bmk.fd_s", "bmk.pairs", "bmk.pair_rate",
                "geometry.rule_s", "geometry.rule_builds", "geometry.rule_nodes",
                "fields.eval_s", "fields.eval_points", "cli.report_s"],
    "disc-c1": ["bmk.residual_s", "bmk.pairs", "bmk.pair_rate", "bmk.kernel_norm_s",
                "geometry.rule_s", "geometry.rule_builds", "geometry.rule_nodes",
                "fields.eval_s", "fields.eval_points", "young.norm_s",
                "young.kernel_calls", "young.kernel_pairs", "operators.gs_s",
                "cli.report_s"],
    "strip-mollify": ["mollify.eval_s", "mollify.eval_points", "mollify.conv_s",
                      "mollify.conv_pairs", "mollify.conv_rate", "mollify.tau_s",
                      "mollify.slab_calls", "cli.report_s"],
}
EXPECT_IDLE = {
    "ball-c2": ["mollify"],
    "disc-c1": ["mollify"],
    "strip-mollify": ["bmk", "geometry"],
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(workload, seed, trace=0, setup_only=False, spans=None, limit=RUN_LIMIT_S):
    """Start one worker; returns (setup_s, result dict or None)."""
    os.makedirs(TMP_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=TMP_DIR)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out-dir", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=max(1.0, limit - (time.perf_counter() - start)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded {limit:.0f} s")
        finally:
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"worker exited with code {code}")
        if setup_only:
            return setup_s, None
        with open(os.path.join(out_dir, "result.json")) as fh:
            return setup_s, json.load(fh)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def environment():
    """Versions, cores and BLAS threading of this run."""
    import ctypes
    import glob

    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "thread_env": {k: os.environ[k] for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                          if k in os.environ}}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                env["blas_threads"] = getattr(lib, sym)()
                break
    try:
        env["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        env["git_sha"] = "unknown"
    return env


def self_test(workload, layers, layer_totals):
    problems = [f"{m} is zero" for m in EXPECT_NONZERO[workload] if not layers.get(m)]
    problems += [f"{layer} recorded {layer_totals.get(layer, 0)} calls"
                 for layer in EXPECT_IDLE[workload] if layer_totals.get(layer, 0)]
    return problems


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.ROOT, "src", "bmklab", "cli.py")):
        raise BenchError("bmklab sources not found under src/")
    reference = load_reference(args.workload)["sets"][str(args.seed % workloads.INPUT_SETS)]

    started = time.perf_counter()
    reps, setups, problems = [], [], []
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    def one(trace):
        spans = os.path.join(OUT_DIR, f"{tag}-spans.json") if trace else None
        setup_s, result = run_worker(args.workload, args.seed, trace, spans=spans,
                                     limit=remaining())
        result["traced"] = trace
        result["problems"] = check_repetition(reference, result)
        setups.append(setup_s)
        reps.append(result)
        problems.extend(f"repetition {len(reps) - 1}: {e}: {p}"
                        for e, p in result["problems"])

    # Set-up-only starts come first: they sample set-up time and warm the
    # interpreter's files and the CPU before the first timed repetition.
    for _ in range(SETUP_PROBES):
        setups.append(run_worker(args.workload, args.seed, 0, setup_only=True,
                                 limit=remaining())[0])
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        one(0)
    one(args.trace)
    while time.perf_counter() < deadline or len(reps) < MIN_REPETITIONS:
        one(args.trace)

    attempted = sum(len(r["outcomes"]) for r in reps)
    failed = sum(1 for r in reps for e, v, _ in r["outcomes"]
                 if v != "pass" or any(pe in (e, None) for pe, _ in r["problems"]))
    measured = [r for r in reps if not r["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: experiment seeds "
          f"{reps[0]['seeds']}, evaluation points {reps[0]['points']}")
    for i, r in enumerate(reps):
        print(f"  repetition {i}{' (traced)' if r['traced'] else ''}: "
              f"wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MB, outcomes {r['outcomes']}")

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                value = median_of(traced, "wall_s") - median_of(measured, "wall_s")
            elif name == "setup.import_s":
                value = median_of(traced, "import_s")
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = value
        for r in traced:
            problems.extend(f"self-test: {p}"
                            for p in self_test(args.workload, r["layers"], r["layer_totals"]))
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = median_of(measured, key)
        units = END_TO_END

    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  (medians of {len(measured)} repetitions; setup_s of {len(setups)} starts)")
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} failed of {attempted} "
          "experiment runs)")
    for p in problems[:20]:
        print(f"problem: {p}")
    correct = not problems
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "setups": setups,
                   "repetitions": [{k: v for k, v in r.items() if k != "outputs"}
                                   for r in reps],
                   "problems": problems}, fh, indent=1)
    shutil.rmtree(TMP_DIR, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(1)
