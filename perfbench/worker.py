#!/usr/bin/env python3
"""One repetition of one workload, in a fresh process.

Prints ``ready`` on stdout once imports, config and fixtures are built
(the parent times that as set-up), then runs the workload and writes a
JSON result file: wall and CPU time from the first experiment call to
the last report written, the process's own peak RSS, the verdicts, the
outputs read back from the report files and, when traced, the per-layer
numbers.  ``--setup-only`` exits right after ``ready``.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    t_import = time.perf_counter()
    from bmklab import bmk, cli, fields, geometry, mollify, operators, young
    profile = workloads.load_kernel_profile() \
        if "kernel-profile" in workloads.WORKLOADS[args.workload] else None
    import_s = time.perf_counter() - t_import
    configs = workloads.build_configs(cli, args.workload, args.seed, args.out_dir)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        modules = {"geometry": geometry, "fields": fields, "bmk": bmk,
                   "mollify": mollify, "young": young, "operators": operators,
                   "cli": cli}
        tracer.install(modules, [m for m in (profile,) if m is not None])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    r0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    outcomes = workloads.run(cli, args.workload, configs, args.out_dir, profile)
    wall = time.perf_counter() - w0
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "wall_s": wall,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "import_s": import_s,
        "seeds": {name: cfg.seed for name, cfg in configs.items()},
        "points": workloads.point_counts(cli, configs),
        "outcomes": outcomes,
        "outputs": workloads.collect_outputs(args.workload, configs, args.out_dir),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layer_totals"] = tracer.layer_totals()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(os.path.join(args.out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
