#!/usr/bin/env python3
"""Scan experiment seeds: point count and verdict of each.

    python3 perfbench/scan_seeds.py --experiment bmk-lp --passing 10

Runs the experiment with the shipped config (as the benchmark does) for
every seed from --start on that draws the shipped number of evaluation
points, and prints its verdict and the checks that fail.  It stops once
--passing seeds have passed, or at --stop.  This is how the seeds in
workloads.INPUT_SEEDS were chosen; the seeds it reports as fail are the
ones the benchmark leaves out.
"""

import argparse
import os
import sys

import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--experiment", required=True, choices=sorted(workloads.SAMPLERS))
    parser.add_argument("--start", type=int, default=None,
                        help="first seed (default: the shipped seed)")
    parser.add_argument("--stop", type=int, default=None, help="last seed to try")
    parser.add_argument("--passing", type=int, default=workloads.INPUT_SETS)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    from bmklab import cli

    sampler = getattr(cli, workloads.SAMPLERS[args.experiment])
    shipped = cli._DEFAULT_SEED[args.experiment]
    want = len(sampler(shipped))
    seed = shipped if args.start is None else args.start
    passing, failing = [], []
    while len(passing) < args.passing and (args.stop is None or seed <= args.stop):
        if len(sampler(seed)) == want:
            # run_experiment only computes; no report is written.
            cfg = workloads.experiment_config(cli, args.experiment, seed, workloads.ROOT)
            report = cli.run_experiment(cfg)
            failed = sorted(name for name, c in report.metadata.get("checks", {}).items()
                            if not c["pass"])
            (passing if report.verdict == "pass" else failing).append(seed)
            print(f"seed {seed}: {want} points, verdict {report.verdict}"
                  + (f", failing {failed}" if failed else "")
                  + (f", error {report.metadata['error']}"
                     if "error" in report.metadata else ""), flush=True)
        seed += 1
    print(f"passing: {passing}")
    print(f"failing: {failing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
