#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs one untraced repetition per input set (benchmark seeds 0-9) and
stores its experiment seeds, verdicts, every report cell and every
metadata value in perfbench/reference/<workload>.json.  Run it only when
the program's outputs are meant to change; the benchmark then compares
later commits against these values.
"""

import argparse
import json
import os
import sys

import workloads
from check import reference_path
from run import run_worker


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="*", choices=sorted(workloads.WORKLOADS),
                        default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workload:
        sets = {}
        for k in range(workloads.INPUT_SETS):
            _, result = run_worker(workload, k)
            sets[str(k)] = {"seeds": result["seeds"],
                            "verdicts": {e: v for e, v, _ in result["outcomes"]},
                            "outputs": result["outputs"]}
            print(f"{workload} set {k}: seeds {result['seeds']}, "
                  f"wall {result['wall_s']:.2f} s, "
                  f"verdicts {sets[str(k)]['verdicts']}", flush=True)
        os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
        with open(reference_path(workload), "w") as fh:
            json.dump({"sets": sets}, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
