#!/usr/bin/env python3
"""Dump plot-ready kernel profiles: norm constants, near-pole mass, log ladder.

Three CSV files land in --out-dir:

  norm_constants.csv   A with ||K_nq|| = A / dist^(2n-1), for n <= 2
  pole_mass.csv        integrated kernel norm within rho of an interior
                       pole on the unit disc; slope ~ 1 in log-log
  log_ladder.csv       boundary mass I(y) against |log dist(y, bD)| on
                       the dyadic approach ladder, with the fitted bound

Everything here is data for external plotting; nothing renders.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# bmklab before numpy: bmklab's import keeps numpy's OpenBLAS to one
# thread, and that holds only while numpy is not loaded yet
from bmklab import young
from bmklab.cli import write_csv
from bmklab.geometry import make_domain, volume_rule

import numpy as np


def write_norm_constants(path):
    rows = [{"n": n, "q": q, "A": young.bmk_kernel_norm_constant(n, q)}
            for n in (1, 2) for q in range(n)]
    write_csv(path, ["n", "q", "A"], rows)


def write_pole_mass(path, level=3):
    disc = make_domain("ball", m=2)
    rule = volume_rule(disc, level)
    d = np.linalg.norm(rule.nodes, axis=1)
    nrm = young.bmk_kernel_norm_constant(1, 0) / d
    rows = []
    for k in range(1, 7):
        rho = 2.0 ** (-k)
        near = d < rho
        rows.append({"rho": rho, "mass": float(np.sum(rule.weights[near] * nrm[near]))})
    write_csv(path, ["rho", "mass"], rows)


def write_log_ladder(path, level=6):
    disc = make_domain("ball", m=2)
    c0, c1, _ = young.log_bound_fit(disc, level=level)
    rows = []
    for delta, mass in zip(*young._boundary_mass_ladder(disc, level)):
        log = abs(np.log(delta))
        rows.append({"delta": delta, "abs_log_delta": log, "boundary_mass": mass,
                     "fitted_bound": c0 + c1 * log})
    write_csv(path, ["delta", "abs_log_delta", "boundary_mass", "fitted_bound"], rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    write_norm_constants(os.path.join(args.out_dir, "norm_constants.csv"))
    write_pole_mass(os.path.join(args.out_dir, "pole_mass.csv"))
    write_log_ladder(os.path.join(args.out_dir, "log_ladder.csv"))
    print(f"wrote norm_constants.csv, pole_mass.csv, log_ladder.csv to {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
