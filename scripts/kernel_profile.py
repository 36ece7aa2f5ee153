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
import csv
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bmklab import young
from bmklab.geometry import boundary_rule, dist_boundary, make_domain, volume_rule


def write_norm_constants(path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "q", "A"])
        for n in (1, 2):
            for q in range(n):
                w.writerow([n, q, f"{young.bmk_kernel_norm_constant(n, q):.17g}"])


def write_pole_mass(path, level=3):
    disc = make_domain("ball", m=2)
    rule = volume_rule(disc, level)
    d = np.linalg.norm(rule.nodes, axis=1)
    nrm = young.bmk_kernel_norm_constant(1, 0) / d
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rho", "mass"])
        for k in range(1, 7):
            rho = 2.0 ** (-k)
            mass = float(np.sum(rule.weights[d < rho] * nrm[d < rho]))
            w.writerow([f"{rho:.17g}", f"{mass:.17g}"])


def write_log_ladder(path, level=6):
    disc = make_domain("ball", m=2)
    rule = boundary_rule(disc, level)
    a_const = young.bmk_kernel_norm_constant(1, 0)
    c0, c1, _ = young.log_bound_fit(disc, level=level)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delta", "abs_log_delta", "boundary_mass", "fitted_bound"])
        for k in range(1, 9):
            y = np.array([1.0 - 2.0 ** (-k), 0.0])
            delta = float(dist_boundary(disc, y))
            d = np.linalg.norm(rule.nodes - y, axis=1)
            mass = float(np.sum(rule.weights * a_const / d))
            bound = c0 + c1 * abs(np.log(delta))
            w.writerow([f"{delta:.17g}", f"{abs(np.log(delta)):.17g}",
                        f"{mass:.17g}", f"{bound:.17g}"])


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
