"""Output check: compare a repetition's reports with the recorded reference.

Every check value and every numeric report cell is compared.  A number
passes when |got - ref| <= max(rel * |ref|, floor); strings, booleans and
verdicts must match exactly.  The floor covers values that sit at
machine zero, where a relative bound means nothing: the holomorphic
reproduction residuals (~1e-15) and the compact green-stokes residuals
(< 1e-12).
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# experiment -> (relative tolerance, absolute floor)
TOLERANCES = {
    "bmk-verify": (1e-12, 1e-13),
    "bmk-lp": (1e-12, 1e-13),
    "mollify": (1e-10, 1e-14),
    "green-stokes": (1e-10, 1e-12),
    "young-scan": (1e-10, 1e-13),
    "kernel-profile": (1e-12, 1e-13),
}


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload):
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def _number(v):
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _compare(ref, got, tol, path, problems):
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            problems.append(f"{path}: keys differ")
            return
        for key in ref:
            _compare(ref[key], got[key], tol, f"{path}.{key}", problems)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            problems.append(f"{path}: length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, tol, f"{path}[{i}]", problems)
        return
    r, g = _number(ref), _number(got)
    if r is None or g is None:
        if ref != got:
            problems.append(f"{path}: {got!r} != {ref!r}")
        return
    if math.isnan(r) or math.isnan(g) or math.isinf(r) or math.isinf(g):
        if not (r == g or (math.isnan(r) and math.isnan(g))):
            problems.append(f"{path}: {got!r} != {ref!r}")
        return
    rel, floor = tol
    if abs(g - r) > max(rel * abs(r), floor):
        problems.append(f"{path}: {g!r} drifts from {r!r}")


def check_repetition(reference_set, result):
    """[(experiment, problem)]; empty when the repetition reproduces the
    reference.  experiment is None when the inputs themselves differ."""
    if result["seeds"] != reference_set["seeds"]:
        return [(None, f"seeds {result['seeds']} != reference {reference_set['seeds']}")]
    problems = []
    for experiment, verdict, _ in result["outcomes"]:
        want = reference_set["verdicts"][experiment]
        if verdict != want:
            problems.append((experiment, f"verdict {verdict} != reference {want}"))
    for experiment, ref in reference_set["outputs"].items():
        found = []
        _compare(ref, result["outputs"].get(experiment), TOLERANCES[experiment],
                 experiment, found)
        problems += [(experiment, p) for p in found]
    return problems
