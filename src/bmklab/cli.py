"""Experiment harness: config, orchestration, and report emission.

Five experiments wrap the verification pipelines at desk scale:

  bmk-verify    plane reproduction ladders (holomorphic + conjugate data)
  bmk-lp        two-variable ladders: smooth (0,1) data and L^p data
  mollify       boundary mollification diagnostics on the half-space strip
  green-stokes  adjoint/boundary-term identities on intervals, boxes, discs
  young-scan    exponent admissibility scan plus the log-majorant fit

Configuration is INI-style ([common] plus one section per experiment);
command-line flags win over file values.  Thresholds live in config with
the documented defaults; overriding a threshold changes the verdict only,
never the measurements.  Random test families derive from numpy's
default_rng (PCG64) seeded from the config, so reports are reproducible
across platforms.  Reports are CSV rows plus a JSON metadata sidecar
(--format csv, default) or a single JSON document (--format json).
Exit codes: 0 pass, 1 fail, 2 usage.

Forms and operator coefficients are describable as expressions: operator
coefficients use real coordinates x1..xm, form coefficients use z1..zn
and zb1..zbn; polynomial expressions round-trip exactly through the JSON
form description, other expressions are kept as callables.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import sympy
from sympy.core.function import AppliedUndef

from . import bmk, mollify, young
from .exterior import DifferentialForm
from .fields import (AnalyticField, PolyField, RadialPowerField, coordinate,
                     zmonomial)
from .geometry import make_domain
from .operators import FirstOrderOperator, scalar_test_family
from .young import INF

__all__ = [
    "ExperimentConfig", "Report", "run_experiment", "emit_report", "main",
    "parse_coefficient", "form_from_json", "EXPERIMENTS",
]


# ---------------------------------------------------------------- expressions

def parse_coefficient(expr, m):
    """Parse a real-coordinate coefficient expression in x1..xm to a field.

    Polynomials become exact PolyFields; anything else is lambdified.
    Symbols other than x1..xm and undefined functions are rejected.
    """
    xs = sympy.symbols(f"x1:{m + 1}")
    parsed = sympy.sympify(expr, locals={f"x{k + 1}": xs[k] for k in range(m)})
    unknown = sorted(map(str, parsed.free_symbols - set(xs)))
    unknown += sorted(str(f.func) for f in parsed.atoms(AppliedUndef))
    if unknown:
        raise ValueError(f"coefficient {expr!r} uses {unknown}; only x1..x{m} "
                         "and known functions are allowed")
    try:
        poly = sympy.Poly(parsed, *xs)
        terms = {tuple(int(e) for e in mono): complex(c)
                 for mono, c in zip(poly.monoms(), poly.coeffs())}
        return PolyField(m, terms)
    except sympy.PolynomialError:
        fn = sympy.lambdify(xs, parsed, modules="numpy")

        def call(x, _fn=fn):
            cols = [x[..., k] for k in range(m)]
            return np.broadcast_to(np.asarray(_fn(*cols), dtype=complex),
                                   x.shape[:-1]).copy()
        return AnalyticField(m, call)


def _coeff_from_entry(entry, n):
    m = 2 * n
    if "poly" in entry:
        return PolyField(m, {tuple(e["powers"]): complex(e["re"], e["im"])
                             for e in entry["poly"]})
    if "expr" in entry:
        zs = sympy.symbols(f"z1:{n + 1}")
        zbs = sympy.symbols(f"zb1:{n + 1}")
        parsed = sympy.sympify(entry["expr"])
        fn = sympy.lambdify(list(zs) + list(zbs), parsed, modules="numpy")

        def call(x, _fn=fn):
            zc = [x[..., 2 * j] + 1j * x[..., 2 * j + 1] for j in range(n)]
            vals = _fn(*(zc + [np.conj(w) for w in zc]))
            return np.broadcast_to(np.asarray(vals, dtype=complex),
                                   x.shape[:-1]).copy()
        return AnalyticField(m, call)
    if "grid" in entry:
        return AnalyticField(m, mollify.load_field(entry["grid"]).evaluate)
    raise ValueError("coefficient entry needs one of: poly, expr, grid")


def form_from_json(text):
    """Rebuild a form; coefficients may be poly terms, expr strings of
    z1..zn/zb1..zbn, or sample-grid file references."""
    data = json.loads(text)
    p, q = data["bidegree"]
    coeffs = {}
    for t in data["terms"]:
        key = (tuple(t["dz"]), tuple(t["dzbar"]))
        coeffs[key] = _coeff_from_entry(t, data["n"])
    return DifferentialForm(data["n"], p, q, coeffs)


# ---------------------------------------------------------------- config

_DEFAULT_THRESHOLDS = {
    "bmk-verify": {"holo_max": 1e-8, "final_max": 1e-3, "delta_window": 4},
    "bmk-lp": {"final_max": 1e-2},
    "mollify": {"trace_max": 1e-2, "commutator_cap": 50.0},
    "green-stokes": {"compact_max": 1e-12, "boundary_max": 1e-8, "hand_max": 1e-10},
    "young-scan": {"c1_drift_max": 0.10, "fit_residual_max": 0.0},
}

_DEFAULT_LEVEL = {"bmk-verify": 0, "bmk-lp": 0, "mollify": 0,
                  "green-stokes": 3, "young-scan": 1}

# green-stokes's configurable operator acts on the square box in R^2
_COEFFICIENT_KEYS = ("a1", "a2", "b")

_DEFAULT_SEED = {"bmk-verify": 7, "bmk-lp": 11, "mollify": 0,
                 "green-stokes": 0, "young-scan": 0}


@dataclass
class ExperimentConfig:
    experiment: str
    level: int = 0
    steps: int = 0
    eps: tuple = (0.2, 0.1, 0.05, 0.025)
    p: float = 2.0
    seed: int = 0
    out: str = "report"
    fmt: str = "csv"
    grid_n: int = 257
    thresholds: dict = field(default_factory=dict)
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in _DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for key in ("level", "steps", "seed", "grid_n"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative")
        if not self.eps or any(e <= 0 for e in self.eps) or self.p < 1:
            raise ValueError("eps needs one or more values, all positive, and p >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}; use csv or json")
        taken = _COEFFICIENT_KEYS if self.experiment == "green-stokes" else ()
        unknown = set(self.coefficients) - set(taken)
        if unknown:
            raise ValueError(f"{self.experiment} takes no coefficients {sorted(unknown)}; "
                             f"only green-stokes takes {', '.join(_COEFFICIENT_KEYS)}")
        self.coefficients = {k: parse_coefficient(v, 2)
                             for k, v in self.coefficients.items()}
        base = dict(_DEFAULT_THRESHOLDS[self.experiment])
        unknown = set(self.thresholds) - set(base)
        if unknown:
            raise ValueError(f"unknown thresholds {sorted(unknown)} for {self.experiment}")
        base.update(self.thresholds)
        self.thresholds = base


@dataclass
class Report:
    metadata: dict
    columns: list
    rows: list
    verdict: str


def load_config(path, experiment):
    """Merge [common] and the experiment's section into keyword overrides."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"config file {path!r} not readable")
    merged = {}
    for section in ("common", experiment):
        if parser.has_section(section):
            merged.update(dict(parser.items(section)))
    kwargs, thresholds, coeffs = {}, {}, {}
    for key, value in merged.items():
        if key.startswith("threshold_"):
            thresholds[key[len("threshold_"):]] = float(value)
        elif key in _COEFFICIENT_KEYS:
            coeffs[key] = value
        elif key == "eps":
            kwargs["eps"] = tuple(float(v) for v in value.split(","))
        elif key in ("level", "steps", "seed", "grid_n"):
            kwargs[key] = int(value)
        elif key == "p":
            kwargs["p"] = float(value)
        elif key in ("out", "fmt"):
            kwargs[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    kwargs["thresholds"] = thresholds
    kwargs["coefficients"] = coeffs
    return kwargs


# ---------------------------------------------------------------- experiments

def _residual_rows(result, n):
    cols = [f"z{k + 1}" for k in range(2 * n)] + [
        "residual", "boundary_term_norm", "volume_term_norm",
        "potential_dbar_norm", "level"]
    rows = []
    for row in result["rows"]:
        rec = {f"z{k + 1}": row["z"][k] for k in range(2 * n)}
        for c in cols[2 * n:]:
            rec[c] = row[c]
        rows.append(rec)
    return cols, rows


def _level_maxima(result):
    per = {}
    for row in result["rows"]:
        per.setdefault(row["level"], []).append(row["residual"])
    return [max(per[L]) for L in sorted(per)]


def _sample_plane_points(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, (12, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.5]
    return np.vstack([[0.5, 0.0], pts])


def run_bmk_verify(cfg):
    disc = make_domain("ball", m=2)
    steps = cfg.steps or 7
    qcfg = bmk.SingularQuadratureConfig(base_level=cfg.level, refinement_steps=steps)
    zs = _sample_plane_points(cfg.seed)
    holo = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (2,), (0,))})
    conj = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    res_holo = bmk.reproduce_residual(holo, holo, None, disc, zs, qcfg)
    res_conj = bmk.reproduce_residual(conj, conj, conj.dbar(), disc, zs, qcfg)
    cols, rows = _residual_rows(res_holo, 1)
    rows += _residual_rows(res_conj, 1)[1]
    finest = max(r["level"] for r in res_holo["rows"])
    holo_max = max(r["residual"] for r in res_holo["rows"] if r["level"] == finest)
    maxima = _level_maxima(res_conj)
    deltas = [abs(maxima[i] - maxima[i + 1]) for i in range(len(maxima) - 1)]
    win = int(cfg.thresholds["delta_window"])
    checks = {
        "holomorphic_reproduction": {
            "value": holo_max, "threshold": cfg.thresholds["holo_max"],
            "pass": bool(holo_max < cfg.thresholds["holo_max"])},
        "conjugate_final_residual": {
            "value": maxima[-1], "threshold": cfg.thresholds["final_max"],
            "pass": bool(maxima[-1] < cfg.thresholds["final_max"])},
        "residual_monotone": {
            "value": maxima,
            "pass": bool(all(maxima[i] > maxima[i + 1] for i in range(len(maxima) - 1)))},
        "delta_monotone": {
            "value": deltas[:win],
            "pass": bool(all(deltas[i] > deltas[i + 1] for i in range(min(win, len(deltas)) - 1)))},
    }
    meta = {"levels": list(range(cfg.level, cfg.level + steps)),
            "holo_rows": len(res_holo["rows"]), "conj_rows": len(res_conj["rows"]),
            "level_maxima": maxima, "checks": checks}
    return cols, rows, meta


def _lp_test_forms():
    sing = RadialPowerField(4, 0.75)
    fc = AnalyticField(4, lambda x: np.conj(x[:, 0] + 1j * x[:, 1]) + np.asarray(sing(x)))
    flp = DifferentialForm(2, 0, 0, {((), ()): fc})
    fb = DifferentialForm(2, 0, 0, {((), ()): zmonomial(2, (0, 0), (1, 0))})
    neg = RadialPowerField(4, -0.25)

    def dcoef(j):
        def fn(x, _j=j):
            zj = x[:, 2 * _j - 2] + 1j * x[:, 2 * _j - 1]
            base = -0.75 * np.asarray(neg(x)) * zj
            if _j == 1:
                base = base + 1.0
            return base
        return AnalyticField(4, fn)
    dbar_lp = DifferentialForm(2, 0, 1, {((), (1,)): dcoef(1), ((), (2,)): dcoef(2)})
    return flp, fb, dbar_lp


def _sample_ball4_points(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.45, 0.45, (5, 4))
    return pts[np.linalg.norm(pts, axis=1) <= 0.6]


def run_bmk_lp(cfg):
    ball = make_domain("ball", m=4)
    steps = cfg.steps or 3
    zs = _sample_ball4_points(cfg.seed)
    smooth = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    cfg_smooth = bmk.SingularQuadratureConfig(base_level=cfg.level, refinement_steps=steps)
    cfg_lp = bmk.SingularQuadratureConfig(base_level=cfg.level + 1, refinement_steps=steps)
    res_smooth = bmk.reproduce_residual(smooth, smooth, smooth.dbar(), ball, zs, cfg_smooth)
    flp, fb, dbar_lp = _lp_test_forms()
    res_lp = bmk.reproduce_residual(flp, fb, dbar_lp, ball, zs, cfg_lp)
    cols, rows = _residual_rows(res_smooth, 2)
    rows += _residual_rows(res_lp, 2)[1]
    checks = {}
    for name, res in (("smooth", res_smooth), ("lp", res_lp)):
        maxima = _level_maxima(res)
        checks[f"{name}_monotone"] = {
            "value": maxima,
            "pass": bool(all(maxima[i] > maxima[i + 1] for i in range(len(maxima) - 1)))}
        checks[f"{name}_final_residual"] = {
            "value": maxima[-1], "threshold": cfg.thresholds["final_max"],
            "pass": bool(maxima[-1] < cfg.thresholds["final_max"])}
    meta = {"smooth_levels": list(range(cfg.level, cfg.level + steps)),
            "lp_levels": list(range(cfg.level + 1, cfg.level + 1 + steps)),
            "checks": checks}
    return cols, rows, meta


def mollify_fixture(grid_n=257):
    """Shared strip problem: smooth data on [-1,0]x[-1,1] with x1=0 boundary.

    The data is oscillatory enough that the O(eps^2) smoothing error
    dominates every rung of the documented ladder, so all four diagnostics
    decrease through eps = 0.025.
    """
    bounds = [[-1.0, 0.0], [-1.0, 1.0]]
    op = FirstOrderOperator(2, a=[1.0, coordinate(2, 1)], b=0.5)

    def f_fn(x):
        return (0.5 * np.cos(1.3 * x[:, 0] + 0.4) * np.exp(0.7 * x[:, 1])
                + 0.25 * x[:, 0] * x[:, 1])

    def qf_fn(x):
        x1, x2 = x[:, 0], x[:, 1]
        df1 = -0.65 * np.sin(1.3 * x1 + 0.4) * np.exp(0.7 * x2) + 0.25 * x2
        df2 = 0.35 * np.cos(1.3 * x1 + 0.4) * np.exp(0.7 * x2) + 0.25 * x1
        return df1 + x2 * df2 + 0.5 * f_fn(x)

    shape = (grid_n, grid_n)
    f = mollify.HalfSpaceField.from_function(f_fn, bounds, shape)
    qf = mollify.HalfSpaceField.from_function(qf_fn, bounds, shape)
    return op, f, qf, f_fn


def run_mollify(cfg):
    op, f, qf, f_fn = mollify_fixture(cfg.grid_n)
    report = mollify.convergence_report(op, f, qf, f_fn, list(cfg.eps), cfg.p)
    rows = report["rows"]
    cols = mollify.REPORT_COLUMNS
    diag = ["interior_err", "q_err", "commutator_ratio", "trace_err"]
    ladder_ok = all(rows[i][k] >= rows[i + 1][k] - 1e-15
                    for k in diag for i in range(1, len(rows) - 1))
    checks = {
        "diagnostics_non_increasing": {"pass": bool(ladder_ok)},
        "trace_final": {
            "value": rows[-1]["trace_err"], "threshold": cfg.thresholds["trace_max"],
            "pass": bool(rows[-1]["trace_err"] < cfg.thresholds["trace_max"])},
        "commutator_bounded": {
            "value": max(r["commutator_ratio"] for r in rows),
            "threshold": cfg.thresholds["commutator_cap"],
            "pass": bool(max(r["commutator_ratio"] for r in rows)
                         <= cfg.thresholds["commutator_cap"])},
    }
    meta = {"p": cfg.p, "grid_n": cfg.grid_n, "eps": list(cfg.eps), "checks": checks}
    return cols, rows, meta


def _green_stokes_cases(cfg):
    m2box = make_domain("interval-box", m=2, bounds=[[-1.0, 1.0], [-1.0, 1.0]])
    interval = make_domain("interval-box", m=1, bounds=[[-1.0, 0.0]])
    disc = make_domain("ball", m=2)
    if cfg.coefficients:
        zero = PolyField(2, {})
        op_box = FirstOrderOperator(2, a=[cfg.coefficients.get(k, zero) for k in ("a1", "a2")],
                                    b=cfg.coefficients.get("b", zero))
    else:
        op_box = FirstOrderOperator(2, a=[PolyField(2, {(0, 0): 1.0, (1, 1): 0.5}),
                                          PolyField(2, {(0, 1): 1.0})],
                                    b=PolyField(2, {(0, 0): 0.25}))
    op_int = FirstOrderOperator(1, a=[PolyField(1, {(0,): 1.0})], b=PolyField(1, {}))
    return disc, m2box, interval, op_box, op_int


def run_green_stokes(cfg):
    disc, box, interval, op_box, op_int = _green_stokes_cases(cfg)
    level = cfg.level or 3
    rows, checks = [], {}

    u_hand = PolyField(1, {(1,): 1.0})
    v_hand = PolyField(1, {(0,): 1.0})
    hand = op_int.green_stokes_residual(interval, u_hand, v_hand, level=level)
    rows.append({"case": "interval-hand", "test_index": 0, "level": level,
                 "residual": hand["residual"]})
    hand_err = max(abs(hand["volume_lhs"] - 1.0), abs(hand["volume_rhs"]
                   + hand["boundary"] - 1.0), hand["residual"])
    checks["interval_hand"] = {
        "value": hand_err, "threshold": cfg.thresholds["hand_max"],
        "pass": bool(hand_err < cfg.thresholds["hand_max"])}

    cup = PolyField(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    window = cup * cup * cup
    compact_max = 0.0
    for i, (u, v) in enumerate(zip(scalar_test_family(disc, 3, seed=cfg.seed),
                                   scalar_test_family(disc, 3, seed=cfg.seed + 1))):
        ures = op_box.green_stokes_residual(disc, u * window, v * window, level=level)
        rows.append({"case": "compact-disc", "test_index": i, "level": level,
                     "residual": ures["residual"]})
        compact_max = max(compact_max, ures["residual"])
    checks["compact_support"] = {
        "value": compact_max, "threshold": cfg.thresholds["compact_max"],
        "pass": bool(compact_max < cfg.thresholds["compact_max"])}

    bnd_max = 0.0
    for i, (u, v) in enumerate(zip(scalar_test_family(box, 4, seed=cfg.seed + 2),
                                   scalar_test_family(box, 4, seed=cfg.seed + 3))):
        ures = op_box.green_stokes_residual(box, u, v, level=level)
        rows.append({"case": "box", "test_index": i, "level": level,
                     "residual": ures["residual"]})
        bnd_max = max(bnd_max, ures["residual"])
    for i, (u, v) in enumerate(zip(scalar_test_family(interval, 4, seed=cfg.seed + 4),
                                   scalar_test_family(interval, 4, seed=cfg.seed + 5))):
        ures = op_int.green_stokes_residual(interval, u, v, level=level)
        rows.append({"case": "interval", "test_index": i, "level": level,
                     "residual": ures["residual"]})
        bnd_max = max(bnd_max, ures["residual"])
    checks["boundary_cases"] = {
        "value": bnd_max, "threshold": cfg.thresholds["boundary_max"],
        "pass": bool(bnd_max < cfg.thresholds["boundary_max"])}

    cols = ["case", "test_index", "level", "residual"]
    meta = {"level": level, "checks": checks}
    return cols, rows, meta


def run_young_scan(cfg):
    disc = make_domain("ball", m=2)
    kern = young.bmk_norm_kernel(1, 0)
    spec = young.KernelSpec(X=("boundary", disc), Y=("domain", disc),
                            kernel=kern, t=1.0, s=1.5, a=4.0, b=INF)
    level = cfg.level or 1
    p_values = [1.0, 1.5, 2.0] if cfg.p == 2.0 else [cfg.p]
    rows = young.scan_rows(spec, p_values, sample_count=12, seed=cfg.seed, level=level)
    fit_lo = young.log_bound_fit(disc, level=5)
    fit_hi = young.log_bound_fit(disc, level=6)
    drift = abs(fit_hi[1] - fit_lo[1]) / abs(fit_hi[1])
    integrals = {a: young.log_majorant_integral(disc, fit_hi[0], fit_hi[1], a, level=3)
                 for a in (1, 2, 4)}
    case3 = {r["p"]: r["r"] for r in rows if r["case"] == "III"}
    checks = {
        "case_iii_line_r_equals_p": {
            "value": case3, "pass": bool(all(math.isclose(p, r) for p, r in case3.items()))},
        "c1_refinement_drift": {
            "value": drift, "threshold": cfg.thresholds["c1_drift_max"],
            "pass": bool(drift < cfg.thresholds["c1_drift_max"])},
        "fit_residual_nonpositive": {
            "value": fit_hi[2], "threshold": cfg.thresholds["fit_residual_max"],
            "pass": bool(fit_hi[2] <= cfg.thresholds["fit_residual_max"])},
        "log_majorant_integrable": {
            "value": integrals,
            "pass": bool(all(np.isfinite(v) for v in integrals.values()))},
    }
    meta = {"fit_levels": [5, 6], "C0": fit_hi[0], "C1": fit_hi[1],
            "fit_residual": fit_hi[2], "checks": checks}
    return young.SCAN_COLUMNS, rows, meta


EXPERIMENTS = {
    "bmk-verify": run_bmk_verify,
    "bmk-lp": run_bmk_lp,
    "mollify": run_mollify,
    "green-stokes": run_green_stokes,
    "young-scan": run_young_scan,
}


# ---------------------------------------------------------------- reports

def run_experiment(config):
    """Run one experiment; any failure in it is recorded as a fail verdict."""
    meta = {"experiment": config.experiment, "seed": config.seed,
            "thresholds": config.thresholds}
    try:
        cols, rows, extra = EXPERIMENTS[config.experiment](config)
        meta.update(extra)
        verdict = "pass" if all(c["pass"] for c in meta["checks"].values()) else "fail"
    except Exception as err:
        traceback.print_exc()
        cols, rows = [], []
        meta["error"] = f"{type(err).__name__}: {err}"
        meta["checks"] = {}
        verdict = "fail"
    meta["verdict"] = verdict
    return Report(metadata=meta, columns=cols, rows=rows, verdict=verdict)


def _fmt_cell(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.17g}"
    return str(v)


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    raise TypeError(f"not serializable: {type(v)}")


def emit_report(report, out, fmt="csv"):
    """Write rows + metadata; returns the written paths."""
    paths = []
    if fmt == "json":
        path = f"{out}.json"
        with open(path, "w") as fh:
            json.dump({"metadata": report.metadata, "columns": report.columns,
                       "rows": report.rows, "verdict": report.verdict},
                      fh, indent=2, default=_json_default, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    elif fmt == "csv":
        path = f"{out}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(report.columns)
            for row in report.rows:
                w.writerow([_fmt_cell(row[c]) for c in report.columns])
        paths.append(path)
        side = f"{out}.meta.json"
        with open(side, "w") as fh:
            json.dump(report.metadata, fh, indent=2, default=_json_default,
                      sort_keys=True)
            fh.write("\n")
        paths.append(side)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return paths


# ---------------------------------------------------------------- entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bmklab", description="kernel/mollifier verification experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--level", type=int, default=None)
        sp.add_argument("--eps", default=None,
                        help="comma-separated epsilon ladder")
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    kwargs = {"experiment": args.experiment,
              "level": _DEFAULT_LEVEL[args.experiment],
              "seed": _DEFAULT_SEED[args.experiment]}
    try:
        if args.config:
            kwargs.update(load_config(args.config, args.experiment))
        if args.level is not None:
            kwargs["level"] = args.level
        if args.eps is not None:
            kwargs["eps"] = tuple(float(v) for v in args.eps.split(","))
        if args.p is not None:
            kwargs["p"] = args.p
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.out is not None:
            kwargs["out"] = args.out
        if args.fmt is not None:
            kwargs["fmt"] = args.fmt
        config = ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    paths = emit_report(report, config.out, config.fmt)
    for name, chk in report.metadata.get("checks", {}).items():
        print(f"{name}: {'pass' if chk['pass'] else 'FAIL'}")
    if "error" in report.metadata:
        print(f"error: {report.metadata['error']}")
    print(f"verdict: {report.verdict} in {elapsed:.3f} s ({', '.join(paths)})")
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
