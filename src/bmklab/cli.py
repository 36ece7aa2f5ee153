"""Experiment harness: config, orchestration, and report emission.

Five experiments wrap the verification pipelines at desk scale:

  bmk-verify    plane reproduction ladders (holomorphic + conjugate data)
  bmk-lp        two-variable ladders: smooth (0,1) data and L^p data
  mollify       boundary mollification diagnostics on the half-space strip
  green-stokes  adjoint/boundary-term identities on intervals, boxes, discs
  young-scan    exponent admissibility scan plus the log-majorant fit

Configuration is INI-style ([common] plus one section per experiment);
command-line flags win over file values, and each experiment takes only
the flags of the settings it reads.  Thresholds live in config with
the documented defaults; overriding a threshold changes the verdict only,
never the measurements.  Random test families derive from numpy's
default_rng (PCG64) seeded from the config, so reports are reproducible
across platforms.  Reports are CSV rows plus a JSON metadata sidecar
(--format csv, default) or a single JSON document (--format json);
JSON writes a non-finite float as its CSV text ("inf", "nan").
Exit codes: 0 pass, 1 fail, 2 usage.
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

from . import bmk, mollify, young
from .exterior import DifferentialForm
from .fields import (AnalyticField, PolyField, RadialPowerField, coordinate,
                     zmonomial)
from .geometry import make_domain
from .operators import FirstOrderOperator, scalar_test_family
from .young import INF

__all__ = [
    "ExperimentConfig", "Report", "run_experiment", "emit_report", "write_csv",
    "main", "EXPERIMENTS",
]


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

_DEFAULT_SEED = {"bmk-verify": 7, "bmk-lp": 11, "mollify": 0,
                 "green-stokes": 0, "young-scan": 0}


def _floats(text):
    return tuple(float(v) for v in text.split(","))


# the parser of each setting, shared by the INI file and the flags
_KEYS = {"level": int, "steps": int, "seed": int, "grid_n": int, "p": float,
         "eps": _floats, "out": str, "fmt": str}

# the settings that are also flags; fmt is spelled --format
_FLAGS = {"level": "--level", "eps": "--eps", "p": "--p", "seed": "--seed",
          "out": "--out", "fmt": "--format"}

# the flags of the settings each experiment reads; every experiment also
# takes --out and --format, and a flag it does not take is a usage error
_EXPERIMENT_FLAGS = {
    "bmk-verify": ("level", "seed"),
    "bmk-lp": ("level", "seed"),
    "mollify": ("eps", "p"),
    "green-stokes": ("level", "seed"),
    "young-scan": ("level", "seed", "p"),
}


@dataclass
class ExperimentConfig:
    experiment: str
    level: int | None = None  # None: the experiment's _DEFAULT_LEVEL
    steps: int = 0
    eps: tuple = (0.2, 0.1, 0.05, 0.025)
    p: float = 2.0
    seed: int | None = None   # None: the experiment's _DEFAULT_SEED
    out: str = "report"
    fmt: str = "csv"
    grid_n: int = 257
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in _DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.level is None:
            self.level = _DEFAULT_LEVEL[self.experiment]
        if self.seed is None:
            self.seed = _DEFAULT_SEED[self.experiment]
        for key in (k for k, kind in _KEYS.items() if kind is int):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative")
        if self.grid_n < 2:
            raise ValueError("grid_n must be 2 or more: the strip grid has to reach x_1 = 0")
        # written so that a NaN fails them
        if not self.eps or not all(e > 0 for e in self.eps) or not self.p >= 1:
            raise ValueError("eps needs one or more values, all positive, and p >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}; use csv or json")
        base = dict(_DEFAULT_THRESHOLDS[self.experiment])
        unknown = set(self.thresholds) - set(base)
        if unknown:
            raise ValueError(f"unknown thresholds {sorted(unknown)} for {self.experiment}")
        base.update(self.thresholds)
        self.thresholds = base
        # a count of ladder deltas: written so that a NaN or infinity fails it
        window = base.get("delta_window", 1)
        if not (window >= 1 and float(window).is_integer()):
            raise ValueError(f"delta_window must be a whole number >= 1, got {window!r}")


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
    kwargs, thresholds = {}, {}
    for key, value in merged.items():
        if key.startswith("threshold_"):
            thresholds[key[len("threshold_"):]] = float(value)
        elif key in _KEYS:
            kwargs[key] = _KEYS[key](value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    kwargs["thresholds"] = thresholds
    return kwargs


# ---------------------------------------------------------------- checks

def _below(value, threshold):
    return {"value": value, "threshold": threshold, "pass": bool(value < threshold)}


def _at_most(value, threshold):
    return {"value": value, "threshold": threshold, "pass": bool(value <= threshold)}


def _every(verdicts, value=None):
    """Pass when there is a verdict and every one holds: a check with nothing
    to judge fails.  The judged value is recorded when given."""
    verdicts = list(verdicts)
    check = {} if value is None else {"value": value}
    check["pass"] = bool(verdicts) and all(verdicts)
    return check


def _decreasing(values):
    """Strictly decreasing; fewer than two values compare nothing and fail."""
    return _every((a > b for a, b in zip(values, values[1:])), values)


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
        "holomorphic_reproduction": _below(holo_max, cfg.thresholds["holo_max"]),
        "conjugate_final_residual": _below(maxima[-1], cfg.thresholds["final_max"]),
        "residual_monotone": _decreasing(maxima),
        "delta_monotone": _decreasing(deltas[:win]),
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
        checks[f"{name}_monotone"] = _decreasing(maxima)
        checks[f"{name}_final_residual"] = _below(maxima[-1], cfg.thresholds["final_max"])
    meta = {"smooth_levels": list(range(cfg.level, cfg.level + steps)),
            "lp_levels": list(range(cfg.level + 1, cfg.level + 1 + steps)),
            "checks": checks}
    return cols, rows, meta


def mollify_fixture(grid_n=257):
    """Shared strip problem: smooth data on [-1,0]x[-1,1] with x1=0 boundary.

    The data is oscillatory enough that the O(eps^2) smoothing error
    dominates every rung of the documented ladder, so all four diagnostics
    decrease through eps = 0.025.  Returns (op, f, graph, f_b): graph's
    callable gives the pair (f, Qf), and f_b is f's own callable.
    """
    bounds = [[-1.0, 0.0], [-1.0, 1.0]]
    op = FirstOrderOperator(2, a=[1.0, coordinate(2, 1)], b=0.5)

    def f_fn(x):
        return (0.5 * np.cos(1.3 * x[:, 0] + 0.4) * np.exp(0.7 * x[:, 1])
                + 0.25 * x[:, 0] * x[:, 1])

    def graph_fn(x):
        # the pair (f, Qf) from three transcendentals per point; f in f_fn's
        # operation order, so its values are f_fn's bit for bit
        x1, x2 = x[:, 0], x[:, 1]
        arg = 1.3 * x1 + 0.4
        c, e = np.cos(arg), np.exp(0.7 * x2)
        fv = 0.5 * c * e + 0.25 * x1 * x2
        df1 = -0.65 * np.sin(arg) * e + 0.25 * x2
        df2 = 0.35 * c * e + 0.25 * x1
        return fv, df1 + x2 * df2 + 0.5 * fv

    shape = (grid_n, grid_n)
    f = mollify.HalfSpaceField(f_fn, bounds, shape)
    graph = mollify.HalfSpaceField(graph_fn, bounds, shape)
    return op, f, graph, f_fn


def run_mollify(cfg):
    op, f, graph, f_fn = mollify_fixture(cfg.grid_n)
    report = mollify.convergence_report(op, f, graph, f_fn, list(cfg.eps), cfg.p)
    rows = report["rows"]
    cols = mollify.REPORT_COLUMNS
    diag = ["interior_err", "q_err", "commutator_ratio", "trace_err"]
    # from the second rung on; the rungs are the report's rows, so no value
    ladder = rows[1:]
    checks = {
        "diagnostics_non_increasing": _every(
            a[k] >= b[k] - 1e-15 for k in diag for a, b in zip(ladder, ladder[1:])),
        "trace_final": _below(rows[-1]["trace_err"], cfg.thresholds["trace_max"]),
        "commutator_bounded": _at_most(max(r["commutator_ratio"] for r in rows),
                                       cfg.thresholds["commutator_cap"]),
    }
    meta = {"p": cfg.p, "grid_n": cfg.grid_n, "eps": list(cfg.eps), "checks": checks}
    return cols, rows, meta


def _green_stokes_cases():
    m2box = make_domain("interval-box", m=2, bounds=[[-1.0, 1.0], [-1.0, 1.0]])
    interval = make_domain("interval-box", m=1, bounds=[[-1.0, 0.0]])
    disc = make_domain("ball", m=2)
    # Q = (1 + x1 x2 / 2) d1 + x2 d2 + 1/4 on the square box and the disc
    op_box = FirstOrderOperator(2, a=[PolyField(2, {(0, 0): 1.0, (1, 1): 0.5}),
                                      PolyField(2, {(0, 1): 1.0})],
                                b=PolyField(2, {(0, 0): 0.25}))
    op_int = FirstOrderOperator(1, a=[PolyField(1, {(0,): 1.0})], b=PolyField(1, {}))
    return disc, m2box, interval, op_box, op_int


def run_green_stokes(cfg):
    disc, box, interval, op_box, op_int = _green_stokes_cases()
    level = cfg.level
    rows, checks = [], {}

    u_hand = PolyField(1, {(1,): 1.0})
    v_hand = PolyField(1, {(0,): 1.0})
    hand = op_int.green_stokes_residual(interval, u_hand, v_hand, level=level)
    rows.append({"case": "interval-hand", "test_index": 0, "level": level,
                 "residual": hand["residual"]})
    hand_err = max(abs(hand["volume_lhs"] - 1.0), abs(hand["volume_rhs"]
                   + hand["boundary"] - 1.0), hand["residual"])
    checks["interval_hand"] = _below(hand_err, cfg.thresholds["hand_max"])

    cup = PolyField(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    # case, domain, operator, family size, seed offset, window, check
    families = (
        ("compact-disc", disc, op_box, 3, 0, cup * cup * cup, "compact_support"),
        ("box", box, op_box, 4, 2, None, "boundary_cases"),
        ("interval", interval, op_int, 4, 4, None, "boundary_cases"),
    )
    worst = {"compact_support": 0.0, "boundary_cases": 0.0}
    for case, domain, op, count, offset, window, check in families:
        for i, (u, v) in enumerate(zip(
                scalar_test_family(domain, count, seed=cfg.seed + offset),
                scalar_test_family(domain, count, seed=cfg.seed + offset + 1))):
            if window is not None:
                u, v = u * window, v * window
            ures = op.green_stokes_residual(domain, u, v, level=level)
            rows.append({"case": case, "test_index": i, "level": level,
                         "residual": ures["residual"]})
            worst[check] = max(worst[check], ures["residual"])
    checks["compact_support"] = _below(worst["compact_support"],
                                       cfg.thresholds["compact_max"])
    checks["boundary_cases"] = _below(worst["boundary_cases"],
                                      cfg.thresholds["boundary_max"])

    cols = ["case", "test_index", "level", "residual"]
    meta = {"level": level, "checks": checks}
    return cols, rows, meta


def run_young_scan(cfg):
    disc = make_domain("ball", m=2)
    kern = young.bmk_norm_kernel(1, 0)
    spec = young.KernelSpec(X=("boundary", disc), Y=("domain", disc),
                            kernel=kern, t=1.0, s=1.5, a=4.0, b=INF)
    p_values = [1.0, 1.5, 2.0] if cfg.p == 2.0 else [cfg.p]
    rows = young.scan_rows(spec, p_values, sample_count=12, seed=cfg.seed, level=cfg.level)
    fit_lo = young.log_bound_fit(disc, level=5)
    fit_hi = young.log_bound_fit(disc, level=6)
    drift = abs(fit_hi[1] - fit_lo[1]) / abs(fit_hi[1])
    integrals = {a: young.log_majorant_integral(disc, fit_hi[0], fit_hi[1], a, level=3)
                 for a in (1, 2, 4)}
    case3 = {r["p"]: r["r"] for r in rows if r["case"] == "III"}
    checks = {
        "case_iii_line_r_equals_p": _every(
            (math.isclose(p, r) for p, r in case3.items()), case3),
        "c1_refinement_drift": _below(drift, cfg.thresholds["c1_drift_max"]),
        "fit_residual_nonpositive": _at_most(fit_hi[2], cfg.thresholds["fit_residual_max"]),
        "log_majorant_integrable": _every(
            (np.isfinite(v) for v in integrals.values()), integrals),
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
        return f"{v:.17g}"
    return str(v)


def _strict(doc):
    """doc with numpy values made plain and each non-finite float written as
    its CSV text, so the JSON holds no Infinity or NaN token."""
    if isinstance(doc, dict):
        return {k: _strict(v) for k, v in doc.items()}
    if isinstance(doc, np.ndarray):
        doc = doc.tolist()
    if isinstance(doc, (list, tuple)):
        return [_strict(v) for v in doc]
    if isinstance(doc, (np.floating, np.integer)):
        doc = doc.item()
    if isinstance(doc, float) and not math.isfinite(doc):
        return _fmt_cell(doc)
    return doc


def _dump_json(doc, path):
    with open(path, "w") as fh:
        json.dump(_strict(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, columns, rows):
    """Write dict rows under a header of columns; floats keep 17 digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt_cell(row[c]) for c in columns])


def emit_report(report, out, fmt="csv"):
    """Write rows + metadata; returns the written paths."""
    paths = []
    if fmt == "json":
        path = f"{out}.json"
        _dump_json({"metadata": report.metadata, "columns": report.columns,
                    "rows": report.rows, "verdict": report.verdict}, path)
        paths.append(path)
    elif fmt == "csv":
        path = f"{out}.csv"
        write_csv(path, report.columns, report.rows)
        paths.append(path)
        side = f"{out}.meta.json"
        _dump_json(report.metadata, side)
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
        for key in _EXPERIMENT_FLAGS[name] + ("out", "fmt"):
            sp.add_argument(_FLAGS[key], dest=key, type=_KEYS[key], default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    kwargs = {"experiment": args.experiment}
    try:
        if args.config:
            kwargs.update(load_config(args.config, args.experiment))
        kwargs.update((key, getattr(args, key)) for key in _FLAGS
                      if getattr(args, key, None) is not None)
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
