"""Experiment harness: config, orchestration, and report emission.

Five experiments wrap the verification pipelines at desk scale:

  bmk-verify    plane reproduction ladders (holomorphic + conjugate data)
  bmk-lp        two-variable ladders: smooth (0,1) data and L^p data
  mollify       boundary mollification diagnostics on the half-space strip
  green-stokes  adjoint/boundary-term identities on intervals, boxes, discs
  young-scan    exponent admissibility scan plus the log-majorant fit

Configuration is INI-style ([common] plus one section per experiment);
command-line flags win over file values, and each experiment takes only
the settings it reads: an unread setting given as a flag or in its own
section is a usage error.  The settings are level, seed, out, fmt and
mollify's p; each experiment's ladder is fixed in its run_* body and its
verdict thresholds in THRESHOLDS, and its report records both.  Random
test families derive from numpy's default_rng (PCG64) seeded from the
config, so reports are reproducible across platforms.  Reports are CSV
rows plus a JSON metadata sidecar (--format csv, default) or a single
JSON document (--format json); JSON writes a non-finite float as its
CSV text ("inf", "nan").
Exit codes: 0 pass, 1 fail, 2 usage.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import bmk, mollify, young
from .exterior import DifferentialForm
from .fields import (AnalyticField, PolyField, RadialPowerField, components, coordinate,
                     zmonomial)
from .geometry import make_domain
from .operators import FirstOrderOperator, scalar_test_family
from .young import INF

__all__ = [
    "ExperimentConfig", "Report", "run_experiment", "emit_report", "write_csv",
    "main", "EXPERIMENTS", "THRESHOLDS",
]


# ---------------------------------------------------------------- config

THRESHOLDS = {
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


# the parser of each setting, shared by the INI file and the flags
_KEYS = {"level": int, "seed": int, "p": float, "out": str, "fmt": str}

# the settings that are also flags; fmt is spelled --format
_FLAGS = {"level": "--level", "p": "--p", "seed": "--seed", "out": "--out",
          "fmt": "--format"}

# the settings each experiment reads besides out and fmt, which all read; a
# flag, or a key in the experiment's own INI section, that it does not read
# is a usage error
_READS = {
    "bmk-verify": ("level", "seed"),
    "bmk-lp": ("level", "seed"),
    "mollify": ("p",),
    "green-stokes": ("level", "seed"),
    "young-scan": ("level", "seed"),
}


@dataclass
class ExperimentConfig:
    experiment: str
    level: int | None = None  # None: the experiment's _DEFAULT_LEVEL
    p: float = 2.0
    seed: int | None = None   # None: the experiment's _DEFAULT_SEED
    out: str = "report"
    fmt: str = "csv"

    def __post_init__(self):
        if self.experiment not in THRESHOLDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.level is None:
            self.level = _DEFAULT_LEVEL[self.experiment]
        if self.seed is None:
            self.seed = _DEFAULT_SEED[self.experiment]
        for key in (k for k, kind in _KEYS.items() if kind is int):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative")
        # written so that a NaN fails it
        if not 1 <= self.p < math.inf:
            raise ValueError("mollify needs a finite p >= 1: at p = inf the slab mass "
                             "of |f|^p is 0 or inf, so it cannot choose tau")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}; use csv or json")


@dataclass
class Report:
    metadata: dict
    columns: list
    rows: list
    verdict: str


def load_config(path, experiment):
    """Merge [common] and the experiment's section into keyword overrides.
    A setting in its own section that the experiment does not read is an
    error, and so are a file configparser cannot parse and a value its key's
    type cannot parse; the message names the file, and the key if any."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ValueError(f"config file {path!r} not readable")
        sections = {name: dict(parser.items(name)) for name in ("common", experiment)
                    if parser.has_section(name)}
    except configparser.Error as err:
        raise ValueError(f"config file {path!r} is malformed: {err}") from None
    own = sections.get(experiment, {})
    unread = sorted(set(own).intersection(_KEYS).difference(_READS[experiment], ("out", "fmt")))
    if unread:
        raise ValueError(f"{experiment} does not read {unread}")
    merged = {}
    for section in sections.values():
        merged.update(section)
    kwargs = {}
    for key, value in merged.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _KEYS[key](value)
        except ValueError:
            raise ValueError(f"config file {path!r}: {key} = {value!r} is not "
                             f"{'an integer' if _KEYS[key] is int else 'a number'}") from None
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
    steps = 7
    qcfg = bmk.SingularQuadratureConfig(base_level=cfg.level, refinement_steps=steps)
    zs = _sample_plane_points(cfg.seed)
    holo = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (2,), (0,))})
    conj = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    res_holo = bmk.reproduce_residual(holo, holo, None, disc, zs, qcfg)
    res_conj = bmk.reproduce_residual(conj, conj, conj.dbar(), disc, zs, qcfg)
    cols, rows = _residual_rows(res_holo, 1)
    rows += _residual_rows(res_conj, 1)[1]
    holo_max = _level_maxima(res_holo)[-1]
    maxima = _level_maxima(res_conj)
    deltas = [abs(maxima[i] - maxima[i + 1]) for i in range(len(maxima) - 1)]
    limits = THRESHOLDS["bmk-verify"]
    checks = {
        "holomorphic_reproduction": _below(holo_max, limits["holo_max"]),
        "conjugate_final_residual": _below(maxima[-1], limits["final_max"]),
        "residual_monotone": _decreasing(maxima),
        "delta_monotone": _decreasing(deltas[:limits["delta_window"]]),
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

    def dbar_coefs(x):
        # d/dzbar_j of the datum: w z_j, w = -3/4 (1 - |z|^2)^(-1/4), plus 1 at
        # j = 1, written part by part in float64.  Adding 1 and 0 as complex
        # numbers also turns a -0 part (w < 0 times +0) into +0, as the
        # complex product w z_j gives at the ball rules' nodes: bmk's fold
        # keeps the symbolic wedge's bits only on values without a -0 part.
        w = neg(x)
        w *= -0.75
        out = np.empty((2, len(x)), dtype=complex)
        for j, row in enumerate(out):
            np.multiply(w, x[:, 2 * j], out=row.real)
            np.multiply(w, x[:, 2 * j + 1], out=row.imag)
        out += [[1.0], [0.0]]
        return out

    d1, d2 = components(4, dbar_coefs, 2)
    dbar_lp = DifferentialForm(2, 0, 1, {((), (1,)): d1, ((), (2,)): d2})
    return flp, fb, dbar_lp


def _sample_ball4_points(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.45, 0.45, (5, 4))
    return pts[np.linalg.norm(pts, axis=1) <= 0.6]


def run_bmk_lp(cfg):
    ball = make_domain("ball", m=4)
    steps = 3
    zs = _sample_ball4_points(cfg.seed)
    if not len(zs):
        raise ValueError(f"seed {cfg.seed} drew no evaluation point in the ball")
    smooth = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    cfg_smooth = bmk.SingularQuadratureConfig(base_level=cfg.level, refinement_steps=steps)
    cfg_lp = bmk.SingularQuadratureConfig(base_level=cfg.level + 1, refinement_steps=steps)
    res_smooth = bmk.reproduce_residual(smooth, smooth, smooth.dbar(), ball, zs, cfg_smooth)
    flp, fb, dbar_lp = _lp_test_forms()
    res_lp = bmk.reproduce_residual(flp, fb, dbar_lp, ball, zs, cfg_lp)
    cols, rows = _residual_rows(res_smooth, 2)
    rows += _residual_rows(res_lp, 2)[1]
    limits = THRESHOLDS["bmk-lp"]
    checks = {}
    for name, res in (("smooth", res_smooth), ("lp", res_lp)):
        maxima = _level_maxima(res)
        checks[f"{name}_monotone"] = _decreasing(maxima)
        checks[f"{name}_final_residual"] = _below(maxima[-1], limits["final_max"])
    meta = {"smooth_levels": list(range(cfg.level, cfg.level + steps)),
            "lp_levels": list(range(cfg.level + 1, cfg.level + 1 + steps)),
            "checks": checks}
    return cols, rows, meta


def _times(a, b, out=None):
    """a * b, where an (n, 1) column times a (1, n2) row is one
    np.einsum('i,j->ij'): numpy's broadcast multiply takes about twice as
    long as a contiguous one on such an outer product, einsum about as long.
    The products agree bit for bit except that einsum gives +0 for a
    product -0.  The products in mollify_fixture that can be 0 (x1 x2 and
    sin(arg) e) enter sums that also take 0.5 c e, which is never 0, so f
    and Qf keep their bits.  np.einsum holds the GIL: two threads doing
    'i,j->ij' into their own buffers ran at 0.98-1.10x the speed of one.
    np.multiply releases it but was slower end to end (strip-mollify wall
    +9%, CPU +18% over 4 runs), so einsum stays."""
    if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0] == 1:
        return np.einsum("i,j->ij", a[:, 0], b[0], out=out)
    return np.multiply(a, b, out=out)


def mollify_fixture(grid_n=257):
    """Shared strip problem: smooth data on [-1,0]x[-1,1] with x1=0 boundary.

    The data is oscillatory enough that the O(eps^2) smoothing error
    dominates every rung of the documented ladder, so all four diagnostics
    decrease through eps = 0.025.  Returns (op, f, graph, f_b): graph's
    callable gives the pair (f, Qf), and f_b is f's own callable, the
    pair's first component.
    """
    bounds = [[-1.0, 0.0], [-1.0, 1.0]]
    op = FirstOrderOperator(2, a=[1.0, coordinate(2, 1)], b=0.5)

    def graph_fn(x):
        # the pair (f, Qf) at coordinates x = [x1, x2] that broadcast, from
        # three transcendentals per value of x1 or of x2 (once per axis value
        # on an open grid): f = 0.5 c e + 0.25 x1 x2 and
        # Qf = d1 f + x2 d2 f + 0.5 f, with d1 f = -0.65 sin(arg) e + 0.25 x2
        # and d2 f = 0.35 c e + 0.25 x1, each product and sum in that order
        x1, x2 = x
        arg = np.multiply(x1, 1.3)
        arg += 0.4
        c = np.cos(arg)
        e = np.multiply(x2, 0.7)
        np.exp(e, out=e)
        fv = _times(np.multiply(c, 0.5), e)
        t = _times(np.multiply(x1, 0.25), x2)
        fv += t
        s = np.sin(arg, out=arg)
        s *= -0.65
        qf = _times(s, e)
        qf += np.multiply(x2, 0.25)
        c *= 0.35
        _times(c, e, out=t)
        t += np.multiply(x1, 0.25)
        t *= x2
        qf += t
        np.multiply(fv, 0.5, out=t)
        qf += t
        return fv, qf

    def f_fn(x):
        return graph_fn(x)[0]

    shape = (grid_n, grid_n)
    f = mollify.HalfSpaceField(f_fn, bounds, shape)
    graph = mollify.HalfSpaceField(graph_fn, bounds, shape)
    return op, f, graph, f_fn


def run_mollify(cfg):
    grid_n, eps = 257, [0.2, 0.1, 0.05, 0.025]
    op, f, graph, f_fn = mollify_fixture(grid_n)
    report = mollify.convergence_report(op, f, graph, f_fn, eps, cfg.p)
    rows = report["rows"]
    cols = mollify.REPORT_COLUMNS
    diag = ["interior_err", "q_err", "commutator_ratio", "trace_err"]
    # from the second rung on; the rungs are the report's rows, so no value
    ladder = rows[1:]
    limits = THRESHOLDS["mollify"]
    checks = {
        "diagnostics_non_increasing": _every(
            a[k] >= b[k] - 1e-15 for k in diag for a, b in zip(ladder, ladder[1:])),
        "trace_final": _below(rows[-1]["trace_err"], limits["trace_max"]),
        "commutator_bounded": _at_most(max(r["commutator_ratio"] for r in rows),
                                       limits["commutator_cap"]),
    }
    meta = {"p": cfg.p, "grid_n": grid_n, "eps": eps, "checks": checks}
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
    limits = THRESHOLDS["green-stokes"]
    rows, checks = [], {}

    u_hand = PolyField(1, {(1,): 1.0})
    v_hand = PolyField(1, {(0,): 1.0})
    hand = op_int.green_stokes_residual(interval, u_hand, v_hand, level=level)
    rows.append({"case": "interval-hand", "test_index": 0, "level": level,
                 "residual": hand["residual"]})
    hand_err = max(abs(hand["volume_lhs"] - 1.0), abs(hand["volume_rhs"]
                   + hand["boundary"] - 1.0), hand["residual"])
    checks["interval_hand"] = _below(hand_err, limits["hand_max"])

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
    checks["compact_support"] = _below(worst["compact_support"], limits["compact_max"])
    checks["boundary_cases"] = _below(worst["boundary_cases"], limits["boundary_max"])

    cols = ["case", "test_index", "level", "residual"]
    meta = {"level": level, "checks": checks}
    return cols, rows, meta


def run_young_scan(cfg):
    disc = make_domain("ball", m=2)
    kern = young.bmk_norm_kernel(1, 0)
    spec = young.KernelSpec(X=("boundary", disc), Y=("domain", disc),
                            kernel=kern, t=1.0, s=1.5, a=4.0, b=INF)
    rows = young.scan_rows(spec, [1.0, 1.5, 2.0], sample_count=12, seed=cfg.seed,
                           level=cfg.level)
    fit_lo = young.log_bound_fit(disc, level=5)
    fit_hi = young.log_bound_fit(disc, level=6)
    drift = abs(fit_hi[1] - fit_lo[1]) / abs(fit_hi[1])
    integrals = {a: young.log_majorant_integral(disc, fit_hi[0], fit_hi[1], a, level=3)
                 for a in (1, 2, 4)}
    case3 = {r["p"]: r["r"] for r in rows if r["case"] == "III"}
    limits = THRESHOLDS["young-scan"]
    checks = {
        "case_iii_line_r_equals_p": _every(
            (math.isclose(p, r) for p, r in case3.items()), case3),
        "c1_refinement_drift": _below(drift, limits["c1_drift_max"]),
        "fit_residual_nonpositive": _at_most(fit_hi[2], limits["fit_residual_max"]),
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
            "thresholds": dict(THRESHOLDS[config.experiment])}
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
        for key in _READS[name] + ("out", "fmt"):
            if key in _FLAGS:
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
        folder = os.path.dirname(config.out) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"no directory {folder!r} to write the report in")
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
