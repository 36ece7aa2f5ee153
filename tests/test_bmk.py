"""Kernel evaluation, singular quadrature, and reproduction ladders.

Closed-form oracles used below, all derived by hand from the Newtonian
potential of the unit ball in R^4 and the plane Cauchy kernel:

  - plane reduction: the (1,0) kernel is (1/2 pi i) dzeta / (zeta - z);
  - B-potential of the constant form dzbar_1 on the unit 4-ball at z is
    -conj(z_1)/2 (and -conj(z)/2 reduces to the Pompeiu value -conj(z)
    scaled by 1/2 only in the four-dimensional normalization);
  - B-potential of conj(z_2) dzbar_1 on the unit 4-ball is
    -conj(z_1) conj(z_2) / 3;
  - over any disc B(c, R) containing y, the integral of 1/(zeta - y)
    equals pi * conj(c - y), checkable through the complex Green identity
    as a pure boundary integral of conj(zeta)/(zeta - y).
"""

import csv
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmklab import bmk, cli
from bmklab.exterior import DifferentialForm, multi_indices
from bmklab.fields import AnalyticField, PolyField, constant, zmonomial
from bmklab.geometry import boundary_rule, dist_boundary, make_domain, volume_rule

DISC = make_domain("ball", m=2)
BALL4 = make_domain("ball", m=4)


def _cval(x):
    return complex(x[0], x[1])


def test_kernel_constant_values():
    assert np.isclose(bmk.kernel_constant(1, 0), 1 / (2 * np.pi))
    assert np.isclose(bmk.kernel_constant(2, 0), 1 / (2 * np.pi ** 2))
    assert np.isclose(bmk.kernel_constant(2, 1), 1 / (4 * np.pi ** 2))


def test_cauchy_reduction_hundred_random_pairs():
    rng = np.random.default_rng(123)
    probe = np.zeros((1, 2))
    for _ in range(100):
        zeta = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 2)
        if np.linalg.norm(zeta - z) < 1e-3:
            continue
        got = bmk.kernel_eval(1, 0, zeta, z)[()].coeffs[((1,), ())](probe)[0]
        want = 1 / (2j * np.pi * (_cval(zeta) - _cval(z)))
        assert abs(got - want) / abs(want) < 1e-12


def test_kernel_eval_coincident_points_rejected():
    z = np.array([0.3, -0.4])
    with pytest.raises(ValueError):
        bmk.kernel_eval(1, 0, z, z)
    # only exact coincidence is singular: a pair 1e-9 apart is a valid kernel
    zeta = z + np.array([1e-9, 0.0])
    (form,) = bmk.kernel_eval(1, 0, zeta, z).values()
    (coef,) = form.coeffs.values()
    got = complex(np.asarray(coef(zeta[None, :]))[0])
    want = 1.0 / (2j * np.pi * (_cval(zeta) - _cval(z)))
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_bidegree_bookkeeping(n):
    zeta = np.arange(1.0, 2 * n + 1.0)
    z = np.zeros(2 * n)
    for q in range(-1, n + 1):
        table = bmk.kernel_eval(n, q, zeta, z)
        if q < 0 or q >= n:
            assert table == {}
            continue
        assert sorted(table) == multi_indices(n, q)
        for J, form in table.items():
            assert len(J) == q
            assert form.bidegree == (n, n - q - 1)


def test_kernel_norm_times_distance_power_is_constant():
    """A = |B| d^{2n-1} is scale and direction free; A(1,0) = sqrt(2)/(2 pi)."""
    rng = np.random.default_rng(5)
    consts = {}
    for n, q in [(1, 0), (2, 0), (2, 1)]:
        A = []
        for _ in range(6):
            z = rng.uniform(-1, 1, 2 * n)
            u = rng.standard_normal(2 * n)
            u /= np.linalg.norm(u)
            for k in range(-6, 3):
                d = 2.0 ** k
                A.append(bmk.kernel_norm(n, q, z + d * u, z) * d ** (2 * n - 1))
        # plain lists work as in kernel_eval
        A.append(bmk.kernel_norm(n, q, (z + u).tolist(), z.tolist()))
        A = np.array(A)
        assert (A.max() - A.min()) / A.mean() < 1e-12
        consts[(n, q)] = A.mean()
    assert np.isclose(consts[(1, 0)], math.sqrt(2) / (2 * np.pi), rtol=1e-13)
    assert np.isclose(consts[(2, 0)], consts[(2, 1)], rtol=1e-13)


def test_cauchy_formula_high_node_count():
    """Boundary reproduction of z^k on 2048 circle nodes, |z| <= 0.5."""
    cfg = bmk.SingularQuadratureConfig(base_level=6, refinement_steps=1)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.4, 0.4, (6, 2))
    pts = np.vstack([[0.5, 0.0], pts])
    for k in range(4):
        f_b = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (k,), (0,))})
        for zp in pts:
            got = bmk.op_boundary(f_b, zp, DISC, cfg)["value"][()]
            assert abs(got - _cval(zp) ** k) < 1e-8


def test_pompeiu_spot_value():
    g = DifferentialForm(1, 0, 1, {((), (1,)): constant(2, 1.0)})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=5)
    val = bmk.op_volume(g, np.array([0.5, 0.0]), DISC, cfg)["value"][()]
    assert abs(val - (-0.5)) < 1e-3


def test_volume_operator_finite_with_z_on_a_node():
    """z on a quadrature node: the masked node must add 0, not 0 * nan."""
    g = DifferentialForm(1, 0, 1, {((), (1,)): constant(2, 1.0)})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=3)
    z = volume_rule(DISC, 1).nodes[100]
    got = [bmk.op_volume(g, z, DISC, _one_level(level))["value"][()] for level in cfg.levels()]
    assert np.all(np.isfinite(got))

    # the batched paths: a residual point on a level-1 node ...
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    res = bmk.reproduce_residual(f, f, f.dbar(), DISC, np.vstack([z, [0.1, 0.2]]), cfg)
    assert len(res["rows"]) == 6
    assert all(np.isfinite(row[key]) for row in res["rows"] for key in _ROW_TERMS)

    # ... and a dbar_potential stencil point z + h e_1 that is exactly a node
    f1 = DifferentialForm(1, 0, 1, {((), (1,)): zmonomial(1, (1,), (0,))})
    rule = volume_rule(DISC, 1)
    e = np.array([bmk.FD_STEP_FACTOR * bmk.FD_EXCLUSION_FACTOR * rule.spacing, 0.0])
    node = next(x for x in rule.nodes
                if np.linalg.norm(x) < 0.5 and np.array_equal((x - e) + e, x))
    got = bmk.dbar_potential(f1, np.vstack([node - e, [0.1, 0.2]]), rule)
    assert np.all(np.isfinite(got))


def _one_level(level):
    return bmk.SingularQuadratureConfig(base_level=level, refinement_steps=1)


_ROW_TERMS = ("residual", "boundary_term_norm", "volume_term_norm", "potential_dbar_norm")


def _rows_with_scale(res):
    """Each row's four norms, with the largest term norm of the row as the
    scale: the residual is a cancellation of those terms."""
    out = []
    for row in res["rows"]:
        scale = max(row[key] for key in _ROW_TERMS[1:])
        out += [(row[key], scale) for key in _ROW_TERMS]
    return out


def _blocking_outputs():
    """(value, scale) of every public sweep caller, in a fixed order, and
    dbar_potential on a stack next to its per-point calls."""
    out = []
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=2)
    g = DifferentialForm(1, 0, 1, {((), (1,)): zmonomial(1, (1,), (1,))})
    out += [bmk.op_volume(g, np.array([0.3, -0.2]), DISC, _one_level(level))["value"][()]
            for level in cfg.levels()]
    f_b = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (2,), (1,))})
    out.append(bmk.op_boundary(f_b, np.array([0.3, -0.2]), DISC, cfg)["value"][()])
    out = [(v, abs(v)) for v in out]
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    zs = np.array([[0.5, 0.0], [0.1, 0.2], [-0.3, -0.1]])
    out += _rows_with_scale(bmk.reproduce_residual(f, f, f.dbar(), DISC, zs, cfg))
    smooth = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    zs4 = np.array([[0.2, -0.1, 0.3, 0.15], [-0.3, 0.1, 0.05, -0.2]])
    cfg4 = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=1)
    out += _rows_with_scale(
        bmk.reproduce_residual(smooth, smooth, smooth.dbar(), BALL4, zs4, cfg4))
    rule4 = volume_rule(BALL4, 0)
    stack = bmk.dbar_potential(smooth, zs4, rule4)
    out += [(v, abs(v)) for v in stack.ravel()]
    single = [bmk.dbar_potential(smooth, z[None], rule4)[0] for z in zs4]
    return out, stack, single


def _assert_close(got, want, rel=1e-13):
    """|got - want| <= rel * scale for each (value, scale) pair."""
    for (a, scale_a), (b, scale_b) in zip(got, want, strict=True):
        assert abs(a - b) <= rel * max(scale_a, scale_b), (a, b)


def _stack_matches_points(stack, single):
    for got, want in zip(stack, single, strict=True):
        _assert_close([(v, abs(v)) for v in got], [(v, abs(v)) for v in want])


def test_sweep_blocking_does_not_change_results(monkeypatch):
    """Blocks of 7 nodes and 3 pairs, which divide none of the rules, give
    the default blocking's values to 1e-13 relative, and dbar_potential on
    a stack gives its per-point values."""
    default, stack, single = _blocking_outputs()
    _stack_matches_points(stack, single)
    monkeypatch.setattr(bmk, "NODE_BLOCK", 7)
    monkeypatch.setattr(bmk, "PAIR_BLOCK", 3)
    small, stack, single = _blocking_outputs()
    _assert_close(small, default)
    _stack_matches_points(stack, single)


def _serial_sweep(form, rule, points, radius=0.0, centers=None):
    """The one-thread sweep that bmk._sweep must equal bit for bit: blocks
    folded and swept in node order, each product added as soon as it is
    made."""
    interior = rule.nu is None
    n, q = form.n, form.q - interior
    densities = bmk._densities(form, q)
    width = len(multi_indices(n, q))
    points = np.asarray(points, dtype=float)
    count, m = points.shape
    acc = np.zeros((count, 2 * width))
    if not (count and densities):
        return acc[:, :width] + 1j * acc[:, width:]
    r2 = radius * radius
    block = min(bmk.NODE_BLOCK, len(rule))
    step = min(max(1, bmk.PAIR_BLOCK // count), block)
    coef = np.zeros((m, block, 2 * width))
    diff = np.empty((m, count, step))
    dist2, scale = np.empty((2, count, step))
    drop, on_node = np.empty((2, count, step), dtype=bool)
    ys = points.T[:, :, None]
    if centers is not None:
        cs = centers.T[:, :, None]
        cdiff = np.empty((m, len(centers), step))
        cdist2, ctmp = np.empty((2, len(centers), step))
        grouped = drop.reshape(len(centers), -1, step)
    for start in range(0, len(rule), bmk.NODE_BLOCK):
        nodes = rule.nodes[start:start + bmk.NODE_BLOCK]
        size = len(nodes)
        nu = None if interior else rule.nu[start:start + bmk.NODE_BLOCK]
        bmk._fold(coef[:, :size], densities, nodes, nu,
                  rule.weights[start:start + bmk.NODE_BLOCK])
        zeta = nodes.T[:, None, :]
        for sub in range(0, size, step):
            b = min(step, size - sub)
            d, r, sc = diff[:, :, :b], dist2[:, :b], scale[:, :b]
            dr, on = drop[:, :b], on_node[:, :b]
            np.subtract(zeta[:, :, sub:sub + b], ys, out=d)
            bmk._norm2(d, r, sc)
            if centers is None:
                np.less(r, r2, out=dr)
            else:
                cd, cr = cdiff[:, :, :b], cdist2[:, :b]
                np.subtract(zeta[:, :, sub:sub + b], cs, out=cd)
                bmk._norm2(cd, cr, ctmp[:, :b])
                grouped[:, :, :b] = (cr < r2)[:, None, :]
            np.equal(r, 0.0, out=on)
            dr |= on
            np.copyto(sc, r)
            for _ in range(n - 1):
                sc *= r
            np.copyto(sc, np.inf, where=dr)
            np.divide(1.0, sc, out=sc)
            d *= sc
            for c in range(m):
                acc += d[c] @ coef[c, sub:sub + b]
    return acc[:, :width] + 1j * acc[:, width:]


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(bmk.os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("cpus", [1, 2, 7])
def test_pooled_sweep_equals_serial_sweep(monkeypatch, cpus):
    """With 7-node blocks, so every rule runs as many blocks with a partial
    last one, op_volume, op_boundary, reproduce_residual on the disc and the
    4-ball and dbar_potential on a stack are bit-identical to the serial
    sweep, on pools of 1, 2 and 7 workers and with threads switching every
    microsecond."""
    monkeypatch.setattr(bmk, "NODE_BLOCK", 7)
    _use_cpus(monkeypatch, cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [v for v, _ in _blocking_outputs()[0]]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(bmk, "_sweep", _serial_sweep)
    serial = [v for v, _ in _blocking_outputs()[0]]
    assert np.array_equal(pooled, serial)


@pytest.mark.parametrize("cpus", [1, 2, 7])
def test_sweep_reraises_a_blocks_exception(monkeypatch, cpus):
    """A field that fails on one block only fails the whole sweep with its
    own error type.  The failing block is the first one a pool thread folds,
    or on one CPU the block holding node 500."""
    monkeypatch.setattr(bmk, "NODE_BLOCK", 7)
    _use_cpus(monkeypatch, cpus)
    rule = volume_rule(DISC, 1)
    bad = rule.nodes[500]
    failed = []

    def func(x):
        pooled = threading.current_thread() is not threading.main_thread()
        if not failed and (pooled or cpus == 1 and np.any(np.all(x == bad, axis=-1))):
            failed.append(len(x))
            raise ZeroDivisionError("one block")
        return x[:, 0]

    g = DifferentialForm(1, 0, 1, {((), (1,)): AnalyticField(2, func)})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(ZeroDivisionError, match="one block"):
            bmk._sweep(g, rule, np.array([[0.1, 0.2], [-0.3, 0.4]]), 0.05)
    finally:
        sys.setswitchinterval(interval)
    assert len(failed) == 1


def test_block_error_gives_a_fail_verdict(monkeypatch):
    """An error in one block of the bmk-verify sweep becomes the report's
    fail verdict, with the error's own type."""
    monkeypatch.setattr(bmk, "NODE_BLOCK", 7)
    _use_cpus(monkeypatch, 2)
    bad = volume_rule(DISC, 1).nodes[500]
    fold = bmk._fold

    def failing_fold(coef, densities, nodes, nu, weights):
        if np.any(np.all(nodes == bad, axis=-1)):
            raise ZeroDivisionError("one block")
        fold(coef, densities, nodes, nu, weights)

    monkeypatch.setattr(bmk, "_fold", failing_fold)
    report = cli.run_experiment(cli.ExperimentConfig(experiment="bmk-verify", steps=2))
    assert report.verdict == "fail"
    assert report.metadata["error"] == "ZeroDivisionError: one block"


def _residual_peak(monkeypatch, base_level, steps):
    """tracemalloc peak of a q = 1 4-ball ladder at two points on two workers."""
    _use_cpus(monkeypatch, 2)
    f = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    zs = np.array([[0.2, -0.1, 0.3, 0.15], [-0.3, 0.1, 0.05, -0.2]])
    cfg = bmk.SingularQuadratureConfig(base_level=base_level, refinement_steps=steps)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        res = bmk.reproduce_residual(f, f, f.dbar(), BALL4, zs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res["rows"]) == 2 * steps
    return peak


def test_reproduce_residual_memory_stays_block_sized(monkeypatch):
    """A levels 0-2 4-ball ladder on a pool of two workers peaks below a
    fixed block allowance, as numpy reports its buffers to tracemalloc: no
    array may grow with the node count times the point count.  The volume
    rule is written block by block from its radial and unit-sphere factors,
    so it is never resident; the allowance covers each worker's
    32,768-node fold buffer at n = 2, q = 1 (4.2 MB), its node block
    (1.3 MB) and the density temporaries the fold is built from.  The pool
    size is fixed because each worker holds its own buffers."""
    peak = _residual_peak(monkeypatch, 0, 3)
    assert peak < 24 * 2 ** 20, peak


def test_reproduce_residual_level3_ladder_memory(monkeypatch):
    """A levels 1-3 4-ball ladder, whose level-3 volume rule has 6.3M nodes
    (250 MB as arrays), peaks below 32 MiB on two workers: the boundary
    rule's 131,072 nodes, weights and normals (8.4 MB) and the workers'
    block buffers."""
    peak = _residual_peak(monkeypatch, 1, 3)
    assert peak < 32 * 2 ** 20, peak


def test_reproduce_residual_builds_each_interior_rule_once(monkeypatch):
    """A q = 1 ladder builds one interior rule per level, which the volume
    term and dbar_potential share."""
    built = []

    def counting_volume_rule(domain, level):
        built.append(level)
        return volume_rule(domain, level)

    monkeypatch.setattr(bmk, "volume_rule", counting_volume_rule)
    f = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=2)
    zs = np.array([[0.2, -0.1, 0.3, 0.15]])
    res = bmk.reproduce_residual(f, f, f.dbar(), BALL4, zs, cfg)
    assert len(res["rows"]) == 2
    assert built == cfg.levels()


def test_four_ball_potential_of_constant_form():
    zp = np.array([0.2, -0.1, 0.3, 0.15])
    g = DifferentialForm(2, 0, 1, {((), (1,)): constant(4, 1.0)})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=3)
    val = bmk.op_volume(g, zp, BALL4, cfg)["value"][()]
    want = -np.conj(_cval(zp[:2])) / 2
    assert abs(val - want) < 1e-3


def test_four_ball_potential_of_linear_form():
    zp = np.array([0.2, -0.1, 0.3, 0.15])
    f = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=3)
    val = bmk.op_volume(f, zp, BALL4, cfg)["value"][()]
    want = -np.conj(_cval(zp[:2])) * np.conj(_cval(zp[2:])) / 3
    assert abs(val - want) < 1e-3


def test_dbar_potential_matches_gradient_of_closed_form():
    """dbar of -zb1 zb2/3 is -(zb2 dzb1 + zb1 dzb2)/3."""
    zp = np.array([0.2, -0.1, 0.3, 0.15])
    zb1, zb2 = np.conj(_cval(zp[:2])), np.conj(_cval(zp[2:]))
    f = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    got = bmk.dbar_potential(f, zp[None], volume_rule(BALL4, 2))[0]
    assert abs(got[0] - (-zb2 / 3)) < 3e-3   # J = (1,)
    assert abs(got[1] - (-zb1 / 3)) < 3e-3   # J = (2,)


def test_removed_ball_center_rule_against_green_identity():
    """int_{B(c,R)} dA/(zeta - y) = pi conj(c - y), via a boundary integral.

    The scalar factor of the (1,0) kernel integrates over any disc to an
    exact linear function of the center; this is the analytic fact that
    restores the finite-difference stencil bias, so it gets its own
    independent check: rewrite the area integral with the complex Green
    identity as a circle integral of conj(zeta)/(zeta - y) minus the
    distributional term pi conj(y), then compare.
    """
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = _cval(rng.uniform(-0.5, 0.5, 2))
        R = rng.uniform(0.2, 0.6)
        y = c + _cval(rng.uniform(-0.4, 0.4, 2)) * R / np.sqrt(2)
        theta = 2 * np.pi * np.arange(4096) / 4096
        zeta = c + R * np.exp(1j * theta)
        dz = 1j * R * np.exp(1j * theta) * (2 * np.pi / 4096)
        oracle = np.sum(np.conj(zeta) / (zeta - y) * dz) / 2j - np.pi * np.conj(y)
        assert abs(oracle - np.pi * np.conj(c - y)) < 1e-10


def test_reproduction_ladder_plane_conjugate_data():
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=4)
    zs = np.array([[0.5, 0.0], [0.1, 0.2], [-0.3, -0.1]])
    res = bmk.reproduce_residual(f, f, f.dbar(), DISC, zs, cfg)
    per = {}
    for row in res["rows"]:
        per.setdefault(row["level"], []).append(row["residual"])
    maxima = [max(per[L]) for L in sorted(per)]
    assert all(a > b for a, b in zip(maxima, maxima[1:]))


def test_reproduction_exact_for_holomorphic_data():
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (2,), (0,))})
    cfg = bmk.SingularQuadratureConfig(base_level=3, refinement_steps=1)
    res = bmk.reproduce_residual(f, f, None, DISC, np.array([[0.3, -0.2]]), cfg)
    assert res["rows"][0]["residual"] < 1e-8


def test_singularity_integrability_order():
    """Mass of |B| within distance rho of the pole scales like rho^1."""
    rule = volume_rule(DISC, 3)
    z = np.zeros(2)
    d = np.linalg.norm(rule.nodes, axis=1)
    nrm = np.array([bmk.kernel_norm(1, 0, nd, z) for nd in rule.nodes])
    rhos = np.array([0.5, 0.25, 0.125, 0.0625])
    mass = np.array([np.sum(rule.weights[d < r] * nrm[d < r]) for r in rhos])
    slope = np.polyfit(np.log(rhos), np.log(mass), 1)[0]
    assert slope >= 0.9
    # closed form: A * 2 pi rho with A = sqrt(2)/(2 pi)
    assert np.isclose(mass[0], math.sqrt(2) * 0.5, rtol=1e-2)


def test_volume_operator_lp_ratios_stay_bounded():
    """Desk-scale echo of the smoothing estimate: the L^r/L^p ratio of
    B-potential to data stays bounded for (p,r) = (2,2) and (1, 1.8)."""
    rng = np.random.default_rng(0)
    vr = volume_rule(DISC, 1)
    zgrid = volume_rule(DISC, 0).nodes
    zpts = zgrid[np.linalg.norm(zgrid, axis=1) <= 0.6][::4]
    area = np.pi * 0.36
    for trial in range(6):
        terms = {(a, b): complex(rng.standard_normal(), rng.standard_normal())
                 for a in range(2) for b in range(2)}
        g = DifferentialForm(1, 0, 1, {((), (1,)): PolyField(2, terms)})
        gv = np.sqrt(2.0) * np.abs(g.coeffs[((), (1,))](vr.nodes))
        level_ratios = []
        for base in (1, 2):
            cfg = bmk.SingularQuadratureConfig(base_level=base,
                                               refinement_steps=1)
            vals = np.array([bmk.op_volume(g, zp, DISC, cfg)["value"][()]
                             for zp in zpts])
            for p, r in ((2.0, 2.0), (1.0, 1.8)):
                gn = float(np.sum(vr.weights * gv ** p) ** (1 / p))
                rn = float(np.mean(np.abs(vals) ** r) ** (1 / r)) * area ** (1 / r)
                ratio = rn / gn
                assert ratio < 1.0
                level_ratios.append(ratio)
        for early, late in zip(level_ratios[:2], level_ratios[2:]):
            assert abs(late - early) / early < 0.5


def test_residual_report_csv_schema(tmp_path):
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=2)
    res = bmk.reproduce_residual(f, f, f.dbar(), DISC,
                                 np.array([[0.2, 0.1]]), cfg)
    cols, rows = cli._residual_rows(res, 1)
    report = cli.Report(metadata={}, columns=cols, rows=rows, verdict="pass")
    path, _ = cli.emit_report(report, str(tmp_path / "report"))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res["rows"])
    assert set(rows[0]) == {"z1", "z2", "residual", "boundary_term_norm",
                            "volume_term_norm", "potential_dbar_norm", "level"}
    assert float(rows[0]["residual"]) == res["rows"][0]["residual"]


def _generic_form(n, q):
    """A (0, q)-form whose coefficients mix constants, x_k and x_k x_l."""
    m = 2 * n
    coeffs = {}
    for idx, J in enumerate(multi_indices(n, q)):
        terms = {(0,) * m: complex(1.0 + idx, -0.5)}
        for k in range(m):
            powers = [0] * m
            powers[k] = 1
            terms[tuple(powers)] = complex(0.3 * (k + 1), 0.7 - 0.2 * idx)
            powers[(k + 1) % m] += 1
            terms[tuple(powers)] = complex(-0.4, 0.1 * k)
        coeffs[((), J)] = PolyField(m, terms)
    return DifferentialForm(n, 0, q, coeffs)


def _interior_points(n):
    # every coordinate within 0.45 keeps |z| <= 0.9 on the unit disc and ball
    return st.lists(st.floats(-0.45, 0.45), min_size=2 * n, max_size=2 * n).map(np.array)


def _node_by_node(n, q, z, rule, density, rho=0.0):
    """sum_i w_i density(kernel_eval(zeta_i, z)[J], i) over nodes outside
    the rho-ball around z, with the sum of |terms| as each J's scale."""
    want = {J: 0j for J in multi_indices(n, q)}
    scale = dict.fromkeys(want, 0.0)
    for i, (zeta, w) in enumerate(zip(rule.nodes, rule.weights)):
        if np.sum((zeta - z) ** 2) < rho * rho:
            continue
        for J, K in bmk.kernel_eval(n, q, zeta, z).items():
            term = w * complex(density(K, i))
            want[J] += term
            scale[J] += abs(term)
    return want, scale


@pytest.mark.parametrize("n, q", [(1, 0), (2, 0), (2, 1)])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_operators_match_node_by_node_kernel_wedge(n, q, data, frame_density):
    """One-level op_volume and op_boundary against the slow symbolic path:
    w_i * (g ^ kernel_eval(zeta_i, z)[J]) as a density, node by node; on the
    boundary the density is the form evaluated on a tangent frame."""
    z = data.draw(_interior_points(n))
    domain = make_domain("ball", m=2 * n)
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=1)
    g, f_b = _generic_form(n, q + 1), _generic_form(n, q)

    vol = volume_rule(domain, 0)
    want, scale = _node_by_node(
        n, q, z, vol, lambda K, i: g.wedge(K).top_density()(vol.nodes[i:i + 1])[0],
        bmk.EXCLUSION_FACTOR * vol.spacing)
    got = bmk.op_volume(g, z, domain, cfg)["value"]
    # relative to the sum of |terms|, so a value cancelling to ~0 stays fair
    assert all(abs(got[J] - want[J]) <= 1e-12 * scale[J] for J in want)

    bnd = boundary_rule(domain, 0)
    want, scale = _node_by_node(
        n, q, z, bnd, lambda K, i: frame_density(
            f_b.wedge(K), bnd.nodes[i:i + 1], bnd.nu[i:i + 1])[0])
    got = bmk.op_boundary(f_b, z, domain, cfg)["value"]
    assert all(abs(got[J] - want[J]) <= 1e-12 * scale[J] for J in want)


def test_operand_and_rule_errors_name_the_bad_argument():
    """A (1, 0) boundary operand is not a (0, q)-form, dbar_potential takes
    an interior rule, f_b needs f's bidegree and a form on C^1 does not
    integrate over the 4-ball: each is a ValueError that names the
    argument at fault."""
    f = DifferentialForm(1, 1, 0, {((1,), ()): 1.0})
    g = DifferentialForm(1, 0, 1, {((), (1,)): 1.0})
    with pytest.raises(ValueError, match=r"a form on C\^1 needs points in R\^2, got R\^4"):
        bmk.op_volume(g, np.full(4, 0.1), BALL4)
    with pytest.raises(ValueError, match=r"a form on C\^1 needs points in R\^2, got R\^4"):
        bmk.op_boundary(DifferentialForm(1, 0, 0, {((), ()): 1.0}), np.full(4, 0.1), BALL4)
    with pytest.raises(ValueError, match=r"operand must be a \(0, q\)-form, got \(1, 0\)"):
        bmk.op_boundary(f, np.zeros(2), DISC)
    with pytest.raises(ValueError, match="dbar_potential needs an interior rule"):
        bmk.dbar_potential(g, np.zeros(2), boundary_rule(DISC, 0))
    with pytest.raises(ValueError, match="f_b must have f's bidegree"):
        bmk.reproduce_residual(g, f, None, DISC, np.zeros((1, 2)))


def test_dbar_potential_takes_a_stack_of_points_only():
    """A (2n,) point and a (P, 2n + 1) stack are ValueErrors; a q = 0 form
    gives (P, 1) zeros."""
    f = DifferentialForm(1, 0, 1, {((), (1,)): zmonomial(1, (1,), (0,))})
    rule = volume_rule(DISC, 0)
    for z in (np.zeros(2), np.zeros((3, 3))):
        with pytest.raises(ValueError, match=r"needs a \(P, 2\) stack of points"):
            bmk.dbar_potential(f, z, rule)
    f0 = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (1,), (0,))})
    assert np.array_equal(bmk.dbar_potential(f0, np.zeros((3, 2)), rule), np.zeros((3, 1)))


@given(radius=st.sampled_from([0.5, 1.0, 2.0]),
       polar=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi)),
                      min_size=1, max_size=4),
       steps=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_reproduce_residual_flags_and_level_rows(radius, polar, steps):
    """Flagged = exactly the points closer than the margin to the boundary;
    rows = config.levels() x the remaining points, each once."""
    disc = make_domain("ball", m=2, radius=radius)
    zs = np.array([[radius * r * np.cos(t), radius * r * np.sin(t)] for r, t in polar])
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (1,), (0,))})
    cfg = bmk.SingularQuadratureConfig(base_level=0, refinement_steps=steps)
    res = bmk.reproduce_residual(f, f, None, disc, zs, cfg)
    near = dist_boundary(disc, zs) < bmk.MARGIN_FACTOR * radius
    assert np.array_equal(np.array(res["flagged"]).reshape(-1, 2), zs[near])
    want = sorted((L, tuple(z)) for L in cfg.levels() for z in zs[~near])
    assert sorted((row["level"], tuple(row["z"])) for row in res["rows"]) == want


@given(z=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(np.array)
       .filter(lambda v: np.linalg.norm(v) > 1e-3)
       .map(lambda v: 0.5 * v / max(1.0, np.linalg.norm(v))))
@settings(max_examples=1, deadline=None)
def test_dbar_potential_matches_closed_form_at_drawn_points(z):
    """dbar of -zb1 zb2/3 is -(zb2 dzb1 + zb1 dzb2)/3 for |z| <= 0.5.

    Level 3, not the fixed-point test's level 2: over |z| <= 0.5 the level-2
    stencil error reaches 3.5e-3, past the 3e-3 bound.  Level 3 does not
    keep every such point under the bound either: most points give 3e-4 to
    1e-3, but z = (0, 0, 0, 0.5), (0, 0, 0.5, 0) and (0, 0, .354, .354),
    with z1 = 0 and |z2| = 0.5, give 4.8e-3, so a draw near them fails
    (the seed-dependent hard-ball error of ROADMAP item 1).  One example,
    since a level-3 call takes seconds.
    """
    zb1, zb2 = np.conj(_cval(z[:2])), np.conj(_cval(z[2:]))
    f = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    got = bmk.dbar_potential(f, z[None], volume_rule(BALL4, 3))[0]
    assert abs(got[0] - (-zb2 / 3)) < 3e-3   # J = (1,)
    assert abs(got[1] - (-zb1 / 3)) < 3e-3   # J = (2,)
