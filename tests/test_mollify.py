"""Boundary-adapted mollifiers: kernels, normal-scale selection, traces."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from bmklab import cli, fields, mollify
from bmklab.fields import coordinate, smooth_transition
from bmklab.geometry import _composite_gauss, _tensor
from bmklab.mollify import (DiracSequence, HalfSpaceField, choose_tau,
                            convergence_report, convolve_field, slab_mass)
from bmklab.operators import FirstOrderOperator

BOUNDS = [[-1.0, 0.0], [-1.0, 1.0]]


def _smooth_field(shape=(65, 65)):
    fn = lambda x: np.cos(1.1 * x[0]) * (1 + 0.5 * x[1])
    return HalfSpaceField(fn, BOUNDS, shape), fn


def test_dirac_sequence_unit_mass():
    """The continuous kernel has unit mass.

    quad_rule normalises its weights, so the check uses an independent,
    unnormalised fine rule over the support box.
    """
    for m, eps, tau in [(1, 0.2, 0.05), (2, 0.1, 0.0125), (3, 0.2, 0.1)]:
        kernel = DiracSequence(m, eps, tau)
        specs = [(8, 16)] + [(6, 16)] * (m - 1)
        axes = [_composite_gauss(lo, hi, panels, order)
                for (lo, hi), (panels, order) in zip(kernel.support_box(), specs)]
        nodes, weights = _tensor([a[0] for a in axes], [a[1] for a in axes])
        assert abs(np.sum(weights * kernel.values(nodes)) - 1.0) < 1e-8


def test_dirac_sequence_support_is_interior_slab():
    """The kernel lives in tau < t1 < 2 tau, so sampling never leaves U."""
    kernel = DiracSequence(2, 0.2, 0.025)
    t = np.array([[0.024, 0.0], [0.051, 0.0], [0.03, 0.25], [-0.03, 0.0],
                  [0.0, 0.0]])
    vals = kernel.values(t)
    assert vals[0] == 0.0  # below tau
    assert vals[1] == 0.0  # above 2 tau
    assert vals[3] == 0.0 and vals[4] == 0.0  # outside the half space
    inside = np.array([[0.0375, 0.0]])
    assert kernel.values(inside)[0] > 0.0


def test_dirac_sequence_rejects_bad_tau():
    with pytest.raises(ValueError, match="need tau <= epsilon"):
        DiracSequence(2, 0.1, 0.2)


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_scales_must_be_finite_and_positive(bad):
    """A scale eps or tau that is 0, negative, NaN or infinite is a
    ValueError naming it, not a negative tau, a NaN or negative slab mass,
    or choose_tau blaming the sample grid."""
    f, _ = _smooth_field()
    for name, call in (("epsilon", lambda: DiracSequence(2, bad, 0.1)),
                       ("tau", lambda: DiracSequence(2, 0.2, bad)),
                       ("tau", lambda: slab_mass(f, bad, 2.0)),
                       ("epsilon", lambda: choose_tau(f, bad, 2.0))):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and > 0, "
                                                       f"got {bad!r}")):
            call()


@pytest.mark.parametrize("n_normal", [0, 1])
def test_half_space_field_needs_a_boundary_row(n_normal):
    """With fewer than 2 normal samples the grid never reaches x_1 = 0."""
    with pytest.raises(ValueError, match="normal axis"):
        HalfSpaceField(lambda x: 1.0, BOUNDS, (n_normal, 5))
    f = HalfSpaceField(lambda x: 1.0, BOUNDS, (2, 5))
    assert f.axes[0][-1] == 0.0


@pytest.mark.parametrize("bounds", [[[-1.0, 0.0], [1.0, -1.0]], [[0.0, 0.0], [-1.0, 1.0]],
                                    [[-1.0, 0.0], [-1.0, np.nan]],
                                    [[-np.inf, 0.0], [-1.0, 1.0]]])
def test_half_space_field_needs_finite_increasing_bounds(bounds):
    """A reversed lateral row gave nan norms, an empty normal row a 0.0
    L^p norm and a NaN bound nan: each is now an error."""
    with pytest.raises(ValueError, match="finite lo < hi"):
        HalfSpaceField(lambda x: 1.0, bounds, (5, 5))


@pytest.mark.parametrize("n_lateral", [0, 1])
def test_half_space_field_needs_two_lateral_samples(n_lateral):
    """One lateral sample weighed [-1, 1] as 1, not its length 2, and none
    failed with an IndexError; like the normal axis, each lateral axis
    needs 2 or more samples."""
    with pytest.raises(ValueError, match="every axis needs 2 or more samples"):
        HalfSpaceField(lambda x: 1.0, BOUNDS, (5, n_lateral))


@pytest.mark.parametrize("bounds, shape", [(BOUNDS, (9,)), ([[-1.0, 0.0]], (9, 5))])
def test_half_space_field_needs_one_bound_row_per_axis(bounds, shape):
    """A bound row too many or too few is an error, not a field of another
    dimension or a grid that fails on first use."""
    with pytest.raises(ValueError, match="one bound row per axis"):
        HalfSpaceField(lambda x: 1.0, bounds, shape)


def _column(x):
    """A field of both coordinates that returns a column, not their shape."""
    return (x[0] + x[1])[..., None]


@pytest.mark.parametrize("fn, evaluated, grid", [
    (_column, r"shape \(3,\) .*got shape \(3, 1\)", r"shape \(5, 7\) .*got shape \(5, 7, 1\)"),
    (lambda x: (x[0] + x[1])[:-1], r"shape \(3,\) .*got shape \(2,\)",
     r"shape \(5, 7\) .*got shape \(4, 7\)"),
    (lambda x: (x[0] * x[1], np.ones(4)), r"shape \(3,\) .*got shape \(4,\)",
     r"shape \(5, 7\) .*got shape \(4,\)"),
], ids=["column", "short", "short-component"])
def test_values_must_broadcast_to_the_coordinates_shape(fn, evaluated, grid, monkeypatch):
    """Values whose shape neither is nor broadcasts to the coordinates'
    broadcast shape are an error naming both shapes, from evaluate(),
    grid_values(), slab_mass and convolve_field, not values broadcast over
    the points some other way.  (A length-1 axis does broadcast: a field of
    fewer coordinates gives one.)"""
    f = HalfSpaceField(fn, BOUNDS, (5, 7))
    x = np.array([[-0.5, 0.0], [-0.25, 0.5], [-0.125, -0.5]])
    with pytest.raises(ValueError, match=evaluated):
        f.evaluate(x)
    with pytest.raises(ValueError, match=grid):
        f.grid_values()
    with pytest.raises(ValueError, match="of its coordinates"):
        slab_mass(f, 0.1, 2.0)
    kernel = DiracSequence(2, 0.2, 0.05)
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)
    with pytest.raises(ValueError, match=evaluated):
        convolve_field(f, kernel, x, quad=kernel.quad_rule())
    with pytest.raises(ValueError, match=grid):
        convolve_field(f, kernel, f.grid_nodes().reshape(5, 7, 2), quad=kernel.quad_rule())


def test_values_of_fewer_coordinates_broadcast():
    """A constant, or a field of x_1 alone, gives values that broadcast to
    the coordinates' shape; evaluate() and grid_values() return them at
    full shape."""
    f = HalfSpaceField(lambda x: 2.0, BOUNDS, (5, 7))
    assert f.grid_values().shape == (5, 7) and np.all(f.grid_values() == 2.0)
    g = HalfSpaceField(lambda x: np.cos(x[0]), BOUNDS, (5, 7))
    x = np.array([[-0.5, 0.0], [-0.25, 0.5]])
    assert np.array_equal(g.evaluate(x), np.cos(x[:, 0]))
    assert np.array_equal(g.grid_values(), np.cos(g.grid_nodes()[:, 0]).reshape(5, 7))
    g.grid_values()[0, 0] = 0.0   # writable, not a broadcast view


AFFINE_SLOPES = (0.7, -0.4, 0.3)
M_SHAPES = {1: (9,), 2: (9, 5), 3: (9, 5, 4)}


def _box_field(m, fn):
    bounds = [[-1.0, 0.0]] + [[-1.0, 1.0 + 0.5 * k] for k in range(1, m)]
    return HalfSpaceField(fn, bounds, M_SHAPES[m]), np.asarray(bounds)


def _affine(x):
    """prod_k (2 + c_k x_k): affine in each coordinate and positive on the boxes."""
    value = 1.0
    for c, xk in zip(AFFINE_SLOPES, x):
        value = value * (2.0 + c * xk)
    return value


@pytest.mark.parametrize("m", [1, 2, 3])
def test_field_norms_are_exact_on_affine_data(m):
    """The trapezoid rule integrates a field affine in each coordinate
    exactly, so the p = 1 norms are the products of the per-axis integrals;
    at m = 1 the face is the single point x_1 = 0 of weight 1.  Values of
    the wrong length are an error, a single value or p = inf included."""
    f, bounds = _box_field(m, _affine)
    lo, hi = bounds.T
    axis_int = [2.0 * (b - a) + c * (b * b - a * a) / 2.0
                for a, b, c in zip(lo, hi, AFFINE_SLOPES)]
    values = f.grid_values()
    assert np.isclose(f.lp_norm(values, 1.0), np.prod(axis_int), rtol=1e-14, atol=0)
    assert f.lp_norm(values, np.inf) == np.max(np.abs(values))
    trace = _affine(list(f.boundary_nodes().T))
    assert np.isclose(f.trace_lp_norm(trace, 1.0), 2.0 * np.prod(axis_int[1:]),
                      rtol=1e-14, atol=0)
    assert f.trace_lp_norm(trace, np.inf) == np.max(trace)
    for p in (1.0, np.inf):
        with pytest.raises(ValueError):
            f.lp_norm(values.ravel()[1:], p)
        with pytest.raises(ValueError):
            f.lp_norm(values.ravel()[:1], p)
        with pytest.raises(ValueError):
            f.trace_lp_norm(np.append(trace, 1.0), p)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_boundary_nodes_are_the_grid_row_on_x1_zero(m):
    f, _ = _box_field(m, _affine)
    row = f.grid_nodes().reshape(M_SHAPES[m] + (m,))[-1].reshape(-1, m)
    assert np.array_equal(f.boundary_nodes(), row)
    assert np.all(f.boundary_nodes()[:, 0] == 0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.1, 0.01])
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_slab_mass_of_a_constant(m, tau, p):
    """int_{-2tau}^0 (1 - h(-t/tau)) dt = 3 tau / 2 (h rises symmetrically
    about 3/2), so a constant c has slab mass |c|^p * lateral width * 3 tau / 2."""
    c = 0.5 - 1.2j
    f, bounds = _box_field(m, lambda x: c)
    width = np.prod(bounds[1:, 1] - bounds[1:, 0])
    assert np.isclose(slab_mass(f, tau, p), abs(c) ** p * width * 1.5 * tau,
                      rtol=1e-13, atol=0)


def test_choose_tau_returns_largest_admissible_dyadic():
    f, _ = _smooth_field()
    eps, p = 0.2, 2.0
    tau = choose_tau(f, eps, p)
    k = round(np.log2(eps / tau))
    assert np.isclose(tau, eps * 2.0 ** (-k))
    assert slab_mass(f, tau, p) <= eps * eps
    if k > 0:
        assert slab_mass(f, 2 * tau, p) > eps * eps


def _per_panel_slab_mass(f, tau, p):
    """slab_mass as a plain loop: every panel sampled and weighted afresh."""
    edges = [(-2.0 * tau, -tau)]
    left = -tau
    for _ in range(mollify.SLAB_DEPTH):
        right = left / 2.0
        edges.append((left, right))
        left = right
        if -left < 1e-280:
            break
    total = 0.0
    for a, b in edges:
        t1, wt = _composite_gauss(a, b, 1, 10)
        factor = 1.0 - smooth_transition(-t1 / tau)
        pts, w = _tensor([t1] + f.axes[1:], [wt * factor] + f.axis_weights[1:])
        total += float(np.sum(w * np.abs(f.evaluate(pts)) ** p))
    return total


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_slab_mass_and_choose_tau_match_the_per_panel_loop(p, monkeypatch):
    """Shared panel samples change no bit of a slab mass or of tau, and a
    search that stops at eps * 2^-k samples its k + 49 distinct panels once:
    [-2eps, -eps] and the dyadic halves down to eps * 2^-(k+48)."""
    calls = []
    evaluate = HalfSpaceField.evaluate
    monkeypatch.setattr(HalfSpaceField, "evaluate",
                        lambda self, x: calls.append(len(x)) or evaluate(self, x))
    fields = [cli.mollify_fixture(grid_n=17)[1], _smooth_field((17, 9))[0],
              HalfSpaceField(lambda x: np.abs(x[0]) ** -0.25, BOUNDS, (9, 9))]
    for f in fields:
        for eps in (0.2, 0.05):
            for k in range(4):
                tau = eps * 2.0 ** -k
                assert slab_mass(f, tau, p) == _per_panel_slab_mass(f, tau, p)
            k = next(k for k in range(mollify.TAU_K_MAX + 1)
                     if _per_panel_slab_mass(f, eps * 2.0 ** -k, p) <= eps * eps)
            calls.clear()
            assert choose_tau(f, eps, p) == eps * 2.0 ** -k
            assert len(calls) == k + 49


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_slab_mass_singular_profile_oracle():
    """|f|^2 = |t1|^(-1/2) gives mass(tau) = width * c1 * sqrt(tau).

    c1 = int_0^2 (1 - h(s)) s^(-1/2) ds is evaluated with an independent
    adaptive integrator; the panel quadrature must match it.
    """
    fn = lambda x: np.abs(x[0]) ** -0.25
    f = HalfSpaceField(fn, BOUNDS, (33, 33))
    c1, err = quad(lambda s: (1 - smooth_transition(s)) / np.sqrt(s), 0, 2,
                   points=[1.0], limit=200)
    assert err < 1e-9
    for tau in (0.05, 0.0125):
        want = 2.0 * c1 * np.sqrt(tau)
        got = slab_mass(f, tau, 2.0)
        assert np.isclose(got, want, rtol=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_choose_tau_singular_selection_matches_prediction():
    fn = lambda x: np.abs(x[0]) ** -0.25
    f = HalfSpaceField(fn, BOUNDS, (33, 33))
    eps = 0.2
    c1, _ = quad(lambda s: (1 - smooth_transition(s)) / np.sqrt(s), 0, 2,
                 points=[1.0], limit=200)
    k_pred = next(k for k in range(41)
                  if 2.0 * c1 * np.sqrt(eps * 2.0 ** (-k)) <= eps * eps)
    tau = choose_tau(f, eps, 2.0)
    assert np.isclose(tau, eps * 2.0 ** (-k_pred))


@pytest.mark.parametrize("p", [np.inf, 0.5, np.nan])
def test_slab_mass_needs_a_finite_p_of_at_least_one(p):
    """At p = inf, |f|^p is 0 or inf, so the tau search would decide nothing."""
    f, _ = _smooth_field()
    with pytest.raises(ValueError, match="1 <= p < inf"):
        slab_mass(f, 0.1, p)
    with pytest.raises(ValueError, match="1 <= p < inf"):
        choose_tau(f, 0.2, p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_choose_tau_raises_when_slab_mass_cannot_comply():
    """|f|^p just inside non-integrability defeats every dyadic scale."""
    fn = lambda x: np.abs(x[0]) ** -0.49
    f = HalfSpaceField(fn, BOUNDS, (33, 33))
    with pytest.raises(ValueError, match="no admissible normal scale"):
        choose_tau(f, 0.2, 2.0)


def test_convolving_constant_reproduces_one():
    f = HalfSpaceField(lambda x: 1.0, BOUNDS, (33, 33))
    kernel = DiracSequence(2, 0.2, choose_tau(f, 0.2, 2.0))
    pts = np.array([[-0.5, 0.0], [0.0, 0.3], [-0.99, -0.7], [0.0, 0.0]])
    vals = convolve_field(f, kernel, pts, quad=kernel.quad_rule())
    assert np.allclose(vals[0], 1.0, atol=1e-12)
    assert np.allclose(vals[1:], 0.0, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_convolve_field_rows_match_per_row_sums(m):
    """Row 0 is f * phi and row 1+j is f * d_j phi with zero discrete mass."""
    bounds = [[-1.0, 0.0]] + [[-1.0, 1.0]] * (m - 1)
    fn = lambda x: np.exp(0.3 * x[0] + 0.2j * sum(x)) * (1 + x[-1] ** 2)
    f = HalfSpaceField(fn, bounds, (9,) * m)
    kernel = DiracSequence(m, 0.2, 0.05)
    x = np.random.default_rng(m).uniform(-0.8, 0.0, (7, m))
    x[0, 0] = 0.0
    t, w = kernel.quad_rule()
    got = convolve_field(f, kernel, x, quad=(t, w))
    assert got.shape == (1 + m, len(x))
    vals = fn(list((x[None, :, :] - t[:, None, :]).T)).T
    base = w * kernel.values(t)
    for row in range(1 + m):
        if row == 0:
            coef = base
        else:
            kv = kernel.grad(t)[:, row - 1]
            coef = w * kv - np.sum(w * kv) / np.sum(base) * base
        want = np.array([np.sum(coef * vals[:, i]) for i in range(len(x))])
        assert np.max(np.abs(got[row] - want)) <= 1e-13 * np.max(np.abs(want))


def _fixed_order_convolve_oracle(f, kernel, x, quad, chunk=64):
    """The fixed-order loop: node-order sums per chunk, added in chunk order."""
    t, w = quad
    base = w * kernel.values(t)
    coef = [base] + [w * kv - np.sum(w * kv) / np.sum(base) * base
                     for kv in kernel.grad(t).T]
    out = np.zeros((len(coef), x.shape[0]), dtype=complex)
    for start in range(0, len(t), chunk):
        part = np.zeros_like(out)
        for k in range(start, min(start + chunk, len(t))):
            vals = f.evaluate(x - t[k])
            for row, c in zip(part, coef):
                row += c[k] * vals
        out += part
    return out


def _complex_field(m, shape):
    """A complex field of every coordinate, with its callable."""
    fn = lambda x: np.exp(0.3 * x[0] + 0.2j * sum(x)) * np.cos(x[-1])
    bounds = [[-1.0, 0.0]] + [[-1.0, 1.0]] * (m - 1)
    return HalfSpaceField(fn, bounds, shape), fn


def _small_rule(kernel, m):
    """A 70-, 210- or 630-node rule over the kernel's support: several
    CONV_CHUNK blocks and a partial last one."""
    specs = [(7, 10)] + [(1, 3)] * (m - 1)
    axes = [_composite_gauss(lo, hi, panels, order)
            for (lo, hi), (panels, order) in zip(kernel.support_box(), specs)]
    quad = _tensor([a[0] for a in axes], [a[1] for a in axes])
    assert len(quad[0]) > mollify.CONV_CHUNK and len(quad[0]) % mollify.CONV_CHUNK
    return quad


def _convolve_on(cpus, monkeypatch, *args, **kwargs):
    """convolve_field on cpus slabs, with thread switches as often as possible."""
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return convolve_field(*args, **kwargs)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_convolve_field_equals_chunked_loop(m, cpus, monkeypatch):
    """Point slabs on a thread pool give the fixed-order loop's exact bits.

    cpus sets the number of slabs, 7 being more workers than a small
    machine has cores.
    """
    f, _ = _complex_field(m, (9,) * m)
    kernel = DiracSequence(m, 0.2, 0.05)
    quad = _small_rule(kernel, m)
    x = np.random.default_rng(m).uniform(-0.9, 0.0, (101, m))
    x[0, 0] = 0.0
    got = _convolve_on(cpus, monkeypatch, f, kernel, x, quad=quad)
    assert np.array_equal(got, _fixed_order_convolve_oracle(f, kernel, x, quad))


GRID_AXES = {
    "full": (9, 6, 4),
    "n1=1": (1, 6, 4),
    "one point": (1, 1, 1),
    "empty": (0, 6, 4),
    "empty lateral": (9, 0, 4),
    "repeated": (9, "repeated", 4),
}


@pytest.mark.parametrize("cpus", [1, 2, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("grid", list(GRID_AXES))
def test_convolve_field_on_a_grid_equals_the_scattered_loop(grid, m, cpus, monkeypatch):
    """On an (n_1, ..., n_m, m) grid, sampled through its open grid,
    convolve_field gives the bits of the fixed-order loop on the same
    nodes flattened to (N, m), which samples full columns, and its rows
    have the grid's shape.

    The grids include n_1 = 1, a single point and no points at all, and an
    axis whose three values are equal, which collapses to length 1 for
    every coordinate; the coordinates there are the same point's.
    """
    rng = np.random.default_rng(10 * m + len(grid))
    axes = []
    for k, n in enumerate(GRID_AXES[grid][:m]):
        lo, hi = (-0.9, 0.0) if k == 0 else (-1.0, 1.0)
        axes.append(np.full(3, rng.uniform(lo, hi)) if n == "repeated"
                    else np.sort(rng.uniform(lo, hi, n)))
    shape = tuple(len(a) for a in axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert nodes.shape == shape + (m,)
    f, _ = _complex_field(m, (9,) * m)
    kernel = DiracSequence(m, 0.2, 0.05)
    quad = _small_rule(kernel, m)
    got = _convolve_on(cpus, monkeypatch, f, kernel, nodes, quad=quad)
    assert got.shape == (1 + m,) + shape
    want = _fixed_order_convolve_oracle(f, kernel, nodes.reshape(-1, m), quad)
    assert np.array_equal(got.reshape(1 + m, -1), want)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_convolve_field_samples_a_grid_through_its_open_grid(m, monkeypatch):
    """Each call of the callable gets one coordinate array per axis, of
    length 1 on every other axis, so a subexpression of one coordinate
    runs once per value on its axis; scattered points get full columns."""
    shapes = []

    def fn(x):
        shapes.append([c.shape for c in x])
        return np.cos(sum(x))

    grid = (9, 6, 4)[:m]
    f = HalfSpaceField(fn, [[-1.0, 0.0]] + [[-1.0, 1.0]] * (m - 1), grid)
    kernel = DiracSequence(m, 0.2, 0.05)
    quad = _small_rule(kernel, m)
    nodes = f.grid_nodes()
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)
    convolve_field(f, kernel, nodes.reshape(grid + (m,)), quad=quad)
    open_grid = [tuple(n if a == d else 1 for a, n in enumerate(grid)) for d in range(m)]
    assert shapes == [open_grid] * len(quad[0])
    shapes.clear()
    convolve_field(f, kernel, nodes, quad=quad)
    assert shapes == [[(len(nodes),)] * m] * len(quad[0])


def test_convolve_field_reraises_a_worker_rows_exception():
    """A field that fails on one node's row fails the whole convolution.

    A worker sees only its slab of x, so node 70's row is told by its
    shift: the points are some contiguous slab of x, minus t[70].
    """
    kernel = DiracSequence(2, 0.2, 0.05)
    t, w = kernel.quad_rule()
    x = np.array([[-0.5, 0.0], [-0.25, 0.5]])

    def fn(coords):
        pts = np.stack(np.broadcast_arrays(*coords), axis=-1)
        if any(np.array_equal(pts, x[lo:lo + len(pts)] - t[70])
               for lo in range(len(x) - len(pts) + 1)):
            raise ZeroDivisionError("node 70")
        return np.ones(len(pts))

    f = HalfSpaceField(fn, BOUNDS, (5, 5))
    with pytest.raises(ZeroDivisionError):
        convolve_field(f, kernel, x, quad=(t, w))


@pytest.mark.parametrize("m", [1, 2])
def test_convolve_field_empty_and_one_point_sets(m, monkeypatch):
    """No points give a (1+m, 0) result from one empty slab, which samples f
    at no points; one point on 7 CPUs is one slab."""
    calls = []

    def fn(x):
        calls.append(np.broadcast(*x).size)
        return np.cos(x[0])

    bounds = [[-1.0, 0.0]] + [[-1.0, 1.0]] * (m - 1)
    f = HalfSpaceField(fn, bounds, (5,) * m)
    kernel = DiracSequence(m, 0.2, 0.05)
    quad = kernel.quad_rule()
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 7)
    empty = convolve_field(f, kernel, np.zeros((0, m)), quad=quad)
    assert empty.shape == (1 + m, 0) and calls == [0] * len(quad[0])
    calls.clear()
    x = np.full((1, m), -0.5)
    one = convolve_field(f, kernel, x, quad=quad)
    assert one.shape == (1 + m, 1)
    assert calls == [1] * len(quad[0])
    assert np.array_equal(one, _fixed_order_convolve_oracle(f, kernel, x, quad))


def test_convolve_field_needs_the_kernel_dimension():
    """Points of another dimension than the kernel's are an error."""
    f, _ = _smooth_field((5, 5))
    kernel = DiracSequence(2, 0.2, 0.05)
    with pytest.raises(ValueError, match="need 2 coordinates"):
        convolve_field(f, kernel, np.zeros((4, 3)), quad=kernel.quad_rule())


@pytest.mark.parametrize("m", [1, 2])
def test_convolve_field_keeps_real_data_real(m):
    """A real callable gives float64 samples and rows, bit-equal to the real
    parts that its complex copy gives, whose imaginary parts are zero."""
    bounds = [[-1.0, 0.0]] + [[-1.0, 1.0]] * (m - 1)
    fn = lambda x: np.exp(0.3 * x[0]) * np.cos(2.0 * x[-1]) - 0.4
    real = HalfSpaceField(fn, bounds, (9,) * m)
    copy = HalfSpaceField(lambda x: fn(x).astype(complex), bounds, (9,) * m)
    assert real.grid_values().dtype == np.float64
    assert copy.grid_values().dtype == np.complex128
    kernel = DiracSequence(m, 0.2, 0.05)
    quad = kernel.quad_rule()
    x = np.random.default_rng(m).uniform(-0.9, 0.0, (31, m))
    assert real.evaluate(x).dtype == np.float64
    got = convolve_field(real, kernel, x, quad=quad)
    want = convolve_field(copy, kernel, x, quad=quad)
    assert got.dtype == np.float64 and want.dtype == np.complex128
    assert np.array_equal(got, want.real) and not np.any(want.imag)


def _graph_fields(grid_n=17):
    """The strip problem's f and graph, plus a field of Qf alone."""
    op, f, graph, f_fn = cli.mollify_fixture(grid_n)
    qf = HalfSpaceField(lambda x: graph.func(x)[1], f.bounds, f.shape)
    return op, f, graph, qf, f_fn


def test_graph_callable_keeps_the_expression_bits():
    """The strip problem's in-place graph callable gives the bits of the
    plain expressions for f and Qf = d_1 f + x_2 d_2 f + f / 2, products
    and sums in the same order, on the columns of its grid nodes and of
    random points, and on its open grid."""
    _, f, graph, _, f_fn = _graph_fields(33)
    x = np.vstack([f.grid_nodes(), np.random.default_rng(3).uniform(-1.0, 0.0, (999, 2))])
    x1, x2 = x[:, 0], x[:, 1]
    arg = 1.3 * x1 + 0.4
    c, e = np.cos(arg), np.exp(0.7 * x2)
    fv = 0.5 * c * e + 0.25 * x1 * x2
    df1 = -0.65 * np.sin(arg) * e + 0.25 * x2
    df2 = 0.35 * c * e + 0.25 * x1
    qf = df1 + x2 * df2 + 0.5 * fv
    got = graph.func([x1, x2])
    assert got[0].tobytes() == fv.tobytes() == f_fn([x1, x2]).tobytes()
    assert got[1].tobytes() == qf.tobytes()
    on_grid = graph.func(list(np.ix_(*f.axes)))
    n = len(f.grid_nodes())
    assert on_grid[0].shape == on_grid[1].shape == f.shape
    assert on_grid[0].tobytes() == fv[:n].tobytes()
    assert on_grid[1].tobytes() == qf[:n].tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_graph_rows_equal_two_passes(cpus, monkeypatch):
    """The graph (f, Qf) in one pass gives [f * k, f * d_j k..., Qf * k],
    the rows of one pass over f and one over Qf, bit for bit, on the grid
    nodes as an (N, 2) stack and as a (17, 17, 2) grid."""
    _, f, graph, qf, _ = _graph_fields()
    kernel = DiracSequence(2, 0.1, 0.025)
    quad = kernel.quad_rule()
    x = f.grid_nodes()
    want = np.vstack([_fixed_order_convolve_oracle(f, kernel, x, quad),
                      _fixed_order_convolve_oracle(qf, kernel, x, quad)[:1]])
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    for points in (x, x.reshape(f.shape + (2,))):
        got = convolve_field(graph, kernel, points, quad=quad)
        assert got.shape == (4,) + points.shape[:-1] and got.dtype == np.float64
        assert np.array_equal(got.reshape(4, -1), want)


def test_convergence_report_rejects_a_graph_of_other_data():
    """graph must return the pair (f, Qf) on f's grid, with f's own values:
    a one-ulp change of f, a plain field or another grid is an error."""
    op, f, graph, qf, f_fn = _graph_fields()
    off = HalfSpaceField(lambda x: (np.nextafter(f_fn(x), np.inf), graph.func(x)[1]),
                         f.bounds, f.shape)
    for bad in (off, qf, _graph_fields(9)[2]):
        with pytest.raises(ValueError, match="pair"):
            convergence_report(op, f, bad, f_fn, [0.2], 2.0)


def test_convergence_report_checks_the_trace_candidate_shape():
    """f_b is sampled at the columns of the 17 face nodes; a column of
    values is an error naming both shapes, not a (17, 17) difference."""
    op, f, graph, _, _ = _graph_fields()
    with pytest.raises(ValueError, match=r"shape \(17,\) .*got shape \(17, 1\)"):
        convergence_report(op, f, graph, _column, [0.2], 2.0)


def test_mollify_report_is_the_same_at_any_cpu_count(monkeypatch):
    """The strip problem's report rows are bit-equal at 1, 2, 3 and 7 CPUs."""
    op, f, graph, f_fn = cli.mollify_fixture(grid_n=17)
    reports = []
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(fields, "_usable_cpus", lambda cpus=cpus: cpus)
        rep = convergence_report(op, f, graph, f_fn, [0.2, 0.1], 2.0)
        reports.append(np.array([[row[c] for c in mollify.REPORT_COLUMNS]
                                 for row in rep["rows"]]))
    for rows in reports[1:]:
        assert np.array_equal(rows, reports[0])


def test_grid_values_are_sampled_once_on_first_use():
    """grid_values() calls the callable once, on the open grid."""
    calls = []

    def fn(x):
        calls.append([c.shape for c in x])
        return x[0] + 2j * x[1]

    f = HalfSpaceField(fn, BOUNDS, (5, 7))
    assert calls == []
    first = f.grid_values()
    assert f.grid_values() is first and calls == [[(5, 1), (1, 7)]]
    nodes = f.grid_nodes()
    assert first.shape == (5, 7)
    assert np.array_equal(first.ravel(), nodes[:, 0] + 2j * nodes[:, 1])


def test_convergence_report_samples_f_once_per_convolution_point(monkeypatch):
    """Each eps step samples the graph (f, Qf) at len(rule) * N shifted
    points, once per point, not (2+m)x or once for f and again for Qf; f
    itself is sampled only on its grid.  Every call gets open-grid
    coordinates, 17 normal values per slab row set and 17 lateral ones."""
    f_calls, graph_calls = [], []

    def fn(x):
        f_calls.append(np.broadcast(*x).size)
        return np.cos(x[0]) + 1j * x[1]

    def graph_fn(x):
        graph_calls.append(np.broadcast(*x).size)
        assert x[0].shape[1:] == (1,) and x[1].shape == (1, 17)
        return np.cos(x[0]) + 1j * x[1], -np.sin(x[0])

    shape = (17, 17)
    f = HalfSpaceField(fn, BOUNDS, shape)
    graph = HalfSpaceField(graph_fn, BOUNDS, shape)
    monkeypatch.setattr(mollify, "choose_tau", lambda f, eps, p: 0.05)
    op = FirstOrderOperator(2, a=[1.0, 0.0], b=0.0)
    eps = [0.2, 0.1]
    convergence_report(op, f, graph, lambda x: np.cos(x[0]), eps, 2.0)
    n = shape[0] * shape[1]
    rule = sum(len(DiracSequence(2, e, 0.05).quad_rule()[0]) for e in eps)
    assert f_calls == [n]
    assert graph_calls[0] == n and sum(graph_calls[1:]) == rule * n


def _traced_peak(run):
    """Bytes that run() holds at its peak, above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_convergence_report_keeps_one_rung_alive():
    """A two-rung report on the 65 x 65 strip peaks no higher than a
    one-rung report of its second eps, plus a slack of a quarter of one
    rung's convolve_field output: no array of the first rung is alive
    during the second rung's convolution."""
    n = 65

    def report(eps_list):
        op, f, graph, f_fn = cli.mollify_fixture(n)
        return lambda: convergence_report(op, f, graph, f_fn, eps_list, 2.0)

    report([0.2])()   # fills the import-time and per-order caches first
    one = _traced_peak(report([0.1]))
    two = _traced_peak(report([0.2, 0.1]))
    rung_output = (2 + 2) * n * n * 8   # rows f, d_1 f, d_2 f, Qf in float64
    assert two <= one + rung_output // 4


def test_convergence_report_builds_no_grid_for_the_graph(monkeypatch):
    """The graph field is only sampled: after a report, its own axes have
    gone to no tensor-rule build, so it holds no (N, m) nodes or weights."""
    built = []
    tensor = mollify._tensor
    monkeypatch.setattr(mollify, "_tensor", lambda axes, weights: built.append(axes)
                        or tensor(axes, weights))
    op, f, graph, _, f_fn = _graph_fields()
    convergence_report(op, f, graph, f_fn, [0.2], 2.0)
    assert any(axes is f.axes for axes in built)
    assert not any(axes is graph.axes for axes in built)


def test_convergence_report_keeps_a_complex_coefficient_complex():
    """With a_2 = i x_2, Q f_eps is complex: each row's q_err equals that
    of the complex formula on complex coefficient arrays, and differs from
    the one with a_2's imaginary part dropped."""
    _, f, graph, _, f_fn = _graph_fields()
    op = FirstOrderOperator(2, a=[1.0, 1j * coordinate(2, 1)], b=0.5)
    rows = convergence_report(op, f, graph, f_fn, [0.2, 0.1], 2.0)["rows"]
    nodes = f.grid_nodes()
    a_vals = [np.asarray(aj(nodes), dtype=complex) for aj in op.a]
    b_vals = np.asarray(op.b(nodes), dtype=complex)
    qf_grid = graph.grid_values()[1].ravel()
    for row in rows:
        kernel = DiracSequence(2, row["epsilon"], row["tau"])
        conv = convolve_field(graph, kernel, nodes.reshape(f.shape + (2,)),
                              quad=kernel.quad_rule())
        f_eps, *partials, _ = conv.reshape(len(conv), -1)

        def q_err(coefs):
            q_f_eps = b_vals * f_eps
            for a, df in zip(coefs, partials):
                q_f_eps = q_f_eps + a * df
            return f.lp_norm(q_f_eps - qf_grid, 2.0)

        assert row["q_err"] == q_err(a_vals)
        assert row["q_err"] != q_err([a.real for a in a_vals])


def test_convergence_report_keeps_constant_coefficients_scalar(monkeypatch):
    """Of the strip operator's a_1 = 1, a_2 = x_2 and b = 0.5, only a_2 is
    evaluated, so no grid array is built for a constant; the rows equal bit
    for bit those of the same operator with the constants as callables that
    return grid arrays."""
    called = []
    call = fields.PolyField.__call__
    monkeypatch.setattr(fields.PolyField, "__call__", lambda self, x: called.append(self)
                        or call(self, x))
    op, f, graph, _, f_fn = _graph_fields()
    rows = convergence_report(op, f, graph, f_fn, [0.2, 0.1], 2.0)["rows"]
    assert len(called) == 1 and called[0] is op.a[1]
    ones = fields.AnalyticField(2, lambda x: np.ones(x.shape[:-1]))
    half = fields.AnalyticField(2, lambda x: np.full(x.shape[:-1], 0.5))
    on_grid = FirstOrderOperator(2, a=[ones, op.a[1]], b=half)
    assert convergence_report(on_grid, f, graph, f_fn, [0.2, 0.1], 2.0)["rows"] == rows


def test_convergence_report_structure_and_interior_ladder():
    fn = lambda x: np.cos(1.3 * x[0] + 0.4) * np.exp(0.7 * x[1]) * 0.5
    qfn = lambda x: -0.65 * np.sin(1.3 * x[0] + 0.4) * np.exp(0.7 * x[1])
    f = HalfSpaceField(fn, BOUNDS, (65, 65))
    graph = HalfSpaceField(lambda x: (fn(x), qfn(x)), BOUNDS, (65, 65))
    op = FirstOrderOperator(2, a=[1.0, 0.0], b=0.0)
    rep = convergence_report(op, f, graph, fn, [0.2, 0.1], 2.0)
    rows = rep["rows"]
    assert [r["epsilon"] for r in rows] == [0.2, 0.1]
    for key in ("tau", "interior_err", "q_err", "commutator_ratio", "trace_err"):
        assert all(key in r for r in rows)
    assert rows[1]["interior_err"] < rows[0]["interior_err"]
    assert rows[1]["trace_err"] < rows[0]["trace_err"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_convolve_field_names_a_point_that_is_not_finite():
    """A NaN or infinite point, scattered or on a grid, is the ValueError
    that names it, where its row came back NaN; the field is never called."""
    f = HalfSpaceField(lambda x: pytest.fail("sampled a point set with a NaN"), BOUNDS, (5, 5))
    kernel = DiracSequence(2, 0.2, 0.05)
    scattered = np.array([[-0.5, 0.1], [-0.2, np.nan], [-0.3, 0.2]])
    grid = np.stack(np.meshgrid([-0.5, -0.2], [0.1, np.inf, 0.3], indexing="ij"), axis=-1)
    for x, bad in ((scattered, [-0.2, np.nan]), (grid, [-0.5, np.inf])):
        with pytest.raises(ValueError, match=re.escape(f"evaluation point {bad} is not finite")):
            convolve_field(f, kernel, x, quad=kernel.quad_rule())


def test_lp_norms_need_p_of_at_least_one():
    """A grid or trace norm at p < 1 is a ValueError naming p, where p = -1
    gave 0.2255 on the 33^2 grid."""
    f, _ = _smooth_field((33, 33))
    values = f.grid_values()
    for norm, vals in ((f.lp_norm, values), (f.trace_lp_norm, values[-1])):
        with pytest.raises(ValueError, match=re.escape("1 <= p <= inf, got p = -1.0")):
            norm(vals, -1.0)
        assert norm(vals, np.inf) == np.max(np.abs(vals))


@pytest.mark.parametrize("p", [0, 0.5, np.inf, np.nan])
def test_convergence_report_checks_p_first(p):
    """convergence_report names a p outside 1 <= p < inf in slab_mass's
    words before it samples anything, where p = 0 raised ZeroDivisionError
    from the L^p norm."""
    fn = lambda x: pytest.fail("sampled before p was checked")
    f = HalfSpaceField(fn, BOUNDS, (5, 5))
    op = FirstOrderOperator(2, a=[1.0, 0.0], b=0.0)
    with pytest.raises(ValueError, match=re.escape(f"convergence_report needs 1 <= p < inf, "
                                                   f"got p = {p!r}")):
        convergence_report(op, f, f, fn, [0.2], p)
