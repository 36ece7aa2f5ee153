"""Boundary-adapted mollifiers: kernels, normal-scale selection, traces."""

import sys

import numpy as np
import pytest
from scipy.integrate import quad

from bmklab import mollify
from bmklab.fields import smooth_transition
from bmklab.geometry import _composite_gauss, _tensor
from bmklab.mollify import (DiracSequence, HalfSpaceField, choose_tau,
                            convergence_report, convolve_field, slab_mass)
from bmklab.operators import FirstOrderOperator

BOUNDS = [[-1.0, 0.0], [-1.0, 1.0]]


def _smooth_field(shape=(65, 65)):
    fn = lambda x: np.cos(1.1 * x[:, 0]) * (1 + 0.5 * x[:, 1])
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
    with pytest.raises(ValueError):
        DiracSequence(2, 0.1, 0.2)


def test_choose_tau_returns_largest_admissible_dyadic():
    f, _ = _smooth_field()
    eps, p = 0.2, 2.0
    tau = choose_tau(f, eps, p)
    k = round(np.log2(eps / tau))
    assert np.isclose(tau, eps * 2.0 ** (-k))
    assert slab_mass(f, tau, p) <= eps * eps
    if k > 0:
        assert slab_mass(f, 2 * tau, p) > eps * eps


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_slab_mass_singular_profile_oracle():
    """|f|^2 = |t1|^(-1/2) gives mass(tau) = width * c1 * sqrt(tau).

    c1 = int_0^2 (1 - h(s)) s^(-1/2) ds is evaluated with an independent
    adaptive integrator; the panel quadrature must match it.
    """
    fn = lambda x: np.abs(x[:, 0]) ** -0.25
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
    fn = lambda x: np.abs(x[:, 0]) ** -0.25
    f = HalfSpaceField(fn, BOUNDS, (33, 33))
    eps = 0.2
    c1, _ = quad(lambda s: (1 - smooth_transition(s)) / np.sqrt(s), 0, 2,
                 points=[1.0], limit=200)
    k_pred = next(k for k in range(41)
                  if 2.0 * c1 * np.sqrt(eps * 2.0 ** (-k)) <= eps * eps)
    tau = choose_tau(f, eps, 2.0)
    assert np.isclose(tau, eps * 2.0 ** (-k_pred))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_choose_tau_raises_when_slab_mass_cannot_comply():
    """|f|^p just inside non-integrability defeats every dyadic scale."""
    fn = lambda x: np.abs(x[:, 0]) ** -0.49
    f = HalfSpaceField(fn, BOUNDS, (33, 33))
    with pytest.raises(ValueError):
        choose_tau(f, 0.2, 2.0)


def test_convolving_constant_reproduces_one():
    f = HalfSpaceField(lambda x: np.ones(len(x)), BOUNDS, (33, 33))
    kernel = DiracSequence(2, 0.2, choose_tau(f, 0.2, 2.0))
    pts = np.array([[-0.5, 0.0], [0.0, 0.3], [-0.99, -0.7], [0.0, 0.0]])
    vals = convolve_field(f, kernel, pts, quad=kernel.quad_rule())
    assert np.allclose(vals[0], 1.0, atol=1e-12)
    assert np.allclose(vals[1:], 0.0, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_convolve_field_rows_match_per_row_sums(m):
    """Row 0 is f * phi and row 1+j is f * d_j phi with zero discrete mass."""
    bounds = [[-1.0, 0.0]] + [[-1.0, 1.0]] * (m - 1)
    fn = lambda x: np.exp(0.3 * x[:, 0] + 0.2j * x.sum(axis=1)) * (1 + x[:, -1] ** 2)
    f = HalfSpaceField(fn, bounds, (9,) * m)
    kernel = DiracSequence(m, 0.2, 0.05)
    x = np.random.default_rng(m).uniform(-0.8, 0.0, (7, m))
    x[0, 0] = 0.0
    t, w = kernel.quad_rule()
    got = convolve_field(f, kernel, x, quad=(t, w))
    assert got.shape == (1 + m, len(x))
    vals = fn((x[None, :, :] - t[:, None, :]).reshape(-1, m)).reshape(len(t), len(x))
    base = w * kernel.values(t)
    for row in range(1 + m):
        if row == 0:
            coef = base
        else:
            kv = kernel.grad(t)[:, row - 1]
            coef = w * kv - np.sum(w * kv) / np.sum(base) * base
        want = np.array([np.sum(coef * vals[:, i]) for i in range(len(x))])
        assert np.max(np.abs(got[row] - want)) <= 1e-13 * np.max(np.abs(want))


def _chunked_convolve_oracle(f, kernel, x, quad, chunk=64):
    """The loop convolve_field replaced: one (chunk * N)-point block per chunk."""
    t, w = quad
    base = w * kernel.values(t)
    coef = [base] + [w * kv - np.sum(w * kv) / np.sum(base) * base
                     for kv in kernel.grad(t).T]
    out = np.zeros((len(coef), x.shape[0]), dtype=complex)
    for start in range(0, len(t), chunk):
        tt = t[start:start + chunk]
        pts = (x[None, :, :] - tt[:, None, :]).reshape(-1, x.shape[1])
        vals = f.evaluate(pts).reshape(len(tt), x.shape[0])
        for row, c in zip(out, coef):
            row += c[start:start + chunk] @ vals
    return out


@pytest.mark.parametrize("cpus", [1, 2, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_convolve_field_equals_chunked_loop(m, cpus, monkeypatch):
    """Per-node rows on a thread pool give the chunked loop's exact bits.

    The rules have 70, 210 and 630 nodes, so every case runs several
    CONV_CHUNK blocks and a partial last one; cpus sets the pool size,
    7 being more workers than a small machine has cores.
    """
    bounds = [[-1.0, 0.0]] + [[-1.0, 1.0]] * (m - 1)
    fn = lambda x: np.exp(0.3 * x[:, 0] + 0.2j * x.sum(axis=1)) * np.cos(x[:, -1])
    f = HalfSpaceField(fn, bounds, (9,) * m)
    kernel = DiracSequence(m, 0.2, 0.05)
    specs = [(7, 10)] + [(1, 3)] * (m - 1)
    axes = [_composite_gauss(lo, hi, panels, order)
            for (lo, hi), (panels, order) in zip(kernel.support_box(), specs)]
    quad = _tensor([a[0] for a in axes], [a[1] for a in axes])
    x = np.random.default_rng(m).uniform(-0.9, 0.0, (101, m))
    x[0, 0] = 0.0
    monkeypatch.setattr(mollify.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = convolve_field(f, kernel, x, quad=quad)
    finally:
        sys.setswitchinterval(interval)
    assert len(quad[0]) > mollify.CONV_CHUNK and len(quad[0]) % mollify.CONV_CHUNK
    assert np.array_equal(got, _chunked_convolve_oracle(f, kernel, x, quad))


def test_convolve_field_reraises_a_worker_rows_exception():
    """A field that fails on one node's row fails the whole convolution."""
    kernel = DiracSequence(2, 0.2, 0.05)
    t, w = kernel.quad_rule()
    x = np.array([[-0.5, 0.0], [-0.25, 0.5]])
    bad = x - t[70]

    def fn(pts):
        if pts.shape == bad.shape and np.array_equal(pts, bad):
            raise ZeroDivisionError("node 70")
        return np.ones(len(pts))

    f = HalfSpaceField(fn, BOUNDS, (5, 5))
    with pytest.raises(ZeroDivisionError):
        convolve_field(f, kernel, x, quad=(t, w))


def test_grid_values_are_sampled_once_on_first_use():
    calls = []

    def fn(x):
        calls.append(len(x))
        return x[:, 0] + 2j * x[:, 1]

    f = HalfSpaceField(fn, BOUNDS, (5, 7))
    assert calls == []
    first = f.grid_values()
    assert f.grid_values() is first and calls == [35]
    nodes = f.grid_nodes()
    assert np.array_equal(first.ravel(), nodes[:, 0] + 2j * nodes[:, 1])


def test_convergence_report_samples_f_once_per_convolution_point(monkeypatch):
    """One eps step evaluates f at len(rule) * N shifted points, not (1+m)x."""
    calls = []

    def fn(x):
        calls.append(len(x))
        return np.cos(x[:, 0]) + 1j * x[:, 1]

    shape = (17, 17)
    f = HalfSpaceField(fn, BOUNDS, shape)
    qf = HalfSpaceField(lambda x: -np.sin(x[:, 0]), BOUNDS, shape)
    f.grid_values()
    calls.clear()
    monkeypatch.setattr(mollify, "choose_tau", lambda f, eps, p: 0.05)
    op = FirstOrderOperator(2, a=[1.0, 0.0], b=0.0)
    convergence_report(op, f, qf, lambda x: np.cos(x[:, 0]), [0.2], 2.0)
    t, _ = DiracSequence(2, 0.2, 0.05).quad_rule()
    assert sum(calls) == len(t) * shape[0] * shape[1]


def test_convergence_report_structure_and_interior_ladder():
    fn = lambda x: np.cos(1.3 * x[:, 0] + 0.4) * np.exp(0.7 * x[:, 1]) * 0.5
    qfn = lambda x: -0.65 * np.sin(1.3 * x[:, 0] + 0.4) * np.exp(0.7 * x[:, 1])
    f = HalfSpaceField(fn, BOUNDS, (65, 65))
    qf = HalfSpaceField(qfn, BOUNDS, (65, 65))
    op = FirstOrderOperator(2, a=[1.0, 0.0], b=0.0)
    rep = convergence_report(op, f, qf, fn, [0.2, 0.1], 2.0)
    rows = rep["rows"]
    assert [r["epsilon"] for r in rows] == [0.2, 0.1]
    for key in ("tau", "interior_err", "q_err", "commutator_ratio", "trace_err"):
        assert all(key in r for r in rows)
    assert rows[1]["interior_err"] < rows[0]["interior_err"]
    assert rows[1]["trace_err"] < rows[0]["trace_err"]
