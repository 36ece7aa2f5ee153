"""First-order operators: adjoints, Green-Stokes, and weak boundary values."""

import numpy as np
import pytest

from bmklab.exterior import DifferentialForm, dbar
from bmklab.fields import PolyField, constant, coordinate, zmonomial
from bmklab.geometry import boundary_rule, make_domain, volume_rule
from bmklab.operators import (FirstOrderOperator, dbar_r_form,
                              equivalence_report, form_inner_volume,
                              form_test_family, scalar_test_family,
                              vartheta, weak_bv_residual)

DISC = make_domain("ball", m=2)
STRIP = make_domain("half-space-patch", bounds=[[-1.0, 0.0], [-1.0, 1.0]])
PATCH_3D = make_domain("half-space-patch", bounds=[[-1.0, 0.0], [-1.0, 1.0], [-0.5, 0.5]])


def _cup_window():
    cup = PolyField(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    return cup * cup * cup


def test_formal_adjoint_hand_example():
    """Q = x d/dx + 1 has Q* v = -x v' for real coefficients."""
    op = FirstOrderOperator(1, a=[coordinate(1, 0)], b=1.0)
    adj = op.formal_adjoint()
    v = PolyField(1, {(2,): 1.0})
    x = np.array([[0.7], [-0.3]])
    assert np.allclose(adj.apply(v)(x), -x[:, 0] * 2 * x[:, 0])


def test_formal_adjoint_conjugates_coefficients():
    op = FirstOrderOperator(1, a=[1j], b=2 - 1j)
    adj = op.formal_adjoint()
    v = PolyField(1, {(1,): 1.0})
    x = np.array([[0.4]])
    # Q* v = -conj(a) v' + conj(b) v
    assert np.isclose(adj.apply(v)(x)[0], 1j + (2 + 1j) * 0.4)


def test_adjoint_involution_on_samples():
    op = FirstOrderOperator(2, a=[PolyField(2, {(1, 0): 1.0}), 0.5j], b=coordinate(2, 1))
    twice = op.formal_adjoint().formal_adjoint()
    u = PolyField(2, {(2, 1): 1.0 - 0.5j})
    x = np.random.default_rng(0).uniform(-1, 1, (20, 2))
    assert np.allclose(op.apply(u)(x), twice.apply(u)(x), atol=1e-13)


def test_green_stokes_hand_interval_case():
    """u = x, v = 1 on [-1,0] with Q = d/dx: both sides equal 1."""
    seg = make_domain("interval-box", bounds=[[-1.0, 0.0]])
    op = FirstOrderOperator(1, a=[1.0], b=0.0)
    res = op.green_stokes_residual(seg, PolyField(1, {(1,): 1.0}),
                                   constant(1, 1.0), level=3)
    assert abs(res["volume_lhs"] - 1.0) < 1e-10
    assert abs(res["volume_rhs"] + res["boundary"] - 1.0) < 1e-10
    assert res["residual"] < 1e-10


def test_green_stokes_compact_support_machine_precision():
    op = FirstOrderOperator(2, a=[PolyField(2, {(0, 0): 1.0, (1, 1): 0.5}),
                                  PolyField(2, {(0, 1): 1.0})], b=0.25)
    w = _cup_window()
    for i, (u, v) in enumerate(zip(scalar_test_family(DISC, 3, seed=10),
                                   scalar_test_family(DISC, 3, seed=11))):
        res = op.green_stokes_residual(DISC, u * w, v * w, level=3)
        assert res["residual"] < 1e-12, f"pair {i}: {res['residual']}"


def test_green_stokes_with_boundary_term_box_and_interval():
    box = make_domain("interval-box", bounds=[[-1.0, 1.0], [-1.0, 1.0]])
    seg = make_domain("interval-box", bounds=[[-1.0, 0.0]])
    op2 = FirstOrderOperator(2, a=[PolyField(2, {(0, 0): 1.0, (1, 1): 0.5}),
                                   PolyField(2, {(0, 1): 1.0})], b=0.25)
    op1 = FirstOrderOperator(1, a=[coordinate(1, 0)], b=1.5)
    for u, v in zip(scalar_test_family(box, 3, seed=1),
                    scalar_test_family(box, 3, seed=2)):
        assert op2.green_stokes_residual(box, u, v, level=3)["residual"] < 1e-8
    for u, v in zip(scalar_test_family(seg, 3, seed=3),
                    scalar_test_family(seg, 3, seed=4)):
        assert op1.green_stokes_residual(seg, u, v, level=3)["residual"] < 1e-8


def test_weak_bv_accepts_true_trace_and_rejects_offset():
    """u = 1 on the strip: the constant trace passes to roundoff, since the
    polynomial tests make every pairing exact, and 1.3 fails loudly."""
    op = FirstOrderOperator(2, a=[1.0, coordinate(2, 1)], b=0.5)
    one = constant(2, 1.0)
    tests = scalar_test_family(STRIP, 6, seed=2)
    good = weak_bv_residual(STRIP, op, one, one, op.apply(one), tests, level=3)
    assert good["max_residual"] < 1e-12
    bad = weak_bv_residual(STRIP, op, one, constant(2, 1.3), op.apply(one),
                           tests, level=3)
    assert bad["max_residual"] > 0.1


def test_weak_bv_polynomial_solution():
    """Polynomial u, its own trace and polynomial tests: the Gauss rules
    integrate every pairing exactly, on the strip and on a 3-D patch."""
    cases = [
        (STRIP, PolyField(2, {(0, 0): 0.3, (1, 1): 1.0, (0, 2): -0.5}), 3),
        (PATCH_3D, PolyField(3, {(0, 0, 0): 0.3, (1, 1, 0): 1.0, (0, 2, 0): -0.5,
                                 (0, 1, 1): 0.7j}), 1),
    ]
    for domain, u, level in cases:
        m = domain.m
        op = FirstOrderOperator(m, a=[1.0] + [coordinate(m, k) for k in range(1, m)], b=0.5)
        tests = scalar_test_family(domain, 6, seed=2)
        res = weak_bv_residual(domain, op, u, u, op.apply(u), tests, level=level)
        assert res["max_residual"] < 1e-12, f"m = {m}: {res['max_residual']}"


@pytest.mark.parametrize("domain", [make_domain("half-space-patch", bounds=[[-1.0, 0.0]]),
                                    STRIP, PATCH_3D], ids=["1d", "2d", "3d"])
def test_patch_tests_are_polynomials_that_vanish_on_truncation_faces(domain):
    """On a half-space patch every scalar test is a PolyField that vanishes
    on each truncation face, {x_1 = lo_1} and {x_k = lo_k}, {x_k = hi_k} for
    k >= 2, but not on the physical face {x_1 = 0}."""
    lo, hi = domain.bounds[:, 0], domain.bounds[:, 1]
    rng = np.random.default_rng(3)
    for phi in scalar_test_family(domain, 5, seed=4):
        assert isinstance(phi, PolyField)
        for k in range(domain.m):
            for side in (lo[k],) if k == 0 else (lo[k], hi[k]):
                x = rng.uniform(lo, hi, (64, domain.m))
                x[:, k] = side
                assert np.max(np.abs(phi(x))) <= 1e-13, (k, side)
        x = rng.uniform(lo, hi, (64, domain.m))
        x[:, 0] = 0.0
        assert np.max(np.abs(phi(x))) > 0.1


@pytest.mark.parametrize("domain", [DISC, STRIP, PATCH_3D], ids=["disc", "strip", "3d"])
def test_test_families_peak_at_one_on_the_probe_nodes(domain):
    """Each scalar test, and each coefficient of a form test, has largest
    |value| 1 on the level-0 interior nodes: the normalization probes those
    nodes only, so elsewhere a test may exceed 1."""
    probe = volume_rule(domain, 0).nodes
    peaks = [np.max(np.abs(phi(probe))) for phi in scalar_test_family(domain, 4, seed=2)]
    if domain.m % 2 == 0:
        peaks += [np.max(np.abs(c(probe))) for form in form_test_family(domain, 0, 1, 3, seed=5)
                  for c in form.coeffs.values()]
    assert np.allclose(peaks, 1.0, rtol=1e-13, atol=0)


def test_weak_bv_empty_family_raises():
    op = FirstOrderOperator(2, a=[1.0, 0.0], b=0.0)
    with pytest.raises(ValueError):
        weak_bv_residual(STRIP, op, constant(2, 1.0), constant(2, 1.0),
                         constant(2, 0.0), [], level=1)


def test_dbar_bv_zbar_exact_for_polynomial_tests():
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    tests = form_test_family(DISC, 1, 0, 5, seed=3)
    rep = equivalence_report(DISC, f, f, f.dbar(), tests, level=3)
    assert rep["max_stokes_gap_form"] < 1e-12


def test_dbar_bv_detects_wrong_boundary_datum():
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    wrong = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (1,), (0,))})
    tests = form_test_family(DISC, 1, 0, 5, seed=3)
    rep = equivalence_report(DISC, f, wrong, f.dbar(), tests, level=3)
    assert rep["max_stokes_gap_form"] > 1e-2


def test_pairing_routes_agree_pointwise():
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    phi = form_test_family(DISC, 1, 0, 1, seed=9)[0]
    (rec,) = equivalence_report(DISC, f, f, f.dbar(), [phi], level=2)["records"]
    assert rec["volume_route_diff"] < 1e-12
    assert rec["boundary_route_diff"] < 1e-12


def test_equivalence_report_thirty_member_family():
    """Both wirings agree on holomorphic monomials and on conj(z)."""
    tests = form_test_family(DISC, 1, 0, 30, seed=5)
    zero01 = DifferentialForm(1, 0, 1, {})
    for k in range(3):
        hol = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (k,), (0,))})
        rep = equivalence_report(DISC, hol, hol, zero01, tests, level=2)
        assert rep["max_volume_route_diff"] < 1e-8
        assert rep["max_boundary_route_diff"] < 1e-8
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    rep = equivalence_report(DISC, f, f, f.dbar(), tests, level=2)
    assert rep["max_volume_route_diff"] < 1e-8
    assert rep["max_boundary_route_diff"] < 1e-8


@pytest.mark.parametrize("tests", [
    [], [DifferentialForm(1, 0, 0, {((), ()): constant(2, 1.0)})]],
    ids=["empty-family", "type-0-0-test"])
def test_equivalence_report_rejects_bad_family(tests):
    """For q = 0 on the disc a test must have type (1, 0)."""
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    with pytest.raises(ValueError):
        equivalence_report(DISC, f, f, f.dbar(), tests, level=1)


def test_vartheta_is_formal_adjoint_of_dbar():
    """(dbar u, g) = (u, vartheta g) for compactly supported polynomials."""
    w3 = _cup_window()
    u = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (1,), (1,)) * w3})
    g = DifferentialForm(1, 0, 1, {((), (1,)): zmonomial(1, (0,), (1,)) * w3})
    vol = volume_rule(DISC, 2)
    lhs = form_inner_volume(vol, dbar(u), g)
    rhs = form_inner_volume(vol, u, vartheta(g))
    assert abs(lhs - rhs) < 1e-13


def test_perturbation_along_nu_bar_is_invisible():
    """Adding dbar(r) ^ gamma to the boundary datum leaves residuals alone."""
    ball = make_domain("ball", m=4)
    f = DifferentialForm(2, 0, 1, {((), (1,)): zmonomial(2, (0, 0), (0, 1))})
    tests = form_test_family(ball, 2, 0, 3, seed=4)
    base = equivalence_report(ball, f, f, f.dbar(), tests, level=1)
    gamma = DifferentialForm(2, 0, 0, {((), ()): zmonomial(2, (1, 0), (0, 0))})
    shifted = f + dbar_r_form(ball).wedge(gamma)
    pert = equivalence_report(ball, f, shifted, f.dbar(), tests, level=1)
    for a, b in zip(base["records"], pert["records"]):
        assert np.isclose(a["stokes_gap_form"], b["stokes_gap_form"], atol=1e-10)


def test_nu_form_unit_length_on_boundary():
    nu = dbar_r_form(DISC)
    assert nu.bidegree == (0, 1)
    bnd = boundary_rule(DISC, 1)
    norms = np.sqrt(nu.inner(nu)(bnd.nodes).real)
    # |dbar r| = 1/sqrt(2) when |dr| = 1: the (0,1) half carries half the mass
    assert np.allclose(norms, np.sqrt(0.5), atol=1e-12)


def test_dbar_r_form_is_the_polynomial_dbar_rho():
    """On an off-centre ball of radius 2, each coefficient of dbar_r_form
    is the polynomial (z_j - c_j)/(2R), and on the boundary rule's nodes it
    equals the unit-normal form (nu_x + i nu_y)/2 within 1e-15."""
    R, c = 2.0, np.array([0.5, -1.0, 0.25, 2.0])
    ball = make_domain("ball", m=4, radius=R, center=c)
    form = dbar_r_form(ball)
    assert form.bidegree == (0, 1)
    bnd = boundary_rule(ball, 2)
    for j in (1, 2):
        x, y = 2 * j - 2, 2 * j - 1
        coeff = form.coefficient((), (j,))
        ex, ey = (tuple(int(k == i) for k in range(4)) for i in (x, y))
        assert isinstance(coeff, PolyField)
        assert coeff.terms == {ex: 1 / (2 * R), ey: 1j / (2 * R),
                               (0, 0, 0, 0): -(c[x] + 1j * c[y]) / (2 * R)}
        unit = 0.5 * (bnd.nu[:, x] + 1j * bnd.nu[:, y])
        assert np.max(np.abs(coeff(bnd.nodes) - unit)) <= 1e-15


def test_dbar_r_form_rejects_non_ball_domains():
    box = make_domain("interval-box", bounds=[[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="balls only, got kind 'interval-box'"):
        dbar_r_form(box)
