"""Exterior algebra: signs, star conventions, wedge, and dbar.

Frozen oracles were derived by hand from the conventions
z_j = x_{2j-1} + i x_{2j} and <a,b> dV = a ^ *conj(b), which give each
monomial dz^I ^ dzbar^J the squared norm 2^{|I|+|J|}.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmklab.exterior import (DifferentialForm, dbar, density, eps_sign,
                             hodge_star, integrate, multi_indices, wedge)
from bmklab.fields import PolyField, dz_part, dzbar_part, zmonomial
from bmklab.geometry import boundary_rule, make_domain, volume_rule

mono = DifferentialForm.monomial


def test_eps_sign_identity_and_swap():
    assert eps_sign((1, 2, 3), (1, 2, 3)) == 1
    assert eps_sign((2, 1, 3), (1, 2, 3)) == -1
    assert eps_sign((3, 1, 2), (1, 2, 3)) == 1


def test_eps_sign_exhaustive_small_n():
    """Antisymmetry and zero-on-repeat, exhaustively for n <= 4."""
    for n in range(1, 5):
        pool = range(1, n + 1)
        for k in range(1, n + 1):
            for target in itertools.combinations(pool, k):
                for perm in itertools.permutations(target):
                    sign = eps_sign(perm, target)
                    assert sign in (-1, 1)
                    inv = sum(1 for i in range(k) for j in range(i + 1, k)
                              if perm[i] > perm[j])
                    assert sign == (-1) ** inv
            for rep in itertools.product(pool, repeat=k):
                if len(set(rep)) < k:
                    assert eps_sign(rep, tuple(sorted(set(rep)))) == 0
    assert eps_sign((1, 2), (1, 3)) == 0


@given(st.permutations(list(range(1, 6))), st.integers(0, 3), st.integers(0, 3))
def test_eps_sign_transposition_flips(perm, i, j):
    target = tuple(range(1, 6))
    a = list(perm)
    s0 = eps_sign(tuple(a), target)
    if i != j:
        a[i], a[j] = a[j], a[i]
        assert eps_sign(tuple(a), target) == -s0


def test_multi_indices_sorted_and_complete():
    got = multi_indices(4, 2)
    assert got == [tuple(c) for c in itertools.combinations(range(1, 5), 2)]
    assert multi_indices(3, 0) == [()]
    assert multi_indices(3, -1) == []
    assert multi_indices(3, 4) == []


# hand table for n=1: *1 = (i/2) dz^dzbar, *dz = -i dz, *dzbar = i dzbar,
# *(dz^dzbar) = -2i
STAR_TABLE_N1 = [
    (((), ()), ((1,), (1,)), 0.5j),
    (((1,), ()), ((1,), ()), -1j),
    (((), (1,)), ((), (1,)), 1j),
    (((1,), (1,)), ((), ()), -2j),
]


@pytest.mark.parametrize("src,dst,coef", STAR_TABLE_N1)
def test_star_n1_values(src, dst, coef):
    s = hodge_star(mono(1, *src))
    x = np.array([[0.3, -0.2]])
    assert set(s.coeffs) == {dst}
    assert np.isclose(s.coeffs[dst](x)[0], coef, atol=1e-15)


def test_star_n2_spot_values():
    x = np.array([[0.3, -0.2, 0.1, 0.4]])
    cases = [
        (((1, 2), ()), ((1, 2), ()), 1.0),
        (((), (1, 2)), ((), (1, 2)), 1.0),
        (((1,), (2,)), ((1,), (2,)), -1.0),
        (((1, 2), (1, 2)), ((), ()), 4.0),
        (((1,), ()), ((1, 2), (2,)), 0.5),
    ]
    for src, dst, coef in cases:
        s = hodge_star(mono(2, *src))
        assert set(s.coeffs) == {dst}
        assert np.isclose(s.coeffs[dst](x)[0], coef, atol=1e-15)


def _all_monomials(n):
    for p in range(n + 1):
        for q in range(n + 1):
            for I in multi_indices(n, p):
                for J in multi_indices(n, q):
                    yield I, J


@pytest.mark.parametrize("n", [1, 2, 3])
def test_double_star_sign(n):
    """** acts as (-1)^(p+q) on every basis monomial (real degree parity)."""
    x = np.zeros((1, 2 * n))
    for I, J in _all_monomials(n):
        f = mono(n, I, J)
        ss = hodge_star(hodge_star(f))
        assert set(ss.coeffs) == {(I, J)}
        want = (-1.0) ** (len(I) + len(J))
        assert np.isclose(ss.coeffs[(I, J)](x)[0], want, atol=1e-14)


def _random_form(n, p, q, rng):
    coeffs = {}
    for I in multi_indices(n, p):
        for J in multi_indices(n, q):
            c = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[(I, J)] = PolyField(2 * n, {(0,) * (2 * n): c})
    return DifferentialForm(n, p, q, coeffs)


def test_star_pairing_identity_random():
    """a ^ *conj(b) has dV-density sum over monomials of 2^(p+q) a c conj(b c).

    The right side is computed straight from the coefficient dictionaries,
    independently of wedge/star.
    """
    rng = np.random.default_rng(42)
    x = np.zeros((1, 4))
    x1 = np.zeros((1, 2))
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 3))
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        a = _random_form(n, p, q, rng)
        b = _random_form(n, p, q, rng)
        pt = x if n == 2 else x1
        lhs = wedge(a, hodge_star(b).conj()).top_density()(pt)[0]
        rhs = sum(2.0 ** (p + q) * a.coeffs[k](pt)[0] * np.conj(b.coeffs[k](pt)[0])
                  for k in a.coeffs)
        assert abs(lhs - rhs) < 1e-12
        inner = a.inner(b)(pt)[0]
        assert abs(inner - rhs) < 1e-12
        checked += 1


def test_top_density_constants():
    x1 = np.array([[0.1, 0.2]])
    assert np.isclose(mono(1, (1,), (1,)).top_density()(x1)[0], -2j)
    x2 = np.array([[0.1, 0.2, -0.3, 0.4]])
    assert np.isclose(mono(2, (1, 2), (1, 2)).top_density()(x2)[0], 4.0)


def test_wedge_anticommutes_on_one_forms():
    a = mono(2, (1,), ())
    b = mono(2, (), (2,))
    ab = wedge(a, b)
    ba = wedge(b, a)
    x = np.zeros((1, 4))
    assert set(ab.coeffs) == set(ba.coeffs) == {((1,), (2,))}
    assert np.isclose(ab.coeffs[((1,), (2,))](x)[0],
                      -ba.coeffs[((1,), (2,))](x)[0])


def test_wedge_repeated_factor_vanishes():
    a = mono(2, (1,), ())
    assert wedge(a, a).is_zero


def test_wedge_past_degree_n_keeps_the_true_bidegree():
    """A wedge past degree n is the zero form of the summed bidegree, as dbar
    of a (0, n)-form is."""
    dzb = mono(1, (), (1,))
    assert wedge(dzb, dzb).is_zero and wedge(dzb, dzb).bidegree == (0, 2)
    form = DifferentialForm(1, 0, 1, {((), (1,)): zmonomial(1, (0,), (1,))})
    assert dbar(form).bidegree == (0, 2)
    top = wedge(mono(2, (1, 2), ()), mono(2, (1,), ()))
    assert top.is_zero and top.bidegree == (3, 0)


def test_star_past_degree_n_is_an_error():
    """The zero form past degree n has no Hodge star of a real type: its
    (n - q, n - p) would be negative, so star raises and names the bidegree."""
    dzb = mono(1, (), (1,))
    for form, name in ((wedge(dzb, dzb), "(0, 2)-form on C^1"),
                       (wedge(mono(2, (1, 2), ()), mono(2, (1,), ())), "(3, 0)-form on C^2")):
        with pytest.raises(ValueError, match=re.escape(name)):
            hodge_star(form)
    assert hodge_star(mono(1, (1,), (1,))).bidegree == (0, 0)


@pytest.mark.parametrize("n, monomial", [
    (1, ((), (2,))), (2, ((), (2, 1))), (2, ((1, 1), ())), (2, ((0,), ()))],
    ids=["past-n", "unsorted", "repeated", "zero"])
def test_form_rejects_non_canonical_multi_indices(n, monomial):
    """Each multi-index is strictly increasing in 1..n: an index past n would
    pair with no coordinate, and an unsorted one would take wrong wedge signs."""
    I, J = monomial
    with pytest.raises(ValueError, match=re.escape(f"monomial ({I},{J})")):
        DifferentialForm(n, len(I), len(J), {monomial: 1.0})


@given(st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_bilinear_and_graded(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    pa = data.draw(st.integers(0, n))
    qa = data.draw(st.integers(0, n))
    pb = data.draw(st.integers(0, n - pa))
    qb = data.draw(st.integers(0, n - qa))
    a = _random_form(n, pa, qa, rng)
    b = _random_form(n, pb, qb, rng)
    x = np.zeros((1, 2 * n))
    ab = wedge(a, b)
    ba = wedge(b, a)
    sign = (-1.0) ** ((pa + qa) * (pb + qb))
    for key in set(ab.coeffs) | set(ba.coeffs):
        va = ab.coeffs[key](x)[0] if key in ab.coeffs else 0.0
        vb = ba.coeffs[key](x)[0] if key in ba.coeffs else 0.0
        assert abs(va - sign * vb) < 1e-12


def test_dbar_squared_zero_exact():
    """dbar twice on polynomial data cancels exactly, no tolerance."""
    f = DifferentialForm(2, 0, 0, {((), ()): zmonomial(2, (2, 0), (1, 1))})
    ddf = dbar(dbar(f))
    assert ddf.is_zero
    g = DifferentialForm(2, 1, 0, {((1,), ()): zmonomial(2, (0, 1), (2, 0)),
                                   ((2,), ()): zmonomial(2, (1, 0), (0, 2))})
    assert dbar(dbar(g)).is_zero


def test_dbar_of_zbar_monomial():
    f = DifferentialForm(1, 0, 0, {((), ()): zmonomial(1, (0,), (1,))})
    df = dbar(f)
    assert df.bidegree == (0, 1)
    x = np.array([[0.7, -0.1]])
    assert np.isclose(df.coeffs[((), (1,))](x)[0], 1.0)


def test_dbar_leibniz_on_polynomials():
    rng = np.random.default_rng(3)
    a = DifferentialForm(2, 1, 0, {((1,), ()): zmonomial(2, (1, 1), (0, 1))})
    b = DifferentialForm(2, 0, 0, {((), ()): zmonomial(2, (0, 2), (1, 0))})
    lhs = dbar(wedge(a, b))
    rhs = wedge(dbar(a), b) + wedge(a, dbar(b)).scale((-1.0) ** a.degree)
    x = rng.uniform(-1, 1, (25, 4))
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        va = lhs.coeffs[key](x) if key in lhs.coeffs else np.zeros(25)
        vb = rhs.coeffs[key](x) if key in rhs.coeffs else np.zeros(25)
        assert np.allclose(va, vb, atol=1e-13)


def _poly_form(n, p, q, rng, degree=2):
    """A (p,q)-form whose coefficients are complex polynomials of the given degree in x."""
    exps = [a for a in itertools.product(range(degree + 1), repeat=2 * n) if sum(a) <= degree]
    return DifferentialForm(n, p, q, {
        (I, J): PolyField(2 * n, {a: complex(*rng.standard_normal(2)) for a in exps})
        for I in multi_indices(n, p) for J in multi_indices(n, q)})


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1)])
def test_dbar_and_dholo_are_sums_of_wedges(p, q):
    """dbar f = sum_j dzbar_j ^ (dbar_j f) and dholo f = sum_j dz_j ^ (d_j f),
    with every sign from wedge.  An odd p moves dzbar_j across dz^I, so a
    dbar that drops the p in its sign fails here."""
    rng = np.random.default_rng(10 * p + q)
    f = _poly_form(2, p, q, rng)
    x = rng.uniform(-1, 1, (20, 4))
    for got, part, holo in ((f.dbar(), dzbar_part, False), (f.dholo(), dz_part, True)):
        want = {}
        for j in (1, 2):
            fj = DifferentialForm(2, p, q, {k: part(c, j - 1) for k, c in f.coeffs.items()})
            one = mono(2, (j,), ()) if holo else mono(2, (), (j,))
            for key, c in one.wedge(fj).coeffs.items():
                want[key] = want.get(key, 0.0) + c(x)
        assert bool(got.coeffs) == (p < 2 if holo else q < 2)
        for key in set(got.coeffs) | set(want):
            va = got.coeffs[key](x) if key in got.coeffs else 0.0
            assert np.allclose(va, want.get(key, 0.0), rtol=0, atol=1e-12), (holo, key)


def _linear_form(n, p, rng):
    """A (p, 2n-1-p)-form whose every coefficient is c0 + sum_k c_k x_k, drawn complex."""
    m = 2 * n
    coeffs = {}
    for I in multi_indices(n, p):
        for J in multi_indices(n, 2 * n - 1 - p):
            draw = rng.normal(size=(m + 1, 2)) @ np.array([1.0, 1.0j])
            terms = {(0,) * m: draw[0]}
            terms.update({tuple(np.eye(m, dtype=int)[k]): draw[k + 1] for k in range(m)})
            coeffs[(I, J)] = PolyField(m, terms)
    return DifferentialForm(n, p, 2 * n - 1 - p, coeffs)


@pytest.mark.parametrize("kind,params,level", [
    (kind, params, level)
    for kind, params, levels in [
        ("ball", {"m": 2}, range(3)),
        ("ball", {"m": 2, "radius": 0.8, "center": [0.1, -0.2]}, range(3)),
        ("ball", {"m": 4}, range(3)),
        ("ball", {"m": 4, "radius": 0.7, "center": [0.1, -0.2, 0.3, 0.0]}, range(3)),
        ("interval-box", {"bounds": [[-1.0, 1.0], [-0.5, 2.0]]}, range(3)),
        # level 2 would be 884,736 nodes; its faces are the patch's kind
        ("interval-box", {"bounds": [[-1.0, 0.0], [-0.5, 2.0], [0.0, 1.5], [-1.0, 1.0]]},
         range(2)),
        ("half-space-patch", {"bounds": [[-1.0, 0.0], [-1.0, 1.0], [-0.5, 0.5], [0.0, 2.0]]},
         range(3)),
    ]
    for level in levels
])
def test_pullback_density_equals_frame_determinants(kind, params, level, frame_density):
    """The top density of nu_flat ^ form equals the form evaluated on an
    oriented orthonormal tangent frame (QR of the normal's complement), for
    drawn (n, n-1)- and (n-1, n)-forms with linear coefficients, on every
    boundary-rule kind.  The bound is 1e-15 of 2^((2n-1)/2) sum |c_IJ|,
    Hadamard's bound on sum |c_IJ det| for an orthonormal frame."""
    dom = make_domain(kind, **params)
    n = dom.n_complex
    rule = boundary_rule(dom, level)
    rng = np.random.default_rng(level)
    for p in (n, n - 1):
        form = _linear_form(n, p, rng)
        got = density(form, rule.nodes, rule.nu)
        want = frame_density(form, rule.nodes, rule.nu)
        scale = 2.0 ** (n - 0.5) * sum(np.abs(c(rule.nodes)) for c in form.coeffs.values())
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_pullback_density_rejects_wrong_degree():
    nodes = np.array([[1.0, 0.0, 0.0, 0.0]])
    for form in (mono(2, (1,), (1,)), mono(2, (1, 2), (1, 2))):
        with pytest.raises(ValueError, match="or a \\(2n-1\\)-form with normals"):
            density(form, nodes, nodes)


def test_integrate_takes_dv_or_ds_from_the_degree():
    """On the unit disc, int_bD zbar dz = int e^{-i t} i e^{i t} dt = 2 pi i
    and int_D dz ^ dzbar = -2i area = -2 pi i.  A top form over a boundary
    rule and a 1-form over an interior rule are errors."""
    disc = make_domain("ball", m=2)
    vol, bnd = volume_rule(disc, 3), boundary_rule(disc, 3)
    one_form = mono(1, (1,), (), zmonomial(1, (0,), (1,)))
    top = mono(1, (1,), (1,))
    assert abs(integrate(one_form, bnd) - 2j * np.pi) < 1e-13
    assert abs(integrate(top, vol) + 2j * np.pi) < 1e-13
    for form, rule in ((top, bnd), (one_form, vol)):
        with pytest.raises(ValueError, match="density needs an \\(n,n\\)-form"):
            integrate(form, rule)
