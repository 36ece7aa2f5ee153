"""First-order operators Q = sum_j a_j d_j + b and weak boundary values.

The formal adjoint is taken against the sesquilinear pairing
(f, g) = int f conj(g) dV, so Q* v = -sum_j (conj(a_j) d_j v
+ conj(d_j a_j) v) + conj(b) v and the Green-Stokes identity reads

    (Qu, v)_D - (u, Q*v)_D = int_{bD} (sum_j a_j nu_j) u conj(v) dS.

A function u in L^p with Qu known in L^p has weak boundary value u_b when
the boundary term of this identity can be replaced by u_b for every test
function that is smooth up to the physical boundary (and, on a half-space
patch, vanishes on the truncation faces).

For the Cauchy-Riemann system on (0,q)-forms the same circle of ideas is
expressed two ways and cross-checked:

  route A (wedge):  int_{bD} i*(f_b ^ phi) = int_D dbar(f) ^ phi
                    + (-1)^q int_D f ^ dbar(phi),  phi of type (n, n-q-1);
  route B (inner):  with g = (-1)^(q+1) * star(conj(phi)) of type (0,q+1),
                    int_{bD} <dbar(r) ^ f_b, g> dS = (dbar f, g)_D
                    + (-1)^(q+1) (f, vartheta g)_D,  vartheta = -star d star.

The two routes integrate pointwise-equal densities, so their agreement is
limited only by roundoff, independently of the quadrature level.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import AnalyticField, PolyField, as_field, coordinate
from .exterior import DifferentialForm, integrate, multi_indices
from .geometry import boundary_rule, volume_rule

__all__ = [
    "FirstOrderOperator", "inner_volume", "form_inner_volume", "vartheta",
    "dbar_r_form", "weak_bv_residual", "equivalence_report",
    "scalar_test_family", "form_test_family", "normal_symbol_values",
]

SCALAR_TEST_DEGREE = 2   # polynomial degree of scalar_test_family draws
FORM_TEST_DEGREE = 1     # polynomial degree of form_test_family coefficients


class FirstOrderOperator:
    """Q u = sum_j a_j d_j u + b u acting on scalar fields on R^m."""

    def __init__(self, m, a, b=0.0):
        self.m = m
        self.a = [as_field(c, m) for c in a]
        if len(self.a) != m:
            raise ValueError("need one coefficient per coordinate")
        self.b = as_field(b, m)

    def apply(self, u):
        out = self.b * u
        for j, aj in enumerate(self.a):
            out = out + aj * u.partial(j)
        return out

    def formal_adjoint(self):
        a_star = [-(aj.conj()) for aj in self.a]
        b_star = self.b.conj()
        for j, aj in enumerate(self.a):
            b_star = b_star - aj.conj().partial(j)
        return FirstOrderOperator(self.m, a_star, b_star)

    def green_stokes_residual(self, domain, u, v, level=1):
        """Defect of the Green-Stokes identity at the given quadrature level:
        weak_bv_residual's pairing with u_b = u and the one test v."""
        rec = weak_bv_residual(domain, self, u, u, self.apply(u), [v],
                               level)["records"][0]
        return {
            "volume_lhs": rec["data_term"], "volume_rhs": rec["interior_term"],
            "boundary": rec["boundary_term"], "residual": rec["residual"],
        }


def normal_symbol_values(op, rule):
    """sum_j a_j nu_j at the nodes of a boundary rule (complex array)."""
    nu = rule.nu
    out = np.zeros(len(rule.weights), dtype=complex)
    for j, aj in enumerate(op.a):
        out += np.asarray(aj(rule.nodes), dtype=complex) * nu[:, j]
    return out


def inner_volume(rule, f, g):
    """(f, g) = int f conj(g) dV over an interior rule."""
    fv = np.asarray(f(rule.nodes), dtype=complex)
    gv = np.asarray(g(rule.nodes), dtype=complex)
    return complex(np.sum(rule.weights * fv * np.conj(gv)))


def form_inner_volume(rule, F, G):
    """(F, G) = int <F, G> dV for forms of the same bidegree."""
    vals = np.asarray(F.inner(G)(rule.nodes), dtype=complex)
    return complex(np.sum(rule.weights * vals))


def vartheta(g):
    """Formal adjoint of dbar on forms: vartheta = -star d' star."""
    return g.star().dholo().star().scale(-1.0)


def _dbar_r_component(center, j):
    def val(x, j=j):
        d = np.asarray(x, dtype=float) - center
        g = d / np.maximum(np.linalg.norm(d, axis=-1, keepdims=True), 1e-300)
        return 0.5 * (g[..., 2 * j - 2] + 1j * g[..., 2 * j - 1])

    return AnalyticField(len(center), val)


def dbar_r_form(domain):
    """dbar of the ball's defining function |x - c| - R as a (0,1)-form.

    Coefficients come from the unit normal (x - c)/|x - c|, so they equal
    dbar r away from the center, and in particular on the boundary, which
    is where this form is meant to be used.  Only balls are supported.
    """
    if domain.kind != "ball":
        raise ValueError(f"dbar_r_form is defined for balls only, got kind {domain.kind!r}")
    n = domain.n_complex
    coeffs = {((), (j,)): _dbar_r_component(domain.center, j)
              for j in range(1, n + 1)}
    return DifferentialForm(n, 0, 1, coeffs)


def weak_bv_residual(domain, op, u, u_b, F, tests, level=1):
    """Residuals of the weak boundary value identity for scalar Q.

    F is the interior data Qu.  Each test phi (assumed normalized; the
    families below peak at |value| 1 on level-0 interior nodes) contributes
    (F, phi) - (u, Q* phi) - int_{bD} (sum a_j nu_j) u_b conj(phi) dS.
    """
    if not tests:
        raise ValueError("empty test family")
    vol = volume_rule(domain, level)
    bnd = boundary_rule(domain, level)
    q_star = op.formal_adjoint()
    sig = normal_symbol_values(op, bnd)
    ub_vals = np.asarray(u_b(bnd.nodes), dtype=complex)
    records = []
    for idx, phi in enumerate(tests):
        data = inner_volume(vol, F, phi)
        interior = inner_volume(vol, u, q_star.apply(phi))
        phib = np.conj(np.asarray(phi(bnd.nodes), dtype=complex))
        # u_b conj(phi) first: green-stokes' report depends on this order
        boundary = complex(np.sum(bnd.weights * sig * (ub_vals * phib)))
        records.append({
            "test": idx, "level": level,
            "data_term": data, "interior_term": interior,
            "boundary_term": boundary, "residual": abs(data - interior - boundary),
        })
    return {"records": records,
            "max_residual": max(r["residual"] for r in records)}


def equivalence_report(domain, f, f_b, F, tests, level=1):
    """Routes A and B of the dbar boundary-value identity over a test family.

    f is a (0,q)-form with dbar f = F and candidate boundary value f_b; each
    test must have type (n, n-q-1).  Route agreement (volume_route_diff,
    boundary_route_diff) is a pointwise algebraic identity evaluated on
    shared nodes, so it sits at roundoff; the Stokes gaps carry the actual
    quadrature error.  Returns per-test records and the family maxima.
    """
    if not tests:
        raise ValueError("empty test family")
    n, q = f.n, f.q
    vol = volume_rule(domain, level)
    bnd = boundary_rule(domain, level)
    nu_wedge = dbar_r_form(domain).wedge(f_b)
    sign_a = -1.0 if q % 2 else 1.0   # (-1)^q
    sign_b = -sign_a                  # (-1)^(q+1)
    records = []
    for phi in tests:
        if (phi.p, phi.q) != (n, n - q - 1):
            raise ValueError("test form must have type (n, n-q-1)")
        a_volume = integrate(F.wedge(phi), vol) + sign_a * integrate(f.wedge(phi.dbar()), vol)
        a_boundary = integrate(f_b.wedge(phi), bnd)
        g = phi.conj().star().scale(sign_b)
        b_volume = form_inner_volume(vol, F, g) + \
            sign_b * form_inner_volume(vol, f, vartheta(g))
        dens = np.asarray(nu_wedge.inner(g)(bnd.nodes), dtype=complex)
        b_boundary = complex(np.sum(bnd.weights * dens))
        records.append({
            "q": q,
            "route_form_volume": a_volume,
            "route_form_boundary": a_boundary,
            "route_inner_volume": b_volume,
            "route_inner_boundary": b_boundary,
            "stokes_gap_form": abs(a_boundary - a_volume),
            "stokes_gap_inner": abs(b_boundary - b_volume),
            "volume_route_diff": abs(a_volume - b_volume),
            "boundary_route_diff": abs(a_boundary - b_boundary),
        })
    return {
        "records": records,
        "max_volume_route_diff": max(r["volume_route_diff"] for r in records),
        "max_boundary_route_diff": max(r["boundary_route_diff"] for r in records),
        "max_stokes_gap_form": max(r["stokes_gap_form"] for r in records),
        "max_stokes_gap_inner": max(r["stokes_gap_inner"] for r in records),
    }


def _random_poly(m, degree, rng):
    """N(0, 1) real and imaginary coefficient parts, drawn in lexicographic exponent order."""
    terms = {}
    for alpha in itertools.product(range(degree + 1), repeat=m):
        if sum(alpha) <= degree:
            terms[alpha] = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return PolyField(m, terms)


def _domain_window(domain):
    """Polynomial that vanishes on the truncation faces of a half-space patch,
    (x_1 - lo_1) prod_{k >= 2} (x_k - lo_k)(hi_k - x_k), but not on its
    physical face {x_1 = 0}; None on any other domain."""
    if domain.kind != "half-space-patch":
        return None
    m = domain.m
    w = coordinate(m, 0) - domain.bounds[0][0]
    for k in range(1, m):
        lo, hi = domain.bounds[k]
        x = coordinate(m, k)
        w = w * (x - lo) * (-x + hi)
    return w


def _sup_normalize(field, probe_nodes):
    vals = np.abs(np.asarray(field(probe_nodes), dtype=complex))
    peak = float(np.max(vals))
    return field if peak == 0 else field * (1.0 / peak)


def scalar_test_family(domain, count, seed=0):
    """Polynomial scalar tests, admissible for the domain kind: on a
    half-space patch each is a random polynomial times the window, so it
    vanishes on the truncation faces.  Each peaks at |value| 1 on the level-0
    interior nodes, and between them may exceed 1 by a few percent."""
    rng = np.random.default_rng(seed)
    window = _domain_window(domain)
    probe = volume_rule(domain, 0).nodes
    out = []
    for _ in range(count):
        f = _random_poly(domain.m, SCALAR_TEST_DEGREE, rng)
        if window is not None:
            f = f * window
        out.append(_sup_normalize(f, probe))
    return out


def form_test_family(domain, p, q, count, seed=0):
    """Forms of type (p,q) with random polynomial (times window) coefficients,
    each normalized as a scalar_test_family member is."""
    rng = np.random.default_rng(seed)
    n = domain.n_complex
    window = _domain_window(domain)
    probe = volume_rule(domain, 0).nodes
    out = []
    for _ in range(count):
        coeffs = {}
        for I in multi_indices(n, p):
            for J in multi_indices(n, q):
                c = _random_poly(domain.m, FORM_TEST_DEGREE, rng)
                if window is not None:
                    c = c * window
                coeffs[(I, J)] = _sup_normalize(c, probe)
        out.append(DifferentialForm(n, p, q, coeffs))
    return out
