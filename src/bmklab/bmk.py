"""The Bochner-Martinelli-Koppelman kernel and its integral operators.

The kernel of complex dimension n and output degree q is the double form

    B_nq(zeta, z) = (n-1)!/(2^{q+1} pi^n) * |zeta-z|^{-2n}
                    * sum_{j, |J|=q} eps(j,J) (zbar_j(zeta) - zbar_j(z))
                      (star dzeta^{jJ}) ^ dzbar^J(z),

with star the Euclidean Hodge star of the zeta-slot, so each dz bar^J(z)
component is an (n, n-q-1)-form in zeta.  Degenerate degrees q = -1 and
q = n produce the zero kernel (no admissible index sets).

The volume operator integrates g ^ B over the domain with a small ball
around the evaluation point excluded; the kernel is odd under reflection
through z, so the dropped ball costs O(rho^2) and plain nested refinement
converges.  d-bar of the volume potential is taken by centered finite
differences of the numerically evaluated potential, with one shared
exclusion ball (radius rho + step, centered at the base point) for every
shifted evaluation so the quadrature node set does not jump inside the
difference stencil; the off-center exclusion bias, which is linear in
the shift and exactly computable as a ball average of the kernel, is
restored analytically before differencing.

Both operators share one contraction.  A fold, per (form, rule), wedges
the operand with each constant form K_Jj of the kernel table (the part of
B multiplying s_j dzbar^J(z), s_j = conj(zeta_j - z_j)/|zeta-z|^{2n}) and
takes the density against dV or dS at the nodes, with every sign left to
bmklab.exterior.  Per point, a sweep computes s, zeroes it inside the
exclusion ball and takes a handful of dot products, which keeps z-ladders
over hundreds of thousands of nodes at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .exterior import (DifferentialForm, _star_monomial, batch_pullback_density,
                       eps_sign, multi_indices)
from .geometry import QuadratureRule, boundary_rule, dist_boundary, volume_rule

__all__ = [
    "kernel_constant", "kernel_table", "kernel_eval", "kernel_norm",
    "norm_bound_samples", "SingularQuadratureConfig", "op_volume",
    "op_boundary", "dbar_potential", "reproduce_residual",
]


def kernel_constant(n, q):
    return math.factorial(n - 1) / (2.0 ** (q + 1) * math.pi ** n)


@lru_cache(maxsize=None)
def kernel_table(n, q):
    """Symbolic kernel: {J: ((j, {(I_k, J_k): coeff}), ...)} with constants folded.

    J indexes the dzbar^J(z) part; each term's dict holds the zeta-monomial
    expansion of eps(j,J) * c_nq * star(dzeta^{sorted(j,J)}).
    """
    if q < 0 or q > n:
        return {}
    c = kernel_constant(n, q)
    table = {}
    for J in multi_indices(n, q):
        terms = []
        for j in range(1, n + 1):
            if j in J:
                continue
            L = tuple(sorted(J + (j,)))
            eps = eps_sign((j,) + J, L)
            star = _star_monomial(n, L, ())
            mono = {key: c * eps * val for key, val in star.items()}
            terms.append((j, mono))
        if terms:
            table[J] = tuple(terms)
    return table


def _scalar_factors(nodes, z, n, exclude=0.0):
    """s_j = conj(zeta_j - z_j)/|zeta - z|^{2n} at nodes; 0 at nodes closer
    to z than exclude and at a node equal to z, so a dropped node adds an
    exact 0 instead of 0 * nan."""
    d = nodes - z
    dist2 = np.sum(d * d, axis=-1)
    dc = d[:, 0::2] + 1j * d[:, 1::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.conj(dc) / dist2[:, None] ** n
    s[(dist2 < exclude * exclude) | (dist2 == 0)] = 0.0
    return s


def kernel_eval(n, q, zeta, z):
    """B_nq at one (zeta, z) pair: {J: constant-coefficient (n, n-q-1)-form}."""
    zeta = np.asarray(zeta, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.array_equal(zeta, z):
        raise ValueError("kernel singularity: zeta = z")
    s = _scalar_factors(zeta[None, :], z, n)
    out = {}
    for J, terms in kernel_table(n, q).items():
        coeffs = {}
        for j, mono in terms:
            for key, coef in mono.items():
                coeffs[key] = coeffs.get(key, 0.0) + coef * s[0, j - 1]
        out[J] = DifferentialForm(n, n, n - q - 1, {
            key: complex(v) for key, v in coeffs.items() if v != 0})
    return out


def kernel_norm(n, q, zeta, z):
    """Pointwise double-form norm: monomials dz^I dzbar^J weigh 2^(|I|+|J|)."""
    forms = kernel_eval(n, q, zeta, z)
    total = 0.0
    for J, form in forms.items():
        for (I, Jk), c in form.coeffs.items():
            xi = np.asarray(c(zeta[None, :]), dtype=complex)
            total += 2.0 ** (q + len(I) + len(Jk)) * float(np.abs(xi[0]) ** 2)
    return math.sqrt(total)


def norm_bound_samples(n, q, count=100, seed=0, scale_range=(-6, 2)):
    """A_i = |B(zeta_i, z_i)| * |zeta_i - z_i|^{2n-1} over random pairs.

    Distances are swept over powers of two so stability across scales is
    visible; the kernel is homogeneous of degree -(2n-1), so A depends only
    on the direction of zeta - z.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        z = rng.uniform(-1, 1, 2 * n)
        direction = rng.standard_normal(2 * n)
        direction /= np.linalg.norm(direction)
        dist = 2.0 ** rng.uniform(*scale_range)
        zeta = z + dist * direction
        out.append((kernel_norm(n, q, zeta, z) * dist ** (2 * n - 1), dist))
    return np.array(out)


@dataclass
class SingularQuadratureConfig:
    base_level: int = 0
    refinement_steps: int = 3
    exclusion_factor: float = 2.0
    fd_exclusion_factor: float = 4.0
    fd_step_factor: float = 0.5
    margin_factor: float = 0.25

    def levels(self):
        return list(range(self.base_level, self.base_level + max(1, self.refinement_steps)))


def _fold(n, q, form, rule):
    """{(J, j): density of form ^ K_Jj at the rule's nodes}.

    K_Jj is the constant (n, n-q-1)-form of kernel_table(n, q) that
    multiplies s_j dzbar^J(z).  On an interior rule the density is taken
    against dV (top_density), on a boundary rule against dS through the
    rule's tangent frames (batch_pullback_density).
    """
    interior = rule.region == "interior"
    if (form.p, form.q) != (0, q + interior):
        raise ValueError(f"{rule.region} operand must be a (0, {q + interior})-form")
    fold = {}
    for J, terms in kernel_table(n, q).items():
        for j, mono in terms:
            wedged = form.wedge(DifferentialForm(n, n, n - q - 1, mono))
            if interior:
                fold[(J, j)] = np.asarray(wedged.top_density()(rule.nodes), dtype=complex)
            else:
                fold[(J, j)] = batch_pullback_density(wedged, rule.nodes, rule.tangents)
    return fold


def _sweep(plan, rule, z, keys, exclude=0.0):
    """value_J(z) = sum_i w_i sum_j plan[(J, j)][i] s_j(i; z), with the nodes
    closer to z than exclude dropped through s = 0."""
    s = _scalar_factors(rule.nodes, np.asarray(z, float), rule.nodes.shape[1] // 2, exclude)
    out = {J: 0.0 + 0.0j for J in keys}
    for (J, j), arr in plan.items():
        out[J] += np.sum(rule.weights * arr * s[:, j - 1])
    return {J: complex(v) for J, v in out.items()}


def _value_norm(values, q):
    return math.sqrt(sum(2.0 ** q * abs(v) ** 2 for v in values.values()))


def op_volume(g, z, domain, config=None):
    """B^D_q g(z) by exclusion quadrature over a refinement ladder.

    Returns the finest-level value, per-level values, level deltas and a
    flag when z sits within the exclusion radius of the boundary.
    """
    config = config or SingularQuadratureConfig()
    n = domain.n_complex
    q = g.q - 1
    z = np.asarray(z, dtype=float)
    keys = multi_indices(n, q)
    per_level, flags = [], []
    for level in config.levels():
        rule = volume_rule(domain, level)
        rho = config.exclusion_factor * rule.spacing
        flags.append(bool(dist_boundary(domain, z) < rho))
        per_level.append(_sweep(_fold(n, q, g, rule), rule, z, keys, rho))
    deltas = [_value_norm({J: per_level[i + 1][J] - per_level[i][J]
                           for J in per_level[0]}, q)
              for i in range(len(per_level) - 1)]
    return {"value": per_level[-1], "per_level": per_level, "deltas": deltas,
            "boundary_flag": any(flags), "q": q}


def op_boundary(f_b, z, domain, config=None):
    """B^{bD}_q f(z) at an interior point (kernel is smooth on bD there)."""
    config = config or SingularQuadratureConfig()
    z = np.asarray(z, dtype=float)
    if dist_boundary(domain, z) <= 0:
        raise ValueError("evaluation point must be strictly inside the domain")
    n = domain.n_complex
    level = config.levels()[-1]
    rule = boundary_rule(domain, level)
    value = _sweep(_fold(n, f_b.q, f_b, rule), rule, z, multi_indices(n, f_b.q))
    return {"value": value, "q": f_b.q, "level": level}


def _dbar_from_partials(n, q, partials):
    """Assemble dbar coefficients from per-direction complex partials.

    partials: {j: {J': value}} with j the zbar_j direction (1-based).
    """
    out = {J: 0.0 + 0.0j for J in multi_indices(n, q + 1)}
    for j, comps in partials.items():
        for Jp, v in comps.items():
            if j in Jp:
                continue
            below = sum(1 for e in Jp if e < j)
            J = tuple(sorted(Jp + (j,)))
            out[J] += (-1.0) ** below * v
    return out


def dbar_potential(f, z, domain, config, level):
    """dbar_z of B^D_{q-1} f at z by centered differences of the potential.

    All stencil evaluations share one exclusion ball centered at the base
    point with radius rho + step, so the node set never changes inside the
    difference stencil.  The removed ball is not centered at the shifted
    points, which biases the potential linearly in the shift; the bias is
    the exact ball average of s_j times the local fold coefficient,
    int_{B(c,R)} s_j dV = (pi^n/n!) (cbar_j - ybar_j), and is added back
    analytically before differencing.  The leftover stencil error is
    O(rho^2) from the variation of the operand across the ball only while
    B(z, rho + h) lies inside D.  With the default factors rho + h is 6
    level spacings, 2^-level on the unit ball, so at level 0 it never does.
    """
    n = domain.n_complex
    q = f.q
    if q == 0:
        return {}
    z = np.asarray(z, dtype=float)
    rule = volume_rule(domain, level)
    rho = config.fd_exclusion_factor * rule.spacing
    h = config.fd_step_factor * rho
    d = rule.nodes - z
    keep = np.sum(d * d, axis=-1) >= (rho + h) * (rho + h)
    rule = replace(rule, weights=rule.weights * keep)
    plan = _fold(n, q - 1, f, rule)
    center = _fold(n, q - 1, f, QuadratureRule(z[None, :], np.ones(1), level, "interior", 0.0))
    keys = multi_indices(n, q - 1)
    ball_factor = math.pi ** n / math.factorial(n)

    def corrected(y):
        vals = _sweep(plan, rule, y, keys)
        d = y - z
        dc = d[0::2] + 1j * d[1::2]
        for (J, j), a in center.items():
            vals[J] += a[0] * ball_factor * (-np.conj(dc[j - 1]))
        return vals

    partials = {}
    steps = h * np.eye(2 * n)
    for j in range(1, n + 1):
        dx, dy = steps[2 * j - 2], steps[2 * j - 1]
        px, mx = corrected(z + dx), corrected(z - dx)
        py, my = corrected(z + dy), corrected(z - dy)
        comps = {}
        for Jp in px:
            ddx = (px[Jp] - mx[Jp]) / (2.0 * h)
            ddy = (py[Jp] - my[Jp]) / (2.0 * h)
            comps[Jp] = 0.5 * (ddx + 1j * ddy)
        partials[j] = comps
    return _dbar_from_partials(n, q - 1, partials)


def reproduce_residual(f, f_b, dbar_f, domain, z_points, config=None):
    """Three-term reproduction residuals over a refinement ladder.

    Per evaluation point and level the defect of
    f(z) = B^{bD}_q f_b(z) - B^D_q (dbar f)(z) - dbar_z B^D_{q-1} f(z)
    is reported with the norms of the three terms.  Points closer to the
    boundary than margin_factor * domain scale are skipped and listed.
    """
    config = config or SingularQuadratureConfig()
    n = domain.n_complex
    q = f.q
    scale = domain.radius if domain.radius is not None else 1.0
    margin = config.margin_factor * scale
    z_points = np.atleast_2d(np.asarray(z_points, dtype=float))
    inside = dist_boundary(domain, z_points) >= margin
    flagged = [z_points[i] for i in range(len(z_points)) if not inside[i]]
    zs = z_points[inside]
    keys = list(multi_indices(n, q))
    f_coeff = {J: f.coefficient((), J) for J in keys}
    rows = []
    for level in config.levels():
        vol_rule = volume_rule(domain, level)
        bnd_rule = boundary_rule(domain, level)
        bplan = _fold(n, q, f_b, bnd_rule)
        vplan = _fold(n, q, dbar_f, vol_rule) if dbar_f is not None else None
        rho = config.exclusion_factor * vol_rule.spacing
        for z in zs:
            bval = _sweep(bplan, bnd_rule, z, keys)
            if vplan is not None:
                vval = _sweep(vplan, vol_rule, z, keys, rho)
            else:
                vval = {J: 0.0 + 0.0j for J in keys}
            dval = dbar_potential(f, z, domain, config, level)
            if not dval:
                dval = {J: 0.0 + 0.0j for J in keys}
            defect = {}
            for J in keys:
                fz = complex(np.asarray(f_coeff[J](z[None, :]))[0])
                defect[J] = fz - (bval[J] - vval[J] - dval[J])
            rows.append({
                "z": z.copy(), "level": level,
                "residual": _value_norm(defect, q),
                "boundary_term_norm": _value_norm(bval, q),
                "volume_term_norm": _value_norm(vval, q),
                "potential_dbar_norm": _value_norm(dval, q),
            })
    return {"rows": rows, "flagged": flagged, "q": q}

