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
converges.  d-bar of the volume potential is the centered finite
difference of the potential outside one exclusion ball (radius rho +
step, centered at the base point, shared by the stencil) minus the delta
term (pi^n/n!) A(z) of each kernel density A.  Both radii, the step and the
boundary margin of the residual ladder are fixed multiples (the *_FACTOR
constants) of the level rule's spacing or of the domain radius; a
SingularQuadratureConfig sets only which levels run.

Both operators, the residual ladder and the stencil go through one sweep.
A fold writes, per node, the weighted density against dV or dS of the
operand wedged with each constant form K_Jj of the kernel table (the part
of B multiplying s_j dzbar^J(z), s_j = conj(zeta_j - z_j)/|zeta-z|^{2n}).
Each density is an operand coefficient times constants fixed once per
sweep (kernel entry, wedge sign, top or boundary-density factor, every
sign from bmklab.exterior's rules).  The fold calls each coefficient
field, and each callable shared by several, once per node block, keeps
no value past the block, and applies the constants in the order of the
symbolic wedge and exterior.density, so every density keeps that path's
bits (numpy's complex multiply rounds through FMA, so operand order
matters).  Inside, it writes each weighted density into one complex
scratch row per block by products with an explicit out=, which fix that
order, and allocates no other block-sized array.  Next to each weighted
density A it writes conj(zeta_j) A, so that
sum_i A conj(zeta_j - z_j)/|zeta-z|^{2n} is taken as
sum_i conj(zeta_j) A/|.|^{2n} - conj(z_j) sum_i A/|.|^{2n}: the sweep
needs no coordinate differences.  It evaluates every point of a level in
one pass over the rule, in blocks of at most NODE_BLOCK nodes that the
threads of fields._on_cpus claim one at a time (so the operand's field
callables must be pure); each thread folds and sweeps its blocks, taking
sub-blocks of about PAIR_BLOCK node-point pairs, each with one matmul
for |zeta-z|^2 = |zeta|^2 + |z|^2 - 2 z.zeta, set to inf at dropped
nodes, and one of 1/|zeta-z|^{2n} with the fold.  A block's products are
added into that block's own partial sum and the partials in block order,
so every value is the same whatever the number of CPUs.  The expanded
distance and the final difference round differently from exact
coordinate differences: the values agree with that contraction to within
1e-13 of the sum of the terms' moduli, the cancellation being worst next
to the excluded ball.  Each worker reads its block through rule.part,
which writes a ball volume rule's nodes and weights from the radial and
unit-sphere factors the rule keeps, so only boundary rules and
block-sized temporaries are resident, which keeps ladders over millions
of nodes at desk scale.  part writes such a block coordinate-major, so
the distance product and the operand's fields read each coordinate as
one contiguous row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (DifferentialForm, _merge, _normal_completion, _star_monomial,
                       _top_real_constant, _wedge_monomial_sign, eps_sign, multi_indices)
from .fields import _check_finite, _on_cpus, _whole, shared_values
from .geometry import boundary_rule, dist_boundary, volume_rule

__all__ = [
    "kernel_constant", "kernel_table", "kernel_eval", "kernel_norm",
    "SingularQuadratureConfig", "op_volume", "op_boundary", "dbar_potential",
    "reproduce_residual",
]

NODE_BLOCK = 32_768    # nodes a worker writes and folds at once (2.1 MB of fold per worker at n = 2, q = 1)
PAIR_BLOCK = 32_768    # node-point pairs per distance temporary (256 KB)
R2_FLOOR = 64 * np.finfo(float).eps   # |zeta - y|^2 <= R2_FLOOR |y|^2 is zeta = y up to roundoff

EXCLUSION_FACTOR = 2.0      # _volume_term: rho = factor * rule spacing
FD_EXCLUSION_FACTOR = 4.0   # dbar_potential: rho = factor * rule spacing
FD_STEP_FACTOR = 0.5        # dbar_potential: step h = factor * rho
MARGIN_FACTOR = 0.25        # reproduce_residual skips z within factor * radius of bD


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


def kernel_eval(n, q, zeta, z):
    """B_nq at one (zeta, z) pair of 2n-vectors: {J: constant-coefficient (n, n-q-1)-form}.

    zeta = z, or a zeta or z that is not finite, is a ValueError."""
    zeta = np.asarray(zeta, dtype=float)
    z = np.asarray(z, dtype=float)
    if zeta.shape != (2 * n,) or z.shape != (2 * n,):
        raise ValueError(f"the kernel on C^{n} needs zeta and z of length {2 * n}, "
                         f"got shapes {zeta.shape} and {z.shape}")
    _check_finite(np.stack([zeta, z]))
    if np.array_equal(zeta, z):
        raise ValueError("kernel singularity: zeta = z")
    d = zeta - z
    s = np.conj(d[0::2] + 1j * d[1::2]) / np.sum(d * d) ** n
    out = {}
    for J, terms in kernel_table(n, q).items():
        coeffs = {}
        for j, mono in terms:
            for key, coef in mono.items():
                coeffs[key] = coeffs.get(key, 0.0) + coef * s[j - 1]
        out[J] = DifferentialForm(n, n, n - q - 1, {
            key: complex(v) for key, v in coeffs.items() if v != 0})
    return out


def kernel_norm(n, q, zeta, z):
    """Pointwise double-form norm: monomials dz^I dzbar^J weigh 2^(|I|+|J|)."""
    zeta = np.asarray(zeta, dtype=float)
    forms = kernel_eval(n, q, zeta, z)
    total = 0.0
    for J, form in forms.items():
        for (I, Jk), c in form.coeffs.items():
            xi = np.asarray(c(zeta[None, :]), dtype=complex)
            total += 2.0 ** (q + len(I) + len(Jk)) * float(np.abs(xi[0]) ** 2)
    return math.sqrt(total)


@dataclass
class SingularQuadratureConfig:
    base_level: int = 0
    refinement_steps: int = 3

    def __post_init__(self):
        self.base_level = _whole("base_level", self.base_level, 0)
        self.refinement_steps = _whole("refinement_steps", self.refinement_steps, 1)

    def levels(self):
        return list(range(self.base_level, self.base_level + self.refinement_steps))


def _kernel_terms(form, q, interior):
    """[(k, j, parts)] for each constant (n, n-q-1)-form K_Jj of
    kernel_table(n, q), the part of B that multiplies s_j dzbar^J(z), with
    J = multi_indices(n, q)[k], built once per sweep.

    The density of form ^ K_Jj against dV, or against dS (exterior.density),
    sums one part per coefficient g of the form that meets K_Jj's one
    monomial: one part inside, q + 1 on a boundary.  A part (g, consts,
    dual) is g's values times its one constant: the kernel entry times the
    wedge sign, and inside that times the top factor of dV.  The top factor
    is -2i, 4 or -8i at n = 1, 2, 3, a power of two times a unit, and every
    kernel entry is real or imaginary, so the joined constant is exact and
    gives the bits of the two applied in turn, except that a zero part of
    the product can take the other sign where the value has a -0 part; and
    constant * value and value * constant agree.  On a boundary, dual =
    (k, f) adds value * f * (nu_x_k + i nu_y_k), k 0-based, the normal's dzbar term that
    completes the monomial (exterior._normal_completion).  A polynomial g takes its constant into
    its coefficients instead, leaving consts empty, as the wedge of
    polynomial forms does.  A (J, j) that no coefficient meets has density
    0 and is left out.
    """
    if form.p:
        raise ValueError(f"operand must be a (0, q)-form, got ({form.p}, {form.q})")
    n = form.n
    keys = multi_indices(n, q)
    top = complex(_top_real_constant(n))
    out = []
    for J, terms in kernel_table(n, q).items():
        for j, mono in terms:
            (((I2, J2), entry),) = mono.items()
            parts = []
            for (I1, J1), g in form.coeffs.items():
                sign = _wedge_monomial_sign(n, I1, J1, I2, J2)
                if not sign:
                    continue
                c, dual = sign * entry, None
                if interior:
                    c = top * c
                else:
                    # K_Jj holds every dz_i, so a dzbar_i term completes it
                    i, _, factor = _normal_completion(n, I2, _merge(J1, J2))
                    dual = (i - 1, factor)
                if g.is_poly:
                    parts.append((g._scaled(c), (), dual))
                else:
                    parts.append((g, (c,), dual))
            if parts:
                out.append((keys.index(J), j, parts))
    return out


def _density(parts, nodes, nu, calls, out=None):
    """One (J, j) density at nodes from its parts (see _kernel_terms):
    against dV with nu None, else against dS with nu the outward normals.
    calls shares the operand's values across the densities of one block
    (fields.shared_values).  The density is written into out, a complex
    array of len(nodes) (a new one when out is None), except that an
    interior density of a polynomial is the polynomial's own new values.
    """
    if out is None:
        out = np.empty(len(nodes), dtype=complex)
    if nu is None:
        ((field, consts, _),) = parts   # an interior density has one part
        value = shared_values(field, nodes, calls)
        for c in consts:
            # constant first, as in the symbolic wedge: FMA rounds a complex
            # product differently in the other order
            value = np.multiply(c, value, out=out)
        return value
    out.fill(0.0)
    for field, consts, dual in parts:
        value = shared_values(field, nodes, calls)
        for c in consts:
            value = c * value
        i, factor = dual
        term = factor * (nu[:, 2 * i] + 1j * nu[:, 2 * i + 1])
        # np.multiply keeps value the first operand: `value * temporary`
        # lets numpy reuse the temporary, as `temporary *= value`, and
        # FMA rounds a complex product differently in the other order
        out += np.multiply(value, term, out=term)
    return out


def _fold(fold, terms, nodes, nu, weights):
    """Write one node block's weighted fold into fold, a real (4T, B) array
    over the T kernel terms of _kernel_terms.

    With A = w_i * density_Jj(i) for the t-th term (k, j), rows 4t to 4t + 3
    hold Re A, Im A, Re(conj(zeta_j) A) and Im(conj(zeta_j) A), the last two
    in real arithmetic, as x_j Re A + y_j Im A and x_j Im A - y_j Re A.  The
    sweep contracts every row with 1/|zeta - y|^{2n} and takes
    sum_i A conj(zeta_j - y_j)/|zeta - y|^{2n} per point as s1 - conj(y_j) s0
    from the last two rows' sum s1 and the first two's s0.  nu, the outward
    normals, is None on an interior rule.  Each field of the operand runs
    once on the block, and the values it shares go when the fold returns.
    A is written into one complex scratch of B values per block, by
    np.multiply with an explicit out= (so numpy never reuses a temporary and
    swaps a complex product's operands), and that scratch, once its real
    and imaginary parts are copied out, holds y_j Re A: an interior term
    allocates no other block-sized array.
    """
    calls = {}
    a = np.empty(len(nodes), dtype=complex)
    tmp = a.view(float)[:len(nodes)]
    for t, (_, j, parts) in enumerate(terms):
        np.multiply(weights, _density(parts, nodes, nu, calls, a), out=a)
        re, im, cre, cim = fold[4 * t:4 * t + 4]
        x, y = nodes[:, 2 * j - 2], nodes[:, 2 * j - 1]
        np.copyto(re, a.real)
        np.copyto(im, a.imag)
        np.multiply(x, re, out=cre)
        np.multiply(y, im, out=cim)
        cre += cim
        np.multiply(x, im, out=cim)
        np.multiply(y, re, out=tmp)
        cim -= tmp


def _norm2(d, out, tmp):
    """|d|^2 over the leading (coordinate) axis into out, summed in coordinate order."""
    np.multiply(d[0], d[0], out=out)
    for c in range(1, len(d)):
        np.multiply(d[c], d[c], out=tmp)
        out += tmp
    return out


def _sweep(form, rule, points, radius=0.0, centers=None):
    """(P, K) values sum_i w_i sum_j density_Jj(i) s_j(i; y_p), K = |multi_indices(n, q)|,
    s_j = conj(zeta_j - y_j)/|zeta - y|^{2n}.

    n = form.n, and q is form.q on a boundary rule and form.q - 1 on an
    interior rule (rule.nu None), the degree of the value.

    Every point y_p of the (P, 2n) stack is evaluated in one pass over the
    rule, taken one block of NODE_BLOCK nodes at a time, the blocks running
    through fields._on_cpus.  Each worker has its own buffers, folds the
    operand over each block it claims and sweeps it in sub-blocks of about
    PAIR_BLOCK node-point pairs.  A sub-block takes |zeta - y_p|^2 as
    |zeta|^2 + |y_p|^2 - 2 y_p . zeta from one (P, 2n) @ (2n, b) product,
    writes inf there at dropped nodes, and adds one (P, b) @ (b, 4T) product
    of 1/|zeta - y_p|^{2n}, 1/r divided n - 1 times by r (exactly 0 at
    dropped nodes), with the fold into the block's own (P, 4T) partial
    sum.  Once every block is done the partials are added in block order,
    so the chain of additions does not depend on the number of CPUs.  The
    sum's s1 - conj(y_j) s0 per point (see _fold) is taken once, at the end.

    A node is dropped (adds an exact 0) where it equals y_p and where it
    lies closer than radius to y_p or, given centers (C, 2n), to the centre
    shared by the p-th group of P / C consecutive points.  Without centers
    one comparison of |zeta - y_p|^2 makes the test: at most radius^2, or
    at most R2_FLOOR * |y_p|^2 when that is larger, so that at radius 0 a
    node at y_p, whose expanded distance rounds to a few units of
    |y_p|^2 * eps (+-4.4e-16 on the unit circle) rather than to 0, is
    dropped.  Given centers, the centre test alone makes it, on
    |zeta - c|^2 = |zeta|^2 + |c|^2 - 2 c . zeta from one (C, 2n) @ (2n, b)
    product, less than radius^2: every y_p must lie closer than radius to
    its centre, as dbar_potential's stencil points do (h from the centre,
    radius rho + h).  The zeta rows of a block are its coordinates,
    contiguous when rule.part writes the block coordinate-major, as it does
    for a ball volume rule.  A point that is not finite is a ValueError
    that names it.
    """
    n, q = form.n, form.q - (rule.nu is None)
    terms = _kernel_terms(form, q, rule.nu is None)
    points = np.asarray(points, dtype=float)
    count, m = points.shape
    if m != 2 * n:
        raise ValueError(f"a form on C^{n} needs points in R^{2 * n}, got R^{m}")
    _check_finite(points)
    values = np.zeros((count, len(multi_indices(n, q))), dtype=complex)
    if not (count and terms):
        return values
    r2 = radius * radius
    ysq = _norm2(points.T, np.empty(count), np.empty(count))[:, None]
    limit = np.maximum(r2, R2_FLOOR * ysq)
    ym2 = -2.0 * points
    if centers is not None:
        csq = _norm2(centers.T, np.empty(len(centers)), np.empty(len(centers)))[:, None]
        cm2 = -2.0 * centers
    block = min(NODE_BLOCK, len(rule))
    step = min(max(1, PAIR_BLOCK // count), block)
    starts = range(0, len(rule), NODE_BLOCK)
    partials = np.zeros((len(starts), count, 4 * len(terms)))   # one row per block

    def work(claim):
        fold = np.empty((4 * len(terms), block))
        zsq, ztmp = np.empty((2, block))
        dist2, scale = np.empty((2, count * step))
        for k in claim:
            start = starts[k]
            nodes, weights, nu = rule.part(start, start + NODE_BLOCK)
            size = len(nodes)
            _fold(fold[:, :size], terms, nodes, nu, weights)
            zeta = nodes.T
            _norm2(zeta, zsq[:size], ztmp[:size])
            for sub in range(0, size, step):
                b = min(step, size - sub)
                r, sc = dist2[:count * b].reshape(count, b), scale[:count * b].reshape(count, b)
                np.matmul(ym2, zeta[:, sub:sub + b], out=r)
                r += ysq
                r += zsq[sub:sub + b]
                if centers is None:
                    np.copyto(r, np.inf, where=r <= limit)
                else:
                    cr = sc[:len(centers)]   # |zeta - c|^2, read before sc is written
                    np.matmul(cm2, zeta[:, sub:sub + b], out=cr)
                    cr += csq
                    cr += zsq[sub:sub + b]
                    np.copyto(r.reshape(len(centers), -1, b), np.inf, where=(cr < r2)[:, None, :])
                np.divide(1.0, r, out=sc)
                for _ in range(n - 1):
                    sc /= r
                partials[k] += sc @ fold[:, sub:sub + b].T

    _on_cpus(work, len(starts))
    acc = partials.sum(axis=0)   # block order: the same sum whatever the number of CPUs
    ybar = np.conj(points[:, 0::2] + 1j * points[:, 1::2])
    for t, (k, j, _) in enumerate(terms):
        s0 = acc[:, 4 * t] + 1j * acc[:, 4 * t + 1]
        s1 = acc[:, 4 * t + 2] + 1j * acc[:, 4 * t + 3]
        values[:, k] += s1 - ybar[:, j - 1] * s0
    return values


def _as_dict(keys, row):
    return {J: complex(v) for J, v in zip(keys, row)}


def _value_norm(row, q):
    """Norm of one point's values of a (0, q)-form; Python's abs, not numpy's, sets its bits."""
    return math.sqrt(sum(2.0 ** q * abs(complex(v)) ** 2 for v in row))


def _volume_term(g, rule, points):
    """(P, K) values of B^D_q g, q = g.q - 1, at the (P, 2n) points: the sweep
    over the interior rule without the nodes within EXCLUSION_FACTOR spacings."""
    return _sweep(g, rule, points, EXCLUSION_FACTOR * rule.spacing)


def op_volume(g, z, domain, config=None):
    """B^D_q g(z), q = g.q - 1, by exclusion quadrature on the config's finest level."""
    config = config or SingularQuadratureConfig()
    z = np.asarray(z, dtype=float)[None, :]
    value = _volume_term(g, volume_rule(domain, config.levels()[-1]), z)[0]
    return {"value": _as_dict(multi_indices(g.n, g.q - 1), value)}


def op_boundary(f_b, z, domain, config=None):
    """B^{bD}_q f(z) at an interior point (kernel is smooth on bD there)."""
    config = config or SingularQuadratureConfig()
    z = np.asarray(z, dtype=float)
    if dist_boundary(domain, z) <= 0:
        raise ValueError(f"evaluation point {z.tolist()} must be strictly inside the domain")
    value = _sweep(f_b, boundary_rule(domain, config.levels()[-1]), z[None, :])[0]
    return {"value": _as_dict(multi_indices(f_b.n, f_b.q), value)}


def _dbar_from_partials(n, q, comps):
    """(P, K) dbar coefficients over multi_indices(n, q + 1) from the (P, n, K')
    partials d/dzbar_j (column j - 1) of the coefficients over multi_indices(n, q)."""
    keys = multi_indices(n, q + 1)
    out = np.zeros((len(comps), len(keys)), dtype=complex)
    for j in range(1, n + 1):
        for k, Jp in enumerate(multi_indices(n, q)):
            sign = _wedge_monomial_sign(n, (), (j,), (), Jp)
            if sign:
                out[:, keys.index(_merge(Jp, (j,)))] += sign * comps[:, j - 1, k]
    return out


def dbar_potential(f, z, rule):
    """(P, K) values of dbar_z B^D_{q-1} f at the (P, 2n) points z, q = f.q and
    K = |multi_indices(n, q)| (q = 0 has no kernel terms and gives zeros), from

        d/dzbar_j int_D A s_j dV = PV-part - (pi^n/n!) A(z)

    for each density A = density_Jj of _kernel_terms (Range, GTM 108,
    ch. IV), the delta term coming from the pole.  The principal-value part
    is the centered difference of the far potential, which the sweep takes
    at the 4n shifted points z +- h dx_j, z +- h dy_j of each base point
    over the nodes outside one ball of radius rho + h about that base
    point, so the node set never changes inside its difference stencil; rule
    is the level's interior rule, and f is folded once over it for all 4n P
    points.  The leftover stencil error is O(rho^2) from the variation of the
    operand across the ball only while B(z, rho + h) lies inside D.  rho + h is 6
    level spacings, 2^-level on the unit ball, so at level 0 it never does.
    """
    if rule.nu is not None:
        raise ValueError("dbar_potential needs an interior rule, got a boundary rule")
    n, q = f.n, f.q
    zs = np.asarray(z, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != 2 * n:
        raise ValueError(f"dbar_potential needs a (P, {2 * n}) stack of points, "
                         f"got shape {zs.shape}")
    _check_finite(zs)
    rho = FD_EXCLUSION_FACTOR * rule.spacing
    h = FD_STEP_FACTOR * rho
    steps = h * np.eye(2 * n)
    # per base point and direction j: z + dx_j, z - dx_j, z + dy_j, z - dy_j
    shifts = np.stack([sign * steps[c] for c in range(2 * n) for sign in (1.0, -1.0)])
    ys = zs[:, None, :] + shifts[None, :, :]
    vals = _sweep(f, rule, ys.reshape(-1, 2 * n), rho + h, centers=zs)
    vals = vals.reshape(len(zs), n, 4, vals.shape[1])
    ddx = (vals[:, :, 0] - vals[:, :, 1]) / (2.0 * h)
    ddy = (vals[:, :, 2] - vals[:, :, 3]) / (2.0 * h)
    comps = 0.5 * (ddx + 1j * ddy)
    ball_factor = math.pi ** n / math.factorial(n)
    calls = {}
    for k, j, parts in _kernel_terms(f, q - 1, True):
        comps[:, j - 1, k] -= ball_factor * _density(parts, zs, None, calls)
    return _dbar_from_partials(n, q - 1, comps)


def reproduce_residual(f, f_b, dbar_f, domain, z_points, config=None):
    """Three-term reproduction residuals over a refinement ladder.

    Per evaluation point and level the defect of
    f(z) = B^{bD}_q f_b(z) - B^D_q (dbar f)(z) - dbar_z B^D_{q-1} f(z)
    is reported with the norms of the three terms.  Points closer to the
    boundary than MARGIN_FACTOR * domain scale are skipped and listed.
    Each level takes one sweep per term over all kept points.
    """
    config = config or SingularQuadratureConfig()
    if f_b.bidegree != f.bidegree:
        raise ValueError(f"f_b must have f's bidegree {f.bidegree}, got {f_b.bidegree}")
    n = domain.n_complex
    q = f.q
    scale = domain.radius if domain.radius is not None else 1.0
    margin = MARGIN_FACTOR * scale
    z_points = np.atleast_2d(np.asarray(z_points, dtype=float))
    _check_finite(z_points)
    inside = dist_boundary(domain, z_points) >= margin
    flagged = [z_points[i] for i in range(len(z_points)) if not inside[i]]
    zs = z_points[inside]
    keys = multi_indices(n, q)
    fz = np.stack([np.broadcast_to(f.coefficient((), J)(zs), len(zs)) for J in keys], axis=-1)
    rows = []
    for level in config.levels():
        bvals = _sweep(f_b, boundary_rule(domain, level), zs)
        vol_rule = volume_rule(domain, level)   # factors only; the sweeps write its blocks
        vvals = np.zeros_like(bvals)
        if dbar_f is not None:
            vvals = _volume_term(dbar_f, vol_rule, zs)
        dvals = dbar_potential(f, zs, vol_rule)
        defect = fz - (bvals - vvals - dvals)
        for i, z in enumerate(zs):
            rows.append({
                "z": z.copy(), "level": level,
                "residual": _value_norm(defect[i], q),
                "boundary_term_norm": _value_norm(bvals[i], q),
                "volume_term_norm": _value_norm(vvals[i], q),
                "potential_dbar_norm": _value_norm(dvals[i], q),
            })
    return {"rows": rows, "flagged": flagged}
