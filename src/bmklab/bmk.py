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
restored analytically before differencing.  Both radii, the step and the
boundary margin of the residual ladder are fixed multiples (the *_FACTOR
constants) of the level rule's spacing or of the domain radius; a
SingularQuadratureConfig sets only which levels run.

Both operators, the residual ladder and the stencil go through one sweep.
A fold wedges the operand with each constant form K_Jj of the kernel
table (the part of B multiplying s_j dzbar^J(z), s_j = conj(zeta_j -
z_j)/|zeta-z|^{2n}), takes the density against dV or dS at the nodes, with
every sign left to bmklab.exterior, and multiplies in the weights.  The
sweep evaluates every point of a level in one pass over the rule, in blocks
of at most NODE_BLOCK nodes that one worker per usable CPU folds and sweeps:
within a block it takes sub-blocks of about PAIR_BLOCK node-point pairs,
where the coordinate differences are scaled in place by 1/|zeta-z|^{2n}
(exactly 0 at dropped nodes) and contracted with the fold by real matmuls.
The products are added up in node order, so every value is the same
whatever the number of CPUs.  The operand's field callables run on several
threads at once and must be pure.  Each worker reads its block through
rule.part, which writes a ball volume rule's nodes and weights from the
radial and unit-sphere factors the rule keeps, so only boundary rules and
block-sized temporaries are resident, which keeps ladders over millions
of nodes at desk scale.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (DifferentialForm, _merge, _star_monomial, _wedge_monomial_sign,
                       density, eps_sign, multi_indices)
from .geometry import boundary_rule, dist_boundary, volume_rule

__all__ = [
    "kernel_constant", "kernel_table", "kernel_eval", "kernel_norm",
    "SingularQuadratureConfig", "op_volume", "op_boundary", "dbar_potential",
    "reproduce_residual",
]

NODE_BLOCK = 32_768    # nodes a worker writes and folds at once (8.4 MB of fold at n = 2, q = 1)
PAIR_BLOCK = 32_768    # node-point pairs per distance temporary (1 MB of differences at n = 2)

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
    """B_nq at one (zeta, z) pair: {J: constant-coefficient (n, n-q-1)-form}."""
    zeta = np.asarray(zeta, dtype=float)
    z = np.asarray(z, dtype=float)
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

    def levels(self):
        return list(range(self.base_level, self.base_level + max(1, self.refinement_steps)))


def _densities(form, q):
    """[(k, j, form ^ K_Jj)] for each constant (n, n-q-1)-form K_Jj of
    kernel_table(n, q), the part of B that multiplies s_j dzbar^J(z), with
    J = multi_indices(n, q)[k].  exterior.density takes each wedge against
    dV or, through a boundary rule's outward normals, against dS.
    """
    if form.p:
        raise ValueError(f"operand must be a (0, q)-form, got ({form.p}, {form.q})")
    n = form.n
    keys = multi_indices(n, q)
    return [(keys.index(J), j, form.wedge(DifferentialForm(n, n, n - q - 1, mono)))
            for J, terms in kernel_table(n, q).items() for j, mono in terms]


def _fold(coef, densities, nodes, nu, weights):
    """Write one node block's weighted fold into coef, a real (2n, B, 2K) array.

    Entry (c, i) holds what the scaled difference (zeta_i - y)_c / |zeta_i - y|^{2n}
    multiplies: with A = w_i * density_Jj(i), s_j = (dx_j - i dy_j)/|.|^{2n}
    gives A s_j = (Re A dx_j + Im A dy_j + i (Im A dx_j - Re A dy_j))/|.|^{2n},
    so the x_j row carries (Re A, Im A) and the y_j row (Im A, -Re A) in the
    real and imaginary columns of J = multi_indices(n, q)[k].  Every block
    writes the same entries, so the others stay 0 from allocation.  nu, the
    outward normals, is None on an interior rule.
    """
    width = coef.shape[2] // 2
    for k, j, wedged in densities:
        a = weights * density(wedged, nodes, nu)
        coef[2 * j - 2, :, k] = a.real
        coef[2 * j - 2, :, width + k] = a.imag
        coef[2 * j - 1, :, k] = a.imag
        coef[2 * j - 1, :, width + k] = -a.real


def _norm2(d, out, tmp):
    """|d|^2 over the leading (coordinate) axis into out, summed in coordinate order."""
    np.multiply(d[0], d[0], out=out)
    for c in range(1, len(d)):
        np.multiply(d[c], d[c], out=tmp)
        out += tmp
    return out


def _sweep(form, rule, points, radius=0.0, centers=None):
    """(P, K) values sum_i w_i sum_j fold_Jj(i) s_j(i; y_p), K = |multi_indices(n, q)|.

    n = form.n, and q is form.q on a boundary rule and form.q - 1 on an
    interior rule (rule.nu None), the degree of the value.

    Every point y_p of the (P, 2n) stack is evaluated in one pass over the
    rule, taken one block of NODE_BLOCK nodes at a time.  The blocks run on
    one worker per usable CPU, the calling thread being one of them, so a
    one-block rule starts no thread.  Each worker has its own buffers, folds
    the operand over its block (so the operand's field callables are called
    from several threads) and sweeps the block in sub-blocks of about
    PAIR_BLOCK node-point pairs, keeping each sub-block's product.  The
    calling thread adds the products into the sum in node order as their
    blocks finish: the chain of additions is that of one serial pass,
    whatever the number of CPUs.  A node is dropped (adds an exact 0) where
    it equals y_p and where it lies closer than radius to y_p, or, given
    centers (C, 2n), to the centre shared by the p-th group of P / C
    consecutive points.
    """
    n, q = form.n, form.q - (rule.nu is None)
    densities = _densities(form, q)
    width = len(multi_indices(n, q))
    points = np.asarray(points, dtype=float)
    count, m = points.shape
    if m != 2 * n:
        raise ValueError(f"a form on C^{n} needs points in R^{2 * n}, got R^{m}")
    acc = np.zeros((count, 2 * width))
    if not (count and densities):
        return acc[:, :width] + 1j * acc[:, width:]
    r2 = radius * radius
    block = min(NODE_BLOCK, len(rule))
    step = min(max(1, PAIR_BLOCK // count), block)
    ys = points.T[:, :, None]
    starts = range(0, len(rule), NODE_BLOCK)
    products = [None] * len(starts)   # per block: its sub-block products, in node order
    claim = itertools.count()         # one atomic next() per block: no block runs twice

    def work(after_block):
        coef = np.zeros((m, block, 2 * width))
        diff = np.empty((m, count, step))
        dist2, scale = np.empty((2, count, step))
        drop, on_node = np.empty((2, count, step), dtype=bool)
        if centers is not None:
            cs = centers.T[:, :, None]
            cdiff = np.empty((m, len(centers), step))
            cdist2, ctmp = np.empty((2, len(centers), step))
            grouped = drop.reshape(len(centers), -1, step)
        while (k := next(claim)) < len(starts):
            start = starts[k]
            nodes, weights, nu = rule.part(start, start + NODE_BLOCK)
            size = len(nodes)
            _fold(coef[:, :size], densities, nodes, nu, weights)
            zeta = nodes.T[:, None, :]
            out = []
            for sub in range(0, size, step):
                b = min(step, size - sub)
                d, r, sc = diff[:, :, :b], dist2[:, :b], scale[:, :b]
                dr, on = drop[:, :b], on_node[:, :b]
                np.subtract(zeta[:, :, sub:sub + b], ys, out=d)
                _norm2(d, r, sc)
                if centers is None:
                    np.less(r, r2, out=dr)
                else:
                    cd, cr = cdiff[:, :, :b], cdist2[:, :b]
                    np.subtract(zeta[:, :, sub:sub + b], cs, out=cd)
                    _norm2(cd, cr, ctmp[:, :b])
                    grouped[:, :, :b] = (cr < r2)[:, None, :]
                np.equal(r, 0.0, out=on)
                dr |= on
                np.copyto(sc, r)
                for _ in range(n - 1):
                    sc *= r
                np.copyto(sc, np.inf, where=dr)
                np.divide(1.0, sc, out=sc)
                d *= sc
                out += [d[c] @ coef[c, sub:sub + b] for c in range(m)]
            products[k] = out
            after_block()

    added = 0

    def add_done():
        nonlocal added
        while added < len(starts) and products[added] is not None:
            for p in products[added]:
                np.add(acc, p, out=acc)
            products[added] = None
            added += 1

    workers = min(len(os.sched_getaffinity(0)), len(starts))
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = [pool.submit(work, lambda: None) for _ in range(workers - 1)]
        work(add_done)
        for helper in helpers:
            helper.result()   # re-raises a helper's error
    add_done()
    return acc[:, :width] + 1j * acc[:, width:]


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
        raise ValueError("evaluation point must be strictly inside the domain")
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
    """(P, K) values of dbar_z B^D_{q-1} f at the (P, 2n) points z, by centered
    differences of the potential; K = |multi_indices(n, q)|, and q = 0 gives zeros.

    rule is the level's interior rule; f is folded once over it
    for all 4n P stencil points.  The stencil points of a base point share
    one exclusion ball centered at that base point with radius rho + step,
    so the node set never changes inside its difference stencil.  The removed ball is not
    centered at the shifted points, which biases the potential linearly in
    the shift; the bias is the exact ball average of s_j times the local
    fold coefficient, int_{B(c,R)} s_j dV = (pi^n/n!) (cbar_j - ybar_j), and
    is added back analytically before differencing.  The leftover stencil
    error is O(rho^2) from the variation of the operand across the ball only
    while B(z, rho + h) lies inside D.  rho + h is 6 level spacings, 2^-level
    on the unit ball, so at level 0 it never does.
    """
    if rule.nu is not None:
        raise ValueError("dbar_potential needs an interior rule, got a boundary rule")
    n, q = f.n, f.q
    zs = np.asarray(z, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != 2 * n:
        raise ValueError(f"dbar_potential needs a (P, {2 * n}) stack of points, "
                         f"got shape {zs.shape}")
    if q == 0:
        return np.zeros((len(zs), 1), dtype=complex)
    rho = FD_EXCLUSION_FACTOR * rule.spacing
    h = FD_STEP_FACTOR * rho
    steps = h * np.eye(2 * n)
    # per base point and direction j: z + dx_j, z - dx_j, z + dy_j, z - dy_j
    shifts = np.stack([sign * steps[c] for c in range(2 * n) for sign in (1.0, -1.0)])
    ys = zs[:, None, :] + shifts[None, :, :]
    keys = multi_indices(n, q - 1)
    vals = _sweep(f, rule, ys.reshape(-1, 2 * n), rho + h, centers=zs)
    vals = vals.reshape(len(zs), 4 * n, len(keys))
    d = ys - zs[:, None, :]
    dc = d[..., 0::2] + 1j * d[..., 1::2]
    ball_factor = math.pi ** n / math.factorial(n)
    for k, j, wedged in _densities(f, q - 1):
        a = density(wedged, zs)
        vals[:, :, k] += a[:, None] * ball_factor * (-np.conj(dc[:, :, j - 1]))
    vals = vals.reshape(len(zs), n, 4, len(keys))
    ddx = (vals[:, :, 0] - vals[:, :, 1]) / (2.0 * h)
    ddy = (vals[:, :, 2] - vals[:, :, 3]) / (2.0 * h)
    return _dbar_from_partials(n, q - 1, 0.5 * (ddx + 1j * ddy))


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
