"""Boundary-adapted mollification on the half-space model U = {x_1 < 0}.

The smoothing kernel is anisotropic: a tangential bump psi_eps(x') of unit
mass at scale eps, times the derivative profile of a smoothed step in the
normal variable at a finer scale tau <= eps, supported in {tau < x_1 < 2tau}.
Convolving against it samples f strictly inside U even at boundary output
points, so f * phi_eps is smooth up to {x_1 = 0} and carries a trace there.

tau is selected per (f, eps, p) as the largest dyadic fraction eps * 2^{-k}
for which the boundary-slab mass satisfies

    (1/eps) * int |f|^p * (1 - h_tau(-t_1)) dt  <=  eps;

the slab integral uses Gauss-Legendre panels in the normal variable, refined
dyadically toward the boundary, so integrable concentration at {x_1 = 0} is
resolved far below the sample-grid spacing.

Convolutions are direct summation: quadrature nodes over the kernel's own
support, with f sampled through its exact callable.  One pass samples f once
per shifted point and contracts the samples with the kernel and with each of
its partials, so f * phi_eps and every derivative of it come from the same
evaluations.  The samples are taken one kernel node's shifted grid at a time,
on a pool of one thread per usable CPU, and contracted in node order, so the
result does not depend on the pool's size.  No transforms; boundary
handling stays explicit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma

from .fields import (_GL_NODES, _GL_W, _bump01, _bump01_deriv,
                     smooth_transition, smooth_transition_deriv,
                     smooth_transition_deriv2)
from .geometry import _composite_gauss, _tensor

__all__ = [
    "TangentialMollifier", "DiracSequence", "HalfSpaceField",
    "choose_tau", "slab_mass", "convolve_field", "convergence_report",
]


SLAB_DEPTH = 48   # dyadic panels toward the boundary in slab_mass
TAU_K_MAX = 40    # choose_tau tries tau down to eps * 2^-TAU_K_MAX
CONV_CHUNK = 64   # kernel nodes per block of shifted points in convolve_field


def _sphere_area(d):
    """Surface measure of S^{d-1}; the d=1 value 2 counts the two endpoints."""
    return 2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0)


def _radial_bump_mass(d):
    """Integral of exp(-1/(1-|x|^2)) over the unit ball of R^d."""
    if d == 0:
        return 1.0
    r = (_GL_NODES + 1.0) / 2.0
    w = _GL_W / 2.0
    return float(_sphere_area(d) * np.sum(w * _bump01(r) * r ** (d - 1)))


class TangentialMollifier:
    """Unit-mass radial bump on the unit ball of R^d (the lateral slice)."""

    def __init__(self, d):
        self.d = d
        self.mass = _radial_bump_mass(d)

    def values(self, xp, eps):
        if self.d == 0:
            return np.ones(np.asarray(xp).shape[0])
        r = np.linalg.norm(np.asarray(xp, dtype=float) / eps, axis=-1)
        return _bump01(r) / self.mass / eps ** self.d

    def grad(self, xp, eps):
        """Spatial gradient of the eps-scaled profile, shape (N, d)."""
        xp = np.asarray(xp, dtype=float)
        if self.d == 0:
            return np.zeros((xp.shape[0], 0))
        y = xp / eps
        r = np.linalg.norm(y, axis=-1)
        safe = np.maximum(r, 1e-300)
        radial = _bump01_deriv(r) / self.mass
        return (radial / safe)[:, None] * y / eps ** (self.d + 1)


class DiracSequence:
    """phi_eps(t) = psi_eps(t') * h'(t_1/tau)/tau, supported in a shifted slab.

    h is fields.smooth_transition, the smoothed step with h = 0 below 1,
    h = 1 above 2 and h' >= 0.  The support {tau < t_1 < 2tau} x {|t'| < eps}
    sits strictly inside {t_1 > 0}, which is what pushes the convolution
    sampling into the open half-space.
    """

    def __init__(self, m, epsilon, tau):
        if not (0 < tau <= epsilon):
            raise ValueError("need 0 < tau <= epsilon")
        self.m = m
        self.epsilon = float(epsilon)
        self.tau = float(tau)
        self.psi = TangentialMollifier(m - 1)

    def values(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        lat = self.psi.values(t[:, 1:], self.epsilon)
        return lat * smooth_transition_deriv(t[:, 0] / self.tau) / self.tau

    def grad(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        lat = self.psi.values(t[:, 1:], self.epsilon)
        dlat = self.psi.grad(t[:, 1:], self.epsilon)
        rho = smooth_transition_deriv(t[:, 0] / self.tau) / self.tau
        out = np.empty((t.shape[0], self.m))
        out[:, 0] = lat * smooth_transition_deriv2(t[:, 0] / self.tau) / self.tau ** 2
        out[:, 1:] = dlat * rho[:, None]
        return out

    def support_box(self):
        lo = np.full(self.m, -self.epsilon)
        hi = np.full(self.m, self.epsilon)
        lo[0], hi[0] = self.tau, 2.0 * self.tau
        return np.stack([lo, hi], axis=-1)

    def quad_rule(self):
        """Gauss-Legendre panels over the support box: (nodes, weights).

        The weights are rescaled so the discrete kernel measure has exactly
        unit mass, which preserves the contraction property of mollification
        at any rule size.
        """
        axes_nodes, axes_weights = [], []
        specs = [(2, 10)] + [(1, 16)] * (self.m - 1)
        for (lo, hi), (panels, order) in zip(self.support_box(), specs):
            xs, ws = _composite_gauss(lo, hi, panels, order)
            axes_nodes.append(xs)
            axes_weights.append(ws)
        t, w = _tensor(axes_nodes, axes_weights)
        return t, w / float(np.real(np.sum(w * self.values(t))))


def _trapezoid_weights(axis_nodes):
    n = len(axis_nodes)
    if n == 1:
        return np.ones(1)
    h = axis_nodes[1] - axis_nodes[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def _trapezoid_lp(v, axes, p):
    """Trapezoid L^p norm of v sampled on the tensor grid of axes (p=inf -> max)."""
    if np.isinf(p):
        return float(np.max(np.abs(v)))
    acc = np.abs(v) ** p
    for ax in range(len(axes) - 1, -1, -1):
        acc = np.tensordot(acc, _trapezoid_weights(axes[ax]), ([ax], [0]))
    return float(acc ** (1.0 / p))


class HalfSpaceField:
    """Complex field on a box inside the closed half-space {x_1 <= 0}.

    Backed by an exact callable func, sampled on an inclusive uniform grid
    (axis 0 runs up to x_1 = 0) the first time grid_values() is asked for,
    so a field singular on {x_1 = 0} that is only ever evaluated inside U
    never computes its infinite boundary samples.  func must be a pure
    function of its (N, m) points: convolve_field calls evaluate() from
    several threads at once.
    """

    def __init__(self, func, bounds, shape):
        self.bounds = np.asarray(bounds, dtype=float)
        if abs(self.bounds[0, 1]) > 1e-14:
            raise ValueError("half-space grid must end at x_1 = 0")
        self.shape = tuple(int(s) for s in shape)
        self.m = len(self.shape)
        self.axes = [np.linspace(lo, hi, k)
                     for (lo, hi), k in zip(self.bounds, self.shape)]
        self.spacing = np.array([ax[1] - ax[0] if len(ax) > 1 else 0.0
                                 for ax in self.axes])
        self.func = func
        grids = np.meshgrid(*self.axes, indexing="ij")
        self._nodes = np.stack([g.ravel() for g in grids], axis=-1)
        self._samples = None

    def grid_nodes(self):
        return self._nodes

    def grid_values(self):
        if self._samples is None:
            self._samples = np.asarray(self.func(self._nodes),
                                       dtype=complex).reshape(self.shape)
        return self._samples

    def evaluate(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.func(x), dtype=complex)

    def lp_norm(self, values, p):
        """Trapezoid L^p norm of grid values over the grid box (p=inf -> max)."""
        return _trapezoid_lp(np.asarray(values).reshape(self.shape), self.axes, p)

    def boundary_nodes(self):
        """Grid points on {x_1 = 0}: shape (prod(lateral shape), m)."""
        lat = self.axes[1:]
        if not lat:
            return np.zeros((1, 1))
        grids = np.meshgrid(*lat, indexing="ij")
        flat = [np.zeros(grids[0].size)] + [g.ravel() for g in grids]
        return np.stack(flat, axis=-1)

    def trace_lp_norm(self, values, p):
        """Trapezoid L^p norm over the lateral boundary grid."""
        v = np.asarray(values).reshape(tuple(self.shape[1:]) or (1,))
        return _trapezoid_lp(v, self.axes[1:], p)


def slab_mass(f, tau, p):
    """int |f|^p (1 - h_tau(-t_1)) dt by boundary-refined panel quadrature.

    Panels: [-2tau, -tau], then dyadic halves of [-tau, 0) toward the
    boundary, so integrable singularities at t_1 = 0 are captured.
    """
    edges = [(-2.0 * tau, -tau)]
    left = -tau
    for _ in range(SLAB_DEPTH):
        right = left / 2.0
        edges.append((left, right))
        left = right
        if -left < 1e-280:
            break
    lat_axes = f.axes[1:]
    if lat_axes:
        lat_nodes, lat_w = _tensor(lat_axes, [_trapezoid_weights(ax) for ax in lat_axes])
    else:
        lat_nodes = np.zeros((1, 0))
        lat_w = np.ones(1)
    x, w = leggauss(10)
    total = 0.0
    for a, b in edges:
        t1 = (a + b) / 2.0 + (b - a) / 2.0 * x
        wt = (b - a) / 2.0 * w
        factor = 1.0 - smooth_transition(-t1 / tau)
        if np.max(np.abs(factor)) == 0.0:
            continue
        pts = np.empty((len(t1) * len(lat_w), f.m))
        pts[:, 0] = np.repeat(t1, len(lat_w))
        if lat_nodes.shape[1]:
            pts[:, 1:] = np.tile(lat_nodes, (len(t1), 1))
        vals = np.abs(f.evaluate(pts)) ** p
        lat_int = vals.reshape(len(t1), len(lat_w)) @ lat_w
        total += float(np.sum(wt * factor * lat_int))
    return total


def choose_tau(f, epsilon, p):
    """Largest dyadic tau = eps * 2^{-k} passing the boundary-slab criterion."""
    for k in range(TAU_K_MAX + 1):
        tau = epsilon * 2.0 ** (-k)
        if slab_mass(f, tau, p) <= epsilon * epsilon:
            return tau
    raise ValueError(
        "no admissible normal scale down to eps*2^-%d; the boundary slab "
        "carries too much mass at this resolution - refine the sample grid "
        "or enlarge eps" % TAU_K_MAX)


def convolve_field(f, kernel, x, *, quad):
    """f * k and f * d_j k at x, shape (1+m, N), from one pass over f.

    Row 0 is (f * k)(x) = sum_t w_t k(t) f(x - t) over the kernel support
    rule and row 1+j uses the j-th partial of k, so derivatives of the
    mollification come from kernel derivatives.  Derivative rows get their
    discrete zeroth moment projected to the exact value 0 (the raw defect is
    O(quad error)/tau and would otherwise put a floor under the commutator
    diagnostics).  quad is the kernel's (nodes, weights) rule,
    kernel.quad_rule().

    The rule is taken CONV_CHUNK nodes at a time.  Each node's samples
    f(x - t_k), one row of N values, are evaluated on a pool of one thread
    per usable CPU into one reused (CONV_CHUNK, N) block; numpy releases
    the GIL, and a row's temporaries stay cache-sized.  Once a chunk is
    full it is contracted row by row, in chunk order, so the sums run in
    the same order whatever the pool size; a single (1+m, T) product would
    sum in another order and move the diagnostics by ~1e-10.
    """
    t, w = quad
    base = w * kernel.values(t)
    coef = [base] + [w * kv - np.sum(w * kv) / np.sum(base) * base
                     for kv in kernel.grad(t).T]
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xT = np.ascontiguousarray(x.T)   # coordinate-major: x[:, j] contiguous
    out = np.zeros((len(coef), x.shape[0]), dtype=complex)
    vals = np.empty((CONV_CHUNK, x.shape[0]), dtype=complex)

    def fill(k):
        vals[k % CONV_CHUNK] = f.evaluate((xT - t[k][:, None]).T)

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for start in range(0, len(t), CONV_CHUNK):
            stop = min(start + CONV_CHUNK, len(t))
            list(pool.map(fill, range(start, stop)))   # re-raises a row's error
            for row, c in zip(out, coef):
                row += c[start:stop] @ vals[:stop - start]
    return out


def convergence_report(op, f, qf, f_b, eps_list, p):
    """Mollification diagnostics along an eps ladder.

    op: FirstOrderOperator; f, qf: HalfSpaceField (qf = the interior data
    Qf); f_b: callable trace candidate on boundary nodes.  Row columns:
    (epsilon, tau, interior_err, q_err, commutator_ratio, trace_err).
    """
    nodes = f.grid_nodes()
    f_grid = f.grid_values().ravel()
    qf_grid = qf.grid_values().ravel()
    f_norm = f.lp_norm(f_grid, p)
    bnodes = f.boundary_nodes()
    a1_b = np.asarray(op.a[0](bnodes), dtype=complex)
    fb_vals = np.asarray(f_b(bnodes), dtype=complex)
    a_vals = [np.asarray(aj(nodes), dtype=complex) for aj in op.a]
    b_vals = np.asarray(op.b(nodes), dtype=complex)
    rows = []
    for eps in eps_list:
        tau = choose_tau(f, eps, p)
        kernel = DiracSequence(f.m, eps, tau)
        quad = kernel.quad_rule()
        f_eps, *partials = convolve_field(f, kernel, nodes, quad=quad)
        q_f_eps = b_vals * f_eps
        for a, df in zip(a_vals, partials):
            q_f_eps = q_f_eps + a * df
        qf_conv = convolve_field(qf, kernel, nodes, quad=quad)[0]
        trace = f_eps.reshape(f.shape)[-1].ravel()
        rows.append({
            "epsilon": eps,
            "tau": tau,
            "interior_err": f.lp_norm(f_eps - f_grid, p),
            "q_err": f.lp_norm(q_f_eps - qf_grid, p),
            "commutator_ratio": f.lp_norm(q_f_eps - qf_conv, p) / f_norm,
            "trace_err": f.trace_lp_norm(a1_b * (trace - fb_vals), p),
        })
    return {"rows": rows, "p": p}


REPORT_COLUMNS = ["epsilon", "tau", "interior_err", "q_err",
                  "commutator_ratio", "trace_err"]
