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
support, with the data sampled through its exact callable.  Friedrichs'
lemma mollifies an element (f, Qf) of the graph of Q with one kernel, and
so does convolve_field: a field whose callable returns the pair is sampled
once per shifted point, and the samples of f are contracted with the kernel
and each of its partials while those of Qf are contracted with the kernel,
so f * phi_eps, its derivatives and (Qf) * phi_eps all come from the same
evaluations.  Real data stays real: a field's samples are float64 when its
callable is real and complex128 otherwise, and the sums are kept in that
dtype.  The points are split into one contiguous slab per usable CPU; each
slab's worker samples and contracts one kernel node at a time with
elementwise arithmetic in a fixed order, so the result does not depend on
the number of CPUs or on the BLAS build.  No transforms; boundary handling
stays explicit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .fields import (_bump01, _bump01_deriv, smooth_transition,
                     smooth_transition_deriv, smooth_transition_deriv2)
from .geometry import _composite_gauss, _lp_norm, _tensor

__all__ = [
    "TangentialMollifier", "DiracSequence", "HalfSpaceField",
    "choose_tau", "slab_mass", "convolve_field", "convergence_report",
]


SLAB_DEPTH = 48   # dyadic panels toward the boundary in slab_mass
TAU_K_MAX = 40    # choose_tau tries tau down to eps * 2^-TAU_K_MAX
CONV_CHUNK = 64   # kernel nodes per partial sum in convolve_field


def _sphere_area(d):
    """Surface measure of S^{d-1}; the d=1 value 2 counts the two endpoints."""
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _radial_bump_mass(d):
    """Integral of exp(-1/(1-|x|^2)) over the unit ball of R^d."""
    if d == 0:
        return 1.0
    r, w = _composite_gauss(0.0, 1.0, 1, 80)
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


def _components(values, count):
    """A field callable's output, one array or a tuple, with count values in
    each component, made float64 if real and complex128 otherwise."""
    parts = [np.asarray(v) for v in (values if isinstance(values, tuple) else (values,))]
    for v in parts:
        if v.shape != (count,):
            raise ValueError(f"a field needs one value per point: got shape {v.shape} "
                             f"at {count} points")
    parts = [v.astype(float if np.isrealobj(v) else complex, copy=False) for v in parts]
    return tuple(parts) if isinstance(values, tuple) else parts[0]


class HalfSpaceField:
    """Real or complex field on a box inside the closed half-space {x_1 <= 0}.

    Backed by an exact callable func, sampled on an inclusive uniform grid
    (axis 0 runs up to x_1 = 0) the first time grid_values() is asked for,
    so a field singular on {x_1 = 0} that is only ever evaluated inside U
    never computes its infinite boundary samples.  func must be a pure
    function of its (N, m) points, row by row: convolve_field calls
    evaluate() on slabs of its points from several threads at once.

    func returns one value per point, or a tuple of such arrays: a graph
    field returns the pair (f, Qf).  evaluate() and grid_values() keep that
    shape, with each component float64 when it is real and complex128
    otherwise, and raise ValueError unless each has one value per point.

    The grid and its face {x_1 = 0} are trapezoid product rules; the face
    holds the normal axis as one node of weight 1.
    """

    def __init__(self, func, bounds, shape):
        self.bounds = np.asarray(bounds, dtype=float)
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) != len(self.bounds):
            raise ValueError(f"shape {self.shape} needs one bound row per axis, "
                             f"got {len(self.bounds)}")
        if abs(self.bounds[0, 1]) > 1e-14:
            raise ValueError("half-space grid must end at x_1 = 0")
        if self.shape[0] < 2:
            raise ValueError("the normal axis needs 2 or more samples to reach x_1 = 0")
        self.m = len(self.shape)
        self.axes = [np.linspace(lo, hi, k)
                     for (lo, hi), k in zip(self.bounds, self.shape)]
        self.axis_weights = [_trapezoid_weights(ax) for ax in self.axes]
        self.func = func
        self._nodes, self._weights = _tensor(self.axes, self.axis_weights)
        self._face = _tensor([np.zeros(1)] + self.axes[1:], [np.ones(1)] + self.axis_weights[1:])
        self._samples = None

    def grid_nodes(self):
        return self._nodes

    def grid_values(self):
        if self._samples is None:
            values = _components(self.func(self._nodes), len(self._nodes))
            self._samples = (tuple(v.reshape(self.shape) for v in values)
                             if isinstance(values, tuple) else values.reshape(self.shape))
        return self._samples

    def evaluate(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _components(self.func(x), len(x))

    def lp_norm(self, values, p):
        """Trapezoid L^p norm of grid values over the grid box (p=inf -> max)."""
        return _lp_norm(np.ravel(values), self._weights, p)

    def boundary_nodes(self):
        """Grid points on {x_1 = 0}: shape (prod(lateral shape), m)."""
        return self._face[0]

    def trace_lp_norm(self, values, p):
        """Trapezoid L^p norm over the lateral boundary grid."""
        return _lp_norm(np.ravel(values), self._face[1], p)


def _slab_panel(f, edges, p, samples):
    """(t1, wt, |f|^p, mass where h_tau = 0) of one slab panel, sampled once per samples dict."""
    if edges not in samples:
        t1, wt = _composite_gauss(*edges, 1, 10)
        pts, w = _tensor([t1] + f.axes[1:], [wt] + f.axis_weights[1:])
        vals = np.abs(f.evaluate(pts)) ** p
        samples[edges] = t1, wt, vals, float(np.sum(w * vals))
    return samples[edges]


def slab_mass(f, tau, p, samples=None):
    """int |f|^p (1 - h_tau(-t_1)) dt by boundary-refined panel quadrature.

    Panels: [-2tau, -tau], then dyadic halves of [-tau, 0) toward the
    boundary, so integrable singularities at t_1 = 0 are captured.  On the
    halves h_tau is exactly 0, so their masses do not depend on tau.

    samples, if given, is a dict that keeps each panel's samples and mass
    by its edges.  choose_tau shares one across its search: the panels of
    tau/2 are those of tau less [-2tau, -tau], plus one deeper half, so each
    panel is sampled once, and the sum is the same either way.
    """
    if samples is None:
        samples = {}
    t1, wt, vals, _ = _slab_panel(f, (-2.0 * tau, -tau), p, samples)
    _, w = _tensor([t1] + f.axes[1:],
                   [wt * (1.0 - smooth_transition(-t1 / tau))] + f.axis_weights[1:])
    total = float(np.sum(w * vals))
    left = -tau
    for _ in range(SLAB_DEPTH):
        total += _slab_panel(f, (left, left / 2.0), p, samples)[3]
        left /= 2.0
        if -left < 1e-280:
            break
    return total


def choose_tau(f, epsilon, p):
    """Largest dyadic tau = eps * 2^{-k} passing the boundary-slab criterion."""
    samples = {}   # one search's panel samples, shared by the taus it tries
    for k in range(TAU_K_MAX + 1):
        tau = epsilon * 2.0 ** (-k)
        if slab_mass(f, tau, p, samples) <= epsilon * epsilon:
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

    A graph field, whose callable returns the pair (f, Qf), gives shape
    (2+m, N): the rows above, then (Qf * k)(x) from the same samples.  The
    rows are float64 when every component is real and complex128 otherwise.

    The points are split into one contiguous slab of ceil(N / CPUs) points
    per usable CPU (an empty point set is one empty slab), and a pool of
    threads runs the slabs; numpy releases the GIL.  A slab's worker takes
    the rule CONV_CHUNK nodes at a time: it evaluates f at its points
    shifted by each node t_k in turn and adds c_r[k] * f(x - t_k) into its
    own (rows, slab) chunk partial in node order.  The short partial sums
    keep the rounding error of the 5,120-node m = 3 rule within 1e-13 of
    the sum, which one running sum over all nodes does not.  Every output
    element goes through the same chain of elementwise additions whatever
    the number of CPUs, and no matrix product (whose summation order
    depends on the BLAS build and its thread count) is involved.  Every
    temporary is slab-sized and reused.
    """
    t, w = quad
    base = w * kernel.values(t)
    coef = [base] + [w * kv - np.sum(w * kv) / np.sum(base) * base
                     for kv in kernel.grad(t).T]
    x = np.atleast_2d(np.asarray(x, dtype=float))
    count = x.shape[0]
    size = max(1, -(-count // len(os.sched_getaffinity(0))))
    slabs = [slice(lo, lo + size) for lo in range(0, max(count, 1), size)]

    def run(slab):
        xT = np.ascontiguousarray(x[slab].T)   # coordinate-major: x[:, j] contiguous
        shifted = np.empty_like(xT)
        total = None
        for start in range(0, len(t), CONV_CHUNK):
            for k in range(start, min(start + CONV_CHUNK, len(t))):
                np.subtract(xT, t[k][:, None], out=shifted)
                values = f.evaluate(shifted.T)
                comps = values if isinstance(values, tuple) else (values,)
                if total is None:
                    # f takes the kernel and every partial, Qf the kernel only
                    rows = [(0, c) for c in coef] + [(i, base) for i in range(1, len(comps))]
                    total = np.zeros((len(rows), xT.shape[1]), np.result_type(*comps))
                    part = np.zeros_like(total)
                    term = np.empty_like(total[0])
                for row, (i, c) in zip(part, rows):
                    np.multiply(c[k], comps[i], out=term)
                    row += term
            total += part
            part.fill(0.0)
        return total

    with ThreadPoolExecutor(len(slabs)) as pool:
        return np.concatenate(list(pool.map(run, slabs)), axis=1)   # re-raises a slab's error


def convergence_report(op, f, graph, f_b, eps_list, p):
    """Mollification diagnostics along an eps ladder.

    op: FirstOrderOperator; f: HalfSpaceField of the data, which gives the
    grid, tau, the norms and the trace; graph: HalfSpaceField on the same
    grid whose callable returns the pair (f, Qf), with f's values bit for
    bit, so that one convolution per eps mollifies the graph element
    (f, Qf); f_b: callable trace candidate on boundary nodes.  Row columns:
    (epsilon, tau, interior_err, q_err, commutator_ratio, trace_err).
    """
    nodes = f.grid_nodes()
    f_grid = f.grid_values().ravel()
    pair = graph.grid_values()
    if not (isinstance(pair, tuple) and len(pair) == 2
            and np.array_equal(pair[0], f.grid_values())):
        raise ValueError("graph must return the pair (f, Qf) with f's own values on f's grid")
    qf_grid = pair[1].ravel()
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
        f_eps, *partials, qf_conv = convolve_field(graph, kernel, nodes,
                                                   quad=kernel.quad_rule())
        q_f_eps = b_vals * f_eps
        for a, df in zip(a_vals, partials):
            q_f_eps = q_f_eps + a * df
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
