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
support, with the data sampled through its exact callable.  A field's
callable takes a list of m coordinate arrays that broadcast against each
other and returns values of their broadcast shape.  Scattered points pass
their full columns; a tensor grid passes its open grid (np.ix_ shapes), so
a subexpression of one coordinate runs once per value on that axis, not
once per grid point.  convolve_field reduces its output points once to
such coordinates, and every kernel node's shifted grid x - t_k keeps them:
each coordinate is shifted along its own axis.

Friedrichs' lemma mollifies an element (f, Qf) of the graph of Q with one
kernel, and so does convolve_field: a field whose callable returns the
pair is sampled once per shifted point, and the samples of f are
contracted with the kernel and each of its partials while those of Qf are
contracted with the kernel, so f * phi_eps, its derivatives and
(Qf) * phi_eps all come from the same evaluations.  Real data stays real:
a field's samples are float64 when its callable is real and complex128
otherwise, and the sums are kept in that dtype.  The points are split
along their leading axis into one contiguous slab per usable CPU, run by
fields._on_cpus; each slab's worker samples and contracts one kernel node
at a time with elementwise arithmetic in a fixed order, so the result
does not depend on the number of CPUs, on the BLAS build or on whether
the points came as a grid or as a scattered stack.  No transforms;
boundary handling stays explicit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import fields
from .fields import (_bump01, _bump01_deriv, smooth_transition,
                     smooth_transition_deriv, smooth_transition_deriv2)
from .geometry import _composite_gauss, _lp_norm, _tensor

__all__ = [
    "DiracSequence", "HalfSpaceField",
    "choose_tau", "slab_mass", "convolve_field", "convergence_report",
]


SLAB_DEPTH = 48   # dyadic panels toward the boundary in slab_mass
TAU_K_MAX = 40    # choose_tau tries tau down to eps * 2^-TAU_K_MAX
CONV_CHUNK = 64   # kernel nodes per partial sum in convolve_field


def _scale(name, value):
    """value as a float; a ValueError naming it unless it is finite and > 0."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _sphere_area(d):
    """Surface measure of S^{d-1}; the d=1 value 2 counts the two endpoints."""
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _radial_bump_mass(d):
    """Integral of exp(-1/(1-|x|^2)) over the unit ball of R^d; that of R^0 is one point."""
    if d == 0:
        return float(_bump01(0.0))
    r, w = _composite_gauss(0.0, 1.0, 1, 80)
    return float(_sphere_area(d) * np.sum(w * _bump01(r) * r ** (d - 1)))


class DiracSequence:
    """phi_eps(t) = psi_eps(t') * h'(t_1/tau)/tau, supported in a shifted slab.

    h is fields.smooth_transition, the smoothed step with h = 0 below 1,
    h = 1 above 2 and h' >= 0.  The support {tau < t_1 < 2tau} x {|t'| < eps}
    sits strictly inside {t_1 > 0}, which is what pushes the convolution
    sampling into the open half-space.  psi_eps is the unit-mass radial bump
    fields._bump01(|t'|/eps) on the ball |t'| < eps of R^{m-1}.
    """

    def __init__(self, m, epsilon, tau):
        self.m = m
        self.epsilon = _scale("epsilon", epsilon)
        self.tau = _scale("tau", tau)
        if self.tau > self.epsilon:
            raise ValueError(f"need tau <= epsilon, got tau = {tau!r} > epsilon = {epsilon!r}")
        self.mass = _radial_bump_mass(m - 1)

    def _lateral(self, t):
        """t'/eps, |t'|/eps and psi_eps(t') at the lateral coordinates t' of t."""
        y = t[:, 1:] / self.epsilon
        r = np.linalg.norm(y, axis=-1)
        return y, r, _bump01(r) / self.mass / self.epsilon ** (self.m - 1)

    def values(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        return self._lateral(t)[2] * smooth_transition_deriv(t[:, 0] / self.tau) / self.tau

    def grad(self, t):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        y, r, lat = self._lateral(t)
        rho = smooth_transition_deriv(t[:, 0] / self.tau) / self.tau
        dlat = (_bump01_deriv(r) / self.mass / np.maximum(r, 1e-300))[:, None] * y
        out = np.empty((t.shape[0], self.m))
        out[:, 0] = lat * smooth_transition_deriv2(t[:, 0] / self.tau) / self.tau ** 2
        out[:, 1:] = dlat / self.epsilon ** self.m * rho[:, None]
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
    h = axis_nodes[1] - axis_nodes[0]
    w = np.full(len(axis_nodes), h)
    w[0] = w[-1] = h / 2.0
    return w


def _components(values, shape):
    """A field callable's output, one array or a tuple, made float64 if real
    and complex128 otherwise; each component must have shape, or a shape
    that broadcasts to it (a field of fewer coordinates)."""
    parts = [np.asarray(v) for v in (values if isinstance(values, tuple) else (values,))]
    for v in parts:
        if v.shape == shape:
            continue
        try:
            fits = np.broadcast_shapes(v.shape, shape) == shape
        except ValueError:
            fits = False
        if not fits:
            raise ValueError(f"a field's values need the shape {shape} of its coordinates "
                             f"or one that broadcasts to it: got shape {v.shape}")
    parts = [v.astype(float if np.isrealobj(v) else complex, copy=False) for v in parts]
    return tuple(parts) if isinstance(values, tuple) else parts[0]


def _sample(func, coords, shape=None):
    """func at a list of coordinate arrays, checked against their broadcast
    shape; a caller that samples many shifts of the same arrays passes it."""
    if shape is None:
        shape = np.broadcast_shapes(*(c.shape for c in coords))
    return _components(func(coords), shape)


def _coefficient(field, points):
    """field's values at points (..., m), float64 when no imaginary part is
    nonzero; a constant polynomial gives its scalar, real when its imaginary
    part is 0, so no array of one value is built."""
    if field.is_poly and set(field.terms) <= {(0,) * field.m}:
        c = field.terms.get((0,) * field.m, 0.0)
        return c.real if c.imag == 0 else c
    v = np.asarray(field(points))
    return v.real.copy() if np.iscomplexobj(v) and not np.any(v.imag) else v


def _full(values, shape):
    """Sampled values, each broadcast to shape as a writable array."""
    def full(v):
        return v if v.shape == shape else np.broadcast_to(v, shape).copy()
    return tuple(map(full, values)) if isinstance(values, tuple) else full(values)


class HalfSpaceField:
    """Real or complex field on a box inside the closed half-space {x_1 <= 0}.

    Backed by an exact callable func, sampled on an inclusive uniform grid
    (axis 0 runs up to x_1 = 0) the first time grid_values() is asked for,
    so a field singular on {x_1 = 0} that is only ever evaluated inside U
    never computes its infinite boundary samples.

    func takes a list of m coordinate arrays that broadcast against each
    other, and returns values of their broadcast shape: one value per
    point, or a tuple of such arrays (a graph field returns the pair
    (f, Qf)).  A component may have a shape that broadcasts to that one,
    as a field of x_1 alone gives on an open grid.  func must be a pure
    elementwise function of the coordinates: evaluate() passes the columns
    x[..., k] of scattered points, grid_values() the open grid
    np.ix_(*axes), and convolve_field, through fields._on_cpus, the open
    grid of its points shifted by each kernel node.  evaluate() and
    grid_values() return each component at full shape, float64 when it is
    real and complex128 otherwise, and raise ValueError naming both shapes
    when a component's shape does not broadcast to the coordinates'.

    The grid and its face {x_1 = 0} are trapezoid product rules; the face
    holds the normal axis as one node of weight 1.  Each is built the
    first time it is asked for, so a field that is only sampled (a graph
    field in convergence_report) never holds its (N, m) nodes.
    """

    def __init__(self, func, bounds, shape):
        self.bounds = np.asarray(bounds, dtype=float)
        self.shape = tuple(fields._whole("a grid shape entry", s, 0) for s in shape)
        if len(self.shape) != len(self.bounds):
            raise ValueError(f"shape {self.shape} needs one bound row per axis, "
                             f"got {len(self.bounds)}")
        if abs(self.bounds[0, 1]) > 1e-14:
            raise ValueError("half-space grid must end at x_1 = 0")
        if not np.all(np.isfinite(self.bounds)) or np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ValueError("every bound row needs finite lo < hi")
        if min(self.shape) < 2:
            raise ValueError(f"every axis needs 2 or more samples, the normal axis to reach "
                             f"x_1 = 0: got shape {self.shape}")
        self.m = len(self.shape)
        self.axes = [np.linspace(lo, hi, k)
                     for (lo, hi), k in zip(self.bounds, self.shape)]
        self.axis_weights = [_trapezoid_weights(ax) for ax in self.axes]
        self.func = func
        self._samples = None

    @functools.cached_property
    def _grid(self):
        return _tensor(self.axes, self.axis_weights)

    @functools.cached_property
    def _face(self):
        return _tensor([np.zeros(1)] + self.axes[1:], [np.ones(1)] + self.axis_weights[1:])

    def grid_nodes(self):
        return self._grid[0]

    def grid_values(self):
        if self._samples is None:
            self._samples = _full(_sample(self.func, list(np.ix_(*self.axes))), self.shape)
        return self._samples

    def evaluate(self, x):
        """Values at an (..., m) array of points, of shape x.shape[:-1]."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _full(_sample(self.func, [x[..., k] for k in range(x.shape[-1])]),
                     x.shape[:-1])

    def lp_norm(self, values, p):
        """Trapezoid L^p norm of grid values over the grid box (p=inf -> max)."""
        return _lp_norm(np.ravel(values), self._grid[1], p)

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
    Needs 1 <= p < inf: at p = inf, |f|^p is 0 or inf; and a finite tau > 0.
    """
    if not 1 <= p < np.inf:
        raise ValueError(f"slab_mass needs 1 <= p < inf, got p = {p!r}")
    tau = _scale("tau", tau)
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
    """Largest dyadic tau = eps * 2^{-k} passing the boundary-slab criterion;
    eps must be finite and > 0."""
    epsilon = _scale("epsilon", epsilon)
    samples = {}   # one search's panel samples, shared by the taus it tries
    for k in range(TAU_K_MAX + 1):
        tau = epsilon * 2.0 ** (-k)
        if slab_mass(f, tau, p, samples) <= epsilon * epsilon:
            return tau
    raise ValueError(
        "no admissible normal scale down to eps*2^-%d; the boundary slab "
        "carries too much mass at this resolution - refine the sample grid "
        "or enlarge eps" % TAU_K_MAX)


def _open_grid(x):
    """The m coordinates of an (..., m) point array, each of length 1 along
    every axis on which its bits are constant.

    A tensor grid of shape (n_1, ..., n_m, m) gives its open grid, the
    np.ix_ shapes, and an (N, m) stack of scattered points its full
    columns.  Axes of length 0 or 1 are kept as they are.
    """
    bits = x.view(np.uint64)
    coords = []
    for d in range(x.shape[-1]):
        b = bits[..., d]
        keep = tuple(slice(0, 1) if n > 1 and np.all(b == b.take([0], axis=a)) else slice(None)
                     for a, n in enumerate(b.shape))
        coords.append(np.ascontiguousarray(x[..., d][keep]))
    return coords


def convolve_field(f, kernel, x, *, quad):
    """f * k and f * d_j k at the (..., m) points x, shape (1+m,) + x.shape[:-1],
    from one pass over f.

    Row 0 is (f * k)(x) = sum_t w_t k(t) f(x - t) over the kernel support
    rule and row 1+j uses the j-th partial of k, so derivatives of the
    mollification come from kernel derivatives.  Derivative rows get their
    discrete zeroth moment projected to the exact value 0 (the raw defect is
    O(quad error)/tau and would otherwise put a floor under the commutator
    diagnostics).  quad is the kernel's (nodes, weights) rule,
    kernel.quad_rule().

    A graph field, whose callable returns the pair (f, Qf), gives 2+m
    rows: the rows above, then (Qf * k)(x) from the same samples.  The
    rows are float64 when every component is real and complex128 otherwise.

    x is reduced once to its open-grid coordinates (_open_grid), so a
    tensor grid is sampled through per-axis coordinate arrays and an
    (N, m) stack through full columns, on the same path; a point that is
    not finite is a ValueError naming it, found from those coordinates, so
    the check adds no grid-sized temporary.  The leading axis
    of x is split into one contiguous slab of ceil(n / CPUs) entries per
    usable CPU (an empty point set is one empty slab); fields._on_cpus runs
    them, and their rows are joined in order.  A slab's worker takes
    the rule CONV_CHUNK nodes at a time: it calls f's callable on its
    coordinates shifted by each node t_k in turn and adds c_r[k] * f(x - t_k)
    into its own chunk partial in node order.  The short partial sums keep
    the rounding error of the 5,120-node m = 3 rule within 1e-13 of the
    sum, which one running sum over all nodes does not.  Every output
    element goes through the same chain of elementwise additions whatever
    the number of CPUs and whatever the shape of x, and no matrix product
    (whose summation order depends on the BLAS build and its thread count)
    is involved.  Every temporary is slab-sized and reused.
    """
    t, w = quad
    base = w * kernel.values(t)
    coef = [base] + [w * kv - np.sum(w * kv) / np.sum(base) * base
                     for kv in kernel.grad(t).T]
    x = np.ascontiguousarray(np.atleast_2d(x), dtype=float)
    if x.shape[-1] != t.shape[1]:
        raise ValueError(f"points of shape {x.shape} need {t.shape[1]} coordinates each")
    coords = _open_grid(x)
    if not all(np.isfinite(c).all() for c in coords):
        fields._check_finite(x.reshape(-1, x.shape[-1]))
    size = max(1, -(-len(x) // fields._usable_cpus()))
    slabs = [slice(lo, lo + size) for lo in range(0, max(len(x), 1), size)]
    totals = [None] * len(slabs)

    def run(claim):
        for s in claim:
            mine = [c if len(c) == 1 else c[slabs[s]] for c in coords]
            shape = x[slabs[s]].shape[:-1]
            shifted = [np.empty_like(c) for c in mine]
            # the shifted coordinates' broadcast shape, the same at every node
            sampled = np.broadcast_shapes(*(c.shape for c in mine))
            total = None
            for start in range(0, len(t), CONV_CHUNK):
                for k in range(start, min(start + CONV_CHUNK, len(t))):
                    for src, dst, tk in zip(mine, shifted, t[k]):
                        np.subtract(src, tk, out=dst)
                    values = _sample(f.func, shifted, sampled)
                    comps = values if isinstance(values, tuple) else (values,)
                    if total is None:
                        # f takes the kernel and every partial, Qf the kernel only
                        rows = [(0, c) for c in coef] + [(i, base) for i in range(1, len(comps))]
                        total = np.zeros((len(rows),) + shape, np.result_type(*comps))
                        part = np.zeros_like(total)
                        term = np.empty_like(total[0])
                    for row, (i, c) in zip(part, rows):
                        np.multiply(c[k], comps[i], out=term)
                        row += term
                total += part
                part.fill(0.0)
            totals[s] = total

    fields._on_cpus(run, len(slabs))
    return np.concatenate(totals, axis=1)


def convergence_report(op, f, graph, f_b, eps_list, p):
    """Mollification diagnostics along an eps ladder.

    op: FirstOrderOperator; f: HalfSpaceField of the data, which gives the
    grid, tau, the norms and the trace; graph: HalfSpaceField on the same
    grid whose callable returns the pair (f, Qf), with f's values bit for
    bit, so that one convolution per eps mollifies the graph element
    (f, Qf); f_b: trace candidate, a callable of the HalfSpaceField kind,
    sampled at the columns of f's boundary nodes.  The convolutions run on
    f's grid nodes as an (n_1, ..., n_m, m) array.  Row columns:
    (epsilon, tau, interior_err, q_err, commutator_ratio, trace_err).
    p must satisfy 1 <= p < inf, as in slab_mass.

    op's coefficients are evaluated once on the grid, and one whose
    imaginary parts are all zero is kept as float64, so Q f_eps is real
    when f and the coefficients are; a constant coefficient stays a
    scalar.  Each rung is worked out by a helper that returns its row: no
    rung's arrays are alive during the next rung's convolution.
    """
    if not 1 <= p < np.inf:
        raise ValueError(f"convergence_report needs 1 <= p < inf, got p = {p!r}")
    nodes = f.grid_nodes()
    f_grid = f.grid_values().ravel()
    pair = graph.grid_values()
    if not (isinstance(pair, tuple) and len(pair) == 2
            and np.array_equal(pair[0], f.grid_values())):
        raise ValueError("graph must return the pair (f, Qf) with f's own values on f's grid")
    qf_grid = pair[1].ravel()
    f_norm = f.lp_norm(f_grid, p)
    bnodes = f.boundary_nodes()
    a1_b = _coefficient(op.a[0], bnodes)
    fb_vals = _sample(f_b, list(bnodes.T))
    a_vals = [_coefficient(aj, nodes) for aj in op.a]
    b_vals = _coefficient(op.b, nodes)
    points = nodes.reshape(f.shape + (f.m,))

    def rung(eps):
        tau = choose_tau(f, eps, p)
        kernel = DiracSequence(f.m, eps, tau)
        conv = convolve_field(graph, kernel, points, quad=kernel.quad_rule())
        f_eps, *partials, qf_conv = conv.reshape(len(conv), -1)
        q_f_eps = b_vals * f_eps
        for a, df in zip(a_vals, partials):
            q_f_eps = q_f_eps + a * df
        trace = f_eps.reshape(f.shape)[-1].ravel()
        return {
            "epsilon": eps,
            "tau": tau,
            "interior_err": f.lp_norm(f_eps - f_grid, p),
            "q_err": f.lp_norm(q_f_eps - qf_grid, p),
            "commutator_ratio": f.lp_norm(q_f_eps - qf_conv, p) / f_norm,
            "trace_err": f.trace_lp_norm(a1_b * (trace - fb_vals), p),
        }

    return {"rows": [rung(eps) for eps in eps_list], "p": p}


REPORT_COLUMNS = ["epsilon", "tau", "interior_err", "q_err",
                  "commutator_ratio", "trace_err"]
