"""Generalized Young inequality lab for kernel integral operators.

Admissibility of exponent pairs (p, r) for T f(y) = int_X K(x,y) f(x) dmu
under row/column majorant bounds int_X |K|^t dmu <= g in L^a(Y) and
int_Y |K|^s dnu <= h in L^b(X), with 1 <= t <= s < infinity.  Three cases:

  I.   p >= t/(t-1) (p = infinity when t = 1) and r <= a t.
  II.  r = 1 and p >= sb/(sb-1) (p >= 1 when b = infinity), p finite.
  III. under the case II condition and sb != t, the single line
       1/r = (sb/(sb-t)) (1/p + 1/t - 1), capped by r <= t (a(s-t)/s + 1).

Infinity conventions are total: 1/infinity = 0, a 1/r of zero means
r = infinity, b = infinity collapses the case III slope to 1, and
a = infinity removes the case I and case III caps.  Infinite exponents
are plain math.inf so ordinary float arithmetic applies.

Empirical norms are max-over-samples lower bounds: the sample family is
a normalized constant plus seeded random polynomial-times-bump functions,
so enlarging the family can only raise the estimate.  The point is
boundedness and refinement stability, not sharp constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bmk import kernel_norm
from .fields import _bump01
from .geometry import _lp_norm, boundary_rule, dist_boundary, volume_rule

__all__ = [
    "INF", "inv", "ExponentPair", "KernelSpec",
    "admissible_exponents", "empirical_norm", "bmk_kernel_norm_constant",
    "bmk_norm_kernel", "log_bound_fit", "log_majorant_integral",
    "scan_rows", "SCAN_COLUMNS",
]

INF = math.inf
LOG_FIT_K = range(1, 9)   # log_bound_fit ladder: dist(y, bD) = 2^-k * radius


def inv(x):
    """Total reciprocal on [1, infinity]: inv(inf) = 0, inv(0) = inf."""
    if x == INF:
        return 0.0
    if x == 0.0:
        return INF
    return 1.0 / x


@dataclass(frozen=True)
class ExponentPair:
    p: float
    r: float
    case_tag: str


def _materialize(descriptor, level):
    """The volume rule of ('domain', dom) or the boundary rule of ('boundary', dom)."""
    kind, dom = descriptor
    if kind == "domain":
        return volume_rule(dom, level)
    if kind == "boundary":
        return boundary_rule(dom, level)
    raise ValueError(f"unknown rule descriptor kind {kind!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel operator data: spaces, |K|, and the majorant exponents.

    X and Y are descriptors ('domain' | 'boundary', dom).
    The X rule, the Y rule and the |Y| x |X| kernel matrix are built once per
    level, on the first empirical_norm at that level, and kept for every
    later one.
    """
    X: object
    Y: object
    kernel: object
    t: float
    s: float
    a: float
    b: float
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (1.0 <= self.t <= self.s < INF):
            raise ValueError("exponents must satisfy 1 <= t <= s < infinity")
        for name in ("a", "b"):
            v = getattr(self, name)
            if not (1.0 <= v <= INF):
                raise ValueError(f"{name} must lie in [1, infinity]")

    def _at(self, level):
        """(X rule, Y rule, kernel matrix) at level, built on first use."""
        if level not in self._built:
            X = _materialize(self.X, level)
            Y = _materialize(self.Y, level)
            # kernels take (all x, one y), so the matrix is built row by row
            kmat = np.empty((len(Y.nodes), len(X.nodes)))
            for i, y in enumerate(Y.nodes):
                kmat[i] = self.kernel(X.nodes, y)
            bad = np.argwhere(~np.isfinite(kmat))
            if len(bad):
                i, j = bad[0]
                raise ValueError(f"kernel is not finite at x = {X.nodes[j]}, y = {Y.nodes[i]} "
                                 f"(x node {j}, y node {i}): {kmat[i, j]}")
            self._built[level] = (X, Y, kmat)
        return self._built[level]


def _p_minima(spec):
    """Smallest p of case I and of cases II/III (infinity when none)."""
    t, sb = spec.t, spec.s * spec.b
    p_min_1 = t / (t - 1.0) if t > 1.0 else INF
    if spec.b == INF:
        p_min_2 = 1.0
    elif sb > 1.0:
        p_min_2 = sb / (sb - 1.0)
    else:
        p_min_2 = INF
    return p_min_1, p_min_2


def admissible_exponents(spec, p):
    """All extremal admissible (p, r) pairs for the three cases.

    Case I and III report the largest admissible r (finite measures nest
    the L^r scale downward), case II reports r = 1.
    """
    if not (1.0 <= p <= INF):
        raise ValueError("p must lie in [1, infinity]")
    t, s, a, b = spec.t, spec.s, spec.a, spec.b
    p_min_1, p_min_2 = _p_minima(spec)
    pairs = []
    if p >= p_min_1:
        pairs.append(ExponentPair(p, a * t, "I"))

    sb = s * b
    if p_min_2 <= p < INF:
        pairs.append(ExponentPair(p, 1.0, "II"))
        if sb != t:
            slope = 1.0 if b == INF else sb / (sb - t)
            inv_r = slope * (inv(p) + inv(t) - 1.0)
            if inv_r == 0.0:
                r = INF
            elif inv_r > 0.0:
                r = 1.0 / inv_r
            else:
                r = None
            cap = INF if a == INF else t * (a * (s - t) / s + 1.0)
            if r is not None and 1.0 <= r <= cap:
                pairs.append(ExponentPair(p, r, "III"))
    return pairs


def _sample_functions(space, count, seed, p):
    """Normalized test functions: one constant, then polynomial*bump draws."""
    rng = np.random.default_rng(seed)
    nodes = space.nodes
    m = nodes.shape[1]
    center = nodes.mean(axis=0)
    spread = max(float(np.linalg.norm(nodes - center, axis=1).max()), 1e-12)
    funcs = [np.ones(len(nodes))]
    for _ in range(count - 1):
        coeffs = rng.standard_normal(1 + 2 * m)
        vals = np.full(len(nodes), coeffs[0])
        for k in range(m):
            vals = vals + coeffs[1 + 2 * k] * nodes[:, k]
            vals = vals + coeffs[2 + 2 * k] * nodes[:, k] ** 2
        c = nodes[rng.integers(len(nodes))]
        rad = spread * rng.uniform(0.8, 1.6)
        bump = np.asarray(_bump01(np.linalg.norm(nodes - c, axis=1) / rad))
        funcs.append(vals * (0.25 + bump))
    out = []
    for f in funcs:
        nrm = _lp_norm(f, space.weights, p)
        if nrm > 1e-14:
            out.append(f / nrm)
    return out


def empirical_norm(spec, p, r, sample_count=20, seed=0, level=1):
    """Max over normalized samples of ||T f||_r; a lower bound on ||T||."""
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count!r}")
    pairs = admissible_exponents(spec, p)
    if not any(r <= pair.r + 1e-12 for pair in pairs):
        if pairs:
            why = "; ".join(f"case {pair.case_tag} admits only r <= {pair.r}" for pair in pairs)
        else:
            p_min_1, p_min_2 = _p_minima(spec)
            why = (f"no case admits p: case I needs p >= {p_min_1}, "
                   f"cases II/III need {p_min_2} <= p < infinity")
        raise ValueError(f"(p={p}, r={r}) is not admissible: {why}")
    X, Y, kmat = spec._at(level)
    samples = _sample_functions(X, sample_count, seed, p)
    if not samples:
        return 0.0
    tf = kmat @ (X.weights * np.stack(samples)).T
    return max([0.0] + [_lp_norm(col, Y.weights, r) for col in tf.T])


def bmk_kernel_norm_constant(n, q):
    """A with ||B_nq(x,y)|| = A/|x-y|^(2n-1); exact by homogeneity."""
    x = np.zeros(2 * n)
    x[0] = 1.0
    return kernel_norm(n, q, x, np.zeros(2 * n))


def bmk_norm_kernel(n, q):
    """Vectorized |K(x,y)| for the kernel norm, as a scan/lab kernel."""
    a = bmk_kernel_norm_constant(n, q)
    power = 2 * n - 1

    def kern(xs, y):
        d = np.linalg.norm(np.asarray(xs) - np.asarray(y), axis=-1)
        with np.errstate(divide="ignore"):
            return a / d ** power
    return kern


def _boundary_mass_ladder(domain, level):
    """dist(y, bD) and int_bD ||K(x,y)|| dS for the q = 0 BMK kernel, at the
    points y that approach the boundary along the first axis over LOG_FIT_K."""
    if domain.kind != "ball":
        raise ValueError(f"the log bound ladder needs a ball, got {domain.kind!r}")
    n = domain.n_complex
    power = 2 * n - 1
    a_const = bmk_kernel_norm_constant(n, 0)
    rule = boundary_rule(domain, level)
    deltas, values = [], []
    direction = np.zeros(2 * n)
    direction[0] = 1.0
    for k in LOG_FIT_K:
        delta = 2.0 ** (-k)
        y = domain.center + (domain.radius - delta * domain.radius) * direction
        d = np.linalg.norm(rule.nodes - y, axis=1)
        values.append(float(np.sum(rule.weights * a_const / d ** power)))
        deltas.append(float(dist_boundary(domain, y)))
    return deltas, values


def log_bound_fit(domain, level=1):
    """Fit int_bD ||K(x,y)|| dS <= C0 + C1 |log dist(y, bD)| on a dyadic ladder.

    K is the q = 0 BMK kernel, whose norm is A/|x-y|^(2n-1), and the ladder
    approaches the boundary along the first axis over LOG_FIT_K.  C1 comes
    from least squares on the ladder values; C0 is lifted so the
    bound majorizes every sample, making fit_residual (the largest excess
    of the data over the bound) <= 0 by construction.
    """
    deltas, values = _boundary_mass_ladder(domain, level)
    logs = np.abs(np.log(np.asarray(deltas)))
    vals = np.asarray(values)
    design = np.stack([np.ones_like(logs), logs], axis=1)
    (c0_ls, c1), *_ = np.linalg.lstsq(design, vals, rcond=None)
    c0 = c0_ls + max(0.0, float(np.max(vals - (c0_ls + c1 * logs)))) + 1e-12
    fit_residual = float(np.max(vals - (c0 + c1 * logs)))
    return float(c0), float(c1), fit_residual


def log_majorant_integral(domain, c0, c1, a, level=1):
    """Quadrature of (C0 + C1 |log dist(y,bD)|)^a over the domain."""
    rule = volume_rule(domain, level)
    delta = np.maximum(dist_boundary(domain, rule.nodes), 1e-300)
    vals = (c0 + c1 * np.abs(np.log(delta))) ** a
    return float(np.sum(rule.weights * vals))


SCAN_COLUMNS = ["t", "s", "a", "b", "p", "r", "case", "estimate", "level"]


def scan_rows(spec, p_values, sample_count=20, seed=0, level=1):
    """Admissibility scan plus empirical norms for every returned pair.

    A row's estimate is NaN (not estimated) when p or r is infinite.
    """
    rows = []
    for p in p_values:
        for pair in admissible_exponents(spec, p):
            r_eval = pair.r
            if r_eval == INF or p == INF:
                estimate = math.nan
            else:
                estimate = empirical_norm(spec, p, r_eval, sample_count,
                                          seed=seed, level=level)
            rows.append({"t": spec.t, "s": spec.s, "a": spec.a, "b": spec.b,
                         "p": p, "r": pair.r, "case": pair.case_tag,
                         "estimate": estimate, "level": level})
    return rows

