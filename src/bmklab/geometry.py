"""Domains and nested quadrature rules.

Supported regions: balls in R^m (complex dimension n = m/2 when forms are
involved), axis-aligned interval boxes, and half-space patches {x_1 < 0}
truncated to a box.  A domain is plain data: its kind and parameters.
Boundary rules carry outward unit normals nu: bmklab.exterior takes the
density of a (2n-1)-form against the surface measure as the top density of
nu_flat ^ form, so no rule needs tangent frames.

Rules are nested by an integer level: level L+1 doubles the node counts of
level L in every direction.  The unit sphere S^(2n-1) in C^n takes the
coordinates u_k = |z_k|^2 on the simplex sum u = 1 and theta_k = arg z_k,
in which the surface measure is flat: dsigma = 2^(1-n) du dtheta, du the
Lebesgue measure of (u_2, ..., u_n).  One rule serves every n: collapsed
Gauss on the simplex times the trapezoid rule in each angle.  Monomials
survive the angular average only with matched conjugate powers, so what
is left is a polynomial in u, which the rule integrates exactly up to a
degree that grows with the level; in particular the area comes out
2 pi^n/(n-1)! up to roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import _whole, leggauss

__all__ = [
    "Domain", "make_domain", "QuadratureRule", "volume_rule", "boundary_rule",
    "dist_boundary",
]

# base node counts at level 0; a level multiplies these by 2^level
BOX_PANELS = 1
BOX_ORDER = 12
# by complex dimension n: Gauss nodes along the radius, Gauss nodes per
# simplex axis and trapezoid nodes per angle of the unit sphere S^(2n-1)
BALL_NODES = {1: (8, 1, 32), 2: (6, 4, 8), 3: (6, 2, 6)}


@dataclass
class Domain:
    kind: str
    m: int
    center: np.ndarray | None = None
    radius: float | None = None
    semi_axes: None = None             # no kind has semi-axes; perfbench's layertrace reads it
    bounds: np.ndarray | None = None   # (m, 2) for boxes / half-space patches

    @property
    def n_complex(self):
        if self.m % 2:
            raise ValueError("domain dimension is odd; no complex structure")
        return self.m // 2


def make_domain(kind, **params):
    """Construct a domain: ball | interval-box | half-space-patch.

    ValueError on a parameter the kind does not read, an m that is not an
    integer >= 1, a radius that is not finite and positive, a centre that
    is not an m-vector, or bounds that are not m rows [lo, hi] with lo < hi.
    """
    reads = {"ball": ("m", "radius", "center"), "interval-box": ("m", "bounds"),
             "half-space-patch": ("m", "bounds")}.get(kind)
    if reads is None:
        raise ValueError(f"unknown domain kind {kind!r}")
    unread = sorted(set(params).difference(reads))
    if unread:
        raise ValueError(f"{kind} does not read {unread}")
    if kind == "ball":
        m = _whole("m", params.get("m", 2), 1)
        R = float(params.get("radius", 1.0))
        c = np.asarray(params.get("center", np.zeros(m)), dtype=float)
        if not (np.isfinite(R) and R > 0) or c.shape != (m,):
            raise ValueError(f"ball needs a finite radius > 0 and a centre of length {m}")
        return Domain("ball", m, center=c, radius=R)

    bounds = np.asarray(params["bounds"], dtype=float)
    m = _whole("m", params.get("m", len(bounds)), 1)
    if bounds.shape != (m, 2) or not np.all(bounds[:, 0] < bounds[:, 1]):
        raise ValueError(f"{kind} needs {m} bound rows [lo, hi] with lo < hi")
    if kind == "half-space-patch" and abs(bounds[0, 1]) > 1e-14:
        raise ValueError("half-space patch needs x1 upper bound 0")
    return Domain(kind, m, bounds=bounds)


@dataclass
class QuadratureRule:
    """Nodes, weights and, on a boundary, outward unit normals nu (None inside);
    an interior rule also has its node spacing, which a boundary rule leaves None.

    arrays is (nodes, weights), nodes (N, m).  A ball volume rule keeps
    shells instead: (r, shell_w, sph, sph_w, center), the radial nodes, the
    shell weights wr * r^(m-1), the unit-sphere rule with its nodes
    coordinate-major, (m, S), and the centre, whose node i * S + j is
    r[i] * sph[:, j] + center with weight shell_w[i] * sph_w[j].
    part(lo, hi) reads nodes lo:hi, clipped to the rule, so a range past the
    end is empty.  A ball volume rule writes each part's nodes
    coordinate-major, as the (B, m) transpose of an (m, B) array, so a
    coordinate's values are contiguous.  nodes, C-ordered (N, m), and
    weights are each written on first access and kept.
    """
    spacing: Optional[float] = None
    nu: Optional[np.ndarray] = None
    arrays: Optional[tuple] = None
    shells: Optional[tuple] = None

    def __len__(self):
        if self.shells is None:
            return len(self.arrays[1])
        r, _, sph, _, _ = self.shells
        return len(r) * sph.shape[1]

    @functools.cached_property
    def nodes(self):
        if self.shells is None:
            return self.arrays[0]
        nodes = np.empty((len(self), len(self.shells[2])))
        self._write(0, len(self), nodes)
        return nodes

    @functools.cached_property
    def weights(self):
        if self.shells is None:
            return self.arrays[1]
        _, shell_w, _, sph_w, _ = self.shells
        return np.multiply.outer(shell_w, sph_w).ravel()

    def part(self, lo, hi):
        """(nodes, weights, nu) of nodes lo:hi; nu is None off a boundary."""
        if self.shells is None:
            nu = None if self.nu is None else self.nu[lo:hi]
            return self.arrays[0][lo:hi], self.arrays[1][lo:hi], nu
        hi = min(hi, len(self))
        lo = min(lo, hi)
        nodes, weights = np.empty((len(self.shells[2]), hi - lo)).T, np.empty(hi - lo)
        self._write(lo, hi, nodes, weights)
        return nodes, weights, None

    def _write(self, lo, hi, nodes, weights=None):
        """Write a ball volume rule's nodes lo:hi into nodes, (hi - lo, m) in
        any layout, and, unless None, their weights into weights.

        A part of a shell at either end of lo:hi is written on its own, and
        every whole shell between them in one broadcast call each for the
        nodes, the centre and the weights, so a block of many small shells
        costs a few numpy calls, not three per shell.  Each value is the
        same product r[i] * sph[:, j] + center or shell_w[i] * sph_w[j]
        either way.
        """
        r, shell_w, sph, sph_w, center = self.shells
        m, size = sph.shape
        first, last = -(-lo // size), hi // size   # shells first:last lie whole in lo:hi
        cuts = [lo, hi] if first > last else [lo, first * size, last * size, hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a == b:
                continue
            i = a // size
            if a % size or (b - a) % size:   # inside shell i
                shells, src = 1, slice(a - i * size, b - i * size)
            else:
                shells, src = (b - a) // size, slice(None)
            # (shells, nodes per shell, m) views of the rows a:b, never copies
            out = nodes[a - lo:b - lo].reshape(shells, -1, m)
            np.multiply(r[i:i + shells, None, None], sph[:, src].T, out=out)
            out += center
            if weights is not None:
                np.multiply(shell_w[i:i + shells, None], sph_w[src],
                            out=weights[a - lo:b - lo].reshape(shells, -1))


def _composite_gauss(lo, hi, panels, order):
    x, w = leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _tensor(axis_nodes, axis_weights):
    """Product rule of per-axis rules: (N, m) nodes, last axis fastest, and flat weights.

    Every product grid is built here; an axis held fixed is a one-node axis
    of weight 1, which leaves the other axes' weight products unchanged.
    """
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    w = axis_weights[0]
    for aw in axis_weights[1:]:
        w = np.multiply.outer(w, aw)
    return nodes, w.ravel()


def _lp_norm(values, weights, p):
    """Discrete L^p norm (sum_i w_i |v_i|^p)^(1/p) of values at weighted nodes; p=inf -> max.

    A p outside 1 <= p <= inf is a ValueError naming it."""
    if not 1 <= p <= np.inf:
        raise ValueError(f"an L^p norm needs 1 <= p <= inf, got p = {p!r}")
    values = np.abs(np.asarray(values))
    if values.size != len(weights):
        raise ValueError(f"{values.size} values for {len(weights)} weights")
    if np.isinf(p):
        return float(values.max())
    return float(np.sum(weights * values ** p) ** (1.0 / p))


def _gauss_axes(bounds, level):
    """Composite-Gauss (nodes, weights) of each box axis."""
    axes = [_composite_gauss(lo, hi, BOX_PANELS * 2 ** level, BOX_ORDER) for lo, hi in bounds]
    return [a[0] for a in axes], [a[1] for a in axes]


def _sphere_rule(n, level):
    """Product rule on the unit sphere S^(2n-1) in C^n: (nodes, weights),
    unit nodes, also the outward normals, and weights summing to the area.

    Collapsed Gauss puts v_k = |z_k|^2, k = 2..n, on the simplex: v_k is the
    rest 1 - (v_2 + ... + v_(k-1)) times a Gauss node on [0, 1], with that
    rest as Jacobian, and |z_1|^2 is the last rest.  z_k = sqrt(u_k) e^(i theta_k);
    the simplex axes vary slowest, then theta_1..theta_n; at n = 1 there is
    no simplex axis, so no Gauss rule is solved.
    """
    _, axis, t = (c * 2 ** level for c in BALL_NODES[n])
    if n > 1:
        x, w = leggauss(axis)
        s = (x + 1.0) / 2.0
    rest, v, sw = np.ones(1), [], np.full(1, 2.0 ** (1 - n))
    for _ in range(n - 1):
        sw = np.multiply.outer(sw * rest, w / 2.0).ravel()
        v = [np.repeat(a, axis) for a in v] + [np.multiply.outer(rest, s).ravel()]
        rest = np.multiply.outer(rest, 1.0 - s).ravel()
    theta = 2.0 * np.pi * np.arange(t) / t
    cs, sn = np.cos(theta), np.sin(theta)
    nodes = np.empty((len(sw),) + (t,) * n + (2 * n,))
    for k, u in enumerate([rest] + v):
        r = np.sqrt(u).reshape((-1,) + (1,) * n)
        angle = (1,) * k + (t,) + (1,) * (n - k - 1)
        nodes[..., 2 * k] = r * cs.reshape(angle)
        nodes[..., 2 * k + 1] = r * sn.reshape(angle)
    return nodes.reshape(-1, 2 * n), np.repeat(sw * (2.0 * np.pi / t) ** n, t ** n)


def volume_rule(domain, level):
    """Interior product rule at the given refinement level."""
    level = _whole("rule level", level, 0)
    n = domain.m // 2
    if domain.kind == "ball" and domain.m == 2 * n and n in BALL_NODES:
        m, R = domain.m, domain.radius
        nr = BALL_NODES[n][0] * 2 ** level
        xr, wr = leggauss(nr)
        r = R * (xr + 1.0) / 2.0
        wr = R * wr / 2.0
        sph, sph_w = _sphere_rule(n, level)
        return QuadratureRule(R / nr, shells=(r, wr * r ** (m - 1), np.ascontiguousarray(sph.T),
                                              sph_w, domain.center))

    if domain.kind in ("interval-box", "half-space-patch"):
        spacing = max(hi - lo for lo, hi in domain.bounds) / (BOX_PANELS * 2 ** level * BOX_ORDER)
        return QuadratureRule(spacing, arrays=_tensor(*_gauss_axes(domain.bounds, level)))

    raise ValueError(f"no volume rule for {domain.kind} in dimension {domain.m}")


def boundary_rule(domain, level):
    """Boundary rule with outward unit normals."""
    level = _whole("rule level", level, 0)
    n = domain.m // 2
    if domain.kind == "ball" and domain.m == 2 * n and n in BALL_NODES:
        R = domain.radius
        sph, sph_w = _sphere_rule(n, level)
        return QuadratureRule(nu=sph, arrays=(domain.center + R * sph, sph_w * R ** (domain.m - 1)))

    if domain.kind == "half-space-patch":
        # only the physical face {x1 = 0}; the other box faces are truncation
        return _face_rule(domain, axis=0, side=1, level=level)

    if domain.kind == "interval-box":
        parts = [_face_rule(domain, axis=k, side=s, level=level)
                 for k in range(domain.m) for s in (-1, 1)]
        nodes = np.concatenate([p.nodes for p in parts])
        w = np.concatenate([p.weights for p in parts])
        nu = np.concatenate([p.nu for p in parts])
        return QuadratureRule(nu=nu, arrays=(nodes, w))

    raise ValueError(f"no boundary rule for {domain.kind} in dimension {domain.m}")


def _face_rule(domain, axis, side, level):
    """Rule on one box face, axis held at its lower (-1) or upper (+1) bound.

    The box rule's axes with the held axis as one node of weight 1; a face
    of an interval (m = 1) is that one node.
    """
    m = domain.m
    axis_nodes, axis_weights = _gauss_axes(domain.bounds, level)
    axis_nodes[axis] = np.array([domain.bounds[axis, 1 if side > 0 else 0]])
    axis_weights[axis] = np.ones(1)
    nodes, w = _tensor(axis_nodes, axis_weights)
    nu = np.zeros((len(w), m))
    nu[:, axis] = float(side)
    return QuadratureRule(nu=nu, arrays=(nodes, w))


def dist_boundary(domain, x):
    """Distance to the boundary of points x (..., m) inside the closed domain: values (...)."""
    x = np.asarray(x, dtype=float)
    if domain.kind == "ball":
        return domain.radius - np.linalg.norm(x - domain.center, axis=-1)
    if domain.kind == "interval-box":
        return np.min(np.minimum(x - domain.bounds[:, 0], domain.bounds[:, 1] - x), axis=-1)
    if domain.kind == "half-space-patch":
        return -x[..., 0]
    raise ValueError(domain.kind)

