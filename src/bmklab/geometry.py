"""Domains and nested quadrature rules.

Supported regions: balls in R^m (complex dimension n = m/2 when forms are
involved), axis-aligned interval boxes, and half-space patches {x_1 < 0}
truncated to a box.  A domain is plain data: its kind and parameters.
Boundary rules carry outward unit normals nu: bmklab.exterior takes the
density of a (2n-1)-form against the surface measure as the top density of
nu_flat ^ form, so no rule needs tangent frames.

Rules are nested by an integer level: level L+1 doubles the node counts of
level L in every direction.  The sphere S^3 uses product angles
z1 = cos(eta) e^{i xi1}, z2 = sin(eta) e^{i xi2} with the substitution
u = sin^2(eta), which turns the cos*sin density into the flat measure du/2:
Gauss-Legendre in u and trapezoid rules in both periodic angles.  Monomials
survive the angular average only with matched conjugate powers, so their
eta-profiles are polynomials in u and the product rule integrates them
exactly; in particular the area comes out 2 pi^2 up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import leggauss

__all__ = [
    "Domain", "make_domain", "QuadratureRule", "volume_rule", "boundary_rule",
    "dist_boundary",
]

# base node counts at level 0; a level multiplies these by 2^level
BOX_PANELS = 1
BOX_ORDER = 12
BALL_RADIAL = {2: 8, 4: 6}             # Gauss nodes along the radius, by m
CIRCLE_NODES = 32
S3_ETA = 4
S3_XI = 8


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

    ValueError on a radius that is not finite and positive, a centre that is
    not an m-vector, or bounds that are not m rows [lo, hi] with lo < hi.
    """
    if kind == "ball":
        m = int(params.get("m", 2))
        R = float(params.get("radius", 1.0))
        c = np.asarray(params.get("center", np.zeros(m)), dtype=float)
        if not (np.isfinite(R) and R > 0) or c.shape != (m,):
            raise ValueError(f"ball needs a finite radius > 0 and a centre of length {m}")
        return Domain("ball", m, center=c, radius=R)

    if kind in ("interval-box", "half-space-patch"):
        bounds = np.asarray(params["bounds"], dtype=float)
        m = int(params.get("m", len(bounds)))
        if bounds.shape != (m, 2) or not np.all(bounds[:, 0] < bounds[:, 1]):
            raise ValueError(f"{kind} needs {m} bound rows [lo, hi] with lo < hi")
        if kind == "half-space-patch" and abs(bounds[0, 1]) > 1e-14:
            raise ValueError("half-space patch needs x1 upper bound 0")
        return Domain(kind, m, bounds=bounds)

    raise ValueError(f"unknown domain kind {kind!r}")


@dataclass
class QuadratureRule:
    """Nodes, weights and, on a boundary, outward unit normals nu (None inside).

    arrays is (nodes, weights).  A ball volume rule keeps shells instead:
    (r, shell_w, sph, sph_w, center), the radial nodes, the shell weights
    wr * r^(m-1), the unit-sphere rule and the centre, whose node
    i * len(sph) + j is r[i] * sph[j] + center with weight shell_w[i] * sph_w[j].
    part reads any node range from either; nodes and weights build a ball
    volume rule's arrays from part on first access and keep them.
    """
    spacing: float
    nu: Optional[np.ndarray] = None
    arrays: Optional[tuple] = None
    shells: Optional[tuple] = None

    def __len__(self):
        if self.arrays is not None:
            return len(self.arrays[1])
        r, _, sph, _, _ = self.shells
        return len(r) * len(sph)

    @property
    def nodes(self):
        return self._materialise()[0]

    @property
    def weights(self):
        return self._materialise()[1]

    def _materialise(self):
        if self.arrays is None:
            self.arrays = self.part(0, len(self))[:2]
        return self.arrays

    def part(self, lo, hi):
        """(nodes, weights, nu) of nodes lo:hi; nu is None off a boundary."""
        if self.arrays is not None:
            nu = None if self.nu is None else self.nu[lo:hi]
            return self.arrays[0][lo:hi], self.arrays[1][lo:hi], nu
        r, shell_w, sph, sph_w, center = self.shells
        size = len(sph)
        hi = min(hi, len(self))
        nodes, weights = np.empty((hi - lo, sph.shape[1])), np.empty(hi - lo)
        for i in range(lo // size, (hi + size - 1) // size):   # the shells lo:hi touches
            a, b = max(lo, i * size), min(hi, (i + 1) * size)
            out, src = slice(a - lo, b - lo), slice(a - i * size, b - i * size)
            np.multiply(r[i], sph[src], out=nodes[out])
            nodes[out] += center
            np.multiply(shell_w[i], sph_w[src], out=weights[out])
        return nodes, weights, None


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
    """Discrete L^p norm (sum_i w_i |v_i|^p)^(1/p) of values at weighted nodes; p=inf -> max."""
    values = np.abs(np.asarray(values))
    if values.size != len(weights):
        raise ValueError(f"{values.size} values for {len(weights)} weights")
    if np.isinf(p):
        return float(values.max())
    return float(np.sum(weights * values ** p) ** (1.0 / p))


def _gauss_axes(bounds, level):
    """Composite-Gauss (nodes, weights) of each box axis, and each axis's node spacing."""
    panels = BOX_PANELS * 2 ** level
    axes = [_composite_gauss(lo, hi, panels, BOX_ORDER) for lo, hi in bounds]
    steps = [(hi - lo) / (panels * BOX_ORDER) for lo, hi in bounds]
    return [a[0] for a in axes], [a[1] for a in axes], steps


def _sphere_rule(m, level):
    """Product rule on the unit sphere S^{m-1}: the circle (m = 2) or S^3 (m = 4).

    Returns (nodes, weights, spacing): unit nodes, also the outward normals;
    weights summing to the area; and the angular spacing.
    """
    scale = 2 ** level
    if m == 2:
        nt = CIRCLE_NODES * scale
        theta = 2.0 * np.pi * np.arange(nt) / nt
        cs, sn = np.cos(theta), np.sin(theta)
        spacing = 2.0 * np.pi / nt
        nodes, w = np.stack([cs, sn], axis=-1), np.full(nt, spacing)
    else:
        ne, nx = S3_ETA * scale, S3_XI * scale
        xe, we = leggauss(ne)
        eta = np.arcsin(np.sqrt((xe + 1.0) / 2.0))     # u = sin^2(eta) on [0, 1]
        xi = 2.0 * np.pi * np.arange(nx) / nx
        ones = np.ones(nx)
        # (1/2) du against the [0,1]-scaled rule, times both angle steps
        angles, w = _tensor([eta, xi, xi], [we / 4.0 * (2.0 * np.pi / nx) ** 2, ones, ones])
        E, A, B = angles.T
        nodes = np.stack([np.cos(E) * np.cos(A), np.cos(E) * np.sin(A),
                          np.sin(E) * np.cos(B), np.sin(E) * np.sin(B)], axis=-1)
        spacing = np.pi / (2 * ne)
    return nodes, w, spacing


def _check_level(level):
    """level as an int; ValueError unless it is an integer (np.int64 too) >= 0."""
    if not isinstance(level, (int, np.integer)) or level < 0:
        raise ValueError(f"rule level must be an integer >= 0, got {level!r}")
    return int(level)


def volume_rule(domain, level):
    """Interior product rule at the given refinement level."""
    level = _check_level(level)
    scale = 2 ** level
    if domain.kind == "ball" and domain.m in BALL_RADIAL:
        m, R = domain.m, domain.radius
        nr = BALL_RADIAL[m] * scale
        xr, wr = leggauss(nr)
        r = R * (xr + 1.0) / 2.0
        wr = R * wr / 2.0
        sph, sph_w, _ = _sphere_rule(m, level)
        return QuadratureRule(R / nr, shells=(r, wr * r ** (m - 1), sph, sph_w, domain.center))

    if domain.kind in ("interval-box", "half-space-patch"):
        axis_nodes, axis_weights, steps = _gauss_axes(domain.bounds, level)
        return QuadratureRule(max(steps), arrays=_tensor(axis_nodes, axis_weights))

    raise ValueError(f"no volume rule for {domain.kind} in dimension {domain.m}")


def boundary_rule(domain, level):
    """Boundary rule with outward unit normals."""
    level = _check_level(level)
    if domain.kind == "ball" and domain.m in BALL_RADIAL:
        R = domain.radius
        sph, sph_w, spacing = _sphere_rule(domain.m, level)
        return QuadratureRule(spacing * R, nu=sph,
                              arrays=(domain.center + R * sph, sph_w * R ** (domain.m - 1)))

    if domain.kind == "half-space-patch":
        # only the physical face {x1 = 0}; the other box faces are truncation
        return _face_rule(domain, axis=0, side=1, level=level)

    if domain.kind == "interval-box":
        parts = [_face_rule(domain, axis=k, side=s, level=level)
                 for k in range(domain.m) for s in (-1, 1)]
        nodes = np.concatenate([p.nodes for p in parts])
        w = np.concatenate([p.weights for p in parts])
        nu = np.concatenate([p.nu for p in parts])
        return QuadratureRule(parts[0].spacing, nu=nu, arrays=(nodes, w))

    raise ValueError(f"no boundary rule for {domain.kind} in dimension {domain.m}")


def _face_rule(domain, axis, side, level):
    """Rule on one box face, axis held at its lower (-1) or upper (+1) bound.

    The box rule's axes with the held axis as one node of weight 1; a face
    of an interval (m = 1) is that one node, with spacing 1.
    """
    m = domain.m
    axis_nodes, axis_weights, steps = _gauss_axes(domain.bounds, level)
    axis_nodes[axis] = np.array([domain.bounds[axis, 1 if side > 0 else 0]])
    axis_weights[axis] = np.ones(1)
    nodes, w = _tensor(axis_nodes, axis_weights)
    spacing = max(steps[:axis] + steps[axis + 1:], default=1.0)
    nu = np.zeros((len(w), m))
    nu[:, axis] = float(side)
    return QuadratureRule(spacing, nu=nu, arrays=(nodes, w))


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

