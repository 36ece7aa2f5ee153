"""Domains, quadrature rules, boundary normals, and boundary distance."""

import itertools
import math
import re

import numpy as np
import pytest
from bmklab import geometry
from bmklab.geometry import boundary_rule, dist_boundary, leggauss, make_domain, volume_rule


def test_disc_area_and_circumference():
    disc = make_domain("ball", m=2)
    assert np.isclose(volume_rule(disc, 2).weights.sum(), np.pi,
                      rtol=0, atol=1e-10)
    assert np.isclose(boundary_rule(disc, 2).weights.sum(), 2 * np.pi,
                      rtol=0, atol=1e-10)


def test_ball4_volume_and_sphere_area():
    """Vol(B^4) = pi^2/2 and Area(S^3) = 2 pi^2."""
    ball = make_domain("ball", m=4)
    assert np.isclose(volume_rule(ball, 1).weights.sum(), np.pi ** 2 / 2,
                      rtol=1e-8)
    assert np.isclose(boundary_rule(ball, 1).weights.sum(), 2 * np.pi ** 2,
                      rtol=0, atol=1e-8)


def test_scaled_ball_measures():
    ball = make_domain("ball", m=2, radius=0.5, center=[0.25, -0.1])
    assert np.isclose(volume_rule(ball, 1).weights.sum(), np.pi * 0.25,
                      rtol=1e-12)
    assert np.isclose(boundary_rule(ball, 1).weights.sum(), np.pi, rtol=1e-12)


def test_box_measures():
    box = make_domain("interval-box", bounds=[[-1.0, 1.0], [0.0, 0.5]])
    assert np.isclose(volume_rule(box, 1).weights.sum(), 1.0, rtol=1e-13)
    assert np.isclose(boundary_rule(box, 1).weights.sum(), 5.0, rtol=1e-13)


def test_interval_boundary_is_two_points():
    seg = make_domain("interval-box", bounds=[[-1.0, 0.0]])
    br = boundary_rule(seg, 0)
    assert sorted(br.nodes[:, 0]) == [-1.0, 0.0]
    assert np.allclose(br.weights, 1.0)


def test_volume_refinement_converges_on_smooth_integrand():
    disc = make_domain("ball", m=2)
    exact = np.pi / 2  # integral of x1^2 + x2^2 over the unit disc
    errs = []
    for level in (0, 1, 2):
        r = volume_rule(disc, level)
        val = np.sum(r.weights * (r.nodes ** 2).sum(axis=1))
        errs.append(abs(val - exact))
    assert errs[-1] < 1e-12


@pytest.mark.parametrize("kind,params", [
    ("ball", {"m": 2}),
    ("ball", {"m": 4}),
    ("interval-box", {"bounds": [[-1.0, 1.0], [0.0, 0.5]]}),
    ("half-space-patch", {"bounds": [[-1.0, 0.0], [-1.0, 1.0]]}),
])
def test_boundary_frames_orthonormal_outward(kind, params):
    """The normals boundary_rule integrates with, at levels 0-3: nu is a
    unit vector at every node and points out of D."""
    dom = make_domain(kind, **params)
    for level in range(4):
        br = boundary_rule(dom, level)
        assert br.nu.shape == br.nodes.shape == (len(br.weights), dom.m)
        assert np.allclose(np.linalg.norm(br.nu, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.all(dist_boundary(dom, br.nodes - 1e-6 * br.nu) > 0)


def test_dist_boundary_ball_and_box():
    disc = make_domain("ball", m=2)
    assert np.isclose(dist_boundary(disc, np.array([0.3, 0.0])), 0.7)
    box = make_domain("interval-box", bounds=[[0.0, 1.0], [0.0, 1.0]])
    assert np.isclose(dist_boundary(box, np.array([0.2, 0.5])), 0.2)


@pytest.mark.parametrize("kind, params", [
    ("ball", {"m": 3, "radius": 1.5, "center": [0.1, -0.2, 0.3]}),
    ("interval-box", {"bounds": [[-1.0, 1.0], [0.0, 0.5], [-0.5, 2.0]]}),
    ("half-space-patch", {"bounds": [[-1.0, 0.0], [-1.0, 1.0], [-1.0, 1.0]]}),
])
def test_dist_boundary_takes_points_of_any_leading_shape(kind, params):
    """(2, 3, m) points give (2, 3) distances, the bits of the (6, m) call
    reshaped, and one (m,) point gives a 0-d distance equal to the (1, m) call."""
    dom = make_domain(kind, **params)
    x = np.random.default_rng(6).uniform(-0.4, 0.0, (2, 3, 3))
    got = dist_boundary(dom, x)
    assert got.shape == (2, 3)
    assert got.tobytes() == dist_boundary(dom, x.reshape(6, 3)).reshape(2, 3).tobytes()
    one = dist_boundary(dom, x[1, 2])
    assert np.shape(one) == () and one == dist_boundary(dom, x[1, 2:])[0]


_LEVEL_DOMAINS = [("ball", {"m": 2}), ("ball", {"m": 4}),
                  ("interval-box", {"bounds": [[0.0, 1.0], [0.0, 0.5]]})]


@pytest.mark.parametrize("level", [-1, 1.5])
@pytest.mark.parametrize("kind, params", _LEVEL_DOMAINS)
@pytest.mark.parametrize("build", [volume_rule, boundary_rule])
def test_rule_level_must_be_an_integer_at_least_zero(build, kind, params, level):
    with pytest.raises(ValueError, match=re.escape(f"rule level must be an integer >= 0, "
                                                   f"got {level}")):
        build(make_domain(kind, **params), level)


@pytest.mark.parametrize("kind, params", _LEVEL_DOMAINS)
@pytest.mark.parametrize("build", [volume_rule, boundary_rule])
def test_numpy_integer_level_builds_the_same_rule(build, kind, params):
    dom = make_domain(kind, **params)
    got, want = build(dom, np.int64(1)), build(dom, 1)
    assert got.spacing == want.spacing
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.weights, want.weights)
    assert (got.nu is None and want.nu is None) or np.array_equal(got.nu, want.nu)


def test_spacing_halves_with_level():
    disc = make_domain("ball", m=2)
    s = [volume_rule(disc, lv).spacing for lv in (0, 1, 2)]
    assert np.isclose(s[0] / s[1], 2.0) and np.isclose(s[1] / s[2], 2.0)


def test_unknown_domain_kind_raises():
    with pytest.raises(ValueError):
        make_domain("torus")


def test_ellipsoid_kind_is_not_supported():
    with pytest.raises(ValueError, match="unknown domain kind 'ellipsoid'"):
        make_domain("ellipsoid", semi_axes=[1.0, 0.6])


@pytest.mark.parametrize("kind,params", [
    ("ball", {"m": 2, "radius": -1.0}),
    ("ball", {"m": 2, "radius": 0.0}),
    ("ball", {"m": 2, "radius": float("nan")}),
    ("ball", {"m": 4, "center": [0.0, 0.0]}),
    ("interval-box", {"bounds": [[1.0, -1.0], [0.0, 1.0]]}),
    ("interval-box", {"bounds": [[0.0, 0.0]]}),
    ("interval-box", {"m": 3, "bounds": [[-1.0, 1.0], [0.0, 1.0]]}),
    ("interval-box", {"bounds": [-1.0, 1.0]}),
    ("half-space-patch", {"bounds": [[-1.0, 0.0], [1.0, -1.0]]}),
])
def test_make_domain_rejects_malformed_input(kind, params):
    """A radius that is not positive, a centre of the wrong length, reversed
    or empty bounds and bound rows that disagree with m raise, rather than
    build a rule of negative, zero or misplaced measure."""
    with pytest.raises(ValueError):
        make_domain(kind, **params)


def _reference_s3(level):
    """The S^3 product rule built the straightforward way, with u = |z_2|^2
    on Gauss nodes and both angles on trapezoid nodes: nodes and weights."""
    nu, nx = 4 * 2 ** level, 8 * 2 ** level
    xu, wu = leggauss(nu)
    xi = 2.0 * np.pi * np.arange(nx) / nx
    U, A, B = np.meshgrid((xu + 1.0) / 2.0, xi, xi, indexing="ij")
    r1, r2 = np.sqrt(1.0 - U), np.sqrt(U)
    nodes = np.stack([r1 * np.cos(A), r1 * np.sin(A),
                      r2 * np.cos(B), r2 * np.sin(B)], axis=-1).reshape(-1, 4)
    w = ((wu / 4.0)[:, None, None] * np.ones((1, nx, nx)) * (2.0 * np.pi / nx) ** 2).ravel()
    return nodes, w


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_four_ball_rules_match_reference_bytes(level):
    """The in-place interior build and the boundary rule leave every array
    byte-identical to the straightforward construction, whose unit nodes are
    the normals; the level-3 interior rule is compared shell by shell."""
    ball = make_domain("ball", m=4, radius=0.8, center=[0.1, -0.2, 0.05, 0.0])
    R, c = ball.radius, ball.center
    sph, sph_w = _reference_s3(level)

    bnd = boundary_rule(ball, level)
    assert bnd.nodes.tobytes() == (c + R * sph).tobytes()
    assert bnd.weights.tobytes() == (sph_w * R ** 3).tobytes()
    assert bnd.nu.tobytes() == sph.tobytes()
    del bnd

    nr = 6 * 2 ** level
    xr, wr = leggauss(nr)
    r = R * (xr + 1.0) / 2.0
    wr = R * wr / 2.0
    vol = volume_rule(ball, level)
    assert vol.nu is None
    weights = (wr[:, None] * r[:, None] ** 3 * sph_w[None, :]).ravel()
    assert vol.weights.tobytes() == weights.tobytes()
    shells = vol.nodes.reshape(nr, len(sph), 4)
    for k in range(nr):
        assert shells[k].tobytes() == (r[k] * sph + c).tobytes()
    assert vol.spacing == R / nr


@pytest.mark.parametrize("params", [
    {"m": 2, "radius": 0.8, "center": [0.1, -0.2]},
    {"m": 4, "radius": 1.3, "center": [0.1, -0.2, 0.05, 0.3]},
])
@pytest.mark.parametrize("level", [0, 1])
def test_ball_volume_parts_match_materialised_bytes(params, level):
    """A ball volume rule keeps its factors, the unit-sphere nodes
    coordinate-major: len, part and weights build no (N, m) array, and part
    over 7-node ranges, which split shells, over whole shells and past the
    end gives coordinate-major blocks with the bytes of the materialised
    nodes and weights, which are C-ordered (N, m) and then kept."""
    rule = volume_rule(make_domain("ball", **params), level)
    r, sph = rule.shells[0], rule.shells[2]
    shell = sph.shape[1]
    assert sph.shape == (params["m"], shell) and sph.flags.c_contiguous
    size = len(rule)
    assert size == len(r) * shell
    parts = {step: [rule.part(lo, lo + step) for lo in range(0, size, step)]
             for step in (7, shell, size + 5)}
    weights = rule.weights
    assert rule.arrays is None and "nodes" not in vars(rule)
    nodes = rule.nodes
    assert rule.nodes is nodes and rule.weights is weights
    assert nodes.shape == (size, params["m"])
    assert nodes.flags.c_contiguous
    for chunks in parts.values():
        assert all(nu is None for _, _, nu in chunks)
        assert all(n.T.flags.c_contiguous for n, _, _ in chunks)
        assert np.concatenate([n for n, _, _ in chunks]).tobytes() == nodes.tobytes()
        assert np.concatenate([w for _, w, _ in chunks]).tobytes() == weights.tobytes()


@pytest.mark.parametrize("params", [
    {"kind": "ball", "m": 4},
    {"kind": "ball", "m": 2},
    {"kind": "interval-box", "bounds": [[0.0, 1.0], [-1.0, 1.0]]},
])
def test_part_past_the_end_is_empty(params):
    """part(lo, hi) from the end of the rule or past it gives an empty
    block, for a ball volume rule as for a rule that keeps its arrays."""
    domain = make_domain(**params)
    rule = volume_rule(domain, 0)
    size = len(rule)
    for lo in (size, size + 1, size + 1000):
        nodes, weights, nu = rule.part(lo, lo + 7)
        assert nodes.shape == (0, domain.m) and weights.shape == (0,) and nu is None
    nodes, weights, _ = rule.part(size - 3, size + 7)
    assert nodes.tobytes() == rule.nodes[size - 3:].tobytes()
    assert weights.tobytes() == rule.weights[size - 3:].tobytes()


@pytest.mark.parametrize("level", range(7))
def test_disc_rule_matches_reference_bytes(level):
    """The disc interior rule, written in place from the angles' cos and
    sin, is byte-identical to the meshgrid construction."""
    disc = make_domain("ball", m=2, radius=0.8, center=[0.1, -0.2])
    R, c = disc.radius, disc.center
    nr, nt = 8 * 2 ** level, 32 * 2 ** level
    xr, wr = leggauss(nr)
    r = R * (xr + 1.0) / 2.0
    wr = R * wr / 2.0
    theta = 2.0 * np.pi * np.arange(nt) / nt
    radii, angles = np.meshgrid(r, theta, indexing="ij")
    nodes = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1).reshape(-1, 2)
    weights = (wr[:, None] * r[:, None] * (2.0 * np.pi / nt) * np.ones(nt)).ravel()
    vol = volume_rule(disc, level)
    assert vol.nodes.tobytes() == (nodes + c).tobytes()
    assert vol.weights.tobytes() == weights.tobytes()
    assert vol.spacing == R / nr and vol.nu is None


@pytest.mark.parametrize("level", range(7))
def test_disc_boundary_rule_matches_reference_bytes(level):
    """The circle rule, scaled and shifted off the origin, is byte-identical
    to the trapezoid rule in the angle written out directly."""
    disc = make_domain("ball", m=2, radius=0.8, center=[0.1, -0.2])
    R, c = disc.radius, disc.center
    nt = 32 * 2 ** level
    theta = 2.0 * np.pi * np.arange(nt) / nt
    nu = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    bnd = boundary_rule(disc, level)
    assert bnd.nodes.tobytes() == (c + R * nu).tobytes()
    assert bnd.weights.tobytes() == np.full(nt, R * 2.0 * np.pi / nt).tobytes()
    assert bnd.nu.tobytes() == nu.tobytes()


@pytest.mark.parametrize("bounds", [[[-1.0, 0.0]], [[-0.3, 2.5]]])
@pytest.mark.parametrize("level", [0, 3])
def test_interval_boundary_rule_matches_reference_bytes(bounds, level):
    """An interval's boundary is its two endpoints, unit-weighted, with
    normals -1 and +1, at every level."""
    (lo, hi), = bounds
    br = boundary_rule(make_domain("interval-box", bounds=bounds), level)
    assert br.nodes.tobytes() == np.array([[lo], [hi]]).tobytes()
    assert br.weights.tobytes() == np.ones(2).tobytes()
    assert br.nu.tobytes() == np.array([[-1.0], [1.0]]).tobytes()


@pytest.mark.parametrize("bounds", [[[-1.0, 1.0], [-0.5, 2.0]],
                                    [[-1.0, 0.0], [-0.5, 2.0], [0.0, 1.5]]])
@pytest.mark.parametrize("level", [0, 2])
def test_box_boundary_rule_matches_reference_bytes(bounds, level):
    """Each box face is the composite-Gauss rule on the other axes with the
    held coordinate copied in and a constant normal, byte for byte."""
    bounds = np.asarray(bounds)
    m, panels = len(bounds), 2 ** level
    nodes, weights, normals = [], [], []
    for k in range(m):
        for side in (-1, 1):
            other = [j for j in range(m) if j != k]
            axes = [geometry._composite_gauss(lo, hi, panels, geometry.BOX_ORDER)
                    for lo, hi in bounds[other]]
            grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
            w = axes[0][1]
            for a in axes[1:]:
                w = np.multiply.outer(w, a[1])
            face = np.zeros((w.size, m))
            face[:, k] = bounds[k, 1] if side > 0 else bounds[k, 0]
            nu = np.zeros((w.size, m))
            nu[:, k] = side
            for i, j in enumerate(other):
                face[:, j] = grids[i].ravel()
            nodes.append(face)
            weights.append(w.ravel())
            normals.append(nu)
    br = boundary_rule(make_domain("interval-box", bounds=bounds), level)
    for got, want in ((br.nodes, nodes), (br.weights, weights), (br.nu, normals)):
        assert got.tobytes() == np.concatenate(want).tobytes()


def _folland(n, alpha):
    """int over S^(2n-1) of |z^alpha|^2 dsigma = 2 pi^n alpha! / (n - 1 + |alpha|)!."""
    num = math.prod(math.factorial(a) for a in alpha)
    return 2.0 * math.pi ** n * num / math.factorial(n - 1 + sum(alpha))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_rules_integrate_monomials_exactly(n):
    """At level 1 the sphere rule integrates z^alpha conj(z^beta), |alpha|,
    |beta| <= 3, over the unit sphere S^(2n-1) to 1e-13 relative: Folland's
    closed form where alpha = beta and 0 elsewhere, relative to the geometric
    mean of the two diagonal values.  The volume rule integrates |z^alpha|^2
    over the unit ball to the sphere value over 2n + 2|alpha|."""
    alphas = [a for a in itertools.product(range(4), repeat=n) if sum(a) <= 3]
    exact = np.array([_folland(n, a) for a in alphas])
    ball = make_domain("ball", m=2 * n)
    bnd = boundary_rule(ball, 1)
    z = bnd.nodes[:, 0::2] + 1j * bnd.nodes[:, 1::2]
    mono = np.stack([np.prod(z ** np.array(a), axis=1) for a in alphas], axis=1)
    gram = mono.T @ (bnd.weights[:, None] * mono.conj())
    assert np.all(np.abs(gram - np.diag(exact)) <= 1e-13 * np.sqrt(np.outer(exact, exact)))
    vol = volume_rule(ball, 1)
    u = vol.nodes[:, 0::2] ** 2 + vol.nodes[:, 1::2] ** 2
    for a, want in zip(alphas, exact / (2 * n + 2 * np.sum(alphas, axis=1))):
        got = np.sum(vol.weights * np.prod(u ** np.array(a), axis=1))
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("build", [volume_rule, boundary_rule])
def test_ball_rule_outside_the_table_names_the_dimension(build, m):
    """A ball of odd dimension, or of a complex dimension BALL_NODES does
    not list, has no rule: a ValueError naming the dimension."""
    with pytest.raises(ValueError, match=f"rule for ball in dimension {m}$"):
        build(make_domain("ball", m=m), 0)


#: every Gauss-Legendre order up to 512 the lab solves: the box and mollifier
#: kernel axes, the smooth step, and the ball radial and simplex axes to level 6
LAB_ORDERS = sorted({geometry.BOX_ORDER, 10, 16, 80} | {
    c * 2 ** level for nr, axis, _ in geometry.BALL_NODES.values()
    for c in (nr, axis) for level in range(7) if c * 2 ** level <= 512})


def _long_double_rule(n):
    """Gauss-Legendre nodes and weights of order n by Newton's method in
    long double on all n roots, from the guesses cos(pi (4k - 1)/(4n + 2)),
    with the weights 2/((1 - x^2) P_n'(x)^2) at the converged nodes."""
    k = np.arange(n, 0, -1, dtype=np.longdouble)
    x = np.cos(np.longdouble(np.pi) * (4 * k - 1) / (4 * n + 2))

    def newton():
        prev, cur = np.ones_like(x), x.copy()
        for j in range(1, n):
            prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
        dp = n * (prev - x * cur) / ((1 - x) * (1 + x))
        return cur / dp, dp

    for _ in range(20):
        dx, dp = newton()
        x = x - dx
        if np.abs(dx).max() <= 4 * np.finfo(np.longdouble).eps:
            break
    dx, dp = newton()
    return x - dx, 2 / ((1 - x) * (1 + x) * dp * dp)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("order", LAB_ORDERS)
def test_leggauss_matches_a_long_double_reference(order):
    """Every order the lab solves lies within 2e-16 of the long double rule
    in its nodes and 2e-12 relative in its weights, the endpoint weights
    included (numpy's eigenvalue rule is off by 1.1e-10 there at 512)."""
    x, w = leggauss(order)
    x_ref, w_ref = _long_double_rule(order)
    assert np.abs(x - x_ref).max() <= 2e-16
    assert np.abs(w / w_ref - 1).max() <= 2e-12


@pytest.mark.parametrize("order", LAB_ORDERS)
def test_leggauss_integrates_legendre_polynomials_exactly(order):
    """The order-n rule integrates P_0 to 2 and every P_k, 1 <= k <= 2n - 1,
    to 0, within 1e-14; P_k comes from the three-term recurrence."""
    x, w = leggauss(order)
    prev, cur = np.ones_like(x), x.copy()
    errors = [abs(w.sum() - 2.0), abs(w @ cur)]
    for k in range(1, 2 * order - 1):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        errors.append(abs(w @ cur))
    assert max(errors) <= 1e-14


@pytest.mark.parametrize("order", LAB_ORDERS + [3, 7, 81, 511])
def test_leggauss_is_exactly_symmetric(order):
    """Nodes ascend inside (-1, 1) with x == -x[::-1] and weights w ==
    w[::-1] bit for bit; an odd rule's middle node is +0.0."""
    x, w = leggauss(order)
    assert len(x) == len(w) == order
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert x.tobytes() == (-x[::-1] + 0.0).tobytes()
    assert w.tobytes() == w[::-1].tobytes() and np.all(w > 0)
    if order % 2:
        assert x[order // 2] == 0.0 and not np.signbit(x[order // 2])


@pytest.mark.parametrize("order", [0, -1, 2.5])
def test_leggauss_names_an_order_that_is_not_a_positive_integer(order):
    with pytest.raises(ValueError, match=f"integer >= 1, got {re.escape(repr(order))}$"):
        leggauss(order)


@pytest.mark.parametrize("order", [1, 10, 12, 64, 512])
def test_cached_leggauss_is_solved_once_and_read_only(order):
    """geometry.leggauss is fields.leggauss: each order is solved once, a
    second call returns the same objects, and they cannot be written."""
    x, w = geometry.leggauss(order)
    again = geometry.leggauss(order)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("level", range(3))
def test_circle_rules_solve_no_simplex_axis(level, monkeypatch):
    """At n = 1 the sphere rule has no simplex axis: the circle rule solves
    no Gauss rule and the disc interior rule only its radial one, and the
    circle rule keeps the trapezoid bytes."""
    solved = []
    monkeypatch.setattr(geometry, "leggauss", lambda order: solved.append(order)
                        or leggauss(order))
    disc = make_domain("ball", m=2)
    bnd = boundary_rule(disc, level)
    assert solved == []
    volume_rule(disc, level)
    assert solved == [8 * 2 ** level]
    nt = 32 * 2 ** level
    theta = 2.0 * np.pi * np.arange(nt) / nt
    assert bnd.nu.tobytes() == np.stack([np.cos(theta), np.sin(theta)], axis=-1).tobytes()
    assert bnd.weights.tobytes() == np.full(nt, 2.0 * np.pi / nt).tobytes()
