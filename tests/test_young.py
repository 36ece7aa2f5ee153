"""Exponent admissibility, empirical operator norms, and the log bound.

Closed-form oracles:

  - K == 1 on [0,1]^2 is rank one with L^2 -> L^2 norm exactly 1;
  - at the disc center the boundary mass of the kernel norm is
    A * 2 pi = sqrt(2), and stripping the constant leaves 2 pi;
  - int_0^1 |log u|^a du = a! (Gamma(a+1)), so on the unit disc
    int_D |log dist(y, bD)|^a dV = 2 pi a! (1 - 2^-(a+1)).
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from bmklab import bmk, cli, young
from bmklab.geometry import _lp_norm, boundary_rule, make_domain, volume_rule

INF = math.inf
DISC = make_domain("ball", m=2)
UNIT_INTERVAL = ("domain", make_domain("interval-box", bounds=[[0.0, 1.0]]))


def _disc_spec():
    return young.KernelSpec(X=("boundary", DISC), Y=("domain", DISC),
                            kernel=young.bmk_norm_kernel(1, 0),
                            t=1.0, s=1.5, a=4.0, b=INF)


def test_inv_conventions():
    assert young.inv(INF) == 0.0
    assert young.inv(0.0) == INF
    assert young.inv(1.0) == 1.0


@given(st.floats(min_value=1.0, max_value=1e6))
def test_inv_is_an_involution(x):
    assert np.isclose(young.inv(young.inv(x)), x, rtol=1e-12)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        young.KernelSpec(None, None, None, t=2.0, s=1.5, a=2.0, b=2.0)
    with pytest.raises(ValueError):
        young.KernelSpec(None, None, None, t=1.0, s=1.0, a=0.5, b=2.0)
    with pytest.raises(ValueError):
        young.admissible_exponents(_disc_spec(), 0.9)


def test_case_arithmetic_on_disc_spec():
    """t=1, s=1.5, a=4, b=inf: case III is the line r=p capped at 7/3,
    case II is always r=1, case I admits only p=inf with r <= a t = 4."""
    spec = _disc_spec()
    for p in (1.0, 1.5, 2.0, 2.25):
        by_case = {q.case_tag: q.r for q in young.admissible_exponents(spec, p)}
        assert by_case["II"] == 1.0
        assert np.isclose(by_case["III"], p, rtol=1e-12)
    over_cap = {q.case_tag for q in young.admissible_exponents(spec, 4.0)}
    assert over_cap == {"II"}
    at_inf = young.admissible_exponents(spec, INF)
    assert [(q.p, q.r, q.case_tag) for q in at_inf] == [(INF, 4.0, "I")]


@given(st.floats(min_value=1.0, max_value=4.0),
       st.floats(min_value=1.0, max_value=40.0))
def test_case_iii_line_is_identity_without_cap(s, p):
    """t=1, b=inf, a=inf: the unique case-III line is r=p for every p."""
    spec = young.KernelSpec(None, None, None, t=1.0, s=s, a=INF, b=INF)
    third = [q for q in young.admissible_exponents(spec, p) if q.case_tag == "III"]
    assert len(third) == 1
    assert np.isclose(third[0].r, p, rtol=1e-12)


def test_case_iii_skipped_when_sb_equals_t():
    spec = young.KernelSpec(None, None, None, t=2.0, s=2.0, a=INF, b=1.0)
    tags = {q.case_tag for q in young.admissible_exponents(spec, 4.0)}
    assert "III" not in tags


_GRID = [1.0, 1.5, 2.0, 4.0, INF]


def _max_r(spec, p):
    return max((q.r for q in young.admissible_exponents(spec, p)), default=None)


@given(st.sampled_from([1.0, 1.5, 2.0]), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from(_GRID), st.sampled_from(_GRID),
       st.sampled_from(_GRID), st.sampled_from([1.0, 1.25, 2.0, 6.0, INF]))
def test_enlarging_a_never_shrinks_admissible_set(t, ds, a, a2, b, p):
    """Raising a grows the case-I range and the case-III cap, all else
    fixed, so the best admissible r is monotone in a."""
    if a2 < a:
        a, a2 = a2, a
    s = t + ds
    small = young.KernelSpec(None, None, None, t, s, a, b)
    big = young.KernelSpec(None, None, None, t, s, a2, b)
    r1, r2 = _max_r(small, p), _max_r(big, p)
    if r1 is not None:
        assert r2 is not None and r2 >= r1 - 1e-9


@given(st.sampled_from([1.0, 1.5, 2.0]), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from(_GRID), st.sampled_from(_GRID),
       st.sampled_from([1.0, 1.25, 2.0, 6.0, INF]))
def test_enlarging_b_never_shrinks_admissible_set_without_cap(t, ds, b, b2, p):
    """With a=inf there is no case-III cap, so raising b flattens the
    case-III slope and widens the case-II window monotonically.  (With a
    finite the line can climb past the cap and drop out, so the uncapped
    setting is the honest monotone statement.)"""
    if b2 < b:
        b, b2 = b2, b
    s = t + ds
    small = young.KernelSpec(None, None, None, t, s, INF, b)
    big = young.KernelSpec(None, None, None, t, s, INF, b2)
    r1, r2 = _max_r(small, p), _max_r(big, p)
    if r1 is not None:
        assert r2 is not None and r2 >= r1 - 1e-9


def test_rank_one_kernel_norm_is_one():
    spec = young.KernelSpec(X=UNIT_INTERVAL, Y=UNIT_INTERVAL,
                            kernel=lambda xs, y: np.ones(len(xs)),
                            t=1.0, s=1.0, a=INF, b=INF)
    est = young.empirical_norm(spec, 2.0, 2.0, sample_count=8, seed=3)
    assert 0.9 <= est <= 1.0 + 1e-9


def test_zero_kernel_norm_is_zero():
    spec = young.KernelSpec(X=UNIT_INTERVAL, Y=UNIT_INTERVAL,
                            kernel=lambda xs, y: np.zeros(len(xs)),
                            t=1.0, s=1.0, a=INF, b=INF)
    assert young.empirical_norm(spec, 2.0, 2.0, sample_count=4) == 0.0


def test_empirical_norm_monotone_in_sample_count():
    spec = _disc_spec()
    small = young.empirical_norm(spec, 2.0, 2.0, sample_count=4, seed=0)
    big = young.empirical_norm(spec, 2.0, 2.0, sample_count=12, seed=0)
    assert big >= small


def test_empirical_norm_stable_under_refinement():
    spec = _disc_spec()
    e1 = young.empirical_norm(spec, 2.0, 2.0, sample_count=10, seed=0, level=1)
    e2 = young.empirical_norm(spec, 2.0, 2.0, sample_count=10, seed=0, level=2)
    assert abs(e2 - e1) / e1 < 0.10


def test_empirical_norm_matches_per_y_loop():
    """Oracle: the kernel-matrix form equals the explicit per-(sample, y) sum."""
    spec = _disc_spec()
    X = young._materialize(spec.X, 1)
    Y = young._materialize(spec.Y, 1)
    for p in (1.5, 2.0):
        want = 0.0
        for f in young._sample_functions(X, 6, 3, p):
            tf = np.array([np.sum(X.weights * f * spec.kernel(X.nodes, y))
                           for y in Y.nodes])
            want = max(want, _lp_norm(tf, Y.weights, p))
        got = young.empirical_norm(spec, p, p, sample_count=6, seed=3, level=1)
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("count", [0, -3])
def test_empirical_norm_needs_one_sample(count):
    with pytest.raises(ValueError, match=rf"sample_count must be at least 1, got {count}"):
        young.empirical_norm(_disc_spec(), 2.0, 2.0, sample_count=count)


def test_non_finite_kernel_matrix_names_the_first_pair():
    """X = Y puts every node on the kernel's pole; the first non-finite
    entry is at x node 0, y node 0."""
    spec = young.KernelSpec(X=("domain", DISC), Y=("domain", DISC),
                            kernel=young.bmk_norm_kernel(1, 0),
                            t=1.0, s=1.5, a=4.0, b=INF)
    with pytest.raises(ValueError, match=r"kernel is not finite at .*\(x node 0, y node 0\): inf"):
        young.empirical_norm(spec, 2.0, 2.0, sample_count=3)


def test_scan_rows_equal_fresh_spec_norms_bit_for_bit():
    """The spec keeps its kernel matrix across the scan's rows; each row's
    estimate equals the norm taken on a spec that has built nothing yet."""
    rows = young.scan_rows(_disc_spec(), [1.0, 1.5, 2.0, INF], sample_count=5, seed=2)
    estimated = [row for row in rows if not math.isnan(row["estimate"])]
    assert len(estimated) == 6
    for row in estimated:
        want = young.empirical_norm(_disc_spec(), row["p"], row["r"], 5, seed=2, level=1)
        assert row["estimate"] == want


def test_kernel_called_once_per_y_node_per_level():
    calls = []
    kern = young.bmk_norm_kernel(1, 0)

    def counted(xs, y):
        calls.append(1)
        return kern(xs, y)

    spec = young.KernelSpec(X=("boundary", DISC), Y=("domain", DISC), kernel=counted,
                            t=1.0, s=1.5, a=4.0, b=INF)
    y1 = len(volume_rule(DISC, 1).weights)
    y2 = len(volume_rule(DISC, 2).weights)
    young.scan_rows(spec, [1.0, 1.5, 2.0], sample_count=3, level=1)
    assert len(calls) == y1
    young.scan_rows(spec, [1.0, 2.0], sample_count=4, seed=5, level=2)
    assert len(calls) == y1 + y2
    young.empirical_norm(spec, 1.5, 1.5, sample_count=2, level=1)
    assert len(calls) == y1 + y2


@pytest.mark.parametrize("n,q", [(1, 0), (2, 0), (2, 1)])
def test_bmk_norm_kernel_matches_pointwise_kernel_norm(n, q):
    """Oracle: the closed form A/|x-y|^(2n-1) equals the symbolic norm."""
    rng = np.random.default_rng(10 * n + q)
    kern = young.bmk_norm_kernel(n, q)
    xs = rng.uniform(-1, 1, (25, 2 * n))
    for y in rng.uniform(-1, 1, (4, 2 * n)):
        want = np.array([bmk.kernel_norm(n, q, x, y) for x in xs])
        assert np.allclose(kern(xs, y), want, rtol=1e-12, atol=0)


def test_inadmissible_pair_error_names_constraint():
    spec = _disc_spec()
    with pytest.raises(ValueError, match=r"case III admits only r <= 2"):
        young.empirical_norm(spec, 2.0, 10.0)


def test_inadmissible_p_error_names_the_p_ranges():
    """t = 1.5 and s b = 4: case I needs p >= 3 and cases II/III p >= 4/3,
    so no case admits p = 1.2 and the error gives both ranges."""
    spec = young.KernelSpec(X=("boundary", DISC), Y=("domain", DISC),
                            kernel=young.bmk_norm_kernel(1, 0), t=1.5, s=2.0, a=4.0, b=2.0)
    assert young.admissible_exponents(spec, 1.2) == []
    with pytest.raises(ValueError, match=r"no case admits p: case I needs p >= 3\.0, "
                                         r"cases II/III need 1\.333\d* <= p < infinity"):
        young.empirical_norm(spec, 1.2, 1.0)


def test_center_point_boundary_mass():
    """I(0) = A * 2 pi = sqrt(2); without the constant it is 2 pi."""
    rule = boundary_rule(DISC, 5)
    A = young.bmk_kernel_norm_constant(1, 0)
    I0 = float(np.sum(rule.weights * A / np.linalg.norm(rule.nodes, axis=1)))
    assert np.isclose(I0, math.sqrt(2), rtol=1e-12)
    assert np.isclose(I0 / A, 2 * np.pi, rtol=1e-12)


def test_boundary_mass_grows_toward_boundary():
    rule = boundary_rule(DISC, 6)
    A = young.bmk_kernel_norm_constant(1, 0)
    vals = []
    for k in range(1, 9):
        y = np.array([1.0 - 2.0 ** (-k), 0.0])
        d = np.linalg.norm(rule.nodes - y, axis=1)
        vals.append(float(np.sum(rule.weights * A / d)))
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_log_bound_fit_majorizes_and_is_stable():
    c0, c1, res = young.log_bound_fit(DISC, level=5)
    assert c0 > 0 and c1 > 0
    assert res <= 0.0
    _, c1b, resb = young.log_bound_fit(DISC, level=6)
    assert resb <= 0.0
    assert abs(c1b - c1) / c1 < 0.10


def test_log_bound_fit_needs_a_ball():
    """The ladder approaches the boundary from the centre of a ball; on a
    box, which has no centre, both it and the fit are a ValueError."""
    box = make_domain("interval-box", bounds=[[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="needs a ball"):
        young.log_bound_fit(box)
    with pytest.raises(ValueError, match="needs a ball"):
        young._boundary_mass_ladder(box, 1)


def test_log_power_integral_reference():
    """int_0^1 |log u|^a du = a!, by independent quadrature."""
    for a in (1, 2, 4):
        val, _ = quad(lambda u, a=a: (-np.log(u)) ** a, 0.0, 1.0)
        assert np.isclose(val, math.factorial(a), rtol=1e-9)


def test_log_majorant_integral_closed_form():
    """With c0=0, c1=1 on the unit disc the integral is known exactly:
    2 pi a! (1 - 2^-(a+1)).  The a=4 integrand piles mass at the rim, so
    its fixed-grid quadrature is only good to about a percent."""
    for a, rtol in ((1, 2e-3), (2, 2e-3), (4, 3e-2)):
        got = young.log_majorant_integral(DISC, 0.0, 1.0, a, level=4)
        want = 2 * np.pi * math.factorial(a) * (1 - 2.0 ** -(a + 1))
        assert np.isclose(got, want, rtol=rtol)


def test_fitted_majorant_integrals_finite():
    c0, c1, _ = young.log_bound_fit(DISC, level=5)
    prev = 0.0
    for a in (1, 2, 4):
        val = young.log_majorant_integral(DISC, c0, c1, a, level=3)
        assert np.isfinite(val) and val > prev
        prev = val


def test_scan_rows_and_csv_format(tmp_path):
    spec = _disc_spec()
    rows = young.scan_rows(spec, [1.0, 2.0, INF], sample_count=3, seed=1)
    cases = {(row["p"], row["case"]) for row in rows}
    assert cases == {(1.0, "II"), (1.0, "III"), (2.0, "II"), (2.0, "III"),
                     (INF, "I")}
    for row in rows:
        assert list(row) == young.SCAN_COLUMNS
        if row["case"] == "III":
            assert np.isclose(row["r"], row["p"], rtol=1e-12)
            assert np.isfinite(row["estimate"])
    report = cli.Report(metadata={}, columns=young.SCAN_COLUMNS, rows=rows,
                        verdict="pass")
    scan_path, _ = cli.emit_report(report, str(tmp_path / "scan"))
    with open(scan_path) as fh:
        recs = list(csv.DictReader(fh))
    assert len(recs) == len(rows)
    assert all(rec["b"] == "inf" for rec in recs)
    inf_row = [rec for rec in recs if rec["case"] == "I"][0]
    assert inf_row["p"] == "inf" and inf_row["estimate"] == "nan"
