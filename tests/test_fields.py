"""Coefficient fields: exact polynomial calculus and value-only fields."""

import collections
import itertools
import operator
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmklab import bmk, cli, fields, geometry, mollify, young
from bmklab.exterior import DifferentialForm
from bmklab.fields import (AnalyticField, PolyField, RadialPowerField, as_field,
                           components, constant, coordinate, dz_part, dzbar_part,
                           shared_values, zmonomial)


def test_polyfield_evaluation_and_arithmetic():
    f = PolyField(2, {(2, 0): 1.0, (0, 1): -3.0})
    x = np.array([[2.0, 1.0], [0.5, -2.0]])
    assert np.allclose(f(x), [1.0, 6.25])
    g = PolyField(2, {(1, 1): 2.0})
    assert np.allclose((f + g)(x), f(x) + g(x))
    assert np.allclose((f * g)(x), f(x) * g(x))
    assert (f - f).is_zero


def test_polyfield_partial_is_exact():
    f = PolyField(2, {(3, 1): 2.0})
    fx = f.partial(0)
    assert fx.terms == {(2, 1): 6.0}
    assert f.partial(1).terms == {(3, 0): 2.0}
    assert constant(2, 5.0).partial(0).is_zero


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_product_rule_exact(a1, a2, b1, b2):
    f = PolyField(2, {(a1, a2): 1.5})
    g = PolyField(2, {(b1, b2): -2.0 + 1j})
    lhs = (f * g).partial(0)
    rhs = f.partial(0) * g + f * g.partial(0)
    assert (lhs - rhs).is_zero


def test_zmonomial_values_and_conj():
    f = zmonomial(1, (2,), (1,))  # z^2 zbar
    x = np.array([[1.0, 1.0]])  # z = 1 + i
    z = 1 + 1j
    assert np.isclose(f(x)[0], z ** 2 * np.conj(z))
    assert np.isclose(f.conj()(x)[0], np.conj(z) ** 2 * z)


def test_wirtinger_derivatives_on_monomials():
    """d/dz and d/dzbar (0-based slot) act like polynomial derivatives."""
    f = zmonomial(1, (2,), (1,))
    x = np.array([[0.4, -0.7]])
    z = 0.4 - 0.7j
    assert np.isclose(dz_part(f, 0)(x)[0], 2 * z * np.conj(z))
    assert np.isclose(dzbar_part(f, 0)(x)[0], z ** 2)
    # holomorphic monomials are dzbar-closed
    h = zmonomial(2, (1, 2), (0, 0))
    assert dzbar_part(h, 0).is_zero and dzbar_part(h, 1).is_zero


def test_callable_field_has_no_derivative():
    """A callable field carries values only: differentiating it, directly or
    through a form's dbar, raises and asks for a closed-form derivative."""
    f = AnalyticField(2, lambda x: np.sin(x[:, 0]) * np.exp(x[:, 1]))
    x = np.array([[0.3, -0.2]])
    assert np.isclose(f(x)[0], np.sin(0.3) * np.exp(-0.2))
    with pytest.raises(NotImplementedError, match="AnalyticField.*closed form"):
        f.partial(0)
    form = DifferentialForm(1, 0, 0, {((), ()): f})
    with pytest.raises(NotImplementedError, match="AnalyticField.*closed form"):
        form.dbar()


def test_as_field_rejects_a_bare_callable():
    with pytest.raises(TypeError, match="cannot interpret"):
        as_field(lambda x: x[:, 0], 2)


def test_fields_on_different_spaces_do_not_combine():
    """Sums, products and form coefficients check the dimension, naming both."""
    x2, x3 = coordinate(2, 0), coordinate(3, 2)
    f2, f3 = AnalyticField(2, lambda x: x[:, 0]), AnalyticField(3, lambda x: x[:, 0])
    for combine in (lambda: x2 * x3, lambda: x2 + x3, lambda: f2 + f3, lambda: f2 * f3):
        with pytest.raises(ValueError, match=r"R\^3 where one on R\^2"):
            combine()
    for combine in (lambda: x3 - f2, lambda: f3 * x2, lambda: as_field(x2, 3)):
        with pytest.raises(ValueError, match=r"R\^2 where one on R\^3"):
            combine()
    with pytest.raises(ValueError, match=r"R\^2 where one on R\^4"):
        DifferentialForm(2, 0, 0, {((), ()): x2})


def test_radial_power_field_support_and_value():
    w = RadialPowerField(2, 2.0)
    inside = np.array([[0.25, 0.1]])
    outside = np.array([[0.9, 0.9]])
    u = 0.25 ** 2 + 0.1 ** 2
    assert np.isclose(w(inside)[0], (1 - u) ** 2)
    assert w(outside)[0] == 0.0


def test_negative_exponent_radial_field_interior_only():
    """gamma < 0 makes 0 ** gamma infinite on and outside the sphere; the
    field is 0 there, without a divide-by-zero warning."""
    w = RadialPowerField(2, -0.25)
    x = np.array([[0.6, 0.0]])
    assert np.isclose(w(x)[0], (1 - 0.36) ** -0.25)
    w4 = RadialPowerField(4, -0.25)
    x4 = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(w4(x4), np.zeros(2))


@pytest.mark.parametrize("gamma", [0.75, -0.25])
def test_radial_power_field_equals_masked_power(gamma):
    """The in-place evaluation gives the float64 bits of
    where(u < 1, power(max(1 - u, 0), gamma), 0), u = |x|^2, at points
    inside, on and outside the unit sphere, and a NaN gives 0."""
    rng = np.random.default_rng(6)
    x = np.vstack([rng.uniform(-0.7, 0.7, (40_000, 4)), rng.uniform(-1.0, 1.0, (999, 4)),
                   np.eye(4), 2.0 * np.eye(4), [[0.6, 0.0, 0.8, 0.0], [np.nan, 0.0, 0.0, 0.0]]])
    u = RadialPowerField(4, gamma)._u(x)
    assert np.any(u < 1.0) and np.any(u == 1.0) and np.any(u > 1.0)
    with np.errstate(divide="ignore"):
        want = np.where(u < 1.0, np.power(np.maximum(1.0 - u, 0.0), gamma), 0.0)
    got = RadialPowerField(4, gamma)(x)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


_SHAPE_FIELDS = [
    PolyField(3, {(2, 0, 1): 1.5 - 0.5j, (0, 1, 0): 2.0, (0, 0, 0): -1.0}),
    RadialPowerField(3, 0.75),
]


@pytest.mark.parametrize("f", _SHAPE_FIELDS, ids=lambda f: type(f).__name__)
def test_points_of_any_leading_shape_give_values_of_that_shape(f):
    """(2, 3, m) points give (2, 3) values, the bits of the (6, m) call
    reshaped, and one (m,) point gives a 0-d value equal to the (1, m) call."""
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 3, 3))
    got = f(x)
    assert got.shape == (2, 3)
    assert got.tobytes() == f(x.reshape(6, 3)).reshape(2, 3).tobytes()
    one = f(x[1, 2])
    assert np.shape(one) == () and one == f(x[1, 2:])[0]


def test_radial_power_squared_radius_equals_axis_sum():
    """|x|^2 summed coordinate by coordinate is bit-identical to the sum
    over the coordinate axis, at a stack of points and at one point."""
    w = RadialPowerField(4, -0.25)
    x = np.random.default_rng(4).uniform(-1.0, 1.0, (4097, 4))
    assert np.array_equal(w._u(x), np.sum(x * x, axis=-1))
    assert np.array_equal(w._u(np.asfortranarray(x)), np.sum(x * x, axis=-1))
    assert w._u(x[7]) == np.sum(x[7] * x[7])


def test_components_share_one_call_per_stack():
    """components(m, func, count) gives count fields, the k-th func(x)[k] as
    complex.  Alone each calls func; through shared_values with one dict, a
    stack of points calls func once for all of them, and any other
    non-polynomial field once however often it is asked for."""
    calls = []

    def func(x):
        calls.append(len(x))
        return x[:, 0] * x[:, 1], np.exp(1j * x[:, 0])

    first, second = components(2, func, 2)
    x = np.random.default_rng(9).uniform(-1.0, 1.0, (5, 2))
    assert first(x).dtype == complex
    assert first(x).tobytes() == (x[:, 0] * x[:, 1]).astype(complex).tobytes()
    assert second(x).tobytes() == np.exp(1j * x[:, 0]).tobytes()
    assert calls == [5, 5, 5]
    other = AnalyticField(2, lambda y: y[:, 1])
    shared = {}
    got = [shared_values(f, x, shared) for f in (first, other, second, other, first)]
    assert calls == [5, 5, 5, 5]
    assert got[2].tobytes() == second(x).tobytes() and got[1] is got[3]
    assert len(calls) == 5


def test_product_with_a_constant_polynomial_is_scaled(monkeypatch):
    """A field times a constant PolyField, on either side, scales the field
    by the constant: its values have the bits of c * f(x), which are those
    of the product with the constant's values, and the constant polynomial
    is never evaluated.  Polynomial products stay exact, and a sum or
    product with a callable part is an AnalyticField over its parts'
    values in order, whose conjugate is their conjugate."""
    f = RadialPowerField(4, 0.75)
    g = AnalyticField(4, lambda x: np.exp(1j * x[..., 0]) * x[..., 3])
    c = constant(4, 0.3 - 1.25j)
    x = np.random.default_rng(6).uniform(-0.6, 0.6, (4097, 4))
    want = (0.3 - 1.25j) * f(x)
    assert want.tobytes() == (f(x) * c(x)).tobytes()
    poly_calls = []
    poly_call = PolyField.__call__
    monkeypatch.setattr(PolyField, "__call__",
                        lambda self, y: poly_calls.append(self) or poly_call(self, y))
    for prod in (f * c, c * f):
        assert prod(x).tobytes() == want.tobytes()
    assert not poly_calls
    assert isinstance(coordinate(4, 1) * c, PolyField)
    x1 = coordinate(4, 1)
    for combined, value in ((f + g, f(x) + g(x)), (g + x1, g(x) + x1(x)),
                            (f * g, f(x) * g(x)), (x1 * g, x1(x) * g(x)),
                            (f * PolyField(4, {}), f(x) * PolyField(4, {})(x)),
                            (2.5j * g, 2.5j * g(x)), (-g, complex(-1.0) * g(x))):
        assert isinstance(combined, AnalyticField)
        assert combined(x).tobytes() == value.tobytes()
        assert combined.conj()(x).tobytes() == np.conj(value).tobytes()


def test_coordinate_and_as_field():
    c = coordinate(3, 1)
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.isclose(c(x)[0], 2.0)
    s = as_field(2.5, 3)
    assert np.isclose(s(x)[0], 2.5)
    assert as_field(c, 3) is c


def test_scalar_multiplication_and_negation():
    f = PolyField(1, {(1,): 1.0})
    x = np.array([[2.0]])
    assert np.isclose((2.0 * f)(x)[0], 4.0)
    assert np.isclose((-f)(x)[0], -2.0)


def _pow_poly(f, x):
    """PolyField evaluation with one np.power per term and coordinate: the
    former per-term loop, kept as the oracle of the power-table path."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1], dtype=complex)
    for powers, c in f.terms.items():
        term = np.full(x.shape[:-1], c)
        for k, a in enumerate(powers):
            if a:
                term = term * x[..., k] ** a
        out += term
    return out


# zero or 1e-3 <= |v| <= 1.5, so no power or product of degree <= 12 underflows
_moderate = st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]),
                                              st.floats(1e-3, 1.5)).map(lambda t: t[0] * t[1]))


@st.composite
def _poly_and_points(draw, max_degree):
    m = draw(st.integers(1, 4))
    deg = draw(st.integers(0, max_degree))
    exponents = st.tuples(*[st.integers(0, deg)] * m)
    coefficients = st.tuples(_moderate, _moderate).map(lambda t: complex(4 * t[0], 4 * t[1]))
    terms = draw(st.dictionaries(exponents, coefficients, max_size=12))
    n = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(st.lists(_moderate, min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    return PolyField(m, terms), x


def _term_scale(f, x):
    """sum_a |c_a| |x^a| at each point."""
    scale = np.zeros(x.shape[:-1])
    for powers, c in f.terms.items():
        scale = scale + abs(c) * np.prod(np.abs(x) ** np.array(powers), axis=-1)
    return scale


@given(_poly_and_points(12))
@settings(max_examples=200, deadline=None)
def test_polyfield_power_table_matches_pow(case):
    """Powers built by repeated products agree with np.power within
    16 ulp of sum |c| |x^a|, for m = 1..4 and degree <= 12, also at x = 0,
    for negative x, for one 1-D point and for the zero polynomial."""
    f, x = case
    tol = 16 * np.finfo(float).eps * _term_scale(f, x)
    assert np.all(np.abs(f(x) - _pow_poly(f, x)) <= tol)
    one = f(x[0])
    assert np.ndim(one) == 0 and abs(one - _pow_poly(f, x[0])) <= tol[0]


@given(_poly_and_points(2))
@settings(max_examples=100, deadline=None)
def test_polyfield_low_powers_are_bit_identical(case):
    """With every exponent <= 2 the power table is x * x, the bits of
    x ** 2, and the terms are built and summed in the same order, at an
    (N, m) stack, at the (2, N, m) stack of it and its reverse, and at one
    (m,) point, which gives a 0-d value."""
    f, x = case
    got, want = f(x), _pow_poly(f, x)
    assert got.tobytes() == want.tobytes()
    both = np.stack([x, x[::-1]])
    assert f(both).tobytes() == _pow_poly(f, both).tobytes()
    assert f(both).tobytes() == np.stack([got, got[::-1]]).tobytes()
    one = f(x[0])
    assert np.shape(one) == () and one.tobytes() == got[0].tobytes()


def test_zero_polyfield_is_zero_everywhere():
    x = np.array([[0.0, -1.0], [0.5, 1.5]])
    assert np.array_equal(PolyField(2, {})(x), np.zeros(2, dtype=complex))
    assert PolyField(2, {(3, 1): 0.0})(x[0]) == 0


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs, each started for real."""
    out = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: out.append(self) or start(self))
    return out


@pytest.mark.parametrize("cpus", [1, 2, 7])
def test_on_cpus_runs_each_task_once_on_every_thread(monkeypatch, started, cpus):
    """Every task runs exactly once, on min(tasks, CPUs) threads of which the
    calling thread is one, with threads switching every microsecond.  Each
    thread claims one task, then waits for the others to claim theirs, so
    every thread, the calling one too, runs at least one task."""
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (1, 2, 3, 23):
            workers = min(count, cpus)
            gate = threading.Barrier(workers, timeout=30)
            ran = []

            def work(claim):
                first = next(claim)
                gate.wait()
                ran.extend((k, threading.get_ident()) for k in itertools.chain([first], claim))

            del started[:]
            fields._on_cpus(work, count)
            assert sorted(k for k, _ in ran) == list(range(count))
            threads = {ident for _, ident in ran}
            assert threading.get_ident() in threads and len(threads) == workers
            assert len(started) == workers - 1
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 7])
def test_on_cpus_one_task_runs_on_the_caller_and_none_is_a_no_op(monkeypatch, started, cpus):
    """One task runs on the calling thread and starts no thread; zero tasks
    call nothing."""
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    ran = []
    fields._on_cpus(lambda claim: ran.extend((k, threading.get_ident()) for k in claim), 1)
    assert ran == [(0, threading.get_ident())] and started == []
    fields._on_cpus(ran.append, 0)
    assert len(ran) == 1 and started == []


class _TaskError(Exception):
    pass


def _hold_until_empty(claim, deadline):
    """Sleep until claim has no task left, or until the deadline passes."""
    while operator.length_hint(claim) and time.monotonic() < deadline:
        time.sleep(1e-3)


@pytest.mark.parametrize("cpus, on_caller",
                         [(1, True), (2, True), (7, True), (2, False), (7, False)])
def test_on_cpus_reraises_a_threads_error_with_its_type(monkeypatch, cpus, on_caller):
    """An error raised on the calling thread, or on a helper thread, comes
    back from _on_cpus with its own type.  The raising threads claim no
    task and the others wait for claim to be empty before they claim, so
    the error leaves every task unrun, on one CPU or several."""
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    caller = threading.get_ident()
    deadline = time.monotonic() + 5.0
    ran = []

    def work(claim):
        if (threading.get_ident() == caller) == on_caller:
            raise _TaskError(threading.get_ident())
        _hold_until_empty(claim, deadline)
        ran.extend(claim)

    with pytest.raises(_TaskError) as err:
        fields._on_cpus(work, 16)
    assert type(err.value) is _TaskError
    assert (err.value.args[0] == caller) == on_caller
    assert ran == []


@pytest.mark.parametrize("cpus", [2, 7])
def test_on_cpus_starts_no_task_after_an_error(monkeypatch, cpus):
    """Task 0 raises, while every other thread holds its task until claim is
    empty: the raising thread empties claim, so each other thread starts at
    most the one task it held, not the 15 left."""
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    deadline = time.monotonic() + 5.0
    started = []

    def work(claim):
        for k in claim:
            started.append((k, threading.get_ident()))
            if k == 0:
                raise _TaskError(k)
            _hold_until_empty(claim, deadline)

    with pytest.raises(_TaskError):
        fields._on_cpus(work, 16)
    raiser = dict(started)[0]
    per_thread = collections.Counter(ident for k, ident in started if k)
    assert raiser not in per_thread and all(n == 1 for n in per_thread.values())
    assert len(started) <= cpus


def test_smooth_transition_is_monotone_and_in_unit_interval_to_roundoff():
    """smooth_transition's 80-node quadrature keeps it monotone and within
    [0, 1] only to 1e-14: on 200,001 uniform points of [1, 2] no step
    decreases, and no value passes 1, by more than that bound."""
    v = fields.smooth_transition(np.linspace(1.0, 2.0, 200_001))
    assert np.diff(v).min() >= -1e-14
    assert v.min() >= 0.0 and v.max() <= 1.0 + 1e-14
    assert v[0] == 0.0


def _whole_number_calls(value):
    """The seven entry points that take a whole number, each given value;
    ExperimentConfig takes two."""
    disc = geometry.make_domain("ball", m=2)
    spec = young.KernelSpec(X=("boundary", disc), Y=("domain", disc),
                            kernel=young.bmk_norm_kernel(1, 0),
                            t=1.0, s=1.5, a=4.0, b=young.INF)
    return [
        ("Gauss-Legendre order", lambda: fields.leggauss(value)),
        ("rule level", lambda: geometry.volume_rule(disc, value)),
        ("base_level", lambda: bmk.SingularQuadratureConfig(base_level=value)),
        ("m", lambda: geometry.make_domain("ball", m=value)),
        ("a grid shape entry",
         lambda: mollify.HalfSpaceField(lambda x: x[0], [[-1.0, 0.0], [-1.0, 1.0]], (value, 5))),
        ("level", lambda: cli.ExperimentConfig(experiment="bmk-verify", level=value)),
        ("seed", lambda: cli.ExperimentConfig(experiment="bmk-verify", seed=value)),
        ("sample_count", lambda: young.empirical_norm(spec, 2.0, 2.0, sample_count=value)),
    ]


@pytest.mark.parametrize("value", [True, 4.7, 2.5, 5.9, 1.0, "3", np.float64(3.0)])
def test_every_whole_number_is_checked_alike(value):
    """A bool, a fraction, a whole float or a string is the same ValueError
    naming the value at each entry point, a cached Gauss-Legendre order
    included: they had built the level-1 rule from True, m = 4 from 4.7 and
    a 5-sample axis from 5.9, accepted a level of 1.5 and a seed of True,
    and raised a bare TypeError for a sample count of 2.5."""
    fields.leggauss(1), fields.leggauss(3)
    for name, call in _whole_number_calls(value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= ")
                           + r"\d, got " + re.escape(repr(value))):
            call()


def test_whole_numbers_take_numpy_integers():
    """A numpy integer is a whole number as an int is."""
    assert geometry.make_domain("ball", m=np.int64(4)).m == 4
    assert len(fields.leggauss(np.int32(3))[0]) == 3
    config = cli.ExperimentConfig(experiment="bmk-verify", level=np.int64(1), seed=np.uint8(3))
    assert (config.level, config.seed) == (1, 3) and type(config.level) is int
