"""Scalar coefficient fields on R^m with exact derivatives or none.

Everything downstream (forms, operators, mollifiers, kernels) consumes scalar
fields through a small common interface: vectorized evaluation, where points
of shape (..., m) give values of shape (...), first partial derivatives,
complex conjugation and pointwise arithmetic.  Only polynomials
differentiate: polynomial fields implement derivatives and products exactly,
so identities such as dbar(dbar(f)) = 0 hold coefficientwise with no
quadrature involved.  Every other field (a callable, a radial power, or a
sum, product or multiple with a non-polynomial part, an AnalyticField)
carries values only: asking it for a derivative raises, and a derivative
it needs is supplied in closed form as data.  bmk and mollify run field
callables on several threads at once (_on_cpus), so every callable must be
pure.  _on_cpus is the process's only thread pool: bmklab's import keeps
numpy's OpenBLAS to one thread, whose idle helpers would spin beside it.
"""

from __future__ import annotations

import collections
import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _whole(name, value, least):
    """value as an int; a ValueError naming it unless it is an int or a
    numpy integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_finite(points):
    """ValueError naming the first row of the (P, m) stack that is not finite."""
    bad = ~np.all(np.isfinite(points), axis=1)
    if bad.any():
        raise ValueError(f"evaluation point {points[bad][0].tolist()} is not finite")


@functools.lru_cache(maxsize=None, typed=True)
def leggauss(order):
    """Gauss-Legendre (nodes, weights) on [-1, 1], solved once per order.

    Nodes ascend, x == -x[::-1] exactly (an exact 0 at odd order), and the
    weights are mirrored too and scaled to sum to 2.  The cached arrays are
    read-only, so callers build new arrays from them.  An order that is not
    an integer >= 1 is a ValueError naming it; the cache is keyed by type
    too, so True or 3.0 is refused even once order 1 or 3 is cached.

    Newton's method on P_n from Tricomi's asymptotic nodes (error 1e-4 at
    n = 8, 1.5e-8 at n = 512), as in Hale & Townsend, SIAM J. Sci. Comput.
    35 (2013) A652: the three-term recurrence evaluates P_n and P_(n-1) at
    all nodes of [0, 1] at once, a few in-place ufunc calls per degree,
    until the step is below roundoff, three passes at most orders.  The last
    pass gives the weights 2/((1 - x^2) P_n'(x)^2), corrected to first order
    for that pass's own step, which it computes to far below an ulp.  Cost
    O(n^2) time and O(n) memory: order 512 takes 4-8 ms on a shared 2-core
    x86-64 host, against 30-40 ms for numpy's `leggauss`, whose O(n^3)
    eigenvalue solve of the n x n companion matrix (Golub-Welsch) also
    touches LAPACK.  Against an 80-bit long double Newton reference, the
    nodes lie within 7e-17 and the weights within 8.5e-13 relative up to
    n = 512; numpy's endpoint weights are off by 1.1e-10 at 512 and 1.4e-11
    at 128.
    """
    n = _whole("Gauss-Legendre order", order, 1)
    theta = np.pi * (4.0 * np.arange(1, (n + 3) // 2) - 1.0) / (4 * n + 2)
    x = np.cos(theta) * (1.0 - (n - 1) / (8.0 * n ** 3)
                         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4))
    degree = np.arange(1, n)
    # P_(k+1) = a_k x P_k - b_k P_(k-1) with a_k = (2k + 1)/(k + 1), b_k = k/(k + 1)
    steps = list(zip(((2 * degree + 1) / (degree + 1)).tolist(), (degree / (degree + 1)).tolist()))
    buffers = [np.empty_like(x) for _ in range(3)]
    dx = np.ones_like(x)                                  # enter the first pass
    while np.abs(dx).max() > np.finfo(float).eps:
        prev, cur, nxt = buffers
        prev.fill(1.0)
        cur[...] = x
        for a, b in steps:
            np.multiply(x, cur, out=nxt)
            nxt *= a
            prev *= b
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (prev - x * cur) / one_minus_x2          # P_n' from P_n and P_(n-1)
        dx = cur / dp
        x -= dx
    w = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * dx / one_minus_x2)
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    x = np.concatenate((-x[:half], x[::-1]))
    w = np.concatenate((w[:half], w[::-1]))
    w *= 2.0 / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


class Field:
    """Base class: complex scalar function of m real coordinates."""

    m: int
    is_poly = False

    def partial(self, k):
        """Field for d(self)/dx_k (0-based real coordinate)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no derivative: supply the derivative of a "
            "callable field in closed form, as bmk-lp supplies the dbar of its L^p datum")

    def conj(self):
        raise NotImplementedError(f"{type(self).__name__} has no conjugate")

    def __add__(self, other):
        other = as_field(other, self.m)
        if self.is_poly and other.is_poly:
            return self._poly_add(other)
        return AnalyticField(self.m, lambda x: self(x) + other(x))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * as_field(other, self.m)

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, (int, float, complex)):
            return self._scaled(complex(other))
        other = as_field(other, self.m)
        if self.is_poly and other.is_poly:
            return self._poly_mul(other)
        # a constant polynomial scales the other factor: no array of one value
        for f, g in ((self, other), (other, self)):
            if g.is_poly and list(g.terms) == [(0,) * g.m]:
                return f._scaled(g.terms[(0,) * g.m])
        return AnalyticField(self.m, lambda x: self(x) * other(x))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return (-1.0) * self

    def _scaled(self, c):
        return AnalyticField(self.m, lambda x: c * self(x))

    def _constant_value(self):
        """The one value this field takes at every point, or None when it
        may vary: only a polynomial knows it is constant."""
        return None

    @property
    def is_zero(self):
        return False


class PolyField(Field):
    """Polynomial with complex coefficients: sum of c * prod_k x_k^a_k.

    terms maps exponent tuples (len m) to complex coefficients; exact under
    addition, multiplication, differentiation and conjugation.
    """

    is_poly = True

    def __init__(self, m, terms):
        self.m = m
        self.terms = {tuple(a): complex(c) for a, c in terms.items() if c != 0}

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1], dtype=complex)
        # table[k][a] = x_k^a, each power one product from the one before
        # (no libm pow per point); x_k^2 is x_k * x_k, the bits of x_k ** 2
        table = []
        for k in range(self.m):
            deg = max((a[k] for a in self.terms), default=0)
            pows = [None, np.array(x[..., k], order="C")] if deg else [None]
            for _ in range(deg - 1):
                pows.append(pows[-1] * pows[1])
            table.append(pows)
        for powers, c in self.terms.items():
            term = None
            for k, a in enumerate(powers):
                if a and term is None:
                    term = c * table[k][a]
                elif a:
                    term *= table[k][a]
            out += c if term is None else term
        return out

    def partial(self, k):
        terms = {}
        for powers, c in self.terms.items():
            if powers[k] == 0:
                continue
            new = list(powers)
            new[k] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, 0.0) + c * powers[k]
        return PolyField(self.m, terms)

    def conj(self):
        return PolyField(self.m, {a: np.conj(c) for a, c in self.terms.items()})

    def _scaled(self, c):
        return PolyField(self.m, {a: c * v for a, v in self.terms.items()})

    def _constant_value(self):
        """0 + c for a polynomial with no term but the constant c (0 for the
        zero polynomial), else None: the bits __call__ gives at every point,
        whose zeros turn a -0 part of c into +0."""
        if set(self.terms) <= {(0,) * self.m}:
            return 0 + self.terms.get((0,) * self.m, 0j)
        return None

    def _poly_add(self, other):
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0.0) + c
        return PolyField(self.m, terms)

    def _poly_mul(self, other):
        terms = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(i + j for i, j in zip(a1, a2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return PolyField(self.m, terms)

    @property
    def is_zero(self):
        return not self.terms


def constant(m, c):
    return PolyField(m, {(0,) * m: c})


def coordinate(m, k):
    powers = [0] * m
    powers[k] = 1
    return PolyField(m, {tuple(powers): 1.0})


def as_field(obj, m):
    """obj as a field on R^m: a field on another R^k is a ValueError."""
    if isinstance(obj, Field):
        if obj.m != m:
            raise ValueError(f"a field on R^{obj.m} where one on R^{m} is needed")
        return obj
    if np.isscalar(obj) or isinstance(obj, (int, float, complex)):
        return constant(m, complex(obj))
    raise TypeError(f"cannot interpret {obj!r} as a field on R^{m}")


class AnalyticField(Field):
    """Callable-backed field: values and conjugate only, no derivative; also
    each sum f(x) + g(x), product f(x) * g(x) or multiple c * f(x) with a
    non-polynomial part, so one class carries every callable value."""

    def __init__(self, m, func):
        self.m = m
        self.func = func

    def __call__(self, x):
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=complex)

    def conj(self):
        return AnalyticField(self.m, lambda x: np.conj(self.func(x)))


class ComponentField(Field):
    """Value number `index` of a callable that gives several values per point."""

    def __init__(self, m, func, index):
        self.m = m
        self.func = func
        self.index = index

    def __call__(self, x):
        return self.pick(self.func(np.asarray(x, dtype=float)))

    def pick(self, values):
        """This field's entry of func's values at some points."""
        return np.asarray(values[self.index], dtype=complex)


def components(m, func, count):
    """count fields on R^m, the k-th giving func(x)[k]: values that share work
    come from one callable.  Each field alone calls func; bmk's fold calls
    it once per node block for all of them (see shared_values)."""
    return [ComponentField(m, func, k) for k in range(count)]


def shared_values(field, x, calls):
    """field(x), where calls is a dict kept for one stack of points x: each
    non-polynomial field, and each callable behind `components`, runs once
    on x however often it is asked for.  A polynomial, cheap to evaluate and
    often scaled for one use only, runs on every call and is not kept."""
    if field.is_poly:
        return field(x)
    if isinstance(field, ComponentField):
        if field.func not in calls:
            calls[field.func] = field.func(np.asarray(x, dtype=float))
        return field.pick(calls[field.func])
    if field not in calls:
        calls[field] = field(x)
    return calls[field]


def _usable_cpus():
    return len(os.sched_getaffinity(0))


def _on_cpus(work, count):
    """work(claim) on min(count, usable CPUs) threads, the calling thread one
    of them, so one task starts no thread.  Each thread sets up its scratch,
    then takes task indices from claim, one iterator over range(count)
    shared by all, so each task runs once.  The field callables work calls
    must be pure.  A thread that raises empties claim first, so the others
    finish the task they hold and start no other; the error is raised here,
    with its own type.  This is the process's only thread pool: bmklab's
    import keeps numpy's OpenBLAS to one thread, so no idle BLAS thread
    spins on the CPUs these threads run on."""
    workers = min(count, _usable_cpus())
    claim = iter(range(count))   # one atomic next() per task

    def run():
        try:
            work(claim)
        except BaseException:
            collections.deque(claim, maxlen=0)   # drains claim in one C call
            raise

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = [pool.submit(run) for _ in range(workers - 1)]
        if workers:
            run()
        for helper in helpers:
            helper.result()   # re-raises a helper's error


# ---------------------------------------------------------------------------
# complex coordinates: z_j = x_{2j} + i x_{2j+1} (0-based pairs)

def zmonomial(n, a, b):
    """z^a zbar^b as an exact real-coordinate polynomial on R^{2n}."""
    m = 2 * n
    out = constant(m, 1.0)
    for j in range(n):
        zj = PolyField(m, {tuple(1 if k == 2 * j else 0 for k in range(m)): 1.0,
                           tuple(1 if k == 2 * j + 1 else 0 for k in range(m)): 1.0j})
        zbj = zj.conj()
        for _ in range(a[j]):
            out = out * zj
        for _ in range(b[j]):
            out = out * zbj
    return out


def dz_part(f, j):
    """Wirtinger d/dz_j = (d/dx - i d/dy)/2 applied to a field on R^{2n}."""
    return 0.5 * (f.partial(2 * j) - 1j * f.partial(2 * j + 1))


def dzbar_part(f, j):
    """Wirtinger d/dzbar_j = (d/dx + i d/dy)/2."""
    return 0.5 * (f.partial(2 * j) + 1j * f.partial(2 * j + 1))


# ---------------------------------------------------------------------------
# mollify's smooth step, built from the standard bump exp(-1/(1-u^2)): plain
# functions with closed-form derivatives, not fields (only polynomials
# differentiate)

_GL_NODES, _GL_W = leggauss(80)


def _bump01(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


#: integral of exp(-1/(1-t^2)) over (-1, 1), computed once at import
BUMP_MASS_1D = float(np.sum(_GL_W * _bump01(_GL_NODES)))


def smooth_transition(s):
    """C-infinity step: 0 for s <= 1, 1 for s >= 2, monotone between.

    It is monotone and within [0, 1] only to about 1e-14, the roundoff of
    the 80-node Gauss-Legendre rule that integrates it: on 200,001 uniform
    points of [1, 2], 430 steps decrease and the largest value is
    1 + 7.8e-15.  ROADMAP's "one closed-form smooth step" thread would
    replace it with an exact one.

    Built as the running integral of a unit-mass bump supported on (1, 2), so
    the derivative is available in closed form (`smooth_transition_deriv`).
    """
    s = np.asarray(s, dtype=float)
    u = np.clip(2.0 * s - 3.0, -1.0, 1.0)
    # integrate bump01 from -1 to u with mapped Gauss-Legendre nodes
    half = (u + 1.0) / 2.0
    t = -1.0 + half[..., None] * (_GL_NODES + 1.0)
    vals = np.sum(_GL_W * _bump01(t), axis=-1) * half
    return vals / BUMP_MASS_1D


def smooth_transition_deriv(s):
    """Derivative of smooth_transition: a bump of unit mass supported on (1, 2)."""
    s = np.asarray(s, dtype=float)
    return 2.0 * _bump01(2.0 * s - 3.0) / BUMP_MASS_1D


def _bump01_deriv(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    g = 1.0 - ti * ti
    out[inside] = np.exp(-1.0 / g) * (-2.0 * ti / (g * g))
    return out


def smooth_transition_deriv2(s):
    """Second derivative of smooth_transition, supported on (1, 2)."""
    s = np.asarray(s, dtype=float)
    return 4.0 * _bump01_deriv(2.0 * s - 3.0) / BUMP_MASS_1D


class RadialPowerField(Field):
    """(1 - |x|^2)^gamma inside the unit ball, 0 on and outside it; any real
    gamma.  The values are real, so they come as float64."""

    def __init__(self, m, gamma):
        self.m = m
        self.gamma = float(gamma)

    def _u(self, x):
        u = np.multiply(x[..., 0], x[..., 0])
        for k in range(1, self.m):   # coordinate by coordinate, one temporary each
            u += np.multiply(x[..., k], x[..., k])
        return u

    def __call__(self, x):
        v = np.asarray(self._u(np.asarray(x, dtype=float)))   # one point: a 0-d array
        # in place: 1 - |x|^2, then +0.0 on and outside the sphere (fmax also
        # maps a NaN to 0), and the power only where positive, so 0 ** gamma
        # is never taken
        np.subtract(1.0, v, out=v)
        np.fmax(v, 0.0, out=v)
        np.power(v, self.gamma, out=v, where=v > 0.0)
        return v
