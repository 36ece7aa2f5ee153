"""Exterior algebra of (p,q)-forms on C^n with a first-principles Hodge star.

Conventions, fixed once and validated by the test suite rather than assumed:

* points live in R^{2n} with z_j = x_{2j} + i x_{2j+1} (0-based coordinates);
* monomials are dz^I ^ dzbar^J, dz factors first, with both multi-indices
  strictly increasing in 1..n (a form rejects any other);
* the metric makes the real coordinate covectors orthonormal, so
  <dz_j, dz_j> = 2 and the volume form is dx_1^dy_1^...^dx_n^dy_n;
* the star operator is the Euclidean star of the underlying real structure,
  extended complex-linearly.  It is *derived* per monomial by expanding into
  real covectors and back, never tabulated by hand, and satisfies the pairing
  identity <alpha, beta> dV = alpha ^ star(conj(beta)).

With these choices star(dzeta) = -i dzeta in one variable, dz^dzbar has top
density -2i, star maps (p,q) to (n-q,n-p), and star(star(w)) = (-1)^(p+q) w.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .fields import PolyField, as_field, dz_part, dzbar_part

__all__ = [
    "eps_sign", "multi_indices", "DifferentialForm", "wedge", "hodge_star", "dbar",
]


def _sort_sign(seq):
    """Sign of the permutation sorting seq ascending; 0 on repeats."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
            elif seq[j] == seq[j + 1]:
                return 0, tuple(seq)
    return sign, tuple(seq)


def eps_sign(a, b):
    """Generalized Kronecker sign: the permutation sign taking a to b.

    Returns 0 unless a and b are repeat-free and equal as sets.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return 0
    sa, ka = _sort_sign(a)
    sb, kb = _sort_sign(b)
    if sa == 0 or sb == 0 or ka != kb:
        return 0
    return sa * sb


def multi_indices(n, k):
    """All strictly increasing k-tuples with entries in 1..n, in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k)) if k >= 0 else []


# ---------------------------------------------------------------------------
# monomial-level star, computed through the real covector basis

def _wedge_expansions(e1, e2):
    """Wedge two {index-tuple: coeff} expansions of covector monomials."""
    out = {}
    for a1, c1 in e1.items():
        for a2, c2 in e2.items():
            sign, key = _sort_sign(a1 + a2)
            if sign == 0:
                continue
            out[key] = out.get(key, 0.0) + sign * c1 * c2
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def _complex_to_real(n, I, J):
    """Expand dz^I ^ dzbar^J over real covector monomials (0-based indices)."""
    exp = {(): 1.0 + 0.0j}
    for i in I:
        exp = _wedge_expansions(exp, {(2 * i - 2,): 1.0, (2 * i - 1,): 1.0j})
    for j in J:
        exp = _wedge_expansions(exp, {(2 * j - 2,): 1.0, (2 * j - 1,): -1.0j})
    return exp


@lru_cache(maxsize=None)
def _real_to_complex(n, A):
    """Expand a real covector monomial over complex monomials (I, J).

    Factors are tagged (kind, idx), kind 0 dz and kind 1 dzbar, so sorting
    by (kind, idx) is exactly 'all dz first, ascending'."""
    exp = {(): 1.0 + 0.0j}
    for k in A:
        j = k // 2 + 1
        if k % 2 == 0:   # dx_j = (dz_j + dzbar_j)/2
            factor = {((0, j),): 0.5, ((1, j),): 0.5}
        else:            # dy_j = (dz_j - dzbar_j)/(2i)
            factor = {((0, j),): -0.5j, ((1, j),): 0.5j}
        exp = _wedge_expansions(exp, factor)
    out = {}
    for tagged, c in exp.items():
        I = tuple(idx for kind, idx in tagged if kind == 0)
        J = tuple(idx for kind, idx in tagged if kind == 1)
        out[(I, J)] = out.get((I, J), 0.0) + c
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def _star_monomial(n, I, J):
    """star(dz^I ^ dzbar^J) as {(I', J'): complex constant}."""
    full = tuple(range(2 * n))
    out = {}
    for A, cA in _complex_to_real(n, I, J).items():
        comp = tuple(k for k in full if k not in A)
        sign, _ = _sort_sign(A + comp)
        if sign == 0:
            continue
        for mono, c in _real_to_complex(n, comp).items():
            out[mono] = out.get(mono, 0.0) + cA * sign * c
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def _top_real_constant(n):
    """Coefficient of the full real volume monomial in dz^(1..n)^dzbar^(1..n)."""
    full_c = tuple(range(1, n + 1))
    exp = _complex_to_real(n, full_c, full_c)
    return exp[tuple(range(2 * n))]


def _merge(a, b):
    return tuple(sorted(a + b))


@lru_cache(maxsize=None)
def _wedge_monomial_sign(n, I1, J1, I2, J2):
    """Sign from (dz^I1^dzbar^J1)^(dz^I2^dzbar^J2) -> canonical monomial."""
    si, _ = _sort_sign(I1 + I2)
    sj, _ = _sort_sign(J1 + J2)
    if si == 0 or sj == 0:
        return 0
    # move the dz^I2 block (|I2| factors) left across dzbar^J1 (|J1| factors)
    return si * sj * (-1) ** (len(I2) * len(J1))


# ---------------------------------------------------------------------------

class DifferentialForm:
    """A (p,q)-form: {(I, J): coefficient field} over canonical monomials."""

    def __init__(self, n, p, q, coeffs=None):
        self.n = n
        self.p = p
        self.q = q
        self.coeffs = {}
        for (I, J), c in (coeffs or {}).items():
            I, J = tuple(I), tuple(J)
            if len(I) != p or len(J) != q:
                raise ValueError(f"monomial ({I},{J}) does not match bidegree ({p},{q})")
            # canonical: 1 <= i_1 < ... < i_k <= n in each multi-index
            if not all(a < b for idx in (I, J) for a, b in zip((0,) + idx, idx + (n + 1,))):
                raise ValueError(f"monomial ({I},{J}) needs strictly increasing "
                                 f"indices in 1..{n}")
            c = as_field(c, 2 * n)
            if not c.is_zero:
                self.coeffs[(I, J)] = c

    @property
    def bidegree(self):
        return (self.p, self.q)

    @property
    def degree(self):
        return self.p + self.q

    @property
    def is_zero(self):
        return not self.coeffs

    @classmethod
    def monomial(cls, n, I, J, coeff=1.0):
        return cls(n, len(I), len(J), {(tuple(I), tuple(J)): coeff})

    def coefficient(self, I, J):
        return self.coeffs.get((tuple(I), tuple(J)), PolyField(2 * self.n, {}))

    def _same_shape(self, other):
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ValueError("bidegree/dimension mismatch")

    def __add__(self, other):
        self._same_shape(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return DifferentialForm(self.n, self.p, self.q, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return DifferentialForm(self.n, self.p, self.q,
                                {k: v * c for k, v in self.coeffs.items()})

    def conj(self):
        """Complex conjugate; swaps (p,q) -> (q,p) with the reorder sign."""
        sign = (-1) ** (self.p * self.q)
        out = {}
        for (I, J), c in self.coeffs.items():
            out[(J, I)] = c.conj() * sign
        return DifferentialForm(self.n, self.q, self.p, out)

    def wedge(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        p, q = self.p + other.p, self.q + other.q
        # gather contributions keyed symmetrically so that a^b and b^a sum the
        # same floats in the same order (graded commutativity stays exact)
        buckets = {}
        for (I1, J1), c1 in self.coeffs.items():
            for (I2, J2), c2 in other.coeffs.items():
                sign = _wedge_monomial_sign(self.n, I1, J1, I2, J2)
                if sign == 0:
                    continue
                key = (_merge(I1, I2), _merge(J1, J2))
                pairkey = tuple(sorted([(I1, J1), (I2, J2)]))
                buckets.setdefault(key, []).append((pairkey, sign, c1, c2))
        out = {}
        for key, contribs in buckets.items():
            contribs.sort(key=lambda t: t[0])
            total = None
            for _, sign, c1, c2 in contribs:
                term = (c1 * c2) * float(sign)
                total = term if total is None else total + term
            out[key] = total
        return DifferentialForm(self.n, p, q, out)

    def star(self):
        """Hodge star, (p,q) -> (n-q, n-p), complex-linear; p and q at most n."""
        if self.p > self.n or self.q > self.n:
            raise ValueError(f"no Hodge star of a ({self.p}, {self.q})-form on C^{self.n}: "
                             f"its bidegree is past degree {self.n}")
        out = {}
        for (I, J), c in self.coeffs.items():
            for mono, const in _star_monomial(self.n, I, J).items():
                term = c * const
                out[mono] = out[mono] + term if mono in out else term
        return DifferentialForm(self.n, self.n - self.q, self.n - self.p, out)

    def dbar(self):
        """Antiholomorphic exterior derivative, (p,q) -> (p,q+1)."""
        return self._d(holo=False)

    def dholo(self):
        """Holomorphic exterior derivative, (p,q) -> (p+1,q)."""
        return self._d(holo=True)

    def _d(self, holo):
        """sum_j dz_j ^ d_j (holo) or dzbar_j ^ dbar_j of each coefficient, each
        sign from the wedge rule, which gives 0 where j is already present."""
        partial, dp = (dz_part, 1) if holo else (dzbar_part, 0)
        out = {}
        for (I, J), c in self.coeffs.items():
            for j in range(1, self.n + 1):
                I1, J1 = ((j,), ()) if holo else ((), (j,))
                sign = _wedge_monomial_sign(self.n, I1, J1, I, J)
                if sign == 0:
                    continue
                dc = partial(c, j - 1)
                if dc.is_zero:
                    continue
                key = (_merge(I1, I), _merge(J1, J))
                term = dc * float(sign)
                out[key] = out[key] + term if key in out else term
        return DifferentialForm(self.n, self.p + dp, self.q + 1 - dp, out)

    def top_density(self):
        """For an (n,n)-form: the field c with self = c dV_{R^{2n}}."""
        if (self.p, self.q) != (self.n, self.n):
            raise ValueError("top_density needs an (n,n)-form")
        full = tuple(range(1, self.n + 1))
        c = self.coefficient(full, full)
        return c * complex(_top_real_constant(self.n))

    def inner(self, other):
        """Pointwise Hermitian inner product field; monomials weigh 2^(p+q)."""
        self._same_shape(other)
        weight = 2.0 ** (self.p + self.q)
        total = None
        for key, c in self.coeffs.items():
            if key not in other.coeffs:
                continue
            term = (c * other.coeffs[key].conj()) * weight
            total = term if total is None else total + term
        if total is None:
            return PolyField(2 * self.n, {})
        return total


def density(form, nodes, nu=None):
    """Density of a form at nodes against dV, or against dS given normals.

    An (n,n)-form with nu None gives its top density, the field c with
    form = c dV.  A (2n-1)-form with nu, the (N, 2n) outward unit normals,
    gives the density of its boundary pullback.  With T an oriented
    orthonormal tangent frame, det[nu | T] = 1 and nu_flat(T) = 0, so
    form(T) is the top density of nu_flat ^ form, where
    nu_flat = sum_i (conj(c_i) dz_i + c_i dzbar_i) / 2, c_i = nu_{x_i} + i nu_{y_i}.
    Each monomial lacks exactly one dz_i or dzbar_i, which nu_flat supplies.
    Returns complex (N,); ValueError on any other degree and normals.
    """
    n = form.n
    if nu is None and form.degree == 2 * n:
        return np.asarray(form.top_density()(nodes), dtype=complex)
    if nu is None or form.degree != 2 * n - 1:
        raise ValueError("density needs an (n,n)-form without normals "
                         "or a (2n-1)-form with normals")
    nu = np.asarray(nu, dtype=float)
    nu_c = nu[:, 0::2] + 1j * nu[:, 1::2]
    out = np.zeros(len(nodes), dtype=complex)
    for (I, J), c in form.coeffs.items():
        i, dz, factor = _normal_completion(n, I, J)
        dual = np.conj(nu_c[:, i - 1]) if dz else nu_c[:, i - 1]
        out += np.asarray(c(nodes), dtype=complex) * (factor * dual)
    return out


def _normal_completion(n, I, J):
    """(i, dz, c) for a (2n-1)-monomial dz^I ^ dzbar^J: nu_flat's dz_i term
    (dz True, coefficient conj(c_i) / 2) or dzbar_i term (c_i / 2) completes
    it, and the top density of that term wedged with the monomial is
    c * conj(c_i) or c * c_i: the wedge sign times half the top constant."""
    if len(I) < n:
        (i,) = set(range(1, n + 1)) - set(I)
        return i, True, 0.5 * _wedge_monomial_sign(n, (i,), (), I, J) * _top_real_constant(n)
    (i,) = set(range(1, n + 1)) - set(J)
    return i, False, 0.5 * _wedge_monomial_sign(n, (), (i,), I, J) * _top_real_constant(n)


def integrate(form, rule):
    """Integrate a form over a rule: against dV inside, against dS on a boundary."""
    return complex(np.sum(rule.weights * density(form, rule.nodes, rule.nu)))


# module-level aliases matching the operation vocabulary

def wedge(a, b):
    return a.wedge(b)


def hodge_star(a):
    return a.star()


def dbar(a):
    return a.dbar()
