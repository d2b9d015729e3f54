"""Puiseux polynomials and series with exact operator actions.

A series is a finite map from rational exponent vectors to nonzero
scalars in Q(zeta_N), together with optional truncation metadata: the
support lattice, a word-length bound, and the finitely many sheet base
points the full solution lives on.  Operators act term by term and
exactly; partial derivatives use falling factorials, so rational and
negative exponents are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclotomic import Scalar
from .exact_linalg import IntMatrix, coordinate_map


def _expvec(v):
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


@dataclass(frozen=True)
class Truncation:
    """Word-length truncation against a lattice basis.

    Terms are generated for lattice offsets whose coordinate vector in
    ``basis`` has l1 norm at most ``bound``.
    """

    basis: tuple  # tuple of integer vectors (the lattice basis columns)
    bound: int

    @cached_property
    def _coordinates(self):
        return coordinate_map(self.basis)

    def word_coordinates(self, offset):
        """Integer basis coordinates of a rational offset, or None."""
        return self._coordinates(offset)

    def word_length(self, offset):
        k = self.word_coordinates(offset)
        return None if k is None else sum(abs(x) for x in k)


@dataclass(frozen=True)
class Support:
    """Declared support: base point alpha plus finitely many integer
    translates (the sheet offsets) plus the lattice of the truncation."""

    alpha: tuple          # rational base exponent
    translates: tuple      # tuple of integer vectors, one per sheet

    def sheet_bases(self):
        return tuple(tuple(a + t for a, t in zip(self.alpha, tr))
                     for tr in self.translates)


class PuiseuxSeries:
    """Finitely many exact terms of a formal Puiseux series."""

    __slots__ = ("nvars", "field_order", "terms", "truncation", "support")

    def __init__(self, nvars, terms=None, field_order=1,
                 truncation=None, support=None):
        self.nvars = int(nvars)
        self.field_order = int(field_order)
        clean = {}
        for e, c in (terms or {}).items():
            e = _expvec(e)
            if len(e) != self.nvars:
                raise ValueError("exponent length mismatch")
            if not isinstance(c, Scalar):
                c = Scalar.rational(c, self.field_order)
            if not c.is_zero():
                clean[e] = c
        self.terms = clean
        self.truncation = truncation
        self.support = support

    @staticmethod
    def monomial(nvars, exponent, coeff=1, field_order=1, **kw):
        return PuiseuxSeries(nvars, {tuple(exponent): coeff},
                             field_order=field_order, **kw)

    @staticmethod
    def zero(nvars, field_order=1):
        return PuiseuxSeries(nvars, {}, field_order=field_order)

    def is_zero(self):
        return not self.terms

    def num_terms(self):
        return len(self.terms)

    def coefficient(self, exponent):
        return self.terms.get(_expvec(exponent),
                              Scalar.zero(self.field_order))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def add(self, other):
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        order = max(self.field_order, other.field_order)
        for e, c in other.terms.items():
            s = out.get(e)
            c2 = c if s is None else s + c
            if isinstance(c2, Scalar) and c2.is_zero():
                out.pop(e, None)
            else:
                out[e] = c2
        return PuiseuxSeries(self.nvars, out, field_order=order,
                             truncation=self.truncation, support=self.support)

    def scale(self, c):
        return PuiseuxSeries(
            self.nvars, {e: v * c for e, v in self.terms.items()},
            field_order=self.field_order,
            truncation=self.truncation, support=self.support)

    def shift_exponents(self, w):
        w = _expvec(w)
        return PuiseuxSeries(
            self.nvars,
            {tuple(a + b for a, b in zip(e, w)): c
             for e, c in self.terms.items()},
            field_order=self.field_order,
            truncation=self.truncation,
            support=None if self.support is None else Support(
                alpha=tuple(a + b for a, b in zip(self.support.alpha, w)),
                translates=self.support.translates))

    def __eq__(self, other):
        return (isinstance(other, PuiseuxSeries)
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __repr__(self):
        parts = []
        for e, c in self.sorted_terms()[:8]:
            mono = "*".join(f"x{i + 1}^({x})" for i, x in enumerate(e) if x != 0)
            parts.append(f"({c})" + ("*" + mono if mono else ""))
        more = "" if len(self.terms) <= 8 else f" ... [{len(self.terms)} terms]"
        return " + ".join(parts) + more if parts else "0"


# -- differential operators ---------------------------------------------------

@dataclass(frozen=True)
class BinomialOp:
    """partial^{u_plus} - lam * partial^{u_minus} on n variables.

    u_plus and u_minus have disjoint supports; lam = 0 degenerates to the
    monomial operator partial^{u_plus}.
    """

    u_plus: tuple
    u_minus: tuple
    lam: Scalar = None  # defaults to 1

    def __post_init__(self):
        if any(a and b for a, b in zip(self.u_plus, self.u_minus)):
            raise ValueError("binomial exponents must have disjoint supports")
        if self.lam is None:
            object.__setattr__(self, "lam", Scalar.one())

    @property
    def shift(self):
        """u_plus - u_minus as a plain integer vector."""
        return tuple(a - b for a, b in zip(self.u_plus, self.u_minus))

    def describe(self):
        def mono(u):
            return "".join(f"d{i + 1}^{e}" if e > 1 else f"d{i + 1}"
                           for i, e in enumerate(u) if e)
        left = mono(self.u_plus) or "1"
        if all(x == 0 for x in self.u_minus) and self.lam.is_zero():
            return left
        right = mono(self.u_minus) or "1"
        return f"{left} - ({self.lam})*{right}"


@dataclass(frozen=True)
class EulerOp:
    """sum_j row_j x_j partial_j - value, acting diagonally on monomials."""

    row: tuple  # rational coefficients, length n
    value: Fraction

    def describe(self):
        body = " + ".join(f"({c})*x{j + 1}d{j + 1}"
                          for j, c in enumerate(self.row) if c != 0)
        return f"{body} - ({self.value})"


@dataclass(frozen=True)
class ThetaOp:
    """q(theta) - z_k p(theta) in m z-variables, stored factored + expanded.

    Factors are linear forms (coeffs, constant) in theta = (z_j d/dz_j).
    """

    q_factors: tuple
    p_factors: tuple
    k: int  # index of the multiplying variable, 0-based
    nvars: int

    def q_at(self, alpha):
        return _eval_factors(self.q_factors, alpha)

    def p_at(self, alpha):
        return _eval_factors(self.p_factors, alpha)

    def expanded_q(self):
        return _expand_factors(self.q_factors, self.nvars)

    def expanded_p(self):
        return _expand_factors(self.p_factors, self.nvars)

    def describe(self):
        return (f"q(theta) - z{self.k + 1} p(theta), "
                f"deg q = {len(self.q_factors)}, deg p = {len(self.p_factors)}")


def _eval_factors(factors, alpha):
    out = Fraction(1)
    for coeffs, const in factors:
        out *= sum(c * Fraction(a) for c, a in zip(coeffs, alpha)) + const
    return out


def _expand_factors(factors, nvars):
    """Expanded polynomial as {theta exponent tuple: coefficient}."""
    poly = {(0,) * nvars: Fraction(1)}
    for coeffs, const in factors:
        new = {}
        for mono, c in poly.items():
            for j, cj in enumerate(coeffs):
                if cj == 0:
                    continue
                m2 = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                new[m2] = new.get(m2, Fraction(0)) + c * cj
            if const != 0:
                new[mono] = new.get(mono, Fraction(0)) + c * const
        poly = {m: c for m, c in new.items() if c != 0}
    return poly


def apply_operator(op, s: PuiseuxSeries) -> PuiseuxSeries:
    """Exact term-by-term action of a differential operator."""
    if isinstance(op, BinomialOp):
        out = {}
        minus_lam = None if op.lam.is_zero() else -op.lam
        for e, c in s.terms.items():
            fp = _mono_derivative_coeff(e, op.u_plus)
            if fp:
                _acc(out, _lowered(e, op.u_plus), c * fp)
            if minus_lam is not None:
                fm = _mono_derivative_coeff(e, op.u_minus)
                if fm:
                    _acc(out, _lowered(e, op.u_minus), c * (minus_lam * fm))
        trunc = _tighten(s.truncation, sum(op.u_plus) + sum(op.u_minus))
        return PuiseuxSeries(s.nvars, out, field_order=s.field_order,
                             truncation=trunc)
    if isinstance(op, EulerOp):
        out = {}
        for e, c in s.terms.items():
            f = sum(r * x for r, x in zip(op.row, e) if r) - op.value
            if f != 0:
                out[e] = c * f
        return PuiseuxSeries(s.nvars, out, field_order=s.field_order,
                             truncation=s.truncation, support=s.support)
    if isinstance(op, ThetaOp):
        out = {}
        for e, c in s.terms.items():
            qv = op.q_at(e)
            if qv != 0:
                _acc(out, e, c * qv)
            pv = op.p_at(e)
            if pv != 0:
                ek = e[:op.k] + (e[op.k] + 1,) + e[op.k + 1:]
                _acc(out, ek, -(c * pv))
        trunc = _tighten(s.truncation, 1)
        return PuiseuxSeries(s.nvars, out, field_order=s.field_order,
                             truncation=trunc)
    raise TypeError(f"unknown operator type {type(op)!r}")


def _acc(d, key, val):
    cur = d.get(key)
    new = val if cur is None else cur + val
    if isinstance(new, Scalar) and new.is_zero():
        d.pop(key, None)
    else:
        d[key] = new


def _mono_derivative_coeff(e, u):
    """Coefficient of partial^u x^e, i.e. the falling factorial product,
    accumulated over the integers and reduced once."""
    num = den = 1
    for x, k in zip(e, u):
        if k:
            p, q = x.numerator, x.denominator
            for i in range(k):
                num *= p - i * q
            if num == 0:
                return Fraction(0)
            den *= q ** k
    return Fraction(num, den)


def _lowered(e, u):
    """The exponent e - u, reusing the unchanged coordinates."""
    return tuple(a - b if b else a for a, b in zip(e, u))


def _tighten(trunc, order):
    if trunc is None:
        return None
    return Truncation(basis=trunc.basis, bound=trunc.bound - order)


# -- operator factories --------------------------------------------------------

def lattice_binomials(B: IntMatrix, field_order=1, character=None):
    """One binomial operator per column of B: the positive part minus the
    (character-weighted) negative part."""
    n = B.nrows
    ops = []
    for k in range(B.ncols):
        col = B.column(k)
        up = tuple(max(x, 0) for x in col)
        um = tuple(max(-x, 0) for x in col)
        lam = Scalar.one(field_order) if character is None else character(col)
        ops.append(BinomialOp(u_plus=up, u_minus=um, lam=lam))
    return ops


def euler_operators(A: IntMatrix, beta):
    """The homogeneity operators from the rows of A and the parameter."""
    return [EulerOp(row=tuple(Fraction(x) for x in A.row(i)),
                    value=Fraction(beta[i]))
            for i in range(A.nrows)]


def horn_system_operators(hi, beta, field_order=1):
    """Generators of the Horn system: column binomials plus Euler operators."""
    return (lattice_binomials(hi.B, field_order=field_order)
            + euler_operators(hi.A, beta))


def horn_classical_operators(B: IntMatrix, c) -> list[ThetaOp]:
    """Classical Horn operators q_k(theta) - z_k p_k(theta).

    For column k, q_k collects a linear factor (b_j . theta + c_j - l)
    for every row j with b_jk > 0 and every 0 <= l < b_jk, and p_k does
    the same over rows with b_jk < 0 and 0 <= l < -b_jk.
    """
    n, m = B.nrows, B.ncols
    c = [Fraction(x) for x in c]
    if len(c) != n:
        raise ValueError("parameter vector must have one entry per row of B")
    ops = []
    for k in range(m):
        qf, pf = [], []
        for j in range(n):
            b = B.data[j][k]
            row = tuple(Fraction(x) for x in B.row(j))
            for l in range(abs(b)):
                factor = (row, c[j] - l)
                (qf if b > 0 else pf).append(factor)
        ops.append(ThetaOp(q_factors=tuple(qf), p_factors=tuple(pf),
                           k=k, nvars=m))
    return ops
