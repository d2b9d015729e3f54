"""Puiseux polynomials and series with exact operator actions.

A series has one rational base exponent and a finite map from integer
offsets z to nonzero scalars in Q(zeta_N): the term at z sits at
exponent base + z.  Optional truncation metadata gives the support
lattice, a word-length bound, and the finitely many sheet translates
the full solution lives on.  Operators act term by term and exactly;
partial derivatives use falling factorials of base + z, so rational and
negative exponents are handled uniformly, while keys stay integer.

The stored terms are the only representation of a series.  Binomial and
Euler operators work on its integer form instead (``_integer_form``):
one positive common denominator D, the lcm of the Scalars' integer
denominators, and, per offset, the deg Phi_N integers whose quotients
by D are the coefficients, each a Scalar's numerators times one integer
quotient.  The form is built where an operator is applied, once per
``verify_annihilation`` call, and is never cached on the series, so
edits of ``terms`` are always seen.  The residual terms become Scalars
straight from their integer vectors, reduced by one gcd each; no
``Fraction`` is built per term on either side.  A rational lambda of a
binomial operator is one more integer factor of its second part; only
an irrational one acts through a multiplication matrix on Z[zeta_N].

A ``Truncation`` is shared by every solution of one decomposition at one
bound (see ``Decomposition.word_table``).  It builds the integer forms
of its lattice once, on first use, and answers which offsets the
truncation determines (``Truncation.coverage``) from them, with no
elimination per offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add, mul, sub

from .cyclotomic import Scalar, cyclotomic_polynomial
from .exact_linalg import IntMatrix, coordinate_forms


@dataclass(frozen=True)
class Truncation:
    """Word-length truncation against a lattice basis.

    Terms are generated for lattice offsets whose coordinate vector in
    ``basis`` has l1 norm at most ``bound``.
    """

    basis: tuple  # tuple of integer vectors (the lattice basis columns)
    bound: int
    dim: int      # the length of the basis vectors and of every offset

    @cached_property
    def _forms(self):
        return coordinate_forms(self.basis, self.dim)

    def coverage(self, sheets, shifts):
        """The test of an integer offset z: True when, for every shift sh
        and every sheet translate t, z + sh - t is off the lattice or
        has word length at most ``bound``.

        With the ``coordinate_forms`` (C, P, d) of the basis, an integer
        y lies on the lattice exactly when C y = 0 and d divides P y, and
        its word length is then |P y|_1 / d.  Both forms are linear, so a
        test computes C z and P z once and each (shift, sheet) pair adds
        its constant: the pairs are keyed by -C (sh - t), and only those
        whose key is C z can put z + sh - t on the lattice.
        """
        C, P, d = self._forms
        limit = self.bound * d
        pairs = {}
        for sh in shifts:
            for t in sheets:
                w = tuple(map(sub, sh, t))
                pairs.setdefault(tuple([-sum(map(mul, row, w)) for row in C]),
                                 []).append([sum(map(mul, row, w))
                                             for row in P])

        def covered(z):
            near = pairs.get(tuple([sum(map(mul, row, z)) for row in C]))
            if near is None:
                return True
            pz = [sum(map(mul, row, z)) for row in P]
            for pw in near:
                k = list(map(add, pz, pw))
                if sum(map(abs, k)) > limit and not any(x % d for x in k):
                    return False
            return True

        return covered


@dataclass(frozen=True)
class Support:
    """Declared support: base point alpha plus finitely many integer
    translates (the sheet offsets) plus the lattice of the truncation."""

    alpha: tuple          # rational base exponent
    translates: tuple      # tuple of integer vectors, one per sheet


class PuiseuxSeries:
    """Finitely many exact terms of a formal Puiseux series.

    ``terms`` maps integer offsets z to nonzero Scalars; the term at z
    has exponent ``base + z``.  The base defaults to the support's alpha
    (and must equal it when both are given), else to zero.
    """

    __slots__ = ("nvars", "field_order", "base", "terms", "truncation",
                 "support")

    def __init__(self, nvars, terms=None, field_order=1,
                 truncation=None, support=None, base=None):
        self.nvars = int(nvars)
        self.field_order = int(field_order)
        if base is None:
            base = support.alpha if support is not None else (0,) * self.nvars
        base = tuple(Fraction(x) for x in base)
        if len(base) != self.nvars:
            raise ValueError("base length mismatch")
        if support is not None and tuple(support.alpha) != base:
            raise ValueError("the base must be the support's alpha")
        clean = {}
        for z, c in (terms or {}).items():
            key = tuple(int(x) for x in z)
            if len(key) != self.nvars:
                raise ValueError("exponent length mismatch")
            if key != tuple(z):
                raise ValueError("term offsets must be integer vectors")
            if not isinstance(c, Scalar):
                c = Scalar.rational(c, self.field_order)
            if not c.is_zero():
                clean[key] = c
        self.base = base
        self.terms = clean
        self.truncation = truncation
        self.support = support

    def _with_terms(self, terms, truncation=None, support=None):
        """A series on this base and field from integer-keyed nonzero
        Scalars, without the constructor's checks."""
        out = object.__new__(PuiseuxSeries)
        out.nvars, out.field_order, out.base = \
            self.nvars, self.field_order, self.base
        out.terms = terms
        out.truncation = truncation
        out.support = support
        return out

    @staticmethod
    def monomial(nvars, exponent, coeff=1, field_order=1, **kw):
        return PuiseuxSeries(nvars, {(0,) * int(nvars): coeff},
                             field_order=field_order, base=exponent, **kw)

    def is_zero(self):
        return not self.terms

    def num_terms(self):
        return len(self.terms)

    def exponent(self, z):
        """The rational exponent base + z of the term at offset z."""
        return tuple(b + x for b, x in zip(self.base, z))

    def coefficient(self, exponent):
        z = tuple(Fraction(e) - b for e, b in zip(exponent, self.base))
        if len(z) != self.nvars or any(x.denominator != 1 for x in z):
            return Scalar.zero(self.field_order)
        return self.terms.get(tuple(int(x) for x in z),
                              Scalar.zero(self.field_order))

    def sorted_terms(self):
        """(z, coefficient) pairs, sorted by z and so by exponent."""
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, PuiseuxSeries)
                and self.nvars == other.nvars
                and self.base == other.base
                and self.terms == other.terms)

    def __repr__(self):
        parts = []
        for z, c in self.sorted_terms()[:8]:
            mono = "*".join(f"x{i + 1}^({x})"
                            for i, x in enumerate(self.exponent(z)) if x != 0)
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


def apply_operator(op, s: PuiseuxSeries, *, form=None) -> PuiseuxSeries:
    """Exact term-by-term action of a differential operator; the result
    keeps the base of ``s``, so every operator only moves integer keys.

    Binomial and Euler operators act on the integer form of ``s`` (see
    ``_integer_form``): integer coefficient vectors over one common
    denominator, so a term costs integer products and a term that
    cancels is an all-zero vector.  Scalars are built only for the terms
    that survive.  A caller applying several operators to one series
    passes its integer form once as ``form``; without it the form is
    built from ``s.terms`` here.  Theta operators act on the Scalars.
    """
    if isinstance(op, BinomialOp):
        order, den, vecs = form or _integer_form(s)
        lam = None if op.lam.is_zero() else op.lam
        if lam is not None and lam.N != order and order == 1:
            order, vecs = _lift_form(lam.N, vecs)
        common, acc = _binomial_action(s.base, vecs, order, op.u_plus,
                                       op.u_minus, lam)
        trunc = _tighten(s.truncation, sum(op.u_plus) + sum(op.u_minus))
        return s._with_terms(_scalars(order, den * common, acc),
                             truncation=trunc)
    if isinstance(op, EulerOp):
        # sum_j row_j (base_j + z_j) - value: one rational constant plus
        # a dot product with the integer offset, over one denominator
        order, den, vecs = form or _integer_form(s)
        const = sum(r * b for r, b in zip(op.row, s.base)) - op.value
        e = lcm(const.denominator, *(r.denominator for r in op.row))
        const = const.numerator * (e // const.denominator)
        row = [r.numerator * (e // r.denominator) for r in op.row]
        out = {z: [f * x for x in v] for z, v in vecs.items()
               if (f := const + sum(map(mul, row, z)))}
        return s._with_terms(_scalars(order, den * e, out),
                             truncation=s.truncation, support=s.support)
    if isinstance(op, ThetaOp):
        out = {}
        k = op.k
        for z, c in s.terms.items():
            e = s.exponent(z)
            qv = op.q_at(e)
            if qv != 0:
                _acc(out, z, c * qv)
            pv = op.p_at(e)
            if pv != 0:
                _acc(out, z[:k] + (z[k] + 1,) + z[k + 1:], -(c * pv))
        return s._with_terms(out, truncation=_tighten(s.truncation, 1))
    raise TypeError(f"unknown operator type {type(op)!r}")


def _integer_form(s):
    """The terms of ``s`` over one common denominator.

    Returns (N, D, vectors): the cyclotomic order N of the coefficients,
    the positive lcm D of the Scalars' denominators, and for every
    offset z the tuple of deg Phi_N integers whose quotients by D are
    the coefficients of the term at z: the Scalar's numerators times one
    integer quotient of D by its denominator.  A rational coefficient of
    order 1 in a series of order N > 1 is padded with zeros, as in
    Q(zeta_N).  The form is rebuilt from ``s.terms`` on every call, so
    edits of the terms are always seen.
    """
    orders = {c.N for c in s.terms.values()}
    if len(orders - {1}) > 1:
        raise ValueError(f"mixed cyclotomic orders {sorted(orders - {1})}")
    order = max(orders, default=1)
    den = lcm(*{c.den for c in s.terms.values()})
    vecs = {z: c.nums if (m := den // c.den) == 1 else
            tuple([m * x for x in c.nums]) for z, c in s.terms.items()}
    if order > 1 and 1 in orders:
        deg = len(cyclotomic_polynomial(order)) - 1
        vecs = {z: v + (0,) * (deg - len(v)) for z, v in vecs.items()}
    return order, den, vecs


def _lift_form(order, vecs):
    """Integer vectors of order 1 as vectors of Q(zeta_order)."""
    pad = (0,) * (len(cyclotomic_polynomial(order)) - 2)
    return order, {z: v + pad for z, v in vecs.items()}


def _scalars(order, den, vecs):
    """Scalars of order ``order`` from nonzero integer vectors over
    ``den``, each reduced by one gcd."""
    return {z: Scalar._reduced(order, v, den) for z, v in vecs.items()}


def _acc(d, key, val):
    cur = d.get(key)
    new = val if cur is None else cur + val
    if new.is_zero():
        d.pop(key, None)
    else:
        d[key] = new


def _binomial_action(base, vecs, order, u_plus, u_minus, lam):
    """partial^u_plus - lam partial^u_minus (lam None: the first part
    alone) applied to the integer vectors ``vecs`` on ``base``; returns
    the common denominator of the two parts and the nonzero integer
    vectors over it, keyed by offset.

    The coefficient of partial^u x^(base + z) is a product over the
    coordinates j with u_j > 0 of falling factorials of base_j + z_j.
    With base_j = p/q each factor is an integer numerator over q^u_j, so
    one table per coordinate maps z_j to that numerator, and a part has
    the single denominator prod_j q_j^u_j times an integer scale.  A
    rational lam = a/b is one more factor of the second part: scale -a,
    denominator b.  Any other lam acts through its integer
    multiplication matrix on Z[zeta_N] (``_multiplication_matrix``),
    with scale -1 and the matrix's denominator.

    The first part's term from z and the second part's term from
    z - (u_plus - u_minus) land on one offset, z - u_plus.  So the sum
    is keyed by the first part's source z, and only the vectors that do
    not cancel are moved to their offsets.
    """
    parts = [(u_plus, 1, 1, None)]
    if lam is not None:
        if lam.is_rational():
            parts.append((u_minus, lam.den, -lam.nums[0], None))
        else:
            den, matrix = _multiplication_matrix(lam, order)
            parts.append((u_minus, den, -1, matrix))
    parts = [(u, den * prod([b.denominator ** k for b, k in zip(base, u)]),
              factor, matrix) for u, den, factor, matrix in parts]
    common = lcm(*(den for _, den, _, _ in parts))
    zs = list(vecs)
    scaled = []
    for u, den, factor, matrix in parts:
        # one column of products per part: the scale times each
        # coordinate's falling factorial numerator, tabled per value
        nums = [factor * (common // den)] * len(zs)
        for j, k in enumerate(u):
            if not k:
                continue
            p, q = base[j].numerator, base[j].denominator
            table = {}
            for x in {z[j] for z in zs}:
                num, top = 1, p + x * q
                for i in range(k):
                    num *= top - i * q
                table[x] = num
            nums = [n * table[z[j]] for n, z in zip(nums, zs)]
        scaled.append((nums, matrix))
    vs = vecs.values()
    (nums, _), *second = scaled
    acc = {z: [n * x for x in v] for z, n, v in zip(zs, nums, vs) if n}
    if second:
        (nums, matrix), = second
        shift = tuple(map(sub, u_plus, u_minus))
        for z, n, v in zip(zs, nums, vs):
            if not n:
                continue
            if matrix is not None:
                v = [sum(map(mul, row, v)) for row in matrix]
            key = tuple(map(add, z, shift))
            cur = acc.get(key)
            acc[key] = [n * x for x in v] if cur is None else \
                [a + n * x for a, x in zip(cur, v)]
    return common, {tuple(map(sub, z, u_plus)): v
                    for z, v in acc.items() if any(v)}


def _multiplication_matrix(lam, order):
    """(den, rows): lam times an element of Q(zeta_order) with integer
    coordinates x has the coordinates rows x / den.  Built only for an
    irrational lam; a rational one is a scalar (see ``_binomial_action``)."""
    deg = len(cyclotomic_polynomial(order)) - 1
    cols = [lam * Scalar.root_of_unity(order, i) for i in range(deg)]
    den = lcm(*(col.den for col in cols))
    return den, [[col.nums[r] * (den // col.den) for col in cols]
                 for r in range(deg)]


def _tighten(trunc, order):
    if trunc is None:
        return None
    return Truncation(basis=trunc.basis, bound=trunc.bound - order,
                      dim=trunc.dim)


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
