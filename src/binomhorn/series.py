"""Puiseux polynomials and series with exact operator actions.

A series has one rational base exponent and a finite map from integer
offsets z to nonzero scalars in Q(zeta_N): the term at z sits at
exponent base + z.  Optional truncation metadata gives the support
lattice, a word-length bound, and the finitely many sheet translates
the full solution lives on.  The binomial and Euler operators act term
by term and exactly; partial derivatives use falling factorials of
base + z, so rational and negative exponents are handled uniformly,
while keys stay integer.

The stored terms are the only representation of a series.  Every
operator works on its integer form instead (``_integer_form``):
one positive common denominator D, the lcm of the Scalars' integer
denominators, and, per offset, the deg Phi_N integers whose quotients
by D are the coefficients, each a Scalar's numerators times one integer
quotient.  The form is built where an operator is applied, once per
``verify_annihilation`` call, and is never cached, so edits of the
coefficients are always seen.  The residual terms become Scalars
straight from their integer vectors, reduced by one gcd each; no
``Fraction`` is built per term on either side.  A rational lambda of a
binomial operator is one more integer factor of its second part; only
an irrational one acts through its multiplication matrix on Z[zeta_N],
the one that ``Scalar`` products and inverses read
(``cyclotomic._mul_matrix``).

What an operator's action depends on besides the coefficients (the
falling factorial columns of each binomial part, the offsets its terms
land on and pair up at, the values of each Euler operator) depends only
on the offsets, the base and the operator.  It is kept in a store on
the ``Support`` (``_offset_store``), which the character twists of one
solution share along with their offsets, so they compute it once.  The
store serves only a series whose base is the support's alpha, and it is
rebuilt whenever the offsets differ from the ones it was built for.

A ``Truncation`` is shared by every solution of one decomposition at one
bound (see ``Decomposition.word_table``).  It builds the integer forms
of its lattice once, on first use, and answers which offsets the
truncation determines (``Truncation.coverage``) from them, with no
elimination per offset; it keeps one test per (sheets, shifts), and
each test remembers its answer for every offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add, mul, sub

from .cyclotomic import Scalar, _mul_matrix, cyclotomic_polynomial
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

    @cached_property
    def _tests(self):
        return {}

    def coverage(self, sheets, shifts):
        """The test of an integer offset z: True when, for every shift sh
        and every sheet translate t, z + sh - t is off the lattice or
        has word length at most ``bound``.

        The test is built once per (sheets, shifts) and kept on the
        truncation (see ``_coverage_test``); it remembers its answer for
        every offset it has decided, so the solutions that share this
        truncation decide each offset once.
        """
        key = (tuple(map(tuple, sheets)), tuple(map(tuple, shifts)))
        test = self._tests.get(key)
        if test is None:
            test = self._tests[key] = self._coverage_test(*key)
        return test

    def _coverage_test(self, sheets, shifts):
        """The coverage test of ``coverage``, built afresh.

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
        known = {}

        def covered(z):
            hit = known.get(z)
            if hit is None:
                hit = known[z] = decide(z)
            return hit

        def decide(z):
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
    translates (the sheet offsets).  ``_shared`` is the store of
    offset-only operator work of the series on this support (see
    ``_offset_store``); it is not a field, so it takes no part in
    equality."""

    alpha: tuple          # rational base exponent
    translates: tuple      # tuple of integer vectors, one per sheet

    @cached_property
    def _shared(self):
        return {}


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

    def describe(self):
        return self._description

    @cached_property
    def _description(self):
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
        return self._description

    @cached_property
    def _description(self):
        body = " + ".join(f"({c})*x{j + 1}d{j + 1}"
                          for j, c in enumerate(self.row) if c != 0)
        return f"{body} - ({self.value})"


@dataclass(frozen=True)
class ThetaOp:
    """q(theta) - z_k p(theta) in m z-variables, stored factored + expanded.

    Factors are linear forms (coeffs, constant) in theta = (z_j d/dz_j).
    A record for ``horn-ops`` to print: it does not act on a series.
    """

    q_factors: tuple
    p_factors: tuple
    k: int  # index of the multiplying variable, 0-based
    nvars: int

    def expanded_q(self):
        return _expand_factors(self.q_factors, self.nvars)

    def expanded_p(self):
        return _expand_factors(self.p_factors, self.nvars)


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
    """Exact term-by-term action of a binomial or Euler operator; the
    result keeps the base of ``s``, so every operator only moves integer
    keys, and carries no truncation or support.

    Every operator acts on the integer form of ``s`` (see
    ``_integer_form``): integer coefficient vectors over one common
    denominator, so a term costs integer products and a term that
    cancels is an all-zero vector.  Only the terms that survive become
    Scalars, each reduced by one gcd.  What depends on the offsets alone
    (falling factorial columns, partner offsets, Euler values) comes
    from the store that the form carries (see ``_offset_store``).  A
    caller applying several operators to one series passes its integer
    form once as ``form``; without it the form is built here.
    """
    order, den, vecs, shared = form or _integer_form(s)
    if isinstance(op, BinomialOp):
        lam = None if op.lam.is_zero() else op.lam
        if lam is not None and lam.N != order and order == 1:
            order, vecs = lam.N, _lift(vecs, lam.N)
        common, out = _binomial_action(s.base, shared, vecs, order,
                                       op.u_plus, op.u_minus, lam)
    elif isinstance(op, EulerOp):
        common, factors = _euler_factors(shared, s.base, op)
        out = {z: [f * x for x in vecs[i]] for z, i, f in factors}
    else:
        raise TypeError(f"unknown operator type {type(op)!r}")
    den *= common
    return s._with_terms({z: Scalar._reduced(order, v, den)
                          for z, v in out.items()})


def _integer_form(s):
    """The terms of ``s`` over one common denominator.

    Returns (N, D, vectors, shared): the cyclotomic order N of the
    coefficients, the positive lcm D of the Scalars' denominators, the
    list, in the order of ``s.terms``, of the deg Phi_N integers whose
    quotients by D are the coefficients of each term (the Scalar's
    numerators times one integer quotient of D by its denominator), and
    the offset store of ``s`` (``_offset_store``).  A rational
    coefficient of order 1 in a series of order N > 1 is padded with
    zeros, as in Q(zeta_N).  The vectors are rebuilt from ``s.terms`` on
    every call and are never stored, so edits of the coefficients are
    always seen.
    """
    orders = {c.N for c in s.terms.values()}
    if len(orders - {1}) > 1:
        raise ValueError(f"mixed cyclotomic orders {sorted(orders - {1})}")
    order = max(orders, default=1)
    den = lcm(*{c.den for c in s.terms.values()})
    vecs = [c.nums if (m := den // c.den) == 1 else
            tuple([m * x for x in c.nums]) for c in s.terms.values()]
    if order > 1 and 1 in orders:
        vecs = _lift(vecs, order)
    return order, den, vecs, _offset_store(s)


def _offset_store(s):
    """The store of the work on ``s`` that depends only on its offsets,
    its base and an operator, with the offsets under ``"offsets"``.

    The store lives on the support (``Support._shared``), so the series
    that share a support and its offsets, as the character twists of
    one solution do, share it; it is used only when the base of ``s`` is
    the support's alpha, and it is cleared whenever the offsets of
    ``s``, in order, differ from the ones it was built for.  Any other
    series gets a throwaway store.  Nothing in it depends on a
    coefficient.
    """
    support = s.support
    shared = support._shared if support is not None \
        and support.alpha == s.base else {}
    offsets = tuple(s.terms)
    if shared.get("offsets") != offsets:
        shared.clear()
        shared["offsets"] = offsets
    return shared


def _lift(vecs, order):
    """Integer vectors, those of order 1 among them, as vectors of
    Q(zeta_order)."""
    deg = len(cyclotomic_polynomial(order)) - 1
    return [v + (0,) * (deg - len(v)) for v in vecs]


def _binomial_action(base, shared, vecs, order, u_plus, u_minus, lam):
    """partial^u_plus - lam partial^u_minus (lam None: the first part
    alone) applied to the integer vectors ``vecs`` on ``base``, listed
    in the order of the offsets of the store ``shared``; returns the
    common denominator of the two parts and the nonzero integer vectors
    over it, keyed by offset.

    The coefficient of partial^u x^(base + z) is a product over the
    coordinates j with u_j > 0 of falling factorials of base_j + z_j.
    With base_j = p/q each factor is an integer numerator over q^u_j, so
    a part has the single denominator prod_j q_j^u_j times an integer
    scale.  A rational lam = a/b is one more factor of the second part:
    scale -a, denominator b.  Any other lam acts through its integer
    multiplication matrix on Z[zeta_N] (``_multiplication_matrix``),
    with scale -1 and the matrix's denominator.  The scaled numerators
    and the offsets they land on come from ``_binomial_plan``; only the
    vector products are done per series.
    """
    parts, matrix = [(u_plus, 1, 1)], None
    if lam is not None:
        if lam.is_rational():
            parts.append((u_minus, lam.den, -lam.nums[0]))
        else:
            den, matrix = _multiplication_matrix(lam, order)
            parts.append((u_minus, den, -1))
    parts = [(u, den * prod([b.denominator ** k for b, k in zip(base, u)]),
              factor) for u, den, factor in parts]
    common = lcm(*(den for _, den, _ in parts))
    firsts, pairs, seconds = _binomial_plan(
        shared, base, *[(u, factor * (common // den))
                        for u, den, factor in parts])
    ys = vecs if matrix is None else \
        [[sum(map(mul, row, v)) for row in matrix] for v in vecs]
    out = {}
    for z, i, a in firsts:
        if any(w := [a * x for x in vecs[i]]):
            out[z] = w
    for z, i, a, j, b in pairs:
        if any(w := [a * x + b * y for x, y in zip(vecs[i], ys[j])]):
            out[z] = w
    for z, j, b in seconds:
        if any(w := [b * y for y in ys[j]]):
            out[z] = w
    return common, out


def _binomial_plan(shared, base, first, second=None):
    """Where the terms of partial^u_plus - lam partial^u_minus land, for
    the offsets of the store ``shared``, with ``first`` = (u_plus, a)
    and ``second`` = (u_minus, b) (None: no second part) giving each
    part's exponent and integer scale; built once per store.

    The first part's term from z and the second part's term from
    z - (u_plus - u_minus) land on one offset, z - u_plus.  So the
    terms are paired by the first part's source z, and the plan is three
    lists: (offset, i, a n_i) for a first-part term alone, (offset, i,
    a n_i, j, b m_j) for a pair, and (offset, j, b m_j) for a
    second-part term alone, where i and j index the offsets and n, m are
    the falling factorial columns (``_falling_column``) of the two parts.
    Terms whose falling factorial vanishes are left out.
    """
    key = ("plan", first, second)
    plan = shared.get(key)
    if plan is not None:
        return plan
    zs = shared["offsets"]
    u_plus, a = first
    rows = {z: [i, a * n, None, 0]
            for i, (z, n) in enumerate(zip(zs, _column(shared, base, u_plus)))
            if n}
    if second is not None:
        u_minus, b = second
        shift = tuple(map(sub, u_plus, u_minus))
        for j, (z, m) in enumerate(zip(zs, _column(shared, base, u_minus))):
            if not m:
                continue
            src = tuple(map(add, z, shift))
            row = rows.get(src)
            if row is None:
                rows[src] = [None, 0, j, b * m]
            else:
                row[2], row[3] = j, b * m
    firsts, pairs, seconds = [], [], []
    for src, (i, n, j, m) in rows.items():
        z = tuple(map(sub, src, u_plus))
        if j is None:
            firsts.append((z, i, n))
        elif i is None:
            seconds.append((z, j, m))
        else:
            pairs.append((z, i, n, j, m))
    plan = shared[key] = (firsts, pairs, seconds)
    return plan


def _column(shared, base, u):
    """The falling factorial column of u for the offsets of the store
    ``shared``, built on first use (``_falling_column``)."""
    key = ("column", u)
    col = shared.get(key)
    if col is None:
        col = shared[key] = _falling_column(base, shared["offsets"], u)
    return col


def _falling_column(base, zs, u):
    """For each offset z in ``zs``, the integer numerator of the
    coefficient prod_j ff(base_j + z_j, u_j) of partial^u x^(base + z)
    over prod_j q_j^u_j, q_j the denominator of base_j; one table per
    coordinate maps z_j to its factor."""
    nums = [1] * len(zs)
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
    return nums


def _euler_factors(shared, base, op):
    """(e, factors) for the Euler operator ``op`` on the offsets of the
    store ``shared``: sum_j row_j (base_j + z_j) - value is one rational
    constant plus a dot product with the integer offset, an integer f
    over e, and ``factors`` lists (z, i, f) for the offsets z, at index
    i, where f is not zero.  Built once per store."""
    key = ("euler", op.row, op.value)
    got = shared.get(key)
    if got is None:
        const = sum(r * b for r, b in zip(op.row, base)) - op.value
        e = lcm(const.denominator, *(r.denominator for r in op.row))
        const = const.numerator * (e // const.denominator)
        row = [r.numerator * (e // r.denominator) for r in op.row]
        got = shared[key] = (e, [
            (z, i, f) for i, z in enumerate(shared["offsets"])
            if (f := const + sum(map(mul, row, z)))])
    return got


def _multiplication_matrix(lam, order):
    """(den, rows): lam times an element of Q(zeta_order) with integer
    coordinates x has the coordinates rows x / den, where den = lam.den
    and the rows are those of ``cyclotomic._mul_matrix``.  Built only for
    an irrational lam; a rational one is a scalar (``_binomial_action``)."""
    if lam.N != order:
        raise ValueError(f"mixed cyclotomic orders {lam.N} and {order}")
    return lam.den, list(zip(*_mul_matrix(lam.nums, order)))


# -- operator factories --------------------------------------------------------

def lattice_binomials(B: IntMatrix, field_order=1):
    """One binomial operator per column of B: the positive part minus the
    negative part, each lam = 1 in the cyclotomic field of that order."""
    one = Scalar.one(field_order)
    return [BinomialOp(u_plus=tuple(max(x, 0) for x in col),
                       u_minus=tuple(max(-x, 0) for x in col), lam=one)
            for col in B.columns()]


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
