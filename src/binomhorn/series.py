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
operator works on its integer form instead (``_integer_form``): deg
Phi_N integer columns, column k listing the k-th numerator of every
term, beside the column of each term's own positive denominator, read
off the Scalars with no lcm and no division.  The form is built where
an operator is applied, once per ``verify_annihilation`` call, and is
never cached, so edits of the coefficients are always seen.  An operator
acts on whole columns (``_integer_action``): it gathers them at the
indices its terms come from (``operator.itemgetter``), multiplies them
by columns of integer factors with ``map``, and keeps, through
``itertools.compress``, the nonzero results, each an integer vector
over its own denominator.  They become Scalars, reduced by one gcd
each, only where they are read, so no ``Fraction`` is built and no
Python step is taken per term on either side.  A rational lambda of a
binomial operator is one more integer factor of its second part; only
an irrational one acts through its multiplication matrix on
Z[zeta_N], the one that ``Scalar`` products and inverses read
(``cyclotomic._mul_matrix``).

What an operator's action depends on besides the coefficients is kept
in two stores (``_offset_store``).  The offsets its binomial terms land
on, the gathers of the indices they come from, the level sets of each
Euler row (the offsets grouped by their dot product with the row) and
the offsets by coordinate depend on the offsets alone.  They are kept
on the ``Truncation``, keyed by the offsets, so the solutions on it
share them across parameters: the offsets of a truncated solution are
its lattice words plus its sheet translates, whatever the parameter.
The falling factorial columns of each binomial part and the factor of
each level of an Euler operator also depend on the base.  They are kept
on the ``Support``, which the character twists of one solution share
along with their offsets, so they compute them once.  That store
serves only a series whose base is the support's alpha, and it is
rebuilt whenever the offsets differ from the ones it was built for.

A ``Truncation`` is shared by every solution of one decomposition at one
bound (see ``Decomposition.word_table``).  It builds the integer forms
of its lattice once, on first use, and answers which offsets the
truncation determines (``Truncation.coverage``) from them, with no
elimination per offset; it keeps one test per (sheets, shifts), and
each test remembers its answer for every offset.  Nothing it keeps
depends on a base or a coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, groupby
from math import lcm, prod
from operator import add, attrgetter, itemgetter, mul, sub

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

    @cached_property
    def _offset_work(self):
        return {}

    def offset_work(self, offsets):
        """The store of the operator work that depends on the offsets
        ``offsets`` alone (see ``series._offset_store``), one per tuple of
        offsets: the pairings of the binomial operators, keyed by
        (u_plus, u_minus or None), the level sets of the Euler rows,
        keyed by their integer rows (``EulerOp._keys``), and the offsets
        by coordinate.  Nothing in it depends on a base or a coefficient,
        so every solution on this truncation whose offsets are
        ``offsets``, at any parameter, shares it."""
        return self._offset_work.setdefault(offsets, {})

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
    translates (the sheet offsets).  ``_shared`` is the store of the
    operator work on the offsets and base of the series on this support
    (see ``_offset_store``); it is not a field, so it takes no part in
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
    def _keys(self):
        """(row key, operator key) of the stores ``_euler_action`` reads,
        built once per operator: the row as the integer row e row over
        the lcm e of its denominators, and that with the value as a
        coprime integer pair.  Equal rows give equal row keys whatever
        the parameter, so operators built for different parameters share
        the truncation's level sets, and no lookup hashes a Fraction.
        """
        e = lcm(*(r.denominator for r in self.row))
        row = ("euler", e,
               tuple([r.numerator * (e // r.denominator) for r in self.row]))
        return row, (*row, self.value.numerator, self.value.denominator)

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


def apply_operator(op, s: PuiseuxSeries) -> PuiseuxSeries:
    """Exact term-by-term action of a binomial or Euler operator; the
    result keeps the base of ``s``, so every operator only moves integer
    keys, and carries no truncation or support.

    The operator acts on the integer form of ``s`` (``_integer_action``),
    and the terms that survive become Scalars, each reduced by one gcd.
    """
    order, common, out = _integer_action(op, _integer_form(s), s.base)
    return s._with_terms({z: Scalar._reduced(order, v, common * d)
                          for z, v, d in out})


def _integer_action(op, form, base):
    """(N, c, terms): a binomial or Euler operator applied to the integer
    form ``form`` (``_integer_form``) of a series on ``base``, as the
    list of its nonzero terms (z, vector, d), whose coefficient is the
    vector of deg Phi_N integers over c d.

    The action works on whole columns: each part of an operator gathers
    the coordinate columns of the form at the indices its terms come
    from and multiplies them by columns of integer factors, so a term
    costs integer products and no Python step.  A result whose vector is
    all zero, a cancelled term or the image of a zero coefficient, is
    left out.  What depends on the offsets alone (partner offsets, Euler
    level sets) and what depends on them and the base (falling factorial
    columns, Euler factors) comes from the store that the form carries
    (see ``_offset_store``).
    """
    order, cols, dens, shared = form
    if isinstance(op, BinomialOp):
        lam = None if op.lam.is_zero() else op.lam
        if lam is not None and lam.N != order and order == 1:
            order, cols = lam.N, _lift(cols, lam.N)
        common, zs, cols, dens = _binomial_action(
            base, shared, cols, dens, order, op.u_plus, op.u_minus, lam)
    elif isinstance(op, EulerOp):
        common, zs, cols, dens = _euler_action(base, shared, cols, dens, op)
    else:
        raise TypeError(f"unknown operator type {type(op)!r}")
    vecs = list(zip(*cols))
    return order, common, list(compress(zip(zs, vecs, dens), map(any, vecs)))


_order, _nums, _den = attrgetter("N"), attrgetter("nums"), attrgetter("den")


def _integer_form(s):
    """The terms of ``s`` as integer columns.

    Returns (N, columns, denominators, shared): the cyclotomic order N of
    the coefficients; deg Phi_N columns, column k listing the k-th
    power-basis numerator of every term in the order of ``s.terms``;
    each term's own positive denominator, in the same order; and the
    offset store of ``s`` (``_offset_store``).  A coefficient is its
    numerators over its denominator, as the Scalar holds it, so the form
    takes no lcm and no division.  A rational coefficient of order 1 in
    a series of order N > 1 is padded with zeros, as in Q(zeta_N).  The
    columns are rebuilt from ``s.terms`` on every call and are never
    stored, so edits of the coefficients are always seen.
    """
    values = s.terms.values()
    orders = set(map(_order, values))
    if len(orders - {1}) > 1:
        raise ValueError(f"mixed cyclotomic orders {sorted(orders - {1})}")
    order = max(orders, default=1)
    nums = map(_nums, values)
    if order > 1 and 1 in orders:
        pad = (0,) * (_degree(order) - 1)
        nums = [v if len(v) > 1 else v + pad for v in nums]
    cols = list(zip(*nums)) or [()] * _degree(order)
    return order, cols, list(map(_den, values)), _offset_store(s)


def _degree(order):
    """deg Phi_N, the length of a Scalar's numerators in Q(zeta_N)."""
    return len(cyclotomic_polynomial(order)) - 1


def _offset_store(s):
    """The store of the work on ``s`` that depends on its offsets and
    its base but on no coefficient, with the offsets under
    ``"offsets"`` and, under ``"work"``, the store of the work that
    depends on the offsets alone.

    The first store lives on the support (``Support._shared``), so the
    series that share a support and its offsets, as the character twists
    of one solution do, share its falling factorial columns and Euler
    factors; it is used only when the base of ``s`` is the support's
    alpha, and it is cleared whenever the offsets of ``s``, in order,
    differ from the ones it was built for.  Any other series gets a
    throwaway store.  The second store lives on the truncation
    (``Truncation.offset_work``), keyed by the offsets, so the solutions
    on one truncation whose offsets agree share their pairings, Euler
    level sets and offset columns across supports and bases; a series
    with no truncation gets a throwaway one.
    """
    support = s.support
    shared = support._shared if support is not None \
        and support.alpha == s.base else {}
    offsets = tuple(s.terms)
    if shared.get("offsets") != offsets:
        shared.clear()
        shared["offsets"] = offsets
        shared["work"] = {} if s.truncation is None \
            else s.truncation.offset_work(offsets)
    return shared


def _offset_columns(shared, nvars):
    """The offsets of the store ``shared`` by coordinate: column j lists
    z_j for every offset z, in order; built once per offsets on the
    truncation's store."""
    work = shared["work"]
    cols = work.get("columns")
    if cols is None:
        cols = work["columns"] = tuple(zip(*shared["offsets"])) \
            or ((),) * nvars
    return cols


def _lift(cols, order):
    """Integer columns of order 1 as columns of Q(zeta_order): the
    higher power-basis coordinates are zero."""
    return cols + [(0,) * len(cols[0])] * (_degree(order) - len(cols))


def _gather(indices):
    """A callable picking the entries at ``indices`` of a sequence as a
    tuple: ``operator.itemgetter``, which returns a bare entry for one
    index and cannot take none, wrapped for those two cases."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i, = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _binomial_action(base, shared, cols, dens, order, u_plus, u_minus, lam):
    """partial^u_plus - lam partial^u_minus (lam None: the first part
    alone) applied to the integer columns ``cols`` over the denominators
    ``dens`` on ``base``, listed in the order of the offsets of the store
    ``shared``; returns (c, offsets, columns, denominators) of the
    result, each term's coefficient its column entries over c times its
    denominator.

    The coefficient of partial^u x^(base + z) is a product over the
    coordinates j with u_j > 0 of falling factorials of base_j + z_j.
    With base_j = p/q each factor is an integer numerator over q^u_j, so
    a part has the single denominator prod_j q_j^u_j times an integer
    scale.  A rational lam = a/b is one more factor of the second part:
    scale -a, denominator b.  Any other lam acts through its integer
    multiplication matrix on Z[zeta_N] (``_multiplication_matrix``),
    with scale -1 and the matrix's denominator.  The offsets the terms
    land on and the indices they come from are gathers of ``_pairing``,
    once per offsets and operator on the truncation; the scaled falling
    factorial columns (``_scaled_column``), once per support.  A term
    from index i alone is a_i x_i over d_i, and a pair (i, j) is
    a_i d_j x_i + b_j d_i y_j over d_i d_j, with a and b the two parts'
    columns and y the second part's coefficients, so no term is put
    over a denominator shared with the others.
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
    key = (u_plus, None if lam is None else u_minus)
    work = shared["work"]
    pairing = work.get(key)
    if pairing is None:
        pairing = work[key] = _pairing(shared["offsets"], *key)
    (firsts, f), (paired, i, j), (seconds, s) = pairing
    scaled = [_scaled_column(shared, base, u, factor * (common // den))
              for u, den, factor in parts]
    a, b = scaled[0], scaled[-1]
    ys = cols if matrix is None else [_combine(row, cols) for row in matrix]
    d_i, d_j = i(dens), j(dens)
    a_f, b_s = f(a), s(b)
    a_i, b_j = list(map(mul, i(a), d_j)), list(map(mul, j(b), d_i))
    out = [[*map(mul, a_f, f(x)),
            *map(add, map(mul, a_i, i(x)), map(mul, b_j, j(y))),
            *map(mul, b_s, s(y))] for x, y in zip(cols, ys)]
    return (common, firsts + paired + seconds, out,
            [*f(dens), *map(mul, d_i, d_j), *s(dens)])


def _combine(row, cols):
    """The column sum_l row_l cols_l of integer columns."""
    out = [0] * len(cols[0])
    for m, x in zip(row, cols):
        if m:
            out = list(map(add, out, map(m.__mul__, x)))
    return out


def _pairing(zs, u_plus, u_minus=None):
    """Where the terms of partial^u_plus - lam partial^u_minus land, for
    the offsets ``zs`` (u_minus None: the first part alone); it depends
    on nothing else.

    The first part's term from z and the second part's term from
    z - (u_plus - u_minus) land on one offset, z - u_plus.  So the
    pairing is three groups: the offsets a first-part term alone lands
    on with a gather of the indices into ``zs`` it comes from, the
    offsets a pair lands on with gathers of its first and second
    indices, and the offsets a second-part term alone lands on with a
    gather of its indices (see ``_gather``).
    """
    paired = [False] * len(zs)
    pairs, seconds = [], []
    if u_minus is not None:
        index = {z: i for i, z in enumerate(zs)}
        shift = tuple(map(sub, u_plus, u_minus))
        for j, z in enumerate(zs):
            y = tuple(map(sub, z, u_minus))
            i = index.get(tuple(map(add, z, shift)))
            if i is None:
                seconds.append((y, j))
            else:
                pairs.append((y, i, j))
                paired[i] = True
    firsts = [(tuple(map(sub, z, u_plus)), i) for i, z in enumerate(zs)
              if not paired[i]]
    return _group(firsts, 2), _group(pairs, 3), _group(seconds, 2)


def _group(rows, width):
    """Rows (offset, index, ...) of ``width`` entries as the tuple of
    their offsets followed by a gather of each index position."""
    offsets, *indices = zip(*rows) if rows else [()] * width
    return (offsets, *map(_gather, indices))


def _scaled_column(shared, base, u, factor):
    """``factor`` times the falling factorial column of u for the
    offsets of the store ``shared``; the column is built once per store
    (``_falling_column``), and each scaled copy once."""
    key = ("column", u, factor)
    col = shared.get(key)
    if col is None:
        col = shared.get(("column", u))
        if col is None:
            col = shared[("column", u)] = _falling_column(base, shared, u)
        if factor != 1:
            col = list(map(factor.__mul__, col))
        shared[key] = col
    return col


def _falling_column(base, shared, u):
    """For each offset z of the store ``shared``, the integer numerator
    of the coefficient prod_j ff(base_j + z_j, u_j) of partial^u
    x^(base + z) over prod_j q_j^u_j, q_j the denominator of base_j.
    One table per coordinate maps z_j to its factor; the lookups of the
    offsets' column j (``_offset_columns``) are multiplied in."""
    nums = None
    for j, k in enumerate(u):
        if not k:
            continue
        col = _offset_columns(shared, len(base))[j]
        p, q = base[j].numerator, base[j].denominator
        table = {}
        for x in set(col):
            num, top = 1, p + x * q
            for i in range(k):
                num *= top - i * q
            table[x] = num
        looked = map(table.__getitem__, col)
        nums = list(looked) if nums is None else list(map(mul, nums, looked))
    return [1] * len(shared["offsets"]) if nums is None else nums


def _euler_action(base, shared, cols, dens, op):
    """(e, offsets, columns, denominators) for the Euler operator ``op``
    on the integer columns ``cols`` over ``dens`` on ``base``, listed in
    the order of the offsets of the store ``shared``.

    sum_j row_j (base_j + z_j) - value is one rational constant plus the
    dot product of the row with the integer offset z.  Over the common
    denominator e of the row and the constant, the factor of every
    offset in one level set of the row (the offsets of one dot product,
    ``_euler_levels``) is one integer, and a level whose factor is zero
    contributes nothing.  The level sets depend on the offsets alone and
    are built once per offsets and row on the truncation; the factors,
    and the gather of the offsets on levels that do not vanish, once per
    support and operator.  On a solution every level vanishes, so the
    check reads no column.  Both stores are keyed by the integer forms
    of ``EulerOp._keys``.
    """
    row_key, key = op._keys
    got = shared.get(key)
    if got is None:
        work = shared["work"]
        _, e_row, ints = row_key
        levels = work.get(row_key)
        if levels is None:
            levels = work[row_key] = _euler_levels(shared["offsets"], ints)
        const = sum(r * b for r, b in zip(op.row, base)) - op.value
        e = lcm(e_row, const.denominator)
        k, c = e // e_row, const.numerator * (e // const.denominator)
        live = sorted((i, f) for dot, idx in levels.items()
                      if (f := k * dot + c) for i in idx)
        pick = _gather([i for i, _ in live])
        got = shared[key] = (e, pick(shared["offsets"]), pick,
                             [f for _, f in live])
    e, zs, pick, fs = got
    return e, zs, [list(map(mul, fs, pick(x))) for x in cols], pick(dens)


def _euler_levels(zs, ints):
    """The level sets of the integer row ``ints`` (an Euler row over the
    lcm of its denominators, from ``EulerOp._keys``) on the offsets
    ``zs``: each dot product with the row, mapped to the indices of the
    offsets that have it, in order."""
    dots = [sum(map(mul, ints, z)) for z in zs]
    at = dots.__getitem__
    return {dot: list(idx)
            for dot, idx in groupby(sorted(range(len(zs)), key=at), at)}


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
