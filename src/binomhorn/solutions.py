"""Construction and verification of truncated Puiseux solution bases.

For every square-invertible block decomposition, every bounded component
representative gamma contributes solutions of the form

    x_Jbar^gamma  sum_v  c_v x_Jbar^{M v} partial_J^{-N v} (f),

where the c_v come from the unique component polynomial normalized to 1
at gamma, and f runs over truncated hypergeometric series for the
column configuration A_J at the shifted parameter.  The number of inner
series per decomposition is the normalized volume, realized through a
fixed triangulation of the cone over A_J; lattice-index many character
twists multiply the count up to the full generic rank when a cyclotomic
order is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, count, product, repeat
from math import gcd, lcm
from operator import floordiv, getitem, mul, sub

from .cyclotomic import Scalar
from .decomp import Decomposition, WordTable
from .errors import (
    BinomHornError,
    InfiniteRankError,
    ResonanceError,
    VeryGenericError,
)
from .exact_linalg import IntMatrix, frac_solve, row_hnf, rref
from .geometry import very_generic_check, _shift_beta
from .model import HornInput
from .series import (
    BinomialOp,
    PuiseuxSeries,
    Support,
    _integer_action,
    _integer_form,
)
from .subgraph import Component


# -- polynomial solutions attached to bounded components ------------------------

def component_polynomial(M: IntMatrix, gamma, component: Component) -> PuiseuxSeries:
    """The unique polynomial solution of the column binomial system of M
    supported on the given bounded component, normalized to 1 at gamma.

    Coefficients propagate along edges by the exact two-sided derivative
    relation; every coefficient is nonzero.
    """
    if not component.bounded:
        raise BinomHornError("component polynomial needs a bounded component")
    gamma = tuple(int(x) for x in gamma)
    pts = set(component.points)
    if gamma not in pts:
        raise BinomHornError("gamma is not a vertex of the component")
    lam = {gamma: Fraction(1)}
    frontier = [gamma]
    cols = [M.column(j) for j in range(M.ncols)]
    while frontier:
        new_frontier = []
        for u in frontier:
            for w in cols:
                wp = tuple(max(x, 0) for x in w)
                wm = tuple(max(-x, 0) for x in w)
                up = tuple(a + b for a, b in zip(u, w))
                if up in pts and up not in lam:
                    num = _point_ff(u, wm)
                    den = _point_ff(up, wp)
                    assert num != 0 and den != 0, "edge factorials are positive"
                    lam[up] = lam[u] * num / den
                    new_frontier.append(up)
                down = tuple(a - b for a, b in zip(u, w))
                if down in pts and down not in lam:
                    num = _point_ff(u, wp)
                    den = _point_ff(down, wm)
                    assert num != 0 and den != 0, "edge factorials are positive"
                    lam[down] = lam[u] * num / den
                    new_frontier.append(down)
        frontier = new_frontier
    if set(lam) != pts:
        raise BinomHornError("component is not edge-connected")
    assert all(v != 0 for v in lam.values()), "all coefficients are nonzero"
    return PuiseuxSeries(M.nrows, lam)


def _point_ff(point, u):
    """The product over coordinates of the falling factorials
    x (x - 1) ... (x - k + 1), x from the integer point and k from u."""
    out = 1
    for x, k in zip(point, u):
        for i in range(k):
            out *= x - i
    return out


# -- truncated hypergeometric series --------------------------------------------

def _gamma_ratios(v, lo, hi):
    """Gamma(v + 1) / Gamma(v + t + 1) for lo <= t <= hi, requiring
    lo <= 0 <= hi, as (numerators, denominators, cut, pole).

    The two integer lists are indexed by t itself, a negative t from the
    end as Python indexes, so a column of t values reads them with no
    shift.  With v = p/q, one step down multiplies by v + t + 1 =
    (p + (t+1) q)/q (a falling factorial factor), one step up divides by
    v + t (a rising factorial factor); each step keeps the denominator
    positive.  The numerators vanish exactly below ``cut`` (past a
    nonnegative integer exponent), which is None when none vanishes in
    range; from ``pole`` on (past a vanishing rising factorial) both
    entries are None, and ``pole`` is None when there is none.
    """
    p, q = v.numerator, v.denominator
    tops = [p + t * q for t in range(1, hi + 1)]
    pole = None
    if 0 in tops:
        pole = tops.index(0) + 1
        del tops[pole - 1:]
    nums = list(accumulate([q if x > 0 else -q for x in tops], mul, initial=1))
    dens = list(accumulate(map(abs, tops), mul, initial=1))
    gap = [None] * (hi + 1 - len(nums))
    downs = [p + t * q for t in range(0, lo, -1)]
    cut = -downs.index(0) if 0 in downs else None
    down_n = list(accumulate(downs, mul))
    down_d = list(accumulate(repeat(q, len(downs)), mul))
    return (nums + gap + down_n[::-1], dens + gap + down_d[::-1], cut, pole)


def _ratio_tables(v, offsets, reach):
    """Per coordinate j, the ``_gamma_ratios`` table of v_j over every
    t = w_j + u_j that the words reach from any of the integer
    ``offsets`` w."""
    tables = []
    for j, r in enumerate(reach):
        lo = min(0, min(w[j] for w in offsets) - r)
        hi = max(0, max(w[j] for w in offsets) + r)
        tables.append(_gamma_ratios(v[j], lo, hi))
    return tables


def _zero_cut(cols, tables, w):
    """Which words from the offset w have a nonzero Gamma-ratio product,
    as ((j, cut), ...): exactly those with w_j + u_j >= cut at every
    coordinate j listed, the coordinates whose table has zeros.

    ``cols`` holds the offsets u of the words by coordinate, in word
    order (``WordTable.columns``), and ``tables`` comes from
    ``_ratio_tables``.  A word reaching a table's pole raises
    ResonanceError naming the first such word, in word order, and its
    first such coordinate.  The cut depends on the parameter only where
    an exponent is a nonnegative integer, so it is the same at every
    generic parameter.
    """
    first = None
    for j, (col, table, x) in enumerate(zip(cols, tables, w)):
        pole = table[3]
        if pole is not None:
            i = next((i for i, u in enumerate(col) if u >= pole - x), None)
            if i is not None and (first is None or i < first[0]):
                first = (i, j)
    if first is not None:
        i, j = first
        u = tuple(col[i] for col in cols)
        raise ResonanceError(
            "rising factorial vanished at coordinate "
            f"{j + 1} for offset {list(u)}", term=u, coordinate=j)
    return tuple((j, table[2]) for j, table in enumerate(tables)
                 if table[2] is not None)


def _gamma_terms(tcols, tables, c=1):
    """(numerators, denominators): the columns of c times the
    Gamma-ratio products of the words whose t values are listed by
    coordinate in ``tcols``, one column per table of ``tables``
    (``_ratio_tables``), each product's denominator positive.  The
    words must lie above the zero cut and below every pole
    (``_zero_cut``), so no product vanishes; each coordinate's lookups
    are multiplied in as a column."""
    size = len(tcols[0]) if tcols else 1
    nums, dens = [c.numerator] * size, [c.denominator] * size
    for col, (tn, td, _, _) in zip(tcols, tables):
        nums = list(map(mul, nums, map(tn.__getitem__, col)))
        dens = list(map(mul, dens, map(td.__getitem__, col)))
    return nums, dens


# -- assembling one solution -----------------------------------------------------

def _assemble_via_gamma(dec: Decomposition, points, n, v_local,
                        wt: WordTable):
    """Sum, over the points gamma + M v of the component polynomial G, the
    monomial x_Jbar^{gamma + M v} times partial_J^{-N v} of the inner
    series, tracking the sheet translates.  Every inverse-derivative
    factor is realized exactly as a shifted hypergeometric series
    (Gamma-ratio coefficients against the unshifted base exponent).

    ``points`` lists (point of G, its rational coefficient, N v) once per
    gamma; the words and their reach come from the decomposition's word
    table ``wt``.  One integer Gamma-ratio table per coordinate covers
    every point.  The words a point keeps and their offsets are the row
    plan of its translate and zero cut (``WordTable.row_plan``), shared
    by every parameter; the products are integer columns, reduced by
    one column of gcds.

    Returns the support (base v_local on J, zero on Jbar) and the
    coefficient table as columns, one entry per term: the integer
    offsets z from the base, the indices in ``wt.words`` of the words
    the terms were generated from, and the coefficients a/d as coprime
    integers with d > 0.  Distinct points of G differ on Jbar, so no
    two terms share a z.
    """
    J = dec.J
    tables = _ratio_tables(v_local, [nv for _, _, nv in points], wt.reach)
    zs, words, nums, dens, translates = [], [], [], [], []
    for pt, c, nv in points:
        lift = [0] * n
        for t, j in enumerate(dec.rowset_Jbar):
            lift[j] = pt[t]
        for pos, j in enumerate(J):
            lift[j] = nv[pos]
        lift = tuple(lift)
        translates.append(lift)
        cut = _zero_cut(wt.columns, tables, nv)
        offsets, live, zcols = wt.row_plan(
            lift, tuple([(J[j], bound) for j, bound in cut]))
        num, den = _gamma_terms([zcols[j] for j in J], tables, c)
        zs += offsets
        words += live
        nums += num
        dens += den
    g = list(map(gcd, nums, dens))
    base = [Fraction(0)] * n
    for pos, j in enumerate(J):
        base[j] = Fraction(v_local[pos])
    return (Support(alpha=tuple(base), translates=tuple(sorted(translates))),
            (zs, words, list(map(floordiv, nums, g)),
             list(map(floordiv, dens, g))))


def _component_points(dec: Decomposition, gamma, G: PuiseuxSeries):
    """(point, rational coefficient, N v) for the points gamma + M v of
    G, sorted, with v the integer solution of the square system M v =
    point - gamma (``frac_solve``)."""
    out = []
    for pt, c in sorted(G.terms.items()):
        v = frac_solve(dec.M.data, list(map(sub, pt, gamma)))
        if v is None or any(x.denominator != 1 for x in v):
            raise BinomHornError("point is not on the component lattice")
        out.append((pt, c.as_rational(), dec.N.mul_vec(
            [x.numerator for x in v])))
    return tuple(out)


# -- characters ------------------------------------------------------------------

def _twists(dec: Decomposition, field_order: int):
    """(roots, [(index tuple, weight vector)]) for the g =
    [sat(Z B_J) : Z B_J] characters of sat(Z B_J) trivial on Z B_J: the
    character with weight w maps the coordinates k of a lattice vector
    in ``dec.L_basis`` to roots[w . k mod len(roots)].  Requires the
    exponent of the group to divide the cyclotomic order.

    The weights are those of ``_character_weights`` on the coordinates
    of the columns of B_J, divided by step, the gcd of the order and
    every weight, so the roots are the order / step powers of
    zeta_N^step (at most the exponent of the group).  With g = 1 there
    is one character, of weight () and root 1.
    """
    L = dec.L_basis
    r = L.rank
    if r == 0 or dec.g == 1:
        return [Scalar.one(field_order)], [((), ())]
    coords = list(map(L.coordinates, dec.B_J.columns()))
    if None in coords:
        raise AssertionError("B_J column outside its saturation")
    weights = _character_weights(IntMatrix.from_columns(coords, nrows=r),
                                 field_order)
    step = gcd(field_order, *(x for _, w in weights for x in w))
    roots = [Scalar.root_of_unity(field_order, step * e)
             for e in range(field_order // step)]
    return roots, [(t, tuple(x // step for x in w)) for t, w in weights]


def _character_weights(C: IntMatrix, field_order: int):
    """(label, weight vector) for each character of Z^r / C Z^r, C square
    and nonsingular: the character is k -> zeta_N^(w . k), N the order.

    The characters are the rows y mod e with y C = 0 mod e, e the
    exponent of the group, and these form the row lattice of e C^-1
    (Cohen, GTM 138, 2.4).  One rref of [C | I] gives d C^-1, hence e,
    the least positive e with e C^-1 integral.  The row Hermite form H
    of e C^-1 stacked on e I is triangular with pivots h_i dividing e,
    and the sums t . H with 0 <= t_i < e / h_i are the characters, once
    each.  A label lists the t_i with h_i < e, in lexicographic order;
    the weight is (N / e) t . H mod N.  Raises BinomHornError unless e
    divides N.
    """
    r = C.nrows
    pivots, red, d = rref([[*row, *(int(i == j) for j in range(r))]
                           for i, row in enumerate(C.data)], 2 * r)
    if pivots != list(range(r)):
        raise AssertionError("coordinate matrix of B_J is singular")
    content = gcd(d, *(x for row in red for x in row[r:]))
    e = abs(d) // content
    if field_order % e:
        raise BinomHornError(
            f"cyclotomic order {field_order} does not contain the "
            f"required roots of unity (need order {e})")
    H = row_hnf(IntMatrix([[x // content % e for x in row[r:]] for row in red]
                          + [[e * (i == j) for j in range(r)]
                             for i in range(r)])).data
    rows = [i for i in range(r) if H[i][i] < e]
    scale = field_order // e
    return [(t, tuple(scale * sum(x * H[i][s] for x, i in zip(t, rows))
                      % field_order for s in range(r)))
            for t in product(*(range(e // H[i][i]) for i in rows))]


# -- the solution basis ------------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """One basis element with its combinatorial provenance."""

    series: PuiseuxSeries
    decomposition: str
    rowset: tuple       # 1-based rows of the mixed block
    gamma: tuple
    simplex: tuple      # 1-based column indices of the inner simplex
    character: tuple
    support_rank: int   # dimension of the support lattice


def _cell_exponents(plan, beta_shifted):
    """The exponent choices of one triangulation cell at the shifted
    parameter, one per coset representative of the cell's plan
    (``decomp._cell_plan``), in order.

    With beta' = b / D over the lcm D of its denominators, the exponents
    on sigma are (inverse b - D inverse A_comp a) / (det D): one integer
    matrix-vector product per parameter, and integer work per
    representative.
    """
    sigma, inverse, det, reps = plan
    D = lcm(*(b.denominator for b in beta_shifted))
    b = [x.numerator * (D // x.denominator) for x in beta_shifted]
    ib = [sum(map(mul, row, b)) for row in inverse]
    den = det * D
    out = []
    for template, shift in reps:
        v = list(template)
        for t, x, y in zip(sigma, ib, shift):
            v[t] = Fraction(x - D * y, den)
        out.append(tuple(v))
    return out


def solution_basis(hi: HornInput, beta, T: int = 6, field_root: int = 1,
                   cap: int = 1000) -> list[Solution]:
    """Truncated local solution basis at a very generic rational parameter.

    With field_root = 1 only the character-trivial representatives are
    emitted (one per decomposition, gamma, and triangulation cell coset);
    a cyclotomic order materializes all lattice-index twists, bringing
    the count up to the generic rank.  A generically non-holonomic input
    raises ``InfiniteRankError`` carrying the certificate of
    ``hi.andean``, the walk's first Andean block with rank(M) = q, so no
    decomposition past it is enumerated.

    What does not depend on the parameter is kept where a caller that
    reuses ``hi`` across parameters finds it again: the atlas of each
    decomposition and cap (``Decomposition.atlas``), the points of the
    component polynomial at each gamma and cap
    (``Decomposition.component_points``), the coset
    representatives and the inverted block of each cell
    (``Decomposition.cell_plans``), and the ``WordTable`` of each T
    (``dec.word_table(T)``), with its ``Truncation``, which every
    solution of a decomposition shares, and the row plan of each point
    (``WordTable.row_plan``), whose offset tuples the solutions of every
    parameter share as keys.  The terms of each solution are fresh
    dicts; the character twists of one (decomposition, gamma, cell
    exponent) share one ``Support`` and the same offsets, so
    verification does their offset-only work once.

    Each (decomposition, gamma, cell exponent) builds one table of
    coefficients as columns of coprime integers a/d.  A character twist
    multiplies a row by a root of unity, whose integer coefficients
    have gcd 1, so the twisted Scalar is the root's coefficients times
    a over d, canonical with no gcd and no ``Fraction``; the Scalars of
    each root are built by one ``map``.  Which root multiplies a row is
    the class of its word under the character, read from the word table
    (``WordTable.classes``), and each root multiple of a row is built
    once and shared by the twists that pick it.
    """
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != hi.d:
        raise ValueError(f"beta must have length {hi.d}")
    if T < 0:
        raise ValueError(f"truncation bound must be >= 0, got {T}")
    if field_root < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {field_root}")
    cert = hi.andean.certificate
    if cert is not None:
        raise InfiniteRankError(
            "generically non-holonomic: a full-dimensional Andean "
            "direction is present",
            certificate=(tuple(i + 1 for i in cert.rowset_Jbar),
                         tuple(k + 1 for k in cert.colset_M)))
    torals = [dec for dec in hi.decompositions if dec.is_toral]
    violations = []
    for dec in torals:
        vg = very_generic_check(beta, dec, dec.atlas(cap))
        for gamma, facet in vg.violations:
            violations.append((dec.label, gamma, facet))
    if violations:
        raise VeryGenericError(
            "parameter is not very generic; integral support-function "
            f"values at {violations}", violations=violations)
    out = []
    for dec in torals:
        atlas = dec.atlas(cap)
        wt = dec.word_table(T)
        roots, twists = _twists(dec, field_root) if field_root > 1 \
            else ([Scalar.one(field_root)], [((), ())])
        # the class of each word under each character, from the word
        # table; None for the trivial character alone
        twists = [(t, wt.classes(w, len(roots)) if w else None)
                  for t, w in twists]
        for gamma, comp in zip(atlas.representatives,
                               atlas.bounded_components):
            points = dec.component_points.get((gamma, cap))
            if points is None:
                points = dec.component_points[gamma, cap] = \
                    _component_points(dec, gamma, component_polynomial(
                        dec.M, gamma, comp))
            beta_shifted = _shift_beta(beta, dec, gamma)
            for plan in dec.cell_plans:
                sigma = plan[0]
                for v in _cell_exponents(plan, beta_shifted):
                    support, (zs, words, a, d) = _assemble_via_gamma(
                        dec, points, hi.n, v, wt)
                    shell = PuiseuxSeries(hi.n, field_order=field_root,
                                          support=support)
                    # one rational table per (gamma, v); a twist only
                    # scales each row by the root of its word's class,
                    # and each root multiple of a row is one Scalar
                    multiples = [list(map(
                        Scalar._canonical, repeat(field_root),
                        zip(*[map(x.__mul__, a) for x in root.nums]), d))
                        for root in roots]
                    for tchar, classes in twists:
                        if classes is None:
                            terms = dict(zip(zs, multiples[0]))
                        else:
                            terms = dict(zip(zs, map(getitem, map(
                                multiples.__getitem__,
                                map(classes.__getitem__, words)), count())))
                        out.append(Solution(
                            series=shell._with_terms(
                                terms, wt.truncation, support),
                            decomposition=dec.label,
                            rowset=tuple(i + 1 for i in dec.rowset_Jbar),
                            gamma=gamma,
                            simplex=tuple(dec.J[t] + 1 for t in sigma),
                            character=tchar,
                            support_rank=dec.L_basis.rank))
    out.sort(key=lambda srec: (srec.rowset, srec.gamma, srec.simplex,
                               srec.character))
    return out


# -- verification ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorCheck:
    """The residual of one operator on one series.

    ``interior_residual`` and ``boundary_residual`` are sorted tuples of
    (offset, Scalar) pairs.  The boundary terms are kept as the integer
    terms of ``_boundary``, (N, c, [(offset, vector, d), ...]) as
    ``series._integer_action`` returns them, each vector over its own
    denominator c d, and ``boundary_residual`` reduces them to Scalars
    when it is first read; ``boundary_terms`` counts them without
    reducing.  Two checks compare equal when their operator, verdict and
    both residuals are equal.
    """

    operator: str
    ok: bool
    interior_residual: tuple
    _boundary: tuple = field(repr=False)

    @cached_property
    def boundary_residual(self):
        order, common, terms = self._boundary
        return tuple([(z, Scalar._reduced(order, v, common * d))
                      for z, v, d in sorted(terms)])

    @property
    def boundary_terms(self):
        return len(self._boundary[2])

    def _key(self):
        return (self.operator, self.ok, self.interior_residual,
                self.boundary_residual)

    def __eq__(self, other):
        if not isinstance(other, OperatorCheck):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: tuple


def verify_annihilation(ops, s: PuiseuxSeries) -> VerificationReport:
    """Apply each binomial or Euler operator; exact inputs must map to
    the zero series, and truncated inputs must have an empty interior
    residual.

    A result term is interior when every preimage offset the operator
    could have pulled it from is either outside the declared support (so
    the full series holds nothing there) or within the generated word
    bound.  Terms with an out-of-bound preimage are reported separately
    as boundary residual: they are expected casualties of truncation.
    Residual terms are (z, coefficient) pairs on the base of ``s``.

    The terms of ``s`` are read as integer columns once per call, each
    term over its own denominator (``series._integer_form``), and every
    binomial and Euler operator acts on those columns
    (``series._integer_action``), so a term costs integer arithmetic in
    ``map`` and no Python step, and a cancelled term or the image of a
    zero coefficient is dropped as an all-zero vector.  The integer
    result is split by coverage first; only the interior terms are
    reduced to Scalars and sorted here, and the boundary terms when
    ``OperatorCheck.boundary_residual`` is first read.  The columns are
    never cached: each call reads ``s.terms`` afresh.  What depends on
    no coefficient is kept in two stores (see ``series._offset_store``):
    the pairings of each binomial operator and the level sets of each
    Euler row depend on the offsets alone and are kept on the
    truncation, so they are built once per offsets across parameters;
    the falling factorial columns and the factors of the Euler levels
    also depend on the base and are kept on the support, so the
    character twists of one solution build them once.  An Euler check
    whose levels all vanish, as on a solution, reads no column.
    Coverage is decided by the truncation (``Truncation.coverage``),
    which keeps one test per (sheets, shifts) and remembers the answer
    for every offset, so the solutions that share a truncation decide
    each offset once.
    """
    checks = []
    sheets = s.support.translates if s.support is not None else ()
    zero = (0,) * s.nvars
    form = _integer_form(s)
    for op in ops:
        order, common, out = _integer_action(op, form, s.base)
        if s.truncation is None:
            interior, boundary = out, []
        else:
            if isinstance(op, BinomialOp):
                shifts = [op.u_plus]
                if not op.lam.is_zero():
                    shifts.append(op.u_minus)
            else:  # an EulerOp: _integer_action rejects any other type
                shifts = [zero]
            covered = s.truncation.coverage(sheets, shifts)
            interior, boundary = [], []
            for term in out:
                (interior if covered(term[0]) else boundary).append(term)
        checks.append(OperatorCheck(
            operator=op.describe(), ok=not interior,
            interior_residual=tuple([
                (z, Scalar._reduced(order, v, common * d))
                for z, v, d in sorted(interior)]),
            _boundary=(order, common, boundary)))
    return VerificationReport(ok=all(c.ok for c in checks),
                              checks=tuple(checks))
