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
from itertools import product
from math import gcd
from operator import add, mul, sub

from .cyclotomic import Scalar
from .decomp import Decomposition, WordTable
from .errors import (
    BinomHornError,
    InfiniteRankError,
    ResonanceError,
    VeryGenericError,
)
from .exact_linalg import (
    IntMatrix,
    column_hnf,
    frac_solve,
    row_hnf,
    rref,
)
from .geometry import very_generic_check, _shift_beta
from .model import HornInput
from .series import (
    BinomialOp,
    PuiseuxSeries,
    Support,
    _integer_action,
    _integer_form,
)
from .subgraph import Component, bounded_atlas


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
    """Gamma(v + 1) / Gamma(v + t + 1) for lo <= t <= hi as integer
    (numerator, denominator) pairs, listed from t = lo; requires
    lo <= 0 <= hi.

    With v = p/q, one step down multiplies by v + t + 1 = (p + (t+1) q)/q
    (a falling factorial factor), one step up divides by v + t (a rising
    factorial factor).  Past a vanishing rising factorial the entries
    are None.
    """
    p, q = v.numerator, v.denominator
    down = []
    num = den = 1
    for t in range(0, lo, -1):
        num *= p + t * q
        den *= q
        down.append((num, den))
    down.reverse()
    up = [(1, 1)]
    r = (1, 1)
    for t in range(1, hi + 1):
        if r is not None:
            top = p + t * q
            r = None if top == 0 else (r[0] * q, r[1] * top)
        up.append(r)
    return down + up


def _ratio_tables(v, offsets, reach):
    """Per coordinate j, the ``_gamma_ratios`` table of v_j over every
    shift w_j + u_j that the words reach from any of the integer
    ``offsets`` w, and the table index of u_j = 0 for each offset."""
    ratios, los = [], []
    for j, r in enumerate(reach):
        lo = min(0, min(w[j] for w in offsets) - r)
        hi = max(0, max(w[j] for w in offsets) + r)
        ratios.append(_gamma_ratios(v[j], lo, hi))
        los.append(lo)
    return ratios, [list(map(sub, w, los)) for w in offsets]


def _gamma_terms(words, cols, ratios, starts):
    """(i, numerator, denominator) of the Gamma-ratio product of the i-th
    word, for every word where it is nonzero, in word order.

    ``cols`` holds the offsets u of the words by coordinate: column j
    lists u_j for every word, in word order (``WordTable.columns``).
    ``ratios`` and ``starts`` come from ``_ratio_tables``: the table of
    each coordinate j and its index of u_j = 0.  A table's zeros are a
    prefix (falling factorials past a nonnegative integer exponent) and
    its None entries a suffix (past a vanishing rising factorial), so
    the product is built one coordinate at a time.  A word reaching into
    a None suffix raises ResonanceError naming the first such word, in
    word order, and its first such coordinate; then the words that some
    coordinate's zeros kill are dropped, and only the remaining words are
    multiplied.
    """
    first = None
    for j, (table, start) in enumerate(zip(ratios, starts)):
        if None in table:
            pole = table.index(None) - start
            i = next((i for i, x in enumerate(cols[j]) if x >= pole), None)
            if i is not None and (first is None or i < first[0]):
                first = (i, j)
    if first is not None:
        i, j = first
        u = words[i][1]
        raise ResonanceError(
            "rising factorial vanished at coordinate "
            f"{j + 1} for offset {list(u)}", term=u, coordinate=j)
    live = range(len(words))
    for col, table, start in zip(cols, ratios, starts):
        cut = 0
        while not table[cut][0]:
            cut += 1
        if cut:
            cut -= start
            live = [i for i in live if col[i] >= cut]
    nums = [1] * len(live)
    dens = [1] * len(live)
    for col, table, start in zip(cols, ratios, starts):
        rs = [table[start + col[i]] for i in live]
        nums = [n * r[0] for n, r in zip(nums, rs)]
        dens = [d * r[1] for d, r in zip(dens, rs)]
    return zip(live, nums, dens)


# -- assembling one solution -----------------------------------------------------

def _assemble_via_gamma(dec: Decomposition, points, n, v_local,
                        wt: WordTable):
    """Sum, over the points gamma + M v of the component polynomial G, the
    monomial x_Jbar^{gamma + M v} times partial_J^{-N v} of the inner
    series, tracking the sheet translates.  Every inverse-derivative
    factor is realized exactly as a shifted hypergeometric series
    (Gamma-ratio coefficients against the unshifted base exponent).

    ``points`` lists (point of G, its rational coefficient, N v) once per
    gamma; the words, their offsets lifted to n coordinates and by
    coordinate, and their reach come from the decomposition's word table
    ``wt``.  One integer Gamma-ratio table per coordinate covers every
    point, and a term's coefficient is reduced once.

    Returns the support (base v_local on J, zero on Jbar) and the
    rational coefficient table, one (z, i, a, d) row per term, where z
    is the integer offset from the base, i the index in ``wt.words`` of
    the word the term was generated from, and a/d the coefficient as
    coprime integers with d > 0.  Distinct points of G differ on Jbar,
    so no two rows share a z.
    """
    words, lifted = wt.words, wt.lifted
    ratios, starts = _ratio_tables(v_local, [nv for _, _, nv in points],
                                   wt.reach)
    table, translates = [], []
    for (pt, c, nv), start in zip(points, starts):
        lift = [0] * n
        for t, j in enumerate(dec.rowset_Jbar):
            lift[j] = pt[t]
        for pos, j in enumerate(dec.J):
            lift[j] = nv[pos]
        lift = tuple(lift)
        translates.append(lift)
        cn, cd = c.numerator, c.denominator
        for i, num, den in _gamma_terms(words, wt.columns, ratios, start):
            num *= cn
            den *= cd
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            table.append((tuple(map(add, lift, lifted[i])), i,
                          num // g, den // g))
    base = [Fraction(0)] * n
    for pos, j in enumerate(dec.J):
        base[j] = Fraction(v_local[pos])
    return (Support(alpha=tuple(base), translates=tuple(sorted(translates))),
            table)


def _component_points(dec: Decomposition, gamma, G: PuiseuxSeries, coords):
    """(point, rational coefficient, N v) for the points gamma + M v of
    G, sorted; ``coords`` maps an offset to its coordinates v against
    the columns of M."""
    out = []
    for pt, c in sorted(G.terms.items()):
        v = coords(list(map(sub, pt, gamma)))
        if v is None:
            raise BinomHornError("point is not on the component lattice")
        out.append((pt, c.as_rational(), dec.N.mul_vec(v)))
    return out


# -- characters ------------------------------------------------------------------

def component_characters(dec: Decomposition, field_order: int):
    """The g = [sat(Z B_J) : Z B_J] characters of sat(Z B_J) trivial on
    Z B_J.

    Returns a list of (index tuple, callable) pairs; the callable maps
    the coordinates k of a lattice vector in ``dec.L_basis`` to a Scalar
    root of unity, roots[w . k mod len(roots)] for the roots and the
    weight vector w of the character in ``_twists``.  Requires the
    exponent of the group to divide the cyclotomic order.
    """
    roots, twists = _twists(dec, field_order)

    def make(w):
        return lambda k: roots[sum(map(mul, w, k)) % len(roots)]

    return [(t, make(w)) for t, w in twists]


def _twists(dec: Decomposition, field_order: int):
    """(roots, [(index tuple, weight vector)]) for the characters of
    ``component_characters``: the character with weight w maps the
    coordinates k of a lattice vector to roots[w . k mod len(roots)].

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


def _cell_exponents(dec: Decomposition, sigma, cell_volume, beta_shifted):
    """The cell_volume exponent choices attached to one triangulation cell.

    sigma lists positions (within J) of a column basis.  Exponents take
    nonnegative integer values on the complementary positions, one choice
    per coset of the projected kernel lattice, and solve the linear
    system on sigma.
    """
    nj = len(dec.J)
    comp = [t for t in range(nj) if t not in set(sigma)]
    L = dec.L_basis
    if len(comp) != L.rank:
        raise AssertionError("complement size must match the lattice rank")
    reps = [()]
    if comp:
        proj = [tuple(vec[t] for t in comp) for vec in L.vectors]
        H = column_hnf(IntMatrix.from_columns(proj))
        if H.ncols != len(comp):
            raise AssertionError("projected lattice must have full rank")
        diag = [H.data[i][i] for i in range(len(comp))]
        reps = [()]
        for dd in diag:
            reps = [t + (i,) for t in reps for i in range(dd)]
    if len(reps) != cell_volume:
        raise AssertionError(
            f"coset count {len(reps)} != cell volume {cell_volume}")
    d = dec.A_J.nrows
    sigma_rows = [[dec.A_J.data[i][t] for t in sigma] for i in range(d)]
    out = []
    for a in sorted(reps):
        rhs = list(beta_shifted)
        for pos, t in enumerate(comp):
            for i in range(d):
                rhs[i] -= dec.A_J.data[i][t] * a[pos]
        sol = frac_solve(sigma_rows, rhs)
        if sol is None:
            raise AssertionError("simplex system must be solvable")
        v = [Fraction(0)] * nj
        for pos, t in enumerate(sigma):
            v[t] = sol[pos]
        for pos, t in enumerate(comp):
            v[t] = Fraction(a[pos])
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

    The lattice words, their lifted offsets and the ``Truncation`` come
    from ``dec.word_table(T)``, built once per decomposition and T, so
    a caller that reuses ``hi`` across parameters builds them once and
    every solution of a decomposition shares one ``Truncation``.  The
    terms of each solution are fresh dicts; the character twists of one
    (decomposition, gamma, cell exponent) share one ``Support`` and the
    same offsets, so verification does their offset-only work once.

    Each (decomposition, gamma, cell exponent) builds one table of
    coefficients as coprime integer pairs a/d.  A character twist
    multiplies a row by a root of unity, whose integer coefficients
    have gcd 1, so the twisted Scalar is the root's coefficients times
    a over d, canonical with no gcd and no ``Fraction``.  Which root
    multiplies a row is the class of its word under the character, read
    from the word table (``WordTable.classes``), and each root multiple
    of a row is built once and shared by the twists that pick it.
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
    atlases = {dec.rowset_Jbar: bounded_atlas(dec.M, cap=cap) for dec in torals}
    violations = []
    for dec in torals:
        vg = very_generic_check(beta, dec, atlases[dec.rowset_Jbar])
        for gamma, facet in vg.violations:
            violations.append((dec.label, gamma, facet))
    if violations:
        raise VeryGenericError(
            "parameter is not very generic; integral support-function "
            f"values at {violations}", violations=violations)
    out = []
    for dec in torals:
        atlas = atlases[dec.rowset_Jbar]
        wt = dec.word_table(T)
        roots, twists = _twists(dec, field_root) if field_root > 1 \
            else ([Scalar.one(field_root)], [((), ())])
        # the class of each word under each character, from the word
        # table; None for the trivial character alone
        twists = [(t, wt.classes(w, len(roots)) if w else None)
                  for t, w in twists]
        for gamma, comp in zip(atlas.representatives,
                               atlas.bounded_components):
            points = _component_points(
                dec, gamma, component_polynomial(dec.M, gamma, comp),
                wt.coords)
            beta_shifted = _shift_beta(beta, dec, gamma)
            for sigma, cellvol in dec.cone.cells:
                for v in _cell_exponents(dec, sigma, cellvol, beta_shifted):
                    support, table = _assemble_via_gamma(
                        dec, points, hi.n, v, wt)
                    shell = PuiseuxSeries(hi.n, field_order=field_root,
                                          support=support)
                    # one rational table per (gamma, v); a twist only
                    # scales each row by the root of its word's class,
                    # and each root multiple of a row is one Scalar
                    multiples = [[root._times_coprime(a, d)
                                  for _, _, a, d in table] for root in roots]
                    for tchar, classes in twists:
                        if classes is None:
                            terms = dict(zip([row[0] for row in table],
                                             multiples[0]))
                        else:
                            terms = {z: multiples[classes[i]][r]
                                     for r, (z, i, _, _) in enumerate(table)}
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
    vectors of ``_boundary``, (N, D, {offset: vector}) as in
    ``series._integer_action``, and ``boundary_residual`` reduces them
    to Scalars when it is first read; ``boundary_terms`` counts them
    without reducing.  Two checks compare equal when their operator,
    verdict and both residuals are equal.
    """

    operator: str
    ok: bool
    interior_residual: tuple
    _boundary: tuple = field(repr=False)

    @cached_property
    def boundary_residual(self):
        order, den, vecs = self._boundary
        return tuple([(z, Scalar._reduced(order, vecs[z], den))
                      for z in sorted(vecs)])

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

    The terms of ``s`` are put over one common denominator once per call,
    the lcm of their Scalars' denominators, with one integer division
    per term, and every binomial and Euler operator acts on that integer
    form (``series._integer_action``), so a cancelled term costs integer
    arithmetic only.  The integer result is split by coverage first;
    only the interior terms are reduced to Scalars and sorted here, and
    the boundary terms when ``OperatorCheck.boundary_residual`` is first
    read.  The integer form is never cached: each call reads ``s.terms``
    afresh.  What depends on no coefficient is kept in two stores (see
    ``series._offset_store``): the pairings of each binomial operator
    and the dot products of each Euler row depend on the offsets alone
    and are kept on the truncation, so they are built once per offsets
    across parameters; the falling factorial columns and the Euler
    constants also depend on the base and are kept on the support, so
    the character twists of one solution build them once.  Coverage is
    decided by the truncation (``Truncation.coverage``), which keeps one
    test per (sheets, shifts) and remembers the answer for every offset,
    so the solutions that share a truncation decide each offset once.
    """
    checks = []
    sheets = s.support.translates if s.support is not None else ()
    zero = (0,) * s.nvars
    form = _integer_form(s)
    for op in ops:
        order, den, out = _integer_action(op, form, s.base)
        if s.truncation is None:
            interior, boundary = out, {}
        else:
            if isinstance(op, BinomialOp):
                shifts = [op.u_plus]
                if not op.lam.is_zero():
                    shifts.append(op.u_minus)
            else:  # an EulerOp: _integer_action rejects any other type
                shifts = [zero]
            covered = s.truncation.coverage(sheets, shifts)
            interior, boundary = {}, {}
            for z, v in out.items():
                (interior if covered(z) else boundary)[z] = v
        checks.append(OperatorCheck(
            operator=op.describe(), ok=not interior,
            interior_residual=tuple([
                (z, Scalar._reduced(order, interior[z], den))
                for z in sorted(interior)]),
            _boundary=(order, den, boundary)))
    return VerificationReport(ok=all(c.ok for c in checks),
                              checks=tuple(checks))
