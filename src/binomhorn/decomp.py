"""Block decompositions of B and their toral/Andean classification.

A row subset Jbar (never a singleton) forces the column set through its
block: the columns of B meeting Jbar.  The block M on (Jbar x those
columns) must be mixed with no more rows than columns; the remaining
block B_J on the complementary rows and columns determines a sublattice
whose saturation, for a toral block, is the kernel of A_J.  The rows of A
span the left kernel of B, and a vector of it vanishing on J is a left
kernel vector of M, so rank(A_J) = d - q + rank(M).  The rank criterion
rank(A_J) = |J| - rank(B_J) = d - q + p is therefore rank(M) = p: a
decomposition is toral exactly when q = p = rank(M).  Likewise A_J spans
Q^d exactly when rank(M) = q, so the generic-holonomicity verdict reads
one flag per decomposition, ``full_rank``, and the saturated column
spans of A_J (the Andean directions) are computed only when read.

Row sets are found by a branching walk on bitmasks: while an included
column is one-signed, only rows of the other sign in it are tried next,
so each admissible set is reached once and dead branches end early.
Two facts cut the walk further.

- A branch that can never record a set ends at once.  Let C be the p
  columns its q included rows meet, and c_r the columns of a row r
  outside C.  A completion R of undecided rows needs a row of each sign
  in R at every column new to it, so it adds at most
  sum_{r in R} |c_r| / 2 columns, and q + |R| <= p + that fails for
  every R whenever 2(q - p) > sum over undecided r of max(0, |c_r| - 2).
- Independence is hereditary.  The rows of Jbar vanish off the columns
  of M, so rank(M) is the rank of rows Jbar of B, and every set the
  walk records below a recorded dependent set is dependent too: a rank
  is computed only where no recorded ancestor is dependent, on those
  rows of B, with no M built.

The walk is a generator, and each input reads it through one memo
(``HornInput``), so the verdict comes first: ``HornInput.andean`` reads
it up to the first Andean set with rank(M) = q, the certificate of an
infinite rank, and only ``enumerate_decompositions`` drains the rest.
The walk builds each set directly (``Decomposition._of``), without the
dataclass ``__init__``.  A decomposition holds its index sets and
``full_rank``; M, J, the other submatrices, the lattice data
(``L_basis``, ``g``), the cone over A_J, the atlas of M at each cap and
the word table of each truncation bound T are computed only when read.
``HornInput.decompositions`` keeps the sorted enumeration, so one input
is enumerated once, each of its cones is built once, each atlas once per
cap and each word table once per T.  B_J always has full column rank,
since a vector of its kernel, padded with zeros on the columns of M,
lies in the kernel of B.  So the index g of its column span in the
saturation is the pivot product of the kernel elimination of B_J^T
(``echelon_kernel``), and the rank formula reads g without saturating
B_J.

The empty set, which every B has and which is always toral, computes
neither: its B_J is B and its A_J is A, so it takes g from the same
elimination in validation (``HornInput.g``) and builds its cone on the
column Hermite basis of ZA that validation knows
(``HornInput.a_lattice``).  A rank whose only toral block is the empty
one, as on the permuted chains, runs no lattice routine after
validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Iterable

from .errors import CapExceededError, SizeLimitError
from .exact_linalg import (
    IntMatrix,
    LatticeBasis,
    _bareiss_rank,
    column_hnf,
    echelon_kernel,
    rref,
    saturated_span,
)
from .geometry import Cone
from .model import HornInput
from .series import Truncation
from .subgraph import SubgraphAtlas, bounded_atlas

MAX_ROWS = 30


@dataclass(frozen=True)
class Decomposition:
    """One admissible block decomposition of B.

    Index sets are 0-based and sorted; ``label`` renders them 1-based for
    reports.  The walk gives the index sets and ``full_rank``, whether
    rank(M) = q; ``J``, ``M``, ``B_J``, ``N``, ``A_J`` and ``A_Jbar``
    are cut from the input's B and A when first read.  ``L_basis`` is
    the saturation of the column span of B_J inside Z^J (coordinates
    indexed by J in increasing order), computed from B_J when first read
    by the series code; when M takes every column (p = m), B_J has none
    and ``L_basis`` is the zero lattice of Z^J.  ``g`` is the index of
    the span in its saturation (see the module docstring), also computed
    when first read: the rank formula reads it only for toral
    decompositions, and it is 1 when p = m.  ``cone`` holds the cells,
    volume and support functions of
    A_J, likewise computed when first read; the empty set has its g and
    the lattice of its cone from the input instead.
    ``component_points`` keeps the points of each component polynomial
    by (gamma, cap) once ``solutions.solution_basis`` has built them,
    and ``word_table(T)`` builds
    the ``WordTable`` of each bound T once, as ``atlas(cap)`` builds the
    atlas of M at each cap and ``cell_plans`` the parameter-free part of
    each cell's exponents, so a caller that reuses one input across
    parameters pays for none of them again.  B and A are compared too,
    so decompositions of different inputs differ.
    """

    rowset_Jbar: tuple
    colset_M: tuple
    q: int
    p: int
    full_rank: bool  # rank(M) = q
    klass: str  # "toral" | "andean"
    B: IntMatrix = field(repr=False)
    A: IntMatrix = field(repr=False)

    # the column Hermite basis of the span of A_J when it is known
    # beforehand (the empty decomposition's, from the input); else None
    _lattice = None

    @classmethod
    def _of(cls, jbar, colset, full_rank, B, A):
        """The decomposition on index sets jbar and colset, built
        directly, without the dataclass ``__init__``: the walk makes one
        per admissible set."""
        dec = object.__new__(cls)
        q, p = len(jbar), len(colset)
        vars(dec).update(
            rowset_Jbar=jbar, colset_M=colset, q=q, p=p, full_rank=full_rank,
            klass="toral" if full_rank and q == p else "andean", B=B, A=A)
        return dec

    @cached_property
    def J(self) -> tuple:
        return tuple(i for i in range(self.B.nrows)
                     if i not in self.rowset_Jbar)

    @cached_property
    def M(self) -> IntMatrix:
        return self.B.submatrix(self.rowset_Jbar, self.colset_M)

    @cached_property
    def B_J(self) -> IntMatrix:
        return self.B.submatrix(self.J, [k for k in range(self.B.ncols)
                                         if k not in self.colset_M])

    @cached_property
    def N(self) -> IntMatrix:
        return self.B.submatrix(self.J, self.colset_M)

    @cached_property
    def A_J(self) -> IntMatrix:
        return self.A.submatrix(range(self.A.nrows), self.J)

    @cached_property
    def A_Jbar(self) -> IntMatrix:
        return self.A.submatrix(range(self.A.nrows), self.rowset_Jbar)

    @cached_property
    def L_basis(self) -> LatticeBasis:
        return saturated_span(self.B_J)

    @cached_property
    def g(self) -> int:
        return echelon_kernel(self.B_J.transpose())[1]

    @cached_property
    def cone(self) -> Cone:
        return Cone(self.A_J, self._lattice)

    @cached_property
    def cell_plans(self) -> tuple:
        """What the exponents of each cell of ``cone`` need besides the
        parameter, one ``_cell_plan`` per cell, in the order of
        ``cone.cells``; computed when first read."""
        return tuple(_cell_plan(self, sigma, volume)
                     for sigma, volume in self.cone.cells)

    @cached_property
    def component_points(self) -> dict:
        """The points of the component polynomial at each representative
        gamma of ``atlas(cap)``, keyed by (gamma, cap): what
        ``solutions.solution_basis`` builds for them on first use (see
        ``solutions._component_points``) and reads again for every later
        parameter."""
        return {}

    @cached_property
    def _atlases(self):
        return {}

    def atlas(self, cap: int = 1000) -> SubgraphAtlas:
        """``bounded_atlas(M, cap)``, computed on the first call for each
        cap and shared by later ones.  A CapExceededError is kept with its
        certificate and raised again by every later call at that cap, so
        no partial atlas is ever kept."""
        got = self._atlases.get(cap)
        if got is None:
            try:
                got = bounded_atlas(self.M, cap=cap)
            except CapExceededError as exc:
                got = exc
            self._atlases[cap] = got
        if isinstance(got, CapExceededError):
            raise got.with_traceback(None)
        return got

    @cached_property
    def _word_tables(self):
        return {}

    def word_table(self, T: int) -> WordTable:
        """The ``WordTable`` of the lattice words of length at most T,
        built on the first call for each T and shared by later ones."""
        table = self._word_tables.get(T)
        if table is None:
            table = self._word_tables[T] = _word_table(self, T)
        return table

    @property
    def is_toral(self):
        return self.klass == "toral"

    @property
    def label(self):
        inner = ",".join(str(i + 1) for i in self.rowset_Jbar)
        return "Jbar={" + inner + "}"


@dataclass(frozen=True)
class WordTable:
    """What every solution of one toral decomposition at one truncation
    bound T shares.

    ``words`` are the lattice words of length at most T as (k, u) pairs,
    sorted by the word coordinates k in ``L_basis``, with u the lattice
    offset sum_i k_i L_i in Z^J; ``reach`` gives, for each coordinate of
    J, the bound T max_i |L_i| on the offsets; ``lifted`` holds each u
    embedded in the n coordinates of B (zero on Jbar).  ``truncation``
    is the one ``Truncation`` of those solutions.  ``columns`` lists the
    offsets u by coordinate of J, once per table, for the Gamma-ratio
    products of every (gamma, cell exponent) and parameter
    (``solutions._gamma_terms``).
    ``classes(w, order)`` gives each word's class under the character of
    weight w, built once per weight and order, and ``row_plan`` the
    words a point of a solution keeps and their offsets, once per point.
    """

    words: tuple
    reach: tuple
    lifted: tuple
    truncation: Truncation

    @cached_property
    def columns(self):
        return tuple(zip(*[u for _, u in self.words]))

    @cached_property
    def _classes(self):
        return {}

    def classes(self, w, order):
        """w . k mod order for the coordinates k of each word, in word
        order: the exponent of the root of unity a character of weight w
        assigns the word (see ``solutions._twists``)."""
        key = (w, order)
        got = self._classes.get(key)
        if got is None:
            got = self._classes[key] = tuple([
                sum(map(mul, w, k)) % order for k, _ in self.words])
        return got

    @cached_property
    def _plans(self):
        return {}

    def row_plan(self, translate, cut):
        """(offsets, indices, columns) of the words kept from the sheet
        translate t: the offsets z = t + u of the words (u from
        ``lifted``) with z_k >= b for every pair (k, b) of ``cut``, in
        word order, the indices of those words, and the offsets by
        coordinate.

        Neither the translate nor the cut depends on the parameter (see
        ``solutions._zero_cut``), so the plan is built once per pair and
        shared by every parameter; the solutions built from it share its
        offset tuples as their keys.
        """
        key = (translate, cut)
        plan = self._plans.get(key)
        if plan is None:
            lifted = self.lifted
            live = range(len(lifted))
            for k, b in cut:
                b -= translate[k]
                live = [i for i in live if lifted[i][k] >= b]
            live = list(live)
            offsets = tuple([tuple(map(add, translate, lifted[i]))
                             for i in live])
            plan = self._plans[key] = (
                offsets, live,
                tuple(zip(*offsets)) or ((),) * len(translate))
        return plan


def _cell_plan(dec: Decomposition, sigma, cell_volume):
    """(sigma, inverse, det, reps) for the cell with column basis sigma
    (positions within J) and the given normalized volume.

    Its exponents v take nonnegative integer values a on the
    complementary positions, one choice per coset of the projected
    kernel lattice, listed in order, and solve A_sigma v_sigma =
    beta' - A_comp a on sigma for the shifted parameter beta'.  None of
    that but beta' depends on the parameter, so it is kept here: the
    inverse of the square block A_sigma as integer rows over det, and
    per coset representative a, the exponent template (a on the
    complement as Fractions, None on sigma) with the integer vector
    inverse A_comp a (see ``solutions._cell_exponents``).
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
        for dd in (H.data[i][i] for i in range(len(comp))):
            reps = [t + (i,) for t in reps for i in range(dd)]
    if len(reps) != cell_volume:
        raise AssertionError(
            f"coset count {len(reps)} != cell volume {cell_volume}")
    A = dec.A_J.data
    d = len(A)
    pivots, red, det = rref([[A[i][t] for t in sigma]
                             + [int(i == k) for k in range(d)]
                             for i in range(d)], 2 * d)
    if len(sigma) != d or pivots != list(range(d)):
        raise AssertionError("simplex system must be solvable")
    inverse = [row[d:] for row in red]
    plans = []
    for a in sorted(reps):
        shift = [sum(A[i][t] * x for t, x in zip(comp, a)) for i in range(d)]
        v = [None] * nj
        for t, x in zip(comp, a):
            v[t] = Fraction(x)
        plans.append((v, [sum(map(mul, row, shift)) for row in inverse]))
    return tuple(sigma), inverse, det, plans


def _l1_ball(r, T):
    if r == 0:
        yield ()
        return
    for first in range(-T, T + 1):
        for rest in _l1_ball(r - 1, T - abs(first)):
            yield (first,) + rest


def _words(L: LatticeBasis, T: int):
    """The lattice words of length at most T: (k, u) pairs sorted by the
    word coordinates k, with u the lattice offset sum_i k_i L_i; and for
    each coordinate the reach T max_i |L_i| of the offsets."""
    rows = list(zip(*L.vectors)) or [()] * L.ambient_dim
    words = tuple((k, tuple(sum(map(mul, k, row)) for row in rows))
                  for k in sorted(_l1_ball(L.rank, T)))
    reach = tuple(T * max((abs(x) for x in row), default=0) for row in rows)
    return words, reach


def _word_table(dec: Decomposition, T: int) -> WordTable:
    n = len(dec.J) + len(dec.rowset_Jbar)

    def lift(u):
        full = [0] * n
        for j, x in zip(dec.J, u):
            full[j] = x
        return tuple(full)

    words, reach = _words(dec.L_basis, T)
    return WordTable(
        words=words, reach=reach, lifted=tuple(lift(u) for _, u in words),
        truncation=Truncation(basis=tuple(map(lift, dec.L_basis.vectors)),
                              bound=T, dim=n))


def _bits(mask):
    """Indices of the set bits of mask, increasing, visiting only those."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _admissible_rowsets(B: IntMatrix):
    """Row masks Jbar of B whose block is mixed with no more rows than
    columns, each exactly once, as (row mask, column mask, full_rank)
    with full_rank whether rank(M) = q: a generator, read lazily.

    Each row carries the mask of the columns where it is positive and the
    mask of those where it is negative; a row set's block meets the union
    of its rows' masks, and every one of those columns is mixed exactly
    when the two unions are equal.  The walk's state is (included rows,
    decided rows, positive columns, negative columns).  While some column
    is one-signed on the included rows, the lowest such column needs an
    undecided row of the other sign, so the walk branches on those rows
    r_1, r_2, ... as (include r_1), (exclude r_1, include r_2), ...; with
    no such row the branch is dead.  Once every column is mixed, it
    branches the same way on every undecided row.  An excluded row stays
    excluded, so each row set is made by exactly one include step, which
    records it when it is mixed with q <= p (a single row is mixed only
    when it is zero, and then q > p).  The empty set is recorded once, at
    the root.

    A state is kept only while some completion can record a set: it has
    fewer than m rows, and the bound of the module docstring holds.  The
    bound needs a sum over undecided rows only when q > p and the same
    sum over every row, fixed per B (0 when no row has three nonzero
    entries), does not already rule the state out.  A state also carries
    whether a recorded set among its rows is dependent, and a rank is
    computed only for a set without one.
    """
    n, m, data = B.nrows, B.ncols, B.data
    pos = [sum(1 << k for k in range(m) if data[i][k] > 0) for i in range(n)]
    neg = [sum(1 << k for k in range(m) if data[i][k] < 0) for i in range(n)]
    rows_pos = [sum(1 << i for i in range(n) if pos[i] >> k & 1)
                for k in range(m)]
    rows_neg = [sum(1 << i for i in range(n) if neg[i] >> k & 1)
                for k in range(m)]
    cols = [a | b for a, b in zip(pos, neg)]
    slack = sum(max(0, c.bit_count() - 2) for c in cols)
    wide = sum(1 << i for i in range(n) if cols[i].bit_count() > 2)

    def viable(done, q, cmask):
        excess = 2 * (q - cmask.bit_count())
        if excess <= 0:
            return True
        if excess > slack:
            return False
        free = wide & ~done
        while free:
            low = free & -free
            free ^= low
            excess -= max(0, (cols[low.bit_length() - 1]
                              & ~cmask).bit_count() - 2)
            if excess <= 0:
                return True
        return False

    yield 0, 0, True
    every_row = (1 << n) - 1
    # (included rows, decided rows, q, positive cols, negative cols,
    #  whether a recorded set of the included rows is dependent)
    stack = [(0, 0, 0, 0, 0, False)]
    while stack:
        jmask, done, q, pcols, ncols, dependent = stack.pop()
        odd = pcols ^ ncols
        if odd:
            k = (odd & -odd).bit_length() - 1
            partners = (rows_neg[k] if pcols >> k & 1 else rows_pos[k]) & ~done
        else:
            partners = every_row & ~done
        while partners:
            low = partners & -partners
            partners ^= low
            done |= low
            i = low.bit_length() - 1
            rows, pc, nc = jmask | low, pcols | pos[i], ncols | neg[i]
            below = dependent
            if pc == nc and q + 1 <= pc.bit_count():
                # rank(M) is the rank of rows Jbar of B
                full = not dependent and _bareiss_rank(
                    [data[j] for j in _bits(rows)]) == q + 1
                below = not full
                yield rows, pc, full
            if q + 1 < m and viable(done, q + 1, pc | nc):
                stack.append((rows, done, q + 1, pc, nc, below))


def _decompositions(hi: HornInput):
    """The decompositions of hi in walk order, a generator.

    The first is the empty set, whose B_J is B and whose A_J is A: it
    takes g and the lattice of its cone from the input, which has them
    from validation (``HornInput.g``, ``HornInput.a_lattice``).
    """
    B, A = hi.B, hi.A
    walk = _admissible_rowsets(B)
    next(walk)  # the empty set, recorded at the root
    empty = Decomposition._of((), (), True, B, A)
    vars(empty).update(J=tuple(range(hi.n)), B_J=B, A_J=A, g=hi.g,
                       _lattice=hi.a_lattice)
    yield empty
    for jmask, cmask, full_rank in walk:
        yield Decomposition._of(_bits(jmask), _bits(cmask), full_rank, B, A)


class _Memo:
    """An iterator of items other than None, read any number of times:
    each item is drawn once, by the first read that reaches it, and kept
    for the later ones."""

    def __init__(self, items):
        self._items, self._seen = iter(items), []

    def __iter__(self):
        seen = self._seen
        i = 0
        while True:
            if i == len(seen):
                item = next(self._items, None)
                if item is None:
                    return
                seen.append(item)
            yield seen[i]
            i += 1


def _walk(hi: HornInput) -> _Memo:
    """The decompositions of hi in walk order, drawn when first read
    (``HornInput`` keeps one per input)."""
    if hi.n > MAX_ROWS:
        raise SizeLimitError(f"B has {hi.n} > {MAX_ROWS} rows")
    return _Memo(_decompositions(hi))


def enumerate_decompositions(hi: HornInput) -> tuple[Decomposition, ...]:
    """All block decompositions of B, classified, sorted by (|Jbar|, Jbar).

    The empty row set is always admissible (M empty, B_J = B) and always
    toral.  This drains the input's lazy walk (``_admissible_rowsets``),
    which yields each row set whose block is mixed with q <= p once,
    with whether rank(M) = q.  A decomposition is toral exactly when
    q = p = rank(M), which is the rank criterion
    rank(A_J) = |J| - rank(B_J) (see the module docstring).
    """
    return tuple(sorted(hi._walk, key=lambda dec: (len(dec.rowset_Jbar),
                                                   dec.rowset_Jbar)))


@dataclass(frozen=True)
class AndeanReport:
    """The generic-holonomicity verdict, its certificate and, when read,
    the Andean decompositions and directions.

    A_J spans Q^d exactly when rank(M) = q (see the module docstring),
    so the input is generically holonomic exactly when no Andean block
    has rank(M) = q.  ``certificate`` is the first such block that
    ``decompositions`` yields, or None, and the verdict reads them only
    up to it.  ``andean`` (the Andean decompositions, in the order
    read) and ``directions`` read all of them, on first read.
    ``directions`` are canonical saturated lattice bases of the
    rational column spans of the Andean A_J, deduplicated and sorted:
    Z^d once when some block has rank(M) = q, and ``saturated_span(A_J)``
    of each block with rank(M) < q.  Integer translates are not
    computed, so the set is a superset description of where
    holonomicity can fail.
    """

    decompositions: Iterable = field(repr=False, compare=False)
    d: int
    certificate: Decomposition | None

    @property
    def generically_holonomic(self) -> bool:
        return self.certificate is None

    @cached_property
    def andean(self) -> tuple:
        return tuple(dec for dec in self.decompositions if not dec.is_toral)

    @cached_property
    def directions(self) -> tuple:
        spans = [saturated_span(dec.A_J) for dec in self.andean
                 if not dec.full_rank]
        if not self.generically_holonomic:
            spans.append(LatticeBasis._of_hermite(
                self.d, IntMatrix.identity(self.d).columns()))
        dirs = {span.vectors: span for span in spans}
        return tuple(dirs[k] for k in sorted(dirs))


def andean_report(decomps, d: int) -> AndeanReport:
    """The Andean report of decompositions ``decomps``, a tuple or an
    input's lazy walk, read only up to the certificate."""
    return AndeanReport(decompositions=decomps, d=d, certificate=next(
        (dec for dec in decomps if dec.full_rank and not dec.is_toral),
        None))
