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
the one stored rank of M, on a matrix of at most m rows, and the
saturated column spans of A_J (the Andean directions) are computed only
when read.

Row sets are found by a branching walk on bitmasks: while an included
column is one-signed, only rows of the other sign in it are tried next,
so each admissible set is reached once and dead branches end early.
Only M and its rank are built per admissible set; the other submatrices,
the lattice data (``L_basis``, ``g``), the cone over A_J and the word
table of each truncation bound T are computed only when read.
``HornInput.decompositions`` keeps the enumeration, so one input is
enumerated once, each of its cones is built once, and each word table
once per T.  B_J always has full column rank, since a vector of its
kernel, padded with zeros on the columns of M, lies in the kernel of
B.  So the index g of its column span in the saturation is the product
of the pivots of its row Hermite form (``saturation_index``), and the
rank formula reads g without saturating B_J.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable

from .errors import SizeLimitError
from .exact_linalg import (
    IntMatrix,
    LatticeBasis,
    coordinate_map,
    int_rank,
    saturated_span,
    saturation_index,
)
from .geometry import Cone
from .model import HornInput
from .series import Truncation

MAX_ROWS = 30


@dataclass(frozen=True)
class Decomposition:
    """One admissible block decomposition of B.

    Index sets are 0-based and sorted; ``label`` renders them 1-based for
    reports.  Only M and its rank ``rank_M`` are built by the enumeration;
    ``B_J``, ``N``, ``A_J`` and ``A_Jbar`` are cut from the input's B and
    A when first read.  ``L_basis`` is the saturation of the column span
    of B_J inside Z^J (coordinates indexed by J in increasing order),
    computed from B_J when first read by the series code; when M takes
    every column (p = m), B_J has none and ``L_basis`` is the zero
    lattice of Z^J, with no saturation.  ``g`` is the index of the span
    in its saturation, the product of the diagonal of ``row_hnf(B_J)``
    (``saturation_index``, see the module docstring), also computed when
    first read: the rank formula reads it only for toral decompositions,
    and the empty product makes it 1 when p = m.
    ``cone`` holds the cells, volume and support functions of A_J, likewise
    computed when first read, and ``word_table(T)`` builds the
    ``WordTable`` of each bound T once.  B and A are compared too, so
    decompositions of different inputs differ.
    """

    rowset_Jbar: tuple
    colset_M: tuple
    J: tuple
    M: IntMatrix
    q: int
    p: int
    rank_M: int
    klass: str  # "toral" | "andean"
    B: IntMatrix = field(repr=False)
    A: IntMatrix = field(repr=False)

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
        if self.p == self.B.ncols:  # B_J has no column
            return LatticeBasis(len(self.J), ())
        return saturated_span(self.B_J)

    @cached_property
    def g(self) -> int:
        return saturation_index(self.B_J)

    @cached_property
    def cone(self) -> Cone:
        return Cone(self.A_J)

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
    is the one ``Truncation`` of those solutions, and ``coords`` maps an
    integer vector of length q to its coordinates against the columns
    of M (see ``coordinate_map``).  ``columns`` lists the offsets u by
    coordinate of J, once per table, for the Gamma-ratio products of
    every (gamma, cell exponent) and parameter (``solutions._gamma_terms``).
    ``classes(w, order)`` gives each word's class under the character of
    weight w, built once per weight and order.
    """

    words: tuple
    reach: tuple
    lifted: tuple
    truncation: Truncation
    coords: Callable

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
                              bound=T, dim=n),
        coords=coordinate_map(dec.M.columns(), dec.M.nrows))


def _bits(mask, size):
    """Indices below size of the set bits of mask, increasing."""
    return tuple(i for i in range(size) if mask >> i & 1)


def _admissible_rowsets(B: IntMatrix):
    """Row masks Jbar of B whose block is mixed with no more rows than
    columns, each with its column mask, each exactly once.

    Each row carries the mask of the columns where it is positive and the
    mask of those where it is negative; a row set's block meets the union
    of its rows' masks, and every one of those columns is mixed exactly
    when the two unions are equal.  The walk's state is (included rows,
    decided rows, positive columns, negative columns).  While some column
    is one-signed on the included rows, the lowest such column needs an
    undecided row of the other sign, so the walk branches on those rows
    r_1, r_2, ... as (include r_1), (exclude r_1, include r_2), ...; with
    no such row the branch is dead.  Once every column is mixed, it
    branches on the lowest undecided row: include it, or exclude it.  An
    excluded row stays excluded, so each row set is made by exactly one
    include step, which records it when it is mixed with q <= p (a single
    row is mixed only when it is zero, and then q > p).  No branch includes more than m rows, since a
    larger set has q > p.  The empty set is recorded once, at the root.
    """
    n, m = B.nrows, B.ncols
    pos = [sum(1 << k for k in range(m) if B.data[i][k] > 0) for i in range(n)]
    neg = [sum(1 << k for k in range(m) if B.data[i][k] < 0) for i in range(n)]
    rows_pos = [sum(1 << i for i in range(n) if pos[i] >> k & 1)
                for k in range(m)]
    rows_neg = [sum(1 << i for i in range(n) if neg[i] >> k & 1)
                for k in range(m)]
    out = [(0, 0)]
    every_row = (1 << n) - 1
    # (included rows, decided rows, q, positive cols, negative cols)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        jmask, done, q, pcols, ncols = stack.pop()
        odd = pcols ^ ncols
        if odd:
            k = (odd & -odd).bit_length() - 1
            partners = (rows_neg[k] if pcols >> k & 1 else rows_pos[k]) & ~done
        else:
            free = every_row & ~done
            if not free:
                continue
            partners = free & -free
            stack.append((jmask, done | partners, q, pcols, ncols))
        while partners:
            low = partners & -partners
            partners ^= low
            done |= low
            i = low.bit_length() - 1
            pc, nc = pcols | pos[i], ncols | neg[i]
            if pc == nc and q + 1 <= pc.bit_count():
                out.append((jmask | low, pc))
            if q + 1 < m:
                stack.append((jmask | low, done, q + 1, pc, nc))
    return out


def enumerate_decompositions(hi: HornInput) -> tuple[Decomposition, ...]:
    """All block decompositions of B, classified, sorted by (|Jbar|, Jbar).

    The empty row set is always admissible (M empty, B_J = B) and always
    toral.  The walk of ``_admissible_rowsets`` yields each row set whose
    block is mixed with q <= p once; only M and its rank are built for
    those.  A decomposition is toral exactly when q = p = rank(M), which
    is the rank criterion rank(A_J) = |J| - rank(B_J) (see the module
    docstring).
    """
    B, A = hi.B, hi.A
    n, m = hi.n, hi.m
    if n > MAX_ROWS:
        raise SizeLimitError(f"B has {n} > {MAX_ROWS} rows")
    out = []
    for jmask, cmask in _admissible_rowsets(B):
        jbar, colset = _bits(jmask, n), _bits(cmask, m)
        q, p = len(jbar), len(colset)
        M = B.submatrix(jbar, colset)
        rank_M = int_rank(M)
        out.append(Decomposition(
            rowset_Jbar=jbar, colset_M=colset, J=_bits(~jmask, n), M=M,
            q=q, p=p, rank_M=rank_M,
            klass="toral" if q == p == rank_M else "andean", B=B, A=A))
    return tuple(sorted(out, key=lambda dec: (len(dec.rowset_Jbar),
                                              dec.rowset_Jbar)))


@dataclass(frozen=True)
class AndeanReport:
    """The generic-holonomicity verdict and, when read, the Andean
    directions.

    ``andean`` holds the Andean decompositions.  The verdict needs no
    lattice work: A_J spans Q^d exactly when rank(M) = q (see the module
    docstring), so the input is generically holonomic exactly when every
    Andean block has rank(M) < q.  ``directions`` are canonical saturated
    lattice bases of the rational column spans of the Andean A_J,
    deduplicated and sorted, computed on first read: Z^d once when some
    block has rank(M) = q, and ``saturated_span(A_J)`` of each block with
    rank(M) < q.  Integer translates are not computed, so the set is a
    superset description of where holonomicity can fail.
    """

    andean: tuple = field(repr=False)
    d: int
    generically_holonomic: bool

    @cached_property
    def directions(self) -> tuple:
        spans = [saturated_span(dec.A_J) for dec in self.andean
                 if dec.rank_M < dec.q]
        if not self.generically_holonomic:
            spans.append(LatticeBasis._of_hermite(
                self.d, IntMatrix.identity(self.d).columns()))
        dirs = {span.vectors: span for span in spans}
        return tuple(dirs[k] for k in sorted(dirs))


def andean_report(decomps, d: int) -> AndeanReport:
    andean = tuple(dec for dec in decomps if not dec.is_toral)
    return AndeanReport(
        andean=andean, d=d,
        generically_holonomic=all(dec.rank_M < dec.q for dec in andean))
