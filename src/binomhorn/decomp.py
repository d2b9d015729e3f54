"""Block decompositions of B and their toral/Andean classification.

A row subset Jbar (never a singleton) forces the column set through its
block: the columns of B meeting Jbar.  The block M on (Jbar x those
columns) must be mixed with no more rows than columns; the remaining
block B_J on the complementary rows and columns determines a sublattice
whose saturation, for a toral block, is the kernel of A_J.  The class is
read off ranks alone: toral exactly when rank(A_J) = |J| - rank(B_J),
which for square M is equivalent to det(M) != 0.

Row sets are found by a depth-first walk over bitmasks of at most m rows
(sum_{k <= m} C(n, k) masks instead of 2^n), rejected by integer tests
on column-sign masks before any submatrix is built; the lattice data
(``L_basis``, ``g``) and the cone over A_J are computed only when read.
``HornInput.decompositions`` keeps the enumeration, so one input is
enumerated once and each of its cones is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import SizeLimitError
from .exact_linalg import (
    IntMatrix,
    LatticeBasis,
    int_rank,
    lattice_index,
    saturated_span,
    saturation,
)
from .geometry import Cone
from .model import HornInput

MAX_ROWS = 30


@dataclass(frozen=True)
class Decomposition:
    """One admissible block decomposition of B.

    Index sets are 0-based and sorted; ``label`` renders them 1-based for
    reports.  ``L_basis`` is the saturation of the column span of B_J
    inside Z^J (coordinates indexed by J in increasing order) and ``g`` is
    its index over that span.  Both are computed from B_J when first read:
    the rank formula reads them only for toral decompositions.  ``cone``
    holds the cells, volume and support functions of A_J, likewise
    computed when first read.
    """

    rowset_Jbar: tuple
    colset_M: tuple
    J: tuple
    M: IntMatrix
    N: IntMatrix
    B_J: IntMatrix
    A_J: IntMatrix
    A_Jbar: IntMatrix
    q: int
    p: int
    klass: str  # "toral" | "andean"

    @cached_property
    def L_basis(self) -> LatticeBasis:
        return saturation(LatticeBasis(len(self.J), self.B_J.columns()))

    @cached_property
    def g(self) -> int:
        return lattice_index(LatticeBasis(len(self.J), self.B_J.columns()))

    @cached_property
    def cone(self) -> Cone:
        return Cone(self.A_J)

    @property
    def is_toral(self):
        return self.klass == "toral"

    @property
    def label(self):
        inner = ",".join(str(i + 1) for i in self.rowset_Jbar)
        return "Jbar={" + inner + "}"


def _bits(mask, size):
    """Indices below size of the set bits of mask, increasing."""
    return tuple(i for i in range(size) if mask >> i & 1)


def _admissible_rowsets(B: IntMatrix):
    """Row masks Jbar of B whose block is mixed with no more rows than
    columns, each with its column mask.

    Each row carries the mask of the columns where it is positive and the
    mask of those where it is negative.  A depth-first walk over row sets
    of size at most m ORs them along; a row set's block meets the columns
    in the union of the two masks, and every one of those columns is mixed
    exactly when the two masks are equal.  Row sets larger than m can
    never have q <= p, so the walk visits sum_{k <= m} C(n, k) masks and
    rejects each with integer tests alone.
    """
    n, m = B.nrows, B.ncols
    pos = [sum(1 << k for k in range(m) if B.data[i][k] > 0) for i in range(n)]
    neg = [sum(1 << k for k in range(m) if B.data[i][k] < 0) for i in range(n)]
    out = []
    stack = [(0, 0, 0, 0, 0)]  # (next row, row mask, q, pos cols, neg cols)
    while stack:
        start, jmask, q, pcols, ncols = stack.pop()
        if pcols == ncols and q != 1 and q <= pcols.bit_count():
            out.append((jmask, pcols))
        if q < m:
            for i in range(start, n):
                stack.append((i + 1, jmask | 1 << i, q + 1,
                              pcols | pos[i], ncols | neg[i]))
    return out


def enumerate_decompositions(hi: HornInput) -> tuple[Decomposition, ...]:
    """All block decompositions of B, classified, sorted by (|Jbar|, Jbar).

    The empty row set is always admissible (M empty, B_J = B) and always
    toral.  Row sets of size one are skipped: a single-row block is never
    mixed.  Row sets whose block has more rows than columns are skipped
    as well.  Submatrices are built only for admissible row sets.
    """
    B, A = hi.B, hi.A
    n, m, d = hi.n, hi.m, hi.d
    if n > MAX_ROWS:
        raise SizeLimitError(f"B has {n} > {MAX_ROWS} rows")
    out = []
    for jmask, cmask in _admissible_rowsets(B):
        jbar, J = _bits(jmask, n), _bits(~jmask, n)
        colset, other_cols = _bits(cmask, m), _bits(~cmask, m)
        q, p = len(jbar), len(colset)
        M = B.submatrix(jbar, colset)
        B_J = B.submatrix(J, other_cols)
        N = B.submatrix(J, colset)
        A_J = A.submatrix(range(d), J)
        A_Jbar = A.submatrix(range(d), jbar)
        rank_BJ = int_rank(B_J)
        assert rank_BJ == m - p, "columns through B_J must stay independent"
        rank_AJ = int_rank(A_J)
        klass = "toral" if rank_AJ == len(J) - rank_BJ else "andean"
        dec = Decomposition(
            rowset_Jbar=jbar, colset_M=colset, J=J, M=M, N=N, B_J=B_J,
            A_J=A_J, A_Jbar=A_Jbar, q=q, p=p, klass=klass)
        out.append(dec)
    return tuple(sorted(out, key=lambda dec: (len(dec.rowset_Jbar),
                                              dec.rowset_Jbar)))


@dataclass(frozen=True)
class AndeanReport:
    """Directions (saturated column spans of A_J over Andean
    decompositions) and the generic-holonomicity verdict.

    Directions are canonical saturated lattice bases of the rational
    column spans; integer translates are not computed, so the set is a
    superset description of where holonomicity can fail.
    """

    directions: tuple  # tuple of LatticeBasis, deduplicated, sorted
    generically_holonomic: bool


def andean_report(decomps, d: int) -> AndeanReport:
    dirs = {}
    for dec in decomps:
        if dec.is_toral:
            continue
        span = saturated_span(dec.A_J)
        dirs[span.vectors] = span
    directions = tuple(dirs[k] for k in sorted(dirs))
    holonomic = all(len(b.vectors) < d for b in directions)
    return AndeanReport(directions=directions, generically_holonomic=holonomic)
