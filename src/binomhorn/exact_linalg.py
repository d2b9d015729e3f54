"""Arbitrary-precision integer and rational linear algebra.

Everything here is exact: matrices hold Python ints, and rational rows
are scaled to integers before any elimination.  Each lattice fact has
one route.  Rational solves, pivot choices and the |det| of a square
block (its last pivot) read one fraction-free Gauss-Jordan routine,
``rref``; ranks come from its forward-only form.  Integer kernels, left
kernels, orthogonal complements and saturated spans come from one
echelon pass of gcd column operations, ``echelon_kernel``, whose pivot
product is also the index g of a column span in its saturation.  A
lattice is held in column Hermite form and reads the coordinates of a
vector off its pivots by forward substitution; ``coordinate_forms``
turns the coordinates against other independent vectors into integer
matrix-vector products.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class IntMatrix:
    """Immutable integer matrix, row-major.

    A matrix without rows takes its column count from ``ncols``, so a
    0 x n matrix keeps its shape (and so does its transpose, n x 0).
    """

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        w = len(data[0]) if data else (ncols or 0)
        if any(len(r) != w for r in data):
            raise ValueError("ragged rows")
        if ncols is not None and ncols != w:
            raise ValueError(f"rows of length {w}, expected {ncols}")
        self.data = data
        self.nrows = len(data)
        self.ncols = w

    @classmethod
    def _of(cls, data, ncols):
        """The matrix on rows held as equal-length int tuples, unchecked."""
        m = object.__new__(cls)
        m.data, m.nrows, m.ncols = data, len(data), ncols
        return m

    @staticmethod
    def identity(n):
        return IntMatrix._of(tuple(tuple(int(i == j) for j in range(n))
                                   for i in range(n)), n)

    @staticmethod
    def zero(r, c):
        return IntMatrix._of(((0,) * c,) * r, c)

    @staticmethod
    def from_columns(cols, nrows=None):
        cols = list(cols)
        if not cols:
            return IntMatrix.zero(nrows or 0, 0)
        if len({len(c) for c in cols}) > 1:
            raise ValueError("columns of different lengths")
        return IntMatrix._of(tuple(zip(*cols)), len(cols))

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.nrows))

    def columns(self):
        return list(zip(*self.data)) if self.nrows else [()] * self.ncols

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        rows = tuple(zip(*self.data)) if self.nrows else ((),) * self.ncols
        return IntMatrix._of(rows, self.nrows)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = other.transpose().data
        return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in ot]
                          for row in self.data], ncols=other.ncols)

    def mul_vec(self, v):
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def submatrix(self, rows, cols):
        cols = list(cols)
        return IntMatrix._of(tuple(tuple([self.data[i][j] for j in cols])
                                   for i in rows), len(cols))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.data == other.data
                and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.data, self.ncols))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]})"

    def tolist(self):
        return [list(r) for r in self.data]


# -- elementary exact helpers -------------------------------------------------

def _bareiss_rank(rows):
    """Rank of integer rows by fraction-free elimination (Bareiss 1968):
    each entry becomes its 2x2 determinant with the pivot divided by the
    previous pivot, exactly, since every entry is a minor of the input."""
    rows = [r for r in rows if any(r)]
    rank, prev = 0, 1
    while rows:
        piv = next((r for r in rows if r[0]), None)
        if piv is None:
            rows = [r[1:] for r in rows]
            continue
        rows.remove(piv)
        p, tail = piv[0], piv[1:]
        rows = [row for row in (
            [(p * x - r[0] * y) // prev for x, y in zip(r[1:], tail)]
            for r in rows) if any(row)]
        prev = p
        rank += 1
    return rank


def rref(rows, ncols):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination:
    Bareiss's update, applied to the rows above each pivot as well.

    Rational rows are scaled to integers first, which keeps the row
    space.  Returns (pivots, rows, d): the pivot columns in increasing
    order and the reduced integer rows, where row i holds d in column
    pivots[i], every other row holds 0 there, and the rows past the
    pivots are zero; dividing by d gives the usual reduced form.  Every
    entry is a minor of the scaled rows, so each division is exact; d is
    the last pivot, or 1 when there is none, and of a nonsingular square
    integer matrix it is the determinant up to sign.
    """
    a = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (den // x.denominator) for x in row])
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        a = [row if i == r else [(p * x - row[c] * y) // prev
                                 for x, y in zip(row, prow)]
             for i, row in enumerate(a)]
        pivots.append(c)
        prev = p
    return pivots, a, prev


def frac_solve(rows, rhs):
    """One exact solution x of M x = rhs over Q, or None if inconsistent.

    Free variables are set to zero; a right-hand side whose length is
    not the number of rows raises ValueError.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows, {len(rhs)} right-hand sides")
    nc = len(rows[0]) if rows else 0
    pivots, red, d = rref([[*row, b] for row, b in zip(rows, rhs)], nc + 1)
    if pivots and pivots[-1] == nc:
        return None
    x = [Fraction(0)] * nc
    for c, row in zip(pivots, red):
        x[c] = Fraction(row[nc], d)
    return tuple(x)


def int_rank(m: IntMatrix):
    """Rank over the rationals, by fraction-free integer elimination."""
    return _bareiss_rank(m.data)


# -- Hermite normal form -------------------------------------------------------

def row_hnf(m: IntMatrix):
    """Canonical row Hermite normal form, zero rows stripped.

    Pivots are positive, entries above a pivot lie in [0, pivot), and the
    row lattice is unchanged.  Uniqueness makes the result a canonical
    representative of the row lattice.
    """
    rows = [list(r) for r in m.data]
    nr, nc = m.nrows, m.ncols
    pr = 0
    for col in range(nc):
        if pr >= nr:
            break
        while True:
            nz = [i for i in range(pr, nr) if rows[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][col]))
            rows[pr], rows[i0] = rows[i0], rows[pr]
            clean = True
            for i in range(pr + 1, nr):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[pr][col]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pr])]
                    if rows[i][col] != 0:
                        clean = False
            if clean:
                break
        if pr < nr and rows[pr][col] != 0:
            if rows[pr][col] < 0:
                rows[pr] = [-x for x in rows[pr]]
            for i in range(pr):
                q = rows[i][col] // rows[pr][col]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pr])]
            pr += 1
    return IntMatrix(rows[:pr]) if pr else IntMatrix.zero(0, nc)


def column_hnf(m: IntMatrix):
    """Column-style Hermite normal form (transpose of row_hnf of transpose)."""
    return row_hnf(m.transpose()).transpose()


# -- lattices ------------------------------------------------------------------

class LatticeBasis:
    """A sublattice of Z^n given by an independent list of column vectors.

    The basis is canonicalized to column-style Hermite normal form on
    construction, so two LatticeBasis objects describe the same lattice
    exactly when they compare equal.  ``pivots`` holds the coordinate of
    the first nonzero entry of each basis vector, strictly increasing.
    """

    __slots__ = ("ambient_dim", "vectors", "pivots")

    def __init__(self, ambient_dim, vectors):
        ambient_dim = int(ambient_dim)
        vecs = [tuple(int(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if vecs:
            h = column_hnf(IntMatrix.from_columns(vecs))
            cols = h.columns()
            if len(cols) != len(vecs):
                raise ValueError("vectors are linearly dependent")
            vecs = cols
        self._set(ambient_dim, vecs)

    @classmethod
    def _of_hermite(cls, ambient_dim, vectors):
        """The lattice of vectors that already are the columns of a
        column Hermite form, such as ``column_hnf`` returns, unchecked
        and not reduced again."""
        basis = object.__new__(cls)
        basis._set(ambient_dim, vectors)
        return basis

    def _set(self, ambient_dim, vectors):
        self.ambient_dim = ambient_dim
        self.vectors = tuple(vectors)
        self.pivots = tuple(next(i for i, x in enumerate(v) if x)
                            for v in self.vectors)

    @property
    def rank(self):
        return len(self.vectors)

    def coordinates(self, y):
        """The integer coordinates of the integer vector y in this
        basis, or None when y lies off the lattice.

        Each basis vector vanishes above its pivot, and the later ones
        vanish on it too, so the coordinates follow one at a time by
        forward substitution on the pivots: the next coordinate is what
        is left of y on the next pivot over that pivot, which must
        divide it exactly, and y lies in the lattice when nothing is
        left after the last one.  Raises ValueError on a wrong length.
        """
        if len(y) != self.ambient_dim:
            raise ValueError(f"vector of length {len(y)}, expected "
                             f"{self.ambient_dim}")
        rest = list(y)
        k = []
        for v, p in zip(self.vectors, self.pivots):
            q, rem = divmod(rest[p], v[p])
            if rem:
                return None
            if q:
                rest = [a - q * b for a, b in zip(rest, v)]
            k.append(q)
        return None if any(rest) else tuple(k)

    def __eq__(self, other):
        return (isinstance(other, LatticeBasis)
                and self.ambient_dim == other.ambient_dim
                and self.vectors == other.vectors)

    def __hash__(self):
        return hash((self.ambient_dim, self.vectors))

    def __repr__(self):
        return f"LatticeBasis(dim={self.ambient_dim}, vectors={list(self.vectors)})"


def kernel_basis(m: IntMatrix):
    """Basis of the integer right kernel ker_Z(m) = {u : m u = 0}.

    Gcd column operations on [m; I], a row of m at a time (Kannan-Bachem
    1979; Cohen, GTM 138, 2.4): the live column with the smallest nonzero
    entry in the row reduces the others until it alone is nonzero there,
    then drops out as the row's pivot.  The operations are unimodular, so
    the I-parts of the columns left live span ker_Z(m).  Returns a
    LatticeBasis in Z^(ncols), with no vectors if the kernel is trivial.
    """
    return LatticeBasis(m.ncols, echelon_kernel(m)[0])


def echelon_kernel(m: IntMatrix):
    """(kernel columns, pivot product) of the elimination that
    ``kernel_basis`` describes: the I-parts of the live columns, not yet
    in Hermite form, and the product of the absolute values of the
    pivots, one per row of m, with 0 for a row that has none.

    The pivots are the diagonal of a lower triangular L with
    m U = [L | 0], U unimodular, so for m of full row rank their
    product is [Z^nrows : column span of m], which is the gcd of the
    maximal minors of m and so the index of the row lattice of m in
    its saturation (Cohen, GTM 138, 2.4): on B^T it is
    g = [sat ZB : ZB], for every block B_J alike.  It is 0 exactly when
    the rows are dependent.
    """
    n = m.ncols
    cols = [[*col, *(int(i == j) for i in range(n))]
            for j, col in enumerate(m.columns())]
    index = 1
    for _ in range(m.nrows):
        nz = [c for c in cols if c[0]]
        while len(nz) > 1:
            p = min(nz, key=lambda c: abs(c[0]))
            for c in nz:
                if c is not p:
                    q = c[0] // p[0]
                    c[:] = [x - q * y for x, y in zip(c, p)]
            nz = [c for c in nz if c[0]]
        index *= abs(nz[0][0]) if nz else 0
        cols = [c[1:] for c in cols if not c[0]]
    return cols, index


def left_kernel_basis(m: IntMatrix):
    """Basis of {y : y m = 0} as a LatticeBasis in Z^(nrows)."""
    return kernel_basis(m.transpose())


def saturated_span(m: IntMatrix):
    """(Q colspan m) intersect Z^nrows as a LatticeBasis, for any columns:
    the integer kernel of the rows of ``left_kernel_basis(m)``, which
    vanish exactly on the rational column span.  A matrix without
    columns gives the zero lattice.
    """
    ys = left_kernel_basis(m).vectors
    return kernel_basis(IntMatrix._of(ys, m.nrows))


def coordinate_forms(vectors, n):
    """Integer forms (C, P, d) of the lattice spanned by independent
    integer vectors of length n: an integer y lies in that lattice
    exactly when C y = 0 and d divides every entry of P y, and then its
    coordinates are P y / d.  d is positive.

    One rref of [V^T | I], the vectors as rows beside the identity,
    gives both.  Its pivots are the first coordinates on which the
    vectors restrict to an invertible block, and its right block E turns
    that block into d I, so E^T over d inverts it: P holds E^T on the
    pivot coordinates and zeros elsewhere.  C is the basis of the left
    kernel of the vectors as columns (``left_kernel_basis``), the
    orthogonal complement of their span, so it vanishes exactly on the
    rational span.  C has n - len(vectors) rows and P has len(vectors).
    """
    vectors = tuple(tuple(int(x) for x in vec) for vec in vectors)
    r = len(vectors)
    if any(len(vec) != n for vec in vectors):
        raise ValueError(f"vectors of length other than {n}")
    rows, red, d = rref([[*vec, *(int(i == j) for j in range(r))]
                         for i, vec in enumerate(vectors)], n + r)
    if rows and rows[-1] >= n:
        raise ValueError("vectors are linearly dependent")
    sign = 1 if d > 0 else -1
    P = [[0] * n for _ in range(r)]
    for i, p_row in enumerate(P):
        for t, row in zip(rows, red):
            p_row[t] = sign * row[n + i]
    C = left_kernel_basis(IntMatrix.from_columns(vectors, nrows=n)).vectors
    return C, tuple(map(tuple, P)), sign * d
