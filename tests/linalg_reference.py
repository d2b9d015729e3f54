"""Reference linear algebra for the oracles.

Plain Gauss-Jordan elimination over fractions.Fraction, kept apart from
the library's fraction-free ``rref`` so that no oracle reads the code it
checks: ``frac_solve`` sets free variables to zero and gives None for an
inconsistent system, ``frac_nullspace`` has one basis vector per free
column, and ``frac_rank`` counts the pivots.  ``smith_normal_form`` is
the full Smith form with both transforms; the invariant factors,
integer kernels, saturated spans and characters come from it, apart
from the library's Hermite-pivot index, echelon kernel and Hermite-form
characters: ``invariant_factors``, ``smith_index``,
``smith_kernel_basis``, ``smith_saturated_span`` and
``smith_character_weights``.  Linear feasibility is decided by
Fourier-Motzkin elimination, ``fm_feasible``, apart from the library's
simplex, and ``is_pointed_by_fraction_ratios`` is that simplex as it was
when its ratio test built one ``Fraction`` per row, the reference for
the cross-multiplied test.  ``lattice_index`` is the index of a span
in a Hermite basis as one determinant ratio on its pivots, the route by
which a supplied A once got its index.
"""

from fractions import Fraction
from itertools import product
from math import prod

from binomhorn.exact_linalg import IntMatrix, LatticeBasis, bareiss_det, row_hnf
from binomhorn.model import PointedReport, _clear_denominators


def gauss_jordan(rows, ncols):
    """(pivot columns, reduced rows) of the rows, with every pivot 1."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots, m


def frac_rank(rows):
    return len(gauss_jordan(rows, len(rows[0]) if rows else 0)[0])


def frac_solve(rows, rhs):
    """One exact solution x of M x = rhs over Q, or None if inconsistent."""
    nc = len(rows[0]) if rows else 0
    pivots, m = gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)],
                             nc + 1)
    if pivots and pivots[-1] == nc:
        return None
    x = [Fraction(0)] * nc
    for i, col in enumerate(pivots):
        x[col] = m[i][nc]
    return tuple(x)


def frac_nullspace(rows, ncols):
    """Basis of the rational right null space of a list-of-rows matrix."""
    pivots, m = gauss_jordan(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


def lattice_coordinates(vectors, y):
    """Integer coordinates of y against independent integer vectors, or
    None when y lies outside the lattice they span."""
    if not vectors:
        return () if not any(y) else None
    sol = frac_solve([list(row) for row in zip(*vectors)], list(y))
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def smith_normal_form(m: IntMatrix):
    """Smith normal form with transforms: returns (U, D, V), U m V = D.

    U, V are unimodular; D is diagonal with nonnegative entries d_1 | d_2 | ...
    Pivot choice: smallest absolute nonzero entry of the remaining block.
    """
    a = [list(row) for row in m.data]
    nr, nc = m.nrows, m.ncols
    U = [list(row) for row in IntMatrix.identity(nr).data]
    V = [list(row) for row in IntMatrix.identity(nc).data]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; enforce divisibility
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return IntMatrix(U), IntMatrix(a), IntMatrix(V)


def lattice_index(lattice, vectors):
    """Index in a Hermite-form ``LatticeBasis`` of the span of the given
    vectors, which must lie in it and number its rank.

    They are then the basis times an integer matrix T, whose determinant
    is the index up to sign.  On the Hermite pivot coordinates P the
    basis is triangular with the pivots on its diagonal, so |det T| is
    |det of the vectors on P| over the product of the pivots (Cohen,
    GTM 138, 2.4).  Raises ValueError when the count or a length is
    wrong, the determinant is 0, or the pivot product does not divide
    it.
    """
    vectors = [tuple(v) for v in vectors]
    if (len(vectors) != lattice.rank
            or any(len(v) != lattice.ambient_dim for v in vectors)):
        raise ValueError(f"index needs {lattice.rank} vectors of length "
                         f"{lattice.ambient_dim}")
    det = bareiss_det(IntMatrix([[v[p] for v in vectors]
                                 for p in lattice.pivots], lattice.rank))
    index, rem = divmod(abs(det), prod(v[p] for v, p in
                                       zip(lattice.vectors, lattice.pivots)))
    if det == 0 or rem:
        raise ValueError("vectors are dependent or outside the lattice")
    return index


def invariant_factors(m):
    """Nonzero diagonal entries of the Smith form of m."""
    _, d, _ = smith_normal_form(m)
    return tuple(x for x in (d.data[i][i] for i in range(min(d.shape)))
                 if x)


def smith_index(m):
    """[sat(Z colspan m) : Z colspan m] for independent columns m: the
    product of the invariant factors of the row Hermite form of m^T,
    which are those of m; on a tall m itself the transforms explode."""
    return prod(invariant_factors(row_hnf(m.transpose())))


def smith_kernel_basis(m):
    """ker_Z(m) from the Smith form U h V = D of the row Hermite form h of
    m: the columns of V past the rank span it, because V is unimodular.

    h has the row lattice of m, hence its kernel.  Without that step the
    transforms of a tall input explode: the left kernel of a random 8 x 10
    matrix with entries in [-3, 3] can run for over 40 s.
    """
    if m.ncols == 0:
        return LatticeBasis(0, [])
    m = row_hnf(m)
    if m.nrows == 0:
        return LatticeBasis(m.ncols, IntMatrix.identity(m.ncols).columns())
    _, d, v = smith_normal_form(m)
    r = sum(1 for i in range(min(d.nrows, d.ncols)) if d.data[i][i] != 0)
    return LatticeBasis(m.ncols, [v.column(j) for j in range(r, m.ncols)])


def smith_saturated_span(m):
    """(Q colspan m) intersect Z^nrows: the integer kernel of the integer
    left kernel of m, both from the Smith form."""
    t = smith_kernel_basis(m.transpose()).vectors
    if not t:
        return LatticeBasis(m.nrows, IntMatrix.identity(m.nrows).columns())
    return smith_kernel_basis(IntMatrix(t))


def smith_character_weights(C, N):
    """(label, weight vector) for each character of Z^r / C Z^r, C square
    and nonsingular, through the row transform U of its Smith form
    U C V = D: the label t runs over the d_i > 1 in lexicographic order,
    and the weight is sum_i t_i (N / d_i) U_i mod N, so the character
    is k -> zeta_N^(w . k).  Raises ValueError unless each d_i divides N.
    """
    U, D, _ = smith_normal_form(C)
    ds = [D.data[i][i] for i in range(C.nrows)]
    nontrivial = [i for i, x in enumerate(ds) if x > 1]
    for i in nontrivial:
        if N % ds[i]:
            raise ValueError(f"need order {ds[i]}")
    out = []
    for t in product(*(range(ds[i]) for i in nontrivial)):
        out.append((t, tuple(
            sum(x * U.data[i][s] * (N // ds[i])
                for x, i in zip(t, nontrivial)) % N
            for s in range(C.ncols))))
    return out


def fm_feasible(rows, rhs):
    """Decide { x : rows[i] . x >= rhs[i] } != empty by Fourier-Motzkin.

    Returns (True, x) with a rational witness, or (False, lam) with a
    nonnegative rational Farkas certificate: sum lam_i rows[i] = 0 and
    sum lam_i rhs[i] > 0.
    """
    nvars = len(rows[0]) if rows else 0
    # each inequality carries its multiplier vector over the original rows
    ineqs = []
    for i, (row, c) in enumerate(zip(rows, rhs)):
        mult = [Fraction(0)] * len(rows)
        mult[i] = Fraction(1)
        ineqs.append(([Fraction(x) for x in row], Fraction(c), mult))

    stages = []  # per eliminated variable: the inequalities used for bounds
    for var in range(nvars - 1, -1, -1):
        pos, neg, zero = [], [], []
        for coeffs, c, mult in ineqs:
            if coeffs[var] > 0:
                pos.append((coeffs, c, mult))
            elif coeffs[var] < 0:
                neg.append((coeffs, c, mult))
            else:
                zero.append((coeffs, c, mult))
        stages.append((var, pos, neg))
        new = list(zero)
        for pc, pcst, pmult in pos:
            for nc, ncst, nmult in neg:
                a, b = pc[var], -nc[var]
                coeffs = [b * x + a * y for x, y in zip(pc, nc)]
                cst = b * pcst + a * ncst
                mult = [b * x + a * y for x, y in zip(pmult, nmult)]
                coeffs[var] = Fraction(0)
                if all(x == 0 for x in coeffs) and cst > 0:
                    return False, tuple(mult)
                new.append((coeffs, cst, mult))
        # drop duplicate inequalities up to positive scaling
        seen = {}
        for coeffs, cst, mult in new:
            scale = next((abs(x) for x in coeffs if x != 0), None)
            if scale is None:
                scale = abs(cst) if cst != 0 else Fraction(1)
            key = (tuple(x / scale for x in coeffs), cst / scale)
            if key not in seen:
                seen[key] = (coeffs, cst, mult)
        ineqs = list(seen.values())

    for coeffs, c, mult in ineqs:
        if c > 0:
            return False, tuple(mult)

    # feasible: back-substitute, picking any value between the bounds
    x = [Fraction(0)] * nvars
    for var, pos, neg in reversed(stages):
        lo, hi = None, None
        for coeffs, c, _ in pos:
            # coeffs[var] * x_var >= c - rest  with positive coefficient
            rest = sum(coeffs[j] * x[j] for j in range(nvars) if j != var)
            bound = (c - rest) / coeffs[var]
            lo = bound if lo is None or bound > lo else lo
        for coeffs, c, _ in neg:
            rest = sum(coeffs[j] * x[j] for j in range(nvars) if j != var)
            bound = (c - rest) / coeffs[var]
            hi = bound if hi is None or bound < hi else hi
        if lo is None and hi is None:
            x[var] = Fraction(0)
        elif lo is None:
            x[var] = hi
        elif hi is None:
            x[var] = lo
        else:
            x[var] = (lo + hi) / 2
    return True, tuple(x)


def is_pointed_by_fraction_ratios(A, ties=None):
    """``model.is_pointed`` with its ratio test keyed by
    (Fraction(t_i, t_ic), basis index), as the library had it.  When
    ``ties`` is a list, each ratio test whose least ratio is reached on
    more than one row appends the number of those rows."""
    d, n = A.shape
    signs = [-1 if sum(a) < 0 else 1 for a in A.data]
    t = [[s * x for x in a] + [int(k == i) for k in range(d)] + [s * sum(a)]
         for i, (a, s) in enumerate(zip(A.data, signs))]
    t.append([0 if n <= k < n + d else -sum(row[k] for row in t)
              for k in range(n + d + 1)])
    t.append([-1] * n + [0] * (d + 1))
    basis = list(range(n, n + d))
    D = 1

    def pivot(r, c):
        nonlocal t, D
        prow = t[r]
        p = prow[c]
        t = [row if i == r else [(p * x - row[c] * y) // D
                                 for x, y in zip(row, prow)]
             for i, row in enumerate(t)]
        basis[r], D = c, p

    def simplex(z):
        while True:
            c = next((j for j in range(n) if t[z][j] < 0), None)
            if c is None:
                return None
            rows = [i for i in range(d) if t[i][c] > 0]
            if not rows:
                return c
            ratios = [Fraction(t[i][-1], t[i][c]) for i in rows]
            if ties is not None and ratios.count(min(ratios)) > 1:
                ties.append(ratios.count(min(ratios)))
            pivot(min(rows, key=lambda i: (Fraction(t[i][-1], t[i][c]),
                                           basis[i])), c)

    simplex(d)
    for r in [r for r in range(d) if basis[r] >= n]:
        c = next((j for j in range(n) if t[r][j]), None)
        if c is not None:
            if t[r][c] < 0:
                t[r] = [-x for x in t[r]]
            pivot(r, c)
    ray = simplex(d + 1)
    if ray is None:
        z = t[d + 1]
        return PointedReport(pointed=True, functional=tuple(
            Fraction(s * z[n + i], D) for i, s in enumerate(signs)))
    mu = [0] * n
    mu[ray] = D
    for i, j in enumerate(basis):
        if j < n:
            mu[j] = -t[i][ray]
    return PointedReport(pointed=False, combination=_clear_denominators(mu))
