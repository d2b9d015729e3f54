"""Reference linear algebra for the oracles.

Plain Gauss-Jordan elimination over fractions.Fraction, kept apart from
the library's fraction-free ``rref`` so that no oracle reads the code it
checks: ``frac_solve`` sets free variables to zero and gives None for an
inconsistent system, ``frac_nullspace`` has one basis vector per free
column, and ``frac_rank`` counts the pivots.  Integer kernels and
saturated spans come from the Smith form, apart from the library's
echelon kernel: ``smith_kernel_basis`` and ``smith_saturated_span``.
Linear feasibility is decided by Fourier-Motzkin elimination,
``fm_feasible``, apart from the library's simplex.
"""

from fractions import Fraction

from binomhorn.exact_linalg import (
    IntMatrix,
    LatticeBasis,
    row_hnf,
    smith_normal_form,
)


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
