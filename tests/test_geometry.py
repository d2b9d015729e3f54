"""Tests of the cone over a column configuration.

The routines that computed the volume, the cone triangulation and the
support functions separately, each with its own scan, are kept here as
references: ``Cone`` must agree with them on random configurations.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from binomhorn import (
    Cone,
    IntMatrix,
    bounded_atlas,
    enumerate_decompositions,
    generic_rank,
    is_pointed,
    make_horn_input,
    solution_basis,
    very_generic_check,
)
from binomhorn import geometry
from binomhorn.errors import BinomHornError
from binomhorn.exact_linalg import (
    LatticeBasis,
    bareiss_det,
    column_hnf,
    int_rank,
)
from binomhorn.geometry import own_lattice_coordinates
from linalg_reference import (
    frac_nullspace,
    frac_rank,
    frac_solve,
    lattice_coordinates,
)


# -- references ----------------------------------------------------------------------

def reference_affine_rank(points):
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return frac_rank([[x - y for x, y in zip(p, p0)] for p in points[1:]])


def reference_facet_hyperplanes(points, dim):
    """(normal, offset, member indices) of every facet of conv(points), by
    a scan over all dim-subsets, duplicated points included."""
    facets = {}
    for sub in combinations(range(len(points)), dim):
        base = points[sub[0]]
        rows = [[points[i][k] - base[k] for k in range(dim)] for i in sub[1:]]
        if rows and frac_rank(rows) != dim - 1:
            continue
        normals = frac_nullspace(rows or [[Fraction(0)] * dim], dim)
        if len(normals) != 1:
            continue
        nu = normals[0]
        off = sum(a * b for a, b in zip(nu, base))
        vals = [sum(a * b for a, b in zip(nu, p)) - off for p in points]
        if all(v >= 0 for v in vals):
            nu, off, vals = tuple(-x for x in nu), -off, [-v for v in vals]
        elif not all(v <= 0 for v in vals):
            continue
        facets[tuple(i for i, v in enumerate(vals) if v == 0)] = (nu, off)
    return [(nu, off, members) for members, (nu, off) in sorted(facets.items())]


def reference_triangulate(points):
    idx = sorted(range(len(points)), key=lambda i: points[i])
    dim = reference_affine_rank([points[i] for i in idx])
    return reference_triangulate_rec([points[i] for i in idx], idx, dim)


def reference_triangulate_rec(pts, labels, dim):
    distinct = sorted(set(pts))
    if dim == 0:
        return [(labels[pts.index(distinct[0])],)]
    first = {}
    for p, l in zip(pts, labels):
        if p not in first or l < first[p]:
            first[p] = l
    if dim == 1:
        return sorted(tuple(sorted((first[a], first[b])))
                      for a, b in zip(distinct, distinct[1:]))
    if len(distinct) == dim + 1:
        return [tuple(l for p, l in zip(pts, labels) if first[p] == l)]
    base = distinct[0]
    basis = []
    for p in distinct[1:]:
        row = [x - y for x, y in zip(p, base)]
        if len(basis) < dim and frac_rank(basis + [row]) > len(basis):
            basis.append(row)
    cols = [[basis[j][i] for j in range(dim)] for i in range(len(base))]
    local = [frac_solve(cols, [x - y for x, y in zip(p, base)]) for p in pts]
    apex = min(range(len(local)), key=lambda i: (local[i], labels[i]))
    out = []
    for _, _, members in reference_facet_hyperplanes(local, dim):
        if apex in members:
            continue
        for simplex in reference_triangulate_rec(
                [local[i] for i in members], [labels[i] for i in members],
                dim - 1):
            out.append((labels[apex],) + simplex)
    return sorted(out)


def reference_simplex_volume(simplex_points):
    """|det| of the edge matrix from the first vertex, by Fraction
    elimination."""
    p0 = simplex_points[0]
    m = [[Fraction(x - y) for x, y in zip(p, p0)] for p in simplex_points[1:]]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return abs(det)


def reference_points(A):
    """(lattice, points): 0 followed by every column, duplicates kept, in
    the coordinates of the column lattice."""
    if A.ncols == 0 or int_rank(A) == 0:
        raise BinomHornError("degenerate point set")
    lattice = LatticeBasis(A.nrows, [c for c in column_hnf(A).columns()
                                     if any(c)])
    coords = [lattice_coordinates(lattice.vectors, c) for c in A.columns()]
    r = len(lattice.vectors)
    return lattice, [tuple(Fraction(0) for _ in range(r))] + \
        [tuple(Fraction(x) for x in k) for k in coords]


def reference_volume(A):
    """(volume, lattice): conv(0, columns) triangulated by pulling its
    lexicographically smallest vertex, cell volumes summed."""
    lattice, pts = reference_points(A)
    total = sum(reference_simplex_volume([pts[i] for i in simplex])
                for simplex in reference_triangulate(pts))
    assert total.denominator == 1
    return int(total), lattice


def reference_cells(A):
    """Sorted (column tuple, volume) pairs: 0 coned over the facets not
    containing it, scanned with duplicated points."""
    _, pts = reference_points(A)
    r = len(pts[0])
    cells = []
    for _, _, members in reference_facet_hyperplanes(pts, r):
        if 0 in members:
            continue
        for simplex in reference_triangulate_rec(
                [pts[i] for i in members], list(members), r - 1):
            vol = reference_simplex_volume([pts[0]] + [pts[i] for i in simplex])
            assert vol != 0
            cells.append((tuple(i - 1 for i in simplex), int(vol)))
    return sorted(cells)


def reference_supports(A):
    """Sorted (facet, nu) pairs from a scan over (d-1)-subsets of the
    columns in the ambient coordinates, each nu divided by the generator
    of its values on the columns.  For d = 1 it returns the sign of the
    first column, whatever the other columns are."""
    d, nj = A.nrows, A.ncols
    if nj == 0 or int_rank(A) != d:
        raise BinomHornError("support functions need a full-rank column set")
    cols = [tuple(Fraction(x) for x in A.column(j)) for j in range(nj)]
    found = {}
    for sub in combinations(range(nj), d - 1) if d > 1 else ():
        rows = [list(cols[j]) for j in sub]
        if frac_rank(rows) != d - 1:
            continue
        normals = frac_nullspace(rows, d)
        if len(normals) != 1:
            continue
        nu = normals[0]
        vals = [sum(a * b for a, b in zip(nu, c)) for c in cols]
        if all(v <= 0 for v in vals):
            nu, vals = tuple(-x for x in nu), [-v for v in vals]
        elif not all(v >= 0 for v in vals):
            continue
        found[tuple(j for j, v in enumerate(vals) if v == 0)] = nu
    if d == 1:
        found[()] = (Fraction(1 if cols[0][0] > 0 else -1),)
    out = []
    for members, nu in sorted(found.items()):
        values = [sum(a * b for a, b in zip(nu, c)) for c in cols]
        nonzero = [v for v in values if v != 0]
        den = lcm(*(v.denominator for v in nonzero))
        gen = Fraction(gcd(*(abs(int(v * den)) for v in nonzero)), den)
        out.append((members, tuple(x / gen for x in nu)))
    return out


def outcome(fn):
    try:
        return fn()
    except BinomHornError:
        return BinomHornError


def is_support_function(A, facet, nu):
    """nu >= 0 on the columns, zero exactly on facet."""
    vals = [sum(a * b for a, b in zip(nu, A.column(j))) for j in range(A.ncols)]
    return (all(v >= 0 for v in vals)
            and tuple(j for j, v in enumerate(vals) if v == 0) == facet)


def random_configuration(rng, d):
    """A random d-row A, pointed (first row positive) or not, sometimes
    rank-deficient, with a duplicated or a zero column added at times."""
    n = rng.randint(1, d + 3)
    pointed = rng.random() < 0.5
    rows = [[rng.randint(1, 3) if pointed else rng.randint(-3, 3)
             for _ in range(n)]]
    rows += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d - 1)]
    if d > 1 and rng.random() < 0.2:
        c = rng.randint(-2, 2)
        rows[-1] = [c * x for x in rows[0]]
    cols = [list(c) for c in zip(*rows)]
    if rng.random() < 0.3:
        cols.insert(rng.randrange(len(cols) + 1), list(rng.choice(cols)))
    if rng.random() < 0.3:
        cols.insert(rng.randrange(len(cols) + 1), [0] * d)
    return IntMatrix.from_columns(cols, nrows=d)


# -- the cone against the references -------------------------------------------------

def test_cone_matches_references():
    rng = random.Random(2024)
    configs = [random_configuration(rng, 1 + i % 4) for i in range(400)]
    configs += [IntMatrix([[0, 0]]), IntMatrix([[0], [0]])]
    seen = {"degenerate": 0, "rank-deficient": 0, "pointed": 0,
            "not pointed": 0, "repeated": 0, "d = 1 repaired": 0}
    for A in configs:
        cols = A.columns()
        seen["repeated"] += len(set(cols)) < len(cols)
        want_volume = outcome(lambda: reference_volume(A))
        cone = outcome(lambda: Cone(A))
        if cone is BinomHornError:
            assert want_volume is BinomHornError
            assert outcome(lambda: reference_cells(A)) is BinomHornError
            seen["degenerate"] += 1
            continue
        assert (cone.volume, cone.lattice) == want_volume, A.tolist()
        assert cone.cells == reference_cells(A), A.tolist()
        want = outcome(lambda: reference_supports(A))
        got = outcome(lambda: [(sf.facet, sf.nu) for sf in cone.supports])
        if want is BinomHornError:
            assert got is BinomHornError
            seen["rank-deficient"] += 1
            continue
        assert got is not BinomHornError
        seen["pointed" if is_pointed(A).pointed else "not pointed"] += 1
        if all(is_support_function(A, f, nu) for f, nu in want):
            assert got == want, A.tolist()
        else:
            # the reference reads a d = 1 cone off its first column alone
            assert A.nrows == 1
            assert all(is_support_function(A, f, nu) for f, nu in got)
            seen["d = 1 repaired"] += 1
    assert min(seen.values()) > 0, seen


def test_facet_normals_match_fraction_elimination():
    # the integer normals read from rref are multiples of the Fraction
    # null-space normals, positive ones on every proper face, with the
    # offsets scaled alike and the same facets found
    rng = random.Random(31)
    seen = {"degenerate": 0, "full": 0}
    for _ in range(2000):
        dim = rng.randint(1, 3)
        points = [tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                        for _ in range(dim))
                  for _ in range(rng.randint(1, dim + 3))]
        got = geometry._facet_hyperplanes(points, dim)
        want = reference_facet_hyperplanes(points, dim)
        assert [m for *_, m in got] == [m for *_, m in want], points
        for (nu, off, members), (ref, ref_off, _) in zip(got, want):
            assert all(isinstance(x, int) for x in nu)
            scale = next(x / y for x, y in zip(nu, ref) if y)
            assert [scale * y for y in ref] == list(nu) and off == scale * ref_off
            assert scale > 0 or len(members) == len(points)
        seen["full" if reference_affine_rank(points) == dim
             else "degenerate"] += 1
    assert min(seen.values()) >= 200, seen


# -- one cone per toral block -------------------------------------------------------

@pytest.fixture
def count_scans(monkeypatch):
    """The dimension of every facet scan: a scan of a toral A_J has
    dimension d, the scans inside a facet's triangulation less."""
    dims = []
    inner = geometry._facet_hyperplanes

    def counting(points, dim):
        dims.append(dim)
        return inner(points, dim)

    monkeypatch.setattr(geometry, "_facet_hyperplanes", counting)
    return dims


@pytest.mark.parametrize("backwards", [False, True])
def test_one_facet_scan_per_toral_block(count_scans, backwards,
                                        B_erd, A_erd, B_ds, A_ds):
    F = Fraction
    for B, A, betas in (
            (B_erd, A_erd, [(F(1, 2), F(1, 3)), (F(2, 5), F(1, 7)),
                            (F(3, 7), F(2, 11))]),
            (B_ds, A_ds, [(F(1, 5), F(2, 7)), (F(2, 5), F(1, 7)),
                          (F(3, 7), F(2, 11))])):
        hi = make_horn_input(B, A)
        torals = [dec for dec in hi.decompositions if dec.is_toral]
        readers = [lambda: generic_rank(hi)]
        readers += [lambda beta=beta: solution_basis(hi, beta, T=2)
                    for beta in betas]
        readers += [lambda: [very_generic_check(betas[0], dec,
                                                bounded_atlas(dec.M))
                             for dec in torals]]
        count_scans.clear()
        for read in readers[::-1] if backwards else readers:
            read()
        assert count_scans == [hi.d] * len(torals)


def test_rank_of_a_simplex_block_scans_no_facets(count_scans):
    from test_combinatorics_oracles import chain_rows
    hi = make_horn_input(IntMatrix(chain_rows(14, random.Random(14))))
    assert generic_rank(hi).total > 0
    assert count_scans == []


# -- volumes, cells and support functions ------------------------------------------

def test_volume_erdelyi(A_erd):
    assert Cone(A_erd).volume == 3
    assert Cone(A_erd.submatrix([0, 1], [0, 3])).volume == 1


def test_volume_unit_simplex():
    assert Cone(IntMatrix.identity(3)).volume == 1


def test_volume_scaled_simplex():
    # [[3,0],[0,3]] spans the lattice 3Z x 3Z; relative to it the volume is 1
    assert Cone(IntMatrix([[3, 0], [0, 3]])).volume == 1


def test_volume_ds(A_ds):
    assert Cone(A_ds).volume == 3


def test_volume_gauss(B_gauss):
    hi = make_horn_input(B_gauss)
    assert Cone(hi.A).volume == 2


def test_volume_degenerate():
    with pytest.raises(BinomHornError):
        Cone(IntMatrix([[0], [0]]))


def hull_edge_volume_2d(A):
    """Independent oracle for d = 2: walk the hull boundary of the column
    points (in own-lattice coordinates) away from the origin and sum the
    |det| of consecutive edge simplices."""
    _, coords = own_lattice_coordinates(A)
    pts = sorted(set(coords))
    origin = (0, 0)
    allpts = [origin] + [tuple(p) for p in pts]
    hull = _convex_hull_2d(allpts)
    i0 = hull.index(origin)
    ordered = hull[i0 + 1:] + hull[:i0]
    total = 0
    for a, b in zip(ordered, ordered[1:]):
        total += abs(a[0] * b[1] - a[1] * b[0])
    return total


def _convex_hull_2d(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def test_volume_additivity_oracle_2d():
    rng = random.Random(31)
    tried = 0
    while tried < 30:
        n = rng.randint(2, 5)
        A = IntMatrix([[rng.randint(0, 4) + 1 for _ in range(n)],
                       [rng.randint(-3, 3) for _ in range(n)]])
        if int_rank(A) != 2:
            continue
        tried += 1
        assert Cone(A).volume == hull_edge_volume_2d(A)


def test_volume_unimodular_invariance():
    # acceptance 7(d): invariance under 50 random unimodular transforms
    rng = random.Random(41)
    done = 0
    while done < 50:
        d = rng.choice([2, 3])
        n = rng.randint(d, d + 3)
        A = IntMatrix([[rng.randint(-4, 4) for _ in range(n)]
                       for _ in range(d)])
        if int_rank(A) == 0:
            continue
        base = Cone(A).volume
        U = _random_unimodular(rng, d)
        assert abs(bareiss_det(U)) == 1
        assert Cone(U.mul(A)).volume == base
        perm = list(range(n))
        rng.shuffle(perm)
        Ap = IntMatrix([[A.data[i][j] for j in perm] for i in range(d)])
        assert Cone(Ap).volume == base
        done += 1


def _random_unimodular(rng, d):
    U = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(d):
            U[i][k] += c * U[j][k]
    return IntMatrix(U)


def test_cone_triangulation_sums_to_volume(A_erd, A_ds):
    for A in (A_erd, A_ds):
        cone = Cone(A)
        assert sum(v for _, v in cone.cells) == reference_volume(A)[0]


def test_cells_of_every_toral_block_sum_to_its_volume(
        B_erd, A_erd, B_ds, A_ds, B_gauss, B_five, A_five):
    # the solution basis emits one series per coset of each cell, so the
    # cells must add up to the volume of the rank formula
    torals = 0
    for hi in (make_horn_input(B_erd, A_erd), make_horn_input(B_ds, A_ds),
               make_horn_input(B_gauss), make_horn_input(B_five, A_five)):
        for dec in hi.decompositions:
            if dec.is_toral:
                cells = dec.cone.cells
                assert all(len(sigma) == hi.d and v > 0 for sigma, v in cells)
                assert sum(v for _, v in cells) == reference_volume(dec.A_J)[0]
                torals += 1
    assert torals >= 8


def test_support_functions_erdelyi(A_erd):
    sfs = Cone(A_erd).supports
    values = sorted(tuple(sf.nu) for sf in sfs)
    # the two facets give the coordinate functionals beta_1 and beta_2
    assert values == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]


def test_support_functions_scaled():
    sfs = Cone(IntMatrix([[3, 0], [0, 3]])).supports
    values = sorted(tuple(sf.nu) for sf in sfs)
    assert values == [(Fraction(0), Fraction(1, 3)), (Fraction(1, 3), Fraction(0))]


def test_support_functions_identity():
    sfs = Cone(IntMatrix.identity(2)).supports
    values = sorted(tuple(sf.nu) for sf in sfs)
    assert values == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]


def test_support_function_defining_properties(A_erd, A_ds):
    for A in (A_erd, A_ds):
        lattice, _ = own_lattice_coordinates(A)
        for sf in Cone(A).supports:
            vals = [sf.value(A.column(j)) for j in range(A.ncols)]
            assert all(v >= 0 for v in vals)
            zero_set = tuple(j for j, v in enumerate(vals) if v == 0)
            assert zero_set == sf.facet
            # primitivity: values on a lattice basis generate exactly Z
            gens = [sf.value(v) for v in lattice.vectors]
            from math import gcd
            den = 1
            for g in gens:
                den = den * g.denominator // gcd(den, g.denominator)
            assert den == 1  # all values integral
            g_all = 0
            for g in gens:
                g_all = gcd(g_all, int(g))
            assert g_all == 1


def test_support_functions_rank_error(B_nh, A_nh):
    with pytest.raises(BinomHornError):
        Cone(A_nh.submatrix([0, 1], [2, 3])).supports


def test_very_generic_erdelyi(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    decs = enumerate_decompositions(hi)
    atlases = {d.rowset_Jbar: bounded_atlas(d.M) for d in decs}
    beta = (Fraction(1, 2), Fraction(1, 3))
    d23 = decs[1]
    rep = very_generic_check(beta, d23, atlases[(1, 2)])
    assert rep.ok
    # the shifted values are 1/6 and 1/9
    sfs = d23.cone.supports
    vals = sorted(sf.value(beta) for sf in sfs)
    assert vals == [Fraction(1, 9), Fraction(1, 6)]
    # beta = (1, 2) fails on the empty decomposition: a support value is 2
    rep_bad = very_generic_check((Fraction(1), Fraction(2)), decs[0],
                                 atlases[()])
    assert not rep_bad.ok
    assert rep_bad.violations


def test_very_generic_shift_invariance(B_erd, A_erd):
    # adding A_J gamma for integer gamma never changes nonresonance
    hi = make_horn_input(B_erd, A_erd)
    dec = enumerate_decompositions(hi)[0]
    sfs = dec.cone.supports
    rng = random.Random(59)
    for _ in range(20):
        beta = (Fraction(rng.randint(1, 9), 7), Fraction(rng.randint(1, 9), 5))
        gamma = [rng.randint(-3, 3) for _ in range(4)]
        shifted = tuple(
            beta[i] + sum(dec.A_J.data[i][t] * gamma[t] for t in range(4))
            for i in range(2))
        for sf in sfs:
            assert (sf.value(beta).denominator == 1) == \
                   (sf.value(shifted).denominator == 1)
