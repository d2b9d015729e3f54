import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from binomhorn import (
    BinomHornError,
    IntMatrix,
    LatticeBasis,
    int_rank,
    kernel_basis,
    left_kernel_basis,
    row_hnf,
    Scalar,
)
from binomhorn.exact_linalg import (
    bareiss_det,
    column_hnf,
    coordinate_map,
    frac_solve,
    rref,
    saturated_span,
)
from binomhorn.solutions import _character_weights, component_characters
from linalg_reference import (
    frac_rank,
    frac_solve as reference_solve,
    gauss_jordan,
    invariant_factors,
    lattice_coordinates,
    smith_character_weights,
    smith_index,
    smith_kernel_basis,
    smith_normal_form as reference_smith,
    smith_saturated_span,
)


def solve_integer(m, b):
    """One integer solution x of m x = b through the Smith form, or None
    if none exists."""
    u, d, v = reference_smith(m)
    ub = u.mul_vec(tuple(b))
    rdim = min(d.nrows, d.ncols)
    y = [0] * m.ncols
    for i in range(m.nrows):
        di = d.data[i][i] if i < rdim else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return v.mul_vec(tuple(y))


def index_via_minor_gcd(l):
    """Reference index |sat(L)/L|: the gcd of all maximal minors of the
    basis matrix, independent of the Smith form."""
    if not l.vectors:
        return 1
    m = IntMatrix.from_columns(l.vectors, nrows=l.ambient_dim)
    k = len(l.vectors)
    g = 0
    for rows in combinations(range(m.nrows), k):
        g = gcd(g, abs(bareiss_det(m.submatrix(rows, range(k)))))
    assert g != 0, "basis matrix has rank below its column count"
    return g


def sat_index(m):
    """[sat(Z colspan m) : Z colspan m] for independent columns m."""
    return saturated_span(m).index(m.columns())


def check_snf(m):
    """The reference Smith form of m is one; returns its diagonal."""
    u, d, v = reference_smith(m)
    assert u.mul(m).mul(v) == d
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    diag = [d.data[i][i] for i in range(min(d.nrows, d.ncols))]
    for i in range(m.nrows):
        for j in range(m.ncols):
            if i != j:
                assert d.data[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0 or b == 0
        else:
            assert b == 0
    return diag


def test_snf_identity():
    u, d, v = reference_smith(IntMatrix.identity(2))
    assert d == IntMatrix.identity(2)
    assert u.mul(IntMatrix.identity(2)).mul(v) == d


def test_snf_diag_2_3():
    # determinantal divisors: D1 = gcd(2,3) = 1, D2 = 6
    diag = check_snf(IntMatrix([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_b_erd(B_erd):
    # gcd of 1x1 minors is 1; rows 1,2 give a 2x2 minor equal to 1
    assert invariant_factors(B_erd) == (1, 1)
    assert check_snf(B_erd) == [1, 1]


def test_snf_random():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(c)]
                       for _ in range(r)])
        check_snf(m)


def test_kernel_of_identity():
    assert kernel_basis(IntMatrix.identity(3)).vectors == ()


def test_kernel_row_1_1():
    kb = kernel_basis(IntMatrix([[1, 1]]))
    assert len(kb.vectors) == 1
    v = kb.vectors[0]
    assert v in ((1, -1), (-1, 1))


def test_kernel_matches_b_columns(B_erd, A_erd):
    # the kernel of A_erd and the column span of B_erd agree as lattices
    kb = kernel_basis(A_erd)
    assert kb.rank == 2
    bcols = LatticeBasis(4, B_erd.columns())
    for v in kb.vectors:
        assert coordinate_map(bcols.vectors, bcols.ambient_dim)(v) is not None
    for c in B_erd.columns():
        assert coordinate_map(kb.vectors, kb.ambient_dim)(c) is not None


def test_kernel_rank_sum():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(c)]
                       for _ in range(r)])
        kb = kernel_basis(m)
        assert kb.rank + int_rank(m) == c
        for v in kb.vectors:
            assert all(x == 0 for x in m.mul_vec(v))


# -- the echelon kernel against the Smith-form reference ---------------------

ORACLE_KINDS = ("random", "zero row", "zero column", "duplicate column",
                "rank-deficient")


def oracle_matrix(rng, kind):
    """A random matrix from 0 x 0 up to 8 x 10 with entries in [-3, 3],
    shaped by ``kind`` when its size allows."""
    r, c = rng.randint(0, 8), rng.randint(0, 10)
    rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
    if kind == "zero row" and r:
        rows[rng.randrange(r)] = [0] * c
    elif kind == "zero column" and c:
        j = rng.randrange(c)
        for row in rows:
            row[j] = 0
    elif kind == "duplicate column" and c > 1:
        i, j = rng.sample(range(c), 2)
        s = rng.choice((-1, 1))
        for row in rows:
            row[j] = s * row[i]
    elif kind == "rank-deficient" and r > 1:
        # rows past the first k combine two of them, so rank <= k < r
        k = rng.randint(1, r - 1)
        for i in range(r):
            if i < k:
                rows[i] = [rng.randint(-1, 1) for _ in range(c)]
            else:
                a, b = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
                u, v = rows[rng.randrange(k)], rows[rng.randrange(k)]
                rows[i] = [a * x + b * y for x, y in zip(u, v)]
    return IntMatrix(rows, ncols=c)


def check_against_smith(m):
    """Every kernel and saturated span of m equals the Smith reference, as
    a lattice: LatticeBasis is canonical, so equal bases mean equal
    lattices."""
    assert kernel_basis(m) == smith_kernel_basis(m)
    assert left_kernel_basis(m) == smith_kernel_basis(m.transpose())
    span = smith_saturated_span(m)
    assert saturated_span(m) == span
    # the nonzero columns of the column Hermite form generate Z colspan m
    assert saturated_span(column_hnf(m)) == span


def test_echelon_kernels_match_the_smith_reference():
    rng = random.Random(1101)
    seen, shapes = Counter(), set()
    for t in range(1250):
        kind = ORACLE_KINDS[t % len(ORACLE_KINDS)]
        m = oracle_matrix(rng, kind)
        check_against_smith(m)
        seen[kind, int_rank(m) < min(m.shape)] += 1
        shapes.add(m.shape)
    assert (0, 0) in shapes and (8, 10) in shapes and len(shapes) == 99
    # every kind meets both full-rank and rank-deficient matrices
    assert len(seen) == 2 * len(ORACLE_KINDS), seen
    assert sum(n for (_, short), n in seen.items() if short) >= 400, seen


def test_echelon_kernels_match_the_smith_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        r, c = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 10))
        row = st.lists(st.integers(-3, 3), min_size=c, max_size=c)
        rows = data.draw(st.lists(row, min_size=r, max_size=r))
        check_against_smith(IntMatrix(rows, ncols=c))

    prop()


@pytest.mark.parametrize("shape", [(8, 16), (10, 20), (12, 24), (10, 30)])
def test_kernel_past_the_smith_wall(shape):
    # the Smith-form kernel ran for over 30 s on random matrices of these
    # shapes; the echelon pass takes milliseconds
    r, c = shape
    rng = random.Random(r * 100 + c)
    for _ in range(3):
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(c)]
                       for _ in range(r)])
        kb = kernel_basis(m)
        assert kb.rank == c - int_rank(m)
        for v in kb.vectors:
            assert not any(m.mul_vec(v))


def test_saturation_primitive_vector():
    s = saturated_span(IntMatrix([[2], [4]]))
    assert s.vectors == ((1, 2),)
    assert s.index([(2, 4)]) == 2


def test_saturation_b_ds(B_ds):
    s = saturated_span(B_ds)
    assert s.index(B_ds.columns()) == 3
    assert sat_index(IntMatrix.from_columns(s.vectors)) == 1
    for c in B_ds.columns():
        assert coordinate_map(s.vectors, s.ambient_dim)(c) is not None


def test_saturation_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        vecs = []
        while True:
            vecs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            if int_rank(IntMatrix.from_columns(vecs, nrows=n)) == k:
                break
        l = LatticeBasis(n, vecs)
        s = saturated_span(IntMatrix.from_columns(vecs, nrows=n))
        assert saturated_span(IntMatrix.from_columns(s.vectors)) == s
        assert sat_index(IntMatrix.from_columns(s.vectors)) == 1
        assert s.index(l.vectors) == index_via_minor_gcd(l)
        assert s.rank == l.rank
        for v in l.vectors:
            assert coordinate_map(s.vectors, s.ambient_dim)(v) is not None


def test_lattice_index_examples(B_erd, B_ds):
    assert sat_index(B_erd) == 1
    assert sat_index(B_ds) == 3
    assert sat_index(IntMatrix([[2], [4]])) == 2
    assert sat_index(IntMatrix.zero(3, 0)) == 1
    # dependent vectors, a wrong count or length, and a determinant the
    # pivot product does not divide
    s = saturated_span(B_ds)
    for bad in ([B_ds.column(0)] * 2, [B_ds.column(0)], [(3, -6, 0)] * 2):
        with pytest.raises(ValueError):
            s.index(bad)
    with pytest.raises(ValueError):
        LatticeBasis(2, [(2, 0)]).index([(1, 0)])


def test_lattice_index_minor_gcd_oracle(B_ds):
    # the 2x2 minors of B_ds are {3, -6, 9, 3, -6, 3} up to order
    minors = []
    for rows in combinations(range(4), 2):
        sub = B_ds.submatrix(rows, [0, 1])
        minors.append(bareiss_det(sub))
    assert sorted(abs(m) for m in minors) == [3, 3, 3, 6, 6, 9]
    g = 0
    for m in minors:
        g = gcd(g, abs(m))
    assert g == 3
    assert index_via_minor_gcd(LatticeBasis(4, B_ds.columns())) == 3


def test_index_dual_oracle_random():
    # the Hermite-pivot index vs gcd of maximal minors on 100 matrices
    rng = random.Random(19)
    count = 0
    while count < 100:
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        if int_rank(IntMatrix.from_columns(cols, nrows=n)) != k:
            continue
        l = LatticeBasis(n, cols)
        assert sat_index(IntMatrix.from_columns(cols)) == index_via_minor_gcd(l)
        count += 1


# -- the Hermite-pivot index against the Smith reference ----------------------

def full_column_rank(rng, count):
    """count seeded n x k matrices of rank k, with n <= 10, k <= 8 and
    entries in [-3, 3]."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 10)
        k = rng.randint(0, min(n, 8))
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(k)]
                       for _ in range(n)], ncols=k)
        if int_rank(m) == k:
            out.append(m)
    return out


def test_index_matches_the_smith_reference():
    seen = Counter()
    for m in full_column_rank(random.Random(1501), 1000):
        want = smith_index(m)
        assert sat_index(m) == want, m
        assert want == index_via_minor_gcd(LatticeBasis(m.nrows, m.columns()))
        seen[m.ncols, want > 1] += 1
    assert len(seen) == 17, seen  # every k = 0..8, and index > 1 for k > 0


@pytest.mark.parametrize("shape", [(20, 10), (24, 12), (30, 15)])
def test_index_past_the_smith_wall(shape):
    # a Smith form of the raw matrix runs for over 30 s on the first
    # 20 x 10 B here; tripling one column triples the index, which
    # divides every maximal minor
    n, k = shape
    rng = random.Random(n * 100 + k)
    for bound in (2, 3):
        while True:
            m = IntMatrix([[rng.randint(-bound, bound) for _ in range(k)]
                           for _ in range(n)])
            if int_rank(m) == k:
                break
        index = sat_index(m)
        for _ in range(5):
            rows = sorted(rng.sample(range(n), k))
            assert bareiss_det(m.submatrix(rows, range(k))) % index == 0
        cols = m.columns()
        j = rng.randrange(k)
        cols[j] = tuple(3 * x for x in cols[j])
        assert sat_index(IntMatrix.from_columns(cols)) == 3 * index


# -- characters of sat(L) / L against the Smith reference ----------------------

def saturation_coordinates(m):
    """The square coordinates of the independent columns of m in their
    saturation, the matrix component_characters reads."""
    coords = coordinate_map(saturated_span(m).vectors, m.nrows)
    return IntMatrix.from_columns(map(coords, m.columns()), nrows=m.ncols)


def unimodular(rng, r):
    """A seeded product of elementary integer row operations on I_r."""
    rows = [list(row) for row in IntMatrix.identity(r).data]
    for _ in range(3 * r):
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        if i != j:
            q = rng.randint(-2, 2)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def character_inputs():
    """Seeded square nonsingular C of |det| <= 64: the saturation
    coordinates of the matrices of up to seven columns above, random
    1 <= r <= 5, and diagonal groups mixed on both sides."""
    out = [c for c in map(saturation_coordinates,
                          full_column_rank(random.Random(1501), 1000))
           if 0 < c.nrows < 8 and abs(bareiss_det(c)) <= 64]
    rng = random.Random(2101)
    while len(out) < 1400:
        r = rng.randint(1, 5)
        c = IntMatrix([[rng.randint(-3, 3) for _ in range(r)]
                       for _ in range(r)])
        if 0 < abs(bareiss_det(c)) <= 60:
            out.append(c)
    for diag in ([2, 2], [2, 4], [3, 3, 3], [1, 2, 6], [2, 2, 4], [5, 5],
                 [2, 2, 2, 2], [1, 3, 9], [4, 4], [2, 6, 1]):
        r = len(diag)
        d = IntMatrix([[x * (i == j) for j in range(r)]
                       for i, x in enumerate(diag)])
        for _ in range(20):
            out.append(unimodular(rng, r).mul(d).mul(unimodular(rng, r)))
    return out


def test_characters_match_the_smith_reference():
    # the weight sets mod N agree with the Smith row transform's, and so
    # does the set of orders N rejected; a group's exponent, not its
    # order, decides N
    seen = Counter()
    for c in character_inputs():
        g = abs(bareiss_det(c))
        e = max(invariant_factors(c))
        for N in sorted({1, 2, 3, 4, 6, e, 2 * e, g}):
            try:
                want = smith_character_weights(c, N)
            except ValueError:
                with pytest.raises(BinomHornError, match=f"need order {e}"):
                    _character_weights(c, N)
                seen["rejected"] += 1
                continue
            got = _character_weights(c, N)
            assert len(got) == g
            assert len({t for t, _ in got}) == g
            # a label has no entry that one value fills
            assert all(len(set(column)) > 1
                       for column in zip(*(t for t, _ in got)))
            assert {w for _, w in got} == {w for _, w in want}, (c, N)
            seen["accepted", e < g] += 1
    assert seen["rejected"] > 3000, seen
    assert seen["accepted", True] > 600, seen   # non-cyclic groups
    assert seen["accepted", False] > 4000, seen


def test_eight_column_characters_are_exact():
    # the eight-column matrices where the Smith form stalled: each of the
    # g characters is exactly 1 on every column of B_J, and the g of
    # them differ on the unit vectors
    checked = 0
    for m in full_column_rank(random.Random(1501), 1000):
        if m.ncols != 8:
            continue
        L = saturated_span(m)
        g = sat_index(m)
        if not 1 < g <= 64:
            continue
        dec = SimpleNamespace(L_basis=L, B_J=m, g=g)
        chars = component_characters(dec, g)
        assert len(chars) == g
        coords = coordinate_map(L.vectors, L.ambient_dim)
        cols = [coords(col) for col in m.columns()]
        one = Scalar.one(g)
        units = IntMatrix.identity(8).data
        values = set()
        for _, fn in chars:
            assert all(fn(k) == one for k in cols)
            values.add(tuple((x.nums, x.den) for x in map(fn, units)))
        assert len(values) == g
        checked += 1
    assert checked == 10


def test_int_rank(A_erd):
    assert int_rank(A_erd) == 2
    assert int_rank(IntMatrix.zero(3, 2)) == 0
    assert int_rank(IntMatrix([[-2, 1], [1, -2]])) == 2  # det = 3


def low_rank_rows(rng, nr, nc, r, bound):
    """An nr x nc integer matrix of rank at most r: a product of an
    nr x r and an r x nc factor, then zero rows and columns spliced in."""
    left = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(nr)]
    right = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(r)]
    rows = [[sum(a * right[k][j] for k, a in enumerate(row))
             for j in range(nc)] for row in left]
    for row in rows:
        if rng.random() < 0.2:
            row[:] = [0] * nc
    for j in range(nc):
        if rng.random() < 0.2:
            for row in rows:
                row[j] = 0
    return rows


def test_int_rank_matches_fraction_elimination():
    rng = random.Random(101)
    shapes = [(1, c) for c in range(1, 15)] + [(r, 1) for r in range(1, 15)]
    shapes += [(rng.randint(1, 14), rng.randint(1, 14)) for _ in range(200)]
    deficient = 0
    for nr, nc in shapes:
        bound = rng.choice((1, 3, 1000, 10 ** 6))
        if rng.random() < 0.5:
            rows = low_rank_rows(rng, nr, nc, rng.randint(0, min(nr, nc)),
                                 min(bound, 1000))
        else:
            rows = [[rng.randint(-bound, bound) for _ in range(nc)]
                    for _ in range(nr)]
        want = frac_rank(rows)
        assert int_rank(IntMatrix(rows)) == want, rows
        deficient += want < min(nr, nc)
    assert deficient >= 50  # rank-deficient inputs are well represented
    assert int_rank(IntMatrix([[10 ** 6, -10 ** 6], [-10 ** 6, 10 ** 6]])) == 1


def test_frac_rank_matches_fraction_elimination():
    # the rank of rational rows is the pivot count of rref, and the
    # int_rank of the rows scaled to integers
    rng = random.Random(103)
    for _ in range(150):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                 for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.5:
            # a rational combination of earlier rows makes the rank drop
            c = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in rows]
            rows.append([sum(ci * row[j] for ci, row in zip(c, rows))
                         for j in range(nc)])
        rows.append([Fraction(0)] * nc)
        want = frac_rank(rows)
        assert len(rref(rows, nc)[0]) == want, rows
        scaled = [[x * lcm(*(y.denominator for y in row)) for x in row]
                  for row in rows]
        assert int_rank(IntMatrix(scaled)) == want, rows
    assert len(rref([], 0)[0]) == 0 == len(rref([[]], 0)[0])
    assert int_rank(IntMatrix.zero(0, 3)) == 0


def random_rational_system(rng):
    """(rows, rhs, ncols): up to 6 x 6 rational rows, often with a row
    combined from the others or a zero row, and a right-hand side that
    is consistent by construction about half of the time."""
    nr, nc = rng.randint(0, 6), rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
             for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and rng.random() < 0.4:
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows]
        rows[rng.randrange(nr)] = [sum(ci * row[j] for ci, row in zip(c, rows))
                                   for j in range(nc)]
    if nr and rng.random() < 0.2:
        rows[rng.randrange(nr)] = [Fraction(0)] * nc
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in rows]
    return rows, rhs, nc


def test_rref_and_frac_solve_match_fraction_elimination():
    rng = random.Random(67)
    seen = Counter()
    for _ in range(2000):
        rows, rhs, nc = random_rational_system(rng)
        pivots, red, d = rref(rows, nc)
        want_pivots, want = gauss_jordan(rows, nc)
        assert pivots == want_pivots, rows
        assert len(red) == len(rows) and d != 0
        for i, row in enumerate(red):
            if i < len(pivots):
                assert row[pivots[i]] == d
                assert all(other[pivots[i]] == 0
                           for k, other in enumerate(red) if k != i)
                assert [Fraction(x, d) for x in row] == want[i], rows
            else:
                assert not any(row), rows
        sol = frac_solve(rows, rhs)
        assert sol == reference_solve(rows, rhs), (rows, rhs)
        seen["rank-deficient"] += len(pivots) < min(len(rows), nc)
        seen["inconsistent"] += sol is None
        seen["zero row"] += any(not any(row) for row in rows)
        seen["row-less"] += not rows
        seen["one column"] += nc == 1
    assert min(seen.values()) >= 50 and len(seen) == 5, seen


def test_coordinates_match_fraction_elimination():
    # coordinate_map against Fraction elimination on the vectors as
    # columns, for integer and rational vectors inside and outside the
    # lattice
    rng = random.Random(71)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(r)]
        if r and frac_rank(vecs) < r:
            with pytest.raises(ValueError):
                coordinate_map(vecs, n)
            seen["dependent"] += 1
            continue
        L = LatticeBasis(n, vecs)
        coords = coordinate_map(L.vectors, n)
        for _ in range(3):
            if r and rng.random() < 0.5:
                k = [rng.randint(-5, 5) for _ in range(r)]
                y = [sum(c * vec[t] for c, vec in zip(k, L.vectors))
                     for t in range(n)]
            else:
                y = [rng.randint(-5, 5) for _ in range(n)]
            if rng.random() < 0.3:
                y = [Fraction(x, rng.choice((1, 2))) for x in y]
            want = lattice_coordinates(L.vectors, y)
            assert coords(y) == want, (L, y)
            seen["inside" if want is not None else "outside"] += 1
    assert min(seen.values()) >= 50 and len(seen) == 3, seen


def test_coordinates_reject_wrong_lengths():
    L = LatticeBasis(2, [(1, 0)])
    for bad in ((3, 0, 7), (3,)):
        with pytest.raises(ValueError):
            coordinate_map(L.vectors, L.ambient_dim)(bad)
    empty = LatticeBasis(3, [])
    with pytest.raises(ValueError):
        coordinate_map(empty.vectors, empty.ambient_dim)((0, 0))
    coords = coordinate_map(L.vectors, L.ambient_dim)
    assert coords((3, 0)) == (3,) and coords((3, 1)) is None
    for rhs in ([1], [1, 2, 3]):
        with pytest.raises(ValueError):
            frac_solve([[1, 0], [0, 1]], rhs)


def test_coordinate_map_of_no_vectors_checks_lengths():
    # the empty list still knows its ambient dimension
    coords = coordinate_map((), 3)
    assert coords((0, 0, 0)) == () and coords((0, 1, 0)) is None
    assert coords((Fraction(1, 2), 0, 0)) is None
    for bad in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            coords(bad)
    with pytest.raises(ValueError):
        coordinate_map(((1, 0),), 3)


def test_row_hnf_canonical():
    # same row lattice from shuffled generator sets gives identical bytes
    rng = random.Random(23)
    base = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h0 = row_hnf(IntMatrix(base))
    for _ in range(10):
        rows = [list(r) for r in base]
        rng.shuffle(rows)
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        assert row_hnf(IntMatrix(rows)) == h0


def test_lattice_basis_vectors_are_a_row_hermite_form():
    # validate_B takes the left kernel basis of B as its A with no second
    # row_hnf pass, since LatticeBasis canonicalizes through column_hnf
    rng = random.Random(2401)
    for _ in range(400):
        n = rng.randint(1, 16)
        m = rng.randint(0, min(n, 8))
        B = IntMatrix([[rng.randint(-3, 3) for _ in range(m)]
                       for _ in range(n)], ncols=m)
        A = IntMatrix(left_kernel_basis(B).vectors, ncols=n)
        assert row_hnf(A) == A


def test_lattice_basis_rejects_dependent():
    with pytest.raises(ValueError):
        LatticeBasis(2, [(1, 2), (2, 4)])


def test_solve_integer():
    m = IntMatrix([[2, 0], [0, 3]])
    assert solve_integer(m, (4, 9)) == (2, 3)
    assert solve_integer(m, (1, 0)) is None
    m2 = IntMatrix([[1, 1]])
    x = solve_integer(m2, (5,))
    assert x is not None and sum(x) == 5


def test_empty_dimension_keeps_the_other():
    # 3 x 0 and 0 x 3 keep their shapes through transpose, products and
    # submatrices, and the kernels see the ambient Z^3
    z30, z03 = IntMatrix.zero(3, 0), IntMatrix.zero(0, 3)
    assert z30.shape == (3, 0) and z03.shape == (0, 3)
    assert z30.transpose().shape == (0, 3) and z03.transpose().shape == (3, 0)
    assert z30.transpose() == z03 and z30 != IntMatrix.zero(0, 0)
    assert z03 != IntMatrix.zero(0, 5)
    assert hash(z03) != hash(IntMatrix.zero(0, 5))
    assert z30.mul(z03) == IntMatrix.zero(3, 3)
    assert z03.mul(z30) == IntMatrix.zero(0, 0)
    assert IntMatrix.from_columns([(), ()]).shape == (0, 2)
    assert IntMatrix.from_columns([], nrows=3).shape == (3, 0)
    assert IntMatrix.identity(3).submatrix([], [0, 2]).shape == (0, 2)
    assert IntMatrix([], ncols=3) == z03
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], ncols=3)
    full = IntMatrix.identity(3).columns()
    for lat in (left_kernel_basis(z30), kernel_basis(z03)):
        assert lat.ambient_dim == 3 and list(lat.vectors) == full
    assert kernel_basis(z30) == LatticeBasis(0, [])
    assert left_kernel_basis(z03) == LatticeBasis(0, [])
    assert saturated_span(z30) == LatticeBasis(3, [])
    assert saturated_span(z03) == LatticeBasis(0, [])
    assert int_rank(z30) == int_rank(z03) == 0


def test_index_three_five_row_lattice():
    # the five-row companion lattice has the same index-3 saturation
    B = IntMatrix([[-2, -1, 0], [3, 0, 1], [0, 3, 0], [-1, -2, 0],
                   [0, 0, -1]])
    assert sat_index(B) == 3
    s = saturated_span(B)
    assert sat_index(IntMatrix.from_columns(s.vectors)) == 1
    assert s.rank == 3


def test_snf_arbitrary_precision():
    # hundred-digit entries stay exact
    big = 10 ** 100
    m = IntMatrix([[big, big + 1], [big - 1, big]])
    diag = check_snf(m)
    assert diag == [1, 1]  # det = big^2 - (big^2 - 1) = 1
    m2 = IntMatrix([[2 * big, 0], [0, 3 * big]])
    diag2 = check_snf(m2)
    assert diag2 == [big, 6 * big]
