import random
from fractions import Fraction as F
from math import factorial

import pytest

from binomhorn import (
    BinomialOp,
    CapExceededError,
    IntMatrix,
    LatticeBasis,
    PuiseuxSeries,
    ResonanceError,
    Scalar,
    SubgraphAtlas,
    VeryGenericError,
    bounded_atlas,
    component_polynomial,
    enumerate_decompositions,
    generic_rank,
    horn_system_operators,
    kernel_basis,
    make_horn_input,
    solution_basis,
    verify_annihilation,
)
from binomhorn.exact_linalg import column_hnf, coordinate_map, frac_solve
from binomhorn import decomp, series
from binomhorn.series import Truncation, lattice_binomials
from binomhorn.solutions import (
    _cell_exponents,
    _character_weights,
    component_characters,
)
from pipeline_reference import (
    component_of,
    gamma_series,
    sheet_bases,
    word_length,
)


# -- component polynomials -------------------------------------------------------

def multinomial_poly(n):
    terms = {}
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            coeff = factorial(n) // (factorial(a) * factorial(b) * factorial(c))
            terms[(F(a), F(b), F(c))] = F(coeff)
    return terms


def test_component_polynomials_m3(M3):
    # the four bounded components carry 1, (x+y+z), (x+y+z)^2, (x+y+z)^3
    atlas = bounded_atlas(M3)
    for n in range(4):
        comp = atlas.bounded_components[n]
        G = component_polynomial(M3, (n, 0, 0), comp)
        got = {e: c.as_rational() for e, c in G.terms.items()}
        assert got == multinomial_poly(n)


def test_component_polynomial_cross_coefficient(M3):
    atlas = bounded_atlas(M3)
    G = component_polynomial(M3, (2, 0, 0), atlas.bounded_components[2])
    assert G.coefficient((F(1), F(1), F(0))).as_rational() == 2
    assert G.coefficient((F(2), F(0), F(0))).as_rational() == 1


def test_component_polynomial_singleton(M_erd23):
    comp = component_of(M_erd23, (0, 0))
    G = component_polynomial(M_erd23, (0, 0), comp)
    assert G.terms == {(F(0), F(0)): Scalar.one()}


def test_component_polynomial_annihilated_by_columns(M3):
    # the defining property: every column binomial kills the polynomial
    atlas = bounded_atlas(M3)
    ops = lattice_binomials(M3)
    for n in range(4):
        G = component_polynomial(M3, (n, 0, 0), atlas.bounded_components[n])
        rep = verify_annihilation(ops, G)
        assert rep.ok


def test_component_polynomial_random_annihilation():
    rng = random.Random(7)
    done = 0
    while done < 12:
        q = rng.choice([2, 3])
        m = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q)]
        M = IntMatrix(m)
        if not all(any(M.data[i][j] > 0 for i in range(q))
                   and any(M.data[i][j] < 0 for i in range(q))
                   for j in range(q)):
            continue
        from binomhorn.errors import CapExceededError
        try:
            atlas = bounded_atlas(M, cap=20)
        except CapExceededError:
            continue
        ops = lattice_binomials(M)
        for comp in atlas.bounded_components[:4]:
            gamma = min(comp.points)
            G = component_polynomial(M, gamma, comp)
            assert verify_annihilation(ops, G).ok
            assert G.coefficient(gamma) == 1
        done += 1


def spanning_tree_propagation(M, gamma, comp, rng):
    """Independent oracle: propagate coefficients along a random spanning
    tree instead of breadth-first order."""
    pts = list(comp.points)
    cols = [M.column(j) for j in range(M.ncols)]
    edges = []
    ptset = set(pts)
    for u in pts:
        for w in cols:
            v = tuple(a + b for a, b in zip(u, w))
            if v in ptset:
                edges.append((u, v, w))
    rng.shuffle(edges)
    # Kruskal-style tree build
    parent = {p: p for p in pts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = {p: [] for p in pts}
    for u, v, w in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree[u].append((v, w, +1))
            tree[v].append((u, w, -1))
    lam = {gamma: F(1)}
    stack = [gamma]

    def ff(point, e):
        out = 1
        for x, k in zip(point, e):
            for i in range(k):
                out *= x - i
        return out

    while stack:
        u = stack.pop()
        for v, w, sign in tree[u]:
            if v in lam:
                continue
            wp = tuple(max(x, 0) for x in w)
            wm = tuple(max(-x, 0) for x in w)
            if sign > 0:  # v = u + w
                lam[v] = lam[u] * F(ff(u, wm), ff(v, wp))
            else:         # v = u - w
                lam[v] = lam[u] * F(ff(u, wp), ff(v, wm))
            stack.append(v)
    return lam


def test_component_polynomial_tree_independence(M3, M_erd23):
    # acceptance 7(b): ten random spanning trees per component agree
    rng = random.Random(113)
    for M in (M3,):
        atlas = bounded_atlas(M)
        for comp in atlas.bounded_components:
            gamma = min(comp.points)
            G = component_polynomial(M, gamma, comp)
            expected = {e: c.as_rational() for e, c in G.terms.items()}
            for _ in range(10):
                lam = spanning_tree_propagation(M, gamma, comp, rng)
                got = {tuple(map(F, k)): v for k, v in lam.items()}
                assert got == expected


# -- hypergeometric series --------------------------------------------------------

def test_gamma_series_trivial_lattice():
    A = IntMatrix([[3, 0], [0, 3]])
    L = LatticeBasis(2, [])
    s = gamma_series(A, L, (F(1, 6), F(1, 9)), 5)
    assert {s.exponent(z): c for z, c in s.terms.items()} == \
        {(F(1, 6), F(1, 9)): Scalar.one()}


def test_gamma_series_twisted_cubic_annihilation(A_erd):
    # oracle: the truncated series is killed (interior) by the toric binomials
    L = kernel_basis(A_erd)
    v = (F(1, 5), F(0), F(0), F(7, 11))  # integer coordinates on {2,3}
    vv = [F(1, 5), F(2), F(1), F(7, 11)]
    # make v homogeneous of some degree: any exponent works for the binomial
    # check since the binomials only see lattice shifts
    s = gamma_series(A_erd, L, tuple(vv), 4)
    ops = [
        BinomialOp(u_plus=(1, 0, 1, 0), u_minus=(0, 2, 0, 0)),
        BinomialOp(u_plus=(0, 1, 0, 1), u_minus=(0, 0, 2, 0)),
        BinomialOp(u_plus=(1, 0, 0, 1), u_minus=(0, 1, 1, 0)),
    ]
    rep = verify_annihilation(ops, s)
    assert rep.ok
    # negative control: corrupt one coefficient and the check must fail
    bad_terms = dict(s.terms)
    key = sorted(bad_terms)[1]
    bad_terms[key] = bad_terms[key] + 1
    bad = PuiseuxSeries(4, bad_terms, truncation=s.truncation,
                        support=s.support)
    assert not verify_annihilation(ops, bad).ok


def test_gamma_series_gauss_ratio(B_gauss):
    # coefficients reproduce the classical ratio a b / (1! c)
    a, b, c = F(1, 3), F(1, 5), F(2, 7)
    L = LatticeBasis(4, B_gauss.columns())
    hi = make_horn_input(B_gauss)
    v = (F(0), -a, -b, c - 1)
    s = gamma_series(hi.A.submatrix(range(3), range(4)), L, v, 2)
    base = tuple(v)
    k1 = tuple(x + u for x, u in zip(v, B_gauss.column(0)))
    k2 = tuple(x + 2 * u for x, u in zip(v, B_gauss.column(0)))
    assert s.coefficient(base) == 1
    assert s.coefficient(k1).as_rational() == a * b / c
    assert s.coefficient(k2).as_rational() == \
        a * (a + 1) * b * (b + 1) / (2 * c * (c + 1))


def test_gamma_series_resonance():
    A = IntMatrix([[1, 1]])
    L = LatticeBasis(2, [(1, -1)])
    with pytest.raises(ResonanceError):
        gamma_series(A, L, (F(-1), F(1)), 3)


def test_gamma_series_rejects_wrong_lattice():
    from binomhorn.errors import BinomHornError
    A = IntMatrix([[1, 0], [0, 1]])
    L = LatticeBasis(2, [(1, 0)])
    with pytest.raises(BinomHornError):
        gamma_series(A, L, (F(1, 2), F(1, 2)), 2)


# -- characters --------------------------------------------------------------------

def test_component_characters_ds(B_ds, A_ds):
    hi = make_horn_input(B_ds, A_ds)
    dec = enumerate_decompositions(hi)[0]
    chars = component_characters(dec, 3)
    assert len(chars) == 3
    # the callables take coordinates in dec.L_basis
    L = dec.L_basis
    coords = coordinate_map(L.vectors, L.ambient_dim)
    units = [tuple(int(i == j) for j in range(L.rank)) for i in range(L.rank)]
    for k in range(2):
        col = B_ds.column(k)
        for _, fn in chars:
            assert fn(coords(col)) == 1  # trivial on the column span
    values = {tuple(repr(fn(g)) for g in units) for _, fn in chars}
    assert len(values) == 3  # characters separate the saturation
    for _, fn in chars:
        for g in units:
            w = fn(g)
            assert (w * w * w) == 1  # cube roots of unity


def test_component_characters_need_enough_roots(B_ds, A_ds):
    # the exponent of the group decides the order: ds06 (Z/3) needs 3,
    # Z/4 needs 4, and Z/2 x Z/2, of order 4, needs only 2
    from binomhorn.errors import BinomHornError
    hi = make_horn_input(B_ds, A_ds)
    dec = enumerate_decompositions(hi)[0]
    with pytest.raises(BinomHornError, match="need order 3"):
        component_characters(dec, 2)
    with pytest.raises(BinomHornError, match="need order 4"):
        _character_weights(IntMatrix([[4, 0], [0, 1]]), 2)
    klein = _character_weights(IntMatrix([[2, 2], [0, 2]]), 2)
    assert sorted(w for _, w in klein) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_characters_build_only_the_roots_they_read(B_ds, A_ds, monkeypatch):
    # every weight is a multiple of N / e, so the characters of ds06
    # (exponent e = 3) read three powers of zeta_2403, and only those are
    # built; each character still maps k to zeta_N^(w . k)
    from itertools import product
    calls = []
    inner = Scalar.root_of_unity

    def counting(N, k=1):
        calls.append((N, k))
        return inner(N, k)

    monkeypatch.setattr(Scalar, "root_of_unity", staticmethod(counting))
    hi = make_horn_input(B_ds, A_ds)
    dec = next(dec for dec in hi.decompositions if dec.is_toral)
    chars = component_characters(dec, 2403)
    assert 0 < len(calls) <= 3
    weights = dict(_character_weights(IntMatrix.from_columns(
        map(coordinate_map(dec.L_basis.vectors, dec.L_basis.ambient_dim),
            dec.B_J.columns())), 2403))
    assert len(chars) == len(weights) == 3
    for t, fn in chars:
        w = weights[t]
        for k in product(range(-3, 4), repeat=dec.L_basis.rank):
            assert fn(k) == inner(2403, sum(a * b for a, b in zip(w, k)))
    calls.clear()
    sols = solution_basis(hi, (F(1, 5), F(2, 7)), T=2, field_root=2403)
    assert len(sols) == 9 and 0 < len(calls) <= 3


# -- assembled solutions ------------------------------------------------------------

def test_erdelyi_monomial_solution(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    beta = (F(1, 2), F(1, 3))
    sols = solution_basis(hi, beta, T=6)
    assert len(sols) == 4
    monos = [s for s in sols if s.support_rank == 0]
    assert len(monos) == 1
    mono = monos[0].series
    assert {mono.exponent(z): c for z, c in mono.terms.items()} == \
        {(F(1, 6), F(0), F(0), F(1, 9)): Scalar.one()}
    assert len([s for s in sols if s.support_rank == 2]) == 3


def test_erdelyi_solutions_verify(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    beta = (F(1, 2), F(1, 3))
    sols = solution_basis(hi, beta, T=6)
    ops = horn_system_operators(hi, beta)
    for s in sols:
        rep = verify_annihilation(ops, s.series)
        assert rep.ok, (s.decomposition, rep)


def test_solutions_termwise_homogeneous(B_erd, A_erd, B_ds, A_ds):
    for B, A, beta in ((B_erd, A_erd, (F(1, 2), F(1, 3))),
                       (B_ds, A_ds, (F(1, 5), F(2, 7)))):
        hi = make_horn_input(B, A)
        for sol in solution_basis(hi, beta, T=4):
            for e in map(sol.series.exponent, sol.series.terms):
                w = [sum(F(A.data[i][j]) * e[j] for j in range(hi.n))
                     for i in range(hi.d)]
                assert tuple(w) == tuple(beta)


def test_solutions_disjoint_supports_across_gamma(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    sols = solution_basis(hi, (F(1, 2), F(1, 3)), T=5)
    by_key = {}
    for s in sols:
        key = (s.decomposition, s.gamma)
        by_key.setdefault(key, set()).update(
            map(s.series.exponent, s.series.terms))
    keys = sorted(by_key)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            assert not (by_key[k1] & by_key[k2])


def test_solutions_distinct_leading_exponents(B_erd, A_erd, B_ds, A_ds):
    # each series has coefficient 1 at its own base exponent, and the bases
    # are pairwise distinct: a triangular certificate of independence
    for B, A, beta in ((B_erd, A_erd, (F(1, 2), F(1, 3))),
                       (B_ds, A_ds, (F(1, 5), F(2, 7)))):
        hi = make_horn_input(B, A)
        sols = solution_basis(hi, beta, T=4)
        bases = [s.series.support.alpha for s in sols]
        assert len(set(bases)) == len(bases)
        for s in sols:
            assert s.series.coefficient(s.series.support.alpha) == 1


def test_ds_nine_twisted_solutions(B_ds, A_ds):
    hi = make_horn_input(B_ds, A_ds)
    beta = (F(1, 5), F(2, 7))
    sols = solution_basis(hi, beta, T=3, field_root=3)
    assert len(sols) == 9
    ops = horn_system_operators(hi, beta, field_order=3)
    for s in sols:
        assert verify_annihilation(ops, s.series).ok
    # the three characters appear vol-many times each
    from collections import Counter
    counts = Counter(s.character for s in sols)
    assert sorted(counts.values()) == [3, 3, 3]
    # twisted solutions also satisfy their own twisted lattice binomials
    dec = enumerate_decompositions(hi)[0]
    for s in sols:
        chars = dict(component_characters(dec, 3))
        fn = chars[s.character]
        sat = dec.L_basis
        ops_rho = []
        for i, vec in enumerate(sat.vectors):
            up = tuple(max(x, 0) for x in vec)
            um = tuple(max(-x, 0) for x in vec)
            k = tuple(int(i == j) for j in range(sat.rank))  # vec's coordinates
            ops_rho.append(BinomialOp(u_plus=up, u_minus=um, lam=fn(k)))
        assert verify_annihilation(ops_rho, s.series).ok


def test_word_tables_are_shared_across_calls(B_ds, A_ds):
    # one input reused across bounds, betas and field roots gives what a
    # fresh input gives, and an edit of one result's terms reaches no
    # later result
    hi = make_horn_input(B_ds, A_ds)
    calls = [(4, (F(1, 5), F(2, 7)), 1), (6, (F(3, 5), F(1, 7)), 3),
             (4, (F(2, 7), F(4, 5)), 3), (4, (F(1, 5), F(2, 7)), 1)]
    truncations = {}
    for T, beta, root in calls:
        got = solution_basis(hi, beta, T=T, field_root=root)
        want = solution_basis(make_horn_input(B_ds, A_ds), beta, T=T,
                              field_root=root)
        assert len(got) == len(want) == (9 if root == 3 else 3)
        for a, b in zip(got, want):
            assert (a.decomposition, a.gamma, a.simplex, a.character) == \
                (b.decomposition, b.gamma, b.simplex, b.character)
            assert a.series.terms == b.series.terms
            assert a.series.truncation == b.series.truncation
            assert a.series.truncation.bound == T
            assert a.series.support == b.series.support
            # every solution of a decomposition at one T shares one
            # Truncation, across calls too
            tr = truncations.setdefault((a.decomposition, T),
                                        a.series.truncation)
            assert a.series.truncation is tr
        for a in got:
            key = min(a.series.terms)
            a.series.terms[key] = a.series.terms[key] * 7
            a.series.terms[(99,) * hi.n] = Scalar.one(root)


@pytest.mark.parametrize("fixture, root", [("erdelyi", 1), ("ds06", 3)])
def test_row_plans_are_shared_across_betas(fixture, root, B_erd, A_erd,
                                           B_ds, A_ds):
    # the words a point of a component polynomial keeps, and their
    # offsets, are one row plan per sheet translate and zero cut, built
    # at the first beta: later betas add no plan, and their solutions
    # key their terms by the same offset tuples
    B, A = (B_erd, A_erd) if fixture == "erdelyi" else (B_ds, A_ds)
    hi = make_horn_input(B, A)
    keys, plans = {}, []
    for beta in ((F(1, 5), F(2, 7)), (F(3, 7), F(4, 5)), (F(9, 5), F(6, 7))):
        sols = solution_basis(hi, beta, T=8, field_root=root)
        plans.append(sum(len(dec.word_table(8)._plans)
                         for dec in hi.decompositions if dec.is_toral))
        for i, sol in enumerate(sols):
            for z in sol.series.terms:
                assert keys.setdefault((i, z), z) is z
    assert plans[0] == plans[-1] > 0
    assert len(keys) > 100


def test_series_wall_at_T80(B_ds, A_ds):
    # ds06 with its three characters at T = 80; a series layer that
    # loses its integer paths or rebuilds per-term work fails here fast
    # and by name
    hi = make_horn_input(B_ds, A_ds)
    beta = (F(1, 5), F(2, 7))
    sols = solution_basis(hi, beta, T=80, field_root=3)
    assert len(sols) == 9
    ops = horn_system_operators(hi, beta, field_order=3)
    for s in sols:
        rep = verify_annihilation(ops, s.series)
        assert len(rep.checks) == len(ops)
        assert all(not c.interior_residual for c in rep.checks)


def block_diagonal(*blocks):
    rows = []
    width = sum(m.ncols for m in blocks)
    col = 0
    for m in blocks:
        for r in m.data:
            rows.append([0] * col + list(r) + [0] * (width - col - m.ncols))
        col += m.ncols
    return IntMatrix(rows)


def test_basis_wall_ds06_cubed(B_ds, A_ds):
    # ds06 + ds06 + ds06 on the diagonal: rank 9^3 at field root 3, so
    # 729 solutions of 27 character twists each to verify; a verify
    # path that builds Fractions per term again fails here fast and by
    # name
    hi = make_horn_input(block_diagonal(B_ds, B_ds, B_ds),
                         block_diagonal(A_ds, A_ds, A_ds))
    beta = (F(1, 5), F(2, 7), F(3, 5), F(4, 7), F(6, 5), F(9, 7))
    sols = solution_basis(hi, beta, T=4, field_root=3)
    assert len(sols) == 729
    assert len({frozenset(s.series.terms.items()) for s in sols}) == 729
    ops = horn_system_operators(hi, beta, field_order=3)
    for s in sols:
        rep = verify_annihilation(ops, s.series)
        assert len(rep.checks) == len(ops)
        assert all(not c.interior_residual for c in rep.checks)



def test_offset_work_once_per_support(monkeypatch, B_ds, A_ds):
    # the g = 3 character twists of each ds06 support build its falling
    # factorial columns once between them, and the truncation shared by
    # every solution of a decomposition builds one coverage test per
    # (sheets, shifts) across verify calls and betas; a verify path that
    # rebuilds offset-only work per series fails here fast and by name
    columns, tests = [], []
    falling, coverage_test = series._falling_column, Truncation._coverage_test

    def counting_column(base, zs, u):
        columns.append(u)
        return falling(base, zs, u)

    def counting_test(trunc, sheets, shifts):
        tests.append((id(trunc), sheets, shifts))
        return coverage_test(trunc, sheets, shifts)

    monkeypatch.setattr(series, "_falling_column", counting_column)
    monkeypatch.setattr(Truncation, "_coverage_test", counting_test)
    hi = make_horn_input(B_ds, A_ds)
    want_columns, want_tests, checks = 0, set(), 0
    for beta in ((F(1, 5), F(2, 7)), (F(2, 5), F(1, 7)), (F(3, 7), F(2, 11))):
        sols = solution_basis(hi, beta, T=6, field_root=3)
        ops = horn_system_operators(hi, beta, field_order=3)
        exponents = {u for op in ops if isinstance(op, BinomialOp)
                     for u in (op.u_plus, op.u_minus)}
        supports = {id(sol.series.support) for sol in sols}
        assert len(supports) * 3 == len(sols)
        want_columns += len(supports) * len(exponents)
        for sol in sols:
            s = sol.series
            assert verify_annihilation(ops, s).ok
            for op in ops:
                shifts = (op.u_plus, op.u_minus) \
                    if isinstance(op, BinomialOp) else ((0,) * hi.n,)
                want_tests.add((id(s.truncation), s.support.translates, shifts))
                checks += 1
    assert len(columns) == want_columns
    assert sorted(tests) == sorted(want_tests)
    assert len(tests) < checks / 10


@pytest.mark.parametrize("fixture, root", [("erdelyi", 1), ("ds06", 3)])
def test_offset_pairings_once_across_betas(monkeypatch, fixture, root, B_erd,
                                           A_erd, B_ds, A_ds):
    # the pairing of each binomial operator and the level sets of each
    # Euler row depend on the offsets alone, and the offsets of a
    # truncation's solutions do not change with beta: on one input over
    # three betas at T = 20, each is built once per truncation and
    # offsets, all of them at the first beta; a verify path that
    # re-pairs every support at every beta fails here fast and by name;
    # the level sets are counted by the integer row of EulerOp._keys
    pairings, products = [], []
    pairing, euler_levels = series._pairing, series._euler_levels

    def counting_pairing(zs, u_plus, u_minus=None):
        pairings.append((zs, u_plus, u_minus))
        return pairing(zs, u_plus, u_minus)

    def counting_levels(zs, ints):
        products.append((zs, ints))
        return euler_levels(zs, ints)

    monkeypatch.setattr(series, "_pairing", counting_pairing)
    monkeypatch.setattr(series, "_euler_levels", counting_levels)
    B, A = (B_erd, A_erd) if fixture == "erdelyi" else (B_ds, A_ds)
    hi = make_horn_input(B, A)
    want_pairings, want_products, built = set(), set(), []
    for beta in ((F(1, 5), F(2, 7)), (F(3, 7), F(4, 5)), (F(9, 5), F(6, 7))):
        sols = solution_basis(hi, beta, T=20, field_root=root)
        ops = horn_system_operators(hi, beta, field_order=root)
        for sol in sols:
            s = sol.series
            assert verify_annihilation(ops, s).ok
            key = (id(s.truncation), tuple(s.terms))
            for op in ops:
                if isinstance(op, BinomialOp):
                    want_pairings.add(key + (op.u_plus, op.u_minus))
                else:
                    want_products.add(key + (op._keys[0],))
        built.append((len(pairings), len(products)))
    assert len(pairings) == len(want_pairings)
    assert set(pairings) == {key[1:] for key in want_pairings}
    assert len(products) == len(want_products)
    assert set(products) == {(key[1], key[2][2]) for key in want_products}
    assert built[0] == built[-1] == (len(pairings), len(products))
    assert len(pairings) == len(sols) // root * hi.m

def test_one_atlas_per_decomposition_and_cap(monkeypatch, B_erd, A_erd):
    # solution_basis and generic_rank read the atlas of a decomposition
    # from the decomposition, computed once per cap across calls and
    # betas; a cap that no level closes within keeps the error, which
    # every later call raises again, and no partial atlas is kept
    calls = []
    real = decomp.bounded_atlas

    def counting(M, cap=1000):
        calls.append(cap)
        return real(M, cap=cap)

    monkeypatch.setattr(decomp, "bounded_atlas", counting)
    hi = make_horn_input(B_erd, A_erd)
    torals = [dec for dec in hi.decompositions if dec.is_toral]
    for beta in ((F(1, 5), F(2, 7)), (F(3, 7), F(4, 5)), (F(9, 5), F(6, 7))):
        assert len(solution_basis(hi, beta, T=4)) == 4
        assert generic_rank(hi).total == 4
    assert calls == [1000] * len(torals)
    raised, counts = [], []
    for _ in range(3):
        with pytest.raises(CapExceededError) as exc:
            generic_rank(hi, cap=0)
        raised.append(exc.value)
        counts.append(calls.count(0))
    assert calls.count(1000) == len(torals)
    assert counts == [counts[0]] * 3 and 1 <= counts[0] <= len(torals)
    assert raised[0] is raised[1] is raised[2]
    # the blocks that closed keep their atlas, the one that did not keeps
    # its error, and no block after it was walked
    kept = [dec._atlases[0] for dec in torals if 0 in dec._atlases]
    assert len(kept) == counts[0] and kept[-1] is raised[0]
    assert all(isinstance(atlas, SubgraphAtlas) for atlas in kept[:-1])
    # a certified verdict keeps its certificate
    certificate = (2, 1)

    def certified(M, cap=1000):
        calls.append(cap)
        raise CapExceededError("mu is infinite", certificate=certificate)

    monkeypatch.setattr(decomp, "bounded_atlas", certified)
    for _ in range(2):
        with pytest.raises(CapExceededError) as exc:
            torals[0].atlas(7)
        assert exc.value.certificate == certificate
    assert calls.count(7) == 1


def reference_cell_exponents(dec, sigma, cell_volume, beta_shifted):
    """The exponents of one cell by a Hermite form of the projected
    lattice and one Fraction solve per coset and parameter, the route
    that ``Decomposition.cell_plans`` replaced."""
    nj = len(dec.J)
    comp = [t for t in range(nj) if t not in set(sigma)]
    reps = [()]
    if comp:
        proj = [tuple(vec[t] for t in comp) for vec in dec.L_basis.vectors]
        H = column_hnf(IntMatrix.from_columns(proj))
        for dd in (H.data[i][i] for i in range(len(comp))):
            reps = [t + (i,) for t in reps for i in range(dd)]
    assert len(reps) == cell_volume
    d = dec.A_J.nrows
    rows = [[dec.A_J.data[i][t] for t in sigma] for i in range(d)]
    out = []
    for a in sorted(reps):
        rhs = [b - sum(dec.A_J.data[i][t] * x for t, x in zip(comp, a))
               for i, b in enumerate(beta_shifted)]
        sol = frac_solve(rows, rhs)
        v = [F(0)] * nj
        for t, x in zip(sigma, sol):
            v[t] = x
        for t, x in zip(comp, a):
            v[t] = F(x)
        out.append(tuple(v))
    return out


def test_cell_plans_match_the_per_beta_solve(monkeypatch, B_erd, A_erd,
                                             B_ds, A_ds, B_five, A_five):
    # the coset representatives and the inverted block of each cell are
    # built once per decomposition, by the first of three solves, and
    # each beta costs one integer product: the exponents equal a fresh
    # Fraction solve per coset, on every toral cell of three fixtures and
    # 20 seeded shifted betas
    built = []
    real = decomp._cell_plan
    monkeypatch.setattr(decomp, "_cell_plan", lambda dec, sigma, vol: (
        built.append(sigma) or real(dec, sigma, vol)))
    rng = random.Random(73)
    cells = 0
    for B, A in ((B_erd, A_erd), (B_ds, A_ds), (B_five, A_five)):
        hi = make_horn_input(B, A)
        torals = [dec for dec in hi.decompositions if dec.is_toral]
        before = len(built)
        for beta in ((F(1, 5), F(2, 7)), (F(3, 7), F(4, 5)), (F(9, 5), F(6, 7))):
            solution_basis(hi, beta, T=2)
        assert len(built) - before == sum(len(dec.cone.cells)
                                          for dec in torals)
        for _ in range(20):
            beta = tuple(F(rng.randint(-30, 30), rng.randint(1, 12))
                         for _ in range(hi.d))
            for dec in torals:
                for plan, (sigma, vol) in zip(dec.cell_plans, dec.cone.cells):
                    assert plan[0] == tuple(sigma)
                    assert _cell_exponents(plan, beta) == \
                        reference_cell_exponents(dec, sigma, vol, beta)
                    cells += 1
    assert len(built) * 20 == cells and cells >= 200


def test_gauss_two_solutions(B_gauss):
    hi = make_horn_input(B_gauss)
    beta = (F(1, 2), F(1, 3), F(1, 5))
    sols = solution_basis(hi, beta, T=4)
    assert len(sols) == 2
    ops = horn_system_operators(hi, beta)
    for s in sols:
        assert verify_annihilation(ops, s.series).ok


def test_nh_solutions(B_nh, A_nh):
    hi = make_horn_input(B_nh, A_nh)
    beta = (F(1, 3), F(1, 7))
    sols = solution_basis(hi, beta, T=4)
    assert len(sols) == 2
    ops = horn_system_operators(hi, beta)
    for s in sols:
        assert verify_annihilation(ops, s.series).ok


def test_very_generic_violation_raises(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    with pytest.raises(VeryGenericError) as exc:
        solution_basis(hi, (F(1), F(2)), T=3)
    assert exc.value.violations


def test_infinite_rank_raises(B_him, A_him):
    from binomhorn import InfiniteRankError
    hi = make_horn_input(B_him, A_him)
    with pytest.raises(InfiniteRankError):
        solution_basis(hi, (F(1, 2), F(1, 3)), T=3)


def test_verification_negative_control(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    beta = (F(1, 2), F(1, 3))
    sols = solution_basis(hi, beta, T=5)
    full = [s for s in sols if s.support_rank == 2][0]
    ops = horn_system_operators(hi, beta)
    terms = dict(full.series.terms)
    key = sorted(terms)[0]
    terms[key] = terms[key] * 7  # corrupt
    bad = PuiseuxSeries(4, terms, truncation=full.series.truncation,
                        support=full.series.support)
    rep = verify_annihilation(ops, bad)
    assert not rep.ok
    failing = [c for c in rep.checks if not c.ok]
    assert failing and all(c.interior_residual for c in failing)


def test_supports_lie_on_declared_sheets(B_erd, A_erd):
    hi = make_horn_input(B_erd, A_erd)
    sols = solution_basis(hi, (F(1, 2), F(1, 3)), T=4)
    for s in sols:
        tr = s.series.truncation
        sheets = sheet_bases(s.series.support)
        for e in map(s.series.exponent, s.series.terms):
            words = []
            for b in sheets:
                w = word_length(tr, tuple(x - y for x, y in zip(e, b)))
                if w is not None:
                    words.append(w)
            assert words and min(words) <= tr.bound


def test_solution_count_matches_rank(B_erd, A_erd, B_ds, A_ds, B_gauss):
    from binomhorn import generic_rank
    cases = [
        (B_erd, A_erd, (F(1, 2), F(1, 3)), 1),
        (B_ds, A_ds, (F(1, 5), F(2, 7)), 3),
    ]
    for B, A, beta, root in cases:
        hi = make_horn_input(B, A)
        sols = solution_basis(hi, beta, T=3, field_root=root)
        assert len(sols) == generic_rank(hi).total


# -- the five-variable system with a genuinely nontrivial mixed block -----------

def test_five_variable_component_polynomial(B_five, A_five):
    # the published quartic solution of the constant-coefficient block
    # system, 5 x4^4 x5^2 + 2 x4^5 + 2 x5^5 + 40 x4 x5^3, normalized at its
    # lexicographically smallest support point (0,5)
    M = IntMatrix([[4, 5], [-3, -5]])
    comp = component_of(M, (0, 5))
    assert comp.bounded
    assert comp.points == ((0, 5), (1, 3), (4, 2), (5, 0))
    G = component_polynomial(M, (0, 5), comp)
    got = {e: c.as_rational() for e, c in G.terms.items()}
    assert got == {(F(0), F(5)): F(1), (F(1), F(3)): F(20),
                   (F(4), F(2)): F(5, 2), (F(5), F(0)): F(1)}


def test_five_variable_structure(B_five, A_five):
    hi = make_horn_input(B_five, A_five)
    decs = enumerate_decompositions(hi)
    assert all(d.is_toral for d in decs)
    d45 = next(d for d in decs if d.rowset_Jbar == (3, 4))
    assert d45.M == IntMatrix([[4, 5], [-3, -5]])
    assert d45.N == IntMatrix([[0, -1], [-1, 0], [0, 1]])
    assert d45.B_J == IntMatrix([[2], [-1], [-1]])
    assert d45.g == 1  # the column (2,-1,-1) is primitive
    assert d45.cone.volume == 2


def test_five_variable_solutions_verify(B_five, A_five):
    # the only fixture family whose mixed blocks shift the inner series by
    # nonzero integer vectors: exercises the shifted-series calculus
    hi = make_horn_input(B_five, A_five)
    beta = (F(3, 7), F(2, 11))
    sols = solution_basis(hi, beta, T=2)
    from binomhorn import generic_rank
    assert len(sols) == generic_rank(hi).total == 48
    ops = horn_system_operators(hi, beta)
    for s in sols:
        rep = verify_annihilation(ops, s.series)
        assert rep.ok, (s.decomposition, s.gamma, s.simplex)
        for e in map(s.series.exponent, s.series.terms):
            w = tuple(sum(F(A_five.data[i][j]) * e[j] for j in range(5))
                      for i in range(2))
            assert w == beta


def test_maximal_block_solutions():
    # 4x2 system whose mixed block is the full 2x2 top of B; the inner
    # solutions are monomials in x3, x4 and the assembled solution is
    # x3^w3 x4^w4 + (w4/2) x1^2 x3^w3 x4^(w4-1) after normalization
    B = IntMatrix([[2, -3], [-1, 2], [0, 1], [-1, 0]])
    A = IntMatrix([[1, 1, 1, 1], [1, 0, 3, 2]])
    hi = make_horn_input(B, A)
    decs = enumerate_decompositions(hi)
    d12 = next(d for d in decs if d.rowset_Jbar == (0, 1))
    assert d12.is_toral and d12.B_J.shape == (2, 0)
    comp = component_of(d12.M, (0, 1))
    assert set(comp.points) == {(2, 0), (0, 1)}
    G = component_polynomial(d12.M, (0, 1), comp)
    assert {e: c.as_rational() for e, c in G.terms.items()} == \
        {(F(0), F(1)): F(1), (F(2), F(0)): F(1, 2)}

    beta = (F(9, 5), F(16, 7))
    sols = solution_basis(hi, beta, T=3)
    from binomhorn import generic_rank
    assert len(sols) == generic_rank(hi).total
    ops = horn_system_operators(hi, beta)
    for s in sols:
        assert verify_annihilation(ops, s.series).ok
    # pick the gamma = (0,1) solution and check its two-term shape
    two = [s for s in sols if s.rowset == (1, 2) and s.gamma == (0, 1)]
    assert len(two) == 1
    series = two[0].series
    terms = {series.exponent(z): c for z, c in series.terms.items()}
    assert len(terms) == 2
    mono = next(e for e in terms if e[1] == 1)      # x2 * x3^w3 x4^w4
    quad = next(e for e in terms if e[0] == 2)      # x1^2 x3^w3 x4^(w4-1)
    w3, w4 = mono[2], mono[3]
    assert quad == (F(2), F(0), w3, w4 - 1)
    ratio = terms[quad].as_rational() / terms[mono].as_rational()
    assert ratio == w4 / 2


def test_random_systems_end_to_end():
    # random valid systems: the basis always has generic-rank many members
    # and every member passes interior verification against the full system
    import random
    from binomhorn import generic_rank, validate_B
    from binomhorn.errors import CapExceededError

    rng = random.Random(2024)
    done = 0
    attempts = 0
    while done < 6 and attempts < 4000:
        attempts += 1
        n, m = 4, 2
        B = IntMatrix([[rng.randint(-2, 2) for _ in range(m)]
                       for _ in range(n)])
        if not validate_B(B).ok:
            continue
        hi = make_horn_input(B)
        try:
            rep = generic_rank(hi, cap=30)
        except CapExceededError:
            continue
        if rep.infinite or rep.total > 12:
            continue
        beta = (F(rng.randint(1, 40), 41), F(rng.randint(1, 40), 43))
        try:
            sols = solution_basis(hi, beta, T=3, cap=30)
        except (VeryGenericError, ResonanceError):
            continue
        trivial_count = sum(s.mu * s.vol for s in rep.summands)
        assert len(sols) == trivial_count
        ops = horn_system_operators(hi, beta)
        for s in sols:
            assert verify_annihilation(ops, s.series).ok, (B.tolist(), s)
        done += 1
    assert done == 6


def test_twists_combined_with_component_shifts():
    # no published fixture has both a nontrivial lattice index and
    # multi-point bounded components in one block; this system does
    # (index-2 block at rows {2,5} with shifted pieces), so it exercises
    # the interaction of character twists with the shifted-series calculus
    B = IntMatrix([[1, 0, 2], [1, 3, 0], [-2, 1, 0], [2, 1, -2],
                   [-1, -2, 0]])
    hi = make_horn_input(B)
    from binomhorn import generic_rank
    rep = generic_rank(hi)
    parts = {s.rowset: (s.mu, s.g, s.vol) for s in rep.summands}
    assert parts == {(): (1, 2, 13), (2, 5): (2, 2, 1), (1, 4, 5): (2, 1, 1)}
    assert rep.total == 32

    beta = (F(5, 13), F(3, 17))
    sols = solution_basis(hi, beta, T=2, field_root=2)
    assert len(sols) == 32
    ops = horn_system_operators(hi, beta, field_order=2)
    decs = {d.label: d for d in enumerate_decompositions(hi)}
    for s in sols:
        assert verify_annihilation(ops, s.series).ok
        dec = decs[s.decomposition]
        if dec.g == 1:
            continue
        fn = dict(component_characters(dec, 2))[s.character]
        ops_rho = []
        for i, vec in enumerate(dec.L_basis.vectors):
            k = tuple(int(i == j) for j in range(dec.L_basis.rank))
            vfull = [0] * 5
            for pos, j in enumerate(dec.J):
                vfull[j] = vec[pos]
            ops_rho.append(BinomialOp(
                u_plus=tuple(max(x, 0) for x in vfull),
                u_minus=tuple(max(-x, 0) for x in vfull),
                lam=fn(k)))
        assert verify_annihilation(ops_rho, s.series).ok
